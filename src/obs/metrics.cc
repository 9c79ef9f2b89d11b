#include "obs/metrics.hh"

#include <cinttypes>
#include <cstdio>

namespace howsim::obs
{

/** Append a JSON-escaped string literal (with quotes) to @p out. */
void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

namespace
{

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

void
appendDouble(std::string &out, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out += buf;
}

} // namespace

double
Histogram::percentile(double p) const
{
    if (n == 0)
        return 0.0;
    if (p <= 0.0)
        return static_cast<double>(lo);
    if (p >= 1.0)
        return static_cast<double>(hi);
    std::uint64_t rank = static_cast<std::uint64_t>(
        p * static_cast<double>(n - 1));
    std::uint64_t seen = 0;
    for (int i = 0; i < bucketCount; ++i) {
        if (buckets[i] == 0)
            continue;
        if (seen + buckets[i] > rank) {
            // Interpolate linearly inside the bucket, clamped to the
            // observed extremes.
            double frac = static_cast<double>(rank - seen)
                          / static_cast<double>(buckets[i]);
            double fl = static_cast<double>(bucketFloor(i));
            double ce = static_cast<double>(bucketCeil(i));
            double est = fl + frac * (ce - fl);
            est = est < static_cast<double>(lo)
                      ? static_cast<double>(lo)
                      : est;
            return est > static_cast<double>(hi)
                       ? static_cast<double>(hi)
                       : est;
        }
        seen += buckets[i];
    }
    return static_cast<double>(hi);
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    return counterMap[name];
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    return gaugeMap[name];
}

Histogram &
MetricRegistry::histogram(const std::string &name)
{
    return histogramMap[name];
}

void
MetricRegistry::note(const std::string &name, const std::string &value)
{
    noteMap[name] = value;
}

std::string
MetricRegistry::toJson() const
{
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : counterMap) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": ";
        appendU64(out, c.value());
    }
    out += "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto &[name, g] : gaugeMap) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": ";
        appendDouble(out, g.value());
    }
    out += "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histogramMap) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": {\"count\": ";
        appendU64(out, h.count());
        out += ", \"sum\": ";
        appendU64(out, h.sum());
        out += ", \"min\": ";
        appendU64(out, h.min());
        out += ", \"max\": ";
        appendU64(out, h.max());
        out += ", \"mean\": ";
        appendDouble(out, h.mean());
        out += ", \"p50\": ";
        appendDouble(out, h.percentile(0.5));
        out += ", \"p99\": ";
        appendDouble(out, h.percentile(0.99));
        out += ", \"buckets\": [";
        bool firstBucket = true;
        for (int i = 0; i < Histogram::bucketCount; ++i) {
            if (h.bucket(i) == 0)
                continue;
            if (!firstBucket)
                out += ", ";
            firstBucket = false;
            out += "[";
            appendU64(out, Histogram::bucketCeil(i));
            out += ", ";
            appendU64(out, h.bucket(i));
            out += "]";
        }
        out += "]}";
    }
    out += "\n  }";
    if (!noteMap.empty()) {
        out += ",\n  \"annotations\": {";
        first = true;
        for (const auto &[name, v] : noteMap) {
            out += first ? "\n    " : ",\n    ";
            first = false;
            appendJsonString(out, name);
            out += ": ";
            appendJsonString(out, v);
        }
        out += "\n  }";
    }
    out += "\n}\n";
    return out;
}

} // namespace howsim::obs

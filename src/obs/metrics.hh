/**
 * @file
 * Metric primitives and the hierarchically scoped registry.
 *
 * Metrics are named with dotted paths ("ad0.bytes_read",
 * "switch1.link3.bytes"); the Scope helper mints children under a
 * common prefix so a component never concatenates strings by hand.
 * Three shapes cover everything the simulator reports:
 *
 *  - Counter:   monotonically increasing unsigned totals,
 *  - Gauge:     last-written floating-point value,
 *  - Histogram: log2-bucketed distribution of unsigned samples
 *               (latencies in ticks, queue depths), with exact
 *               count/sum/min/max and bucket-interpolated
 *               percentiles.
 *
 * The registry is node-based (std::map), so references returned by
 * counter()/gauge()/histogram() stay valid for the registry's
 * lifetime — components look a metric up once at construction and
 * keep the pointer, paying no string hashing on the hot path.
 *
 * This library sits below howsim_sim (which links it), so it must
 * not use sim/logging; it is header-plus-one-cc and self-contained.
 */

#ifndef HOWSIM_OBS_METRICS_HH
#define HOWSIM_OBS_METRICS_HH

#include <bit>
#include <cstdint>
#include <map>
#include <string>

namespace howsim::obs
{

/** Monotonic unsigned total. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { total += n; }

    std::uint64_t value() const { return total; }

  private:
    std::uint64_t total = 0;
};

/** Last-written value. */
class Gauge
{
  public:
    void set(double v) { val = v; }

    double value() const { return val; }

  private:
    double val = 0.0;
};

/**
 * Log-scale histogram over unsigned samples. Bucket i collects the
 * values whose bit width is i, i.e. bucket 0 holds only 0, bucket i
 * holds [2^(i-1), 2^i). Insertion is a bit_width plus two adds.
 */
class Histogram
{
  public:
    /** bit_width ranges over [0, 64]. */
    static constexpr int bucketCount = 65;

    void
    sample(std::uint64_t v)
    {
        if (n == 0 || v < lo)
            lo = v;
        if (n == 0 || v > hi)
            hi = v;
        ++n;
        total += v;
        ++buckets[std::bit_width(v)];
    }

    std::uint64_t count() const { return n; }
    std::uint64_t sum() const { return total; }
    std::uint64_t min() const { return lo; }
    std::uint64_t max() const { return hi; }

    double
    mean() const
    {
        return n ? static_cast<double>(total) / static_cast<double>(n)
                 : 0.0;
    }

    std::uint64_t bucket(int i) const { return buckets[i]; }

    /** Smallest value bucket @p i can hold. */
    static std::uint64_t
    bucketFloor(int i)
    {
        return i == 0 ? 0 : std::uint64_t(1) << (i - 1);
    }

    /** Largest value bucket @p i can hold. */
    static std::uint64_t
    bucketCeil(int i)
    {
        return i == 0 ? 0 : (std::uint64_t(1) << (i - 1)) * 2 - 1;
    }

    /**
     * Bucket-interpolated percentile estimate of @p p in [0, 1];
     * exact for min/max, within one power of two elsewhere.
     */
    double percentile(double p) const;

  private:
    std::uint64_t n = 0;
    std::uint64_t total = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint64_t buckets[bucketCount] = {};
};

/**
 * Named metrics for one observability session. References returned
 * here are stable until the registry is destroyed.
 */
class MetricRegistry
{
  public:
    /** Find or create the metric named @p name. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * Attach a string annotation — reproducibility context such as
     * the canonical fault-plan spec — emitted in an "annotations"
     * section of the JSON (present only when any annotation is set).
     */
    void note(const std::string &name, const std::string &value);

    const std::map<std::string, std::string> &notes() const
    {
        return noteMap;
    }

    const std::map<std::string, Counter> &counters() const
    {
        return counterMap;
    }
    const std::map<std::string, Gauge> &gauges() const
    {
        return gaugeMap;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histogramMap;
    }

    /** Total metrics of all three shapes. */
    std::size_t
    size() const
    {
        return counterMap.size() + gaugeMap.size()
               + histogramMap.size();
    }

    /** Serialize every metric as a JSON object. */
    std::string toJson() const;

  private:
    std::map<std::string, Counter> counterMap;
    std::map<std::string, Gauge> gaugeMap;
    std::map<std::string, Histogram> histogramMap;
    std::map<std::string, std::string> noteMap;
};

/**
 * Dotted-path naming scope: Scope(reg, "disk0").counter("bytes") is
 * reg.counter("disk0.bytes"). Scopes nest via scoped().
 */
class Scope
{
  public:
    Scope(MetricRegistry &r, std::string prefix)
        : reg(&r), pre(std::move(prefix))
    {
    }

    /** Child scope "<prefix>.<sub>". */
    Scope
    scoped(const std::string &sub) const
    {
        return Scope(*reg, join(sub));
    }

    Counter &counter(const std::string &leaf) const
    {
        return reg->counter(join(leaf));
    }
    Gauge &gauge(const std::string &leaf) const
    {
        return reg->gauge(join(leaf));
    }
    Histogram &histogram(const std::string &leaf) const
    {
        return reg->histogram(join(leaf));
    }

    const std::string &prefix() const { return pre; }

  private:
    std::string
    join(const std::string &leaf) const
    {
        return pre.empty() ? leaf : pre + "." + leaf;
    }

    MetricRegistry *reg;
    std::string pre;
};

/** Append a JSON-escaped string literal (with quotes) to @p out. */
void appendJsonString(std::string &out, const std::string &s);

} // namespace howsim::obs

#endif // HOWSIM_OBS_METRICS_HH

#include "obs/trace_sink.hh"

#include <cinttypes>
#include <cstdio>

#include "obs/metrics.hh"

namespace howsim::obs
{

namespace
{

/** Ticks (ns) to the microsecond timestamps trace viewers expect. */
void
appendMicros(std::string &out, sim::Tick t)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", t / 1000,
                  static_cast<unsigned>(t % 1000));
    out += buf;
}

} // namespace

TraceSink::TraceSink()
{
    // Track 0 is the simulator's own track; components mint theirs
    // lazily via track().
    trackNames.push_back("sim");
    trackIds.emplace("sim", 0);
}

TraceSink::TrackId
TraceSink::track(const std::string &name)
{
    auto [it, inserted] =
        trackIds.emplace(name, static_cast<TrackId>(trackNames.size()));
    if (inserted)
        trackNames.push_back(name);
    return it->second;
}

void
TraceSink::complete(TrackId tid, std::string name, const char *cat,
                    sim::Tick start, sim::Tick dur)
{
    events.push_back(
        {'X', tid, cat, std::move(name), start, dur, 0, 0.0});
}

std::uint64_t
TraceSink::asyncBegin(const char *cat, std::string name, sim::Tick ts)
{
    std::uint64_t id = nextAsync++;
    events.push_back({'b', 0, cat, std::move(name), ts, 0, id, 0.0});
    return id;
}

void
TraceSink::asyncEnd(const char *cat, std::string name, std::uint64_t id,
                    sim::Tick ts)
{
    events.push_back({'e', 0, cat, std::move(name), ts, 0, id, 0.0});
}

void
TraceSink::counter(std::string name, sim::Tick ts, double value)
{
    events.push_back({'C', 0, "counter", std::move(name), ts, 0, 0,
                      value});
}

void
TraceSink::instant(TrackId tid, std::string name, const char *cat,
                   sim::Tick ts)
{
    events.push_back({'i', tid, cat, std::move(name), ts, 0, 0, 0.0});
}

void
TraceSink::writeJson(std::ostream &out, const std::string &label) const
{
    std::string buf;
    buf.reserve(256 + events.size() * 96);
    buf += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";

    // Metadata: name the process after the experiment and each track
    // after its component.
    buf += "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
           "\"name\": \"process_name\", \"args\": {\"name\": ";
    appendJsonString(buf, label);
    buf += "}}";
    for (TrackId t = 0; t < trackNames.size(); ++t) {
        char head[96];
        std::snprintf(head, sizeof(head),
                      ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, "
                      "\"name\": \"thread_name\", \"args\": {\"name\": ",
                      t);
        buf += head;
        appendJsonString(buf, trackNames[t]);
        buf += "}}";
        // Keep Perfetto's track order stable and matching creation
        // order rather than alphabetical.
        char sort[96];
        std::snprintf(sort, sizeof(sort),
                      ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, "
                      "\"name\": \"thread_sort_index\", "
                      "\"args\": {\"sort_index\": %u}}",
                      t, t);
        buf += sort;
    }

    for (const Event &e : events) {
        char head[64];
        std::snprintf(head, sizeof(head),
                      ",\n{\"ph\": \"%c\", \"pid\": 1, \"tid\": %u, ",
                      e.ph, e.tid);
        buf += head;
        buf += "\"cat\": ";
        appendJsonString(buf, e.cat);
        buf += ", \"name\": ";
        appendJsonString(buf, e.name);
        buf += ", \"ts\": ";
        appendMicros(buf, e.ts);
        switch (e.ph) {
          case 'X':
            buf += ", \"dur\": ";
            appendMicros(buf, e.dur);
            break;
          case 'b':
          case 'e': {
            char id[40];
            std::snprintf(id, sizeof(id),
                          ", \"id\": \"0x%" PRIx64 "\"", e.id);
            buf += id;
            break;
          }
          case 'C': {
            char val[48];
            std::snprintf(val, sizeof(val),
                          ", \"args\": {\"value\": %.6g}", e.value);
            buf += val;
            break;
          }
          case 'i':
            buf += ", \"s\": \"t\"";
            break;
        }
        buf += "}";
        if (buf.size() >= (1u << 20)) {
            out << buf;
            buf.clear();
        }
    }
    buf += "\n]}\n";
    out << buf;
}

} // namespace howsim::obs

#include "core/bench_harness.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <sstream>

#include "core/runner.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace howsim::core
{

namespace
{

std::string
jsonPath()
{
    const char *env = std::getenv("HOWSIM_BENCH_JSON");
    return env && *env ? std::string(env)
                       : std::string("BENCH_events.json");
}

/**
 * Parse the flat two-level format this file itself writes: a
 * top-level object mapping bench name to a one-level object of
 * numeric fields (no nested braces, no braces inside strings).
 * Anything unparseable is dropped — the file is a regenerable record,
 * not a source of truth.
 */
std::vector<std::pair<std::string, std::string>>
parseRecords(const std::string &text)
{
    std::vector<std::pair<std::string, std::string>> records;
    std::size_t pos = text.find('{');
    if (pos == std::string::npos)
        return records;
    ++pos;
    for (;;) {
        std::size_t nameStart = text.find('"', pos);
        if (nameStart == std::string::npos)
            break;
        std::size_t nameEnd = text.find('"', nameStart + 1);
        if (nameEnd == std::string::npos)
            break;
        std::size_t bodyStart = text.find('{', nameEnd + 1);
        std::size_t bodyEnd = text.find('}', bodyStart + 1);
        if (bodyStart == std::string::npos
            || bodyEnd == std::string::npos)
            break;
        records.emplace_back(
            text.substr(nameStart + 1, nameEnd - nameStart - 1),
            text.substr(bodyStart, bodyEnd - bodyStart + 1));
        pos = bodyEnd + 1;
    }
    return records;
}

} // namespace

BenchHarness::BenchHarness(std::string name)
    : benchName(std::move(name)),
      wallStart(std::chrono::steady_clock::now()),
      eventsStart(sim::totalEventsExecuted())
{
}

void
BenchHarness::metric(const std::string &key, double value)
{
    extras.emplace_back(key, value);
}

void
BenchHarness::note(const std::string &key, const std::string &value)
{
    if (value.find('{') != std::string::npos
        || value.find('}') != std::string::npos)
        panic("BenchHarness::note: braces in \"%s\" would break the "
              "flat record format",
              value.c_str());
    noteExtras.emplace_back(key, value);
}

double
BenchHarness::elapsedSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - wallStart)
        .count();
}

BenchHarness::~BenchHarness()
{
    double wall = elapsedSeconds();
    std::uint64_t events = sim::totalEventsExecuted() - eventsStart;

    std::string body = strprintf(
        "{\n    \"wall_seconds\": %.3f,\n    \"events\": %llu",
        wall, static_cast<unsigned long long>(events));
    // A zero-event bench (pure cost-model tables) has no meaningful
    // rate; omit the field rather than pollute trend diffs with 0s.
    if (events > 0 && wall > 0) {
        body += strprintf(",\n    \"events_per_sec\": %.6g",
                          static_cast<double>(events) / wall);
    }
    // jobs + hardware_concurrency let readers of the JSON judge a
    // parallel entry: a jobs > 1 run on a 1-CPU host measures
    // overhead, not speedup (docs/perf.md).
    unsigned hw = std::thread::hardware_concurrency();
    body += strprintf(",\n    \"jobs\": %d"
                      ",\n    \"hardware_concurrency\": %u",
                      defaultJobs(), hw > 0 ? hw : 1);
    for (const auto &[key, value] : extras)
        body += strprintf(",\n    \"%s\": %.6g", key.c_str(), value);
    for (const auto &[key, value] : noteExtras)
        body += strprintf(",\n    \"%s\": \"%s\"", key.c_str(),
                          value.c_str());
    body += "\n  }";

    const std::string path = jsonPath();
    std::vector<std::pair<std::string, std::string>> records;
    {
        std::ifstream in(path);
        if (in) {
            std::ostringstream text;
            text << in.rdbuf();
            records = parseRecords(text.str());
        }
    }
    bool replaced = false;
    for (auto &[name, oldBody] : records) {
        if (name == benchName) {
            oldBody = body;
            replaced = true;
        }
    }
    if (!replaced)
        records.emplace_back(benchName, body);

    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        warn("BenchHarness: cannot write %s", path.c_str());
        return;
    }
    out << "{\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        out << "  \"" << records[i].first << "\": "
            << records[i].second;
        out << (i + 1 < records.size() ? ",\n" : "\n");
    }
    out << "}\n";
}

} // namespace howsim::core

/**
 * @file
 * Wall-clock/events-per-second recorder for the benchmark binaries.
 *
 * Each bench main() owns one BenchHarness for its whole run. On
 * destruction the harness merges a record — wall-clock seconds,
 * simulator events executed, coroutine frames allocated from the
 * simulators' arenas, events/sec (omitted for benches that
 * execute no events), worker count, hardware concurrency, plus any
 * extra metrics the benchmark attached — into
 * BENCH_events.json (path overridable via HOWSIM_BENCH_JSON). The
 * committed copy at the repo root tracks the simulator's performance
 * trajectory PR over PR; docs/perf.md explains how to read it.
 */

#ifndef HOWSIM_CORE_BENCH_HARNESS_HH
#define HOWSIM_CORE_BENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace howsim::core
{

/** RAII perf recorder; see the file comment. */
class BenchHarness
{
  public:
    explicit BenchHarness(std::string name);
    ~BenchHarness();

    BenchHarness(const BenchHarness &) = delete;
    BenchHarness &operator=(const BenchHarness &) = delete;

    /** Attach an extra metric to this benchmark's record. */
    void metric(const std::string &key, double value);

    /**
     * Attach a string field (e.g. the canonical fault-plan spec) to
     * this benchmark's record. The value must not contain braces —
     * the record format is flat (see parseRecords).
     */
    void note(const std::string &key, const std::string &value);

    /** Seconds elapsed since construction. */
    double elapsedSeconds() const;

  private:
    std::string benchName;
    std::chrono::steady_clock::time_point wallStart;
    std::uint64_t eventsStart;
    std::uint64_t framesStart;
    std::vector<std::pair<std::string, double>> extras;
    std::vector<std::pair<std::string, std::string>> noteExtras;
};

} // namespace howsim::core

#endif // HOWSIM_CORE_BENCH_HARNESS_HH

/**
 * @file
 * Traffic driver: offer a stream of concurrent queries to one
 * simulated machine and measure latency and throughput.
 *
 * This is the multi-user companion to core::runExperiment. A
 * TrafficPlan describes the offered load (open-loop rate source or
 * closed-loop clients, a query mix over the eight paper tasks, and
 * an admission policy); the driver submits queries, admits at most
 * max.inflight of them concurrently, and executes each in its own
 * task-runner instance (stream qid + 1) on the shared machine. All
 * randomness comes from the fault layer's stateless counter hash,
 * so the resulting timeline is bit-identical across the scheduler,
 * transfer-engine and worker-thread host-side choices.
 */

#ifndef HOWSIM_TRAFFIC_DRIVER_HH
#define HOWSIM_TRAFFIC_DRIVER_HH

#include <cstdint>
#include <vector>

#include "core/experiment.hh"
#include "sim/ticks.hh"
#include "traffic/plan.hh"
#include "workload/task_kind.hh"

namespace howsim::traffic
{

/** Latency and count summary for one query class. */
struct ClassStats
{
    workload::TaskKind task = workload::TaskKind::Select;

    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;

    /**
     * Queries re-executed once because their first attempt overlapped
     * a fail-stop death (the client-visible retry protocol; each
     * contributes one completion whose latency spans both attempts).
     */
    std::uint64_t retried = 0;

    /**
     * Queries shed at admission: their queueing delay alone already
     * exceeded slo.ms, so executing them could not meet the
     * objective. Counted separately from rejected (queue overflow
     * at submission).
     */
    std::uint64_t shed = 0;

    /** Nearest-rank latency percentiles over completed queries. */
    sim::Tick p50 = 0;
    sim::Tick p95 = 0;
    sim::Tick p99 = 0;
    sim::Tick maxLatency = 0;

    double meanLatencyMs = 0.0;
};

/** Outcome of one traffic run. */
struct TrafficResult
{
    /** Per-class stats, ordered as TrafficPlan::classes. */
    std::vector<ClassStats> classes;

    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t retried = 0;
    std::uint64_t shed = 0;

    /** Offered load: submissions over the plan duration. */
    double offeredPerSec = 0.0;

    /** Achieved throughput: completions over the full timeline. */
    double achievedPerSec = 0.0;

    /** Instant the last query completed (>= duration when busy). */
    sim::Tick lastCompletion = 0;

    /** High-water marks of the admission gate. */
    int peakInflight = 0;
    std::uint64_t peakQueued = 0;

    /**
     * Order-sensitive digest of every completion record
     * (qid, class, completion instant, latency). Two runs with the
     * same plan and machine produce the same fingerprint regardless
     * of HOWSIM_JOBS — the determinism contract CI asserts.
     */
    std::uint64_t fingerprint = 0;
};

/**
 * Run the traffic plan from @p config (ExperimentConfig::traffic,
 * falling back to HOWSIM_TRAFFIC; fatal() when neither is set) on
 * the machine @p config describes. The config's task field is
 * ignored — the plan's mix decides what runs.
 */
TrafficResult runTraffic(const core::ExperimentConfig &config);

/** As above with an already-parsed plan. */
TrafficResult runTraffic(const core::ExperimentConfig &config,
                         const TrafficPlan &plan);

} // namespace howsim::traffic

#endif // HOWSIM_TRAFFIC_DRIVER_HH

/**
 * @file
 * Traffic plan: the key=value workload-driver specification.
 *
 * A plan describes a stream of concurrent queries offered to one
 * simulated machine — the multi-user view the paper's single-query
 * figures deliberately exclude. The grammar follows the fault-plan
 * conventions (comma-separated key=value, fatal() with the accepted
 * set on anything unknown), and every random quantity a plan implies
 * is drawn from the same stateless counter-hash the fault layer uses
 * (fault::unitDraw), so a timeline depends only on (plan, machine),
 * never on host scheduling choices.
 */

#ifndef HOWSIM_TRAFFIC_PLAN_HH
#define HOWSIM_TRAFFIC_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/ticks.hh"
#include "workload/dataset.hh"
#include "workload/task_kind.hh"

namespace howsim::traffic
{

/** How queries are offered: fixed-rate source or thinking clients. */
enum class LoopMode
{
    Open,   //!< arrivals independent of completions (rate source)
    Closed, //!< fixed client population with think times
};

/** Arrival process of an open-loop source. */
enum class ArrivalKind
{
    Poisson, //!< exponential gaps, mean 1/rate
    Uniform, //!< uniform gaps in [0, 2/rate), mean 1/rate
    Trace,   //!< explicit arrival instants (trace.ms)
};

/** Admission-ordering policy (see policy.hh). */
enum class PolicyKind
{
    Fifo, //!< arrival order
    Fair, //!< start-time fair queuing over classes (share.<task>)
};

/** One query class: a paper task with mix weight and scale cap. */
struct ClassSpec
{
    workload::TaskKind task = workload::TaskKind::Select;

    /** Relative arrival probability (mix.<task>). */
    double weight = 1.0;

    /** Dataset scale fraction in (0, 1] (cap.<task>). */
    double cap = 1.0;

    /** Fair-share weight under policy=fair (share.<task>). */
    double share = 1.0;
};

/**
 * Parsed traffic specification.
 *
 * Grammar (comma-separated key=value):
 *
 *   seed=N           base seed for every draw (default 1)
 *   loop=open|closed (default open)
 *   arrival=poisson|uniform|trace   (open loop; default poisson)
 *   rate=Q           offered queries/second (open, non-trace)
 *   trace.ms=a;b;c   absolute arrival instants (arrival=trace)
 *   clients=N        client population (closed loop)
 *   think.ms=T       mean exponential think time (closed; default 0)
 *   duration.ms=T    submission window; required, > 0
 *   policy=fifo|fair (default fifo)
 *   max.inflight=N   concurrent-query cap (default 4)
 *   max.queue=N      admission queue bound; -1 = unbounded (default)
 *   slo.ms=T         shed queries still queued past this age
 *                    (default 0 = never shed)
 *   mix.<task>=W     class weight (default: select=1 when no mix.*)
 *   cap.<task>=F     dataset scale fraction in (0, 1]
 *   share.<task>=W   fair-share weight (policy=fair)
 *
 * <task> is one of the eight paper tasks (select, aggregate,
 * groupby, sort, dcube, join, dmine, mview). Unknown keys, values
 * outside their domain, and inconsistent combinations (e.g. rate
 * under loop=closed) fatal() with the accepted set.
 */
struct TrafficPlan
{
    std::uint64_t seed = 1;
    LoopMode loop = LoopMode::Open;
    ArrivalKind arrival = ArrivalKind::Poisson;

    /** Offered queries per second (open loop, non-trace). */
    double ratePerSec = 0.0;

    /** Absolute arrival instants (arrival=trace), nondecreasing. */
    std::vector<sim::Tick> trace;

    /** Client population (closed loop). */
    int clients = 1;

    /** Mean think time between a completion and the next submission. */
    sim::Tick thinkMean = 0;

    /** Submission window; arrivals at or after it are not offered. */
    sim::Tick duration = 0;

    PolicyKind policy = PolicyKind::Fifo;

    /** Concurrent in-flight query cap (admission control). */
    int maxInflight = 4;

    /** Queue bound beyond which arrivals are rejected; -1 = none. */
    int maxQueue = -1;

    /**
     * Latency objective: a query whose queueing delay alone already
     * exceeds this when a slot frees is shed instead of executed
     * (it cannot possibly meet the objective). 0 = never shed.
     * Keeps a degraded machine (fail-stop takeover absorbing a
     * victim's load) from dragging an unbounded backlog behind it.
     */
    sim::Tick slo = 0;

    /** Query classes in canonical task order (never empty). */
    std::vector<ClassSpec> classes;

    /** Sum of class weights (> 0 after parse). */
    double totalWeight() const;

    /** Parse @p spec; fatal() on any grammar or domain error. */
    static TrafficPlan parse(const std::string &spec);
};

/** "open" / "closed". */
std::string loopName(LoopMode mode);

/** "poisson" / "uniform" / "trace". */
std::string arrivalName(ArrivalKind kind);

/** "fifo" / "fair". */
std::string policyName(PolicyKind kind);

/**
 * The Table 2 dataset for @p kind scaled down to @p cap of its size
 * (input bytes rounded to whole tuples, dependent counts rescaled).
 * cap = 1 returns the unmodified paper dataset.
 */
workload::DatasetSpec scaledDataset(workload::TaskKind kind,
                                    double cap);

} // namespace howsim::traffic

#endif // HOWSIM_TRAFFIC_PLAN_HH

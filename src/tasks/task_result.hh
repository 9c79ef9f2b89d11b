/**
 * @file
 * Result of running one decision support task on one machine, and the
 * frameless compute both task runners charge to it.
 */

#ifndef HOWSIM_TASKS_TASK_RESULT_HH
#define HOWSIM_TASKS_TASK_RESULT_HH

#include <coroutine>
#include <cstdint>
#include <memory>

#include "fault/detector.hh"
#include "obs/obs.hh"
#include "os/cpu.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace howsim::tasks
{

/** Timing and accounting for one task execution. */
struct TaskResult
{
    /** End-to-end simulated execution time. */
    sim::Tick elapsedTicks = 0;

    /**
     * Named accounting buckets in seconds. Phase elapsed times use
     * "<phase>.elapsed"; per-phase aggregate CPU busy time across
     * devices uses "<phase>.<activity>" (e.g. "p1.partitioner"), as
     * needed for the paper's Figure 3 breakdown.
     */
    sim::Breakdown buckets;

    /** Bytes moved over the machine's shared interconnect. */
    std::uint64_t interconnectBytes = 0;

    /**
     * Logical result bytes the task produced (emitted to the
     * front-end or claimed from the shared store). Invariant under
     * fault injection: a degraded run must deliver exactly the bytes
     * a fault-free run delivers.
     */
    std::uint64_t outputBytes = 0;

    /**
     * Failure-detector and rebuild accounting when a fault plan is
     * active (all zero otherwise); filled by core::runExperiment from
     * the detector it wires next to the machine.
     */
    fault::AvailabilityStats availability;

    double seconds() const { return sim::toSeconds(elapsedTicks); }
};

/** Trace track (a printf format of the device) and span category. */
struct ComputeTrack
{
    const char *format;
    const char *category;
};

/**
 * Adds the work's time to a bucket at issue and, at fine trace
 * detail, records the span from issue to resume on the device's track
 * as the caller resumes. The span's fields live on the heap, and only
 * at fine detail, to keep the awaiter small in its caller's frame.
 */
class ChargedCompute
{
  public:
    ChargedCompute(os::Cpu::Compute w, sim::Breakdown &buckets,
                   const char *bucket, const ComputeTrack &track,
                   int device)
        : work(w)
    {
        buckets.add(bucket, sim::toSeconds(work.ticks));
        obs::Session *s = obs::session();
        if (s && s->fine())
            span = std::make_unique<Span>(s, bucket, &track, device,
                                          s->now());
    }

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> cont) const
    {
        work.await_suspend(cont);
    }

    void
    await_resume() const
    {
        if (!span)
            return;
        obs::TraceSink &trace = span->session->trace();
        trace.complete(
            trace.track(strprintf(span->track->format, span->device)),
            span->name, span->track->category, span->t0,
            span->session->now() - span->t0);
    }

  private:
    struct Span
    {
        obs::Session *session;
        const char *name;
        const ComputeTrack *track;
        int device;
        sim::Tick t0;
    };

    os::Cpu::Compute work;
    std::unique_ptr<Span> span;
};

} // namespace howsim::tasks

#endif // HOWSIM_TASKS_TASK_RESULT_HH

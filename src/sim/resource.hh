/**
 * @file
 * Counting resource (semaphore) with FIFO grant order.
 */

#ifndef HOWSIM_SIM_RESOURCE_HH
#define HOWSIM_SIM_RESOURCE_HH

#include <coroutine>
#include <cstdint>
#include <deque>

#include "sim/simulator.hh"
#include "sim/ticks.hh"

namespace howsim::obs
{
class Histogram;
class Session;
} // namespace howsim::obs

namespace howsim::sim
{

/**
 * Counting resource with strict FIFO grants (no barging): a large
 * request at the head of the queue blocks smaller requests behind it,
 * which prevents starvation.
 *
 * Tracks total wait time and utilization for reporting.
 */
class Resource
{
  public:
    explicit Resource(std::int64_t capacity);

    Resource(const Resource &) = delete;
    Resource &operator=(const Resource &) = delete;

    /** Detach blocked acquisitions on teardown (see Channel). */
    ~Resource();

    class AcquireOp;

    /** Awaitable acquisition of @p n units. @pre n <= capacity. */
    AcquireOp acquire(std::int64_t n = 1);

    /** Return @p n units and admit queued waiters in FIFO order. */
    void release(std::int64_t n = 1);

    std::int64_t capacity() const { return cap; }
    std::int64_t available() const { return avail; }
    std::size_t queueLength() const { return waiters.size(); }

    /** Aggregate time acquirers spent queued, in ticks. */
    Tick totalWait() const { return waitTicks; }

    /**
     * Attach this resource to the thread's observability session (if
     * any) under the metric prefix @p name: wait-time and queue-depth
     * histograms plus (when @p probes) queue-length/in-use timeline
     * probes. No-op — and the hot-path hooks stay null-pointer
     * checks — when observability is off. Callers with many sibling
     * resources pass probes = false to keep counter tracks bounded.
     */
    void observe(const std::string &name, bool probes = true);

    /** Aggregate unit-ticks of held capacity (for utilization). */
    double
    utilization(Tick elapsed) const
    {
        if (elapsed == 0)
            return 0.0;
        return static_cast<double>(busyUnitTicks)
               / (static_cast<double>(cap) * elapsed);
    }

    /** Awaitable for acquire(). */
    class AcquireOp
    {
      public:
        AcquireOp(Resource *r, std::int64_t amount);

        AcquireOp(const AcquireOp &) = delete;
        AcquireOp &operator=(const AcquireOp &) = delete;
        AcquireOp(AcquireOp &&) = delete;

        ~AcquireOp();

        bool await_ready();
        void await_suspend(std::coroutine_handle<> h);
        void await_resume();

      private:
        friend class Resource;

        Resource *res;
        std::int64_t n;
        Tick enqueueTick = 0;
        std::coroutine_handle<> waiting;
        bool enqueued = false;
        bool granted = false;
    };

  private:
    void grantWaiters();
    void noteAcquire(std::int64_t n);

    std::int64_t cap;
    std::int64_t avail;
    std::deque<AcquireOp *> waiters;
    Tick waitTicks = 0;
    // Utilization accounting: integrate held units over time.
    Tick lastChange = 0;
    std::uint64_t busyUnitTicks = 0;
    // Cached observability hooks; null when not observe()d.
    obs::Histogram *obsWait = nullptr;
    obs::Histogram *obsDepth = nullptr;
    obs::Session *obsSess = nullptr;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_RESOURCE_HH

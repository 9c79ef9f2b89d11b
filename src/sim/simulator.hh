/**
 * @file
 * The simulation executive: clock, event loop, and process registry.
 */

#ifndef HOWSIM_SIM_SIMULATOR_HH
#define HOWSIM_SIM_SIMULATOR_HH

#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/arena.hh"
#include "sim/coro.hh"
#include "sim/event_queue.hh"
#include "sim/ticks.hh"

namespace howsim::obs
{
class Session;
} // namespace howsim::obs

namespace howsim::sim
{

class Process;
using ProcessRef = std::shared_ptr<Process>;

/**
 * Discrete-event simulation executive.
 *
 * Owns the clock and the event queue, keeps every spawned top-level
 * process alive for the lifetime of the simulation, and owns each
 * detached coroutine's frame until the coroutine finishes. A
 * thread-local "current simulator" is maintained while run() executes
 * so that awaitables (delays, channels, resources) can reach the
 * event queue without threading a pointer through every call.
 *
 * Coroutine frames are carved from a per-simulator Arena installed
 * for the constructing thread, so a simulation's thousands of
 * short-lived frames recycle through size-class free lists instead of
 * the global heap and are released wholesale when the simulator dies.
 *
 * A simulator runs on the thread that built it; independent
 * experiments run in parallel as independent simulators
 * (core::runExperiments).
 */
class Simulator
{
  public:
    Simulator();

    /** Exists only for perfbench/; panics unless @p partitions is 1. */
    Simulator(SchedPolicy sched, int partitions);

    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return currentTick; }

    /**
     * Schedule @p event, a coroutine handle to resume or an
     * EventTarget to fire, at an absolute tick (>= now). The event
     * travels as one word: scheduling it builds nothing.
     */
    void scheduleAt(Tick when, EventWord event);

    /** Schedule @p event @p delay ticks from now. */
    void scheduleIn(Tick delay, EventWord event);

    /** Schedule a closure at an absolute tick (>= now). */
    void scheduleAt(Tick when, EventQueue::Action action);

    /** Schedule a closure @p delay ticks from now. */
    void scheduleIn(Tick delay, EventQueue::Action action);

    /**
     * Start a top-level process at the current time. The returned
     * handle can be joined from other processes; the Simulator keeps
     * the process alive until it is destroyed.
     */
    ProcessRef spawn(Coro<void> body, std::string name = "proc");

    /**
     * Start a fire-and-forget coroutine at the current time, in the
     * event slot spawn() would give it. No Process is built: the
     * Simulator holds the frame in a recycled slot and frees it at
     * final suspend, so a spawn allocates nothing but the frame. Use
     * for high-volume short-lived activities such as asynchronous
     * I/O operations. An exception escaping the body is rethrown
     * from run(); a frame still suspended when the Simulator dies is
     * destroyed with it. @p name labels the `process` trace span,
     * which only fine trace detail records.
     */
    void spawnDetached(Coro<void> body, std::string_view name = "proc");

    /**
     * Schedule @p event at absolute tick @p when with the explicit
     * sequence number @p key, drawn from a KeyStream allocated with
     * allocKeyStream(). At a shared tick keyed events run after every
     * ordinary event, in key order (DESIGN.md §14). Panics on a key
     * outside kKeyedSeqBand or a tick in the past.
     */
    void postKeyed(Tick when, std::uint64_t key, EventWord event);

    /** postKeyed() of a closure. */
    void postKeyed(Tick when, std::uint64_t key,
                   EventQueue::Action action);

    /**
     * Allocate the next key stream. Stream ids are handed out in call
     * order and order keyed events across entities, so the calls must
     * come in an order the simulation alone fixes: at construction
     * time, or from an event (a traffic query's task runner).
     */
    KeyStream allocKeyStream() { return KeyStream(nextKeyStream++); }

    /** Awaitable returned by hop(). */
    struct Hop
    {
        Simulator &simulator;
        Tick delay;
        KeyStream &keys;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            simulator.postKeyed(simulator.now() + delay, keys.next(), h);
        }

        void await_resume() const noexcept {}
    };

    /**
     * One keyed hop (DESIGN.md §14): suspend the awaiting coroutine
     * and resume it from the keyed event at (now() + @p delay,
     * @p keys.next()). The key is drawn as the coroutine suspends.
     */
    Hop hop(Tick delay, KeyStream &keys) { return Hop{*this, delay, keys}; }

    /**
     * Run until the event queue drains or the clock passes @p until.
     * Returns the final simulated time. Rethrows the exception of the
     * first coroutine, spawned or detached, that failed without a
     * joiner observing it; each failure surfaces from one run() call
     * only, in the order the coroutines finished.
     */
    Tick run(Tick until = maxTick);

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed; }

    /**
     * The simulator currently inside run() on this thread, or the
     * most recently constructed one (so processes can be spawned
     * before run() starts). Null when no simulator exists.
     */
    static Simulator *current();

  private:
    friend class Process;

    /**
     * One detached coroutine's place in the live list, and the finish
     * hook its promise points at. Slots never move (a deque only
     * appends) and are recycled through a free list.
     */
    struct DetachedSlot final : FinishHook
    {
        Simulator *owner = nullptr;
        Coro<void>::Handle frame; //!< null while the slot is free
        DetachedSlot *nextFree = nullptr;
        std::uint32_t index = 0;

        void onFinish() noexcept override;
    };

    /** A detached coroutine's `process` span (fine trace detail). */
    struct DetachedSpan
    {
        std::uint64_t id = 0;
        std::string name;
    };

    /** A finished coroutine's escaped exception, in finish order. */
    struct Failure
    {
        Process *proc; //!< null for a detached coroutine
        std::exception_ptr error;
    };

    Tick currentTick = 0;
    EventQueue queue;

    /**
     * Frame and action-capture storage for this simulator, installed
     * as the thread's allocation arena for the simulator's lifetime
     * (constructor through destructor, restoring the previous arena —
     * mirroring the current-simulator chain). A spawned process's
     * frame may outlive the simulator (a held ProcessRef) and stays
     * valid: the arena's control block is refcounted by its live
     * blocks. Detached frames never outlive it.
     */
    Arena frameArena;
    ArenaScope arenaScope{&frameArena};

    /** Every spawned process, in spawn order. */
    std::vector<ProcessRef> processes;
    std::deque<DetachedSlot> detachedSlots;
    DetachedSlot *freeSlots = nullptr;
    /** Indexed by slot; filled only at fine trace detail. */
    std::vector<DetachedSpan> detachedSpans;
    std::vector<Failure> failures;
    std::uint64_t executed = 0;
    std::uint64_t nextKeyStream = 0;
    Simulator *previous = nullptr;

    /**
     * The thread's observability session captured at construction
     * (null when observability is off). When set, run() uses the
     * instrumented loop and the session's clock points at
     * currentTick; when null, run() is the original tight loop and
     * no obs code executes at all.
     */
    obs::Session *obsSession = nullptr;
    const Tick *obsPrevClock = nullptr;
};

/**
 * Handle to a spawned top-level process. Exposes completion state and
 * a join() awaitable. Created only by Simulator::spawn().
 */
class Process final : FinishHook
{
  public:
    ~Process();

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    /** True once the process body has finished (or thrown). */
    bool finished() const { return doneFlag; }

    /** The process name given at spawn time. */
    const std::string &name() const { return procName; }

    /** Awaitable that suspends until this process finishes. */
    struct Join
    {
        Process *proc;

        bool await_ready() const { return proc->doneFlag; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            proc->joiners.push_back(h);
        }

        void
        await_resume() const
        {
            if (proc->error) {
                proc->errorObserved = true;
                std::rethrow_exception(proc->error);
            }
        }
    };

    /** Suspend the awaiting coroutine until this process finishes. */
    Join join() { return Join{this}; }

  private:
    friend class Simulator;

    Process(Simulator &s, Coro<void> b, std::string n);

    void onFinish() noexcept override;

    Simulator &owner;
    Coro<void> body;
    std::string procName;
    std::uint64_t obsSpanId = 0; //!< async span; 0 = not traced
    bool doneFlag = false;
    bool errorObserved = false;
    std::exception_ptr error;
    std::vector<std::coroutine_handle<>> joiners;
};

/** Join every process in @p procs, in order. */
Coro<void> joinAll(std::vector<ProcessRef> procs);

/**
 * Events executed by every Simulator that has completed (been
 * destroyed) on any thread since process start. The benchmark harness
 * divides this by wall-clock time to report events/sec.
 */
std::uint64_t totalEventsExecuted();

/** Arena allocations (frames) of every destroyed Simulator. */
std::uint64_t totalFramesAllocated();

} // namespace howsim::sim

#endif // HOWSIM_SIM_SIMULATOR_HH

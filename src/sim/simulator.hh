/**
 * @file
 * The simulation executive: clock, event loop, and process registry.
 */

#ifndef HOWSIM_SIM_SIMULATOR_HH
#define HOWSIM_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
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
 * Owns the clock and the event queue, and keeps every spawned
 * top-level process alive for the lifetime of the simulation. A
 * thread-local "current simulator" is maintained while run() executes
 * so that awaitables (delays, channels, resources) can reach the
 * event queue without threading a pointer through every call.
 *
 * Coroutine frames and oversized action captures are carved from a
 * per-simulator Arena installed for the constructing thread, so a
 * simulation's thousands of short-lived frames recycle through
 * size-class free lists instead of the global heap and are released
 * wholesale when the simulator dies.
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

    /** Schedule an action at an absolute tick (>= now). */
    void scheduleAt(Tick when, EventQueue::Action action);

    /** Schedule an action @p delay ticks from now. */
    void scheduleIn(Tick delay, EventQueue::Action action);

    /**
     * Fast path: schedule the resumption of @p h at an absolute tick.
     * The handle travels in the event's inline buffer — scheduling a
     * coroutine resumption allocates nothing.
     */
    void scheduleAt(Tick when, std::coroutine_handle<> h);

    /** Fast path: resume @p h @p delay ticks from now. */
    void scheduleIn(Tick delay, std::coroutine_handle<> h);

    /**
     * Start a top-level process at the current time. The returned
     * handle can be joined from other processes; the Simulator keeps
     * the process alive until it is destroyed.
     */
    ProcessRef spawn(Coro<void> body, std::string name = "proc");

    /**
     * Start a fire-and-forget process whose resources are reclaimed
     * as soon as it completes (unless the caller retains the returned
     * handle). Use for high-volume short-lived activities such as
     * per-frame network forwarding. An exception escaping a detached
     * process is rethrown from run().
     */
    ProcessRef spawnDetached(Coro<void> body, std::string name = "proc");

    /**
     * Schedule @p action at absolute tick @p when with the explicit
     * sequence number @p key, drawn from a KeyStream allocated with
     * allocKeyStream(). At a shared tick keyed events run after every
     * ordinary event, in key order (DESIGN.md §14). Panics on a key
     * outside kKeyedSeqBand or a tick in the past.
     */
    void postKeyed(Tick when, std::uint64_t key,
                   EventQueue::Action action);

    /**
     * Allocate the next key stream. Stream ids are handed out in call
     * order and order keyed events across entities, so the calls must
     * come in an order the simulation alone fixes: at construction
     * time, or from an event (a traffic query's task runner).
     */
    KeyStream allocKeyStream() { return KeyStream(nextKeyStream++); }

    /**
     * Run until the event queue drains or the clock passes @p until.
     * Returns the final simulated time. Rethrows the first exception
     * escaping a process that no joiner observed.
     */
    Tick run(Tick until = maxTick);

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed; }

    /** Number of processes ever spawned. */
    std::size_t processCount() const { return processes.size(); }

    /**
     * The simulator currently inside run() on this thread, or the
     * most recently constructed one (so processes can be spawned
     * before run() starts). Null when no simulator exists.
     */
    static Simulator *current();

  private:
    friend class Process;

    ProcessRef spawnImpl(Coro<void> body, std::string name,
                         bool detached);
    void reap(Process *proc);

    Tick currentTick = 0;
    EventQueue queue;

    /**
     * Frame and action-capture storage for this simulator, installed
     * as the thread's allocation arena for the simulator's lifetime
     * (constructor through destructor, restoring the previous arena —
     * mirroring the current-simulator chain). Frames that outlive the
     * simulator (held ProcessRefs) stay valid: the arena's control
     * block is refcounted by its live blocks.
     */
    Arena frameArena;
    ArenaScope arenaScope{&frameArena};

    std::unordered_map<Process *, ProcessRef> processes;
    std::vector<std::exception_ptr> detachedErrors;
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
class Process
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

    void onComplete();

    Simulator &owner;
    Coro<void> body;
    std::string procName;
    std::uint64_t obsSpanId = 0; //!< async span; 0 = not traced
    bool detached = false;
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

} // namespace howsim::sim

#endif // HOWSIM_SIM_SIMULATOR_HH

#include "sim/simulator.hh"

#include <atomic>
#include <utility>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace howsim::sim
{

namespace
{

thread_local Simulator *currentSim = nullptr;

/**
 * Accumulated once per Simulator at destruction (never per event), so
 * the counter costs nothing on the event-loop hot path.
 */
std::atomic<std::uint64_t> allSimulatorEvents{0};

} // namespace

std::uint64_t
totalEventsExecuted()
{
    return allSimulatorEvents.load(std::memory_order_relaxed);
}

Simulator::Simulator(SchedPolicy, int partitions) : Simulator()
{
    if (partitions != 1) {
        panic("Simulator: %d partitions requested; the executive is "
              "serial and accepts only 1",
              partitions);
    }
}

Simulator::Simulator()
{
    previous = currentSim;
    currentSim = this;
    obsSession = obs::session();
    if (obsSession) {
        obsPrevClock = obsSession->bindClock(&currentTick);
        obsSession->timeline().probe(
            "sim.queue_depth",
            [this] { return static_cast<double>(queue.size()); },
            this);
    }
}

Simulator::~Simulator()
{
    // Drop the occupancy probes while the queue is still alive, but
    // only if the session we registered with is still installed.
    if (obsSession && obs::session() == obsSession)
        obsSession->timeline().dropProbes(this);
    // Destroy processes before restoring the current-simulator
    // pointer: process frames may hold awaiter objects whose
    // destructors unlink themselves from channels/resources.
    processes.clear();
    if (obsSession)
        obsSession->bindClock(obsPrevClock);
    currentSim = previous;
    allSimulatorEvents.fetch_add(executed, std::memory_order_relaxed);
}

Simulator *
Simulator::current()
{
    return currentSim;
}

void
Simulator::scheduleAt(Tick when, EventQueue::Action action)
{
    if (when < currentTick)
        panic("scheduleAt: tick %llu is in the past (now %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(currentTick));
    queue.schedule(when, std::move(action));
}

void
Simulator::scheduleIn(Tick delay, EventQueue::Action action)
{
    queue.schedule(currentTick + delay, std::move(action));
}

void
Simulator::scheduleAt(Tick when, std::coroutine_handle<> h)
{
    scheduleAt(when, EventQueue::Action(h));
}

void
Simulator::scheduleIn(Tick delay, std::coroutine_handle<> h)
{
    queue.schedule(currentTick + delay, h);
}

void
Simulator::postKeyed(Tick when, std::uint64_t key,
                     EventQueue::Action action)
{
    if (!(key & kKeyedSeqBand)) {
        panic("postKeyed: key %llu is outside the keyed band "
              "(allocate keys from Simulator::allocKeyStream())",
              static_cast<unsigned long long>(key));
    }
    if (when < currentTick) {
        panic("postKeyed: tick %llu is in the past (now %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(currentTick));
    }
    queue.scheduleWithSeq(when, key, std::move(action));
}

ProcessRef
Simulator::spawn(Coro<void> body, std::string name)
{
    return spawnImpl(std::move(body), std::move(name), false);
}

ProcessRef
Simulator::spawnDetached(Coro<void> body, std::string name)
{
    return spawnImpl(std::move(body), std::move(name), true);
}

ProcessRef
Simulator::spawnImpl(Coro<void> body, std::string name, bool detached)
{
    if (!body.valid())
        panic("spawn of an empty Coro");

    auto proc = std::shared_ptr<Process>(
        new Process(*this, std::move(body), std::move(name)));
    proc->detached = detached;
    processes.emplace(proc.get(), proc);
    Process *raw = proc.get();
    Tick t = now();
    // Trace process lifetimes as async spans. Detached processes are
    // high-volume (aio operations), so they only appear at fine
    // detail.
    if (obsSession && (!detached || obsSession->fine())) {
        raw->obsSpanId = obsSession->trace().asyncBegin(
            "process", raw->procName, t);
    }
    raw->body.promise().onDone = [raw] { raw->onComplete(); };
    // Start the body at the current tick, after already-queued events.
    scheduleAt(t, [raw] { raw->body.resume(); });
    return proc;
}

void
Simulator::reap(Process *proc)
{
    auto it = processes.find(proc);
    if (it == processes.end())
        return;
    if (proc->error && !proc->errorObserved) {
        proc->errorObserved = true;
        detachedErrors.push_back(proc->error);
    }
    processes.erase(it);
}

Tick
Simulator::run(Tick until)
{
    Simulator *outer = currentSim;
    currentSim = this;
    if (!obsSession) {
        // The original tight loop: with observability off, the hot
        // path is exactly what it was before obs existed.
        while (!queue.empty() && queue.nextTick() <= until) {
            currentTick = queue.nextTick();
            auto action = queue.pop();
            ++executed;
            action();
        }
    } else {
        obs::Timeline &timeline = obsSession->timeline();
        while (!queue.empty() && queue.nextTick() <= until) {
            currentTick = queue.nextTick();
            timeline.maybeSample(currentTick);
            auto action = queue.pop();
            ++executed;
            action();
        }
        obsSession->metrics()
            .gauge("sim.events_executed")
            .set(static_cast<double>(executed));
        obsSession->metrics()
            .gauge("sim.final_tick")
            .set(static_cast<double>(currentTick));
    }
    if (until != maxTick && until > currentTick)
        currentTick = until;
    currentSim = outer;
    if (!detachedErrors.empty()) {
        auto err = detachedErrors.front();
        detachedErrors.clear();
        std::rethrow_exception(err);
    }
    for (const auto &[raw, proc] : processes) {
        if (proc->error && !proc->errorObserved) {
            proc->errorObserved = true;
            std::rethrow_exception(proc->error);
        }
    }
    return currentTick;
}

Process::Process(Simulator &s, Coro<void> b, std::string n)
    : owner(s), body(std::move(b)), procName(std::move(n))
{
}

Process::~Process() = default;

void
Process::onComplete()
{
    doneFlag = true;
    error = body.promise().exception;
    if (obsSpanId) {
        owner.obsSession->trace().asyncEnd("process", procName,
                                           obsSpanId, owner.now());
    }
    for (auto h : joiners)
        owner.scheduleAt(owner.now(), h);
    joiners.clear();
    if (detached) {
        // Reclaim after the current resume() unwinds; any holder of
        // the ProcessRef keeps the handle (not the frame) alive.
        Process *self = this;
        owner.scheduleAt(owner.now(), [self] { self->owner.reap(self); });
    }
}

Coro<void>
joinAll(std::vector<ProcessRef> procs)
{
    for (auto &p : procs)
        co_await p->join();
}

} // namespace howsim::sim

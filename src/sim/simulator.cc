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
    // Destroy frames before restoring the current-simulator pointer:
    // they may hold awaiter objects whose destructors unlink
    // themselves from channels/resources. Detached frames still
    // suspended die here; a spawned one lives on while a ProcessRef
    // holds its Process.
    for (std::size_t i = 0; i < detachedSlots.size(); ++i) {
        if (auto frame = std::exchange(detachedSlots[i].frame, nullptr))
            frame.destroy();
    }
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
Simulator::scheduleAt(Tick when, EventWord event)
{
    if (when < currentTick)
        panic("scheduleAt: tick %llu is in the past (now %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(currentTick));
    queue.schedule(when, event);
}

void
Simulator::scheduleIn(Tick delay, EventWord event)
{
    queue.schedule(currentTick + delay, event);
}

void
Simulator::scheduleAt(Tick when, EventQueue::Action action)
{
    scheduleAt(when, queue.wrap(std::move(action)));
}

void
Simulator::scheduleIn(Tick delay, EventQueue::Action action)
{
    scheduleIn(delay, queue.wrap(std::move(action)));
}

void
Simulator::postKeyed(Tick when, std::uint64_t key,
                     EventQueue::Action action)
{
    postKeyed(when, key, queue.wrap(std::move(action)));
}

void
Simulator::postKeyed(Tick when, std::uint64_t key, EventWord event)
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
    queue.scheduleWithSeq(when, key, event);
}

ProcessRef
Simulator::spawn(Coro<void> body, std::string name)
{
    if (!body.valid())
        panic("spawn of an empty Coro");

    auto proc = std::shared_ptr<Process>(
        new Process(*this, std::move(body), std::move(name)));
    processes.push_back(proc);
    Process *raw = proc.get();
    // Trace process lifetimes as async spans.
    if (obsSession) {
        raw->obsSpanId = obsSession->trace().asyncBegin(
            "process", raw->procName, currentTick);
    }
    raw->body.promise().onDone = raw;
    // Start the body at the current tick, after already-queued events.
    queue.schedule(currentTick,
                   std::coroutine_handle<>(Coro<void>::Handle::from_promise(
                       raw->body.promise())));
    return proc;
}

void
Simulator::spawnDetached(Coro<void> body, std::string_view name)
{
    if (!body.valid())
        panic("spawn of an empty Coro");

    DetachedSlot *slot = freeSlots;
    if (slot) {
        freeSlots = slot->nextFree;
    } else {
        slot = &detachedSlots.emplace_back();
        slot->owner = this;
        slot->index = static_cast<std::uint32_t>(detachedSlots.size() - 1);
    }
    slot->frame = body.release();
    slot->frame.promise().onDone = slot;
    // Detached coroutines are high-volume (aio operations), so their
    // spans only appear at fine detail.
    if (obsSession && obsSession->fine()) {
        if (detachedSpans.size() <= slot->index)
            detachedSpans.resize(slot->index + 1);
        DetachedSpan &span = detachedSpans[slot->index];
        span.name = name;
        span.id = obsSession->trace().asyncBegin("process", span.name,
                                                 currentTick);
    }
    queue.schedule(currentTick, std::coroutine_handle<>(slot->frame));
}

void
Simulator::DetachedSlot::onFinish() noexcept
{
    Simulator &sim = *owner;
    if (std::exception_ptr error = frame.promise().exception)
        sim.failures.push_back(Failure{nullptr, std::move(error)});
    if (sim.obsSession && sim.obsSession->fine()) {
        const DetachedSpan &span = sim.detachedSpans[index];
        sim.obsSession->trace().asyncEnd("process", span.name, span.id,
                                         sim.currentTick);
    }
    frame.destroy();
    frame = nullptr;
    nextFree = sim.freeSlots;
    sim.freeSlots = this;
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
            EventWord event = queue.pop();
            ++executed;
            event();
        }
    } else {
        obs::Timeline &timeline = obsSession->timeline();
        while (!queue.empty() && queue.nextTick() <= until) {
            currentTick = queue.nextTick();
            timeline.maybeSample(currentTick);
            EventWord event = queue.pop();
            ++executed;
            event();
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
    for (auto it = failures.begin(); it != failures.end(); ++it) {
        if (it->proc) {
            if (it->proc->errorObserved)
                continue;
            it->proc->errorObserved = true;
        }
        std::exception_ptr error = std::move(it->error);
        failures.erase(failures.begin(), it + 1);
        std::rethrow_exception(error);
    }
    failures.clear();
    return currentTick;
}

Process::Process(Simulator &s, Coro<void> b, std::string n)
    : owner(s), body(std::move(b)), procName(std::move(n))
{
}

Process::~Process() = default;

void
Process::onFinish() noexcept
{
    doneFlag = true;
    error = body.promise().exception;
    if (error)
        owner.failures.push_back(Simulator::Failure{this, error});
    if (obsSpanId) {
        owner.obsSession->trace().asyncEnd("process", procName,
                                           obsSpanId, owner.now());
    }
    for (auto h : joiners)
        owner.scheduleAt(owner.now(), h);
    joiners.clear();
}

Coro<void>
joinAll(std::vector<ProcessRef> procs)
{
    for (auto &p : procs)
        co_await p->join();
}

} // namespace howsim::sim

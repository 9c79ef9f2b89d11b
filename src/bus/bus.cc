#include "bus/bus.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "obs/obs.hh"
#include "sim/awaitables.hh"
#include "sim/logging.hh"

namespace howsim::bus
{

namespace
{

/**
 * Conformance trace (HOWSIM_BUSLOG=<path>): every bus logs one line
 * per construction ("B id name chN"), arrival ("A id tick bytes"),
 * grant ("G id tick bytes") and completion ("C id tick bytes"), at
 * source positions that correspond between the two transfer engines.
 * Diffing the files from a coro run and a calendar run of the same
 * workload pinpoints the first divergent intra-tick ordering; this is
 * the debugging technique behind the equivalence argument in
 * DESIGN.md §12. Off (null) unless the variable is set.
 */
std::FILE *
conformanceLog()
{
    static std::FILE *f = [] {
        const char *p = std::getenv("HOWSIM_BUSLOG");
        return p ? std::fopen(p, "w") : nullptr;
    }();
    return f;
}

/**
 * Per-process bus id for the conformance trace. Atomic because the
 * parallel experiment runner constructs machines on several threads
 * at once.
 */
int
nextBusId()
{
    static std::atomic<int> n{0};
    return n.fetch_add(1, std::memory_order_relaxed);
}

/** Validate before the Resource member is constructed from it. */
const BusParams &
validated(const BusParams &params)
{
    if (params.channels <= 0)
        panic("Bus '%s': channels must be positive",
              params.name.c_str());
    if (params.channelRate <= 0)
        panic("Bus '%s': channelRate must be positive",
              params.name.c_str());
    return params;
}

} // namespace

Bus::Bus(sim::Simulator &s, BusParams params)
    : simulator(s), busParams(validated(params)),
      slots(busParams.channels),
      chanEnd(static_cast<std::size_t>(busParams.channels), 0),
      chanBusy(static_cast<std::size_t>(busParams.channels), 0)
{
    dbgId = nextBusId();
    dbgLog = conformanceLog();
    if (dbgLog)
        std::fprintf(dbgLog, "B %d %s ch%d\n", dbgId,
                     busParams.name.c_str(), busParams.channels);
    if (obs::Session *session = obs::session()) {
        obs::Scope scope(session->metrics(), busParams.name);
        obsBytes = &scope.counter("bytes");
        obsTransfers = &scope.counter("transfers");
        if (busParams.probeTimeline) {
            if (busParams.xfer == XferPolicy::Coro) {
                slots.observe(busParams.name);
            } else {
                obsSess = session;
                obsWait = &session->metrics().histogram(
                    busParams.name + ".wait_ticks");
                obsDepth = &session->metrics().histogram(
                    busParams.name + ".queue_depth");
                session->timeline().probe(
                    busParams.name + ".queue_len",
                    [this] {
                        return static_cast<double>(pending.size());
                    },
                    this);
                session->timeline().probe(
                    busParams.name + ".in_use",
                    [this] {
                        return static_cast<double>(activeCount);
                    },
                    this);
            }
        }
    }
}

Bus::~Bus()
{
    // Only deregister while the session we registered with is still
    // installed; once it unwinds, its dump() already cleared probes.
    if (obsSess && obs::session() == obsSess)
        obsSess->timeline().dropProbes(this);
}

Bus::Transfer
Bus::transfer(std::uint64_t bytes)
{
    if (busParams.xfer == XferPolicy::Coro)
        return Transfer(transferCoro(bytes));
    return Transfer(this, bytes);
}

sim::Coro<void>
Bus::transferCoro(std::uint64_t bytes)
{
    if (dbgLog)
        std::fprintf(dbgLog, "A %d %llu %llu\n", dbgId,
                     (unsigned long long)simulator.now(),
                     (unsigned long long)bytes);
    co_await slots.acquire(1);
    if (dbgLog)
        std::fprintf(dbgLog, "G %d %llu %llu\n", dbgId,
                     (unsigned long long)simulator.now(),
                     (unsigned long long)bytes);
    sim::Tick occupancy = occupancyTicks(bytes);
    co_await sim::delay(occupancy);
    if (dbgLog)
        std::fprintf(dbgLog, "C %d %llu %llu\n", dbgId,
                     (unsigned long long)simulator.now(),
                     (unsigned long long)bytes);
    slots.release(1);
    ++accumulated.transfers;
    accumulated.bytes += bytes;
    accumulated.busyTicks += occupancy;
    if (obsBytes) {
        obsBytes->add(bytes);
        obsTransfers->add();
    }
}

// ---------------------------------------------------------------
// Calendar engine. The comments relate each step to the coroutine
// reference path; DESIGN.md §12 has the full equivalence argument.
// ---------------------------------------------------------------

Bus::Rec *
Bus::allocRec()
{
    if (freeRecs) {
        Rec *r = freeRecs;
        freeRecs = r->nextFree;
        return r;
    }
    recPool.emplace_back();
    return &recPool.back();
}

void
Bus::freeRec(Rec *r)
{
    r->done = sim::InlineAction();
    r->nextFree = freeRecs;
    freeRecs = r;
}

int
Bus::freeChannelMinEnd() const
{
    int best = -1;
    for (int c = 0; c < busParams.channels; ++c) {
        if (chanBusy[static_cast<std::size_t>(c)])
            continue;
        if (best < 0
            || chanEnd[static_cast<std::size_t>(c)]
                   < chanEnd[static_cast<std::size_t>(best)])
            best = c;
    }
    if (best < 0)
        panic("Bus '%s': grant with no free channel",
              busParams.name.c_str());
    return best;
}

void
Bus::integrate(sim::Tick now)
{
    busyUnitTicks += static_cast<std::uint64_t>(activeCount)
                     * (now - lastChange);
    lastChange = now;
}

void
Bus::bookAsync(std::uint64_t bytes, sim::InlineAction done)
{
    if (busParams.xfer != XferPolicy::Calendar)
        panic("Bus '%s': bookAsync on the coroutine path",
              busParams.name.c_str());
    if (resv) {
        // A closed-form booking is layered on this bus; turn it back
        // into ordinary calendar state before queueing behind it.
        resv->demote();
        if (resv)
            panic("Bus '%s': demote left the reservation in place",
                  busParams.name.c_str());
    }
    sim::Tick now = simulator.now();
    if (dbgLog)
        std::fprintf(dbgLog, "A %d %llu %llu\n", dbgId,
                     (unsigned long long)now,
                     (unsigned long long)bytes);
    Rec *r = allocRec();
    r->bytes = bytes;
    r->occ = occupancyTicks(bytes);
    r->arrival = now;
    r->done = std::move(done);
    // Immediate grant only when no queue and a channel's completion
    // has actually run — the Resource's waiters.empty() && avail > 0
    // condition, which keeps grant events at identical (tick, seq)
    // positions when a channel frees at this very tick.
    if (pending.empty() && activeCount < busParams.channels) {
        grantNow(r, now);
    } else {
        pending.push_back(r);
        if (obsDepth)
            obsDepth->sample(static_cast<sim::Tick>(pending.size()));
    }
}

void
Bus::grantNow(Rec *r, sim::Tick now)
{
    if (dbgLog)
        std::fprintf(dbgLog, "G %d %llu %llu\n", dbgId,
                     (unsigned long long)now,
                     (unsigned long long)r->bytes);
    integrate(now);
    ++activeCount;
    int c = freeChannelMinEnd();
    r->channel = c;
    sim::Tick end = now + r->occ;
    chanEnd[static_cast<std::size_t>(c)] = end;
    ++chanBusy[static_cast<std::size_t>(c)];
    sim::Tick waited = now - r->arrival;
    waitTicks += waited;
    if (obsWait)
        obsWait->sample(waited);
    simulator.scheduleAt(end, sim::InlineAction([this, r] {
        onComplete(r);
    }));
}

void
Bus::onComplete(Rec *r)
{
    sim::Tick now = simulator.now();
    if (dbgLog)
        std::fprintf(dbgLog, "C %d %llu %llu\n", dbgId,
                     (unsigned long long)now,
                     (unsigned long long)r->bytes);
    // Mirror Resource::release exactly: free the channel and grant
    // queued transfers *synchronously*, before statistics and before
    // the completed transfer's continuation runs. The pop must not be
    // deferred to an event: a booking arriving later in this same
    // tick has to see the post-grant queue state (it queues FIFO
    // behind the grant, or grants inline on the still-free channel),
    // and a second completion at this tick must not re-examine a
    // waiter this one already granted. Only the granted transfer's
    // completion *scheduling* is deferred to a wake event — the
    // position the reference path's resumed waiter schedules its
    // occupancy delay from.
    integrate(now);
    --activeCount;
    --chanBusy[static_cast<std::size_t>(r->channel)];
    while (!pending.empty() && activeCount < busParams.channels) {
        Rec *g = pending.front();
        pending.pop_front();
        grantChannel(g, now);
    }
    ++accumulated.transfers;
    accumulated.bytes += r->bytes;
    accumulated.busyTicks += r->occ;
    if (obsBytes) {
        obsBytes->add(r->bytes);
        obsTransfers->add();
    }
    sim::InlineAction done = std::move(r->done);
    freeRec(r);
    if (done)
        done();
}

void
Bus::grantChannel(Rec *r, sim::Tick now)
{
    integrate(now);
    ++activeCount;
    int c = freeChannelMinEnd();
    r->channel = c;
    chanEnd[static_cast<std::size_t>(c)] = now + r->occ;
    ++chanBusy[static_cast<std::size_t>(c)];
    sim::Tick waited = now - r->arrival;
    waitTicks += waited;
    if (obsWait)
        obsWait->sample(waited);
    simulator.scheduleAt(now, sim::InlineAction([this, r] {
        onWake(r);
    }));
}

void
Bus::onWake(Rec *r)
{
    if (dbgLog)
        std::fprintf(dbgLog, "G %d %llu %llu\n", dbgId,
                     (unsigned long long)simulator.now(),
                     (unsigned long long)r->bytes);
    simulator.scheduleAt(simulator.now() + r->occ,
                         sim::InlineAction([this, r] {
                             onComplete(r);
                         }));
}

// ---------------------------------------------------------------
// Closed-form reservation handshake (net::Network frame trains).
// ---------------------------------------------------------------

void
Bus::setReservation(Reservation *r)
{
    if (!calendarQuiet())
        panic("Bus '%s': reservation on a non-quiet bus",
              busParams.name.c_str());
    resv = r;
}

void
Bus::clearReservation(Reservation *r)
{
    if (resv == r)
        resv = nullptr;
}

void
Bus::commitReserved(sim::Tick arrival, sim::Tick start, sim::Tick end,
                    std::uint64_t bytes, std::size_t queued_depth)
{
    // Replay the reservation's channel fold: replace the smallest
    // busy-until entry, exactly as the schedule was computed.
    std::size_t c = 0;
    for (std::size_t k = 1; k < chanEnd.size(); ++k)
        if (chanEnd[k] < chanEnd[c])
            c = k;
    chanEnd[c] = end;
    sim::Tick occ = end - start;
    ++accumulated.transfers;
    accumulated.bytes += bytes;
    accumulated.busyTicks += occ;
    busyUnitTicks += occ;
    waitTicks += start - arrival;
    if (obsWait)
        obsWait->sample(start - arrival);
    if (obsDepth && queued_depth > 0)
        obsDepth->sample(static_cast<sim::Tick>(queued_depth));
    if (obsBytes) {
        obsBytes->add(bytes);
        obsTransfers->add();
    }
}

void
Bus::adoptReservedActive(sim::Tick arrival, sim::Tick start,
                         sim::Tick end, std::uint64_t bytes,
                         std::size_t queued_depth,
                         sim::InlineAction done)
{
    sim::Tick now = simulator.now();
    std::size_t c = 0;
    for (std::size_t k = 1; k < chanEnd.size(); ++k)
        if (chanEnd[k] < chanEnd[c])
            c = k;
    chanEnd[c] = end;
    ++chanBusy[c];
    integrate(now);
    ++activeCount;
    // The slice already served ([start, now]) enters the utilization
    // integral here; [now, end] accrues normally via activeCount.
    busyUnitTicks += now - start;
    waitTicks += start - arrival;
    if (obsWait)
        obsWait->sample(start - arrival);
    if (obsDepth && queued_depth > 0)
        obsDepth->sample(static_cast<sim::Tick>(queued_depth));
    Rec *r = allocRec();
    r->bytes = bytes;
    r->occ = end - start;
    r->arrival = arrival;
    r->channel = static_cast<int>(c);
    r->done = std::move(done);
    simulator.scheduleAt(end, sim::InlineAction([this, r] {
        onComplete(r);
    }));
}

void
Bus::adoptReservedQueued(sim::Tick arrival, std::uint64_t bytes,
                         std::size_t queued_depth,
                         sim::InlineAction done)
{
    Rec *r = allocRec();
    r->bytes = bytes;
    r->occ = occupancyTicks(bytes);
    r->arrival = arrival;
    r->done = std::move(done);
    pending.push_back(r);
    if (obsDepth)
        obsDepth->sample(static_cast<sim::Tick>(queued_depth));
}

} // namespace howsim::bus

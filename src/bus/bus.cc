#include "bus/bus.hh"

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace howsim::bus
{

Bus::Bus(sim::Simulator &s, BusParams params)
    : simulator(s), busParams(std::move(params))
{
    if (busParams.channels <= 0)
        panic("Bus '%s': channels must be positive",
              busParams.name.c_str());
    if (busParams.channelRate <= 0)
        panic("Bus '%s': channelRate must be positive",
              busParams.name.c_str());
    if (obs::Session *session = obs::session()) {
        obs::Scope scope(session->metrics(), busParams.name);
        obsBytes = &scope.counter("bytes");
        obsTransfers = &scope.counter("transfers");
        if (busParams.probeTimeline) {
            obsSess = session;
            obsWait = &session->metrics().histogram(
                busParams.name + ".wait_ticks");
            obsDepth = &session->metrics().histogram(
                busParams.name + ".queue_depth");
            session->timeline().probe(
                busParams.name + ".queue_len",
                [this] { return static_cast<double>(pending.size()); },
                this);
            session->timeline().probe(
                busParams.name + ".in_use",
                [this] { return static_cast<double>(activeCount); },
                this);
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
    return Transfer(this, bytes);
}

// ---------------------------------------------------------------
// The comments relate each step to the Resource acquire / delay /
// release reference (DESIGN.md §12).
// ---------------------------------------------------------------

Bus::Rec *
Bus::allocRec()
{
    if (freeRecs) {
        Rec *r = freeRecs;
        freeRecs = r->nextFree;
        return r;
    }
    Rec &r = recPool.emplace_back();
    r.bus = this;
    return &r;
}

void
Bus::freeRec(Rec *r)
{
    r->nextFree = freeRecs;
    freeRecs = r;
}

void
Bus::integrate(sim::Tick now)
{
    busyUnitTicks += static_cast<std::uint64_t>(activeCount)
                     * (now - lastChange);
    lastChange = now;
}

void
Bus::bookAsync(std::uint64_t bytes, sim::EventWord done)
{
    sim::Tick now = simulator.now();
    Rec *r = allocRec();
    r->bytes = bytes;
    r->occ = occupancyTicks(bytes);
    r->arrival = now;
    r->done = done;
    // Immediate grant only when no queue and a channel's completion
    // has actually run — the Resource's waiters.empty() && avail > 0
    // condition, which keeps grant events at identical (tick, seq)
    // positions when a channel frees at this very tick.
    if (pending.empty() && activeCount < busParams.channels) {
        grant(r, now);
        occupy(r);
    } else {
        pending.push_back(r);
        if (obsDepth)
            obsDepth->sample(static_cast<sim::Tick>(pending.size()));
    }
}

void
Bus::grant(Rec *r, sim::Tick now)
{
    integrate(now);
    ++activeCount;
    sim::Tick waited = now - r->arrival;
    waitTicks += waited;
    if (obsWait)
        obsWait->sample(waited);
}

void
Bus::occupy(Rec *r)
{
    r->fire = &completeEvent;
    simulator.scheduleAt(simulator.now() + r->occ, r);
}

void
Bus::occupyEvent(sim::EventTarget *self)
{
    Rec *r = static_cast<Rec *>(self);
    r->bus->occupy(r);
}

void
Bus::completeEvent(sim::EventTarget *self)
{
    Rec *r = static_cast<Rec *>(self);
    r->bus->onComplete(r);
}

void
Bus::onComplete(Rec *r)
{
    sim::Tick now = simulator.now();
    // Mirror Resource::release exactly: free the channel and grant
    // queued transfers *synchronously*, before statistics and before
    // the completed transfer's continuation runs. The pop must not be
    // deferred to an event: a booking arriving later in this same
    // tick has to see the post-grant queue state (it queues FIFO
    // behind the grant, or grants inline on the still-free channel),
    // and a second completion at this tick must not re-examine a
    // waiter this one already granted. Only the granted transfer's
    // occupancy is deferred to a wake event — the position the
    // reference's resumed waiter schedules its occupancy delay from.
    integrate(now);
    --activeCount;
    while (!pending.empty() && activeCount < busParams.channels) {
        Rec *g = pending.front();
        pending.pop_front();
        grant(g, now);
        g->fire = &occupyEvent;
        simulator.scheduleAt(now, g);
    }
    ++accumulated.transfers;
    accumulated.bytes += r->bytes;
    accumulated.busyTicks += r->occ;
    if (obsBytes) {
        obsBytes->add(r->bytes);
        obsTransfers->add();
    }
    sim::EventWord done = r->done;
    freeRec(r);
    done();
}

} // namespace howsim::bus

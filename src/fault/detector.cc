#include "fault/detector.hh"

#include <algorithm>

#include "sim/awaitables.hh"
#include "sim/logging.hh"

namespace howsim::fault
{

namespace
{

/** Counter-hash site of device @p d's heartbeat schedule. */
std::uint64_t
hbSite(int d)
{
    return mix64(siteId("hb.period")
                 ^ static_cast<std::uint64_t>(d + 1));
}

} // namespace

Takeover::Takeover(sim::Simulator &s, int devices) : simulator(s)
{
    Injector *i = current();
    if (i && i->plan().stopConfigured()) {
        inj = i;
        sched = StopSchedule::resolve(i->plan(), devices);
    }
}

sim::Coro<int>
Takeover::route(int d, int first, int count)
{
    const StopSchedule::Victim *v = sched.victimOf(d);
    if (v == nullptr || sched.aliveAt(d, simulator.now()))
        co_return d;
    sim::Tick ready = v->stopAt + sched.lease;
    if (v->rejoins() && v->restartAt < ready)
        ready = v->restartAt;
    if (simulator.now() < ready)
        co_await sim::delay(ready - simulator.now());
    if (sched.aliveAt(d, simulator.now()))
        co_return d;
    ++inj->counters().stopRedirects;
    co_return sched.buddyOf(d, first, count);
}

Detector::Detector(sim::Simulator &s, Injector &injector,
                   const StopSchedule &schedule,
                   AvailabilityTransport &t,
                   std::uint64_t rebuildBytesPerDevice)
    : simulator(s), inj(injector), sched(schedule), transport(t),
      rebuildBytes(rebuildBytesPerDevice)
{
    watchRemaining = static_cast<int>(sched.victims.size());
    // Key-stream allocation order is part of the determinism
    // contract: one rejoin-handshake stream per victim, allocated
    // here (construction time) in victim order.
    rebuildKeys.reserve(sched.victims.size());
    for (std::size_t i = 0; i < sched.victims.size(); ++i)
        rebuildKeys.push_back(simulator.allocKeyStream());
}

void
Detector::start()
{
    if (sched.empty())
        return;
    // Monitor every device, not just the victims: the probe traffic
    // of healthy devices is part of the interconnect load, and a
    // fail-slow (but alive) device must be seen to keep its lease —
    // the false-positive bound detector_test pins.
    for (int d = 0; d < transport.deviceCount(); ++d)
        simulator.spawn(monitor(d), strprintf("hb.monitor%d", d));
}

void
Detector::declareDead(int device, sim::Tick now)
{
    const StopSchedule::Victim *v = sched.victimOf(device);
    sim::Tick latency = now - v->stopAt;
    ++observed.deaths;
    observed.detectLatencyTotal += latency;
    observed.detectLatencyMax
        = std::max(observed.detectLatencyMax, latency);
    ++inj.counters().stopDeaths;
}

void
Detector::noteRejoin(int device)
{
    ++observed.rejoins;
    std::size_t idx = 0;
    while (sched.victims[idx].device != device)
        ++idx;
    if (rebuildBytes == 0)
        return;
    simulator.spawnDetached(rebuild(device, rebuildKeys[idx]),
                            strprintf("rebuild%d", device));
}

sim::Coro<void>
Detector::monitor(int device)
{
    const FaultPlan &plan = inj.plan();
    const StopSchedule::Victim *v = sched.victimOf(device);
    const std::uint64_t site = hbSite(device);
    sim::Tick lastAck = simulator.now();
    bool declared = false;
    bool rejoined = false;
    for (std::uint64_t seq = 0;; ++seq) {
        if (!v && watchRemaining == 0)
            break; // every victim's story has been observed
        // Probe schedule: the period with a +-10% counter-hash
        // jitter, so probes neither phase-lock with foreground
        // traffic nor depend on host scheduling.
        double u = unitDraw(plan.seed, site, seq, 0);
        auto gap = static_cast<sim::Tick>(
            static_cast<double>(plan.hbPeriod) * (0.9 + 0.2 * u));
        co_await sim::delay(gap);
        ++observed.heartbeats;
        bool ack = co_await transport.heartbeat(device);
        sim::Tick now = simulator.now();
        if (ack) {
            if (v && !rejoined && v->rejoins()
                && now >= v->restartAt) {
                rejoined = true;
                noteRejoin(device);
            }
            lastAck = now;
        } else if (!declared && now - lastAck >= sched.lease) {
            // A missed ack alone is not a death: the lease must have
            // expired too, which bounds false positives under slow
            // links (an ack, however late, renews the lease).
            declared = true;
            declareDead(device, now);
        }
        if (v) {
            bool complete = v->rejoins() ? rejoined : declared;
            if (complete) {
                --watchRemaining;
                break;
            }
        }
    }
}

sim::Coro<void>
Detector::rebuild(int victim, sim::KeyStream &keys)
{
    // The rebuild loop starts one keyed hop after the rejoin was seen
    // (DESIGN.md §14).
    co_await simulator.hop(transport.crossLatency(), keys);
    double rate = inj.plan().rebuildRateMBs * 1e6;
    for (std::uint64_t off = 0; off < rebuildBytes;
         off += kRebuildChunkBytes) {
        std::uint64_t n
            = std::min(kRebuildChunkBytes, rebuildBytes - off);
        sim::Tick chunkStart = simulator.now();
        co_await transport.rebuildChunk(victim, off, n);
        ++inj.counters().recoveredBlocks;
        observed.rebuiltBytes += n;
        // Throttle: a chunk occupies at least its rebuild-rate
        // quantum, so foreground queries keep a bounded share of the
        // disks and interconnect however idle the machine is.
        sim::Tick quota
            = sim::fromSeconds(static_cast<double>(n) / rate);
        sim::Tick spent = simulator.now() - chunkStart;
        if (spent < quota)
            co_await sim::delay(quota - spent);
    }
}

AvailabilityStats
Detector::stats() const
{
    return observed;
}

} // namespace howsim::fault

#include "diskos/active_disk_array.hh"

#include <algorithm>
#include <utility>

#include "fault/detector.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"
#include "sim/awaitables.hh"
#include "sim/logging.hh"

namespace howsim::diskos
{

namespace
{

/** Inbox capacity: bounded by the receiving drive's buffer pool. */
std::size_t
inboxCapacity(const AdParams &p)
{
    return static_cast<std::size_t>(p.commBuffers());
}

} // namespace

ActiveDiskArray::ActiveDiskArray(sim::Simulator &s, int ndisks,
                                 const disk::DiskSpec &spec,
                                 AdParams params)
    : simulator(s), adParams(params)
{
    if (ndisks <= 0)
        panic("ActiveDiskArray: ndisks must be positive");
    fc = std::make_unique<bus::Bus>(s, adParams.interconnect());
    drives.resize(static_cast<std::size_t>(ndisks));
    for (int d = 0; d < ndisks; ++d) {
        auto &drv = drives[static_cast<std::size_t>(d)];
        drv.mech = std::make_unique<disk::Disk>(
            s, spec, disk::SchedPolicy::Fcfs,
            "ad" + std::to_string(d));
        drv.cpu = std::make_unique<os::Cpu>(
            adParams.cpuMhz, os::referenceCpuMhz,
            adParams.costs.contextSwitch);
        drv.commBuffers = std::make_unique<sim::Resource>(
            adParams.commBuffers());
        // Per-drive buffer pools: histograms always, timeline probes
        // only at fine detail (there is one pool per drive).
        obs::Session *session = obs::session();
        drv.commBuffers->observe("ad" + std::to_string(d)
                                     + ".comm_buffers",
                                 session && session->fine());
        drv.inbox = std::make_unique<sim::Channel<AdBlock>>(
            inboxCapacity(adParams));
    }
    feCpu = std::make_unique<os::Cpu>(
        adParams.frontendCpuMhz, os::referenceCpuMhz,
        os::OsCosts::measuredPentiumII().contextSwitch);
    feBuffers = std::make_unique<sim::Resource>(adParams.frontendBuffers);
    feBuffers->observe("frontend.buffers");
    feInbox = std::make_unique<sim::Channel<AdBlock>>();
    // Barrier completion modeled as a logarithmic exchange over the
    // serial interconnect.
    syncBarrier = std::make_unique<net::Barrier>(
        s, ndisks,
        net::Barrier::logCost(ndisks, 2 * adParams.interconnect().startup
                                          + sim::microseconds(20)));
    if (fault::Injector *inj = fault::current()) {
        if (inj->plan().netFaultsActive()) {
            faultInj = inj;
            if (obs::Session *session = obs::session()) {
                obsRetrans = &session->metrics().counter(
                    "adloop.fault.retransmits");
            }
        }
        if (inj->plan().stopConfigured()) {
            stopInj = inj;
            stopSched
                = fault::StopSchedule::resolve(inj->plan(), ndisks);
        }
    }
    // Keyed-protocol streams, allocated last and in fixed order:
    // stream identity is part of the deterministic event order.
    driveKeys.reserve(static_cast<std::size_t>(ndisks));
    for (int d = 0; d < ndisks; ++d)
        driveKeys.push_back(s.allocKeyStream());
    feKeys = s.allocKeyStream();
}

disk::Disk &
ActiveDiskArray::drive(int d)
{
    return *drives[static_cast<std::size_t>(d)].mech;
}

os::Cpu &
ActiveDiskArray::cpu(int d)
{
    return *drives[static_cast<std::size_t>(d)].cpu;
}

const AdDiskStats &
ActiveDiskArray::diskStats(int d) const
{
    return drives[static_cast<std::size_t>(d)].stats;
}

sim::Channel<AdBlock> &
ActiveDiskArray::inbox(int d, int stream)
{
    if (stream == 0)
        return *drives[static_cast<std::size_t>(d)].inbox;
    auto key = std::make_pair(d, stream);
    auto it = streamInboxes.find(key);
    if (it == streamInboxes.end()) {
        it = streamInboxes
                 .emplace(key, std::make_unique<sim::Channel<AdBlock>>(
                                   inboxCapacity(adParams)))
                 .first;
    }
    return *it->second;
}

sim::Channel<AdBlock> &
ActiveDiskArray::frontendInbox(int stream)
{
    if (stream == 0)
        return *feInbox;
    auto it = streamFeInboxes.find(stream);
    if (it == streamFeInboxes.end()) {
        it = streamFeInboxes
                 .emplace(stream,
                          std::make_unique<sim::Channel<AdBlock>>())
                 .first;
    }
    return *it->second;
}

void
ActiveDiskArray::retireStream(int stream)
{
    if (stream <= 0) {
        panic("ActiveDiskArray::retireStream: stream %d is not a "
              "traffic stream",
              stream);
    }
    std::erase_if(streamInboxes, [&](const auto &entry) {
        if (entry.first.second != stream)
            return false;
        if (entry.second->size() != 0) {
            panic("ActiveDiskArray::retireStream: drive %d inbox on "
                  "stream %d still holds %zu blocks",
                  entry.first.first, stream, entry.second->size());
        }
        return true;
    });
    auto fe = streamFeInboxes.find(stream);
    if (fe != streamFeInboxes.end()) {
        if (fe->second->size() != 0) {
            panic("ActiveDiskArray::retireStream: front-end inbox on "
                  "stream %d still holds %zu blocks",
                  stream, fe->second->size());
        }
        streamFeInboxes.erase(fe);
    }
    streamBarriers.erase(stream);
}

std::uint64_t
ActiveDiskArray::driveCapacity() const
{
    return drives.front().mech->capacityBytes();
}

sim::Coro<int>
ActiveDiskArray::route(int d)
{
    const fault::StopSchedule::Victim *v = stopSched.victimOf(d);
    if (v == nullptr || stopSched.aliveAt(d, simulator.now()))
        co_return d;
    // Dead: stall until the front end could have declared the death
    // (the nominal lease) or until the drive restarts, whichever
    // comes first.
    sim::Tick ready = v->stopAt + stopSched.lease;
    if (v->rejoins() && v->restartAt < ready)
        ready = v->restartAt;
    if (simulator.now() < ready)
        co_await sim::delay(ready - simulator.now());
    if (stopSched.aliveAt(d, simulator.now()))
        co_return d;
    ++stopInj->counters().stopRedirects;
    co_return stopSched.buddyOf(d, size());
}

sim::Coro<bool>
ActiveDiskArray::heartbeat(int d)
{
    // Probe frame out; the drive's firmware acks only if it is up
    // when the probe lands. Both frames contend with foreground
    // transfers for the serial loop — that contention is the
    // emergent part of the measured detection latency.
    co_await fc->transfer(fault::kHeartbeatBytes);
    if (!stopSched.aliveAt(d, simulator.now()))
        co_return false;
    co_await sim::delay(adParams.costs.interrupt);
    co_await fc->transfer(fault::kHeartbeatBytes);
    co_return true;
}

sim::Coro<void>
ActiveDiskArray::rebuildChunk(int victim, std::uint64_t offset,
                              std::uint64_t bytes)
{
    int buddy = stopSched.buddyOf(victim, size());
    co_await readLocal(buddy, offset, bytes);
    AdBlock blk;
    blk.src = buddy;
    blk.tag = -1;
    blk.bytes = bytes;
    co_await send(buddy, victim, std::move(blk),
                  fault::kRebuildStream);
    co_await inbox(victim, fault::kRebuildStream).recv();
    co_await writeLocal(victim, offset, bytes);
}

sim::Coro<void>
ActiveDiskArray::readLocal(int d, std::uint64_t offset,
                           std::uint64_t bytes)
{
    if (!stopSched.empty())
        d = co_await route(d);
    auto &drv = drives[static_cast<std::size_t>(d)];
    co_await sim::delay(adParams.costs.ioQueue);
    const std::uint32_t sector = drv.mech->spec().sectorBytes;
    std::uint64_t first = offset / sector;
    std::uint64_t last = (offset + bytes + sector - 1) / sector;
    disk::AccessDetail detail = co_await drv.mech->access(
        disk::DiskRequest{first,
                          static_cast<std::uint32_t>(last - first),
                          false});
    // DiskOS fields one check-condition per injected media reread.
    if (detail.retries > 0) {
        co_await sim::delay(adParams.costs.interrupt
                            * static_cast<sim::Tick>(detail.retries));
    }
    co_await sim::delay(adParams.costs.interrupt);
}

sim::Coro<void>
ActiveDiskArray::writeLocal(int d, std::uint64_t offset,
                            std::uint64_t bytes)
{
    if (!stopSched.empty())
        d = co_await route(d);
    auto &drv = drives[static_cast<std::size_t>(d)];
    co_await sim::delay(adParams.costs.ioQueue);
    const std::uint32_t sector = drv.mech->spec().sectorBytes;
    std::uint64_t first = offset / sector;
    std::uint64_t last = (offset + bytes + sector - 1) / sector;
    disk::AccessDetail detail = co_await drv.mech->access(
        disk::DiskRequest{first,
                          static_cast<std::uint32_t>(last - first),
                          true});
    if (detail.retries > 0) {
        co_await sim::delay(adParams.costs.interrupt
                            * static_cast<sim::Tick>(detail.retries));
    }
    co_await sim::delay(adParams.costs.interrupt);
}

sim::Coro<void>
ActiveDiskArray::compute(int d, sim::Tick ref_ticks)
{
    if (!stopSched.empty())
        d = co_await route(d);
    co_await drives[static_cast<std::size_t>(d)].cpu->compute(ref_ticks);
}

/**
 * One interconnect crossing with injected frame loss. A dropped frame
 * still occupied the loop for its full transfer time and is noticed
 * only by the sender's retransmission timeout (doubling per attempt);
 * corruption is caught by the receiver's checksum and NACKed after
 * one controller-interrupt round trip. Outcomes hash (seed, link,
 * sequence, attempt), so runs are bit-reproducible.
 */
sim::Coro<void>
ActiveDiskArray::loopTransfer(int src, int dst, std::uint64_t bytes)
{
    const fault::FaultPlan &plan = faultInj->plan();
    const std::uint64_t site = fault::linkSite(src, dst);
    const std::uint64_t seq = linkSeq[{src, dst}]++;
    for (int attempt = 0;; ++attempt) {
        co_await fc->transfer(bytes);
        fault::Injector::NetFail outcome
            = faultInj->netAttempt(site, seq, attempt);
        if (outcome == fault::Injector::NetFail::None)
            co_return;
        fault::Counters &ctr = faultInj->counters();
        ++ctr.netRetransmits;
        if (obsRetrans)
            obsRetrans->add();
        if (outcome == fault::Injector::NetFail::Drop) {
            ++ctr.netDrops;
            co_await sim::delay(plan.netTimeout
                                << std::min(attempt, 16));
        } else {
            ++ctr.netCorruptions;
            co_await sim::delay(2 * adParams.costs.interrupt);
        }
    }
}

sim::Coro<void>
ActiveDiskArray::relayViaFrontend(int dst, std::uint64_t bytes)
{
    // The block lands in front-end memory and is copied out again by
    // the front-end CPU; both copies contend for that single CPU.
    co_await feBuffers->acquire();
    co_await feCpu->copyBytes(bytes, adParams.frontendCopyRefRate());
    co_await feCpu->copyBytes(bytes, adParams.frontendCopyRefRate());
    if (faultInj)
        co_await loopTransfer(-1, dst, bytes);
    else
        co_await fc->transfer(bytes);
    feBuffers->release();
    feStats.bytesRelayed += bytes;
}

sim::Coro<void>
ActiveDiskArray::sendFeLeg(int src, int dst, int stream,
                           AdBlock *block, sim::Trigger *acked)
{
    std::uint64_t bytes = block->bytes;
    // First crossing reaches the peer directly or lands at the
    // front-end for relay, depending on the architecture.
    if (faultInj)
        co_await loopTransfer(src, adParams.directD2d ? dst : -1,
                              bytes);
    else
        co_await fc->transfer(bytes);
    if (!adParams.directD2d)
        co_await relayViaFrontend(dst, bytes);
    ActiveDiskArray *self = this;
    simulator.postKeyed(
        simulator.now() + crossLatency(), feKeys.next(),
        [self, dst, stream, block, acked] {
            self->simulator.spawnDetached(
                self->deliverLeg(dst, stream, block, acked),
                "addeliver");
        });
}

sim::Coro<void>
ActiveDiskArray::deliverLeg(int dst, int stream, AdBlock *block,
                            sim::Trigger *acked)
{
    drives[static_cast<std::size_t>(dst)].stats.bytesReceived
        += block->bytes;
    co_await inbox(dst, stream).send(std::move(*block));
    simulator.postKeyed(simulator.now() + crossLatency(),
                        driveKeys[static_cast<std::size_t>(dst)].next(),
                        [acked] { acked->fire(); });
}

sim::Coro<void>
ActiveDiskArray::feIngestLeg(int src, int stream, AdBlock *block,
                             sim::Trigger *acked)
{
    std::uint64_t bytes = block->bytes;
    if (faultInj)
        co_await loopTransfer(src, -1, bytes);
    else
        co_await fc->transfer(bytes);
    // Ingest copy into front-end memory.
    co_await feCpu->copyBytes(bytes, adParams.frontendCopyRefRate());
    feStats.bytesIngested += bytes;
    co_await frontendInbox(stream).send(std::move(*block));
    simulator.postKeyed(simulator.now() + crossLatency(), feKeys.next(),
                        [acked] { acked->fire(); });
}

sim::Coro<void>
ActiveDiskArray::send(int src, int dst, AdBlock block, int stream)
{
    if (src < 0 || src >= size() || dst < 0 || dst >= size())
        panic("ActiveDiskArray::send: bad endpoints %d -> %d", src, dst);
    block.src = src;
    // Takeover: a dead source's disklet runs on its buddy drive, so
    // the buddy's stream buffers flow-control the send and the bytes
    // leave the buddy's port (the inbox keyed by dst stays logical —
    // a dead destination's disklet drains it from the buddy too).
    int psrc = src;
    if (!stopSched.empty())
        psrc = co_await route(src);
    auto &from = drives[static_cast<std::size_t>(psrc)];
    std::uint64_t bytes = block.bytes;

    co_await from.commBuffers->acquire();
    // Keyed handshake: the request hops to the loop/front-end, the
    // transfer (and relay) runs there, the block hops to the
    // destination drive, and the ack releases this frame — the
    // DiskOS stream buffer is held until the block is enqueued at the
    // destination (flow control covers the whole flight). The block
    // and trigger live in this suspended frame.
    sim::Trigger acked;
    AdBlock *blockPtr = &block;
    sim::Trigger *ackedPtr = &acked;
    ActiveDiskArray *self = this;
    simulator.postKeyed(
        simulator.now() + crossLatency(),
        driveKeys[static_cast<std::size_t>(src)].next(),
        [self, src, dst, stream, blockPtr, ackedPtr] {
            self->simulator.spawnDetached(
                self->sendFeLeg(src, dst, stream, blockPtr, ackedPtr),
                "adsend");
        });
    co_await acked.wait();
    from.commBuffers->release();
    from.stats.bytesSent += bytes;
}

sim::Coro<void>
ActiveDiskArray::sendToFrontend(int src, AdBlock block, int stream)
{
    if (src < 0 || src >= size())
        panic("ActiveDiskArray::sendToFrontend: bad source %d", src);
    block.src = src;
    int psrc = src;
    if (!stopSched.empty())
        psrc = co_await route(src);
    auto &from = drives[static_cast<std::size_t>(psrc)];
    std::uint64_t bytes = block.bytes;

    co_await from.commBuffers->acquire();
    sim::Trigger acked;
    AdBlock *blockPtr = &block;
    sim::Trigger *ackedPtr = &acked;
    ActiveDiskArray *self = this;
    simulator.postKeyed(
        simulator.now() + crossLatency(),
        driveKeys[static_cast<std::size_t>(src)].next(),
        [self, src, stream, blockPtr, ackedPtr] {
            self->simulator.spawnDetached(
                self->feIngestLeg(src, stream, blockPtr, ackedPtr),
                "adingest");
        });
    co_await acked.wait();
    from.commBuffers->release();
    from.stats.bytesSent += bytes;
}

sim::Coro<void>
ActiveDiskArray::frontendSend(int dst, AdBlock block, int stream)
{
    if (dst < 0 || dst >= size())
        panic("ActiveDiskArray::frontendSend: bad destination %d", dst);
    block.src = -1;
    std::uint64_t bytes = block.bytes;
    // Copy-out and crossing run here, at the front-end; only the
    // delivery leg hops to the drive.
    co_await feCpu->copyBytes(bytes, adParams.frontendCopyRefRate());
    if (faultInj)
        co_await loopTransfer(-1, dst, bytes);
    else
        co_await fc->transfer(bytes);
    sim::Trigger acked;
    AdBlock *blockPtr = &block;
    sim::Trigger *ackedPtr = &acked;
    ActiveDiskArray *self = this;
    simulator.postKeyed(
        simulator.now() + crossLatency(), feKeys.next(),
        [self, dst, stream, blockPtr, ackedPtr] {
            self->simulator.spawnDetached(
                self->deliverLeg(dst, stream, blockPtr, ackedPtr),
                "addeliver");
        });
    co_await acked.wait();
}

sim::Coro<void>
ActiveDiskArray::barrier(int participant, int stream)
{
    if (stream == 0) {
        co_await syncBarrier->arrive(participant);
        co_return;
    }
    auto it = streamBarriers.find(stream);
    if (it == streamBarriers.end()) {
        it = streamBarriers
                 .emplace(stream,
                          std::make_unique<net::Barrier>(
                              simulator, size(),
                              net::Barrier::logCost(
                                  size(),
                                  2 * adParams.interconnect().startup
                                      + sim::microseconds(20))))
                 .first;
    }
    co_await it->second->arrive();
}

void
ActiveDiskArray::useKeyedProtocols()
{
    if (size() > 1)
        syncBarrier->useKeyedProtocol(crossLatency());
}

} // namespace howsim::diskos

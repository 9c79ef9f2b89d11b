#include "diskos/active_disk_array.hh"

#include <utility>

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
    : simulator(s), adParams(params),
      // Barrier completion modeled as a logarithmic exchange over the
      // serial interconnect.
      barriers(s, ndisks,
               net::Barrier::logCost(
                   ndisks, 2 * adParams.interconnect().startup
                               + sim::microseconds(20))),
      takeover(s, ndisks)
{
    if (ndisks <= 0)
        panic("ActiveDiskArray: ndisks must be positive");
    fc = std::make_unique<bus::Bus>(s, adParams.interconnect());
    drives.resize(static_cast<std::size_t>(ndisks));
    for (int d = 0; d < ndisks; ++d) {
        auto &drv = drives[static_cast<std::size_t>(d)];
        drv.mech = std::make_unique<disk::Disk>(
            s, spec, "ad" + std::to_string(d));
        drv.cpu = std::make_unique<os::Cpu>(
            s, adParams.cpuMhz, os::referenceCpuMhz,
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
        s, adParams.frontendCpuMhz, os::referenceCpuMhz,
        os::OsCosts::measuredPentiumII().contextSwitch);
    feBuffers = std::make_unique<sim::Resource>(adParams.frontendBuffers);
    feBuffers->observe("frontend.buffers");
    feInbox = std::make_unique<sim::Channel<AdBlock>>();
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
    barriers.retire(stream);
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
}

std::uint64_t
ActiveDiskArray::driveCapacity() const
{
    return drives.front().mech->capacityBytes();
}

sim::Coro<bool>
ActiveDiskArray::heartbeat(int d)
{
    // Probe frame out; the drive's firmware acks only if it is up
    // when the probe lands. Both frames contend with foreground
    // transfers for the serial loop — that contention is the
    // emergent part of the measured detection latency.
    co_await fc->transfer(fault::kHeartbeatBytes);
    if (!stopSchedule().aliveAt(d, simulator.now()))
        co_return false;
    co_await sim::delay(adParams.costs.interrupt);
    co_await fc->transfer(fault::kHeartbeatBytes);
    co_return true;
}

sim::Coro<void>
ActiveDiskArray::rebuildChunk(int victim, std::uint64_t offset,
                              std::uint64_t bytes)
{
    int buddy = stopSchedule().buddyOf(victim, 0, size());
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
ActiveDiskArray::localIo(int d, std::uint64_t offset,
                         std::uint64_t bytes, bool write)
{
    if (!takeover.empty())
        d = co_await takeover.route(d, 0, size());
    disk::Disk &mech = *drives[static_cast<std::size_t>(d)].mech;
    const std::uint32_t sector = mech.spec().sectorBytes;
    std::uint64_t first = offset / sector;
    std::uint64_t last = (offset + bytes + sector - 1) / sector;
    // The request reaches the drive after DiskOS queueing; DiskOS then
    // fields one check-condition per injected media reread and the
    // completion interrupt. One resume covers all of it.
    const sim::Tick now = simulator.now();
    disk::Disk::Booking booked = mech.book(
        disk::DiskRequest{first,
                          static_cast<std::uint32_t>(last - first),
                          write},
        now + adParams.costs.ioQueue);
    co_await sim::delay(booked.done - now
                        + adParams.costs.interrupt
                              * (1 + static_cast<sim::Tick>(
                                     booked.detail.retries)));
}

os::Cpu::Compute
ActiveDiskArray::compute(int d, sim::Tick ref_ticks)
{
    if (takeover.empty())
        return drives[static_cast<std::size_t>(d)].cpu->compute(ref_ticks);
    fault::Takeover::Route r = takeover.route(d, 0, size());
    return drives[static_cast<std::size_t>(r.device)].cpu->compute(
        ref_ticks, r.at, r.redirects);
}

sim::Coro<void>
ActiveDiskArray::relayViaFrontend(int dst, std::uint64_t bytes)
{
    // The block lands in front-end memory and is copied out again by
    // the front-end CPU; both copies contend for that single CPU.
    co_await feBuffers->acquire();
    co_await feCpu->copyBytes(bytes, adParams.frontendCopyRefRate());
    co_await feCpu->copyBytes(bytes, adParams.frontendCopyRefRate());
    if (links.active())
        co_await lossyTransfer(-1, dst, bytes);
    else
        co_await fc->transfer(bytes);
    feBuffers->release();
    feStats.bytesRelayed += bytes;
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
    if (!takeover.empty())
        psrc = co_await takeover.route(src, 0, size());
    auto &from = drives[static_cast<std::size_t>(psrc)];
    std::uint64_t bytes = block.bytes;

    // Keyed handshake: the request hops to the loop/front-end, the
    // transfer (and relay) runs there, the block hops to the
    // destination drive, and the ack hops back. The DiskOS stream
    // buffer is held until the ack lands, so flow control covers the
    // whole flight.
    co_await from.commBuffers->acquire();
    co_await simulator.hop(crossLatency(),
                           driveKeys[static_cast<std::size_t>(src)]);
    // The first crossing reaches the peer directly or lands at the
    // front-end for relay, depending on the architecture.
    if (links.active())
        co_await lossyTransfer(src, adParams.directD2d ? dst : -1,
                              bytes);
    else
        co_await fc->transfer(bytes);
    if (!adParams.directD2d)
        co_await relayViaFrontend(dst, bytes);
    co_await simulator.hop(crossLatency(), feKeys);
    drives[static_cast<std::size_t>(dst)].stats.bytesReceived += bytes;
    co_await inbox(dst, stream).send(std::move(block));
    co_await simulator.hop(crossLatency(),
                           driveKeys[static_cast<std::size_t>(dst)]);
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
    if (!takeover.empty())
        psrc = co_await takeover.route(src, 0, size());
    auto &from = drives[static_cast<std::size_t>(psrc)];
    std::uint64_t bytes = block.bytes;

    co_await from.commBuffers->acquire();
    co_await simulator.hop(crossLatency(),
                           driveKeys[static_cast<std::size_t>(src)]);
    if (links.active())
        co_await lossyTransfer(src, -1, bytes);
    else
        co_await fc->transfer(bytes);
    // Ingest copy into front-end memory.
    co_await feCpu->copyBytes(bytes, adParams.frontendCopyRefRate());
    feStats.bytesIngested += bytes;
    co_await frontendInbox(stream).send(std::move(block));
    co_await simulator.hop(crossLatency(), feKeys);
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
    // Copy-out and crossing run at the front-end; the block then hops
    // to the drive and the ack hops back.
    co_await feCpu->copyBytes(bytes, adParams.frontendCopyRefRate());
    if (links.active())
        co_await lossyTransfer(-1, dst, bytes);
    else
        co_await fc->transfer(bytes);
    co_await simulator.hop(crossLatency(), feKeys);
    drives[static_cast<std::size_t>(dst)].stats.bytesReceived += bytes;
    co_await inbox(dst, stream).send(std::move(block));
    co_await simulator.hop(crossLatency(),
                           driveKeys[static_cast<std::size_t>(dst)]);
}

} // namespace howsim::diskos

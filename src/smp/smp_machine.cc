#include "smp/smp_machine.hh"

#include <algorithm>
#include <string>

#include "sim/awaitables.hh"
#include "sim/logging.hh"

namespace howsim::smp
{

SmpMachine::SmpMachine(sim::Simulator &s, int nprocs, int ndisks,
                       const disk::DiskSpec &spec, SmpParams params)
    : simulator(s), smpParams(params),
      barriers(s, nprocs,
               net::Barrier::logCost(nprocs,
                                     2 * smpParams.interconnectLatency
                                         + sim::microseconds(2))),
      takeover(s, ndisks)
{
    if (nprocs <= 0 || ndisks <= 0)
        panic("SmpMachine: processor and disk counts must be positive");

    for (int p = 0; p < nprocs; ++p)
        cpus.push_back(std::make_unique<os::Cpu>(
            s, smpParams.cpuMhz, os::referenceCpuMhz,
            smpParams.costs.contextSwitch));

    int nboards = (nprocs + smpParams.cpusPerBoard - 1)
                  / smpParams.cpusPerBoard;
    boards.resize(static_cast<std::size_t>(nboards));
    for (auto &b : boards) {
        bus::BusParams link;
        link.name = "numalink";
        link.channels = 1;
        link.channelRate = smpParams.interconnectLinkRate;
        link.startup = smpParams.interconnectLatency;
        b.linkOut = std::make_unique<bus::Bus>(s, link);
        b.linkIn = std::make_unique<bus::Bus>(s, link);
        bus::BusParams bte;
        bte.name = "bte";
        bte.channels = 1;
        bte.channelRate = smpParams.bteRate;
        bte.startup = smpParams.interconnectLatency;
        b.bte = std::make_unique<bus::Bus>(s, bte);
    }

    fc = std::make_unique<bus::Bus>(
        s, bus::BusParams::fibreChannel(smpParams.fcRate,
                                        smpParams.fcLoops));
    xio = std::make_unique<bus::Bus>(s, bus::BusParams::xio());

    for (int d = 0; d < ndisks; ++d) {
        farm.push_back(std::make_unique<disk::Disk>(
            s, spec, "smpdisk" + std::to_string(d)));
        raw.push_back(std::make_unique<os::RawDisk>(*farm.back(),
                                                    fc.get(),
                                                    smpParams.costs));
        // Always-on split protocol (DESIGN.md §14); the return
        // flight models the FC arbitration grant.
        raw.back()->enableSplit(s, fc->minGrantLatency());
    }
}

disk::Disk &
SmpMachine::driveMech(int d)
{
    return *farm[static_cast<std::size_t>(d)];
}

sim::Coro<void>
SmpMachine::io(DiskGroup group, std::uint64_t offset,
               std::uint64_t bytes, bool write)
{
    if (group.diskCount <= 0
        || group.firstDisk + group.diskCount > diskCount())
        panic("SmpMachine::io: bad disk group [%d, +%d)",
              group.firstDisk, group.diskCount);
    const std::uint32_t chunk = smpParams.stripeChunkBytes;
    std::uint64_t first = offset / chunk;
    std::uint64_t last = (offset + bytes + chunk - 1) / chunk;
    StripeJoin join;
    join.pending = last - first;
    for (std::uint64_t c = first; c < last; ++c) {
        int disk_idx = group.firstDisk
                       + static_cast<int>(c % static_cast<std::uint64_t>(
                             group.diskCount));
        std::uint64_t row = c / static_cast<std::uint64_t>(
                                group.diskCount);
        std::uint64_t lo = std::max(offset, c * chunk);
        std::uint64_t hi = std::min(offset + bytes, (c + 1) * chunk);
        std::uint64_t disk_off = row * chunk + (lo - c * chunk);
        simulator.spawnDetached(
            chunkIo(group, disk_idx, disk_off, hi - lo, write, join),
            "aio");
    }
    if (join.pending > 0)
        co_await join.landed.wait();
}

sim::Coro<void>
SmpMachine::chunkIo(DiskGroup group, int disk_idx, std::uint64_t offset,
                    std::uint64_t bytes, bool write, StripeJoin &join)
{
    if (!takeover.empty()) {
        disk_idx = co_await takeover.route(disk_idx, group.firstDisk,
                                           group.diskCount);
    }
    os::RawDisk *rd = raw[static_cast<std::size_t>(disk_idx)].get();
    if (write)
        co_await rd->write(offset, bytes);
    else
        co_await rd->read(offset, bytes);
    co_await xio->transfer(bytes);
    if (--join.pending == 0)
        join.landed.fire();
}

sim::Coro<bool>
SmpMachine::heartbeat(int d)
{
    // Probe and ack are real FC frames: they queue behind foreground
    // stripe chunks on the shared loop, so the measured detection
    // latency grows with I/O load.
    co_await fc->transfer(fault::kHeartbeatBytes);
    if (!stopSchedule().aliveAt(d, simulator.now()))
        co_return false;
    co_await sim::delay(smpParams.costs.interrupt);
    co_await fc->transfer(fault::kHeartbeatBytes);
    co_return true;
}

sim::Coro<void>
SmpMachine::rebuildChunk(int victim, std::uint64_t offset,
                         std::uint64_t bytes)
{
    int mirror = stopSchedule().buddyOf(victim, 0, diskCount());
    co_await raw[static_cast<std::size_t>(mirror)]->read(offset,
                                                         bytes);
    co_await xio->transfer(bytes);
    co_await raw[static_cast<std::size_t>(victim)]->write(offset,
                                                          bytes);
}

sim::Coro<void>
SmpMachine::blockTransfer(int src_cpu, int dst_cpu, std::uint64_t bytes)
{
    int src_board = boardOf(src_cpu);
    int dst_board = boardOf(dst_cpu);
    if (src_board == dst_board)
        co_return; // same physical memory
    auto &src = boards[static_cast<std::size_t>(src_board)];
    auto &dst = boards[static_cast<std::size_t>(dst_board)];
    // The destination board's BTE pulls the data across the fabric;
    // stages are traversed sequentially (each is internally queued).
    co_await src.linkOut->transfer(bytes);
    co_await dst.linkIn->transfer(bytes);
    co_await dst.bte->transfer(bytes);
}

SmpMachine::SharedQueue::SharedQueue(SmpMachine &m, std::int64_t total)
    : machine(m), limit(total)
{
}

sim::Coro<std::int64_t>
SmpMachine::SharedQueue::next()
{
    // Spinlock acquire + remote-queue pop: a couple of microseconds
    // of fabric round-trips.
    co_await lock.acquire();
    co_await sim::delay(2 * machine.smpParams.interconnectLatency
                        + sim::microseconds(1));
    std::int64_t idx = head < limit ? head++ : -1;
    lock.release();
    co_return idx;
}

} // namespace howsim::smp

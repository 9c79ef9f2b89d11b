#include "os/raw_disk.hh"

#include "sim/awaitables.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace howsim::os
{

RawDisk::RawDisk(disk::Disk &d, bus::Bus *attach, OsCosts costs)
    : diskRef(d), attachBus(attach), osCosts(costs)
{
}

void
RawDisk::enableSplit(sim::Simulator &sim, sim::Tick completionLatency)
{
    if (completionLatency == 0)
        panic("RawDisk::enableSplit: zero completion latency");
    splitSim = &sim;
    completionLat = completionLatency;
    toDisk = sim.allocKeyStream();
    toHost = sim.allocKeyStream();
}

sim::Coro<IoResult>
RawDisk::read(std::uint64_t offset, std::uint64_t bytes)
{
    return io(offset, bytes, false);
}

sim::Coro<IoResult>
RawDisk::write(std::uint64_t offset, std::uint64_t bytes)
{
    return io(offset, bytes, true);
}

sim::Coro<IoResult>
RawDisk::io(std::uint64_t offset, std::uint64_t bytes, bool write)
{
    if (bytes == 0)
        panic("RawDisk: zero-byte I/O");

    const std::uint32_t sector = diskRef.spec().sectorBytes;
    std::uint64_t first = offset / sector;
    std::uint64_t last = (offset + bytes + sector - 1) / sector;
    disk::DiskRequest req;
    req.lba = first;
    req.sectors = static_cast<std::uint32_t>(last - first);
    req.write = write;

    sim::Tick start = sim::Simulator::current()->now();

    // Issue path: system call plus device-driver queueing. Split, the
    // request crosses to the drive as one keyed hop (the system call
    // and the driver-queueing time are the flight) and the mechanism
    // runs there.
    if (splitSim) {
        co_await splitSim->hop(osCosts.syscall + osCosts.ioQueue, toDisk);
    } else {
        co_await sim::delay(osCosts.syscall + osCosts.ioQueue);
    }

    IoResult result;
    result.detail = co_await diskRef.access(req);

    // Each injected media-error reread surfaces as a check-condition
    // the driver must field before the transfer completes.
    if (result.detail.retries > 0) {
        co_await sim::delay(osCosts.interrupt
                            * static_cast<sim::Tick>(
                                result.detail.retries));
    }

    // Split, the completion flies back to the host after
    // completionLat.
    if (splitSim)
        co_await splitSim->hop(completionLat, toHost);

    if (attachBus)
        co_await attachBus->transfer(bytes);

    // Completion interrupt.
    co_await sim::delay(osCosts.interrupt);
    result.totalTicks = sim::Simulator::current()->now() - start;
    co_return result;
}

} // namespace howsim::os

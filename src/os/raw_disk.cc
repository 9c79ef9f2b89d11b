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

    const sim::Tick start = sim::Simulator::current()->now();

    // The system call and the driver queueing carry the request to the
    // drive, which books it; each injected media-error reread then
    // surfaces as a check-condition the driver fields before the
    // transfer completes. Split, the completion flies back to the host
    // as one keyed hop after completionLat; fused, the coroutine
    // resumes once, when the driver is done.
    IoResult result;
    disk::Disk::Booking booked = diskRef.book(
        req, start + osCosts.syscall + osCosts.ioQueue);
    result.detail = booked.detail;
    const sim::Tick fielded = booked.done - start
                              + osCosts.interrupt
                                    * static_cast<sim::Tick>(
                                        booked.detail.retries);
    if (splitSim)
        co_await splitSim->hop(fielded + completionLat, toHost);
    else
        co_await sim::delay(fielded);

    if (attachBus)
        co_await attachBus->transfer(bytes);

    // Completion interrupt.
    co_await sim::delay(osCosts.interrupt);
    result.totalTicks = sim::Simulator::current()->now() - start;
    co_return result;
}

} // namespace howsim::os

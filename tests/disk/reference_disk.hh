/**
 * @file
 * Reference drive for the booking differential test
 * (booking_parity_test.cc): the FCFS queue model of disk::Disk written
 * the obvious way. Each access() parks a request on its own frame and
 * wakes a service coroutine, which takes the oldest request, has the
 * wrapped drive time it at the current tick, sleeps through its
 * service time and fires the request's completion. The wrapped drive
 * is idle whenever it is asked, so its timing code runs exactly as an
 * event-driven drive's would at service start. The booked disk::Disk
 * times each request at its arrival instead; it must give every
 * request the same detail and finish tick, and end with the same
 * statistics, as this one.
 */

#ifndef HOWSIM_TESTS_DISK_REFERENCE_DISK_HH
#define HOWSIM_TESTS_DISK_REFERENCE_DISK_HH

#include <cstdint>
#include <deque>
#include <string>

#include "disk/disk.hh"
#include "sim/awaitables.hh"
#include "sim/completion.hh"
#include "sim/coro.hh"
#include "sim/simulator.hh"

namespace howsim::reference
{

class Disk
{
  public:
    Disk(sim::Simulator &s, disk::DiskSpec spec, std::string name)
        : simulator(s), mech(s, std::move(spec), std::move(name))
    {
        s.spawn(serviceLoop(), mech.name() + ".service");
    }

    sim::Coro<disk::AccessDetail>
    access(disk::DiskRequest req)
    {
        Pending pending;
        pending.req = req;
        pending.arrival = simulator.now();
        queue.push_back(&pending);
        workAvailable.fire();
        co_await pending.done.wait();
        co_return pending.detail;
    }

    /** The loop's own totals; seeks are counted by the timing code. */
    disk::DiskStats
    stats() const
    {
        disk::DiskStats s = accumulated;
        s.seeks = mech.stats().seeks;
        return s;
    }

  private:
    struct Pending
    {
        disk::DiskRequest req;
        sim::Tick arrival = 0;
        disk::AccessDetail detail;
        sim::Completion done;
    };

    sim::Coro<void>
    serviceLoop()
    {
        for (;;) {
            while (queue.empty()) {
                workAvailable.reset();
                co_await workAvailable.wait();
            }
            Pending *pending = queue.front();
            queue.pop_front();
            const sim::Tick start = simulator.now();
            pending->detail = mech.book(pending->req, start).detail;
            pending->detail.queueTicks = start - pending->arrival;
            co_await sim::delay(pending->detail.serviceTicks());

            const disk::AccessDetail &det = pending->detail;
            ++accumulated.requests;
            accumulated.busyTicks += det.serviceTicks();
            accumulated.seekTicks += det.seekTicks;
            accumulated.rotationTicks += det.rotationTicks;
            accumulated.mediaTicks += det.mediaTicks;
            accumulated.queueTicks += det.queueTicks;
            accumulated.cacheHitBytes += det.cacheHitBytes;
            std::uint64_t bytes =
                std::uint64_t{pending->req.sectors}
                * mech.spec().sectorBytes;
            if (pending->req.write)
                accumulated.bytesWritten += bytes;
            else
                accumulated.bytesRead += bytes;
            pending->done.fire();
        }
    }

    sim::Simulator &simulator;
    disk::Disk mech;
    std::deque<Pending *> queue;
    sim::Trigger workAvailable;
    disk::DiskStats accumulated;
};

} // namespace howsim::reference

#endif // HOWSIM_TESTS_DISK_REFERENCE_DISK_HH

/**
 * @file
 * Reference bus for the differential suites (bus_parity_test.cc and
 * net_conformance_test.cc): the FIFO queue model of bus::Bus written
 * the obvious way. Each transfer is a coroutine that acquires a
 * Resource slot, delays for startup + bytes/rate and releases. The
 * calendar Bus books the same schedule arithmetically; it must grant,
 * complete and account every transfer at the same ticks and in the
 * same order as this one. The interface mirrors bus::Bus so a test
 * can run one workload body against either.
 */

#ifndef HOWSIM_TESTS_BUS_REFERENCE_BUS_HH
#define HOWSIM_TESTS_BUS_REFERENCE_BUS_HH

#include <cstdint>

#include "bus/bus.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"
#include "sim/ticks.hh"

namespace howsim::reference
{

class Bus
{
  public:
    Bus(sim::Simulator &, const bus::BusParams &p)
        : busParams(p), slots(p.channels)
    {
    }

    sim::Coro<void>
    transfer(std::uint64_t bytes)
    {
        co_await slots.acquire(1);
        sim::Tick occupancy =
            busParams.startup
            + sim::transferTicks(bytes, busParams.channelRate);
        co_await sim::delay(occupancy);
        slots.release(1);
        ++accumulated.transfers;
        accumulated.bytes += bytes;
        accumulated.busyTicks += occupancy;
    }

    const bus::BusStats &stats() const { return accumulated; }
    std::size_t queueLength() const { return slots.queueLength(); }
    sim::Tick totalWait() const { return slots.totalWait(); }

    double
    utilization(sim::Tick elapsed) const
    {
        return slots.utilization(elapsed);
    }

  private:
    bus::BusParams busParams;
    sim::Resource slots;
    bus::BusStats accumulated;
};

} // namespace howsim::reference

#endif // HOWSIM_TESTS_BUS_REFERENCE_BUS_HH

/**
 * @file
 * Statistics parity between the calendar Bus and the coroutine
 * reference bus (reference_bus.hh): the same contended workload must
 * report identical BusStats (transfers, bytes, busyTicks),
 * totalWait, utilization and end-of-run queueLength — not merely
 * identical completion times. This pins the calendar Bus's
 * bookkeeping (synchronous release-time grants, the FIFO pending
 * queue) to the Resource-based reference.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bus/bus.hh"
#include "reference_bus.hh"
#include "sim/awaitables.hh"
#include "sim/simulator.hh"

using namespace howsim::bus;
using namespace howsim::sim;
namespace reference = howsim::reference;

namespace
{

/** Everything a Bus reports about a finished run. */
struct Report
{
    std::uint64_t transfers;
    std::uint64_t bytes;
    Tick busyTicks;
    Tick totalWait;
    double utilization;
    std::size_t queueLength;
    Tick elapsed;
};

/**
 * A staggered, oversubscribed workload: several waves of transfers
 * with mixed sizes and arrival times, enough concurrency to keep
 * every channel busy and a queue formed for most of the run.
 */
template <typename B>
Report
runWorkload(int channels, double rate)
{
    Simulator sim;
    BusParams p;
    p.name = "parity";
    p.channels = channels;
    p.channelRate = rate;
    p.startup = microseconds(10);
    B bus(sim, p);
    auto user = [&bus](Tick start, std::uint64_t bytes,
                       int repeats) -> Coro<void> {
        co_await delay(start);
        for (int r = 0; r < repeats; ++r)
            co_await bus.transfer(bytes);
    };
    for (int i = 0; i < 16; ++i) {
        sim.spawn(user(microseconds(i * 3), 64 * 1024 + 1000u * i, 4));
        sim.spawn(user(microseconds(i * 7 + 1), 777u * (i + 1), 2));
    }
    sim.spawn(user(0, 0, 3)); // zero-byte transfers: startup only
    sim.run();
    Report rep;
    rep.transfers = bus.stats().transfers;
    rep.bytes = bus.stats().bytes;
    rep.busyTicks = bus.stats().busyTicks;
    rep.totalWait = bus.totalWait();
    rep.utilization = bus.utilization(sim.now());
    rep.queueLength = bus.queueLength();
    rep.elapsed = sim.now();
    return rep;
}

void
expectParity(int channels, double rate)
{
    Report ref = runWorkload<reference::Bus>(channels, rate);
    Report cal = runWorkload<Bus>(channels, rate);
    EXPECT_EQ(ref.elapsed, cal.elapsed);
    EXPECT_EQ(ref.transfers, cal.transfers);
    EXPECT_EQ(ref.bytes, cal.bytes);
    EXPECT_EQ(ref.busyTicks, cal.busyTicks);
    EXPECT_EQ(ref.totalWait, cal.totalWait);
    EXPECT_DOUBLE_EQ(ref.utilization, cal.utilization);
    EXPECT_EQ(ref.queueLength, cal.queueLength);
    EXPECT_EQ(cal.queueLength, 0u); // drained
}

struct Probe
{
    std::size_t queueLength;
    Tick totalWait;
    double utilization;
};

/** Bus observations every 2 ms while eight large transfers queue. */
template <typename B>
std::vector<Probe>
sampleMidRun()
{
    Simulator sim;
    BusParams p;
    p.channels = 2;
    p.channelRate = 100e6;
    p.startup = microseconds(10);
    B bus(sim, p);
    auto user = [&bus](std::uint64_t bytes) -> Coro<void> {
        co_await bus.transfer(bytes);
    };
    for (int i = 0; i < 8; ++i)
        sim.spawn(user(1000000 + 10000u * i));
    std::vector<Probe> probes;
    auto prober = [&]() -> Coro<void> {
        for (int i = 0; i < 6; ++i) {
            co_await delay(milliseconds(2));
            probes.push_back({bus.queueLength(), bus.totalWait(),
                              bus.utilization(
                                  Simulator::current()->now())});
        }
    };
    sim.spawn(prober());
    sim.run();
    return probes;
}

} // namespace

TEST(BusParity, SingleChannelUnderContention)
{
    expectParity(1, 100e6);
}

TEST(BusParity, DualLoopFcAlUnderContention)
{
    expectParity(2, 100e6);
}

TEST(BusParity, FourChannelsFastLink)
{
    expectParity(4, 700e6);
}

/**
 * Mid-run parity: the instantaneous queueLength and totalWait agree
 * while transfers are still queued, not only after the drain.
 */
TEST(BusParity, MidRunQueueObservationsAgree)
{
    auto ref = sampleMidRun<reference::Bus>();
    auto cal = sampleMidRun<Bus>();
    ASSERT_EQ(ref.size(), cal.size());
    bool sawQueue = false;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i].queueLength, cal[i].queueLength) << i;
        EXPECT_EQ(ref[i].totalWait, cal[i].totalWait) << i;
        EXPECT_DOUBLE_EQ(ref[i].utilization, cal[i].utilization) << i;
        sawQueue = sawQueue || ref[i].queueLength > 0;
    }
    EXPECT_TRUE(sawQueue); // the probe really observed contention
}

/** @file Tests for FCFS service of a backlog and request tracing. */

#include <gtest/gtest.h>

#include <vector>

#include "disk/disk.hh"

using namespace howsim::disk;
using namespace howsim::sim;

TEST(DiskSched, AllPoliciesServeEverything)
{
    Simulator sim;
    Disk disk(sim, DiskSpec::seagateSt39102());
    int served = 0;
    auto issue = [&](std::uint64_t lba) -> Coro<void> {
        co_await disk.access(DiskRequest{lba, 8, false});
        ++served;
    };
    for (int i = 0; i < 32; ++i)
        sim.spawn(issue(static_cast<std::uint64_t>(i) * 500000));
    sim.run();
    EXPECT_EQ(served, 32);
    EXPECT_EQ(disk.stats().requests, 32u);
}

TEST(DiskTrace, RecordsEveryServicedRequest)
{
    Simulator sim;
    Disk disk(sim, DiskSpec::seagateSt39102());
    std::vector<TraceRecord> trace;
    disk.traceTo(&trace);
    auto body = [&]() -> Coro<void> {
        co_await disk.access(DiskRequest{0, 64, false});
        co_await disk.access(DiskRequest{100000, 32, true});
        co_await disk.access(DiskRequest{64, 64, false});
    };
    sim.spawn(body());
    sim.run();
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].request.lba, 0u);
    EXPECT_FALSE(trace[0].request.write);
    EXPECT_EQ(trace[1].request.lba, 100000u);
    EXPECT_TRUE(trace[1].request.write);
    // Trace is in service order with non-decreasing start times.
    EXPECT_LE(trace[0].serviceStart, trace[1].serviceStart);
    EXPECT_LE(trace[1].serviceStart, trace[2].serviceStart);
    // Details carry the mechanism decomposition.
    EXPECT_GT(trace[1].detail.seekTicks, 0u);
    EXPECT_GT(trace[0].detail.mediaTicks, 0u);
}

TEST(DiskTrace, DisabledByDefault)
{
    Simulator sim;
    Disk disk(sim, DiskSpec::seagateSt39102());
    auto body = [&]() -> Coro<void> {
        co_await disk.access(DiskRequest{0, 8, false});
    };
    sim.spawn(body());
    sim.run(); // would crash on a dangling sink if tracing were on
    EXPECT_EQ(disk.stats().requests, 1u);
}

TEST(DiskTrace, TraceTimingConsistentWithStats)
{
    Simulator sim;
    Disk disk(sim, DiskSpec::seagateSt39102());
    std::vector<TraceRecord> trace;
    disk.traceTo(&trace);
    auto body = [&]() -> Coro<void> {
        for (int i = 0; i < 10; ++i) {
            co_await disk.access(DiskRequest{
                static_cast<std::uint64_t>(i) * 100000, 16, false});
        }
    };
    sim.spawn(body());
    sim.run();
    Tick busy = 0;
    for (const auto &rec : trace)
        busy += rec.detail.serviceTicks();
    EXPECT_EQ(busy, disk.stats().busyTicks);
}

/** @file Misconfiguration must fail loudly at construction. */

#include <gtest/gtest.h>

#include "bus/bus.hh"
#include "disk/disk.hh"
#include "disk/geometry.hh"
#include "net/network.hh"
#include "sim/simulator.hh"

using namespace howsim;
using namespace howsim::sim;

TEST(BusDeath, ZeroChannelsPanics)
{
    EXPECT_DEATH(
        {
            Simulator sim;
            bus::BusParams p;
            p.channels = 0;
            bus::Bus bus(sim, p);
        },
        "channels");
}

TEST(BusDeath, NonPositiveRatePanics)
{
    EXPECT_DEATH(
        {
            Simulator sim;
            bus::BusParams p;
            p.channelRate = 0;
            bus::Bus bus(sim, p);
        },
        "channelRate");
}

TEST(NetDeath, ZeroFrameBytesPanics)
{
    // Every transport divides its bytes into frameBytes-sized frames.
    EXPECT_DEATH(
        {
            Simulator sim;
            net::NetParams p;
            p.frameBytes = 0;
            net::Network net(sim, 2, p);
        },
        "frameBytes");
}

TEST(DiskDeath, ZeroLengthRequestPanics)
{
    EXPECT_DEATH(
        {
            Simulator sim;
            disk::Disk d(sim, disk::DiskSpec::seagateSt39102());
            auto body = [&]() -> Coro<void> {
                co_await d.access(disk::DiskRequest{0, 0, false});
            };
            sim.spawn(body());
            sim.run();
        },
        "zero-length");
}

TEST(DiskDeath, BeyondCapacityPanics)
{
    EXPECT_DEATH(
        {
            Simulator sim;
            disk::Disk d(sim, disk::DiskSpec::seagateSt39102());
            auto body = [&]() -> Coro<void> {
                co_await d.access(disk::DiskRequest{
                    d.geometry().totalSectors(), 8, false});
            };
            sim.spawn(body());
            sim.run();
        },
        "capacity");
}

TEST(GeometryDeath, EmptyZoneTablePanics)
{
    EXPECT_DEATH(
        {
            disk::DiskSpec spec;
            spec.name = "empty";
            disk::Geometry g(spec);
        },
        "zones");
}

TEST(GeometryDeath, LocateBeyondEndPanics)
{
    disk::DiskSpec spec = disk::DiskSpec::seagateSt39102();
    disk::Geometry g(spec);
    EXPECT_DEATH({ g.locate(g.totalSectors()); }, "beyond");
}

/** @file Behavioural tests for the disk drive entity. */

#include <gtest/gtest.h>

#include <vector>

#include "disk/disk.hh"
#include "sim/awaitables.hh"
#include "sim/random.hh"

using namespace howsim::disk;
using namespace howsim::sim;

namespace
{

constexpr std::uint32_t kSectorsPer256K = 256 * 1024 / 512;

/** Issue @p count back-to-back sequential reads and return seconds. */
double
sequentialRunSeconds(Disk &disk, Simulator &sim, int count, bool write)
{
    Tick start = sim.now();
    Tick finish = 0;
    auto body = [&]() -> Coro<void> {
        std::uint64_t lba = 0;
        for (int i = 0; i < count; ++i) {
            co_await disk.access(
                DiskRequest{lba, kSectorsPer256K, write});
            lba += kSectorsPer256K;
        }
        finish = Simulator::current()->now();
    };
    sim.spawn(body());
    sim.run();
    return toSeconds(finish - start);
}

} // namespace

TEST(Disk, SequentialReadApproachesMediaRate)
{
    Simulator sim;
    DiskSpec spec = DiskSpec::seagateSt39102();
    Disk disk(sim, spec);
    const int n = 64; // 16 MB in the outer (fastest) zone
    double secs = sequentialRunSeconds(disk, sim, n, false);
    double rate = n * 256.0 * 1024 / secs;
    // Streaming throughput should be within 25% of the outer-zone
    // media rate (first-request seek + per-request overheads).
    EXPECT_GT(rate, spec.maxMediaRate() * 0.75);
    EXPECT_LT(rate, spec.maxMediaRate() * 1.05);
}

TEST(Disk, SequentialWriteApproachesMediaRate)
{
    Simulator sim;
    DiskSpec spec = DiskSpec::seagateSt39102();
    Disk disk(sim, spec);
    const int n = 64;
    double secs = sequentialRunSeconds(disk, sim, n, true);
    double rate = n * 256.0 * 1024 / secs;
    EXPECT_GT(rate, spec.maxMediaRate() * 0.7);
    EXPECT_LT(rate, spec.maxMediaRate() * 1.05);
}

TEST(Disk, RandomReadsPaySeekAndRotation)
{
    Simulator sim;
    DiskSpec spec = DiskSpec::seagateSt39102();
    Disk disk(sim, spec);
    Rng rng(99);
    const int n = 200;
    Tick finish = 0;
    auto body = [&]() -> Coro<void> {
        for (int i = 0; i < n; ++i) {
            std::uint64_t lba = rng.below(disk.geometry().totalSectors()
                                          - 16);
            co_await disk.access(DiskRequest{lba, 16, false});
        }
        finish = Simulator::current()->now();
    };
    sim.spawn(body());
    sim.run();
    double ms_per_req = toMilliseconds(finish) / n;
    // Expect roughly avg seek (5.4) + half rotation (3) + overhead
    // (0.3) + transfer (~0.4): 8-11 ms.
    EXPECT_GT(ms_per_req, 6.0);
    EXPECT_LT(ms_per_req, 13.0);
    EXPECT_GT(disk.stats().seeks, static_cast<std::uint64_t>(n) * 8 / 10);
}

TEST(Disk, RandomAccessSlowerThanSequential)
{
    DiskSpec spec = DiskSpec::seagateSt39102();

    Simulator sim_seq;
    Disk seq_disk(sim_seq, spec);
    double seq_secs = sequentialRunSeconds(seq_disk, sim_seq, 32, false);

    Simulator sim_rnd;
    Disk rnd_disk(sim_rnd, spec);
    Rng rng(1);
    Tick finish = 0;
    auto body = [&]() -> Coro<void> {
        for (int i = 0; i < 32; ++i) {
            std::uint64_t lba = rng.below(
                rnd_disk.geometry().totalSectors() - kSectorsPer256K);
            co_await rnd_disk.access(
                DiskRequest{lba, kSectorsPer256K, false});
        }
        finish = Simulator::current()->now();
    };
    sim_rnd.spawn(body());
    sim_rnd.run();
    // With 256 KB requests the transfer itself dominates, so the
    // random-access penalty is bounded; still expect a clear gap.
    EXPECT_GT(toSeconds(finish), 1.5 * seq_secs);
}

TEST(Disk, ReadAheadServesRepeatConsumerPattern)
{
    // A consumer reading sequentially with small think time between
    // requests should still see near-media throughput because the
    // drive prefetches into its cache segment.
    Simulator sim;
    DiskSpec spec = DiskSpec::seagateSt39102();
    Disk disk(sim, spec);
    Tick finish = 0;
    const int n = 64;
    auto body = [&]() -> Coro<void> {
        std::uint64_t lba = 0;
        for (int i = 0; i < n; ++i) {
            co_await disk.access(DiskRequest{lba, kSectorsPer256K,
                                             false});
            lba += kSectorsPer256K;
            co_await delay(microseconds(500)); // host think time
        }
        finish = Simulator::current()->now();
    };
    sim.spawn(body());
    sim.run();
    double secs = toSeconds(finish) - n * 500e-6; // exclude think time
    double rate = n * 256.0 * 1024 / secs;
    EXPECT_GT(rate, spec.maxMediaRate() * 0.70);
    EXPECT_GT(disk.stats().cacheHitBytes, 0u);
}

TEST(Disk, InnerZoneSlowerThanOuterZone)
{
    DiskSpec spec = DiskSpec::seagateSt39102();

    auto run_at = [&](std::uint64_t start_lba) {
        Simulator sim;
        Disk disk(sim, spec);
        Tick begin = 0, end = 0;
        const int n = 32;
        auto body = [&]() -> Coro<void> {
            std::uint64_t lba = start_lba;
            // Position with one request, then time the stream.
            co_await disk.access(DiskRequest{lba, kSectorsPer256K,
                                             false});
            begin = Simulator::current()->now();
            for (int i = 1; i < n; ++i) {
                lba += kSectorsPer256K;
                co_await disk.access(DiskRequest{lba, kSectorsPer256K,
                                                 false});
            }
            end = Simulator::current()->now();
        };
        sim.spawn(body());
        sim.run();
        return toSeconds(end - begin);
    };

    double outer = run_at(0);
    double inner = run_at(spec.totalSectors() - 200 * kSectorsPer256K);
    // Datasheet rates: 21.3 vs 14.5 MB/s -> inner ~1.47x slower.
    EXPECT_GT(inner / outer, 1.25);
    EXPECT_LT(inner / outer, 1.7);
}

TEST(Disk, StatsAccountBytes)
{
    Simulator sim;
    Disk disk(sim, DiskSpec::seagateSt39102());
    auto body = [&]() -> Coro<void> {
        co_await disk.access(DiskRequest{0, 100, false});
        co_await disk.access(DiskRequest{1000, 50, true});
    };
    sim.spawn(body());
    sim.run();
    EXPECT_EQ(disk.stats().requests, 2u);
    EXPECT_EQ(disk.stats().bytesRead, 100u * 512);
    EXPECT_EQ(disk.stats().bytesWritten, 50u * 512);
}

TEST(Disk, QueueTimeAccountedUnderLoad)
{
    Simulator sim;
    Disk disk(sim, DiskSpec::seagateSt39102());
    auto issue = [&](std::uint64_t lba) -> Coro<void> {
        co_await disk.access(DiskRequest{lba, 128, false});
    };
    std::vector<ProcessRef> procs;
    for (int i = 0; i < 8; ++i)
        procs.push_back(sim.spawn(issue(
            static_cast<std::uint64_t>(i) * 500000)));
    sim.run();
    EXPECT_GT(disk.stats().queueTicks, 0u);
}

TEST(Disk, DetailComponentsSumToService)
{
    Simulator sim;
    Disk disk(sim, DiskSpec::seagateSt39102());
    AccessDetail got;
    auto body = [&]() -> Coro<void> {
        got = co_await disk.access(DiskRequest{123456, 64, false});
    };
    sim.spawn(body());
    sim.run();
    EXPECT_EQ(got.serviceTicks(), got.overheadTicks + got.seekTicks
                                      + got.rotationTicks
                                      + got.mediaTicks);
    EXPECT_GT(got.mediaTicks, 0u);
    EXPECT_EQ(got.totalTicks(), got.queueTicks + got.serviceTicks());
}

TEST(Disk, DrivesOfOneSpecShareASeekTable)
{
    Simulator sim;
    Disk a(sim, DiskSpec::seagateSt39102(), "a");
    Disk b(sim, DiskSpec::seagateSt39102(), "b");
    EXPECT_EQ(&a.seekCurve(), &b.seekCurve());

    DiskSpec slower = DiskSpec::seagateSt39102();
    slower.avgSeekMs += 1.0;
    Disk c(sim, slower, "c");
    EXPECT_NE(&c.seekCurve(), &a.seekCurve());
    std::uint32_t far = a.geometry().diskSpec().totalCylinders() / 3;
    EXPECT_GT(c.seekCurve().seekTicks(far), a.seekCurve().seekTicks(far));

    Disk other(sim, DiskSpec::hitachiDk3e1t91(), "d");
    EXPECT_NE(&other.seekCurve(), &a.seekCurve());
}

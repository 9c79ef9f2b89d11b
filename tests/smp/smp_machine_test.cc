/** @file Tests for the SMP substrate. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "smp/smp_machine.hh"
#include "sim/simulator.hh"

using namespace howsim;
using namespace howsim::smp;
using namespace howsim::sim;

TEST(SmpParams, MemoryScalesWithBoards)
{
    SmpParams p;
    // 64 processors -> 32 boards -> 4 GB; 128 -> 8 GB (paper).
    EXPECT_EQ(p.totalMemory(64), 4ull << 30);
    EXPECT_EQ(p.totalMemory(128), 8ull << 30);
}

TEST(SmpMachine, StripedReadUsesAllDisks)
{
    Simulator sim;
    SmpMachine smp(sim, 4, 4, disk::DiskSpec::seagateSt39102());
    auto body = [&]() -> Coro<void> {
        // 256 KB = one 64 KB chunk from each of 4 drives.
        co_await smp.io(smp.allDisks(), 0, 256 * 1024, false);
    };
    sim.spawn(body());
    sim.run();
    for (int d = 0; d < 4; ++d)
        EXPECT_EQ(smp.driveMech(d).stats().bytesRead, 64u * 1024);
    EXPECT_EQ(smp.fcBus().stats().bytes, 256u * 1024);
    EXPECT_EQ(smp.xioBus().stats().bytes, 256u * 1024);
}

TEST(SmpMachine, ReadTouchesFourDisksFor256K)
{
    // The paper's pattern: one 256 KB request = 64 KB from each of
    // four consecutive drives; the rest of an 8-drive stripe is idle.
    Simulator sim;
    SmpMachine smp(sim, 4, 8, disk::DiskSpec::seagateSt39102());
    auto body = [&]() -> Coro<void> {
        co_await smp.io(smp.allDisks(), 0, 256 * 1024, false);
    };
    sim.spawn(body());
    sim.run();
    for (int d = 0; d < 4; ++d)
        EXPECT_EQ(smp.driveMech(d).stats().bytesRead, 64u * 1024);
    for (int d = 4; d < 8; ++d)
        EXPECT_EQ(smp.driveMech(d).stats().bytesRead, 0u);
}

TEST(SmpMachine, DiskGroupsIsolateDrives)
{
    Simulator sim;
    SmpMachine smp(sim, 4, 8, disk::DiskSpec::seagateSt39102());
    auto body = [&]() -> Coro<void> {
        co_await smp.io(DiskGroup{4, 4}, 0, 512 * 1024, true);
    };
    sim.spawn(body());
    sim.run();
    for (int d = 0; d < 4; ++d)
        EXPECT_EQ(smp.driveMech(d).stats().bytesWritten, 0u);
    for (int d = 4; d < 8; ++d)
        EXPECT_EQ(smp.driveMech(d).stats().bytesWritten, 128u * 1024);
}

TEST(SmpMachine, StripeChunksRoundRobinOverTheGroup)
{
    // Logical chunk c of a group lands on member c % diskCount.
    Simulator sim;
    SmpMachine smp(sim, 2, 6, disk::DiskSpec::seagateSt39102());
    const DiskGroup group{2, 3};
    const std::uint64_t chunk = smp.params().stripeChunkBytes;
    std::vector<std::vector<std::uint64_t>> read_after;
    auto body = [&]() -> Coro<void> {
        for (std::uint64_t c = 0; c < 6; ++c) {
            co_await smp.io(group, c * chunk, chunk, false);
            std::vector<std::uint64_t> bytes;
            for (int d = 0; d < smp.diskCount(); ++d)
                bytes.push_back(smp.driveMech(d).stats().bytesRead);
            read_after.push_back(bytes);
        }
    };
    sim.spawn(body());
    sim.run();
    ASSERT_EQ(read_after.size(), 6u);
    std::vector<std::uint64_t> expect(6, 0);
    for (std::size_t c = 0; c < 6; ++c) {
        expect[2 + c % 3] += chunk;
        EXPECT_EQ(read_after[c], expect) << "after chunk " << c;
    }
}

TEST(SmpMachine, WriteFromMidStripeSpreadsEvenly)
{
    // Eight chunks starting at chunk 3 wrap the 4-drive stripe twice:
    // every drive takes two chunks.
    Simulator sim;
    SmpMachine smp(sim, 4, 4, disk::DiskSpec::seagateSt39102());
    const std::uint64_t chunk = smp.params().stripeChunkBytes;
    auto body = [&]() -> Coro<void> {
        co_await smp.io(smp.allDisks(), 3 * chunk, 8 * chunk, true);
    };
    sim.spawn(body());
    sim.run();
    for (int d = 0; d < 4; ++d)
        EXPECT_EQ(smp.driveMech(d).stats().bytesWritten, 2 * chunk);
    EXPECT_EQ(smp.fcBus().stats().bytes, 8 * chunk);
}

TEST(SmpMachine, UnalignedRangeStaysWithinBytes)
{
    Simulator sim;
    SmpMachine smp(sim, 2, 2, disk::DiskSpec::seagateSt39102());
    auto body = [&]() -> Coro<void> {
        // 100 KB starting mid-chunk spans chunks 0 and 1 unevenly.
        co_await smp.io(smp.allDisks(), 32 * 1024, 100 * 1024, false);
    };
    sim.spawn(body());
    sim.run();
    std::uint64_t total = smp.driveMech(0).stats().bytesRead
                          + smp.driveMech(1).stats().bytesRead;
    // Sector rounding can add at most one sector per chunk; the
    // interconnects carry the exact range.
    EXPECT_GE(total, 100u * 1024);
    EXPECT_LE(total, 100u * 1024 + 3 * 512);
    EXPECT_EQ(smp.fcBus().stats().bytes, 100u * 1024);
    EXPECT_EQ(smp.xioBus().stats().bytes, 100u * 1024);
}

TEST(SmpMachine, StripingBeatsOneDrive)
{
    auto readMegabyte = [](int ndisks) {
        Simulator sim;
        SmpMachine smp(sim, 1, ndisks, disk::DiskSpec::seagateSt39102());
        Tick done = 0;
        auto body = [&]() -> Coro<void> {
            co_await smp.io(smp.allDisks(), 0, 1024 * 1024, false);
            done = Simulator::current()->now();
        };
        sim.spawn(body());
        sim.run();
        return done;
    };
    EXPECT_LT(toSeconds(readMegabyte(4)), toSeconds(readMegabyte(1)) / 2.0);
}

TEST(SmpMachine, SharedFcLimitsAggregateBandwidth)
{
    // 16 drives can stream ~18 MB/s each from media, but the shared
    // 200 MB/s FC caps the aggregate.
    Simulator sim;
    SmpMachine smp(sim, 16, 16, disk::DiskSpec::seagateSt39102());
    Tick done = 0;
    int active = 0;
    const std::uint64_t per_proc = 16ull << 20;
    auto body = [&](int p) -> Coro<void> {
        // Each processor streams its own 16 MB slice in requests
        // large enough to amortize seeks, so the shared FC binds.
        for (std::uint64_t off = 0; off < per_proc; off += 4 << 20) {
            co_await smp.io(smp.allDisks(),
                            static_cast<std::uint64_t>(p) * per_proc
                                + off,
                            4 << 20, false);
        }
        if (--active == 0)
            done = Simulator::current()->now();
    };
    for (int p = 0; p < 16; ++p) {
        ++active;
        sim.spawn(body(p));
    }
    sim.run();
    double rate = 16.0 * per_proc / toSeconds(done);
    EXPECT_LT(rate, 205e6);
    EXPECT_GT(rate, 150e6);
}

TEST(SmpMachine, BlockTransferFreeOnSameBoard)
{
    Simulator sim;
    SmpMachine smp(sim, 4, 2, disk::DiskSpec::seagateSt39102());
    Tick done = maxTick;
    auto body = [&]() -> Coro<void> {
        co_await smp.blockTransfer(0, 1, 1 << 20); // cpus 0,1: board 0
        done = Simulator::current()->now();
    };
    sim.spawn(body());
    sim.run();
    EXPECT_EQ(done, 0u);
}

TEST(SmpMachine, CrossBoardTransferChargedAtBteRate)
{
    Simulator sim;
    SmpMachine smp(sim, 4, 2, disk::DiskSpec::seagateSt39102());
    Tick done = 0;
    auto body = [&]() -> Coro<void> {
        co_await smp.blockTransfer(0, 2, 100 << 20); // boards 0 -> 1
        done = Simulator::current()->now();
    };
    sim.spawn(body());
    sim.run();
    // Staged: link (780 MB/s) twice + BTE (521 MB/s). Sequential
    // stages bound the time between BTE-only and the stage sum.
    double secs = toSeconds(done);
    double mb = 100.0 * (1 << 20) / 1e6;
    EXPECT_GT(secs, mb / 521.0);
    EXPECT_LT(secs, mb / 521.0 + 2 * mb / 780.0 + 0.01);
}

TEST(SmpMachine, BarrierReleasesAllCpusTogether)
{
    Simulator sim;
    SmpMachine smp(sim, 8, 2, disk::DiskSpec::seagateSt39102());
    std::vector<Tick> times;
    auto body = [&](int p) -> Coro<void> {
        co_await delay(static_cast<Tick>(p) * 500);
        co_await smp.barrier();
        times.push_back(Simulator::current()->now());
    };
    for (int p = 0; p < 8; ++p)
        sim.spawn(body(p));
    sim.run();
    ASSERT_EQ(times.size(), 8u);
    for (Tick t : times)
        EXPECT_EQ(t, times.front());
}

TEST(SmpMachine, SharedQueueHandsOutEachIndexOnce)
{
    Simulator sim;
    SmpMachine smp(sim, 4, 2, disk::DiskSpec::seagateSt39102());
    SmpMachine::SharedQueue queue(smp, 100);
    std::multiset<std::int64_t> claimed;
    auto body = [&]() -> Coro<void> {
        for (;;) {
            std::int64_t idx = co_await queue.next();
            if (idx < 0)
                break;
            claimed.insert(idx);
        }
    };
    for (int p = 0; p < 4; ++p)
        sim.spawn(body());
    sim.run();
    EXPECT_EQ(claimed.size(), 100u);
    // No duplicates: multiset == set of 0..99.
    std::int64_t expect = 0;
    for (auto v : claimed)
        EXPECT_EQ(v, expect++);
}

TEST(SmpMachine, SharedQueueSerializesClaims)
{
    Simulator sim;
    SmpMachine smp(sim, 2, 2, disk::DiskSpec::seagateSt39102());
    SmpMachine::SharedQueue queue(smp, 10);
    Tick done = 0;
    auto body = [&]() -> Coro<void> {
        while ((co_await queue.next()) >= 0) {
        }
        done = Simulator::current()->now();
    };
    sim.spawn(body());
    sim.run();
    // 10 claims + 1 miss, each costing lock + fabric ops (3 us each).
    EXPECT_GE(done, 11u * microseconds(3));
}

TEST(SmpMachine, CpuComputeScalesFrom250Mhz)
{
    Simulator sim;
    SmpMachine smp(sim, 2, 2, disk::DiskSpec::seagateSt39102());
    Tick done = 0;
    auto body = [&]() -> Coro<void> {
        co_await smp.cpu(0).compute(milliseconds(100));
        done = Simulator::current()->now();
    };
    sim.spawn(body());
    sim.run();
    EXPECT_NEAR(toMilliseconds(done), 100.0 * 275.0 / 250.0, 0.5);
}

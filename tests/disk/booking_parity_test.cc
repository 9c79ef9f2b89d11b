/**
 * @file
 * Differential test of the booked drive against the event-driven FCFS
 * reference (reference_disk.hh): seeded random arrival streams, with
 * bursts at one tick, idle spells, sequential reads that hit the
 * read-ahead segment and back-to-back writes that coalesce, under no
 * fault plan and under fail-slow and media-error plans. Every request
 * must see the same AccessDetail and finish tick on both drives, and
 * both must end with the same DiskStats.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "disk/disk.hh"
#include "fault/fault.hh"
#include "reference_disk.hh"
#include "sim/awaitables.hh"
#include "sim/random.hh"

using namespace howsim;
using namespace howsim::sim;
using disk::AccessDetail;
using disk::DiskRequest;
using disk::DiskSpec;
using disk::DiskStats;

namespace
{

struct Arrival
{
    Tick at = 0;
    DiskRequest req;
};

struct Served
{
    AccessDetail detail;
    Tick done = 0;
};

/**
 * @p n arrivals in runs of one kind (sequential reads, sequential
 * writes or random requests), spaced by no gap, a short one, a few
 * milliseconds or an idle spell.
 */
std::vector<Arrival>
arrivalStream(std::uint64_t seed, std::uint64_t totalSectors, int n)
{
    Rng rng(seed);
    std::vector<Arrival> out;
    Tick t = 0;
    std::uint64_t readNext = rng.below(totalSectors / 2);
    std::uint64_t writeNext = totalSectors / 2 + rng.below(totalSectors / 4);
    while (static_cast<int>(out.size()) < n) {
        std::uint64_t kind = rng.below(3);
        int run = 2 + static_cast<int>(rng.below(8));
        for (int k = 0; k < run && static_cast<int>(out.size()) < n; ++k) {
            switch (rng.below(8)) {
              case 0:
              case 1:
                break;
              case 2:
              case 3:
              case 4:
                t += rng.below(microseconds(500));
                break;
              case 5:
              case 6:
                t += rng.below(milliseconds(8));
                break;
              default:
                t += milliseconds(20) + rng.below(milliseconds(80));
                break;
            }
            auto sectors = static_cast<std::uint32_t>(8 + rng.below(120));
            DiskRequest req;
            if (kind == 0) {
                req = DiskRequest{readNext, sectors, false};
                readNext += sectors;
            } else if (kind == 1) {
                req = DiskRequest{writeNext, sectors, true};
                writeNext += sectors;
            } else {
                req = DiskRequest{rng.below(totalSectors - sectors),
                                  sectors, rng.chance(0.5)};
            }
            out.push_back(Arrival{t, req});
        }
    }
    return out;
}

/** Issue every arrival on @p drive at its tick; return what each saw. */
template <typename Drive>
std::vector<Served>
serve(Simulator &sim, Drive &drive, const std::vector<Arrival> &arrivals)
{
    std::vector<Served> out(arrivals.size());
    auto issue = [&](std::size_t i) -> Coro<void> {
        co_await delay(arrivals[i].at);
        out[i].detail = co_await drive.access(arrivals[i].req);
        out[i].done = Simulator::current()->now();
    };
    for (std::size_t i = 0; i < arrivals.size(); ++i)
        sim.spawn(issue(i));
    sim.run();
    return out;
}

void
expectSameStats(const DiskStats &got, const DiskStats &want)
{
    EXPECT_EQ(got.requests, want.requests);
    EXPECT_EQ(got.seeks, want.seeks);
    EXPECT_EQ(got.bytesRead, want.bytesRead);
    EXPECT_EQ(got.bytesWritten, want.bytesWritten);
    EXPECT_EQ(got.cacheHitBytes, want.cacheHitBytes);
    EXPECT_EQ(got.busyTicks, want.busyTicks);
    EXPECT_EQ(got.seekTicks, want.seekTicks);
    EXPECT_EQ(got.rotationTicks, want.rotationTicks);
    EXPECT_EQ(got.mediaTicks, want.mediaTicks);
    EXPECT_EQ(got.queueTicks, want.queueTicks);
}

/** What a stream exercised, so a passing run is not a vacuous one. */
struct Coverage
{
    int sharedTicks = 0;
    int idleStarts = 0;
    int queued = 0;
    int cacheHits = 0;
    int coalescedWrites = 0;
    int faulted = 0;
};

/**
 * Run @p seed's stream through both drives under @p faults; check
 * them request by request and add what the stream covered to @p cov.
 */
void
compareDrives(std::uint64_t seed, const std::string &faults, Coverage &cov)
{
    SCOPED_TRACE("seed " + std::to_string(seed) + ", faults '" + faults
                 + "'");
    fault::Scope scope(fault::FaultPlan::parse(faults));
    const DiskSpec spec = DiskSpec::seagateSt39102();
    const std::vector<Arrival> arrivals =
        arrivalStream(seed, disk::Geometry(spec).totalSectors(), 400);

    Simulator bookedSim;
    disk::Disk booked(bookedSim, spec, "drive");
    std::vector<Served> got = serve(bookedSim, booked, arrivals);

    Simulator referenceSim;
    reference::Disk ref(referenceSim, spec, "drive");
    std::vector<Served> want = serve(referenceSim, ref, arrivals);

    ASSERT_EQ(got.size(), want.size());
    Tick busyUntil = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        const AccessDetail &g = got[i].detail;
        const AccessDetail &w = want[i].detail;
        EXPECT_EQ(g.queueTicks, w.queueTicks);
        EXPECT_EQ(g.overheadTicks, w.overheadTicks);
        EXPECT_EQ(g.seekTicks, w.seekTicks);
        EXPECT_EQ(g.rotationTicks, w.rotationTicks);
        EXPECT_EQ(g.mediaTicks, w.mediaTicks);
        EXPECT_EQ(g.faultTicks, w.faultTicks);
        EXPECT_EQ(g.retries, w.retries);
        EXPECT_EQ(g.cacheHitBytes, w.cacheHitBytes);
        EXPECT_EQ(got[i].done, want[i].done);

        if (i > 0 && arrivals[i].at == arrivals[i - 1].at)
            ++cov.sharedTicks;
        if (arrivals[i].at > busyUntil)
            ++cov.idleStarts;
        busyUntil = want[i].done;
        cov.queued += w.queueTicks > 0;
        cov.cacheHits += w.cacheHitBytes > 0;
        cov.coalescedWrites += arrivals[i].req.write && w.seekTicks == 0
                               && w.rotationTicks == 0;
        cov.faulted += w.faultTicks > 0;
    }
    expectSameStats(booked.stats(), ref.stats());
}

} // namespace

TEST(DiskBooking, MatchesTheEventDrivenQueue)
{
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        compareDrives(seed, "", cov);
    EXPECT_GT(cov.sharedTicks, 0);
    EXPECT_GT(cov.idleStarts, 0);
    EXPECT_GT(cov.queued, 0);
    EXPECT_GT(cov.cacheHits, 0);
    EXPECT_GT(cov.coalescedWrites, 0);
    EXPECT_EQ(cov.faulted, 0);
}

TEST(DiskBooking, MatchesTheEventDrivenQueueUnderDiskFaults)
{
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        compareDrives(seed, "seed=7,disk.media.rate=0.1,disk.remap.rate=0.05",
                      cov);
        compareDrives(seed, "seed=9,disk.slow.frac=1,disk.slow.factor=2.5",
                      cov);
        compareDrives(seed,
                      "seed=11,disk.slow.frac=1,disk.slow.factor=1.5,"
                      "disk.media.rate=0.05,disk.media.retries=5",
                      cov);
    }
    EXPECT_GT(cov.queued, 0);
    EXPECT_GT(cov.cacheHits, 0);
    EXPECT_GT(cov.faulted, 0);
}

TEST(DiskBookingDeathTest, OutOfOrderArrivalPanics)
{
    EXPECT_DEATH(
        {
            Simulator sim;
            disk::Disk d(sim, DiskSpec::seagateSt39102(), "drive");
            d.book(DiskRequest{0, 8, false}, 1000);
            d.book(DiskRequest{8, 8, false}, 999);
        },
        "drive: arrival at tick 999 booked after one at tick 1000");
}

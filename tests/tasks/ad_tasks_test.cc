/** @file Integration tests for the Active Disk task suite. */

#include <gtest/gtest.h>

#include "diskos/active_disk_array.hh"
#include "sim/simulator.hh"
#include "tasks/task_runner.hh"
#include "workload/dataset.hh"

using namespace howsim;
using workload::DatasetSpec;
using workload::TaskKind;

namespace
{

tasks::TaskResult
runAd(TaskKind kind, int ndisks, diskos::AdParams params = {})
{
    sim::Simulator simulator;
    diskos::ActiveDiskArray machine(simulator, ndisks,
                                    disk::DiskSpec::seagateSt39102(),
                                    params);
    tasks::TaskRunner runner(simulator, machine);
    return runner.run(kind, DatasetSpec::forTask(kind));
}

} // namespace

TEST(AdTasks, AllTasksRunToCompletion)
{
    for (auto kind : workload::allTasks) {
        auto result = runAd(kind, 8);
        EXPECT_GT(result.seconds(), 1.0) << workload::taskName(kind);
        EXPECT_LT(result.seconds(), 5000.0)
            << workload::taskName(kind);
    }
}

TEST(AdTasks, SelectShipsOnlySelectedTuples)
{
    auto result = runAd(TaskKind::Select, 8);
    auto data = DatasetSpec::forTask(TaskKind::Select);
    double expected = static_cast<double>(data.inputBytes)
                      * data.selectivity;
    // Interconnect traffic = selected tuples + done markers.
    EXPECT_GT(static_cast<double>(result.interconnectBytes),
              expected * 0.95);
    EXPECT_LT(static_cast<double>(result.interconnectBytes),
              expected * 1.10);
}

TEST(AdTasks, AggregateShipsAlmostNothing)
{
    auto result = runAd(TaskKind::Aggregate, 8);
    EXPECT_LT(result.interconnectBytes, 1u << 20);
}

TEST(AdTasks, SortShufflesWholeDatasetOnce)
{
    auto result = runAd(TaskKind::Sort, 8);
    auto data = DatasetSpec::forTask(TaskKind::Sort);
    // (n-1)/n of the dataset crosses the interconnect exactly once.
    double expected = static_cast<double>(data.inputBytes) * 7 / 8;
    EXPECT_GT(static_cast<double>(result.interconnectBytes),
              expected * 0.95);
    EXPECT_LT(static_cast<double>(result.interconnectBytes),
              expected * 1.05);
}

TEST(AdTasks, SortRecordsPhaseBreakdown)
{
    auto result = runAd(TaskKind::Sort, 8);
    EXPECT_GT(result.buckets.get("p1.elapsed"), 0.0);
    EXPECT_GT(result.buckets.get("p2.elapsed"), 0.0);
    EXPECT_GT(result.buckets.get("p1.partitioner"), 0.0);
    EXPECT_GT(result.buckets.get("p1.append"), 0.0);
    EXPECT_GT(result.buckets.get("p1.sort"), 0.0);
    EXPECT_GT(result.buckets.get("p2.merge"), 0.0);
    // The sort phase dominates (paper, Figure 3a).
    EXPECT_GT(result.buckets.get("p1.elapsed"),
              result.buckets.get("p2.elapsed"));
}

TEST(AdTasks, ScanTasksScaleWithDisks)
{
    double t8 = runAd(TaskKind::Select, 8).seconds();
    double t16 = runAd(TaskKind::Select, 16).seconds();
    EXPECT_NEAR(t8 / t16, 2.0, 0.3);
}

TEST(AdTasks, RestrictedCommunicationSlowsShuffleTasks)
{
    // Figure 5's smallest configuration: at 32 disks the front-end
    // relay already slows sort visibly (at 8 disks the per-disk
    // compute hides it, consistent with the paper starting at 32).
    diskos::AdParams restricted;
    restricted.directD2d = false;
    double direct = runAd(TaskKind::Sort, 32).seconds();
    double via_fe = runAd(TaskKind::Sort, 32, restricted).seconds();
    EXPECT_GT(via_fe / direct, 1.5);

    double d_sel = runAd(TaskKind::Select, 8).seconds();
    double r_sel = runAd(TaskKind::Select, 8, restricted).seconds();
    EXPECT_NEAR(r_sel / d_sel, 1.0, 0.02);
}

TEST(AdTasks, MoreMemoryHelpsDatacubeAtSmallScale)
{
    // The paper's Figure 4 anchor: ~35% improvement at 16 disks.
    diskos::AdParams mem64;
    mem64.memoryBytes = 64ull << 20;
    double t32 = runAd(TaskKind::Datacube, 16).seconds();
    double t64 = runAd(TaskKind::Datacube, 16, mem64).seconds();
    double improvement = (t32 - t64) / t32;
    EXPECT_GT(improvement, 0.20);
    EXPECT_LT(improvement, 0.50);
}

TEST(AdTasks, MemoryInsensitiveTasksUnaffected)
{
    diskos::AdParams mem64;
    mem64.memoryBytes = 64ull << 20;
    for (auto kind : {TaskKind::Aggregate, TaskKind::Dmine}) {
        double t32 = runAd(kind, 8).seconds();
        double t64 = runAd(kind, 8, mem64).seconds();
        EXPECT_NEAR(t64 / t32, 1.0, 0.02) << workload::taskName(kind);
    }
}

TEST(AdTasks, FasterInterconnectHelpsShuffleOnly)
{
    diskos::AdParams fast;
    fast.interconnectRate = 400e6;
    double sort200 = runAd(TaskKind::Sort, 16).seconds();
    double sort400 = runAd(TaskKind::Sort, 16, fast).seconds();
    EXPECT_LT(sort400, sort200);

    double sel200 = runAd(TaskKind::Select, 16).seconds();
    double sel400 = runAd(TaskKind::Select, 16, fast).seconds();
    EXPECT_NEAR(sel400 / sel200, 1.0, 0.05);
}

TEST(AdTasks, FrontendClockMattersWhenRestricted)
{
    diskos::AdParams slow_fe;
    slow_fe.directD2d = false;
    diskos::AdParams fast_fe = slow_fe;
    fast_fe.frontendCpuMhz = 1000;
    double slow = runAd(TaskKind::Sort, 8, slow_fe).seconds();
    double fast = runAd(TaskKind::Sort, 8, fast_fe).seconds();
    EXPECT_LT(fast, slow);
}

TEST(AdTasks, MviewAppliesPerRelationTupleCount)
{
    // Delta and semi-join rows are separate relations, each floored
    // per drive: at 5 drives that is 20,132,658 tuples per drive, one
    // fewer than flooring their sum.
    sim::Simulator simulator;
    diskos::ActiveDiskArray machine(simulator, 5,
                                    disk::DiskSpec::seagateSt39102());
    tasks::TaskRunner runner(simulator, machine);
    auto result = runner.run(TaskKind::Mview,
                             DatasetSpec::forTask(TaskKind::Mview));
    const auto cm = workload::CostModel::calibrated();
    double expected = 0.0;
    for (int d = 0; d < 5; ++d) {
        expected += sim::toSeconds(
            machine.cpu(d).scaled(20'132'658 * cm.mviewDeltaApply));
    }
    EXPECT_EQ(result.buckets.get("p3.apply"), expected);
}

/** @file Integration tests for the cluster task suite. */

#include <gtest/gtest.h>

#include "arch/cluster_machine.hh"
#include "sim/simulator.hh"
#include "tasks/task_runner.hh"
#include "workload/dataset.hh"

using namespace howsim;
using workload::DatasetSpec;
using workload::TaskKind;

namespace
{

tasks::TaskResult
runCluster(TaskKind kind, int nnodes)
{
    sim::Simulator simulator;
    arch::ClusterMachine machine(simulator, nnodes,
                                 disk::DiskSpec::seagateSt39102());
    tasks::TaskRunner runner(simulator, machine);
    return runner.run(kind, DatasetSpec::forTask(kind));
}

} // namespace

TEST(ClusterTasks, AllTasksRunToCompletion)
{
    for (auto kind : workload::allTasks) {
        auto result = runCluster(kind, 8);
        EXPECT_GT(result.seconds(), 1.0) << workload::taskName(kind);
        EXPECT_LT(result.seconds(), 5000.0)
            << workload::taskName(kind);
    }
}

TEST(ClusterTasks, SelectFabricTrafficIsSelectedTuples)
{
    auto result = runCluster(TaskKind::Select, 8);
    auto data = DatasetSpec::forTask(TaskKind::Select);
    double expected = static_cast<double>(data.inputBytes)
                      * data.selectivity;
    EXPECT_GT(static_cast<double>(result.interconnectBytes),
              expected * 0.95);
    EXPECT_LT(static_cast<double>(result.interconnectBytes),
              expected * 1.10);
}

TEST(ClusterTasks, GroupByIsFrontendBound)
{
    // The paper: group-by on clusters is limited by end-point
    // congestion at the front-end's 100 Mb/s link, so it stops
    // scaling with node count while select keeps improving.
    double g16 = runCluster(TaskKind::GroupBy, 16).seconds();
    double g32 = runCluster(TaskKind::GroupBy, 32).seconds();
    EXPECT_NEAR(g32 / g16, 1.0, 0.15);

    double s16 = runCluster(TaskKind::Select, 16).seconds();
    double s32 = runCluster(TaskKind::Select, 32).seconds();
    EXPECT_LT(s32 / s16, 0.65);
}

TEST(ClusterTasks, SortShufflesOverTheFabric)
{
    auto result = runCluster(TaskKind::Sort, 8);
    auto data = DatasetSpec::forTask(TaskKind::Sort);
    double shuffled = static_cast<double>(data.inputBytes) * 7 / 8;
    EXPECT_GT(static_cast<double>(result.interconnectBytes),
              shuffled * 0.95);
    // Allow done markers, reductions and result delivery on top.
    EXPECT_LT(static_cast<double>(result.interconnectBytes),
              shuffled * 1.15);
}

TEST(ClusterTasks, DmineCountersAvoidFrontendLink)
{
    // Tree reduction keeps the counter exchange off the front-end
    // link: doubling nodes must not slow the task down.
    double t8 = runCluster(TaskKind::Dmine, 8).seconds();
    double t16 = runCluster(TaskKind::Dmine, 16).seconds();
    EXPECT_LT(t16, t8);
}

TEST(ClusterTasks, ScanScalesWithNodes)
{
    double t8 = runCluster(TaskKind::Aggregate, 8).seconds();
    double t16 = runCluster(TaskKind::Aggregate, 16).seconds();
    EXPECT_NEAR(t8 / t16, 2.0, 0.3);
}

TEST(ClusterTasks, MviewAppliesPerRelationTupleCount)
{
    // The same per-relation tuple count as on Active Disks: at 5
    // nodes, 20,132,658 tuples per node.
    sim::Simulator simulator;
    arch::ClusterMachine machine(simulator, 5,
                                 disk::DiskSpec::seagateSt39102());
    tasks::TaskRunner runner(simulator, machine);
    auto result = runner.run(TaskKind::Mview,
                             DatasetSpec::forTask(TaskKind::Mview));
    const auto cm = workload::CostModel::calibrated();
    double expected = 0.0;
    for (int n = 0; n < 5; ++n) {
        expected += sim::toSeconds(
            machine.cpu(n).scaled(20'132'658 * cm.mviewDeltaApply));
    }
    EXPECT_EQ(result.buckets.get("p3.apply"), expected);
}

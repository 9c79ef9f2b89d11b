/**
 * @file Re-entrant task runners: two interleaved runner instances on
 * ONE machine must produce, per query, exactly the outputs two
 * serial runs produce — output bytes equal byte-for-byte, CPU-work
 * buckets equal up to summation order. Contention may move time
 * around, but never results. Also pins down that the interleaved
 * timeline itself is reproducible.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "arch/cluster_machine.hh"
#include "disk/disk_spec.hh"
#include "diskos/active_disk_array.hh"
#include "sim/awaitables.hh"
#include "sim/simulator.hh"
#include "smp/smp_machine.hh"
#include "tasks/smp_tasks.hh"
#include "tasks/task_runner.hh"
#include "traffic/plan.hh"

using namespace howsim;
using workload::TaskKind;

namespace
{

constexpr int kDisks = 4;
constexpr double kShare = 0.5;

/** True for phase wall-clock buckets ("<phase>.elapsed"). */
bool
isElapsedBucket(const std::string &name)
{
    return name.size() >= 8
           && name.compare(name.size() - 8, 8, ".elapsed") == 0;
}

/**
 * Work buckets and output bytes must match; elapsed buckets are
 * timing and legitimately differ under contention.
 */
void
expectSameWork(const tasks::TaskResult &serial,
               const tasks::TaskResult &concurrent,
               const char *label)
{
    EXPECT_EQ(serial.outputBytes, concurrent.outputBytes) << label;
    for (const auto &[name, v] : serial.buckets.all()) {
        if (isElapsedBucket(name))
            continue;
        double got = concurrent.buckets.get(name);
        EXPECT_NEAR(got, v, 1e-9 * std::abs(v) + 1e-12)
            << label << " bucket " << name;
    }
    for (const auto &[name, v] : concurrent.buckets.all()) {
        if (!isElapsedBucket(name)) {
            EXPECT_TRUE(serial.buckets.all().contains(name))
                << label << " unexpected bucket " << name
                << " only in concurrent run";
        }
    }
}

/** Start @p body after @p at ticks of simulated time. */
template <typename Runner>
sim::Coro<void>
delayedQuery(sim::Tick at, Runner &runner, TaskKind kind,
             const workload::DatasetSpec &data)
{
    co_await sim::delay(at);
    co_await runner.runConcurrent(kind, data);
    runner.retireStream();
}

struct QueryOutcome
{
    tasks::TaskResult first;
    tasks::TaskResult second;
};

template <typename Machine, typename Runner, typename Build>
QueryOutcome
interleaved(TaskKind kind, const workload::DatasetSpec &data,
            Build build)
{
    sim::Simulator simulator;
    Machine machine = build(simulator);
    Runner r1(simulator, machine);
    Runner r2(simulator, machine);
    r1.setStream(1);
    r1.setMemoryShare(kShare);
    r2.setStream(2);
    r2.setMemoryShare(kShare);
    // The second query starts mid-flight of the first.
    simulator.spawnDetached(delayedQuery(0, r1, kind, data), "q1");
    simulator.spawnDetached(
        delayedQuery(sim::milliseconds(2), r2, kind, data), "q2");
    simulator.run();
    return {r1.lastResult(), r2.lastResult()};
}

template <typename Machine, typename Runner, typename Build>
tasks::TaskResult
serial(TaskKind kind, const workload::DatasetSpec &data, Build build)
{
    sim::Simulator simulator;
    Machine machine = build(simulator);
    Runner runner(simulator, machine);
    runner.setMemoryShare(kShare); // same planning memory as above
    return runner.run(kind, data);
}

auto
buildAd(sim::Simulator &s)
{
    return diskos::ActiveDiskArray(s, kDisks,
                                   disk::DiskSpec::seagateSt39102(),
                                   diskos::AdParams{});
}

auto
buildCluster(sim::Simulator &s)
{
    return arch::ClusterMachine(s, kDisks,
                                disk::DiskSpec::seagateSt39102(),
                                arch::ClusterParams{});
}

auto
buildSmp(sim::Simulator &s)
{
    return smp::SmpMachine(s, kDisks, kDisks,
                           disk::DiskSpec::seagateSt39102(),
                           smp::SmpParams{});
}

} // namespace

TEST(ReentrantRunners, AdInterleavedMatchesSerialPerQuery)
{
    for (TaskKind kind : {TaskKind::Select, TaskKind::GroupBy}) {
        auto data = traffic::scaledDataset(kind, 0.002);
        auto two = interleaved<diskos::ActiveDiskArray,
                               tasks::TaskRunner>(kind, data, buildAd);
        auto one = serial<diskos::ActiveDiskArray, tasks::TaskRunner>(
            kind, data, buildAd);
        expectSameWork(one, two.first, "ad first");
        expectSameWork(one, two.second, "ad second");
    }
}

TEST(ReentrantRunners, ClusterInterleavedMatchesSerialPerQuery)
{
    for (TaskKind kind : {TaskKind::Select, TaskKind::GroupBy}) {
        auto data = traffic::scaledDataset(kind, 0.002);
        auto two = interleaved<arch::ClusterMachine, tasks::TaskRunner>(
            kind, data, buildCluster);
        auto one = serial<arch::ClusterMachine, tasks::TaskRunner>(
            kind, data, buildCluster);
        expectSameWork(one, two.first, "cluster first");
        expectSameWork(one, two.second, "cluster second");
    }
}

TEST(ReentrantRunners, SmpInterleavedMatchesSerialPerQuery)
{
    // Scan family only: SMP sort's merge-bucket split depends on
    // which CPU claims which block, which contention legitimately
    // changes; scan outputs and aggregate work do not.
    auto data = traffic::scaledDataset(TaskKind::Select, 0.002);
    auto two = interleaved<smp::SmpMachine, tasks::SmpTaskRunner>(
        TaskKind::Select, data, buildSmp);
    auto one = serial<smp::SmpMachine, tasks::SmpTaskRunner>(
        TaskKind::Select, data, buildSmp);
    expectSameWork(one, two.first, "smp first");
    expectSameWork(one, two.second, "smp second");
}

TEST(ReentrantRunners, InterleavedTimelineIsReproducible)
{
    auto data = traffic::scaledDataset(TaskKind::Select, 0.002);
    auto a = interleaved<diskos::ActiveDiskArray, tasks::TaskRunner>(
        TaskKind::Select, data, buildAd);
    auto b = interleaved<diskos::ActiveDiskArray, tasks::TaskRunner>(
        TaskKind::Select, data, buildAd);
    EXPECT_EQ(a.first.elapsedTicks, b.first.elapsedTicks);
    EXPECT_EQ(a.second.elapsedTicks, b.second.elapsedTicks);
    // Contention is real: the interleaved queries overlap in time.
    EXPECT_GT(a.second.elapsedTicks, 0u);
}

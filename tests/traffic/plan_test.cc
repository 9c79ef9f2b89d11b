/**
 * @file TrafficPlan spec parsing: the grammar in DESIGN.md §15, the
 * defaults, canonical class ordering, and the fatal() contract on
 * malformed, out-of-range, or inconsistent values.
 */

#include <gtest/gtest.h>

#include "sim/ticks.hh"
#include "traffic/plan.hh"
#include "workload/task_kind.hh"

using namespace howsim;
using traffic::ArrivalKind;
using traffic::LoopMode;
using traffic::PolicyKind;
using traffic::TrafficPlan;
using workload::TaskKind;

TEST(TrafficPlan, OpenLoopDefaults)
{
    TrafficPlan plan
        = TrafficPlan::parse("rate=10,duration.ms=500");
    EXPECT_EQ(plan.seed, 1u);
    EXPECT_EQ(plan.loop, LoopMode::Open);
    EXPECT_EQ(plan.arrival, ArrivalKind::Poisson);
    EXPECT_DOUBLE_EQ(plan.ratePerSec, 10.0);
    EXPECT_EQ(plan.duration, sim::fromSeconds(0.5));
    EXPECT_EQ(plan.policy, PolicyKind::Fifo);
    EXPECT_EQ(plan.maxInflight, 4);
    EXPECT_EQ(plan.maxQueue, -1);
    ASSERT_EQ(plan.classes.size(), 1u);
    EXPECT_EQ(plan.classes[0].task, TaskKind::Select);
    EXPECT_DOUBLE_EQ(plan.classes[0].weight, 1.0);
    EXPECT_DOUBLE_EQ(plan.classes[0].cap, 1.0);
    EXPECT_DOUBLE_EQ(plan.classes[0].share, 1.0);
}

TEST(TrafficPlan, FullSpecRoundTrips)
{
    TrafficPlan plan = TrafficPlan::parse(
        "seed=42,loop=open,arrival=uniform,rate=25.5,"
        "duration.ms=1000,policy=fair,max.inflight=8,max.queue=16,"
        "mix.select=4,mix.join=1,cap.join=0.25,share.select=3");
    EXPECT_EQ(plan.seed, 42u);
    EXPECT_EQ(plan.arrival, ArrivalKind::Uniform);
    EXPECT_DOUBLE_EQ(plan.ratePerSec, 25.5);
    EXPECT_EQ(plan.policy, PolicyKind::Fair);
    EXPECT_EQ(plan.maxInflight, 8);
    EXPECT_EQ(plan.maxQueue, 16);
    ASSERT_EQ(plan.classes.size(), 2u);
    // Classes land in canonical task order regardless of key order.
    EXPECT_EQ(plan.classes[0].task, TaskKind::Select);
    EXPECT_DOUBLE_EQ(plan.classes[0].weight, 4.0);
    EXPECT_DOUBLE_EQ(plan.classes[0].share, 3.0);
    EXPECT_EQ(plan.classes[1].task, TaskKind::Join);
    EXPECT_DOUBLE_EQ(plan.classes[1].cap, 0.25);
    EXPECT_DOUBLE_EQ(plan.totalWeight(), 5.0);
}

TEST(TrafficPlan, ClosedLoopRoundTrips)
{
    TrafficPlan plan = TrafficPlan::parse(
        "loop=closed,clients=16,think.ms=50,duration.ms=2000");
    EXPECT_EQ(plan.loop, LoopMode::Closed);
    EXPECT_EQ(plan.clients, 16);
    EXPECT_EQ(plan.thinkMean, sim::fromSeconds(0.05));
}

TEST(TrafficPlan, TraceArrivals)
{
    TrafficPlan plan = TrafficPlan::parse(
        "arrival=trace,trace.ms=0;1.5;1.5;10,duration.ms=100");
    ASSERT_EQ(plan.trace.size(), 4u);
    EXPECT_EQ(plan.trace[0], 0u);
    EXPECT_EQ(plan.trace[1], sim::fromSeconds(0.0015));
    EXPECT_EQ(plan.trace[2], plan.trace[1]);
    EXPECT_EQ(plan.trace[3], sim::fromSeconds(0.010));
}

TEST(TrafficPlan, ClassOrderIsCanonicalNotKeyOrder)
{
    TrafficPlan plan = TrafficPlan::parse(
        "rate=1,duration.ms=10,mix.mview=1,mix.sort=2,mix.select=3");
    ASSERT_EQ(plan.classes.size(), 3u);
    EXPECT_EQ(plan.classes[0].task, TaskKind::Select);
    EXPECT_EQ(plan.classes[1].task, TaskKind::Sort);
    EXPECT_EQ(plan.classes[2].task, TaskKind::Mview);
}

TEST(TrafficPlanDeath, GrammarErrorsAreFatal)
{
    EXPECT_DEATH(TrafficPlan::parse("rate"), "not key=value");
    EXPECT_DEATH(TrafficPlan::parse("bogus=1,duration.ms=1"),
                 "unknown key");
    EXPECT_DEATH(TrafficPlan::parse("rate=fast,duration.ms=1"),
                 "not a number");
    EXPECT_DEATH(TrafficPlan::parse("rate=1,duration.ms=nan"),
                 "not finite");
    EXPECT_DEATH(TrafficPlan::parse("rate=1"),
                 "duration.ms is required");
    EXPECT_DEATH(TrafficPlan::parse("duration.ms=100"),
                 "loop=open needs rate");
    EXPECT_DEATH(TrafficPlan::parse("rate=0,duration.ms=1"),
                 "must be > 0");
    EXPECT_DEATH(
        TrafficPlan::parse("rate=1,duration.ms=1,mix.scan=1"),
        "unknown task");
    EXPECT_DEATH(
        TrafficPlan::parse("rate=1,duration.ms=1,cap.select=1.5"),
        "must be in \\(0, 1\\]");
    EXPECT_DEATH(
        TrafficPlan::parse("rate=1,duration.ms=1,max.inflight=0"),
        "must be >= 1");
}

TEST(TrafficPlanDeath, InconsistentCombinationsAreFatal)
{
    EXPECT_DEATH(
        TrafficPlan::parse("loop=closed,clients=4,rate=1,"
                           "duration.ms=1"),
        "only apply to loop=open");
    EXPECT_DEATH(TrafficPlan::parse("rate=1,clients=4,duration.ms=1"),
                 "only apply to loop=closed");
    EXPECT_DEATH(TrafficPlan::parse("loop=closed,duration.ms=1"),
                 "loop=closed needs clients");
    EXPECT_DEATH(
        TrafficPlan::parse("arrival=trace,rate=1,"
                           "trace.ms=1,duration.ms=5"),
        "rate conflicts with arrival=trace");
    EXPECT_DEATH(TrafficPlan::parse("arrival=trace,duration.ms=5"),
                 "requires trace.ms");
    EXPECT_DEATH(
        TrafficPlan::parse("rate=1,trace.ms=1,duration.ms=5"),
        "trace.ms requires arrival=trace");
    EXPECT_DEATH(
        TrafficPlan::parse("arrival=trace,trace.ms=5;1,"
                           "duration.ms=9"),
        "nondecreasing");
    EXPECT_DEATH(
        TrafficPlan::parse("rate=1,duration.ms=1,cap.join=0.5"),
        "cap./share. need an explicit mix.");
    EXPECT_DEATH(
        TrafficPlan::parse("rate=1,duration.ms=1,mix.select=1,"
                           "share.join=2"),
        "not in the mix");
}

TEST(TrafficPlan, ScaledDatasetKeepsWholeTuples)
{
    auto full = workload::DatasetSpec::forTask(TaskKind::Select);
    auto capped = traffic::scaledDataset(TaskKind::Select, 0.01);
    EXPECT_LT(capped.inputBytes, full.inputBytes);
    EXPECT_EQ(capped.inputBytes % capped.tupleBytes, 0u);
    EXPECT_EQ(capped.tupleCount,
              capped.inputBytes / capped.tupleBytes);
    // cap=1 is byte-identical to the paper dataset.
    auto uncapped = traffic::scaledDataset(TaskKind::Select, 1.0);
    EXPECT_EQ(uncapped.inputBytes, full.inputBytes);
    EXPECT_EQ(uncapped.tupleCount, full.tupleCount);
}

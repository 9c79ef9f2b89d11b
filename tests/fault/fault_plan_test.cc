/**
 * @file FaultPlan spec parsing: the grammar in docs/faults.md, the
 * defaults, and the fatal() contract on malformed or out-of-range
 * values.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "fault/fault.hh"
#include "sim/ticks.hh"

using namespace howsim;
using fault::FaultPlan;

TEST(FaultPlan, EmptySpecIsInactive)
{
    FaultPlan plan = FaultPlan::parse("");
    EXPECT_FALSE(plan.active());
    EXPECT_FALSE(plan.diskFaultsActive());
    EXPECT_FALSE(plan.netFaultsActive());
    EXPECT_FALSE(plan.stopConfigured());
    EXPECT_EQ(plan.seed, 1u);
    EXPECT_EQ(plan.diskMediaRetries, 3);
    EXPECT_EQ(plan.netRetries, 8);
    EXPECT_EQ(plan.netTimeout, sim::microseconds(1000));
}

TEST(FaultPlan, FullSpecRoundTrips)
{
    FaultPlan plan = FaultPlan::parse(
        "seed=42,disk.slow.frac=0.25,disk.slow.factor=2.5,"
        "disk.media.rate=1e-3,disk.media.retries=5,"
        "disk.remap.rate=1e-4,net.drop.rate=0.01,"
        "net.corrupt.rate=0.02,net.retries=4,net.timeout.us=500,"
        "stop.disk=3+1+7,stop.rate=0.125,stop.at.ms=100,"
        "stop.restart.ms=250,hb.period.ms=2,"
        "hb.timeout.x=4,rebuild.rate.mbs=64");
    EXPECT_EQ(plan.seed, 42u);
    EXPECT_DOUBLE_EQ(plan.diskSlowFrac, 0.25);
    EXPECT_DOUBLE_EQ(plan.diskSlowFactor, 2.5);
    EXPECT_DOUBLE_EQ(plan.diskMediaRate, 1e-3);
    EXPECT_EQ(plan.diskMediaRetries, 5);
    EXPECT_DOUBLE_EQ(plan.diskRemapRate, 1e-4);
    EXPECT_DOUBLE_EQ(plan.netDropRate, 0.01);
    EXPECT_DOUBLE_EQ(plan.netCorruptRate, 0.02);
    EXPECT_EQ(plan.netRetries, 4);
    EXPECT_EQ(plan.netTimeout, sim::microseconds(500));
    // The victim list is canonicalized: sorted, deduplicated.
    EXPECT_EQ(plan.stopDisks, (std::vector<int>{1, 3, 7}));
    EXPECT_DOUBLE_EQ(plan.stopRate, 0.125);
    EXPECT_EQ(plan.stopAt, sim::fromSeconds(0.1));
    EXPECT_EQ(plan.stopRestart, sim::fromSeconds(0.25));
    EXPECT_EQ(plan.hbPeriod, sim::fromSeconds(0.002));
    EXPECT_DOUBLE_EQ(plan.hbTimeoutX, 4.0);
    EXPECT_DOUBLE_EQ(plan.rebuildRateMBs, 64.0);
    EXPECT_TRUE(plan.active());
    EXPECT_TRUE(plan.diskFaultsActive());
    EXPECT_TRUE(plan.netFaultsActive());
    EXPECT_TRUE(plan.stopConfigured());
}

TEST(FaultPlan, ToStringParsesBackFieldForField)
{
    // The canonical spec is the reproducibility artifact embedded in
    // metrics JSON and bench records: parse(toString()) must rebuild
    // the plan exactly, and the inactive default plan must serialize
    // to the empty string.
    EXPECT_EQ(FaultPlan{}.toString(), "");
    FaultPlan plan = FaultPlan::parse(
        "seed=42,disk.slow.frac=0.25,disk.media.rate=1e-3,"
        "net.drop.rate=0.01,stop.disk=3+1,stop.rate=0.125,"
        "stop.at.ms=100,stop.restart.ms=250,hb.period.ms=2,"
        "hb.timeout.x=4,rebuild.rate.mbs=64");
    FaultPlan back = FaultPlan::parse(plan.toString());
    EXPECT_EQ(back.seed, plan.seed);
    EXPECT_DOUBLE_EQ(back.diskSlowFrac, plan.diskSlowFrac);
    EXPECT_DOUBLE_EQ(back.diskMediaRate, plan.diskMediaRate);
    EXPECT_DOUBLE_EQ(back.netDropRate, plan.netDropRate);
    EXPECT_EQ(back.stopDisks, plan.stopDisks);
    EXPECT_DOUBLE_EQ(back.stopRate, plan.stopRate);
    EXPECT_EQ(back.stopAt, plan.stopAt);
    EXPECT_EQ(back.stopRestart, plan.stopRestart);
    EXPECT_EQ(back.hbPeriod, plan.hbPeriod);
    EXPECT_DOUBLE_EQ(back.hbTimeoutX, plan.hbTimeoutX);
    EXPECT_DOUBLE_EQ(back.rebuildRateMBs, plan.rebuildRateMBs);
    // And the canonical form is a fixed point.
    EXPECT_EQ(back.toString(), plan.toString());
}

TEST(FaultPlan, StopScheduleResolvesUnionAndBuddies)
{
    FaultPlan plan = FaultPlan::parse(
        "stop.disk=2+5,stop.at.ms=10,stop.restart.ms=40");
    fault::StopSchedule sched = fault::StopSchedule::resolve(plan, 8);
    ASSERT_EQ(sched.victims.size(), 2u);
    EXPECT_EQ(sched.victims[0].device, 2);
    EXPECT_EQ(sched.victims[1].device, 5);
    EXPECT_TRUE(sched.victims[0].rejoins());
    // Aliveness is pure plan arithmetic: down inside
    // [stopAt, restartAt), serving on either side.
    sim::Tick at = sched.victims[0].stopAt;
    EXPECT_TRUE(sched.aliveAt(2, at - 1));
    EXPECT_FALSE(sched.aliveAt(2, at));
    EXPECT_TRUE(sched.aliveAt(2, sched.victims[0].restartAt));
    EXPECT_TRUE(sched.deathWithin(at, at + 1));
    EXPECT_FALSE(sched.deathWithin(at + 1, at + 2));
    // The buddy is the next never-victim, cyclically.
    EXPECT_EQ(sched.buddyOf(2, 0, 8), 3);
    EXPECT_EQ(sched.buddyOf(5, 0, 8), 6);
    EXPECT_EQ(sched.buddyOf(7, 0, 8), 0);
    // Within a range (an SMP disk group) the buddy is range-relative:
    // the next never-victim member, wrapping inside [first, first +
    // count) rather than at the device count.
    EXPECT_EQ(sched.buddyOf(2, 2, 3), 3);
    EXPECT_EQ(sched.buddyOf(5, 4, 2), 4);
    EXPECT_EQ(sched.buddyOf(5, 5, 3), 6);
    EXPECT_EQ(sched.buddyOf(2, 0, 3), 0);
    // Wrapping past a victim member: 5 wraps to 2 (a victim), then 3.
    EXPECT_EQ(sched.buddyOf(5, 2, 4), 3);
}

TEST(FaultPlan, TrailingAndDoubledCommasAreTolerated)
{
    FaultPlan plan = FaultPlan::parse("seed=9,,disk.media.rate=0.5,");
    EXPECT_EQ(plan.seed, 9u);
    EXPECT_DOUBLE_EQ(plan.diskMediaRate, 0.5);
}

TEST(FaultPlan, SeedAloneIsInactive)
{
    // "seed=1" configures no fault class, so the plan stays inactive
    // and a run with it must match an unconfigured run byte-for-byte.
    EXPECT_FALSE(FaultPlan::parse("seed=1").active());
}

TEST(FaultPlanDeathTest, UnknownKeyIsFatal)
{
    EXPECT_EXIT(FaultPlan::parse("disk.nonsense=1"),
                testing::ExitedWithCode(1), "disk.nonsense");
}

TEST(FaultPlanDeathTest, UnknownKeyMessageListsAcceptedKeys)
{
    EXPECT_EXIT(FaultPlan::parse("typo=1"),
                testing::ExitedWithCode(1), "accepted: seed");
}

TEST(FaultPlanDeathTest, MissingEqualsIsFatal)
{
    EXPECT_EXIT(FaultPlan::parse("seed"), testing::ExitedWithCode(1),
                "key=value");
}

TEST(FaultPlanDeathTest, NonNumericValueIsFatal)
{
    EXPECT_EXIT(FaultPlan::parse("disk.media.rate=lots"),
                testing::ExitedWithCode(1), "not a number");
}

TEST(FaultPlanDeathTest, NonFiniteValueIsFatal)
{
    // strtod accepts "nan" and "inf"; NaN would pass every range
    // check and infinity overflows the tick conversions.
    EXPECT_EXIT(FaultPlan::parse("disk.slow.factor=nan"),
                testing::ExitedWithCode(1), "not finite");
    EXPECT_EXIT(FaultPlan::parse("stop.at.ms=inf"),
                testing::ExitedWithCode(1), "not finite");
}

TEST(FaultPlanDeathTest, RateAboveOneIsFatal)
{
    EXPECT_EXIT(FaultPlan::parse("net.drop.rate=1.5"),
                testing::ExitedWithCode(1), "probability");
}

TEST(FaultPlanDeathTest, NegativeRateIsFatal)
{
    EXPECT_EXIT(FaultPlan::parse("disk.slow.frac=-0.1"),
                testing::ExitedWithCode(1), "probability");
}

TEST(FaultPlanDeathTest, SlowFactorBelowOneIsFatal)
{
    EXPECT_EXIT(FaultPlan::parse("disk.slow.factor=0.5"),
                testing::ExitedWithCode(1), "must be >= 1");
}

TEST(FaultPlanDeathTest, ZeroRetriesIsFatal)
{
    EXPECT_EXIT(FaultPlan::parse("net.retries=0"),
                testing::ExitedWithCode(1), "net.retries");
}

TEST(FaultPlanDeathTest, HeartbeatPeriodBelowOneTickIsFatal)
{
    // The detector needs a period of at least one tick; 0 and values
    // that round to zero ticks are rejected with the accepted range.
    EXPECT_EXIT(FaultPlan::parse("hb.period.ms=0"),
                testing::ExitedWithCode(1), "must be >= 1e-06");
    EXPECT_EXIT(FaultPlan::parse("hb.period.ms=1e-7"),
                testing::ExitedWithCode(1), "must be >= 1e-06");
    EXPECT_EQ(FaultPlan::parse("hb.period.ms=1e-6").hbPeriod, 1u);
}

TEST(FaultPlanDeathTest, CombinedNetRatesAboveOneIsFatal)
{
    EXPECT_EXIT(
        FaultPlan::parse("net.drop.rate=0.6,net.corrupt.rate=0.6"),
        testing::ExitedWithCode(1), "exceeds 1");
}

TEST(FaultPlan, FromEnvReadsHowsimFaults)
{
    setenv("HOWSIM_FAULTS", "seed=17,disk.remap.rate=0.125", 1);
    FaultPlan plan = FaultPlan::fromEnv();
    unsetenv("HOWSIM_FAULTS");
    EXPECT_EQ(plan.seed, 17u);
    EXPECT_DOUBLE_EQ(plan.diskRemapRate, 0.125);
}

TEST(FaultPlan, FromEnvUnsetYieldsInactivePlan)
{
    unsetenv("HOWSIM_FAULTS");
    EXPECT_FALSE(FaultPlan::fromEnv().active());
}

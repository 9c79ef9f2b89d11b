/**
 * @file Heartbeat failure detector and recovery orchestration: the
 * emergent-detection-latency, false-positive, multi-failure,
 * rejoin/rebuild, and cross-knob determinism guarantees of
 * DESIGN.md §13, checked end-to-end through core::runExperiment.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "fault/detector.hh"
#include "fault/fault.hh"
#include "sim/ticks.hh"

using namespace howsim;
using core::Arch;
using core::ExperimentConfig;
using workload::TaskKind;

namespace
{

ExperimentConfig
baseConfig(Arch arch, TaskKind task, int scale)
{
    ExperimentConfig config;
    config.arch = arch;
    config.task = task;
    config.scale = scale;
    return config;
}

} // namespace

TEST(Detector, DetectionLatencyIsEmergentNotConfigured)
{
    // With the heartbeat detector on, the measured detection latency
    // is at least the nominal lease (hb.period.ms x hb.timeout.x) and
    // strictly grows with the heartbeat period: a sparser probe
    // schedule simply cannot notice a death sooner.
    auto run = [](const char *period) {
        auto config = baseConfig(Arch::ActiveDisk, TaskKind::Select, 4);
        config.faults = std::string("seed=5,stop.disk=1,stop.at.ms=40,"
                                    "hb.timeout.x=3,hb.period.ms=")
                        + period;
        return core::runExperiment(config);
    };
    auto fast = run("2");
    auto slow = run("20");
    ASSERT_EQ(fast.availability.deaths, 1u);
    ASSERT_EQ(slow.availability.deaths, 1u);
    EXPECT_GT(fast.availability.heartbeats,
              slow.availability.heartbeats);
    // lease = period x timeout.x; the declaration can only land on a
    // probe that follows the lease's expiry.
    EXPECT_GE(fast.availability.detectLatencyMax,
              sim::milliseconds(6));
    EXPECT_GE(slow.availability.detectLatencyMax,
              sim::milliseconds(60));
    EXPECT_GT(slow.availability.detectLatencyMax,
              fast.availability.detectLatencyMax);
}

TEST(Detector, TimelineBitIdenticalAcrossJobs)
{
    // The probe schedule draws from the stateless counter hash and
    // every probe rides the machine's deterministic interconnect, so
    // a faulted-with-rejoin run must produce ONE timeline — elapsed,
    // output, detection latency, rebuilt bytes — whether it runs
    // alone or beside a twin on the parallel runner.
    auto config = baseConfig(Arch::ActiveDisk, TaskKind::Select, 4);
    config.faults = "seed=5,stop.disk=1+2,stop.at.ms=40,"
                    "stop.restart.ms=120,hb.period.ms=2,"
                    "rebuild.rate.mbs=64";
    std::vector<tasks::TaskResult> results{core::runExperiment(config)};
    for (const auto &r : core::runExperiments({config, config}, 2))
        results.push_back(r);
    ASSERT_EQ(results[0].availability.deaths, 2u);
    ASSERT_EQ(results[0].availability.rejoins, 2u);
    EXPECT_GT(results[0].availability.rebuiltBytes, 0u);
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i].elapsedTicks, results[0].elapsedTicks)
            << "run " << i;
        EXPECT_EQ(results[i].outputBytes, results[0].outputBytes);
        EXPECT_EQ(results[i].availability.heartbeats,
                  results[0].availability.heartbeats);
        EXPECT_EQ(results[i].availability.detectLatencyTotal,
                  results[0].availability.detectLatencyTotal);
        EXPECT_EQ(results[i].availability.detectLatencyMax,
                  results[0].availability.detectLatencyMax);
        EXPECT_EQ(results[i].availability.rebuiltBytes,
                  results[0].availability.rebuiltBytes);
    }
}

TEST(Detector, FailSlowDeviceIsNeverDeclaredDead)
{
    // False-positive bound: a drive that is merely slow (every other
    // drive fail-slow at 4x) still acks within its lease, so the only
    // death declared is the configured victim's. A missed probe alone
    // never kills — the lease must expire too.
    auto config = baseConfig(Arch::ActiveDisk, TaskKind::Select, 4);
    config.faults = "seed=5,disk.slow.frac=0.5,disk.slow.factor=4,"
                    "stop.disk=1,stop.at.ms=40,hb.period.ms=2";
    auto result = core::runExperiment(config);
    EXPECT_EQ(result.availability.deaths, 1u);
    EXPECT_EQ(result.availability.rejoins, 0u);
}

TEST(Detector, MultiFailureRejoinPreservesOutputOnEveryTaskAndArch)
{
    // The acceptance matrix: two victims dying mid-run and rejoining
    // (replica rebuild competing with the query) on all three
    // architectures x all eight paper tasks, output byte-equal to the
    // fault-free run and strictly later. Scale 8 keeps sort/join
    // within one drive's capacity.
    const char *spec = "seed=5,stop.disk=1+3,stop.at.ms=100,"
                       "stop.restart.ms=400,hb.period.ms=5,"
                       "rebuild.rate.mbs=128";
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster, Arch::Smp}) {
        for (TaskKind task : workload::allTasks) {
            auto config = baseConfig(arch, task, 8);
            auto faultFree = core::runExperiment(config);
            config.faults = spec;
            auto degraded = core::runExperiment(config);
            EXPECT_EQ(degraded.outputBytes, faultFree.outputBytes)
                << core::archName(arch) << "/"
                << workload::taskName(task);
            EXPECT_GT(degraded.elapsedTicks, faultFree.elapsedTicks)
                << core::archName(arch) << "/"
                << workload::taskName(task);
            EXPECT_EQ(degraded.availability.deaths, 2u)
                << core::archName(arch) << "/"
                << workload::taskName(task);
            EXPECT_EQ(degraded.availability.rejoins, 2u)
                << core::archName(arch) << "/"
                << workload::taskName(task);
            EXPECT_GT(degraded.availability.rebuiltBytes, 0u)
                << core::archName(arch) << "/"
                << workload::taskName(task);
        }
    }
}

TEST(Detector, FixedLeaseFallbackWhenHeartbeatsDisabled)
{
    // hb.period.ms=0 disables the detector; the legacy stop.detect.ms
    // timer declares the death instead, and the run still completes
    // with fault-free output.
    auto config = baseConfig(Arch::Cluster, TaskKind::Select, 4);
    auto faultFree = core::runExperiment(config);
    config.faults = "seed=5,stop.disk=2,stop.at.ms=40,"
                    "hb.period.ms=0,stop.detect.ms=15";
    auto degraded = core::runExperiment(config);
    EXPECT_EQ(degraded.outputBytes, faultFree.outputBytes);
    EXPECT_EQ(degraded.availability.deaths, 1u);
    EXPECT_EQ(degraded.availability.heartbeats, 0u);
    EXPECT_EQ(degraded.availability.detectLatencyMax,
              sim::milliseconds(15));
}

TEST(Detector, StopRateDrawsVictimsDeterministically)
{
    // stop.rate victims come from the counter hash: the same seed
    // picks the same victims on every run, and the measured deaths
    // match the schedule the plan resolves to.
    fault::FaultPlan plan = fault::FaultPlan::parse(
        "seed=21,stop.rate=0.4,stop.at.ms=40,hb.period.ms=2");
    fault::StopSchedule sched = fault::StopSchedule::resolve(plan, 4);
    ASSERT_FALSE(sched.empty());
    auto config = baseConfig(Arch::ActiveDisk, TaskKind::Select, 4);
    config.faults = "seed=21,stop.rate=0.4,stop.at.ms=40,"
                    "hb.period.ms=2";
    auto a = core::runExperiment(config);
    auto b = core::runExperiment(config);
    EXPECT_EQ(a.availability.deaths, sched.victims.size());
    EXPECT_EQ(a.elapsedTicks, b.elapsedTicks);
    EXPECT_EQ(a.availability.detectLatencyTotal,
              b.availability.detectLatencyTotal);
}

/**
 * @file Heartbeat failure detector and recovery orchestration: the
 * emergent-detection-latency, false-positive, multi-failure,
 * rejoin/rebuild, and cross-knob determinism guarantees of
 * DESIGN.md §13, checked end-to-end through core::runExperiment, plus
 * the takeover routing every machine shares.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "disk/disk_spec.hh"
#include "diskos/active_disk_array.hh"
#include "fault/detector.hh"
#include "fault/fault.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/simulator.hh"
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

/** Where and when fault::Takeover::route resumed, and its redirects. */
struct Routed
{
    int device = -1;
    sim::Tick at = 0;
    std::uint64_t redirects = 0;
};

/**
 * Route an operation addressed to @p d, issued at @p at, on 4 devices
 * under the fault plan @p spec; the buddy is taken within
 * [@p first, @p first + @p count).
 */
Routed
routeAt(const char *spec, int d, sim::Tick at, int first = 0,
        int count = 4)
{
    fault::Scope scope(fault::FaultPlan::parse(spec));
    sim::Simulator simulator;
    fault::Takeover takeover(simulator, 4);
    Routed r;
    auto body = [&]() -> sim::Coro<void> {
        co_await sim::delay(at);
        r.device = co_await takeover.route(d, first, count);
        r.at = simulator.now();
    };
    simulator.spawn(body());
    simulator.run();
    r.redirects = scope.injector()->counters().stopRedirects;
    return r;
}

/** A routed operation on a 4-drive Active Disk array. */
struct Served
{
    sim::Tick done = 0;          //!< when the caller resumed
    sim::Tick work = 0;          //!< a compute's scaled ticks
    int servedBy = -1;           //!< the drive whose CPU or disk ran it
    std::uint64_t probed = 0;    //!< stopRedirects at the probe tick
    std::uint64_t redirects = 0; //!< stopRedirects after the run
};

/**
 * Issue a 1 ms compute (or a 64 KB read) addressed to drive @p d at
 * @p at on a 4-drive array under @p spec, and read the redirect
 * counter at @p probe_at.
 */
Served
serveOnArray(const char *spec, bool compute, int d, sim::Tick at,
             sim::Tick probe_at)
{
    fault::Scope scope(fault::FaultPlan::parse(spec));
    sim::Simulator simulator;
    diskos::ActiveDiskArray arr(simulator, 4,
                                disk::DiskSpec::seagateSt39102());
    const fault::Counters &counters = scope.injector()->counters();
    Served s;
    auto op = [&]() -> sim::Coro<void> {
        co_await sim::delay(at);
        if (compute)
            co_await arr.compute(d, sim::milliseconds(1));
        else
            co_await arr.readLocal(d, 0, 64 * 1024);
        s.done = simulator.now();
    };
    auto probe = [&]() -> sim::Coro<void> {
        co_await sim::delay(probe_at);
        s.probed = counters.stopRedirects;
    };
    simulator.spawn(op());
    simulator.spawn(probe());
    simulator.run();
    s.work = arr.cpu(0).scaled(sim::milliseconds(1));
    for (int i = 0; i < arr.size(); ++i) {
        if (arr.cpu(i).busyTicks() > 0
            || arr.drive(i).stats().requests > 0)
            s.servedBy = i;
    }
    s.redirects = counters.stopRedirects;
    return s;
}

} // namespace

TEST(Takeover, RouteServesLiveRedirectsDeadAndKeepsRestarted)
{
    // Victim 1 dies at 10 ms; the nominal lease is 2 ms x 3.
    const char *dies = "stop.disk=1,stop.at.ms=10,hb.period.ms=2";
    fault::FaultPlan plan = fault::FaultPlan::parse(dies);
    const sim::Tick issued = plan.stopAt + sim::milliseconds(2);

    // A live device serves itself at once, and so does the victim
    // before its death.
    Routed live = routeAt(dies, 0, issued);
    EXPECT_EQ(live.device, 0);
    EXPECT_EQ(live.at, issued);
    EXPECT_EQ(live.redirects, 0u);
    Routed early = routeAt(dies, 1, plan.stopAt - 1);
    EXPECT_EQ(early.device, 1);
    EXPECT_EQ(early.at, plan.stopAt - 1);
    EXPECT_EQ(early.redirects, 0u);

    // A dead device stalls until the lease runs out and is then
    // redirected to its buddy, the next never-victim of its range.
    Routed dead = routeAt(dies, 1, issued);
    EXPECT_EQ(dead.device, 2);
    EXPECT_EQ(dead.at, plan.stopAt + plan.leaseTicks());
    EXPECT_EQ(dead.redirects, 1u);
    Routed grouped = routeAt(dies, 1, issued, 0, 2);
    EXPECT_EQ(grouped.device, 0);
    EXPECT_EQ(grouped.redirects, 1u);

    // On an Active Disk array a routed compute and a routed read
    // addressed to the dead drive stall to the lease end, count no
    // redirect inside the stall and one after it, and run on the
    // buddy's CPU or drive, exactly as if issued there at the lease end.
    const sim::Tick leaseEnd = plan.stopAt + plan.leaseTicks();
    Served compute = serveOnArray(dies, true, 1, issued, leaseEnd - 1);
    EXPECT_EQ(compute.servedBy, 2);
    EXPECT_EQ(compute.done, leaseEnd + compute.work);
    EXPECT_EQ(compute.probed, 0u);
    EXPECT_EQ(compute.redirects, 1u);
    Served read = serveOnArray(dies, false, 1, issued, leaseEnd - 1);
    Served direct = serveOnArray(dies, false, 2, leaseEnd, 0);
    EXPECT_EQ(read.servedBy, 2);
    EXPECT_EQ(read.done, direct.done);
    EXPECT_EQ(read.probed, 0u);
    EXPECT_EQ(read.redirects, 1u);
    EXPECT_EQ(direct.redirects, 0u);

    // A device that restarts before the lease runs out serves itself
    // from the restart on; nothing is redirected.
    const char *restarts = "stop.disk=1,stop.at.ms=10,"
                           "stop.restart.ms=3,hb.period.ms=2";
    plan = fault::FaultPlan::parse(restarts);
    Routed back = routeAt(restarts, 1, issued);
    EXPECT_EQ(back.device, 1);
    EXPECT_EQ(back.at, plan.stopAt + plan.stopRestart);
    EXPECT_EQ(back.redirects, 0u);
    const sim::Tick restartAt = plan.stopAt + plan.stopRestart;
    Served resumed = serveOnArray(restarts, true, 1, issued, restartAt);
    EXPECT_EQ(resumed.servedBy, 1);
    EXPECT_EQ(resumed.done, restartAt + resumed.work);
    EXPECT_EQ(resumed.redirects, 0u);
    Served reread = serveOnArray(restarts, false, 1, issued, restartAt);
    EXPECT_EQ(reread.servedBy, 1);
    EXPECT_EQ(reread.redirects, 0u);
}

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

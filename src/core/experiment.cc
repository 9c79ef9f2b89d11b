#include "core/experiment.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <type_traits>
#include <vector>

#include "arch/cost_model.hh"
#include "core/machines.hh"
#include "fault/detector.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "workload/task_kind.hh"

namespace howsim::core
{

std::string
archName(Arch arch)
{
    switch (arch) {
      case Arch::ActiveDisk:
        return "active";
      case Arch::Cluster:
        return "cluster";
      case Arch::Smp:
        return "smp";
    }
    panic("unknown Arch");
}

namespace
{

/**
 * A per-process monotonic experiment number keeps output file names
 * unique (and sortable by launch order) even when several experiments
 * share an (arch, task, scale) tuple or run concurrently under the
 * parallel runner.
 */
std::string
experimentLabel(const ExperimentConfig &config)
{
    static std::atomic<unsigned> nextExperiment{0};
    unsigned seq = nextExperiment.fetch_add(1,
                                            std::memory_order_relaxed);
    return strprintf("%03u_%s_%s_d%d", seq,
                     archName(config.arch).c_str(),
                     workload::taskName(config.task).c_str(),
                     config.scale);
}

} // namespace

void
validateConfig(const ExperimentConfig &config,
               const fault::FaultPlan &plan)
{
    if (config.scale <= 0) {
        fatal("ExperimentConfig: scale=%d; the disk/processor count "
              "must be positive",
              config.scale);
    }
    if (config.adMemoryBytes == 0)
        fatal("ExperimentConfig: adMemoryBytes must be positive");
    if (config.interconnectRate <= 0.0) {
        fatal("ExperimentConfig: interconnectRate=%g bytes/s; the "
              "serial interconnect rate must be positive",
              config.interconnectRate);
    }
    if (config.interconnectLoops <= 0) {
        fatal("ExperimentConfig: interconnectLoops=%d; at least one "
              "loop is required",
              config.interconnectLoops);
    }
    if (config.adFrontendMhz <= 0.0) {
        fatal("ExperimentConfig: adFrontendMhz=%g; the front-end "
              "clock must be positive",
              config.adFrontendMhz);
    }
    if (config.drive.sectorBytes == 0)
        fatal("ExperimentConfig: drive.sectorBytes must be positive");
    if (config.pdes != 1) {
        fatal("ExperimentConfig: pdes=%d; the executive is serial and "
              "the only accepted value is 1",
              config.pdes);
    }
    if (plan.stopConfigured()) {
        // Collect every fail-stop violation and report them together:
        // a matrix driver fixing its plan should see the whole damage
        // in one pass, not one fatal() per rerun. (Any task kind and
        // any traffic plan are fine — the machines' takeover redirect
        // and the driver's retry protocol cover them all.)
        std::string violations;
        for (int d : plan.stopDisks) {
            if (d < 0 || d >= config.scale) {
                violations += strprintf(
                    "\n  - stop.disk victim %d is out of range for "
                    "scale=%d (victims are numbered [0, scale))",
                    d, config.scale);
            }
        }
        if (config.scale < 2) {
            violations += strprintf(
                "\n  - fail-stop needs scale >= 2 so a takeover "
                "buddy can absorb a victim's work (scale=%d)",
                config.scale);
        } else {
            std::vector<int> uniq;
            for (int d : plan.stopDisks) {
                if (d >= 0 && d < config.scale
                    && std::find(uniq.begin(), uniq.end(), d)
                           == uniq.end())
                    uniq.push_back(d);
            }
            if (static_cast<int>(uniq.size()) >= config.scale) {
                violations += strprintf(
                    "\n  - stop.disk lists every device of scale=%d; "
                    "at least one never-victim survivor must remain "
                    "to serve as the takeover buddy",
                    config.scale);
            }
        }
        if (!violations.empty()) {
            fatal("fault plan \"%s\" is invalid for this "
                  "experiment:%s",
                  plan.toString().c_str(), violations.c_str());
        }
    }
}

namespace
{

/** Fold the injector's totals into the session's metrics JSON. */
void
publishFaultMetrics(obs::Session *sess, fault::Injector *inj)
{
    if (!sess || !inj)
        return;
    const fault::Counters &c = inj->counters();
    auto &m = sess->metrics();
    // The canonical plan spec makes any faulted artifact reproducible
    // from the JSON alone (parse(toString()) round-trips the plan).
    m.note("fault.plan", inj->plan().toString());
    m.counter("fault.disk.slow_requests").add(c.diskSlowRequests);
    m.counter("fault.disk.slow_ticks")
        .add(static_cast<std::uint64_t>(c.diskSlowTicks));
    m.counter("fault.disk.media_errors").add(c.diskMediaErrors);
    m.counter("fault.disk.retries").add(c.diskRetries);
    m.counter("fault.disk.remaps").add(c.diskRemaps);
    m.counter("fault.net.drops").add(c.netDrops);
    m.counter("fault.net.corruptions").add(c.netCorruptions);
    m.counter("fault.net.retransmits").add(c.netRetransmits);
    m.counter("fault.stop.deaths").add(c.stopDeaths);
    m.counter("fault.stop.redirects").add(c.stopRedirects);
    m.counter("fault.stop.recovered_blocks").add(c.recoveredBlocks);
}

/**
 * The Detector of one faulted experiment, monitoring the machine
 * through its AvailabilityTransport. Construct after the machine's
 * keyed protocols are switched on (key-stream allocation order) and
 * before the runner executes; inert when no fail-stop is scheduled.
 * Victims that rejoin trigger a rebuild of their share of the dataset
 * (inputBytes / deviceCount — the striped share every machine gives
 * one device).
 */
struct AvailabilityRig
{
    AvailabilityRig(sim::Simulator &simulator, fault::Injector *inj,
                    fault::AvailabilityTransport &machine,
                    const fault::StopSchedule &schedule,
                    std::uint64_t inputBytes)
    {
        if (inj == nullptr || schedule.empty())
            return;
        bool rejoins = false;
        for (const auto &v : schedule.victims)
            rejoins = rejoins || v.rejoins();
        std::uint64_t rebuildBytes
            = rejoins ? inputBytes / static_cast<std::uint64_t>(
                            machine.deviceCount())
                      : 0;
        detector = std::make_unique<fault::Detector>(
            simulator, *inj, schedule, machine, rebuildBytes);
        detector->start();
    }

    /** Fold the observations into the result and the metrics JSON. */
    void
    finish(tasks::TaskResult &result, obs::Session *sess)
    {
        if (!detector)
            return;
        result.availability = detector->stats();
        if (!sess)
            return;
        const fault::AvailabilityStats &a = result.availability;
        auto &m = sess->metrics();
        m.counter("fault.hb.probes").add(a.heartbeats);
        m.counter("fault.hb.deaths").add(a.deaths);
        m.counter("fault.hb.rejoins").add(a.rejoins);
        m.gauge("fault.hb.detect_ms_mean").set(a.meanDetectMs());
        m.gauge("fault.hb.detect_ms_max")
            .set(sim::toMilliseconds(a.detectLatencyMax));
        m.counter("fault.rebuild.bytes").add(a.rebuiltBytes);
    }

    std::unique_ptr<fault::Detector> detector;
};

} // namespace

tasks::TaskResult
runExperiment(const ExperimentConfig &config)
{
    fault::FaultPlan plan
        = config.faults.empty() ? fault::FaultPlan::fromEnv()
                                : fault::FaultPlan::parse(config.faults);
    validateConfig(config, plan);
    auto data = workload::DatasetSpec::forTask(config.task);
    // One observability session per experiment (active only when the
    // HOWSIM_TRACE_DIR / HOWSIM_METRICS switches are set). Each
    // session is thread-local and writes its own files, so the
    // parallel runner needs no cross-thread merging.
    auto obsSession = obs::Session::fromEnv(experimentLabel(config));
    // Installed after the obs session so the scope can register its
    // fault-class timeline probes; inactive plans install nothing.
    fault::Scope faultScope(plan);
    sim::Simulator simulator;
    return withMachine(config, simulator, [&](auto &machine) {
        // Batch runs use the keyed protocols; runTraffic does not.
        machine.useKeyedProtocols();
        AvailabilityRig rig(simulator, faultScope.injector(), machine,
                            machine.stopSchedule(), data.inputBytes);
        RunnerFor<std::remove_reference_t<decltype(machine)>> runner(
            simulator, machine, config.costs);
        auto result = runner.run(config.task, data);
        rig.finish(result, obsSession.get());
        publishFaultMetrics(obsSession.get(), faultScope.injector());
        if (obsSession)
            obsSession->dump(); // while probed components are alive
        return result;
    });
}

double
configPrice(Arch arch, int scale)
{
    const auto &latest = arch::priceHistory().back();
    switch (arch) {
      case Arch::ActiveDisk:
        return latest.adTotal(scale);
      case Arch::Cluster:
        return latest.clusterTotal(scale);
      case Arch::Smp:
        return arch::smpPrice(scale);
    }
    panic("unknown Arch");
}

} // namespace howsim::core

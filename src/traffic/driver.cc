#include "traffic/driver.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>

#include "arch/cluster_machine.hh"
#include "diskos/active_disk_array.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"
#include "sim/awaitables.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "smp/smp_machine.hh"
#include "tasks/ad_tasks.hh"
#include "tasks/cluster_tasks.hh"
#include "tasks/smp_tasks.hh"
#include "traffic/policy.hh"

namespace howsim::traffic
{

namespace
{

/** Draw sites shared by every traffic run (names, not state). */
const std::uint64_t kArrivalSite = fault::siteId("traffic.arrival");
const std::uint64_t kMixSite = fault::siteId("traffic.mix");
const std::uint64_t kThinkSite = fault::siteId("traffic.think");

/**
 * A retried query's second attempt runs on stream
 * qid + 1 + kRetryStreamOffset: distinct from every first attempt
 * (qids stay far below the offset) yet below fault::kRebuildStream,
 * so retry streams never collide with the rebuild band either.
 */
constexpr std::uint64_t kRetryStreamOffset = 1 << 18;

/**
 * Executes one admitted query on the shared machine. One
 * implementation per architecture; each call builds a fresh runner
 * instance (per-query isolation) keyed to the query's stream
 * (qid + 1). Returns the task's logical output bytes — the
 * quantity the retry protocol asserts is attempt-invariant.
 */
class QueryExec
{
  public:
    virtual ~QueryExec() = default;

    virtual sim::Coro<std::uint64_t>
    run(std::uint64_t qid, double memShare, workload::TaskKind kind,
        const workload::DatasetSpec &data) = 0;
};

class AdExec final : public QueryExec
{
  public:
    AdExec(sim::Simulator &s, diskos::ActiveDiskArray &m,
           workload::CostModel c)
        : simulator(s), machine(m), cm(c)
    {
    }

    sim::Coro<std::uint64_t>
    run(std::uint64_t qid, double memShare, workload::TaskKind kind,
        const workload::DatasetSpec &data) override
    {
        tasks::AdTaskRunner runner(simulator, machine, cm);
        runner.setStream(static_cast<int>(qid) + 1);
        runner.setMemoryShare(memShare);
        co_await runner.runConcurrent(kind, data);
        runner.retireStream();
        co_return runner.lastResult().outputBytes;
    }

  private:
    sim::Simulator &simulator;
    diskos::ActiveDiskArray &machine;
    workload::CostModel cm;
};

class ClusterExec final : public QueryExec
{
  public:
    ClusterExec(sim::Simulator &s, arch::ClusterMachine &m,
                workload::CostModel c)
        : simulator(s), machine(m), cm(c)
    {
    }

    sim::Coro<std::uint64_t>
    run(std::uint64_t qid, double memShare, workload::TaskKind kind,
        const workload::DatasetSpec &data) override
    {
        tasks::ClusterTaskRunner runner(simulator, machine, cm);
        runner.setStream(static_cast<int>(qid) + 1);
        runner.setMemoryShare(memShare);
        co_await runner.runConcurrent(kind, data);
        runner.retireStream();
        co_return runner.lastResult().outputBytes;
    }

  private:
    sim::Simulator &simulator;
    arch::ClusterMachine &machine;
    workload::CostModel cm;
};

class SmpExec final : public QueryExec
{
  public:
    SmpExec(sim::Simulator &s, smp::SmpMachine &m,
            workload::CostModel c)
        : simulator(s), machine(m), cm(c)
    {
    }

    sim::Coro<std::uint64_t>
    run(std::uint64_t qid, double memShare, workload::TaskKind kind,
        const workload::DatasetSpec &data) override
    {
        tasks::SmpTaskRunner runner(simulator, machine, cm);
        runner.setStream(static_cast<int>(qid) + 1);
        runner.setMemoryShare(memShare);
        co_await runner.runConcurrent(kind, data);
        runner.retireStream();
        co_return runner.lastResult().outputBytes;
    }

  private:
    sim::Simulator &simulator;
    smp::SmpMachine &machine;
    workload::CostModel cm;
};

/**
 * The driver proper: sources submit QueryTickets, the policy orders
 * the waiting set, pump() admits into free slots, and every
 * completion both records stats and frees a slot. All state changes
 * happen inside simulator coroutines, so ordering is the (already
 * deterministic) event order.
 */
class Driver
{
  public:
    Driver(sim::Simulator &s, const TrafficPlan &p, QueryExec &e,
           const fault::StopSchedule &stops, obs::Session *sess)
        : simulator(s), plan(p), exec(e),
          policy(TrafficPolicy::make(p)), stopSched(stops),
          session(sess)
    {
        for (const ClassSpec &c : plan.classes) {
            datasets.push_back(scaledDataset(c.task, c.cap));
            latencies.emplace_back();
            classSubmitted.push_back(0);
            classRejected.push_back(0);
            classRetried.push_back(0);
            classShed.push_back(0);
        }
        int slots = plan.maxInflight;
        if (plan.loop == LoopMode::Closed)
            slots = std::min(slots, plan.clients);
        memShare = 1.0 / static_cast<double>(slots);
        if (session) {
            session->timeline().probe(
                "traffic.inflight",
                [this] { return static_cast<double>(inflight); },
                this);
            session->timeline().probe(
                "traffic.queued",
                [this] {
                    return static_cast<double>(policy->queued());
                },
                this);
        }
    }

    ~Driver()
    {
        if (session)
            session->timeline().dropProbes(this);
    }

    void
    start()
    {
        if (plan.loop == LoopMode::Open) {
            simulator.spawnDetached(openSource(), "traffic.source");
        } else {
            for (int c = 0; c < plan.clients; ++c) {
                simulator.spawnDetached(
                    client(c), strprintf("traffic.client%d", c));
            }
        }
    }

    /** Summarize after simulator.run() has drained every query. */
    TrafficResult
    finish() const
    {
        TrafficResult r;
        for (std::size_t c = 0; c < plan.classes.size(); ++c) {
            ClassStats cs;
            cs.task = plan.classes[c].task;
            cs.submitted = classSubmitted[c];
            cs.rejected = classRejected[c];
            cs.retried = classRetried[c];
            cs.shed = classShed[c];
            std::vector<sim::Tick> lat = latencies[c];
            std::sort(lat.begin(), lat.end());
            cs.completed = lat.size();
            if (!lat.empty()) {
                cs.p50 = percentile(lat, 0.50);
                cs.p95 = percentile(lat, 0.95);
                cs.p99 = percentile(lat, 0.99);
                cs.maxLatency = lat.back();
                double sum = 0.0;
                for (sim::Tick t : lat)
                    sum += sim::toMilliseconds(t);
                cs.meanLatencyMs = sum
                                   / static_cast<double>(lat.size());
            }
            r.submitted += cs.submitted;
            r.completed += cs.completed;
            r.rejected += cs.rejected;
            r.retried += cs.retried;
            r.shed += cs.shed;
            r.classes.push_back(cs);
        }
        r.lastCompletion = lastCompletion;
        r.peakInflight = peakInflight;
        r.peakQueued = peakQueued;
        r.fingerprint = fingerprint;
        double window = sim::toSeconds(plan.duration);
        r.offeredPerSec = static_cast<double>(r.submitted) / window;
        double span = sim::toSeconds(
            std::max(lastCompletion, plan.duration));
        r.achievedPerSec = static_cast<double>(r.completed) / span;
        return r;
    }

  private:
    /** Nearest-rank percentile of an ascending non-empty vector. */
    static sim::Tick
    percentile(const std::vector<sim::Tick> &sorted, double q)
    {
        auto n = static_cast<double>(sorted.size());
        auto rank = static_cast<std::size_t>(std::ceil(q * n));
        rank = std::min(std::max<std::size_t>(rank, 1),
                        sorted.size());
        return sorted[rank - 1];
    }

    sim::Tick
    arrivalGap(std::uint64_t idx) const
    {
        double u = fault::unitDraw(plan.seed, kArrivalSite, idx, 0);
        double seconds = 0.0;
        if (plan.arrival == ArrivalKind::Poisson)
            seconds = -std::log1p(-u) / plan.ratePerSec;
        else
            seconds = 2.0 * u / plan.ratePerSec;
        return sim::fromSeconds(seconds);
    }

    sim::Tick
    thinkGap(int client, std::uint64_t iter) const
    {
        double u = fault::unitDraw(
            plan.seed, kThinkSite,
            static_cast<std::uint64_t>(client), iter);
        double mean = sim::toSeconds(plan.thinkMean);
        return sim::fromSeconds(-std::log1p(-u) * mean);
    }

    int
    pickClass(std::uint64_t qid) const
    {
        if (plan.classes.size() == 1)
            return 0;
        double u = fault::unitDraw(plan.seed, kMixSite, qid, 0);
        double target = u * plan.totalWeight();
        double cum = 0.0;
        for (std::size_t c = 0; c < plan.classes.size(); ++c) {
            cum += plan.classes[c].weight;
            if (target < cum)
                return static_cast<int>(c);
        }
        return static_cast<int>(plan.classes.size()) - 1;
    }

    QueryTicket
    makeTicket()
    {
        QueryTicket t;
        t.qid = nextQid++;
        t.classIdx = pickClass(t.qid);
        t.arrival = simulator.now();
        ++classSubmitted[static_cast<std::size_t>(t.classIdx)];
        return t;
    }

    sim::Coro<void>
    openSource()
    {
        for (std::uint64_t idx = 0;; ++idx) {
            if (plan.arrival == ArrivalKind::Trace) {
                if (idx >= plan.trace.size())
                    break;
                sim::Tick at = plan.trace[idx];
                if (at >= plan.duration)
                    break;
                if (at > simulator.now())
                    co_await sim::delay(at - simulator.now());
            } else {
                co_await sim::delay(arrivalGap(idx));
                if (simulator.now() >= plan.duration)
                    break;
            }
            QueryTicket t = makeTicket();
            simulator.spawnDetached(
                queryLife(t),
                strprintf("traffic.q%llu",
                          static_cast<unsigned long long>(t.qid)));
        }
    }

    sim::Coro<void>
    client(int c)
    {
        for (std::uint64_t iter = 0;; ++iter) {
            if (plan.thinkMean > 0)
                co_await sim::delay(thinkGap(c, iter));
            if (simulator.now() >= plan.duration)
                break;
            co_await queryLife(makeTicket());
        }
    }

    /** Admission, execution, and accounting of one query. */
    sim::Coro<void>
    queryLife(QueryTicket t)
    {
        if (plan.maxQueue >= 0 && inflight >= plan.maxInflight
            && policy->queued()
                   >= static_cast<std::size_t>(plan.maxQueue)) {
            ++classRejected[static_cast<std::size_t>(t.classIdx)];
            co_return;
        }
        sim::Trigger &admitted = gates[t.qid];
        policy->enqueue(t);
        peakQueued = std::max<std::uint64_t>(peakQueued,
                                             policy->queued());
        pump();
        co_await admitted.wait();
        gates.erase(t.qid);
        auto cls = static_cast<std::size_t>(t.classIdx);
        // SLO shed: a query whose queueing delay alone already blew
        // the objective cannot possibly meet it — free the slot for
        // one that can. This is what keeps a degraded machine (a
        // takeover buddy absorbing a victim's load) from dragging an
        // ever-growing backlog of doomed queries behind it.
        if (plan.slo > 0 && simulator.now() - t.arrival > plan.slo) {
            ++classShed[cls];
            --inflight;
            pump();
            co_return;
        }
        sim::Tick began = simulator.now();
        std::uint64_t bytes = co_await exec.run(
            t.qid, memShare, plan.classes[cls].task, datasets[cls]);
        // Client-visible retry, exactly once: only queries whose
        // first attempt overlapped a death instant re-execute (on a
        // disjoint stream band). Aliveness is plan arithmetic, so
        // which queries retry is identical across job counts. The
        // takeover redirect already keeps a degraded attempt's output
        // byte-equal — the assert below is the availability contract,
        // checked on every retry.
        if (!stopSched.empty()
            && stopSched.deathWithin(began, simulator.now())) {
            ++classRetried[cls];
            std::uint64_t again = co_await exec.run(
                t.qid + kRetryStreamOffset, memShare,
                plan.classes[cls].task, datasets[cls]);
            if (again != bytes) {
                panic("traffic: query %llu retry produced %llu "
                      "output bytes, first attempt %llu — degraded "
                      "execution broke output invariance",
                      static_cast<unsigned long long>(t.qid),
                      static_cast<unsigned long long>(again),
                      static_cast<unsigned long long>(bytes));
            }
        }
        --inflight;
        record(t);
        pump();
    }

    /** Fill free slots in policy order. */
    void
    pump()
    {
        while (inflight < plan.maxInflight && !policy->empty()) {
            QueryTicket next = policy->dequeue();
            ++inflight;
            peakInflight = std::max(peakInflight, inflight);
            auto it = gates.find(next.qid);
            if (it == gates.end())
                panic("traffic: admitted query %llu has no gate",
                      static_cast<unsigned long long>(next.qid));
            it->second.fire();
        }
    }

    void
    record(const QueryTicket &t)
    {
        sim::Tick now = simulator.now();
        sim::Tick latency = now - t.arrival;
        auto cls = static_cast<std::size_t>(t.classIdx);
        latencies[cls].push_back(latency);
        lastCompletion = std::max(lastCompletion, now);
        fingerprint = fault::mix64(fingerprint ^ t.qid);
        fingerprint = fault::mix64(
            fingerprint ^ static_cast<std::uint64_t>(t.classIdx));
        fingerprint = fault::mix64(fingerprint ^ now);
        fingerprint = fault::mix64(fingerprint ^ latency);
        if (session) {
            session->metrics()
                .histogram("traffic.latency_us."
                           + workload::taskName(
                               plan.classes[cls].task))
                .sample(latency / 1000);
        }
    }

    sim::Simulator &simulator;
    const TrafficPlan &plan;
    QueryExec &exec;
    std::unique_ptr<TrafficPolicy> policy;
    fault::StopSchedule stopSched;
    obs::Session *session;

    std::vector<workload::DatasetSpec> datasets;
    std::vector<std::vector<sim::Tick>> latencies;
    std::vector<std::uint64_t> classSubmitted;
    std::vector<std::uint64_t> classRejected;
    std::vector<std::uint64_t> classRetried;
    std::vector<std::uint64_t> classShed;
    std::map<std::uint64_t, sim::Trigger> gates;

    double memShare = 1.0;
    std::uint64_t nextQid = 0;
    int inflight = 0;
    int peakInflight = 0;
    std::uint64_t peakQueued = 0;
    sim::Tick lastCompletion = 0;
    std::uint64_t fingerprint = 0;
};

/** Unique, launch-ordered label for the run's obs session. */
std::string
trafficLabel(const core::ExperimentConfig &config)
{
    static std::atomic<unsigned> nextRun{0};
    unsigned seq = nextRun.fetch_add(1, std::memory_order_relaxed);
    return strprintf("traffic_%03u_%s_d%d", seq,
                     core::archName(config.arch).c_str(),
                     config.scale);
}

/** Publish run totals into the session's metrics JSON. */
void
publishTrafficMetrics(obs::Session *sess, const TrafficResult &r)
{
    if (!sess)
        return;
    auto &m = sess->metrics();
    m.counter("traffic.submitted").add(r.submitted);
    m.counter("traffic.completed").add(r.completed);
    m.counter("traffic.rejected").add(r.rejected);
    m.counter("traffic.peak_inflight")
        .add(static_cast<std::uint64_t>(r.peakInflight));
    m.counter("traffic.peak_queued").add(r.peakQueued);
    m.counter("traffic.retried").add(r.retried);
    m.counter("traffic.shed").add(r.shed);
}

/** Build the driver, drain the simulation, and summarize. */
TrafficResult
drive(sim::Simulator &simulator, const TrafficPlan &plan,
      QueryExec &exec, const fault::StopSchedule &stops,
      obs::Session *sess)
{
    Driver driver(simulator, plan, exec, stops, sess);
    driver.start();
    simulator.run();
    TrafficResult result = driver.finish();
    publishTrafficMetrics(sess, result);
    return result;
}

} // namespace

TrafficResult
runTraffic(const core::ExperimentConfig &config)
{
    TrafficPlan plan = config.traffic.empty()
                           ? TrafficPlan::fromEnv()
                           : TrafficPlan::parse(config.traffic);
    if (plan.duration == 0) {
        fatal("runTraffic: no traffic plan (set "
              "ExperimentConfig::traffic or HOWSIM_TRAFFIC)");
    }
    return runTraffic(config, plan);
}

TrafficResult
runTraffic(const core::ExperimentConfig &config,
           const TrafficPlan &plan)
{
    if (plan.duration == 0 || plan.classes.empty())
        fatal("runTraffic: plan is not configured (duration.ms and "
              "a query mix are required)");
    fault::FaultPlan fplan
        = config.faults.empty()
              ? fault::FaultPlan::fromEnv()
              : fault::FaultPlan::parse(config.faults);
    core::validateConfig(config, fplan);
    // Fail-stop plans run under traffic: the machines' takeover
    // redirect keeps every attempt's output correct, and the driver's
    // resolved schedule decides (pure plan arithmetic) which queries
    // retry. The schedule is resolved once here, identically to the
    // machine's own resolution.
    fault::StopSchedule stops
        = fplan.stopConfigured()
              ? fault::StopSchedule::resolve(fplan, config.scale)
              : fault::StopSchedule{};
    auto obsSession = obs::Session::fromEnv(trafficLabel(config));
    fault::Scope faultScope(fplan);
    sim::Simulator simulator;
    switch (config.arch) {
      case core::Arch::ActiveDisk: {
        diskos::AdParams params;
        params.memoryBytes = config.adMemoryBytes;
        params.interconnectRate = config.interconnectRate;
        params.interconnectLoops = config.interconnectLoops;
        params.directD2d = config.directD2d;
        params.frontendCpuMhz = config.adFrontendMhz;
        diskos::ActiveDiskArray machine(simulator, config.scale,
                                        config.drive, params);
        AdExec exec(simulator, machine, config.costs);
        auto result = drive(simulator, plan, exec, stops,
                            obsSession.get());
        if (obsSession)
            obsSession->dump();
        return result;
      }
      case core::Arch::Cluster: {
        arch::ClusterMachine machine(simulator, config.scale,
                                     config.drive);
        ClusterExec exec(simulator, machine, config.costs);
        auto result = drive(simulator, plan, exec, stops,
                            obsSession.get());
        if (obsSession)
            obsSession->dump();
        return result;
      }
      case core::Arch::Smp: {
        smp::SmpParams params;
        params.fcRate = config.interconnectRate;
        params.fcLoops = config.interconnectLoops;
        smp::SmpMachine machine(simulator, config.scale,
                                config.scale, config.drive, params);
        SmpExec exec(simulator, machine, config.costs);
        auto result = drive(simulator, plan, exec, stops,
                            obsSession.get());
        if (obsSession)
            obsSession->dump();
        return result;
      }
    }
    panic("unknown Arch");
}

} // namespace howsim::traffic

/**
 * @file Golden fingerprints: a fixed set of runs whose simulated
 * results are pinned, bit for bit, by a committed table
 * (golden_table.txt next to this file).
 *
 * Each op is one batch experiment or one traffic run at 8 disks:
 *  - every task on the Active Disk array and on the cluster;
 *  - select, groupby and sort on the SMP (its dcube takes seconds);
 *  - select on every architecture under one fail-stop + rejoin +
 *    rebuild plan that also injects media errors and frame drops;
 *  - one small open-loop traffic mix per architecture.
 *
 * An op's fingerprint is one line of text: elapsed ticks, output and
 * interconnect bytes, every accounting bucket printed with %a (exact
 * bits), the detector's observations, the traffic digest and per-class
 * counts, and the number of simulated events the op executed. A
 * refactor that claims not to change the model must leave every line
 * unchanged. A model change that moves a line regenerates the table:
 * each failure prints the op's new line in the table's format.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "traffic/driver.hh"

using namespace howsim;
using core::Arch;
using core::ExperimentConfig;
using workload::TaskKind;

namespace
{

/** Fail-stop of drive 1 at 2 s with a rejoin at 5 s and a rebuild. */
constexpr const char *kFaultPlan
    = "seed=11,disk.media.rate=1e-3,net.drop.rate=1e-3,stop.disk=1,"
      "stop.at.ms=2000,stop.restart.ms=5000,hb.period.ms=5,"
      "rebuild.rate.mbs=32";

/** A 4:2:1 select/groupby/join mix, about 20 queries. */
constexpr const char *kTrafficPlan
    = "seed=7,loop=open,arrival=poisson,rate=200,duration.ms=100,"
      "max.inflight=4,mix.select=4,mix.groupby=2,mix.join=1,"
      "cap.select=0.002,cap.groupby=0.002,cap.join=0.002";

constexpr int kScale = 8;

struct GoldenOp
{
    std::string name;
    Arch arch;
    TaskKind task;
    const char *faults;  //!< "" = fault-free
    const char *traffic; //!< null = batch run
};

void
PrintTo(const GoldenOp &op, std::ostream *os)
{
    *os << op.name;
}

std::vector<GoldenOp>
goldenOps()
{
    std::vector<GoldenOp> ops;
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster}) {
        for (TaskKind task : workload::allTasks) {
            ops.push_back({core::archName(arch) + "_"
                               + workload::taskName(task),
                           arch, task, "", nullptr});
        }
    }
    for (TaskKind task :
         {TaskKind::Select, TaskKind::GroupBy, TaskKind::Sort}) {
        ops.push_back({"smp_" + workload::taskName(task), Arch::Smp,
                       task, "", nullptr});
    }
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster, Arch::Smp}) {
        ops.push_back({core::archName(arch) + "_select_faulted", arch,
                       TaskKind::Select, kFaultPlan, nullptr});
    }
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster, Arch::Smp}) {
        ops.push_back({core::archName(arch) + "_traffic", arch,
                       TaskKind::Select, "", kTrafficPlan});
    }
    return ops;
}

std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

std::string
batchLine(const tasks::TaskResult &r, std::uint64_t events)
{
    const fault::AvailabilityStats &a = r.availability;
    std::string line = strprintf(
        "elapsed=%" PRIu64 " output=%" PRIu64 " interconnect=%" PRIu64
        " events=%" PRIu64,
        r.elapsedTicks, r.outputBytes, r.interconnectBytes, events);
    for (const auto &[name, value] : r.buckets.all())
        line += " " + name + "=" + hexDouble(value);
    line += strprintf(" hb=%" PRIu64 " deaths=%" PRIu64
                      " rejoins=%" PRIu64 " detect=%" PRIu64
                      "/%" PRIu64 " rebuilt=%" PRIu64,
                      a.heartbeats, a.deaths, a.rejoins,
                      a.detectLatencyTotal, a.detectLatencyMax,
                      a.rebuiltBytes);
    return line;
}

std::string
trafficLine(const traffic::TrafficResult &r, std::uint64_t events)
{
    std::string line = strprintf(
        "fingerprint=%016" PRIx64 " last=%" PRIu64 " events=%" PRIu64
        " peak=%d/%" PRIu64,
        r.fingerprint, r.lastCompletion, events, r.peakInflight,
        r.peakQueued);
    for (const traffic::ClassStats &c : r.classes) {
        line += strprintf(" %s=%" PRIu64 "/%" PRIu64 "/%" PRIu64
                          "/%" PRIu64 "/%" PRIu64 "/%" PRIu64
                          "/%" PRIu64,
                          workload::taskName(c.task).c_str(),
                          c.submitted, c.completed, c.rejected,
                          c.retried, c.shed, c.p50, c.p99);
    }
    return line;
}

/** Run @p op and return its fingerprint line (without the name). */
std::string
runOp(const GoldenOp &op)
{
    ExperimentConfig config;
    config.arch = op.arch;
    config.task = op.task;
    config.scale = kScale;
    config.faults = op.faults;
    std::uint64_t events0 = sim::totalEventsExecuted();
    if (op.traffic) {
        config.traffic = op.traffic;
        traffic::TrafficResult r = traffic::runTraffic(config);
        return trafficLine(r, sim::totalEventsExecuted() - events0);
    }
    tasks::TaskResult r = core::runExperiment(config);
    return batchLine(r, sim::totalEventsExecuted() - events0);
}

/** The committed table: op name -> fingerprint line. */
const std::map<std::string, std::string> &
goldenTable()
{
    static const std::map<std::string, std::string> table = [] {
        std::map<std::string, std::string> t;
        std::ifstream in(GOLDEN_TABLE_PATH);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::size_t sp = line.find(' ');
            if (sp != std::string::npos)
                t[line.substr(0, sp)] = line.substr(sp + 1);
        }
        return t;
    }();
    return table;
}

class Golden : public ::testing::TestWithParam<GoldenOp>
{
  protected:
    void
    SetUp() override
    {
        // Every op spells out its own fault plan; an ambient one
        // must not leak into the fault-free runs.
        unsetenv("HOWSIM_FAULTS");
    }
};

} // namespace

TEST_P(Golden, MatchesTable)
{
    const GoldenOp &op = GetParam();
    const auto &table = goldenTable();
    auto it = table.find(op.name);
    std::string got = runOp(op);
    ASSERT_NE(it, table.end())
        << "no row for " << op.name << " in " << GOLDEN_TABLE_PATH
        << "; this run gives:\n"
        << op.name << " " << got;
    EXPECT_EQ(got, it->second) << "table row for this run:\n"
                               << op.name << " " << got;
}

TEST(GoldenTable, HasOneRowPerOp)
{
    EXPECT_EQ(goldenTable().size(), goldenOps().size());
}

INSTANTIATE_TEST_SUITE_P(
    Ops, Golden, ::testing::ValuesIn(goldenOps()),
    [](const ::testing::TestParamInfo<GoldenOp> &info) {
        return info.param.name;
    });

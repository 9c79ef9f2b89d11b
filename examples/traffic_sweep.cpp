/**
 * @file
 * Multi-user latency/throughput sweep: offer an open-loop query mix
 * to each architecture at the paper's scales and print latency
 * percentiles versus offered load. This is the view the paper's
 * single-query figures exclude — how each architecture degrades as
 * concurrent decision support queries contend for the same disks,
 * interconnect, and memory.
 *
 * The mix is 4:2:1 select:groupby:join over capped (sub-scale)
 * datasets so each query is short enough to build a distribution
 * from; max.inflight=4 concurrent queries share the machine, and
 * everything beyond queues. Timelines are bit-identical across
 * HOWSIM_JOBS settings — the per-run fingerprint table at the end is
 * what CI asserts on.
 *
 * Usage: traffic_sweep [--quick]
 *   --quick   16 disks and two offered loads only (CI smoke)
 */

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"
#include "traffic/driver.hh"
#include "traffic/plan.hh"
#include "workload/task_kind.hh"

using namespace howsim;
using core::Arch;
using core::ExperimentConfig;

namespace
{

constexpr const char *kMixSpec
    = "seed=7,loop=open,arrival=poisson,duration.ms=1000,"
      "max.inflight=4,"
      "mix.select=4,mix.groupby=2,mix.join=1,"
      "cap.select=0.002,cap.groupby=0.002,cap.join=0.001";

struct SweepPoint
{
    Arch arch;
    int scale;
    double rate;
    traffic::TrafficResult result;
};

std::string
specFor(double rate, bool quick)
{
    std::string spec = kMixSpec;
    spec += ",rate=" + core::Table::num(rate, 0);
    if (quick) {
        // Shorten the submission window for the CI smoke run.
        spec += ",duration.ms=300";
    }
    return spec;
}

/** Run every point on defaultJobs() threads; order-stable output. */
void
runPoints(std::vector<SweepPoint> &points, bool quick)
{
    std::atomic<std::size_t> next{0};
    int jobs = std::min<int>(core::defaultJobs(),
                             static_cast<int>(points.size()));
    std::vector<std::thread> pool;
    for (int j = 0; j < jobs; ++j) {
        pool.emplace_back([&] {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= points.size())
                    return;
                SweepPoint &p = points[i];
                ExperimentConfig config;
                config.arch = p.arch;
                config.scale = p.scale;
                config.traffic = specFor(p.rate, quick);
                p.result = traffic::runTraffic(config);
            }
        });
    }
    for (auto &t : pool)
        t.join();
}

std::string
ms(sim::Tick t)
{
    return core::Table::num(sim::toMilliseconds(t), 2);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    std::vector<int> scales
        = quick ? std::vector<int>{16}
                : std::vector<int>{16, 32, 64, 128};
    std::vector<double> rates
        = quick ? std::vector<double>{10, 40}
                : std::vector<double>{5, 10, 20, 40, 80};

    std::vector<SweepPoint> points;
    for (Arch arch :
         {Arch::ActiveDisk, Arch::Cluster, Arch::Smp}) {
        for (int scale : scales) {
            for (double rate : rates)
                points.push_back({arch, scale, rate, {}});
        }
    }
    runPoints(points, quick);

    core::Table curves({"arch", "disks", "offered/s", "achieved/s",
                        "class", "done", "drop", "p50.ms", "p95.ms",
                        "p99.ms"});
    for (const SweepPoint &p : points) {
        for (const traffic::ClassStats &c : p.result.classes) {
            curves.addRow({core::archName(p.arch),
                           std::to_string(p.scale),
                           core::Table::num(p.result.offeredPerSec, 1),
                           core::Table::num(p.result.achievedPerSec,
                                            1),
                           workload::taskName(c.task),
                           std::to_string(c.completed),
                           std::to_string(c.rejected), ms(c.p50),
                           ms(c.p95), ms(c.p99)});
        }
    }
    std::printf("Latency vs offered load (open loop, "
                "4:2:1 select:groupby:join, max.inflight=4):\n\n");
    curves.print();
    curves.maybeWriteCsv("traffic_sweep");

    core::Table prints({"arch", "disks", "offered/s", "fingerprint"});
    for (const SweepPoint &p : points) {
        prints.addRow({core::archName(p.arch),
                       std::to_string(p.scale),
                       core::Table::num(p.rate, 0),
                       strprintf("%016llx",
                                 static_cast<unsigned long long>(
                                     p.result.fingerprint))});
    }
    std::printf("\nTimeline fingerprints (determinism check):\n\n");
    prints.print();
    prints.maybeWriteCsv("traffic_sweep_fingerprints");
    return 0;
}

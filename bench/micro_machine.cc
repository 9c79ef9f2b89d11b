/**
 * @file
 * Microbenchmarks for the machine substrates: disk mechanism
 * service, network transport, and a whole small machine running the
 * select task. Reported rates are host-side simulation throughput.
 */

#include <benchmark/benchmark.h>

#include "disk/disk.hh"
#include "diskos/active_disk_array.hh"
#include "net/network.hh"
#include "sim/simulator.hh"
#include "tasks/task_runner.hh"
#include "workload/dataset.hh"

using namespace howsim;
using sim::Coro;
using sim::Simulator;

namespace
{

void
BM_DiskSequentialStream(benchmark::State &state)
{
    const int requests = 256;
    for (auto _ : state) {
        Simulator sim;
        disk::Disk drive(sim, disk::DiskSpec::seagateSt39102());
        auto body = [](disk::Disk *d, int n) -> Coro<void> {
            std::uint64_t lba = 0;
            for (int i = 0; i < n; ++i) {
                co_await d->access(disk::DiskRequest{lba, 512, false});
                lba += 512;
            }
        };
        sim.spawn(body(&drive, requests));
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * requests);
}
BENCHMARK(BM_DiskSequentialStream);

void
BM_NetworkAllToAll(benchmark::State &state)
{
    const int hosts = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Simulator sim;
        net::Network fabric(sim, hosts);
        auto body = [](net::Network *n, int src,
                       int hosts_) -> Coro<void> {
            for (int dst = 0; dst < hosts_; ++dst) {
                if (dst != src)
                    co_await n->transport(src, dst, 64 * 1024);
            }
        };
        for (int src = 0; src < hosts; ++src)
            sim.spawn(body(&fabric, src, hosts));
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * hosts * (hosts - 1));
}
BENCHMARK(BM_NetworkAllToAll)->Arg(16);

void
BM_ActiveDiskSelect16(benchmark::State &state)
{
    // Whole-machine benchmark: 16-disk Active Disk select over the
    // full 16 GB dataset. Wall-clock per simulated experiment.
    for (auto _ : state) {
        Simulator sim;
        diskos::ActiveDiskArray machine(
            sim, 16, disk::DiskSpec::seagateSt39102());
        tasks::TaskRunner runner(sim, machine);
        auto data = workload::DatasetSpec::forTask(
            workload::TaskKind::Select);
        auto result = runner.run(workload::TaskKind::Select, data);
        benchmark::DoNotOptimize(result.elapsedTicks);
    }
}
BENCHMARK(BM_ActiveDiskSelect16)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

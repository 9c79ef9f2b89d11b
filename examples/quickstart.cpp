/**
 * @file
 * Quickstart: build a 16-disk Active Disk machine, run the paper's
 * SQL select task on it, and print what happened.
 *
 * Build:  cmake -B build -G Ninja && cmake --build build
 * Run:    ./build/examples/quickstart [ndisks]
 */

#include <cstdio>
#include <cstdlib>

#include "diskos/active_disk_array.hh"
#include "sim/simulator.hh"
#include "tasks/task_runner.hh"
#include "workload/dataset.hh"

using namespace howsim;

int
main(int argc, char **argv)
{
    int ndisks = argc > 1 ? std::atoi(argv[1]) : 16;
    if (ndisks <= 0) {
        std::fprintf(stderr, "usage: %s [ndisks]\n", argv[0]);
        return 1;
    }

    // A simulation is three objects: the event-driven simulator, a
    // machine model, and a task runner that programs the machine.
    sim::Simulator simulator;
    diskos::ActiveDiskArray machine(simulator, ndisks,
                                    disk::DiskSpec::seagateSt39102());
    tasks::TaskRunner runner(simulator, machine);

    auto data = workload::DatasetSpec::forTask(
        workload::TaskKind::Select);
    std::printf("task    : select (%s)\n", data.describe().c_str());
    std::printf("machine : %d Active Disks (%s), %.0f MB/s dual-loop "
                "FC\n",
                ndisks, disk::DiskSpec::seagateSt39102().name.c_str(),
                machine.params().interconnectRate / 1e6);

    auto result = runner.run(workload::TaskKind::Select, data);

    std::printf("\nelapsed              : %8.2f s\n", result.seconds());
    std::printf("interconnect traffic : %8.2f MB\n",
                static_cast<double>(result.interconnectBytes) / 1e6);
    std::printf("front-end ingested   : %8.2f MB\n",
                static_cast<double>(
                    machine.frontendStats().bytesIngested) / 1e6);
    std::printf("events simulated     : %8llu\n",
                static_cast<unsigned long long>(
                    simulator.eventsExecuted()));
    for (const auto &[name, secs] : result.buckets.all())
        std::printf("bucket %-14s: %8.2f s (aggregate)\n",
                    name.c_str(), secs);
    return 0;
}

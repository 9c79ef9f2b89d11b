/**
 * @file
 * Scaling sweep: run one decision support task on Active Disk
 * machines of 16/32/64/128 drives and report the scaling curve —
 * the experiment style of the paper's Figure 1, restricted to the
 * Active Disk architecture.
 *
 * Usage: scaling_sweep [task]
 *   task: select aggregate groupby sort dcube join dmine mview all
 */

#include <cstdio>
#include <cstring>
#include <optional>

#include "diskos/active_disk_array.hh"
#include "sim/simulator.hh"
#include "tasks/task_runner.hh"
#include "workload/dataset.hh"

using namespace howsim;
using workload::TaskKind;

namespace
{

std::optional<TaskKind>
parseTask(const char *name)
{
    for (auto kind : workload::allTasks)
        if (workload::taskName(kind) == name)
            return kind;
    return std::nullopt;
}

double
runOnce(TaskKind kind, int ndisks)
{
    sim::Simulator simulator;
    diskos::ActiveDiskArray machine(simulator, ndisks,
                                    disk::DiskSpec::seagateSt39102());
    tasks::TaskRunner runner(simulator, machine);
    auto data = workload::DatasetSpec::forTask(kind);
    return runner.run(kind, data).seconds();
}

void
sweep(TaskKind kind)
{
    std::printf("%-10s", workload::taskName(kind).c_str());
    double base = 0;
    for (int n : {16, 32, 64, 128}) {
        double secs = runOnce(kind, n);
        if (n == 16)
            base = secs;
        std::printf("  %8.1fs", secs);
    }
    std::printf("   (16->128 speedup %.2fx)\n",
                base / runOnce(kind, 128));
}

} // namespace

int
main(int argc, char **argv)
{
    const char *which = argc > 1 ? argv[1] : "all";
    std::printf("Active Disk scaling sweep (16 GB-class datasets)\n");
    std::printf("%-10s  %9s  %9s  %9s  %9s\n", "task", "16 disks",
                "32 disks", "64 disks", "128 disks");
    if (std::strcmp(which, "all") == 0) {
        for (auto kind : workload::allTasks)
            sweep(kind);
        return 0;
    }
    auto kind = parseTask(which);
    if (!kind) {
        std::fprintf(stderr, "unknown task '%s'\n", which);
        return 1;
    }
    sweep(*kind);
    return 0;
}

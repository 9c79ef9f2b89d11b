/**
 * @file
 * The one place an ExperimentConfig becomes a machine: both
 * runExperiment and traffic::runTraffic build theirs here.
 */

#ifndef HOWSIM_CORE_MACHINES_HH
#define HOWSIM_CORE_MACHINES_HH

#include <type_traits>

#include "arch/cluster_machine.hh"
#include "core/experiment.hh"
#include "diskos/active_disk_array.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "smp/smp_machine.hh"
#include "tasks/smp_tasks.hh"
#include "tasks/task_runner.hh"

namespace howsim::core
{

/** The task runner that drives a @p Machine. */
template <typename Machine>
using RunnerFor
    = std::conditional_t<std::is_same_v<Machine, smp::SmpMachine>,
                         tasks::SmpTaskRunner, tasks::TaskRunner>;

/**
 * Build the machine @p config describes on @p simulator, scaled to
 * config.scale drives (and processors), and return body(machine).
 * The machine lives until @p body returns.
 */
template <typename Body>
auto
withMachine(const ExperimentConfig &config, sim::Simulator &simulator,
            Body &&body)
{
    switch (config.arch) {
      case Arch::ActiveDisk: {
        diskos::AdParams params;
        params.memoryBytes = config.adMemoryBytes;
        params.interconnectRate = config.interconnectRate;
        params.interconnectLoops = config.interconnectLoops;
        params.directD2d = config.directD2d;
        params.frontendCpuMhz = config.adFrontendMhz;
        diskos::ActiveDiskArray machine(simulator, config.scale,
                                        config.drive, params);
        return body(machine);
      }
      case Arch::Cluster: {
        arch::ClusterMachine machine(simulator, config.scale,
                                     config.drive);
        return body(machine);
      }
      case Arch::Smp: {
        smp::SmpParams params;
        params.fcRate = config.interconnectRate;
        params.fcLoops = config.interconnectLoops;
        smp::SmpMachine machine(simulator, config.scale, config.scale,
                                config.drive, params);
        return body(machine);
      }
    }
    panic("unknown Arch");
}

} // namespace howsim::core

#endif // HOWSIM_CORE_MACHINES_HH

/**
 * @file
 * Umbrella header: the public surface of the Howsim library.
 *
 * For most uses, include this and drive everything through
 * core::runExperiment / core::ExperimentConfig (see
 * examples/howsim_cli.cpp). Pull individual headers instead when you
 * are building custom machines or disklets.
 */

#ifndef HOWSIM_HOWSIM_HH
#define HOWSIM_HOWSIM_HH

// Kernel
#include "sim/awaitables.hh"
#include "sim/channel.hh"
#include "sim/coro.hh"
#include "sim/random.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

// Hardware substrates
#include "bus/bus.hh"
#include "disk/disk.hh"
#include "net/msg.hh"
#include "net/network.hh"

// Operating-system layers
#include "os/async_io.hh"
#include "os/cpu.hh"
#include "os/raw_disk.hh"

// Machines
#include "arch/cluster_machine.hh"
#include "arch/cost_model.hh"
#include "diskos/active_disk_array.hh"
#include "diskos/disklet.hh"
#include "smp/smp_machine.hh"

// Workload and tasks
#include "tasks/smp_tasks.hh"
#include "tasks/task_runner.hh"
#include "workload/cost_model.hh"
#include "workload/dataset.hh"

// Top-level driver
#include "core/experiment.hh"
#include "core/report.hh"

namespace howsim
{

/** Library version. */
inline constexpr int versionMajor = 1;
inline constexpr int versionMinor = 0;

} // namespace howsim

#endif // HOWSIM_HOWSIM_HH

/**
 * @file
 * SMP implementations of the eight decision support tasks.
 *
 * Per the paper's SMP tuning: files are striped over all drives in
 * 64 KB chunks; processors claim fixed-size blocks off shared
 * (spinlock-protected) queues in disk order rather than partitioning
 * the input a priori, which keeps requests roughly sequential at the
 * drives; sort and join split the farm into separate read and write
 * disk groups; data movement between processors uses one-way block
 * transfers over the scalable memory fabric. Every byte read from or
 * written to disk crosses the single shared Fibre Channel
 * interconnect — the property that makes it the bottleneck.
 */

#ifndef HOWSIM_TASKS_SMP_TASKS_HH
#define HOWSIM_TASKS_SMP_TASKS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "smp/smp_machine.hh"
#include "sim/simulator.hh"
#include "tasks/task_result.hh"
#include "workload/cost_model.hh"
#include "workload/dataset.hh"

namespace howsim::tasks
{

/** Runs the workload suite on an SMP machine. */
class SmpTaskRunner
{
  public:
    SmpTaskRunner(sim::Simulator &s, smp::SmpMachine &machine,
                  workload::CostModel costs
                      = workload::CostModel::calibrated());

    /** Execute @p kind over @p data (fresh Simulator per call). */
    TaskResult run(workload::TaskKind kind,
                   const workload::DatasetSpec &data);

    /**
     * Re-entrant variant for the traffic driver: spawns the same
     * workers and joins them without draining the simulator, so
     * several runner instances can execute concurrently on one
     * machine. Work queues are per-instance already; each instance
     * additionally needs a distinct stream id (@ref setStream) for
     * its phase barriers. Timing lands in @ref lastResult;
     * interconnectBytes stays 0 (the FC loop is shared).
     */
    sim::Coro<void> runConcurrent(workload::TaskKind kind,
                                  const workload::DatasetSpec &data);

    /** Stream id isolating this instance's barriers. */
    void setStream(int s) { stream = s; }

    /**
     * Fraction of the machine memory this instance plans with
     * (working-set accounting under concurrency; default 1.0).
     */
    void setMemoryShare(double f) { memShare = f; }

    const TaskResult &lastResult() const { return result; }

    /** Drop this instance's per-stream machine state after a query. */
    void retireStream() { machine.retireStream(stream); }

  private:
    /** Shared block queues created per run; workers index into it. */
    using Queues
        = std::vector<std::unique_ptr<smp::SmpMachine::SharedQueue>>;

    /** Processor @p p's compute, charged to @p bucket. */
    ChargedCompute computeIn(int p, const char *bucket,
                             sim::Tick ref_ticks);

    /** Spawn the worker set for @p kind; shared by run paths. */
    std::vector<sim::ProcessRef>
    launch(workload::TaskKind kind, const workload::DatasetSpec &data,
           Queues *qs);

    sim::Coro<void> barrier() { return machine.barrier(stream); }

    /** This instance's share of the machine memory for @p n CPUs. */
    std::uint64_t
    totalMemory(int n) const
    {
        return static_cast<std::uint64_t>(
            memShare
            * static_cast<double>(machine.params().totalMemory(n)));
    }

    sim::Coro<void> scanWorker(int p, Queues *qs,
                               const workload::DatasetSpec &data,
                               workload::TaskKind kind);
    sim::Coro<void> sortWorker(int p, Queues *qs,
                               const workload::DatasetSpec &data);
    sim::Coro<void> joinWorker(int p, Queues *qs,
                               const workload::DatasetSpec &data);
    sim::Coro<void> dcubeWorker(int p, Queues *qs,
                                const workload::DatasetSpec &data);
    sim::Coro<void> dmineWorker(int p, Queues *qs,
                                const workload::DatasetSpec &data);
    sim::Coro<void> mviewWorker(int p, Queues *qs,
                                const workload::DatasetSpec &data);

    int cpus() const { return machine.cpuCount(); }

    sim::Simulator &simulator;
    smp::SmpMachine &machine;
    workload::CostModel cm;
    TaskResult result;
    int stream = 0;
    double memShare = 1.0;
};

} // namespace howsim::tasks

#endif // HOWSIM_TASKS_SMP_TASKS_HH

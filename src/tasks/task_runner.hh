/**
 * @file
 * The eight decision support tasks on a shared-nothing machine: an
 * Active Disk array or a commodity cluster.
 *
 * Both architectures run the same per-task sequence of local reads,
 * compute and communication; only the machine differs, and that
 * difference lives in tasks::Fabric. Each device runs a worker (on
 * Active Disks, a disklet pipeline on the drive's embedded CPU; on the
 * cluster, a process on the node's CPU reading through the OS and PCI
 * bus) that streams its local partition in 256 KB blocks, computes,
 * and repartitions or reduces data across the interconnect. A
 * front-end process consumes the results. Processing is
 * order-independent, as the paper tunes its codes.
 */

#ifndef HOWSIM_TASKS_TASK_RUNNER_HH
#define HOWSIM_TASKS_TASK_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/awaitables.hh"
#include "sim/channel.hh"
#include "sim/simulator.hh"
#include "tasks/fabric.hh"
#include "tasks/task_result.hh"
#include "workload/cost_model.hh"
#include "workload/dataset.hh"

namespace howsim::tasks
{

/** Runs the workload suite on an Active Disk array or a cluster. */
class TaskRunner
{
  public:
    TaskRunner(sim::Simulator &s, diskos::ActiveDiskArray &machine,
               workload::CostModel costs
                   = workload::CostModel::calibrated());

    TaskRunner(sim::Simulator &s, arch::ClusterMachine &machine,
               workload::CostModel costs
                   = workload::CostModel::calibrated());

    // Spawned workers hold `this`.
    TaskRunner(const TaskRunner &) = delete;
    TaskRunner &operator=(const TaskRunner &) = delete;

    /**
     * Execute @p kind over @p data. Spawns the workers, runs the
     * simulation to completion, and reports timing. Must be called
     * on a freshly constructed Simulator/machine pair.
     */
    TaskResult run(workload::TaskKind kind,
                   const workload::DatasetSpec &data);

    /**
     * Re-entrant variant for the traffic driver: spawns the same
     * workers and joins them without draining the simulator, so
     * several runner instances can execute concurrently on one
     * machine. Each instance must carry a distinct stream id (set
     * @ref setStream before the first call), which isolates its
     * inboxes, message tags and barriers. Timing lands in
     * @ref lastResult. interconnectBytes stays 0: the interconnect is
     * shared, so per-query attribution is meaningless.
     */
    sim::Coro<void> runConcurrent(workload::TaskKind kind,
                                  const workload::DatasetSpec &data);

    /** Stream id isolating this instance's traffic and barriers. */
    void setStream(int s) { fabric->setStream(s); }

    /**
     * Fraction of the per-device memory this instance plans with
     * (working-set accounting under concurrency; default 1.0).
     */
    void setMemoryShare(double f) { memShare = f; }

    const TaskResult &lastResult() const { return result; }

    /** Drop this instance's per-stream machine state after a query. */
    void retireStream() { fabric->retireStream(); }

  private:
    TaskRunner(sim::Simulator &s, std::unique_ptr<Fabric> fabric,
               workload::CostModel costs);

    using BlockFn = std::function<sim::Coro<void>(std::uint64_t)>;

    /** @name Plumbing */
    /** @{ */
    sim::Coro<void> computeIn(int d, const char *bucket,
                              sim::Tick ref_ticks);
    sim::Coro<void> ioProducer(int d, std::uint64_t base,
                               std::uint64_t bytes,
                               sim::Channel<std::uint64_t> *ch);
    sim::Coro<void> streamLocal(int d, std::uint64_t base,
                                std::uint64_t bytes, BlockFn consume);
    sim::Coro<void> emitToFrontend(int d, std::uint64_t bytes,
                                   std::uint64_t *pending, bool flush);
    sim::Coro<void> frontendConsumer(sim::Tick per_byte_merge_ref);

    /**
     * Stream [@p base, @p base + @p bytes) of device @p d's
     * partition, charge @p per_tuple_ref per input tuple to
     * @p bucket, and repartition @p ratio of it round-robin across
     * the devices in @p phase, starting at d + 1. The remainder stays
     * local; then every collector gets a done marker.
     */
    sim::Coro<void> partitionWorker(int d, int phase,
                                    std::uint64_t base,
                                    std::uint64_t bytes,
                                    std::uint32_t tuple_bytes,
                                    const char *bucket,
                                    sim::Tick per_tuple_ref,
                                    double ratio);

    /**
     * Receive device @p d's blocks in @p phase until every device's
     * done marker has arrived, charging @p per_tuple_ref per tuple to
     * @p cpu_bucket and writing them from @p write_base on, if given.
     */
    sim::Coro<void> shuffleCollector(
        int d, int phase, std::optional<std::uint64_t> write_base,
        sim::Tick per_tuple_ref, std::uint32_t tuple_bytes,
        const char *cpu_bucket);
    /** @} */

    /** Per-tuple cost and emission ratio of one scan-family task. */
    struct ScanCosts
    {
        sim::Tick perTuple = 0;
        double emitRatio = 0.0;
    };

    ScanCosts scanCosts(workload::TaskKind kind,
                        const workload::DatasetSpec &data) const;

    /** @name Per-device task workers */
    /** @{ */
    sim::Coro<void> scanWorker(int d, const workload::DatasetSpec &data,
                               workload::TaskKind kind);
    sim::Coro<void> sortCollector(int d,
                                  const workload::DatasetSpec &data);
    sim::Coro<void> sortMergeWorker(int d,
                                    const workload::DatasetSpec &data);
    sim::Coro<void> joinWorker(int d, const workload::DatasetSpec &data);
    sim::Coro<void> dcubeWorker(int d,
                                const workload::DatasetSpec &data);
    sim::Coro<void> dmineWorker(int d,
                                const workload::DatasetSpec &data);
    sim::Coro<void> mviewWorker(int d,
                                const workload::DatasetSpec &data);
    sim::Coro<void> sortCoordinator();
    sim::Coro<void> dmineFrontend(const workload::DatasetSpec &data);
    /** @} */

    /** @name Sort coordination (DESIGN.md §14)
     *
     * launch() pre-spawns every phase's workers — phase 2 parked on
     * a per-device go trigger — and the front-end coordinator counts
     * keyed done-notifications and broadcasts the phase-2 go, one
     * crossLatency() hop each way.
     */
    /** @{ */

    /** Post a keyed done-notification from device @p d. */
    void notifySortDone(int d, int *remaining, sim::Trigger *done);

    /** Run @p body, then notify the front-end coordinator. */
    sim::Coro<void> runAndNotify(sim::Coro<void> body, int d,
                                 int *remaining, sim::Trigger *done);

    /** Park on the phase-2 go trigger, then merge and notify. */
    sim::Coro<void> sortPhase2Worker(int d,
                                     const workload::DatasetSpec &data);
    /** @} */

    /** Fold the per-device shards into `result`, in device order. */
    void foldShards();

    /** Spawn the worker set for @p kind; shared by run paths. */
    std::vector<sim::ProcessRef>
    launch(workload::TaskKind kind, const workload::DatasetSpec &data);

    int size() const { return fabric->size(); }

    /** This instance's share of the per-device memory. */
    std::uint64_t
    memory() const
    {
        return static_cast<std::uint64_t>(
            memShare * static_cast<double>(fabric->memoryBytes()));
    }

    /** Where a device writes intermediates (input lies below). */
    std::uint64_t
    writeRegion() const
    {
        return fabric->driveCapacity() * 2 / 5;
    }

    /** Where a device writes task output. */
    std::uint64_t
    outputRegion() const
    {
        return fabric->driveCapacity() * 3 / 4;
    }

    sim::Simulator &simulator;
    std::unique_ptr<Fabric> fabric;
    workload::CostModel cm;
    TaskResult result;

    /**
     * Per-device result shards: device d's workers write only
     * shards[d]; run()/runConcurrent fold them into `result` in device
     * order after the run, so the floating-point bucket sums have one
     * fixed order. Front-end writers touch `result` directly.
     */
    std::vector<TaskResult> shards;

    // Keyed coordination streams, allocated in fixed order at
    // construction: doneKeys[d] keys device d's notifications, goKeys
    // the front-end's.
    std::vector<sim::KeyStream> doneKeys;
    sim::KeyStream goKeys;

    // Sort-phase coordination state, reset by each launch().
    int sortP1Remaining = 0;
    int sortP2Remaining = 0;
    sim::Trigger sortP1Done;
    sim::Trigger sortP2Done;
    std::vector<std::unique_ptr<sim::Trigger>> sortGo;

    double memShare = 1.0;

    // Fail-stop needs no runner state: a dead device's workers keep
    // running and the machine hardware-redirects their operations to
    // the takeover peer (fault::Takeover::route), so every task gets
    // the degraded path for free.
};

} // namespace howsim::tasks

#endif // HOWSIM_TASKS_TASK_RUNNER_HH

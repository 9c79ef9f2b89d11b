/**
 * @file
 * The shared-nothing machine as the task runner sees it: devices
 * with a CPU and local media, block transport between devices and to
 * a front-end host, a barrier, and dmine's counter exchange.
 *
 * The Active Disk array and the commodity cluster each implement this
 * interface (makeFabric). Everything the two architectures do
 * differently lives behind it, so the task runner
 * (tasks/task_runner.hh) never branches on architecture.
 */

#ifndef HOWSIM_TASKS_FABRIC_HH
#define HOWSIM_TASKS_FABRIC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "os/cpu.hh"
#include "sim/coro.hh"
#include "sim/ticks.hh"
#include "tasks/task_result.hh"

namespace howsim::arch
{
class ClusterMachine;
} // namespace howsim::arch

namespace howsim::diskos
{
class ActiveDiskArray;
} // namespace howsim::diskos

namespace howsim::tasks
{

/** A block on the fabric: data, or a device's done marker. */
struct Block
{
    std::uint64_t bytes = 0;
    bool done = false;
};

/** Charges reference-CPU ticks to one device's task accounting. */
using ComputeFn = std::function<sim::Coro<void>(sim::Tick)>;

/**
 * Per-architecture machine interface. Devices are numbered
 * [0, size()); the front end is a separate endpoint. The stream id
 * isolates one query's inboxes, message tags and barriers from those
 * of concurrent queries (0 is the batch path).
 */
class Fabric
{
  public:
    Fabric() = default;
    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;
    virtual ~Fabric() = default;

    void setStream(int s) { stream = s; }

    /** @name Machine facts */
    /** @{ */
    virtual int size() const = 0;

    /** Per-device memory a query plans with, before its share. */
    virtual std::uint64_t memoryBytes() const = 0;

    /** Usable bytes per device disk. */
    virtual std::uint64_t driveCapacity() const = 0;

    /** Latency of one keyed coordination hop (DESIGN.md §14). */
    virtual sim::Tick crossLatency() const = 0;

    /** Bytes the shared interconnect has carried so far. */
    virtual std::uint64_t interconnectBytes() = 0;
    /** @} */

    /** @name Compute */
    /** @{ */
    virtual os::Cpu &frontendCpu() = 0;

    /** Run @p ref_ticks of reference-CPU work on device @p d. */
    virtual os::Cpu::Compute compute(int d, sim::Tick ref_ticks) = 0;

    /** Trace track and category of the devices' compute spans. */
    virtual const ComputeTrack &computeTrack() const = 0;
    /** @} */

    /** @name Local media */
    /** @{ */
    virtual sim::Coro<void> read(int d, std::uint64_t offset,
                                 std::uint64_t bytes) = 0;
    virtual sim::Coro<void> write(int d, std::uint64_t offset,
                                  std::uint64_t bytes) = 0;
    /** @} */

    /** @name Communication */
    /** @{ */

    /**
     * Send @p b from device @p src to @p dst in repartitioning
     * @p phase (0, or 1 for a task's second shuffle). @p src == @p dst
     * is the device's own share.
     */
    virtual sim::Coro<void> send(int src, int dst, int phase,
                                 Block b) = 0;

    /** Next block for device @p d in @p phase; nullopt if closed. */
    virtual sim::Coro<std::optional<Block>> recv(int d, int phase) = 0;

    virtual sim::Coro<void> sendToFrontend(int d, Block b) = 0;
    virtual sim::Coro<std::optional<Block>> recvAtFrontend() = 0;

    /** Barrier over all devices, arriving as @p d. */
    virtual sim::Coro<void> barrier(int d) = 0;
    /** @} */

    /** @name dmine's counter exchange */
    /** @{ */

    /**
     * Device @p d's @p bytes of pass-@p pass (0 or 1) item counters
     * toward the front end; @p merge charges folding in a peer's.
     */
    virtual sim::Coro<void> reduceCounters(int d, std::uint64_t bytes,
                                           int pass, ComputeFn merge)
        = 0;

    /** Front end: take in one pass's counters. */
    virtual sim::Coro<void> gatherCounters() = 0;

    /** Front end: send @p bytes of frequent-item candidates. */
    virtual sim::Coro<void> broadcastCandidates(std::uint64_t bytes) = 0;

    /** Device @p d: receive the @p bytes of candidates. */
    virtual sim::Coro<void> recvCandidates(int d,
                                           std::uint64_t bytes) = 0;
    /** @} */

    /** Drop this stream's per-stream machine state after a query. */
    virtual void retireStream() = 0;

  protected:
    int stream = 0;
};

std::unique_ptr<Fabric> makeFabric(diskos::ActiveDiskArray &machine);
std::unique_ptr<Fabric> makeFabric(arch::ClusterMachine &machine);

} // namespace howsim::tasks

#endif // HOWSIM_TASKS_FABRIC_HH

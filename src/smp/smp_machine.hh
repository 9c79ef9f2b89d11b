/**
 * @file
 * Scalable shared-memory multiprocessor substrate (SGI Origin 2000
 * style), configured per the paper's guidelines: two-processor boards
 * sharing 128 MB, a 1 us / 780 MB/s interconnect between boards, a
 * 521 MB/s block-transfer engine, an XIO-class I/O subsystem
 * (two nodes, 1.4 GB/s total), and a dual-loop Fibre Channel disk
 * interconnect (200 MB/s) shared by ALL drives — the property that
 * makes the I/O interconnect the SMP bottleneck in the paper.
 */

#ifndef HOWSIM_SMP_SMP_MACHINE_HH
#define HOWSIM_SMP_SMP_MACHINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "bus/bus.hh"
#include "disk/disk.hh"
#include "fault/fault.hh"
#include "net/msg.hh"
#include "os/async_io.hh"
#include "os/cpu.hh"
#include "os/os_costs.hh"
#include "os/raw_disk.hh"
#include "sim/coro.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"

namespace howsim::smp
{

/** SMP configuration. */
struct SmpParams
{
    double cpuMhz = 250;
    int cpusPerBoard = 2;
    std::uint64_t memoryPerBoardBytes = 128ull << 20;

    /** Inter-board link latency and per-board link bandwidth. */
    sim::Tick interconnectLatency = sim::microseconds(1);
    double interconnectLinkRate = 780e6;

    /** Block-transfer engine rate (per board). */
    double bteRate = 521e6;

    /** Shared disk interconnect (Fibre Channel), bytes/second. */
    double fcRate = 200e6;
    int fcLoops = 2;

    /** Stripe unit across the disk farm. */
    std::uint32_t stripeChunkBytes = 64 * 1024;

    /** Unused; kept only for perfbench/. */
    bus::XferPolicy xfer = bus::defaultXferPolicy();

    /** Full-function OS (IRIX-class) costs. */
    os::OsCosts costs = os::OsCosts::measuredPentiumII();

    /** Total machine memory for @p nprocs processors. */
    std::uint64_t
    totalMemory(int nprocs) const
    {
        int boards = (nprocs + cpusPerBoard - 1) / cpusPerBoard;
        return memoryPerBoardBytes * static_cast<std::uint64_t>(boards);
    }
};

/** Handle to one contiguous striped region of the disk farm. */
struct DiskGroup
{
    int firstDisk = 0;
    int diskCount = 0;
};

/**
 * The whole SMP: processors, memory fabric, I/O subsystem and disk
 * farm. Processor and disk counts are independent, though the
 * paper's configurations keep them equal.
 */
class SmpMachine
{
  public:
    SmpMachine(sim::Simulator &s, int nprocs, int ndisks,
               const disk::DiskSpec &spec, SmpParams params = {});

    SmpMachine(const SmpMachine &) = delete;
    SmpMachine &operator=(const SmpMachine &) = delete;

    int cpuCount() const { return static_cast<int>(cpus.size()); }
    int diskCount() const { return static_cast<int>(farm.size()); }
    int boardCount() const { return static_cast<int>(boards.size()); }
    const SmpParams &params() const { return smpParams; }

    os::Cpu &cpu(int p) { return *cpus[static_cast<std::size_t>(p)]; }

    /**
     * Striped I/O over a disk group: @p offset is a logical byte
     * offset within the group's striped address space; chunks fan
     * out to member drives concurrently through the shared FC.
     */
    sim::Coro<void> io(DiskGroup group, std::uint64_t offset,
                       std::uint64_t bytes, bool write);

    /** All drives as one group. */
    DiskGroup
    allDisks() const
    {
        return DiskGroup{0, diskCount()};
    }

    /**
     * One-way block transfer (shmem put/get, BTE-driven) between the
     * boards hosting two processors. Same-board transfers are free
     * (shared memory).
     */
    sim::Coro<void> blockTransfer(int src_cpu, int dst_cpu,
                                  std::uint64_t bytes);

    /**
     * Global barrier over all processors. Streams get independent
     * barriers (identical cost model) so concurrent traffic queries
     * never gate each other's phase boundaries; 0 is the batch path.
     */
    sim::Coro<void> barrier(int stream = 0);

    /** Drop a completed traffic query's barrier (stream > 0 only). */
    void retireStream(int stream);

    /**
     * Shared work queue of fixed-size block indices (the paper's
     * spinlock-protected read/write queues). next() returns the next
     * unclaimed index or -1 when @p total are exhausted.
     */
    class SharedQueue
    {
      public:
        SharedQueue(SmpMachine &m, std::int64_t total);

        /** Claim the next block index (lock + queue op costs). */
        sim::Coro<std::int64_t> next();

        std::int64_t remaining() const { return limit - head; }

      private:
        SmpMachine &machine;
        std::int64_t limit;
        std::int64_t head = 0;
        sim::Resource lock{1};
    };

    disk::Disk &driveMech(int d);
    const bus::Bus &fcBus() const { return *fc; }
    const bus::Bus &xioBus() const { return *xio; }

    /** @name Availability (fail-stop takeover, DESIGN.md §13) */
    /** @{ */

    /** This machine's resolved fail-stop schedule (empty = none). */
    const fault::StopSchedule &stopSchedule() const { return stopSched; }

    /**
     * One failure-detector probe round trip over the shared FC loop
     * to farm drive @p d: a request frame, a controller-interrupt
     * turnaround, an ack frame — unless @p d is down at probe
     * arrival, in which case there is no ack.
     */
    sim::Coro<bool> heartbeat(int d);

    /**
     * Copy one mirror chunk back onto rejoined drive @p victim: a
     * mirror read, an XIO crossing, a local write, all through the
     * OS raw-disk path and the shared FC — contending with foreground
     * I/O.
     */
    sim::Coro<void> rebuildChunk(int victim, std::uint64_t offset,
                                 std::uint64_t bytes);

    /** @} */

  private:
    friend class SharedQueue;

    struct Board
    {
        std::unique_ptr<bus::Bus> linkOut;
        std::unique_ptr<bus::Bus> linkIn;
        std::unique_ptr<bus::Bus> bte;
    };

    int boardOf(int cpu_idx) const
    {
        return cpu_idx / smpParams.cpusPerBoard;
    }

    sim::Simulator &simulator;
    SmpParams smpParams;
    std::vector<std::unique_ptr<os::Cpu>> cpus;
    std::vector<Board> boards;
    std::vector<std::unique_ptr<disk::Disk>> farm;
    std::vector<std::unique_ptr<os::RawDisk>> raw;
    std::unique_ptr<bus::Bus> fc;
    std::unique_ptr<bus::Bus> xio;
    std::unique_ptr<net::Barrier> syncBarrier;
    // Per-stream barriers for concurrent traffic queries, created on
    // first use; the batch path (stream 0) never touches this map.
    std::map<int, std::unique_ptr<net::Barrier>> streamBarriers;

    // Fail-stop takeover (empty schedule / null when not
    // configured): the OS stalls chunks destined for a dead drive
    // until the lease (or the restart) and then redirects them to
    // the next live drive in the group.
    fault::StopSchedule stopSched;
    fault::Injector *stopInj = nullptr;

    /**
     * Takeover routing for one stripe chunk: the drive of @p group
     * that serves a chunk addressed to @p disk_idx right now. Same
     * stall-then-redirect contract as ActiveDiskArray::route, except
     * the redirect target is group-relative (the next never-victim
     * member).
     */
    sim::Coro<int> route(DiskGroup group, int disk_idx);
};

} // namespace howsim::smp

#endif // HOWSIM_SMP_SMP_MACHINE_HH

/**
 * @file
 * Raw-disk access library: the host-side path to one disk.
 *
 * Charges the OS costs of issuing a request (system call + driver
 * queueing), runs the drive mechanism, moves the data across the
 * attach interconnect (PCI for cluster nodes, the shared Fibre
 * Channel for the SMP), and charges the completion interrupt.
 */

#ifndef HOWSIM_OS_RAW_DISK_HH
#define HOWSIM_OS_RAW_DISK_HH

#include <cstdint>

#include "bus/bus.hh"
#include "disk/disk.hh"
#include "os/os_costs.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/simulator.hh"

namespace howsim::os
{

/** Result of a raw I/O: the mechanism detail plus total latency. */
struct IoResult
{
    disk::AccessDetail detail;
    sim::Tick totalTicks = 0;
};

/** Host access path to a single drive (see file comment). */
class RawDisk
{
  public:
    /**
     * @param attach Interconnect between drive and host memory; may
     *               be shared among many RawDisks (SMP) or private
     *               (cluster node). Null skips the bus stage.
     */
    RawDisk(disk::Disk &d, bus::Bus *attach, OsCosts costs = {});

    /** Read @p bytes at byte offset @p offset (sector-rounded). */
    sim::Coro<IoResult> read(std::uint64_t offset, std::uint64_t bytes);

    /** Write @p bytes at byte offset @p offset (sector-rounded). */
    sim::Coro<IoResult> write(std::uint64_t offset, std::uint64_t bytes);

    disk::Disk &drive() { return diskRef; }
    const OsCosts &costs() const { return osCosts; }

    /** Usable capacity in bytes. */
    std::uint64_t capacityBytes() const { return diskRef.capacityBytes(); }

    /**
     * Switch this access path to the split protocol: the issue leaves
     * the host as a keyed event landing at +ioQueue on the drive side,
     * the mechanism runs there, and completion returns as a keyed
     * event after @p completionLatency (DESIGN.md §14). Timing
     * relative to the fused path shifts by exactly +completionLatency
     * per I/O. Allocates the two key streams — call at
     * machine-construction time, in fixed order.
     */
    void enableSplit(sim::Simulator &sim, sim::Tick completionLatency);

  private:
    sim::Coro<IoResult> io(std::uint64_t offset, std::uint64_t bytes,
                           bool write);

    /** Drive side of one split I/O. */
    sim::Coro<void> driveLeg(disk::DiskRequest req, IoResult *out,
                             sim::Trigger *done);

    disk::Disk &diskRef;
    bus::Bus *attachBus;
    OsCosts osCosts;

    /** @name Split protocol (after enableSplit) */
    /** @{ */
    sim::Simulator *splitSim = nullptr;
    sim::Tick completionLat = 0;
    /** Issue stream: keys the host side's requests. */
    sim::KeyStream toDisk;
    /** Completion stream: keys the drive side's completions. */
    sim::KeyStream toHost;
    /** @} */
};

} // namespace howsim::os

#endif // HOWSIM_OS_RAW_DISK_HH

/**
 * @file
 * The Active Disk array: drives with embedded processors and DiskOS,
 * a shared serial interconnect, and the front-end host.
 *
 * DiskOS semantics modeled here:
 *  - Disklets compute on the drive's embedded CPU (a unit resource).
 *  - Local media I/O does not touch the serial interconnect.
 *  - Inter-device communication is flow-controlled by a fixed pool
 *    of DiskOS stream buffers per drive (scaling with drive memory).
 *  - With direct disk-to-disk communication, a block crosses the
 *    interconnect once. In the restricted architecture it crosses
 *    twice and is copied in and out of front-end memory by the
 *    front-end CPU, which becomes the bottleneck under load.
 */

#ifndef HOWSIM_DISKOS_ACTIVE_DISK_ARRAY_HH
#define HOWSIM_DISKOS_ACTIVE_DISK_ARRAY_HH

#include <any>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bus/bus.hh"
#include "disk/disk.hh"
#include "diskos/ad_params.hh"
#include "fault/detector.hh"
#include "fault/fault.hh"
#include "net/msg.hh"
#include "os/cpu.hh"
#include "sim/channel.hh"
#include "sim/coro.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"

namespace howsim::diskos
{

/** A block delivered to a drive's stream inbox. */
struct AdBlock
{
    int src = -1;
    int tag = 0;
    std::uint64_t bytes = 0;
    std::any payload;
};

/** Per-drive statistics beyond the mechanism's own. */
struct AdDiskStats
{
    std::uint64_t bytesSent = 0;
    std::uint64_t bytesReceived = 0;
};

/** Front-end statistics. */
struct FrontendStats
{
    std::uint64_t bytesIngested = 0;
    std::uint64_t bytesRelayed = 0;
};

/**
 * A complete Active Disk machine. Drives are numbered [0, size);
 * the front-end is a separate endpoint reached via sendToFrontend().
 */
class ActiveDiskArray final : public fault::AvailabilityTransport
{
  public:
    ActiveDiskArray(sim::Simulator &s, int ndisks,
                    const disk::DiskSpec &spec, AdParams params = {});

    ActiveDiskArray(const ActiveDiskArray &) = delete;
    ActiveDiskArray &operator=(const ActiveDiskArray &) = delete;

    int size() const { return static_cast<int>(drives.size()); }
    const AdParams &params() const { return adParams; }

    /** @name Per-drive operations (disklet-facing API) */
    /** @{ */

    /** Stream @p bytes from local media at byte @p offset. */
    sim::Coro<void>
    readLocal(int d, std::uint64_t offset, std::uint64_t bytes)
    {
        return localIo(d, offset, bytes, false);
    }

    /** Stream @p bytes to local media at byte @p offset. */
    sim::Coro<void>
    writeLocal(int d, std::uint64_t offset, std::uint64_t bytes)
    {
        return localIo(d, offset, bytes, true);
    }

    /** Run @p ref_ticks of reference-CPU disklet work on drive d. */
    sim::Coro<void> compute(int d, sim::Tick ref_ticks);

    /**
     * Send a block to a peer drive. Waits for a DiskOS stream buffer
     * (flow control) and routes directly or via the front-end per
     * the configured communication architecture. @p stream selects
     * the destination's per-query inbox: 0 (the batch path) is the
     * drive's preallocated inbox; concurrent traffic queries pass
     * their own stream id so interleaved queries never consume each
     * other's blocks (they still share the loop, buffer pools and
     * CPUs — contention is the point).
     */
    sim::Coro<void> send(int src, int dst, AdBlock block,
                         int stream = 0);

    /** Send a block to the front-end host. */
    sim::Coro<void> sendToFrontend(int src, AdBlock block,
                                   int stream = 0);

    /**
     * Send a block from the front-end host to a drive (candidate
     * broadcasts, control data): front-end copy-out plus an
     * interconnect crossing.
     */
    sim::Coro<void> frontendSend(int dst, AdBlock block,
                                 int stream = 0);

    /** Inbox of blocks delivered to drive @p d on @p stream. */
    sim::Channel<AdBlock> &inbox(int d, int stream = 0);

    /** Blocks delivered to the front-end on @p stream. */
    sim::Channel<AdBlock> &frontendInbox(int stream = 0);

    /** @} */

    /**
     * Barrier over all drives (front-end coordinated), arriving as
     * drive @p participant on @p stream (net::BarrierSet).
     */
    sim::Coro<void>
    barrier(int participant, int stream = 0)
    {
        return barriers.arrive(participant, stream);
    }

    /**
     * Drop the per-stream channels and barrier of a completed
     * traffic query (stream > 0 only). Panics if any retired inbox
     * still holds blocks — that is a protocol bug, not cleanup.
     */
    void retireStream(int stream);

    /** Underlying drive mechanism (stats, capacity). */
    disk::Disk &drive(int d);

    /** Embedded CPU of drive @p d. */
    os::Cpu &cpu(int d);

    /** Front-end host CPU. */
    os::Cpu &frontendCpu() { return *feCpu; }

    const bus::Bus &interconnect() const { return *fc; }
    const AdDiskStats &diskStats(int d) const;
    const FrontendStats &frontendStats() const { return feStats; }

    /** Usable bytes per drive. */
    std::uint64_t driveCapacity() const;

    /**
     * Switch the batch barrier to keyed arrivals that cross the
     * loop's grant latency (DESIGN.md §14). runExperiment calls this
     * once, after construction; traffic runs keep the shared-state
     * barrier.
     */
    void
    useKeyedProtocols()
    {
        barriers.useKeyedProtocol(crossLatency());
    }

    /**
     * Latency of one keyed hop in the send protocol: the loop's grant
     * latency.
     */
    sim::Tick
    crossLatency() const override
    {
        return fc->minGrantLatency();
    }

    /** @name Availability (fail-stop takeover, DESIGN.md §13) */
    /** @{ */

    /** This machine's resolved fail-stop schedule (empty = none). */
    const fault::StopSchedule &
    stopSchedule() const
    {
        return takeover.schedule();
    }

    int deviceCount() const override { return size(); }

    /**
     * One failure-detector probe round trip over the serial
     * interconnect, from the front end to drive @p d: a request frame,
     * a firmware turnaround, an ack frame — unless @p d is down at
     * probe arrival, in which case there is no ack and the caller eats
     * the silence.
     */
    sim::Coro<bool> heartbeat(int d) override;

    /**
     * Copy one replica chunk back onto rejoined drive @p victim: a
     * replica read on its takeover buddy, a flow-controlled send
     * across the loop on the reserved rebuild stream, a local write —
     * all contending with foreground disklets.
     */
    sim::Coro<void> rebuildChunk(int victim, std::uint64_t offset,
                                 std::uint64_t bytes) override;

    /** @} */

  private:
    struct Drive
    {
        std::unique_ptr<disk::Disk> mech;
        std::unique_ptr<os::Cpu> cpu;
        std::unique_ptr<sim::Resource> commBuffers;
        std::unique_ptr<sim::Channel<AdBlock>> inbox;
        AdDiskStats stats;
    };

    /** Local media I/O on the drive serving @p d. */
    sim::Coro<void> localIo(int d, std::uint64_t offset,
                            std::uint64_t bytes, bool write);

    sim::Coro<void> relayViaFrontend(int dst, std::uint64_t bytes);

    /**
     * One loop crossing src -> dst (-1 = the front-end) under
     * injected frame loss; a corruption is NACKed after one
     * controller-interrupt round trip. Callers branch to the plain fc
     * transfer when links.active() is false.
     */
    sim::Coro<void>
    lossyTransfer(int src, int dst, std::uint64_t bytes)
    {
        return links.deliver(src, dst, 2 * adParams.costs.interrupt,
                             [this, bytes] { return fc->transfer(bytes); });
    }

    sim::Simulator &simulator;
    AdParams adParams;
    std::vector<Drive> drives;
    std::unique_ptr<bus::Bus> fc;
    std::unique_ptr<os::Cpu> feCpu;
    std::unique_ptr<sim::Resource> feBuffers;
    std::unique_ptr<sim::Channel<AdBlock>> feInbox;
    net::BarrierSet barriers;
    FrontendStats feStats;

    // Stream-isolated channels for concurrent traffic queries,
    // created on first use. Stream 0 maps to the preallocated
    // members above, so a batch run never touches these maps.
    std::map<std::pair<int, int>,
             std::unique_ptr<sim::Channel<AdBlock>>>
        streamInboxes;
    std::map<int, std::unique_ptr<sim::Channel<AdBlock>>>
        streamFeInboxes;

    fault::LossyLinks links{"adloop"};
    fault::Takeover takeover;

    // Keyed send-protocol streams: driveKeys[d] keys drive d's hops,
    // feKeys the loop/front-end's (allocation order fixed in the ctor).
    std::vector<sim::KeyStream> driveKeys;
    sim::KeyStream feKeys;
};

} // namespace howsim::diskos

#endif // HOWSIM_DISKOS_ACTIVE_DISK_ARRAY_HH

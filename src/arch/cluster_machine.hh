/**
 * @file
 * Commodity-cluster machine model, per the paper's configuration:
 * monitor-less PCs with a 300 MHz Pentium II, 128 MB SDRAM (104 MB
 * usable beside the kernel), a 133 MB/s PCI bus, one Seagate disk
 * and a 100BaseT NIC per node, wired into a two-level 3Com
 * switch fabric whose bisection scales with the node count. A
 * front-end host (network id = size()) fields results.
 */

#ifndef HOWSIM_ARCH_CLUSTER_MACHINE_HH
#define HOWSIM_ARCH_CLUSTER_MACHINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "bus/bus.hh"
#include "disk/disk.hh"
#include "fault/fault.hh"
#include "net/msg.hh"
#include "net/network.hh"
#include "os/cpu.hh"
#include "os/os_costs.hh"
#include "os/raw_disk.hh"
#include "sim/coro.hh"
#include "sim/simulator.hh"

namespace howsim::arch
{

/** Cluster configuration. */
struct ClusterParams
{
    double cpuMhz = 300;
    std::uint64_t memoryBytes = 128ull << 20;

    /** Memory left for user processes beside the resident kernel
     *  (Acharya et al. measure a 24 MB Solaris footprint). */
    std::uint64_t usableMemoryBytes = 104ull << 20;

    double frontendCpuMhz = 450;

    net::NetParams net;
    bus::BusParams nodeBus = bus::BusParams::pci33();
    os::OsCosts costs = os::OsCosts::measuredPentiumII();
};

/** A complete commodity cluster plus front-end. */
class ClusterMachine
{
  public:
    ClusterMachine(sim::Simulator &s, int nnodes,
                   const disk::DiskSpec &spec, ClusterParams params = {});

    ClusterMachine(const ClusterMachine &) = delete;
    ClusterMachine &operator=(const ClusterMachine &) = delete;

    /** Worker node count (the front-end is additional). */
    int size() const { return static_cast<int>(nodes.size()); }

    /** Network id of the front-end host. */
    int frontendId() const { return size(); }

    const ClusterParams &params() const { return clusterParams; }

    os::Cpu &cpu(int node);
    os::Cpu &frontendCpu() { return *feCpu; }

    /** Local-disk I/O through the node's OS and PCI bus. */
    sim::Coro<os::IoResult> read(int node, std::uint64_t offset,
                                 std::uint64_t bytes);
    sim::Coro<os::IoResult> write(int node, std::uint64_t offset,
                                  std::uint64_t bytes);

    net::MsgLayer &msg() { return *msgLayer; }
    net::Network &network() { return *fabric; }

    /**
     * Barrier over the worker nodes, arriving as @p node. The batch
     * barrier (stream 0) uses keyed arrivals after
     * useKeyedProtocols(); streams get independent shared-state
     * barriers (identical cost model) so concurrent traffic queries
     * never gate each other's phase boundaries.
     */
    sim::Coro<void> barrier(int node, int stream = 0);

    /**
     * Drop the per-stream barrier and message-tag band of a
     * completed traffic query (stream > 0 only).
     */
    void retireStream(int stream);

    disk::Disk &driveMech(int node);

    /** Usable bytes per node disk. */
    std::uint64_t driveCapacity() const;

    /**
     * Switch the message layer's cross-host sends and the batch
     * barrier to their keyed protocols, one fabric hop per leg
     * (DESIGN.md §14). runExperiment calls this once, after
     * construction; traffic runs keep the direct protocols. A single
     * node keeps the shared-state barrier (logCost(1) == 0 leaves no
     * room for the hop).
     */
    void useKeyedProtocols();

    /**
     * Latency of one keyed hop in the send protocol: the fabric's
     * switch-hop latency.
     */
    sim::Tick crossLatency() const
    {
        return fabric->minMessageLatency();
    }

    /** @name Availability (fail-stop takeover, DESIGN.md §13) */
    /** @{ */

    /** This machine's resolved fail-stop schedule (empty = none). */
    const fault::StopSchedule &stopSchedule() const { return stopSched; }

    /**
     * One failure-detector probe round trip through the switch
     * fabric, from the front-end host to @p node: a request frame, an
     * OS interrupt turnaround, an ack frame — unless @p node is down
     * at probe arrival, in which case there is no ack.
     */
    sim::Coro<bool> heartbeat(int node);

    /**
     * Copy one replica chunk back onto rejoined @p node: a replica
     * read on its takeover peer, a message-layer transfer on the
     * reserved rebuild tag band, a local write — all contending with
     * foreground queries.
     */
    sim::Coro<void> rebuildChunk(int victim, std::uint64_t offset,
                                 std::uint64_t bytes);

    /** @} */

  private:
    struct Node
    {
        std::unique_ptr<disk::Disk> drive;
        std::unique_ptr<bus::Bus> pci;
        std::unique_ptr<os::RawDisk> raw;
        std::unique_ptr<os::Cpu> cpu;
    };

    /**
     * Fail-stop takeover routing (same contract as
     * ActiveDiskArray::route): stall until the nominal lease or the
     * restart, then serve on the node itself or its takeover peer.
     */
    sim::Coro<int> route(int node);

    sim::Simulator &simulator;
    ClusterParams clusterParams;
    std::vector<Node> nodes;
    std::unique_ptr<os::Cpu> feCpu;
    std::unique_ptr<net::Network> fabric;
    std::unique_ptr<net::MsgLayer> msgLayer;
    std::unique_ptr<net::Barrier> syncBarrier;
    // Per-stream barriers for concurrent traffic queries, created on
    // first use; the batch path (stream 0) never touches this map.
    std::map<int, std::unique_ptr<net::Barrier>> streamBarriers;

    // Fail-stop takeover (empty schedule / null when not configured).
    fault::StopSchedule stopSched;
    fault::Injector *stopInj = nullptr;
};

} // namespace howsim::arch

#endif // HOWSIM_ARCH_CLUSTER_MACHINE_HH

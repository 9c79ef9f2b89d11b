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
#include <memory>
#include <vector>

#include "bus/bus.hh"
#include "disk/disk.hh"
#include "fault/detector.hh"
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
class ClusterMachine final : public fault::AvailabilityTransport
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
     * Barrier over the worker nodes, arriving as @p node on
     * @p stream (net::BarrierSet).
     */
    sim::Coro<void>
    barrier(int node, int stream = 0)
    {
        return barriers.arrive(node, stream);
    }

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
     * barrier to their keyed protocols, whose hops each take one
     * fabric hop latency (DESIGN.md §14). runExperiment calls this
     * once, after construction; traffic runs keep the direct
     * protocols.
     */
    void useKeyedProtocols();

    /**
     * Latency of one keyed hop in the send protocol: the fabric's
     * switch-hop latency.
     */
    sim::Tick
    crossLatency() const override
    {
        return fabric->minMessageLatency();
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
     * One failure-detector probe round trip through the switch
     * fabric, from the front-end host to @p node: a request frame, an
     * OS interrupt turnaround, an ack frame — unless @p node is down
     * at probe arrival, in which case there is no ack.
     */
    sim::Coro<bool> heartbeat(int node) override;

    /**
     * Copy one replica chunk back onto rejoined @p node: a replica
     * read on its takeover peer, a message-layer transfer on the
     * reserved rebuild tag band, a local write — all contending with
     * foreground queries.
     */
    sim::Coro<void> rebuildChunk(int victim, std::uint64_t offset,
                                 std::uint64_t bytes) override;

    /** @} */

  private:
    struct Node
    {
        std::unique_ptr<disk::Disk> drive;
        std::unique_ptr<bus::Bus> pci;
        std::unique_ptr<os::RawDisk> raw;
        std::unique_ptr<os::Cpu> cpu;
    };

    sim::Simulator &simulator;
    ClusterParams clusterParams;
    std::vector<Node> nodes;
    std::unique_ptr<os::Cpu> feCpu;
    std::unique_ptr<net::Network> fabric;
    std::unique_ptr<net::MsgLayer> msgLayer;
    net::BarrierSet barriers;
    fault::Takeover takeover;
};

} // namespace howsim::arch

#endif // HOWSIM_ARCH_CLUSTER_MACHINE_HH

#include "arch/cluster_machine.hh"

#include <string>

#include "sim/awaitables.hh"
#include "sim/logging.hh"

namespace howsim::arch
{

namespace
{

/** Message tag of the rebuild band: above every traffic stream's. */
constexpr int kRebuildTag = fault::kRebuildStream
                            * net::kStreamTagStride;

} // namespace

ClusterMachine::ClusterMachine(sim::Simulator &s, int nnodes,
                               const disk::DiskSpec &spec,
                               ClusterParams params)
    : simulator(s), clusterParams(params),
      barriers(s, nnodes,
               net::Barrier::logCost(nnodes,
                                     2 * clusterParams.net.hopLatency
                                         + sim::microseconds(30))),
      takeover(s, nnodes)
{
    if (nnodes <= 0)
        panic("ClusterMachine: nnodes must be positive");
    nodes.resize(static_cast<std::size_t>(nnodes));
    for (int i = 0; i < nnodes; ++i) {
        auto &node = nodes[static_cast<std::size_t>(i)];
        node.drive = std::make_unique<disk::Disk>(
            s, spec, "node" + std::to_string(i));
        node.pci = std::make_unique<bus::Bus>(s,
                                              clusterParams.nodeBus);
        node.raw = std::make_unique<os::RawDisk>(
            *node.drive, node.pci.get(), clusterParams.costs);
        node.cpu = std::make_unique<os::Cpu>(
            clusterParams.cpuMhz, os::referenceCpuMhz,
            clusterParams.costs.contextSwitch);
    }
    feCpu = std::make_unique<os::Cpu>(
        clusterParams.frontendCpuMhz, os::referenceCpuMhz,
        clusterParams.costs.contextSwitch);
    // Workers plus the front-end hang off the fabric.
    fabric = std::make_unique<net::Network>(s, nnodes + 1,
                                            clusterParams.net);
    msgLayer = std::make_unique<net::MsgLayer>(s, *fabric);
}

os::Cpu &
ClusterMachine::cpu(int node)
{
    // A dead node's share of the query runs on its takeover peer's
    // CPU. Compute never stalls on the lease — the process was
    // already migrated by whichever redirected I/O preceded it.
    const fault::StopSchedule &sched = takeover.schedule();
    if (!sched.empty() && !sched.aliveAt(node, simulator.now()))
        node = sched.buddyOf(node, 0, size());
    return *nodes[static_cast<std::size_t>(node)].cpu;
}

disk::Disk &
ClusterMachine::driveMech(int node)
{
    return *nodes[static_cast<std::size_t>(node)].drive;
}

std::uint64_t
ClusterMachine::driveCapacity() const
{
    return nodes.front().drive->capacityBytes();
}

sim::Coro<os::IoResult>
ClusterMachine::read(int node, std::uint64_t offset, std::uint64_t bytes)
{
    if (!takeover.empty())
        node = co_await takeover.route(node, 0, size());
    co_return co_await nodes[static_cast<std::size_t>(node)]
        .raw->read(offset, bytes);
}

sim::Coro<os::IoResult>
ClusterMachine::write(int node, std::uint64_t offset,
                      std::uint64_t bytes)
{
    if (!takeover.empty())
        node = co_await takeover.route(node, 0, size());
    co_return co_await nodes[static_cast<std::size_t>(node)]
        .raw->write(offset, bytes);
}

sim::Coro<bool>
ClusterMachine::heartbeat(int node)
{
    // Probe and ack are real fabric frames: they queue behind
    // foreground stage transfers, so the measured detection latency
    // grows with network load.
    co_await fabric->transport(frontendId(), node,
                               static_cast<std::uint64_t>(
                                   fault::kHeartbeatBytes));
    if (!stopSchedule().aliveAt(node, simulator.now()))
        co_return false;
    co_await sim::delay(clusterParams.costs.interrupt);
    co_await fabric->transport(node, frontendId(),
                               static_cast<std::uint64_t>(
                                   fault::kHeartbeatBytes));
    co_return true;
}

sim::Coro<void>
ClusterMachine::rebuildChunk(int victim, std::uint64_t offset,
                             std::uint64_t bytes)
{
    int peer = stopSchedule().buddyOf(victim, 0, size());
    co_await read(peer, offset, bytes);
    net::Message m;
    m.tag = kRebuildTag;
    m.bytes = bytes;
    co_await msgLayer->send(peer, victim, std::move(m));
    co_await msgLayer->recv(victim, kRebuildTag);
    co_await write(victim, offset, bytes);
}

void
ClusterMachine::retireStream(int stream)
{
    barriers.retire(stream);
    msgLayer->retireTagRange(stream * net::kStreamTagStride,
                             (stream + 1) * net::kStreamTagStride);
}

void
ClusterMachine::useKeyedProtocols()
{
    msgLayer->useKeyedProtocol(crossLatency());
    barriers.useKeyedProtocol(crossLatency());
}

} // namespace howsim::arch

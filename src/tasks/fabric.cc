#include "tasks/fabric.hh"

#include "arch/cluster_machine.hh"
#include "diskos/active_disk_array.hh"
#include "sim/logging.hh"

namespace howsim::tasks
{

using diskos::AdBlock;
using net::Message;
using sim::Coro;
using sim::Tick;

namespace
{

/**
 * Active Disks: one inbox per drive and stream on the serial loop. A
 * drive's own share of a shuffle bypasses the loop, and a done marker
 * is a kDone-tagged block. dmine's counters go straight to the front
 * end, which sends the candidates to every drive: a star.
 */
class AdFabric final : public Fabric
{
  public:
    explicit AdFabric(diskos::ActiveDiskArray &m) : machine(m) {}

    int size() const override { return machine.size(); }

    std::uint64_t
    memoryBytes() const override
    {
        return machine.params().memoryBytes;
    }

    std::uint64_t
    driveCapacity() const override
    {
        return machine.driveCapacity();
    }

    Tick crossLatency() const override { return machine.crossLatency(); }

    std::uint64_t
    interconnectBytes() override
    {
        return machine.interconnect().stats().bytes;
    }

    os::Cpu &cpu(int d) override { return machine.cpu(d); }
    os::Cpu &frontendCpu() override { return machine.frontendCpu(); }

    Coro<void>
    compute(int d, Tick ref_ticks) override
    {
        return machine.compute(d, ref_ticks);
    }

    std::string
    cpuTrack(int d) const override
    {
        return strprintf("ad%d.cpu", d);
    }

    const char *computeCategory() const override { return "disklet"; }

    Coro<void>
    read(int d, std::uint64_t offset, std::uint64_t bytes) override
    {
        return machine.readLocal(d, offset, bytes);
    }

    Coro<void>
    write(int d, std::uint64_t offset, std::uint64_t bytes) override
    {
        return machine.writeLocal(d, offset, bytes);
    }

    Coro<void>
    send(int src, int dst, int, Block b) override
    {
        if (src == dst)
            return sendLocal(src, b);
        return machine.send(src, dst,
                            AdBlock{.tag = tagOf(b), .bytes = b.bytes},
                            stream);
    }

    Coro<std::optional<Block>>
    recv(int d, int) override
    {
        co_return fromAd(co_await machine.inbox(d, stream).recv());
    }

    Coro<void>
    sendToFrontend(int d, Block b) override
    {
        return machine.sendToFrontend(
            d, AdBlock{.tag = tagOf(b), .bytes = b.bytes}, stream);
    }

    Coro<std::optional<Block>>
    recvAtFrontend() override
    {
        co_return fromAd(co_await machine.frontendInbox(stream).recv());
    }

    Coro<void>
    barrier(int d) override
    {
        return machine.barrier(d, stream);
    }

    Coro<void>
    reduceCounters(int d, std::uint64_t bytes, int, ComputeFn) override
    {
        return machine.sendToFrontend(d, AdBlock{.bytes = bytes},
                                      stream);
    }

    Coro<void>
    gatherCounters() override
    {
        for (int i = 0; i < size(); ++i)
            co_await machine.frontendInbox(stream).recv();
    }

    Coro<void>
    broadcastCandidates(std::uint64_t bytes) override
    {
        for (int d = 0; d < size(); ++d) {
            co_await machine.frontendSend(
                d, AdBlock{.tag = kCandidates, .bytes = bytes}, stream);
        }
    }

    Coro<void>
    recvCandidates(int d, std::uint64_t) override
    {
        auto cand = co_await machine.inbox(d, stream).recv();
        if (!cand || cand->tag != kCandidates)
            panic("dmine: expected candidate broadcast");
    }

    void retireStream() override { machine.retireStream(stream); }

  private:
    /** Block tags. */
    enum Tag : int
    {
        kData = 0,
        kDone = 1,
        kCandidates = 2,
    };

    static int tagOf(Block b) { return b.done ? kDone : kData; }

    /** The local fraction bypasses the interconnect. */
    Coro<void>
    sendLocal(int d, Block b)
    {
        co_await machine.inbox(d, stream).send(
            AdBlock{.src = d, .tag = tagOf(b), .bytes = b.bytes});
    }

    static std::optional<Block>
    fromAd(const std::optional<AdBlock> &blk)
    {
        if (!blk)
            return std::nullopt;
        return Block{.bytes = blk->bytes, .done = blk->tag == kDone};
    }

    diskos::ActiveDiskArray &machine;
};

/**
 * Cluster: the MPI-like message layer, with every tag shifted into
 * the stream's band. A done marker is a message carrying a payload.
 * dmine's counters are reduced up a binomial tree to node 0, the only
 * node on the front end's link, and the candidates come back down a
 * binomial broadcast from it.
 */
class ClusterFabric final : public Fabric
{
  public:
    explicit ClusterFabric(arch::ClusterMachine &m) : machine(m) {}

    int size() const override { return machine.size(); }

    std::uint64_t
    memoryBytes() const override
    {
        return machine.params().usableMemoryBytes;
    }

    std::uint64_t
    driveCapacity() const override
    {
        return machine.driveCapacity();
    }

    Tick crossLatency() const override { return machine.crossLatency(); }

    std::uint64_t
    interconnectBytes() override
    {
        return machine.network().totalBytes();
    }

    os::Cpu &cpu(int node) override { return machine.cpu(node); }
    os::Cpu &frontendCpu() override { return machine.frontendCpu(); }

    Coro<void>
    compute(int node, Tick ref_ticks) override
    {
        return machine.cpu(node).compute(ref_ticks);
    }

    std::string
    cpuTrack(int node) const override
    {
        return strprintf("h%d.cpu", node);
    }

    const char *computeCategory() const override { return "compute"; }

    Coro<void>
    read(int node, std::uint64_t offset, std::uint64_t bytes) override
    {
        co_await machine.read(node, offset, bytes);
    }

    Coro<void>
    write(int node, std::uint64_t offset, std::uint64_t bytes) override
    {
        co_await machine.write(node, offset, bytes);
    }

    Coro<void>
    send(int src, int dst, int phase, Block b) override
    {
        return msgSend(src, dst, message(shuffleTag(phase), b));
    }

    Coro<std::optional<Block>>
    recv(int node, int phase) override
    {
        co_return fromMessage(co_await msgRecv(node, shuffleTag(phase)));
    }

    Coro<void>
    sendToFrontend(int node, Block b) override
    {
        return msgSend(node, machine.frontendId(),
                       message(kToFrontend, b));
    }

    Coro<std::optional<Block>>
    recvAtFrontend() override
    {
        co_return fromMessage(
            co_await msgRecv(machine.frontendId(), kToFrontend));
    }

    Coro<void>
    barrier(int node) override
    {
        return machine.barrier(node, stream);
    }

    Coro<void>
    reduceCounters(int node, std::uint64_t bytes, int pass,
                   ComputeFn merge) override
    {
        // Binomial-tree reduction over the scalable fabric (the
        // MPI-like library's global reduction); only node 0 touches
        // the front-end's 100 Mb/s link.
        const int tag = pass == 0 ? kReducePass1 : kReducePass2;
        const int n = size();
        for (int stride = 1; stride < n; stride *= 2) {
            if (node & stride) {
                co_await msgSend(node, node - stride,
                                 Message{.tag = tag, .bytes = bytes});
                co_return;
            }
            if (node + stride < n) {
                co_await msgRecv(node, tag);
                // Merge the peer's counters into ours.
                co_await merge(bytes * 3 / 1000);
            }
        }
        co_await msgSend(node, machine.frontendId(),
                         Message{.tag = kToFrontend, .bytes = bytes});
    }

    Coro<void>
    gatherCounters() override
    {
        // The reduced counters arrive from node 0 alone.
        co_await msgRecv(machine.frontendId(), kToFrontend);
    }

    Coro<void>
    broadcastCandidates(std::uint64_t bytes) override
    {
        return msgSend(machine.frontendId(), 0,
                       Message{.tag = kCandidates, .bytes = bytes});
    }

    Coro<void>
    recvCandidates(int node, std::uint64_t bytes) override
    {
        // Binomial broadcast rooted at node 0 (which hears from the
        // front-end directly).
        const int n = size();
        co_await msgRecv(node, kCandidates);
        for (int stride = 1; stride < n; stride *= 2) {
            if (node < stride && node + stride < n) {
                co_await msgSend(
                    node, node + stride,
                    Message{.tag = kCandidates, .bytes = bytes});
            }
        }
    }

    void retireStream() override { machine.retireStream(stream); }

  private:
    /** Message tags, before the stream's band offset. */
    enum Tag : int
    {
        kData = 0,
        kCandidates = 2,
        kToFrontend = 3,
        kDataPhase2 = 4,
        kReducePass1 = 5,
        kReducePass2 = 6,
    };

    static int
    shuffleTag(int phase)
    {
        return phase == 0 ? kData : kDataPhase2;
    }

    static Message
    message(int tag, Block b)
    {
        Message m{.tag = tag, .bytes = b.bytes};
        if (b.done)
            m.payload = true; // completion marker
        return m;
    }

    static Block
    fromMessage(const Message &m)
    {
        return Block{.bytes = m.bytes, .done = m.payload.has_value()};
    }

    Coro<void>
    msgSend(int src, int dst, Message m)
    {
        m.tag += stream * net::kStreamTagStride;
        return machine.msg().send(src, dst, std::move(m));
    }

    Coro<Message>
    msgRecv(int host, int tag)
    {
        return machine.msg().recv(host,
                                  stream * net::kStreamTagStride + tag);
    }

    arch::ClusterMachine &machine;
};

} // namespace

std::unique_ptr<Fabric>
makeFabric(diskos::ActiveDiskArray &machine)
{
    return std::make_unique<AdFabric>(machine);
}

std::unique_ptr<Fabric>
makeFabric(arch::ClusterMachine &machine)
{
    return std::make_unique<ClusterFabric>(machine);
}

} // namespace howsim::tasks

#include "net/network.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "sim/completion.hh"
#include "sim/logging.hh"

namespace howsim::net
{

Network::Network(sim::Simulator &s, int host_count, NetParams params)
    : simulator(s), netParams(params)
{
    if (host_count <= 0)
        panic("Network: host_count must be positive");
    if (netParams.hostsPerSwitch <= 0)
        panic("Network: hostsPerSwitch must be positive");
    if (netParams.frameBytes == 0)
        panic("Network: frameBytes must be positive");

    obs::Session *session = obs::session();
    hosts.reserve(static_cast<std::size_t>(host_count));
    bus::BusParams link;
    link.channels = 1;
    link.channelRate = netParams.hostLinkRate;
    link.startup = 0; // latency handled per hop
    link.probeTimeline = session && session->fine();
    for (int hostIdx = 0; hostIdx < host_count; ++hostIdx) {
        // Per-instance names so each NIC gets its own utilization
        // counters ("net.h3.tx.bytes") when observability is on.
        // There are two NICs per host, so their occupancy timeline
        // probes are fine-detail only; the few shared uplinks keep
        // theirs at any detail (Figure 2's utilization story). The
        // formatted names exist only for that output, so the two
        // allocations per host are skipped when no session is active.
        Host h;
        link.name = session ? strprintf("net.h%d.tx", hostIdx)
                            : "net.tx";
        h.tx = std::make_unique<bus::Bus>(s, link);
        link.name = session ? strprintf("net.h%d.rx", hostIdx)
                            : "net.rx";
        h.rx = std::make_unique<bus::Bus>(s, link);
        hosts.push_back(std::move(h));
    }

    int nedges = (host_count + netParams.hostsPerSwitch - 1)
                 / netParams.hostsPerSwitch;
    edges.reserve(static_cast<std::size_t>(nedges));
    bus::BusParams up;
    up.channels = netParams.uplinksPerSwitch;
    up.channelRate = netParams.uplinkRate;
    up.startup = 0;
    for (int edgeIdx = 0; edgeIdx < nedges; ++edgeIdx) {
        Edge e;
        up.name = session ? strprintf("net.sw%d.up", edgeIdx)
                          : "net.up";
        e.up = std::make_unique<bus::Bus>(s, up);
        up.name = session ? strprintf("net.sw%d.down", edgeIdx)
                          : "net.down";
        e.down = std::make_unique<bus::Bus>(s, up);
        edges.push_back(std::move(e));
    }

    if (session)
        obsMoved = &session->metrics().counter("net.bytes_moved");
}

const HostTraffic &
Network::traffic(int host) const
{
    return hosts[static_cast<std::size_t>(host)].traffic;
}

/**
 * One message in flight: the per-frame walker. Lives on the
 * transport() coroutine frame, which stays alive until the
 * completion fires.
 *
 * The walker replicates the event structure of a per-frame forwarder
 * coroutine one-for-one (DESIGN.md §12): tx completion -> launch
 * event (the detached forwarder's process start) -> hop event ->
 * stage booking -> ... -> receiver completion. Every schedule call
 * happens inside the same event, in the same order, as its
 * coroutine counterpart, so same-tick ties resolve exactly as they
 * would there. Each frame's record is the event target of all its
 * steps.
 */
struct Network::XferOp
{
    Network &net;
    std::uint64_t wireBytes;
    std::uint32_t frameSz;
    int frames;
    sim::Tick hop;
    int nstages = 0;
    bus::Bus *stage[4] = {};
    int arrived = 0;
    sim::Completion done;

    XferOp(Network &n, int src, int dst, std::uint64_t wire, bool cross)
        : net(n), wireBytes(wire), frameSz(n.netParams.frameBytes),
          frames(static_cast<int>((wire + n.netParams.frameBytes - 1)
                                  / n.netParams.frameBytes)),
          hop(n.netParams.hopLatency)
    {
        stage[nstages++] = n.hosts[static_cast<std::size_t>(src)].tx.get();
        if (cross) {
            stage[nstages++] =
                n.edges[static_cast<std::size_t>(n.edgeOf(src))].up.get();
            stage[nstages++] =
                n.edges[static_cast<std::size_t>(n.edgeOf(dst))].down.get();
        }
        stage[nstages++] = n.hosts[static_cast<std::size_t>(dst)].rx.get();
    }

    std::uint32_t
    sizeOf(int i) const
    {
        if (i + 1 < frames)
            return frameSz;
        std::uint64_t last = wireBytes
                             - static_cast<std::uint64_t>(frames - 1)
                                   * frameSz;
        return static_cast<std::uint32_t>(last);
    }

    /** Frame @p i enters the path: it books on the sender NIC. */
    void
    send(int i)
    {
        Frame *f = net.allocFrame();
        f->op = this;
        f->i = i;
        bookOn(f, 0);
    }

    void
    bookOn(Frame *f, int s)
    {
        f->s = s;
        f->fire = &stageDoneEvent;
        stage[s]->bookAsync(sizeOf(f->i), f);
    }

    void
    stageDone(Frame *f)
    {
        if (f->s == 0) {
            // The reference spawns the detached forwarder (its start
            // is an event of its own) and then books the next frame
            // on the sender NIC, in that order.
            f->fire = &launchEvent;
            net.simulator.scheduleAt(net.simulator.now(), f);
            if (f->i + 1 < frames)
                send(f->i + 1);
            return;
        }
        if (f->s == nstages - 1) {
            net.freeFrame(f);
            if (++arrived == frames)
                done.fire();
            return;
        }
        hopAfter(f);
    }

    /** The frame crosses the hop after its stage, then books. */
    void
    hopAfter(Frame *f)
    {
        f->fire = &hopEvent;
        net.simulator.scheduleIn(hop, f);
    }

    static void
    stageDoneEvent(sim::EventTarget *self)
    {
        Frame *f = static_cast<Frame *>(self);
        f->op->stageDone(f);
    }

    static void
    launchEvent(sim::EventTarget *self)
    {
        Frame *f = static_cast<Frame *>(self);
        f->op->hopAfter(f);
    }

    static void
    hopEvent(sim::EventTarget *self)
    {
        Frame *f = static_cast<Frame *>(self);
        f->op->bookOn(f, f->s + 1);
    }
};

Network::Frame *
Network::allocFrame()
{
    if (Frame *f = freeFrames) {
        freeFrames = f->nextFree;
        return f;
    }
    return &framePool.emplace_back();
}

void
Network::freeFrame(Frame *f)
{
    f->nextFree = freeFrames;
    freeFrames = f;
}

sim::Coro<void>
Network::transport(int src, int dst, std::uint64_t bytes)
{
    if (src < 0 || src >= hostCount() || dst < 0 || dst >= hostCount())
        panic("transport: bad endpoints %d -> %d", src, dst);
    if (src == dst) {
        // Loopback: local delivery. Counts as endpoint traffic but
        // never touches the fabric and costs no simulated time.
        hosts[static_cast<std::size_t>(src)].traffic.bytesSent += bytes;
        hosts[static_cast<std::size_t>(src)].traffic.bytesReceived
            += bytes;
        co_return;
    }
    // A zero-byte control message still crosses the fabric as one
    // minimal frame — it contends and takes time like any send — but
    // the byte accounting below stays at zero.
    const std::uint64_t wire = std::max<std::uint64_t>(bytes, 1);
    const bool cross_edge = edgeOf(src) != edgeOf(dst)
                            && edges.size() > 1;
    XferOp op(*this, src, dst, wire, cross_edge);
    op.send(0);
    co_await op.done.wait();

    hosts[static_cast<std::size_t>(src)].traffic.bytesSent += bytes;
    hosts[static_cast<std::size_t>(dst)].traffic.bytesReceived += bytes;
    movedBytes += bytes;
    if (obsMoved)
        obsMoved->add(bytes);
}

} // namespace howsim::net

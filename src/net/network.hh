/**
 * @file
 * Netsim-style switched-network transport.
 *
 * Models the paper's cluster fabric: every host hangs off a
 * 100BaseT port of a 24-port edge switch; each edge switch has two
 * Gigabit Ethernet uplinks into a non-blocking Gigabit core switch
 * (3Com SuperStack II 3900 + 9300). With 16 hosts per edge switch
 * the fabric's bisection bandwidth scales with the host count while
 * any single endpoint is capped at its 100 Mb/s link — the property
 * behind the paper's group-by front-end congestion result.
 *
 * Messages are segmented into frames that pipeline across the path
 * (sender NIC -> uplink -> downlink -> receiver NIC), each stage
 * being a FIFO queue-based bus. Contention therefore emerges at
 * whichever stage is oversubscribed.
 *
 * A per-frame walker drives the train: events on a pooled record per
 * frame and bookings on the stage buses, with no coroutine frame and
 * no closure per frame. It schedules every event at the tick, and in
 * the order, that a forwarder coroutine per frame over
 * Resource-based buses would (DESIGN.md §12); the differential tests
 * check this against exactly that reference.
 *
 * Accounting semantics:
 *  - Loopback (src == dst) is local delivery: it completes in zero
 *    simulated time and never touches the fabric, so it counts in
 *    both endpoints' HostTraffic but not in totalBytes() (which
 *    counts fabric bytes only).
 *  - A zero-byte message is a control message: it traverses the
 *    path as one minimal frame (so it costs real fabric time and
 *    contends like any send) but adds zero bytes to HostTraffic and
 *    totalBytes().
 */

#ifndef HOWSIM_NET_NETWORK_HH
#define HOWSIM_NET_NETWORK_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "bus/bus.hh"
#include "bus/xfer.hh"
#include "sim/coro.hh"
#include "sim/simulator.hh"
#include "sim/ticks.hh"

namespace howsim::obs
{
class Counter;
} // namespace howsim::obs

namespace howsim::net
{

/** Fabric parameterization. */
struct NetParams
{
    /** Host link rate, bytes/second (100BaseT = 12.5 MB/s). */
    double hostLinkRate = 12.5e6;

    /** Gigabit uplink rate, bytes/second. */
    double uplinkRate = 125e6;

    /** Uplinks per edge switch (each direction). */
    int uplinksPerSwitch = 2;

    /** Hosts attached to one edge switch. */
    int hostsPerSwitch = 16;

    /** Per-hop propagation plus switching latency. */
    sim::Tick hopLatency = sim::microseconds(5);

    /** Segmentation unit for pipelining across hops; positive. */
    std::uint32_t frameBytes = 64 * 1024;

    /** Unused; kept only for perfbench/. */
    bus::XferPolicy xfer = bus::defaultXferPolicy();
};

/** Per-host traffic counters. */
struct HostTraffic
{
    std::uint64_t bytesSent = 0;
    std::uint64_t bytesReceived = 0;
};

/**
 * The cluster fabric. Host ids run [0, hostCount); id hostCount-1 is
 * typically the front-end (it is an ordinary host to the fabric).
 */
class Network
{
  public:
    Network(sim::Simulator &s, int host_count, NetParams params = {});

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /**
     * Move @p bytes from @p src to @p dst; completes when the final
     * frame reaches the destination NIC. See the file comment for
     * the loopback and zero-byte semantics.
     */
    sim::Coro<void> transport(int src, int dst, std::uint64_t bytes);

    int hostCount() const { return static_cast<int>(hosts.size()); }
    int switchCount() const { return static_cast<int>(edges.size()); }
    const NetParams &params() const { return netParams; }
    const HostTraffic &traffic(int host) const;

    /** Total bytes moved across the fabric (loopback excluded). */
    std::uint64_t totalBytes() const { return movedBytes; }

    /**
     * Lower bound on the delivery latency of any cross-host message:
     * every non-loopback path crosses at least one switch hop (plus
     * NIC serialization, not counted here). The cluster's keyed
     * message hops take this as their latency.
     */
    sim::Tick minMessageLatency() const { return netParams.hopLatency; }

  private:
    struct Edge
    {
        std::unique_ptr<bus::Bus> up;
        std::unique_ptr<bus::Bus> down;
    };

    struct Host
    {
        std::unique_ptr<bus::Bus> tx;
        std::unique_ptr<bus::Bus> rx;
        HostTraffic traffic;
    };

    struct XferOp;

    /**
     * One frame of a message in flight, at stage s of its path: the
     * event target of the frame's launch, hop and stage-done steps.
     * Pooled; free ones form a list.
     */
    struct Frame final : sim::EventTarget
    {
        XferOp *op;
        int s;
        int i;
        Frame *nextFree;
    };

    int edgeOf(int host) const { return host / netParams.hostsPerSwitch; }

    Frame *allocFrame();
    void freeFrame(Frame *f);

    sim::Simulator &simulator;
    NetParams netParams;
    std::vector<Host> hosts;
    std::vector<Edge> edges;
    std::uint64_t movedBytes = 0;
    std::deque<Frame> framePool;
    Frame *freeFrames = nullptr;
    obs::Counter *obsMoved = nullptr; //!< null when obs is off
};

} // namespace howsim::net

#endif // HOWSIM_NET_NETWORK_HH

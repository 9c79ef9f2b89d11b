/**
 * @file
 * Differential conformance suite for the Network transfer engine:
 * every scenario runs once on net::Network (the calendar buses and
 * the per-frame walker) and once on a reference network of
 * per-frame forwarder coroutines over Resource-based buses, and the
 * full completion trace — (tick, message) in completion order — must
 * match exactly. This checks the ordering rules of DESIGN.md §12 at
 * the spots where they could break: same-tick collisions,
 * oversubscribed stages, trains joined mid-flight and multi-channel
 * buses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <utility>
#include <vector>

#include "../bus/reference_bus.hh"
#include "bus/bus.hh"
#include "net/network.hh"
#include "sim/awaitables.hh"
#include "sim/simulator.hh"

using namespace howsim;
using namespace howsim::net;
using namespace howsim::sim;

namespace
{

/**
 * The reference network: the same buses and paths as net::Network.
 * Each frame is serialized on the sender NIC, then a detached
 * forwarder coroutine carries it hop by hop (uplink and downlink
 * when the path crosses edge switches) to the receiver NIC.
 */
class ReferenceNetwork
{
  public:
    ReferenceNetwork(Simulator &s, int host_count, NetParams params)
        : simulator(s), p(params)
    {
        bus::BusParams link;
        link.channelRate = p.hostLinkRate;
        link.startup = 0;
        for (int h = 0; h < host_count; ++h) {
            tx.emplace_back(s, link);
            rx.emplace_back(s, link);
        }
        bus::BusParams uplink;
        uplink.channels = p.uplinksPerSwitch;
        uplink.channelRate = p.uplinkRate;
        uplink.startup = 0;
        for (int e = 0; e * p.hostsPerSwitch < host_count; ++e) {
            up.emplace_back(s, uplink);
            down.emplace_back(s, uplink);
        }
    }

    Coro<void>
    transport(int src, int dst, std::uint64_t bytes)
    {
        if (src == dst)
            co_return;
        const std::uint64_t wire = std::max<std::uint64_t>(bytes, 1);
        const bool cross = edgeOf(src) != edgeOf(dst) && up.size() > 1;
        const int total =
            static_cast<int>((wire + p.frameBytes - 1) / p.frameBytes);
        int arrived = 0;
        Trigger done;
        for (std::uint64_t remaining = wire; remaining > 0;) {
            auto sz = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(remaining, p.frameBytes));
            co_await tx[static_cast<std::size_t>(src)].transfer(sz);
            simulator.spawnDetached(
                forward(src, dst, sz, cross, &arrived, total, &done),
                "frame");
            remaining -= sz;
        }
        co_await done.wait();
    }

  private:
    int edgeOf(int host) const { return host / p.hostsPerSwitch; }

    Coro<void>
    forward(int src, int dst, std::uint32_t bytes, bool cross,
            int *arrived, int total, Trigger *done)
    {
        co_await delay(p.hopLatency);
        if (cross) {
            co_await up[static_cast<std::size_t>(edgeOf(src))].transfer(
                bytes);
            co_await delay(p.hopLatency);
            co_await down[static_cast<std::size_t>(edgeOf(dst))]
                .transfer(bytes);
            co_await delay(p.hopLatency);
        }
        co_await rx[static_cast<std::size_t>(dst)].transfer(bytes);
        if (++*arrived == total)
            done->fire();
    }

    Simulator &simulator;
    NetParams p;
    std::deque<reference::Bus> tx, rx, up, down;
};

struct Msg
{
    int src;
    int dst;
    std::uint64_t bytes;
    Tick start = 0;
};

/** Completion trace: (tick, message index) in completion order. */
using Trace = std::vector<std::pair<Tick, int>>;

template <typename Net>
Trace
runMsgs(int hosts, const std::vector<Msg> &msgs, NetParams base)
{
    Simulator sim;
    Net net(sim, hosts, base);
    Trace trace;
    auto one = [&](int idx) -> Coro<void> {
        const Msg &m = msgs[static_cast<std::size_t>(idx)];
        if (m.start > 0)
            co_await delay(m.start);
        co_await net.transport(m.src, m.dst, m.bytes);
        trace.emplace_back(Simulator::current()->now(), idx);
    };
    for (int i = 0; i < static_cast<int>(msgs.size()); ++i)
        sim.spawn(one(i));
    sim.run();
    return trace;
}

/** Run on both networks and require identical completion traces. */
void
expectConformance(int hosts, const std::vector<Msg> &msgs,
                  NetParams base = {})
{
    Trace ref = runMsgs<ReferenceNetwork>(hosts, msgs, base);
    Trace cal = runMsgs<Network>(hosts, msgs, base);
    ASSERT_EQ(ref.size(), msgs.size());
    ASSERT_EQ(ref.size(), cal.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i].first, cal[i].first)
            << "completion #" << i << " tick mismatch (msg "
            << ref[i].second << " vs " << cal[i].second << ")";
        EXPECT_EQ(ref[i].second, cal[i].second)
            << "completion #" << i << " order mismatch";
    }
}

} // namespace

TEST(NetConformance, SingleMessagesAllSizes)
{
    // One message at a time: sub-frame, exact frame multiples, large
    // trains, zero-byte control messages and loopback.
    std::vector<Msg> msgs;
    int i = 0;
    for (std::uint64_t sz :
         {0ull, 1ull, 1000ull, 65536ull, 65537ull, 131072ull,
          1000000ull, 10000000ull}) {
        msgs.push_back({0, 1, sz, Tick(i) * seconds(2)});
        ++i;
    }
    msgs.push_back({2, 2, 500000, 0}); // loopback
    expectConformance(4, msgs);
}

TEST(NetConformance, IntraEdgeDisjointPairs)
{
    // Concurrent but uncontended: no two messages share a stage.
    std::vector<Msg> msgs;
    for (int p = 0; p < 8; ++p)
        msgs.push_back({2 * p, 2 * p + 1, 2000000, 0});
    expectConformance(16, msgs);
}

TEST(NetConformance, FanInCongestion)
{
    // Many senders into one receiver NIC, same-tick starts: the
    // receiver stage queues frames from every sender.
    std::vector<Msg> msgs;
    for (int s = 0; s < 8; ++s)
        msgs.push_back({s, 8, 1000000ull + 64 * 1024 * (unsigned)s, 0});
    expectConformance(9, msgs);
}

TEST(NetConformance, SameSourceInterleavedTrains)
{
    // Several messages leaving one host concurrently interleave
    // frame-by-frame on the sender NIC.
    std::vector<Msg> msgs;
    for (int d = 1; d <= 4; ++d)
        msgs.push_back({0, d, 700000, 0});
    msgs.push_back({0, 1, 65536, milliseconds(10)});
    expectConformance(5, msgs);
}

TEST(NetConformance, OversubscribedUplinks)
{
    // Cross-edge all-out: 16 hosts on edge 0 all send to edge 1, so
    // the two gigabit uplinks are oversubscribed and multi-channel
    // grant order matters.
    std::vector<Msg> msgs;
    for (int s = 0; s < 16; ++s)
        msgs.push_back({s, 16 + s, 4000000, 0});
    expectConformance(32, msgs);
}

TEST(NetConformance, BarrierShuffleAllToAll)
{
    // The sort shuffle: everybody sends to everybody at the same
    // tick, with quantized equal sizes maximizing tick collisions.
    const int n = 6;
    std::vector<Msg> msgs;
    for (int s = 0; s < n; ++s)
        for (int d = 0; d < n; ++d)
            if (s != d)
                msgs.push_back({s, d, 512 * 1024, 0});
    expectConformance(n, msgs);
}

TEST(NetConformance, LongTrainJoinedMidFlight)
{
    // A long train starts alone on the fabric; later senders then
    // book its receiver while its frames are in every state (done,
    // in service, queued, not yet arrived).
    std::vector<Msg> msgs;
    msgs.push_back({0, 2, 8 * 1024 * 1024, 0});
    msgs.push_back({1, 2, 300000, milliseconds(100)});
    msgs.push_back({1, 2, 0, milliseconds(200)}); // zero-byte poke
    msgs.push_back({3, 2, 130000, milliseconds(300)});
    expectConformance(4, msgs);
}

TEST(NetConformance, RandomFuzz)
{
    // Deterministic fuzz over mixed shapes: random endpoints (incl.
    // occasional loopback), sizes from zero bytes to multi-frame
    // trains, staggered and same-tick starts, across two edges.
    std::minstd_rand rng(12345);
    for (int round = 0; round < 6; ++round) {
        std::vector<Msg> msgs;
        int n = 12 + static_cast<int>(rng() % 20);
        for (int i = 0; i < n; ++i) {
            Msg m;
            m.src = static_cast<int>(rng() % 20);
            m.dst = static_cast<int>(rng() % 20);
            switch (rng() % 4) {
              case 0: m.bytes = rng() % 100; break;
              case 1: m.bytes = rng() % 65536; break;
              case 2: m.bytes = 64 * 1024 * (1 + rng() % 8); break;
              default: m.bytes = rng() % 3000000; break;
            }
            m.start = (rng() % 2) ? 0
                                  : microseconds(rng() % 200000);
            msgs.push_back(m);
        }
        expectConformance(20, msgs);
    }
}

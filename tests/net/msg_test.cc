/** @file Tests for the message layer and barrier. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/msg.hh"
#include "net/network.hh"
#include "sim/awaitables.hh"
#include "sim/simulator.hh"

using namespace howsim::net;
using namespace howsim::sim;

namespace
{

struct Fixture
{
    Simulator sim;
    Network net;
    MsgLayer msg;

    explicit Fixture(int hosts) : net(sim, hosts), msg(sim, net) {}
};

} // namespace

TEST(MsgLayer, RoundTripDeliversPayload)
{
    Fixture f(4);
    std::string got;
    auto sender = [&]() -> Coro<void> {
        Message m;
        m.bytes = 1000;
        m.payload = std::string("hello world");
        co_await f.msg.send(0, 1, std::move(m));
    };
    auto receiver = [&]() -> Coro<void> {
        Message m = co_await f.msg.recv(1);
        got = std::any_cast<std::string>(m.payload);
        EXPECT_EQ(m.src, 0);
    };
    f.sim.spawn(sender());
    f.sim.spawn(receiver());
    f.sim.run();
    EXPECT_EQ(got, "hello world");
}

TEST(MsgLayer, TagsSeparateStreams)
{
    Fixture f(2);
    int data_seen = 0, ctrl_seen = 0;
    auto sender = [&]() -> Coro<void> {
        co_await f.msg.send(0, 1, Message{.tag = 7, .bytes = 100});
        co_await f.msg.send(0, 1, Message{.tag = 9, .bytes = 100});
    };
    auto receiver = [&]() -> Coro<void> {
        Message ctrl = co_await f.msg.recv(1, 9);
        ctrl_seen = ctrl.tag;
        Message data = co_await f.msg.recv(1, 7);
        data_seen = data.tag;
    };
    f.sim.spawn(sender());
    f.sim.spawn(receiver());
    f.sim.run();
    EXPECT_EQ(ctrl_seen, 9);
    EXPECT_EQ(data_seen, 7);
}

TEST(MsgLayer, AnySourceReceivesFromAllPeers)
{
    Fixture f(8);
    std::vector<int> sources;
    auto sender = [&](int src) -> Coro<void> {
        co_await f.msg.send(src, 7, Message{.bytes = 500});
    };
    auto receiver = [&]() -> Coro<void> {
        for (int i = 0; i < 7; ++i) {
            Message m = co_await f.msg.recv(7);
            sources.push_back(m.src);
        }
    };
    for (int src = 0; src < 7; ++src)
        f.sim.spawn(sender(src));
    f.sim.spawn(receiver());
    f.sim.run();
    EXPECT_EQ(sources.size(), 7u);
    std::sort(sources.begin(), sources.end());
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(sources[static_cast<size_t>(i)], i);
}

TEST(MsgLayer, PostSendOverlapsTransfers)
{
    Fixture f(4);
    Tick done = 0;
    auto sender = [&]() -> Coro<void> {
        // Two sends spawned side by side to different destinations
        // overlap; back-to-back sends would take twice as long.
        auto p1 = f.sim.spawn(f.msg.send(0, 1, Message{.bytes = 1250000}));
        auto p2 = f.sim.spawn(f.msg.send(0, 2, Message{.bytes = 1250000}));
        co_await p1->join();
        co_await p2->join();
        done = Simulator::current()->now();
    };
    auto receiver = [&](int host) -> Coro<void> {
        co_await f.msg.recv(host);
    };
    f.sim.spawn(sender());
    f.sim.spawn(receiver(1));
    f.sim.spawn(receiver(2));
    f.sim.run();
    // Both messages leave through host 0's single 12.5 MB/s link:
    // the tx stage serializes (~0.2 s) but rx stages overlap.
    EXPECT_NEAR(toSeconds(done), 0.2, 0.02);
}

TEST(MsgLayer, OverheadsChargedOnSendAndRecv)
{
    Fixture f(2);
    Tick recv_done = 0;
    auto sender = [&]() -> Coro<void> {
        co_await f.msg.send(0, 1, Message{.bytes = 1});
    };
    auto receiver = [&]() -> Coro<void> {
        co_await f.msg.recv(1);
        recv_done = Simulator::current()->now();
    };
    f.sim.spawn(sender());
    f.sim.spawn(receiver());
    f.sim.run();
    Tick floor = f.msg.params().sendOverhead + f.msg.params().recvOverhead;
    EXPECT_GT(recv_done, floor);
}

TEST(MsgLayer, KeyedSendAddsThreeHops)
{
    // On an idle fabric the keyed protocol costs exactly its three
    // hops (to the fabric, to the destination, the ack back) on top of
    // the direct send; a loopback send takes no hops.
    const Tick hop = microseconds(7);
    auto sendDone = [hop](bool keyed, int dst) {
        Fixture f(4);
        if (keyed)
            f.msg.useKeyedProtocol(hop);
        Tick done = 0;
        auto sender = [&]() -> Coro<void> {
            co_await f.msg.send(0, dst, Message{.bytes = 4096});
            done = Simulator::current()->now();
        };
        f.sim.spawn(sender());
        f.sim.run();
        return done;
    };
    EXPECT_EQ(sendDone(true, 1), sendDone(false, 1) + 3 * hop);
    EXPECT_EQ(sendDone(true, 0), sendDone(false, 0));
}

TEST(Barrier, AllArriveBeforeAnyProceeds)
{
    Simulator sim;
    Barrier barrier(sim, 4, microseconds(10));
    std::vector<Tick> release_times;
    auto body = [&](Tick arrival) -> Coro<void> {
        co_await delay(arrival);
        co_await barrier.arrive();
        release_times.push_back(Simulator::current()->now());
    };
    for (Tick t : {100u, 400u, 200u, 300u})
        sim.spawn(body(t));
    sim.run();
    ASSERT_EQ(release_times.size(), 4u);
    for (Tick t : release_times)
        EXPECT_EQ(t, 400u + microseconds(10));
    EXPECT_EQ(barrier.generation(), 1);
}

TEST(Barrier, KeyedReleaseLandsOnSharedStateTick)
{
    // Keyed arrivals hop to the home, but the release still lands at
    // t_last + cost, the tick the shared-state arrive() gives.
    Simulator sim;
    const Tick cost = microseconds(10);
    Barrier barrier(sim, 4, cost);
    barrier.useKeyedProtocol(microseconds(3));
    std::vector<Tick> release_times;
    auto body = [&](int participant, Tick arrival) -> Coro<void> {
        co_await delay(arrival);
        co_await barrier.arrive(participant);
        release_times.push_back(Simulator::current()->now());
    };
    const Tick arrivals[] = {100, 400, 200, 300};
    for (int p = 0; p < 4; ++p)
        sim.spawn(body(p, arrivals[p]));
    sim.run();
    ASSERT_EQ(release_times.size(), 4u);
    for (Tick t : release_times)
        EXPECT_EQ(t, 400u + cost);
    EXPECT_EQ(barrier.generation(), 1);
}

TEST(Barrier, ReusableAcrossRounds)
{
    Simulator sim;
    Barrier barrier(sim, 3, 0);
    int rounds_done = 0;
    auto body = [&](Tick stagger) -> Coro<void> {
        for (int round = 0; round < 5; ++round) {
            co_await delay(stagger);
            co_await barrier.arrive();
        }
        ++rounds_done;
    };
    sim.spawn(body(10));
    sim.spawn(body(20));
    sim.spawn(body(30));
    sim.run();
    EXPECT_EQ(rounds_done, 3);
    EXPECT_EQ(barrier.generation(), 5);
}

TEST(Barrier, LogCostGrowsLogarithmically)
{
    Tick step = microseconds(10);
    EXPECT_EQ(Barrier::logCost(1, step), 0u);
    EXPECT_EQ(Barrier::logCost(2, step), step);
    EXPECT_EQ(Barrier::logCost(16, step), 4 * step);
    EXPECT_EQ(Barrier::logCost(17, step), 5 * step);
    EXPECT_EQ(Barrier::logCost(128, step), 7 * step);
}

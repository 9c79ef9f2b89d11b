#include "net/msg.hh"

#include <cmath>
#include <utility>

#include "fault/fault.hh"
#include "obs/obs.hh"
#include "sim/awaitables.hh"
#include "sim/logging.hh"

namespace howsim::net
{

MsgLayer::MsgLayer(sim::Simulator &s, Network &n, MsgParams params)
    : simulator(s), network(n), msgParams(params)
{
    if (obs::Session *session = obs::session()) {
        obsSess = session;
        obsMsgs = &session->metrics().counter("msg.sent");
        obsBytes = &session->metrics().counter("msg.bytes");
    }
}

MsgLayer::Queue &
MsgLayer::queueFor(int host, int tag)
{
    auto key = std::make_pair(host, tag);
    auto it = queues.find(key);
    if (it == queues.end())
        it = queues.emplace(key, std::make_unique<Queue>()).first;
    return *it->second;
}

void
MsgLayer::useKeyedProtocol(sim::Tick hop)
{
    if (hop <= 0)
        panic("MsgLayer::useKeyedProtocol: hops need a positive latency");
    keyed = true;
    hopLatency = hop;
    hostKeys.clear();
    hostKeys.reserve(static_cast<std::size_t>(network.hostCount()));
    for (int h = 0; h < network.hostCount(); ++h)
        hostKeys.push_back(simulator.allocKeyStream());
    fabricKeys = simulator.allocKeyStream();
}

sim::Coro<void>
MsgLayer::send(int src, int dst, Message msg)
{
    msg.src = src;
    // Span covering send-post to delivery into the destination
    // queue; overlapping sends coexist as distinct async ids.
    std::uint64_t spanId = 0;
    if (obsSess) {
        spanId = obsSess->trace().asyncBegin(
            "msg", strprintf("msg %d->%d", src, dst),
            simulator.now());
        obsMsgs->add();
        obsBytes->add(msg.bytes);
    }
    co_await sim::delay(msgParams.sendOverhead);
    // Loopback never leaves the host: it takes no hops and sees no
    // injected loss. A keyed cross-host send hops to the fabric, moves
    // the bytes there, hops to the destination, and its ack hops back.
    const bool hops = keyed && src != dst;
    if (hops) {
        co_await simulator.hop(hopLatency,
                               hostKeys[static_cast<std::size_t>(src)]);
    }
    // A corrupted message is NACKed after one software round trip.
    if (links.active() && src != dst) {
        co_await links.deliver(
            src, dst, msgParams.recvOverhead + msgParams.sendOverhead,
            [&] { return network.transport(src, dst, msg.bytes); });
    } else {
        co_await network.transport(src, dst, msg.bytes);
    }
    if (hops)
        co_await simulator.hop(hopLatency, fabricKeys);
    int tag = msg.tag;
    co_await queueFor(dst, tag).send(std::move(msg));
    if (hops) {
        co_await simulator.hop(hopLatency,
                               hostKeys[static_cast<std::size_t>(dst)]);
    }
    if (spanId) {
        obsSess->trace().asyncEnd("msg",
                                  strprintf("msg %d->%d", src, dst),
                                  spanId, simulator.now());
    }
}

sim::Coro<Message>
MsgLayer::recv(int host, int tag)
{
    auto m = co_await queueFor(host, tag).recv();
    if (!m)
        panic("MsgLayer::recv on closed queue");
    co_await sim::delay(msgParams.recvOverhead);
    co_return std::move(*m);
}

void
MsgLayer::retireTagRange(int tagLo, int tagHi)
{
    std::erase_if(queues, [&](const auto &entry) {
        int tag = entry.first.second;
        if (tag < tagLo || tag >= tagHi)
            return false;
        if (entry.second->size() != 0) {
            panic("MsgLayer::retireTagRange: queue (host=%d, tag=%d) "
                  "still holds %zu messages",
                  entry.first.first, tag, entry.second->size());
        }
        return true;
    });
}

Barrier::Barrier(sim::Simulator &s, int n, sim::Tick cost)
    : simulator(s), expected(n), completionCost(cost),
      current(std::make_shared<sim::Trigger>())
{
    if (n <= 0)
        panic("Barrier of non-positive size");
}

sim::Tick
Barrier::logCost(int n, sim::Tick per_step)
{
    if (n <= 1)
        return 0;
    int steps = static_cast<int>(
        std::ceil(std::log2(static_cast<double>(n))));
    return static_cast<sim::Tick>(steps) * per_step;
}

sim::Coro<void>
Barrier::arrive()
{
    auto round = current;
    if (++count == expected) {
        count = 0;
        ++gen;
        current = std::make_shared<sim::Trigger>();
        // A raw pointer keeps the closure in the event word: this
        // (last) arrival's frame holds the round until it fires.
        simulator.scheduleIn(completionCost,
                             [trigger = round.get()] { trigger->fire(); });
    }
    co_await round->wait();
}

void
Barrier::useKeyedProtocol(sim::Tick hop)
{
    if (hop > completionCost) {
        panic("Barrier::useKeyedProtocol: hop latency %llu exceeds "
              "completion cost %llu (the release would land in the "
              "past)",
              static_cast<unsigned long long>(hop),
              static_cast<unsigned long long>(completionCost));
    }
    keyed = true;
    hopLatency = hop;
    arriveKeys.clear();
    arriveKeys.reserve(static_cast<std::size_t>(expected));
    for (int i = 0; i < expected; ++i)
        arriveKeys.push_back(simulator.allocKeyStream());
    releaseKeys = simulator.allocKeyStream();
    parked.reserve(static_cast<std::size_t>(expected));
}

sim::Coro<void>
Barrier::arrive(int participant)
{
    if (!keyed || expected == 1) {
        // Shared-state protocol (and trivially for a single
        // participant, who completes the round alone).
        co_await arrive();
        co_return;
    }
    co_await simulator.hop(hopLatency,
                           arriveKeys[static_cast<std::size_t>(participant)]);
    co_await Park{this};
}

BarrierSet::BarrierSet(sim::Simulator &s, int n, sim::Tick cost)
    : simulator(s), batch(s, n, cost)
{
}

sim::Coro<void>
BarrierSet::arrive(int participant, int stream)
{
    if (stream == 0)
        return batch.arrive(participant);
    auto it = streams.find(stream);
    if (it == streams.end()) {
        it = streams
                 .emplace(stream, std::make_unique<Barrier>(
                                      simulator, batch.size(),
                                      batch.cost()))
                 .first;
    }
    return it->second->arrive();
}

void
BarrierSet::useKeyedProtocol(sim::Tick hop)
{
    if (batch.size() > 1)
        batch.useKeyedProtocol(hop);
}

void
BarrierSet::retire(int stream)
{
    if (stream <= 0)
        panic("BarrierSet::retire: stream %d is not a traffic stream",
              stream);
    streams.erase(stream);
}

void
Barrier::Park::await_suspend(std::coroutine_handle<> h)
{
    std::vector<std::coroutine_handle<>> &parked = barrier->parked;
    parked.push_back(h);
    if (static_cast<int>(parked.size()) < barrier->expected)
        return;
    // The last arrival landed at t_last + hopLatency, so releasing
    // at now() - hopLatency + completionCost reproduces arrive()'s
    // tick exactly.
    sim::Simulator &s = barrier->simulator;
    sim::Tick releaseAt
        = s.now() - barrier->hopLatency + barrier->completionCost;
    ++barrier->gen;
    for (std::coroutine_handle<> waiter : parked)
        s.postKeyed(releaseAt, barrier->releaseKeys.next(), waiter);
    parked.clear();
}

} // namespace howsim::net

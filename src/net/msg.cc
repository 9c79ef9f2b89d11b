#include "net/msg.hh"

#include <algorithm>
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
    if (fault::Injector *inj = fault::current()) {
        if (inj->plan().netFaultsActive()) {
            faultInj = inj;
            if (obsSess) {
                obsRetrans = &obsSess->metrics().counter(
                    "msg.fault.retransmits");
                obsDrops = &obsSess->metrics().counter(
                    "msg.fault.drops");
                obsCorrupt = &obsSess->metrics().counter(
                    "msg.fault.corruptions");
                obsAttempts = &obsSess->metrics().histogram(
                    "msg.fault.attempts");
            }
        }
    }
}

/**
 * Transport with injected per-link frame loss. Each attempt moves the
 * bytes over the fabric (a dropped train still occupied the wire); a
 * drop is noticed by the sender's retransmission timeout, doubling
 * per attempt (bounded exponential backoff), while corruption is
 * caught by the receiver's checksum and NACKed after one software
 * round trip. Attempt outcomes hash (seed, link, message sequence,
 * attempt), so both transfer engines — whose per-transport completion
 * ticks are identical by DESIGN.md section 12 — retransmit at
 * identical ticks.
 */
sim::Coro<void>
MsgLayer::faultyTransport(int src, int dst, std::uint64_t bytes)
{
    const fault::FaultPlan &plan = faultInj->plan();
    const std::uint64_t site = fault::linkSite(src, dst);
    const std::uint64_t seq = linkSeq[{src, dst}]++;
    for (int attempt = 0;; ++attempt) {
        co_await network.transport(src, dst, bytes);
        fault::Injector::NetFail outcome
            = faultInj->netAttempt(site, seq, attempt);
        if (outcome == fault::Injector::NetFail::None) {
            if (attempt > 0 && obsAttempts) {
                obsAttempts->sample(
                    static_cast<std::uint64_t>(attempt + 1));
            }
            co_return;
        }
        fault::Counters &ctr = faultInj->counters();
        ++ctr.netRetransmits;
        if (obsRetrans)
            obsRetrans->add();
        if (outcome == fault::Injector::NetFail::Drop) {
            ++ctr.netDrops;
            if (obsDrops)
                obsDrops->add();
            co_await sim::delay(plan.netTimeout
                                << std::min(attempt, 16));
        } else {
            ++ctr.netCorruptions;
            if (obsCorrupt)
                obsCorrupt->add();
            co_await sim::delay(msgParams.recvOverhead
                                + msgParams.sendOverhead);
        }
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
    if (!keyed || src == dst) {
        // Direct — or loopback, which never leaves the host (and
        // sees no injected loss): one frame spans all devices.
        if (faultInj && src != dst)
            co_await faultyTransport(src, dst, msg.bytes);
        else
            co_await network.transport(src, dst, msg.bytes);
        int tag = msg.tag;
        co_await queueFor(dst, tag).send(std::move(msg));
    } else {
        // Keyed: hand the message to the fabric one hop out and
        // resume when the destination's delivery ack lands back. The
        // message and the trigger stay in this suspended frame.
        sim::Trigger acked;
        Message *m = &msg;
        sim::Trigger *ackedPtr = &acked;
        MsgLayer *self = this;
        simulator.postKeyed(
            simulator.now() + hopLatency,
            hostKeys[static_cast<std::size_t>(src)].next(),
            [self, src, dst, m, ackedPtr] {
                self->simulator.spawnDetached(
                    self->fabricLeg(src, dst, m, ackedPtr),
                    "msgfabric");
            });
        co_await acked.wait();
    }
    if (spanId) {
        obsSess->trace().asyncEnd("msg",
                                  strprintf("msg %d->%d", src, dst),
                                  spanId, simulator.now());
    }
}

sim::Coro<void>
MsgLayer::fabricLeg(int src, int dst, Message *msg,
                    sim::Trigger *acked)
{
    if (faultInj)
        co_await faultyTransport(src, dst, msg->bytes);
    else
        co_await network.transport(src, dst, msg->bytes);
    MsgLayer *self = this;
    simulator.postKeyed(simulator.now() + hopLatency, fabricKeys.next(),
                        [self, dst, msg, acked] {
                            self->simulator.spawnDetached(
                                self->deliverLeg(dst, msg, acked),
                                "msgdeliver");
                        });
}

sim::Coro<void>
MsgLayer::deliverLeg(int dst, Message *msg, sim::Trigger *acked)
{
    int tag = msg->tag;
    co_await queueFor(dst, tag).send(std::move(*msg));
    simulator.postKeyed(simulator.now() + hopLatency,
                        hostKeys[static_cast<std::size_t>(dst)].next(),
                        [acked] { acked->fire(); });
}

sim::ProcessRef
MsgLayer::postSend(int src, int dst, Message msg)
{
    return simulator.spawnDetached(send(src, dst, std::move(msg)),
                                   "isend");
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

std::size_t
MsgLayer::pendingCount(int host, int tag)
{
    return queueFor(host, tag).size();
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
        simulator.scheduleIn(completionCost,
                             [round] { round->fire(); });
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
    arrivals.reserve(static_cast<std::size_t>(expected));
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
    // The trigger lives in this (suspended) frame; the home stores
    // the pointer and fires it from the release event.
    sim::Trigger done;
    sim::Trigger *donePtr = &done;
    Barrier *self = this;
    simulator.postKeyed(simulator.now() + hopLatency,
                        arriveKeys[static_cast<std::size_t>(participant)]
                            .next(),
                        [self, donePtr] { self->homeArrive(donePtr); });
    co_await done.wait();
}

void
Barrier::homeArrive(sim::Trigger *done)
{
    arrivals.push_back(done);
    if (static_cast<int>(arrivals.size()) < expected)
        return;
    // The last arrival landed at t_last + hopLatency, so releasing
    // at now() - hopLatency + completionCost reproduces arrive()'s
    // tick exactly.
    sim::Tick releaseAt = simulator.now() - hopLatency + completionCost;
    ++gen;
    std::vector<sim::Trigger *> round;
    round.swap(arrivals);
    for (sim::Trigger *trig : round)
        simulator.postKeyed(releaseAt, releaseKeys.next(),
                            [trig] { trig->fire(); });
}

AllReduce::AllReduce(sim::Simulator &s, int n, sim::Tick cost, Op op)
    : simulator(s), expected(n), completionCost(cost),
      combine(std::move(op)), current(std::make_shared<Round>())
{
    if (n <= 0)
        panic("AllReduce of non-positive size");
}

sim::Coro<double>
AllReduce::arrive(double value)
{
    auto round = current;
    if (round->first) {
        round->acc = value;
        round->first = false;
    } else {
        round->acc = combine(round->acc, value);
    }
    if (++count == expected) {
        count = 0;
        current = std::make_shared<Round>();
        simulator.scheduleIn(completionCost,
                             [round] { round->trig.fire(); });
    }
    co_await round->trig.wait();
    co_return round->acc;
}

} // namespace howsim::net

/**
 * @file
 * MPI-like message-passing layer over the switched network.
 *
 * Mirrors the user-space messaging library Howsim's Netsim models:
 * point-to-point sends with per-message software overheads,
 * any-source receives (per-tag queues), and a global barrier with
 * logarithmic cost.
 */

#ifndef HOWSIM_NET_MSG_HH
#define HOWSIM_NET_MSG_HH

#include <any>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "fault/fault.hh"
#include "net/network.hh"
#include "sim/awaitables.hh"
#include "sim/channel.hh"
#include "sim/coro.hh"
#include "sim/simulator.hh"
#include "sim/ticks.hh"

namespace howsim::obs
{
class Session;
} // namespace howsim::obs

namespace howsim::net
{

/**
 * Width of one concurrent-query stream's message-tag band. A task
 * runner executing as traffic stream s shifts every tag t to
 * s * kStreamTagStride + t, so concurrent queries demultiplex onto
 * disjoint (host, tag) queues with no machine-layer changes. The
 * paper tasks use tags [0, 7); the stride leaves headroom.
 */
constexpr int kStreamTagStride = 16;

/** A delivered message. */
struct Message
{
    int src = -1;
    int tag = 0;
    std::uint64_t bytes = 0;
    /** Optional model-level payload (not part of the timing). */
    std::any payload;
};

/** Software costs of the messaging library. */
struct MsgParams
{
    /** CPU time to post a send. */
    sim::Tick sendOverhead = sim::microseconds(15);

    /** CPU time to complete a receive. */
    sim::Tick recvOverhead = sim::microseconds(15);
};

/**
 * Message endpoints for every host on a Network. One instance serves
 * the whole machine; hosts are identified by their network ids.
 */
class MsgLayer
{
  public:
    MsgLayer(sim::Simulator &s, Network &n, MsgParams params = {});

    /**
     * Synchronous send: charges the send overhead, moves the bytes,
     * and completes once the message is enqueued at the destination.
     */
    sim::Coro<void> send(int src, int dst, Message msg);

    /**
     * Receive the next message for (@p host, @p tag), any source.
     * Charges the receive overhead.
     */
    sim::Coro<Message> recv(int host, int tag = 0);

    /**
     * Drop the (host, tag) queues with tag in [@p tagLo, @p tagHi) —
     * a completed traffic stream's band. All queues must be drained
     * (a retired queue holding messages is a protocol bug).
     */
    void retireTagRange(int tagLo, int tagHi);

    /**
     * Switch cross-host sends to the keyed protocol (DESIGN.md §14):
     * the send hops @p hopLatency to the fabric, moves the bytes
     * there, hops on to the destination, and its ack hops back. Three
     * hops in all; loopback stays direct. Allocates one key stream
     * per host, then one for the fabric, so call at
     * machine-construction time, in a fixed order.
     */
    void useKeyedProtocol(sim::Tick hopLatency);

    const MsgParams &params() const { return msgParams; }

  private:
    using Queue = sim::Channel<Message>;

    Queue &queueFor(int host, int tag);

    sim::Simulator &simulator;
    Network &network;
    MsgParams msgParams;
    std::map<std::pair<int, int>, std::unique_ptr<Queue>> queues;
    // Cached observability hooks; null when observability is off.
    obs::Session *obsSess = nullptr;
    obs::Counter *obsMsgs = nullptr;
    obs::Counter *obsBytes = nullptr;
    // Injected frame loss on cross-host sends (inactive when the
    // thread's plan has no network faults).
    fault::LossyLinks links{"msg"};

    // Keyed protocol (useKeyedProtocol): hostKeys[h] keys host h's
    // send hops and delivery acks, fabricKeys the fabric's deliveries.
    bool keyed = false;
    sim::Tick hopLatency = 0;
    std::vector<sim::KeyStream> hostKeys;
    sim::KeyStream fabricKeys;
};

/**
 * Reusable all-to-all barrier for a fixed-size group. Completion is
 * charged a logarithmic (dissemination-style) latency.
 *
 * Two arrival protocols share the timing model. arrive() mutates the
 * shared round state directly. Once useKeyedProtocol() is called,
 * arrive(participant) instead hops to the barrier's home and parks
 * its coroutine there; arrivals land in key order and, when the
 * round is full, keyed releases resume the parked coroutines at
 * exactly t_last + completionCost — the tick arrive() fires at
 * (DESIGN.md §14).
 */
class Barrier
{
  public:
    /**
     * @param n     Number of participants per round.
     * @param cost  Modeled completion latency once all have arrived.
     */
    Barrier(sim::Simulator &s, int n, sim::Tick cost);

    /** Arrive and wait for the round to complete. */
    sim::Coro<void> arrive();

    /**
     * Keyed arrival for @p participant (0-based, stable). Falls back
     * to arrive() until useKeyedProtocol() is called.
     */
    sim::Coro<void> arrive(int participant);

    /**
     * Switch arrive(participant) to keyed arrivals that cross
     * @p hopLatency to the home. Allocates one key stream per
     * participant, then one for the releases, so call at
     * machine-construction time, in a fixed order. @p hopLatency
     * must not exceed the completion cost: the release lands
     * completionCost - hopLatency after the last arrival reaches
     * the home.
     */
    void useKeyedProtocol(sim::Tick hopLatency);

    /** Rounds completed so far. */
    int generation() const { return gen; }

    /** Participants per round. */
    int size() const { return expected; }

    /** Modeled completion latency once all have arrived. */
    sim::Tick cost() const { return completionCost; }

    /** Dissemination-cost helper: ceil(log2 n) * per_step. */
    static sim::Tick logCost(int n, sim::Tick per_step);

  private:
    /** Parks an arrival at the home; the last one posts the releases. */
    struct Park
    {
        Barrier *barrier;

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h);
        void await_resume() const noexcept {}
    };

    sim::Simulator &simulator;
    int expected;
    sim::Tick completionCost;
    int count = 0;
    int gen = 0;
    std::shared_ptr<sim::Trigger> current;

    /** @name Keyed protocol (after useKeyedProtocol) */
    /** @{ */
    bool keyed = false;
    sim::Tick hopLatency = 0;
    /** Per-participant arrival streams. */
    std::vector<sim::KeyStream> arriveKeys;
    /** Release stream. */
    sim::KeyStream releaseKeys;
    /** Coroutines parked at the home in the open round, in key order. */
    std::vector<std::coroutine_handle<>> parked;
    /** @} */
};

/**
 * One machine's phase barriers: the batch barrier (stream 0) plus one
 * shared-state barrier per concurrent traffic stream, made on first
 * use with the same participants and cost, so one query's phase
 * boundary never gates another's.
 */
class BarrierSet
{
  public:
    BarrierSet(sim::Simulator &s, int n, sim::Tick cost);

    /**
     * Arrive at @p stream's barrier as @p participant and wait for
     * the round. The batch barrier's arrivals are keyed after
     * useKeyedProtocol().
     */
    sim::Coro<void> arrive(int participant, int stream);

    /**
     * Key the batch barrier's arrivals (Barrier::useKeyedProtocol). A
     * single participant keeps the shared-state barrier: logCost(1)
     * == 0 leaves no room for the hop.
     */
    void useKeyedProtocol(sim::Tick hopLatency);

    /** Drop a completed traffic stream's barrier (stream > 0 only). */
    void retire(int stream);

  private:
    sim::Simulator &simulator;
    Barrier batch;
    std::map<int, std::unique_ptr<Barrier>> streams;
};

} // namespace howsim::net

#endif // HOWSIM_NET_MSG_HH

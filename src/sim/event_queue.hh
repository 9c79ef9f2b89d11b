/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are (tick, sequence, action) triples drained in strict
 * (tick, seq) order. Ordinary schedules draw fresh sequence numbers
 * from the queue's counter, so events scheduled for one tick run in
 * scheduling order and every simulation is deterministic; keyed
 * events (scheduleWithSeq, DESIGN.md §14) bring their own from the
 * kKeyedSeqBand.
 *
 * The queue has two exact parts:
 *
 *  - the *lane*, a FIFO of ordinary events scheduled at the tick
 *    being drained (joiner wakeups, process starts, zero-delay
 *    hand-offs: close to half of all events). Appending and popping
 *    are O(1) and nothing sifts.
 *  - a binary min-heap of trivially copyable 24-byte (tick, seq,
 *    slot) keys. The InlineAction payloads live in a slab indexed by
 *    slot, with a free list, so a sift moves 24 bytes and each
 *    payload moves once in and once out.
 *
 * Every lane entry sits at laneTick and the lane receives fresh seqs
 * in increasing order, so the lane is itself sorted on (tick, seq).
 * pop() takes the lane head unless the heap top is lower on the full
 * key, which makes drain order exactly (tick, seq) whatever is
 * scheduled when, keyed events at the drain tick and schedules below
 * it included. tests/sim/sched_conformance_test.cc drives the queue
 * against a plain binary heap to check this.
 */

#ifndef HOWSIM_SIM_EVENT_QUEUE_HH
#define HOWSIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/action.hh"
#include "sim/sched.hh"
#include "sim/ticks.hh"

namespace howsim::sim
{

/** Deterministic priority queue of timed actions. */
class EventQueue
{
  public:
    using Action = InlineAction;

    /** Schedule @p action to run at absolute time @p when. */
    void
    schedule(Tick when, Action action)
    {
        std::uint64_t seq = nextSeq++;
        if (when == laneTick)
            lane.emplace_back(seq, std::move(action));
        else
            push(when, seq, std::move(action));
    }

    /**
     * Fast path: schedule the resumption of @p h at time @p when.
     * Equivalent to scheduling [h] { h.resume(); } — the handle is
     * stored in the action's inline buffer, so no allocation occurs.
     */
    void
    schedule(Tick when, std::coroutine_handle<> h)
    {
        schedule(when, Action(h));
    }

    /**
     * Schedule with an explicit sequence number instead of the fresh
     * counter. This is the keyed-event entry point (DESIGN.md §14):
     * the caller supplies a KeyStream-allocated seq in the
     * kKeyedSeqBand so same-tick order is a property of the posting
     * entity, not of when the event was scheduled. The fresh counter
     * is untouched — ordinary events keep their band (below 2^62) and
     * drain first at any shared tick.
     */
    void
    scheduleWithSeq(Tick when, std::uint64_t seq, Action action)
    {
        push(when, seq, std::move(action));
    }

    /** True when no events remain. */
    bool empty() const { return laneHead == lane.size() && keys.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return lane.size() - laneHead + keys.size(); }

    /** Time of the earliest pending event. @pre !empty(). */
    Tick
    nextTick() const
    {
        if (laneHead == lane.size()
            || (!keys.empty() && keys.front().when < laneTick))
            return keys.front().when;
        return laneTick;
    }

    /**
     * Remove and return the earliest pending action.
     * @pre !empty().
     */
    Action
    pop()
    {
        if (laneHead != lane.size() && !heapTopFirst()) {
            Action action = std::move(lane[laneHead].action);
            if (++laneHead == lane.size()) {
                lane.clear();
                laneHead = 0;
            }
            return action;
        }
        std::pop_heap(keys.begin(), keys.end(), KeyAfter{});
        Key key = keys.back();
        keys.pop_back();
        // An empty lane follows the drain: later schedules at this
        // tick append to it instead of sifting through the heap.
        if (laneHead == lane.size())
            laneTick = key.when;
        freeSlots.push_back(key.slot);
        return std::move(slab[key.slot]);
    }

    /** Pre-size the queue for @p n pending events. */
    void
    reserve(std::size_t n)
    {
        keys.reserve(n);
        slab.reserve(n);
        freeSlots.reserve(n);
        lane.reserve(n);
    }

    /** Total number of events ever scheduled (for stats/tests). */
    std::uint64_t scheduledCount() const { return nextSeq; }

  private:
    /** Heap key; the payload waits in slab[slot]. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

    /** Min-order comparator for the std:: heap algorithms. */
    struct KeyAfter
    {
        bool
        operator()(const Key &a, const Key &b) const noexcept
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    struct LaneEntry
    {
        std::uint64_t seq;
        Action action;
    };

    /** Does the heap top precede the lane head? @pre lane nonempty. */
    bool
    heapTopFirst() const
    {
        if (keys.empty())
            return false;
        const Key &top = keys.front();
        return top.when < laneTick
               || (top.when == laneTick && top.seq < lane[laneHead].seq);
    }

    void
    push(Tick when, std::uint64_t seq, Action action)
    {
        auto slot = static_cast<std::uint32_t>(slab.size());
        if (freeSlots.empty()) {
            slab.push_back(std::move(action));
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
            slab[slot] = std::move(action);
        }
        keys.push_back(Key{when, seq, slot});
        std::push_heap(keys.begin(), keys.end(), KeyAfter{});
    }

    std::vector<Key> keys; //!< min-heap (KeyAfter order)
    std::vector<Action> slab;
    std::vector<std::uint32_t> freeSlots;
    std::vector<LaneEntry> lane; //!< served from laneHead onwards
    std::size_t laneHead = 0;
    Tick laneTick = 0; //!< the tick of every lane entry
    std::uint64_t nextSeq = 0;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_EVENT_QUEUE_HH

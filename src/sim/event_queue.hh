/**
 * @file
 * The discrete-event queue at the heart of the simulator — a thin
 * facade over the pluggable scheduler policies.
 *
 * Events are (tick, sequence, action) triples; the sequence number
 * breaks same-tick ties so that events scheduled for the same tick
 * execute in scheduling order, which keeps simulations
 * deterministic. Two interchangeable containers implement the
 * ordering:
 *
 *  - EventHeap (event_heap.hh) — the reference binary heap,
 *    O(log n) per operation;
 *  - EventLadder (event_ladder.hh) — a ladder queue, amortized O(1)
 *    per operation and the default.
 *
 * Both drain in strict (tick, seq) order, so which policy runs is
 * invisible to the simulation: every figure and table is
 * bit-identical under either. The policy is chosen per queue at
 * construction — by the HOWSIM_SCHED environment variable for the
 * default constructor — and dispatch is a single predictable branch,
 * not a virtual call, so the hot path stays inlineable.
 */

#ifndef HOWSIM_SIM_EVENT_QUEUE_HH
#define HOWSIM_SIM_EVENT_QUEUE_HH

#include <coroutine>
#include <cstdint>

#include "sim/action.hh"
#include "sim/event_heap.hh"
#include "sim/event_ladder.hh"
#include "sim/sched.hh"
#include "sim/ticks.hh"

namespace howsim::sim
{

/** Deterministic priority queue of timed actions. */
class EventQueue
{
  public:
    using Action = InlineAction;

    /** Use the HOWSIM_SCHED policy (ladder unless overridden). */
    EventQueue() : EventQueue(defaultSchedPolicy()) {}

    explicit EventQueue(SchedPolicy policy) : pol(policy) {}

    /** Schedule @p action to run at absolute time @p when. */
    void
    schedule(Tick when, Action action)
    {
        SchedEntry entry{when, nextSeq++, std::move(action)};
        if (pol == SchedPolicy::Ladder)
            ladder.push(std::move(entry));
        else
            heap.push(std::move(entry));
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
        SchedEntry entry{when, seq, std::move(action)};
        if (pol == SchedPolicy::Ladder) {
            ladder.markExplicitSeqs();
            ladder.push(std::move(entry));
        } else {
            heap.push(std::move(entry));
        }
    }

    /** True when no events remain. */
    bool
    empty() const
    {
        return pol == SchedPolicy::Ladder ? ladder.empty()
                                          : heap.empty();
    }

    /** Number of pending events. */
    std::size_t
    size() const
    {
        return pol == SchedPolicy::Ladder ? ladder.size()
                                          : heap.size();
    }

    /**
     * Time of the earliest pending event. The ladder policy may
     * promote a bucket into its drain window here, hence not const.
     * @pre !empty().
     */
    Tick
    nextTick()
    {
        return pol == SchedPolicy::Ladder ? ladder.minTick()
                                          : heap.minTick();
    }

    /**
     * Remove and return the earliest pending action.
     * @pre !empty().
     */
    Action
    pop()
    {
        return pol == SchedPolicy::Ladder ? ladder.pop() : heap.pop();
    }

    /** Pre-size the queue for @p n pending events. */
    void
    reserve(std::size_t n)
    {
        if (pol == SchedPolicy::Ladder)
            ladder.reserve(n);
        else
            heap.reserve(n);
    }

    /** Total number of events ever scheduled (for stats/tests). */
    std::uint64_t scheduledCount() const { return nextSeq; }

    /** The scheduler policy this queue was built with. */
    SchedPolicy policy() const { return pol; }

    /**
     * Ladder tier occupancy, for obs probes and tests. All zeros
     * under the heap policy.
     */
    EventLadder::Occupancy
    ladderOccupancy() const
    {
        return pol == SchedPolicy::Ladder ? ladder.occupancy()
                                          : EventLadder::Occupancy{};
    }

  private:
    SchedPolicy pol;
    EventHeap heap;
    EventLadder ladder;
    std::uint64_t nextSeq = 0;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_EVENT_QUEUE_HH

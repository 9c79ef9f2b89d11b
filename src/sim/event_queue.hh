/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are (tick, sequence, word) triples drained in strict
 * (tick, seq) order. Ordinary schedules draw fresh sequence numbers
 * from the queue's counter, so events scheduled for one tick run in
 * scheduling order and every simulation is deterministic; keyed
 * events (scheduleWithSeq, DESIGN.md §14) bring their own from the
 * kKeyedSeqBand.
 *
 * An event's payload is one EventWord: a coroutine handle to resume
 * or an intrusive EventTarget to fire. An arbitrary closure waits in
 * a pooled target of the queue's own and travels as that target's
 * word, so the queue moves nothing but words.
 *
 * The queue has two exact parts:
 *
 *  - the *lane*, a FIFO of ordinary events scheduled at the tick
 *    being drained (joiner wakeups, process starts, zero-delay
 *    hand-offs: close to half of all events). Appending and popping
 *    are O(1) and nothing sifts.
 *  - a binary min-heap of trivially copyable 24-byte (tick, seq,
 *    word) keys.
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
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/sched.hh"
#include "sim/ticks.hh"

namespace howsim::sim
{

/**
 * An intrusive event: a record the queue fires by calling fire with
 * the record's own address. A model embeds it in a record it already
 * keeps (a bus booking, a network frame) and points fire at the step
 * due next, so scheduling the step builds nothing.
 */
struct EventTarget
{
    void (*fire)(EventTarget *self);
};

/**
 * One event's payload in one machine word: a coroutine handle to
 * resume (bit 0 clear) or an EventTarget to fire (bit 0 set). Frames
 * and targets are at least 8-aligned, which leaves bit 0 for the tag.
 */
class EventWord
{
  public:
    /** Empty; running it is undefined. */
    EventWord() noexcept = default;

    EventWord(std::coroutine_handle<> h)
        : bits(reinterpret_cast<std::uintptr_t>(h.address()))
    {
        if (bits & targetTag) [[unlikely]]
            panic("EventWord: coroutine frame %p is misaligned",
                  h.address());
    }

    EventWord(EventTarget *target) noexcept
        : bits(reinterpret_cast<std::uintptr_t>(target) | targetTag)
    {}

    /** Resume the handle or fire the target. */
    void
    operator()() const
    {
        if (bits & targetTag) {
            auto *target = reinterpret_cast<EventTarget *>(bits
                                                           & ~targetTag);
            target->fire(target);
        } else {
            std::coroutine_handle<>::from_address(
                reinterpret_cast<void *>(bits))
                .resume();
        }
    }

  private:
    static constexpr std::uintptr_t targetTag = 1;
    static_assert(alignof(EventTarget) > targetTag);

    std::uintptr_t bits = 0;
};

/** True for any std::coroutine_handle. */
template <typename F>
inline constexpr bool isCoroutineHandle = false;

template <typename P>
inline constexpr bool isCoroutineHandle<std::coroutine_handle<P>> = true;

/**
 * The callable of a closure event. A coroutine handle is not a
 * closure: it travels as an EventWord, so Closure refuses one at
 * compile time, which also keeps schedule(t, handle) unambiguous.
 */
struct Closure : std::function<void()>
{
    Closure() = default;

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, Closure>
                 && !isCoroutineHandle<std::decay_t<F>>
                 && std::is_invocable_r_v<void, std::decay_t<F> &>)
    Closure(F &&f) : std::function<void()>(std::forward<F>(f))
    {
    }
};

/** Deterministic priority queue of timed events. */
class EventQueue
{
  public:
    using Action = Closure;

    EventQueue() = default;

    /** Pooled closures point back at their queue, which never moves. */
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Schedule @p event to run at absolute time @p when. */
    void
    schedule(Tick when, EventWord event)
    {
        std::uint64_t seq = nextSeq++;
        if (when == laneTick)
            lane.push_back(LaneEntry{seq, event});
        else
            push(when, seq, event);
    }

    /** Schedule the closure @p action to run at time @p when. */
    void
    schedule(Tick when, Action action)
    {
        schedule(when, wrap(std::move(action)));
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
    scheduleWithSeq(Tick when, std::uint64_t seq, EventWord event)
    {
        push(when, seq, event);
    }

    /** Keyed schedule of the closure @p action. */
    void
    scheduleWithSeq(Tick when, std::uint64_t seq, Action action)
    {
        push(when, seq, wrap(std::move(action)));
    }

    /**
     * Park @p action in a pooled target and return the target's word.
     * Running the word frees the target and then invokes the action;
     * a word never run keeps its action until the queue dies.
     */
    EventWord
    wrap(Action action)
    {
        PooledClosure *c = freeClosures;
        if (c)
            freeClosures = c->nextFree;
        else
            c = closures.emplace_back(std::make_unique<PooledClosure>(this))
                    .get();
        c->action = std::move(action);
        return c;
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
     * Remove and return the earliest pending event; the caller runs
     * it. @pre !empty().
     */
    EventWord
    pop()
    {
        if (laneHead != lane.size() && !heapTopFirst()) {
            EventWord event = lane[laneHead].event;
            if (++laneHead == lane.size()) {
                lane.clear();
                laneHead = 0;
            }
            return event;
        }
        std::pop_heap(keys.begin(), keys.end(), KeyAfter{});
        Key key = keys.back();
        keys.pop_back();
        // An empty lane follows the drain: later schedules at this
        // tick append to it instead of sifting through the heap.
        if (laneHead == lane.size())
            laneTick = key.when;
        return key.event;
    }

    /** Pre-size the queue for @p n pending events, closures included. */
    void
    reserve(std::size_t n)
    {
        keys.reserve(n);
        lane.reserve(n);
        while (closures.size() < n) {
            PooledClosure *c
                = closures.emplace_back(std::make_unique<PooledClosure>(this))
                      .get();
            c->nextFree = freeClosures;
            freeClosures = c;
        }
    }

    /** Total number of events ever scheduled (for stats/tests). */
    std::uint64_t scheduledCount() const { return nextSeq; }

  private:
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        EventWord event;
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
        EventWord event;
    };

    /** A closure waiting in the queue; free ones form a list. */
    struct PooledClosure final : EventTarget
    {
        explicit PooledClosure(EventQueue *q)
            : EventTarget{&runClosure}, owner(q)
        {
        }

        EventQueue *owner;
        Action action;
        PooledClosure *nextFree = nullptr;
    };

    static void
    runClosure(EventTarget *self)
    {
        auto *c = static_cast<PooledClosure *>(self);
        Action action = std::move(c->action);
        c->nextFree = c->owner->freeClosures;
        c->owner->freeClosures = c;
        action();
    }

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
    push(Tick when, std::uint64_t seq, EventWord event)
    {
        keys.push_back(Key{when, seq, event});
        std::push_heap(keys.begin(), keys.end(), KeyAfter{});
    }

    std::vector<Key> keys; //!< min-heap (KeyAfter order)
    std::vector<LaneEntry> lane; //!< served from laneHead onwards
    std::size_t laneHead = 0;
    Tick laneTick = 0; //!< the tick of every lane entry
    std::uint64_t nextSeq = 0;
    /** Every closure ever built; none is built before the first. */
    std::vector<std::unique_ptr<PooledClosure>> closures;
    PooledClosure *freeClosures = nullptr;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_EVENT_QUEUE_HH

/**
 * @file
 * Scheduler conformance: the event queue (a same-tick FIFO lane over
 * a heap of compact keys) must drain in exactly the order a plain
 * binary heap over (tick, seq) does — same ticks, same same-tick
 * resolution, for any schedule/pop interleaving, keyed events and
 * schedules below the drain tick included. A randomized differential
 * fuzz plus directed schedules (same-tick bursts, far-future
 * clusters, refill boundaries, tick saturation) drive both. The
 * oracle keeps closures; the queue under test receives each event as
 * a closure, a coroutine handle or an EventTarget, picked at random.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "sim/coro.hh"
#include "sim/event_queue.hh"

using namespace howsim::sim;

namespace
{

/** Deterministic 64-bit LCG (same constants as std::mt19937_64 seeds
 * by; quality is irrelevant, reproducibility is not). */
struct Rng
{
    std::uint64_t state;

    explicit Rng(std::uint64_t seed)
        : state(seed ^ 0x9e3779b97f4a7c15ull)
    {
    }

    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ull
                + 1442695040888963407ull;
        return state >> 16;
    }

    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }
};

/**
 * The oracle: one binary heap of whole (tick, seq, action) entries,
 * drawing ordinary seqs from the same kind of counter EventQueue
 * uses.
 */
class OracleQueue
{
  public:
    using Action = EventQueue::Action;

    void
    schedule(Tick when, Action action)
    {
        push(when, nextSeq++, std::move(action));
    }

    void
    scheduleWithSeq(Tick when, std::uint64_t seq, Action action)
    {
        push(when, seq, std::move(action));
    }

    bool empty() const { return heap.empty(); }

    Tick nextTick() const { return heap.front().when; }

    Action
    pop()
    {
        std::pop_heap(heap.begin(), heap.end(), After{});
        Action action = std::move(heap.back().action);
        heap.pop_back();
        return action;
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Action action;
    };

    struct After
    {
        bool
        operator()(const Entry &a, const Entry &b) const noexcept
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    void
    push(Tick when, std::uint64_t seq, Action action)
    {
        heap.push_back(Entry{when, seq, std::move(action)});
        std::push_heap(heap.begin(), heap.end(), After{});
    }

    std::vector<Entry> heap;
    std::uint64_t nextSeq = 0;
};

/** (tick, id) drain record; equal sequences ⇔ identical schedules. */
using Trace = std::vector<std::pair<Tick, int>>;

/** A coroutine that records (@p when, @p id) when it is resumed. */
Coro<void>
recordOnResume(Trace &trace, Tick when, int id)
{
    trace.emplace_back(when, id);
    co_return;
}

/** An EventTarget that records its (when, id) when it fires. */
struct RecordingTarget : EventTarget
{
    Trace *trace;
    Tick when;
    int id;

    RecordingTarget(Trace *t, Tick w, int i)
        : EventTarget{&record}, trace(t), when(w), id(i)
    {
    }

    static void
    record(EventTarget *self)
    {
        auto *r = static_cast<RecordingTarget *>(self);
        r->trace->emplace_back(r->when, r->id);
    }
};

/**
 * The queue under test and the oracle, driven by one op stream.
 * Every schedule lands in both with the same tick, seq and id;
 * drains record into per-queue traces that the tests compare
 * element-wise. The oracle gets a closure; the queue under test
 * gets a closure, a coroutine handle or an EventTarget, as the
 * kinds RNG picks.
 */
struct Twins
{
    OracleQueue oracle;
    EventQueue queue;
    Trace oracleTrace, queueTrace;
    int nextId = 0;
    Rng kinds;
    std::vector<Coro<void>> frames;
    std::deque<RecordingTarget> targets;

    explicit Twins(std::uint64_t seed = 0) : kinds(seed) {}

    void
    schedule(Tick when)
    {
        int id = nextId++;
        oracle.schedule(when, [this, when, id] {
            oracleTrace.emplace_back(when, id);
        });
        toQueue(when, id, [&](auto event) {
            queue.schedule(when, std::move(event));
        });
    }

    void
    scheduleKeyed(Tick when, std::uint64_t key)
    {
        int id = nextId++;
        oracle.scheduleWithSeq(when, key, [this, when, id] {
            oracleTrace.emplace_back(when, id);
        });
        toQueue(when, id, [&](auto event) {
            queue.scheduleWithSeq(when, key, std::move(event));
        });
    }

    /** Pass @p schedule the queue's copy of event @p id. */
    template <typename Schedule>
    void
    toQueue(Tick when, int id, Schedule &&schedule)
    {
        switch (kinds.below(3)) {
          case 0:
            schedule([this, when, id] {
                queueTrace.emplace_back(when, id);
            });
            break;
          case 1: {
            Coro<void>::Handle h
                = recordOnResume(queueTrace, when, id).release();
            frames.emplace_back(h);
            schedule(std::coroutine_handle<>(h));
            break;
          }
          default:
            schedule(&targets.emplace_back(&queueTrace, when, id));
        }
    }

    /** Pop one event from each; returns the tick it ran at. */
    Tick
    popBoth()
    {
        Tick when = oracle.nextTick();
        EXPECT_EQ(queue.nextTick(), when);
        oracle.pop()();
        queue.pop()();
        return when;
    }

    void
    drain()
    {
        while (!oracle.empty() || !queue.empty()) {
            ASSERT_FALSE(oracle.empty());
            ASSERT_FALSE(queue.empty());
            popBoth();
            if (::testing::Test::HasFailure())
                return;
        }
    }

    void
    expectTracesIdentical() const
    {
        ASSERT_EQ(oracleTrace.size(), queueTrace.size());
        for (std::size_t i = 0; i < oracleTrace.size(); ++i) {
            ASSERT_EQ(oracleTrace[i], queueTrace[i])
                << "divergence at drain position " << i;
        }
    }
};

/**
 * Self-perpetuating handlers on queue @p q: each hop records itself
 * and schedules its successor up to 1 ms ahead, so the successor
 * chains depend on drain order.
 */
template <typename Queue>
Trace
chainTrace()
{
    Queue q;
    Trace trace;
    Rng rng(3);
    int nextId = 0;
    struct Chain
    {
        Queue &q;
        Trace &trace;
        Rng &rng;
        int &nextId;

        void
        hop(Tick when, int id, int hopsLeft)
        {
            q.schedule(when, [this, when, id, hopsLeft] {
                trace.emplace_back(when, id);
                if (hopsLeft > 0) {
                    hop(when + rng.below(milliseconds(1)) + 1,
                        nextId++, hopsLeft - 1);
                }
            });
        }
    } chain{q, trace, rng, nextId};
    for (int i = 0; i < 64; ++i)
        chain.hop(rng.below(microseconds(10)), nextId++, 50);
    while (!q.empty())
        q.pop()();
    return trace;
}

} // namespace

// The core differential fuzz: random mix of schedules (spanning the
// same-tick, near, mid and far-future bands real workloads produce)
// and pops, across several seeds.
TEST(SchedConformance, RandomTrafficDrainsIdentically)
{
    for (std::uint64_t seed : {1ull, 42ull, 20260807ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Twins twins(seed);
        Rng rng(seed);
        Tick now = 0;
        for (int op = 0; op < 20000; ++op) {
            if (twins.oracle.empty() || rng.below(8) < 5) {
                Tick delay = 0;
                switch (rng.below(8)) {
                  case 0:
                    delay = 0; // same tick: FIFO tie
                    break;
                  case 1:
                  case 2:
                    delay = rng.below(microseconds(2));
                    break;
                  case 7:
                    delay = milliseconds(10)
                            + rng.below(milliseconds(200));
                    break;
                  default:
                    delay = microseconds(50)
                            + rng.below(milliseconds(2));
                }
                twins.schedule(now + delay);
            } else {
                now = twins.popBoth();
                if (HasFailure())
                    return;
            }
        }
        twins.drain();
        twins.expectTracesIdentical();
    }
}

// A dense burst on one far-future tick, scheduled before any pop:
// it all goes through the heap and must still drain in schedule
// order.
TEST(SchedConformance, SameTickBurstStaysFifo)
{
    Twins twins;
    for (int i = 0; i < 1000; ++i)
        twins.schedule(milliseconds(5));
    twins.drain();
    twins.expectTracesIdentical();
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(twins.queueTrace[static_cast<std::size_t>(i)].second,
                  i);
    }
}

// A tight cluster of hundreds of events inside one microsecond, far
// ahead, plus outliers spread over a second.
TEST(SchedConformance, FarFutureSpillAndRungSplit)
{
    Twins twins;
    Rng rng(7);
    for (int i = 0; i < 256; ++i)
        twins.schedule(milliseconds(100) + rng.below(microseconds(1)));
    for (int i = 0; i < 32; ++i)
        twins.schedule(rng.below(seconds(1)));
    twins.drain();
    twins.expectTracesIdentical();
}

// Schedules that land exactly at / just past the drain tick after
// pops have advanced it: the same-tick ones join the lane and must
// interleave correctly with what the heap already holds at that
// tick.
TEST(SchedConformance, SchedulesAtTheRefillBoundary)
{
    Twins twins;
    Rng rng(11);
    for (int i = 0; i < 500; ++i)
        twins.schedule(rng.below(milliseconds(1)));
    for (int round = 0; round < 100; ++round) {
        Tick now = twins.popBoth();
        if (HasFailure())
            return;
        twins.schedule(now);                       // current tick
        twins.schedule(now + 1);                   // next tick
        twins.schedule(now + rng.below(microseconds(5)) + 1);
    }
    twins.drain();
    twins.expectTracesIdentical();
}

// Ticks at the end of representable time must still drain, in
// order, exactly once.
TEST(SchedConformance, MaxTickEventsDrain)
{
    Twins twins;
    twins.schedule(maxTick);
    twins.schedule(maxTick - 1);
    twins.schedule(maxTick);
    for (int i = 0; i < 100; ++i)
        twins.schedule(static_cast<Tick>(i * 1000));
    twins.drain();
    twins.expectTracesIdentical();
    ASSERT_EQ(twins.queueTrace.size(), 103u);
    EXPECT_EQ(twins.queueTrace[100].first, maxTick - 1);
    EXPECT_EQ(twins.queueTrace[101].first, maxTick);
    EXPECT_EQ(twins.queueTrace[102].first, maxTick);
}

// The simulator's real pattern: handlers schedule follow-on events
// while the queue drains. Successor chains must stay identical.
TEST(SchedConformance, HandlersSchedulingDuringDrain)
{
    Trace reference = chainTrace<OracleQueue>();
    Trace trace = chainTrace<EventQueue>();
    ASSERT_EQ(trace.size(), reference.size());
    for (std::size_t i = 0; i < trace.size(); ++i)
        ASSERT_EQ(trace[i], reference[i]) << "position " << i;
}

// Appends arriving WHILE a same-tick burst drains (the simulator's
// cascade pattern: a handler resumes a coroutine that schedules
// another handler at the same tick) join the lane behind the burst
// the heap still holds, and everything drains in schedule order.
TEST(SchedConformance, SameTickAppendsDuringDrainStayFifo)
{
    Twins twins;
    const Tick burst = milliseconds(7);
    for (int i = 0; i < 200; ++i)
        twins.schedule(burst);
    // Enter the drain, then keep feeding the same tick from inside it.
    for (int i = 0; i < 100; ++i) {
        twins.popBoth();
        if (HasFailure())
            return;
        twins.schedule(burst);
        twins.schedule(burst);
    }
    twins.drain();
    twins.expectTracesIdentical();
    // 200 + 200 appended, all at one tick, ids strictly in schedule
    // order end to end.
    ASSERT_EQ(twins.queueTrace.size(), 400u);
    for (std::size_t i = 0; i < twins.queueTrace.size(); ++i) {
        EXPECT_EQ(twins.queueTrace[i].first, burst);
        EXPECT_EQ(twins.queueTrace[i].second, static_cast<int>(i));
    }
}

// Differential fuzz biased to same-tick traffic: most schedules reuse
// the current drain tick, so the lane fills and empties constantly
// around heap entries at the same and nearby ticks.
TEST(SchedConformance, SameTickHeavyTrafficDrainsIdentically)
{
    for (std::uint64_t seed : {2ull, 99ull, 20260809ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Twins twins(seed);
        Rng rng(seed);
        Tick now = 0;
        for (int op = 0; op < 20000; ++op) {
            if (twins.oracle.empty() || rng.below(8) < 5) {
                Tick when = now;
                switch (rng.below(8)) {
                  case 0:
                  case 1:
                  case 2:
                  case 3:
                  case 4:
                    break; // same tick: the common cascade
                  case 5:
                    when = now + rng.below(16);
                    break;
                  case 6:
                    when = now + microseconds(3);
                    break;
                  default:
                    when = now + milliseconds(20)
                           + rng.below(milliseconds(50));
                }
                twins.schedule(when);
            } else {
                now = twins.popBoth();
                if (HasFailure())
                    return;
            }
        }
        twins.drain();
        twins.expectTracesIdentical();
    }
}

// Keyed events posted at the drain tick and at later ticks, from
// several streams (so keys arrive out of order), mixed with ordinary
// schedules that append to the lane. At a shared tick every ordinary
// event drains first, then keyed ones in key order.
TEST(SchedConformance, KeyedEventsMixWithLaneAppends)
{
    for (std::uint64_t seed : {3ull, 17ull, 20261017ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Twins twins(seed);
        Rng rng(seed);
        KeyStream streams[3] = {KeyStream(0), KeyStream(1),
                                KeyStream(2)};
        Tick now = 0;
        for (int op = 0; op < 20000; ++op) {
            if (twins.oracle.empty() || rng.below(8) < 5) {
                KeyStream &keys = streams[rng.below(3)];
                switch (rng.below(6)) {
                  case 0:
                  case 1:
                    twins.schedule(now); // lane append
                    break;
                  case 2:
                    twins.scheduleKeyed(now, keys.next());
                    break;
                  case 3:
                    twins.scheduleKeyed(now + rng.below(8) + 1,
                                        keys.next());
                    break;
                  case 4:
                    twins.schedule(now + rng.below(8) + 1);
                    break;
                  default:
                    twins.scheduleKeyed(
                        now + microseconds(1) + rng.below(1000),
                        keys.next());
                }
            } else {
                now = twins.popBoth();
                if (HasFailure())
                    return;
            }
        }
        twins.drain();
        twins.expectTracesIdentical();
    }
}

// Schedules below the last drained tick, which the Simulator never
// issues but the queue must still order exactly: they drain before
// the lane, and ordinary schedules at the new, lower drain tick must
// not join a lane still holding later-tick entries.
TEST(SchedConformance, PushesBelowTheDrainTickDrainFirst)
{
    Twins twins;
    KeyStream keys(0);
    twins.schedule(100);
    twins.schedule(200);
    ASSERT_EQ(twins.popBoth(), 100u);
    twins.schedule(100);         // lane at 100
    twins.schedule(100);         // lane at 100
    twins.schedule(40);          // below the drain tick
    twins.scheduleKeyed(40, keys.next());
    twins.scheduleKeyed(100, keys.next());
    ASSERT_EQ(twins.popBoth(), 40u);
    twins.schedule(40);          // drain tick 40, lane still at 100
    twins.schedule(10);
    twins.drain();
    twins.expectTracesIdentical();
    std::vector<Tick> ticks;
    for (const auto &[when, id] : twins.queueTrace)
        ticks.push_back(when);
    EXPECT_EQ(ticks, (std::vector<Tick>{100, 40, 10, 40, 40, 100, 100,
                                        100, 200}));

    // And under random traffic: a quarter of the schedules land up
    // to 1 µs below the current drain tick.
    for (std::uint64_t seed : {5ull, 23ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Twins fuzz(seed);
        Rng rng(seed);
        KeyStream stream(1);
        Tick now = microseconds(10);
        for (int op = 0; op < 20000; ++op) {
            if (fuzz.oracle.empty() || rng.below(8) < 5) {
                Tick below = now - std::min(now, rng.below(1000));
                switch (rng.below(8)) {
                  case 0:
                    fuzz.schedule(below);
                    break;
                  case 1:
                    fuzz.scheduleKeyed(below, stream.next());
                    break;
                  case 2:
                  case 3:
                  case 4:
                    fuzz.schedule(now);
                    break;
                  case 5:
                    fuzz.scheduleKeyed(now, stream.next());
                    break;
                  default:
                    fuzz.schedule(now + rng.below(microseconds(2)));
                }
            } else {
                now = fuzz.popBoth();
                if (HasFailure())
                    return;
            }
        }
        fuzz.drain();
        fuzz.expectTracesIdentical();
    }
}

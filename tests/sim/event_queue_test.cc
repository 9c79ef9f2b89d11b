/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/coro.hh"
#include "sim/event_queue.hh"

using namespace howsim::sim;

// Global allocation counter: the zero-allocation claims of the event
// words and of pooled one-pointer closures are part of the event
// loop's contract, so they are asserted, not assumed. Counting is
// cheap and the counter is only compared across regions that perform
// no other allocation.
namespace
{

std::size_t newCalls = 0;

} // namespace

void *
operator new(std::size_t n)
{
    ++newCalls;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    ++newCalls;
    std::size_t a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

TEST(EventQueue, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.pop()();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickRunsInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.pop()();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTickReportsEarliest)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.schedule(7, [] {});
    EXPECT_EQ(q.nextTick(), 7u);
    q.pop();
    EXPECT_EQ(q.nextTick(), 100u);
}

TEST(EventQueue, InterleavedScheduleAndPop)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(1, [&] { order.push_back(1); });
    q.pop()();
    q.schedule(2, [&] { order.push_back(2); });
    q.schedule(1, [&] { order.push_back(3); });
    // Later-scheduled tick-1 event still sorts before tick-2.
    EXPECT_EQ(q.nextTick(), 1u);
    while (!q.empty())
        q.pop()();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(EventQueue, CountsScheduledEvents)
{
    EventQueue q;
    for (int i = 0; i < 42; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    EXPECT_EQ(q.scheduledCount(), 42u);
}

// A coroutine handle travels as an EventWord, never as a closure: the
// closure type refuses every handle, which is also what keeps
// schedule(t, handle) from being ambiguous between the two overloads.
static_assert(
    !std::is_constructible_v<EventQueue::Action, std::coroutine_handle<>>);
static_assert(
    !std::is_constructible_v<EventQueue::Action, Coro<void>::Handle>);
static_assert(std::is_constructible_v<EventWord, std::coroutine_handle<>>);
static_assert(std::is_constructible_v<EventWord, Coro<void>::Handle>);

TEST(EventQueue, SmallCallableSchedulesWithoutAllocation)
{
    EventQueue q;
    q.reserve(16);
    int hits = 0;
    std::coroutine_handle<> noop = std::noop_coroutine();
    std::size_t before = newCalls;
    q.schedule(1, [&hits] { ++hits; });
    q.schedule(2, noop);
    std::size_t after = newCalls;
    EXPECT_EQ(after, before);
    while (!q.empty())
        q.pop()();
    EXPECT_EQ(hits, 1);
}

namespace
{

/** An EventTarget that records each address it was fired with. */
struct RecordingTarget : EventTarget
{
    std::vector<EventTarget *> *fired;

    explicit RecordingTarget(std::vector<EventTarget *> *f)
        : EventTarget{&record}, fired(f)
    {
    }

    static void
    record(EventTarget *self)
    {
        static_cast<RecordingTarget *>(self)->fired->push_back(self);
    }
};

} // namespace

TEST(EventQueue, HandlesAndTargetsScheduleWithoutAllocation)
{
    EventQueue q;
    q.reserve(16);
    std::vector<EventTarget *> fired;
    fired.reserve(16);
    RecordingTarget target(&fired);
    std::coroutine_handle<> noop = std::noop_coroutine();
    std::size_t before = newCalls;
    for (int i = 0; i < 4; ++i) {
        q.schedule(static_cast<Tick>(i), noop);
        q.schedule(static_cast<Tick>(i), &target);
        q.scheduleWithSeq(static_cast<Tick>(i),
                          kKeyedSeqBand | static_cast<std::uint64_t>(i),
                          noop);
        q.scheduleWithSeq(static_cast<Tick>(i),
                          kKeyedSeqBand | static_cast<std::uint64_t>(i),
                          &target);
    }
    while (!q.empty())
        q.pop()();
    std::size_t after = newCalls;
    EXPECT_EQ(after, before);
    EXPECT_EQ(fired.size(), 8u);
}

TEST(EventQueue, TargetFiresOnceWithItsOwnAddress)
{
    EventQueue q;
    std::vector<EventTarget *> fired;
    RecordingTarget a(&fired);
    RecordingTarget b(&fired);
    q.schedule(2, &b);
    q.schedule(1, &a);
    while (!q.empty())
        q.pop()();
    EXPECT_EQ(fired, (std::vector<EventTarget *>{&a, &b}));
}

TEST(EventQueue, SameTickLaneReusesItsCapacity)
{
    // Events scheduled at the tick being drained take the FIFO lane;
    // once reserve() has sized it, refilling it allocates nothing.
    EventQueue q;
    q.reserve(16);
    int hits = 0;
    std::size_t before = newCalls;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 16; ++i)
            q.schedule(0, [&hits] { ++hits; });
        while (!q.empty())
            q.pop()();
    }
    std::size_t after = newCalls;
    EXPECT_EQ(after, before);
    EXPECT_EQ(hits, 48);
}

namespace
{

/** Counts live copies of itself, via moves and destructions. */
struct Probe
{
    int *alive;

    explicit Probe(int *a) : alive(a) { ++*alive; }
    Probe(const Probe &other) : alive(other.alive) { ++*alive; }
    Probe(Probe &&other) noexcept : alive(other.alive) { ++*alive; }
    ~Probe() { --*alive; }

    void operator()() const {}
};

} // namespace

TEST(EventQueue, ClosureDestroyedExactlyOnce)
{
    int alive = 0;
    {
        EventQueue q;
        q.schedule(1, Probe(&alive));
        q.schedule(2, Probe(&alive));
        EXPECT_EQ(alive, 2);
        q.pop()();
        EXPECT_EQ(alive, 1);
        // The second probe dies with the queue.
    }
    EXPECT_EQ(alive, 0);
}

TEST(EventQueue, SiftingThroughTheHeapPreservesCaptures)
{
    // Schedule in reverse tick order so every push sifts past the
    // existing entries; the captures wait in pooled closures.
    EventQueue q;
    int alive = 0;
    std::vector<int> order;
    for (int i = 63; i >= 0; --i) {
        q.schedule(static_cast<Tick>(i),
                   [probe = Probe(&alive), &order, i] {
                       order.push_back(i);
                   });
    }
    EXPECT_EQ(alive, 64);
    while (!q.empty())
        q.pop()();
    EXPECT_EQ(alive, 0);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Ticks, UnitConversions)
{
    EXPECT_EQ(microseconds(1), 1000u);
    EXPECT_EQ(milliseconds(1), 1000000u);
    EXPECT_EQ(seconds(1), 1000000000u);
    EXPECT_DOUBLE_EQ(toSeconds(seconds(3)), 3.0);
    EXPECT_DOUBLE_EQ(toMilliseconds(milliseconds(5)), 5.0);
    EXPECT_DOUBLE_EQ(toMicroseconds(microseconds(9)), 9.0);
}

TEST(Ticks, FromSecondsRoundsAndClamps)
{
    EXPECT_EQ(fromSeconds(1.5e-9), 2u);
    EXPECT_EQ(fromSeconds(-1.0), 0u);
    EXPECT_EQ(fromSeconds(2.0), seconds(2));
}

TEST(Ticks, TransferTicksNeverZeroForNonzeroBytes)
{
    EXPECT_EQ(transferTicks(0, 100e6), 0u);
    EXPECT_GE(transferTicks(1, 1e12), 1u);
    // 1 MB over 100 MB/s = 10 ms.
    EXPECT_NEAR(static_cast<double>(transferTicks(1000000, 100e6)),
                static_cast<double>(milliseconds(10)), 1.0);
}

/**
 * @file
 * Event-loop microbenchmark: host-time cost of scheduling and
 * dispatching simulator events.
 *
 * Payload-shape costs through the event queue — a small
 * trivially-copyable lambda (inline buffer), the coroutine-handle
 * fast path (the dominant event in real simulations), and an
 * oversized capture (heap fallback, present to quantify the
 * fallback, not because the simulator uses it) — plus the
 * uncontended Resource and single-waiter Trigger round trips.
 *
 * Unlike micro_sim (google-benchmark, human-oriented), this binary
 * feeds the BENCH_events.json perf trajectory via BenchHarness, so
 * regressions in the per-event cost are visible PR over PR.
 */

#include <array>
#include <chrono>
#include <cstdio>

#include "core/bench_harness.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/event_queue.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"

using namespace howsim;
using namespace howsim::sim;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Schedule-and-drain throughput for a small inline lambda. */
double
lambdaEventsPerSec(int batches, int perBatch)
{
    std::uint64_t sink = 0;
    auto start = std::chrono::steady_clock::now();
    for (int b = 0; b < batches; ++b) {
        EventQueue q;
        q.reserve(static_cast<std::size_t>(perBatch));
        for (int i = 0; i < perBatch; ++i)
            q.schedule(static_cast<Tick>(i * 7 % 1000),
                       [&sink] { ++sink; });
        while (!q.empty())
            q.pop()();
    }
    double wall = secondsSince(start);
    return static_cast<double>(sink) / wall;
}

/**
 * Coroutine resume rate: processes ping through delay(), so every
 * event is a coroutine_handle travelling the dedicated fast path.
 */
double
coroutineEventsPerSec(int procs, int hops)
{
    auto start = std::chrono::steady_clock::now();
    std::uint64_t executed = 0;
    {
        Simulator sim;
        auto body = [](int n) -> Coro<void> {
            for (int i = 0; i < n; ++i)
                co_await delay(1);
        };
        for (int p = 0; p < procs; ++p)
            sim.spawn(body(hops));
        sim.run();
        executed = sim.eventsExecuted();
    }
    double wall = secondsSince(start);
    return static_cast<double>(executed) / wall;
}

/** Heap-fallback throughput: captures far beyond the inline buffer. */
double
heapFallbackEventsPerSec(int batches, int perBatch)
{
    std::uint64_t sink = 0;
    auto start = std::chrono::steady_clock::now();
    for (int b = 0; b < batches; ++b) {
        EventQueue q;
        q.reserve(static_cast<std::size_t>(perBatch));
        std::array<std::uint64_t, 16> payload{};
        payload[0] = static_cast<std::uint64_t>(b);
        for (int i = 0; i < perBatch; ++i)
            q.schedule(static_cast<Tick>(i * 7 % 1000),
                       [payload, &sink] { sink += payload[0] + 1; });
        while (!q.empty())
            q.pop()();
    }
    double wall = secondsSince(start);
    return static_cast<double>(sink > 0 ? batches * perBatch : 0)
           / wall;
}

/**
 * Uncontended Resource round-trips per second: every acquire is an
 * inline grant and every release finds no waiters — no events at
 * all. The per-acquire floor of CPUs, locks and buffer pools.
 */
double
resourceUncontendedOpsPerSec(int ops)
{
    auto start = std::chrono::steady_clock::now();
    {
        Simulator sim;
        Resource res(1);
        auto user = [](Resource *r, int n) -> Coro<void> {
            for (int i = 0; i < n; ++i) {
                co_await r->acquire();
                r->release();
            }
        };
        sim.spawn(user(&res, ops));
        sim.run();
    }
    double wall = secondsSince(start);
    return static_cast<double>(ops) / wall;
}

/**
 * Single-waiter Trigger fire/wait rounds per second (one wake event
 * plus one yield event each) — the shape of the network's transfer
 * completion notification.
 */
double
triggerFireOpsPerSec(int rounds)
{
    auto start = std::chrono::steady_clock::now();
    {
        Simulator sim;
        Trigger trig;
        auto waiter = [](Trigger *t, int n) -> Coro<void> {
            for (int i = 0; i < n; ++i) {
                co_await t->wait();
                t->reset();
            }
        };
        auto firer = [](Trigger *t, int n) -> Coro<void> {
            for (int i = 0; i < n; ++i) {
                t->fire();
                co_await yield();
            }
        };
        sim.spawn(waiter(&trig, rounds));
        sim.spawn(firer(&trig, rounds));
        sim.run();
    }
    double wall = secondsSince(start);
    return static_cast<double>(rounds) / wall;
}

} // namespace

int
main()
{
    core::BenchHarness harness("micro_events");

    double lambda = lambdaEventsPerSec(20, 100000);
    double coro = coroutineEventsPerSec(1000, 2000);
    double heapFb = heapFallbackEventsPerSec(20, 100000);
    double resFast = resourceUncontendedOpsPerSec(2000000);
    double trigFast = triggerFireOpsPerSec(1000000);

    std::printf("event-loop microbenchmark (host events/sec)\n");
    std::printf("  %-34s %12.3g\n", "inline lambda schedule+dispatch",
                lambda);
    std::printf("  %-34s %12.3g\n", "coroutine-handle fast path", coro);
    std::printf("  %-34s %12.3g\n", "oversized capture (heap fallback)",
                heapFb);
    std::printf("  %-34s %12.3g\n", "resource uncontended acquire",
                resFast);
    std::printf("  %-34s %12.3g\n", "trigger single-waiter fire",
                trigFast);

    harness.metric("lambda_events_per_sec", lambda);
    harness.metric("coroutine_events_per_sec", coro);
    harness.metric("heap_fallback_events_per_sec", heapFb);
    harness.metric("resource_uncontended_ops_per_sec", resFast);
    harness.metric("trigger_fire_ops_per_sec", trigFast);
    return 0;
}

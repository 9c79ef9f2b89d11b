/**
 * @file
 * Event-order parity between the calendar os::Cpu and the coroutine
 * reference processor (reference_cpu.hh): one seeded workload over
 * three processors must resume every caller at the same tick and in
 * the same order, count redirects at the same resumes and report the
 * same busy, contended and switch statistics. Plus the teardown
 * contract: a Simulator destroyed with computes queued and stalled
 * touches no destroyed frame (run it under ASan).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "os/cpu.hh"
#include "reference_cpu.hh"
#include "sim/awaitables.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace howsim;
using namespace howsim::sim;

namespace
{

/** One compute of a worker's plan, drawn before the run. */
struct Op
{
    Tick gap;  //!< idle time before issuing; 0 = back to back
    int cpu;
    Tick ref;  //!< reference ticks of work (may be 0)
    Tick lead; //!< start this long after issue; 0 = at once
};

/** Everything a run reports. */
struct Outcome
{
    /**
     * At every compute's resume: (tick, worker, redirects so far, and
     * the processor's busy and contended ticks), which also pins when
     * the statistics and the next grant are applied.
     */
    std::vector<std::tuple<Tick, int, std::uint64_t, Tick, Tick>> resumes;
    std::vector<Tick> busy;
    std::vector<Tick> contended;
    std::vector<std::uint64_t> switches;
    Tick elapsed = 0;
};

constexpr int kWorkers = 12;
constexpr int kOps = 40;

/**
 * A seeded plan on a coarse 100 us lattice, so completions, arrivals
 * and stall ends often share a tick. A third of the workers start at
 * tick 0, the rest on a few shared ticks.
 */
std::vector<std::vector<Op>>
plan(std::uint64_t seed)
{
    Rng rng(seed);
    auto lattice = [&](std::uint64_t n) {
        return microseconds(100) * static_cast<Tick>(rng.below(n));
    };
    std::vector<std::vector<Op>> ops(kWorkers);
    for (auto &worker : ops) {
        for (int i = 0; i < kOps; ++i) {
            Op op;
            op.gap = rng.below(3) == 0 ? 0 : lattice(30);
            op.cpu = static_cast<int>(rng.below(3));
            op.ref = lattice(20);
            op.lead = rng.below(5) == 0 ? microseconds(100) + lattice(20)
                                        : 0;
            worker.push_back(op);
        }
    }
    return ops;
}

template <typename C>
Outcome
runPlan(const std::vector<std::vector<Op>> &ops)
{
    Simulator sim;
    std::vector<std::unique_ptr<C>> cpus;
    cpus.push_back(std::make_unique<C>(sim, 275));
    cpus.push_back(std::make_unique<C>(sim, 550, 275, microseconds(25)));
    cpus.push_back(
        std::make_unique<C>(sim, 137.5, 275, microseconds(100)));
    Outcome out;
    std::uint64_t redirects = 0;
    auto worker = [&](int id, Tick first) -> Coro<void> {
        co_await delay(first);
        for (const Op &op : ops[static_cast<std::size_t>(id)]) {
            if (op.gap > 0)
                co_await delay(op.gap);
            Tick start = op.lead > 0 ? sim.now() + op.lead : 0;
            C &cpu = *cpus[static_cast<std::size_t>(op.cpu)];
            co_await cpu.compute(op.ref, start,
                                 op.lead > 0 ? &redirects : nullptr);
            out.resumes.emplace_back(sim.now(), id, redirects,
                                     cpu.busyTicks(),
                                     cpu.contendedTicks());
        }
    };
    for (int w = 0; w < kWorkers; ++w)
        sim.spawn(worker(w, w % 3 == 0 ? 0 : microseconds(100) * (w % 4)));
    out.elapsed = sim.run();
    for (const auto &cpu : cpus) {
        out.busy.push_back(cpu->busyTicks());
        out.contended.push_back(cpu->contendedTicks());
        out.switches.push_back(cpu->switchCount());
    }
    return out;
}

} // namespace

TEST(CpuParity, SeededWorkloadResumesInReferenceOrder)
{
    for (std::uint64_t seed : {1u, 7u, 42u}) {
        SCOPED_TRACE(seed);
        auto ops = plan(seed);
        Outcome ref = runPlan<reference::Cpu>(ops);
        Outcome cal = runPlan<os::Cpu>(ops);
        EXPECT_EQ(cal.resumes, ref.resumes);
        EXPECT_EQ(cal.busy, ref.busy);
        EXPECT_EQ(cal.contended, ref.contended);
        EXPECT_EQ(cal.switches, ref.switches);
        EXPECT_EQ(cal.elapsed, ref.elapsed);
        // The workload must reach every rule it claims to cover.
        EXPECT_EQ(ref.resumes.size(),
                  static_cast<std::size_t>(kWorkers * kOps));
        EXPECT_GT(std::get<2>(ref.resumes.back()), 0u);
        EXPECT_GT(ref.switches[1] + ref.switches[2], 0u);
        EXPECT_GT(ref.contended[0], 0u);
    }
}

TEST(CpuTeardown, QueuedAndStalledComputesDieWithTheirFrames)
{
    // One compute holds the processor, three queue behind it and two
    // stall until a later start; the Simulator and the Cpu then die in
    // either order without running any of them.
    for (bool simulatorFirst : {true, false}) {
        SCOPED_TRACE(simulatorFirst);
        struct Guard
        {
            int *count;
            ~Guard() { ++*count; }
        };
        int destroyed = 0;
        int finished = 0;
        std::uint64_t redirects = 0;
        auto sim = std::make_unique<Simulator>();
        auto cpu = std::make_unique<os::Cpu>(*sim, 275, 275,
                                             microseconds(10));
        auto body = [&](Tick start) -> Coro<void> {
            Guard guard{&destroyed};
            co_await cpu->compute(milliseconds(10), start, &redirects);
            ++finished;
        };
        for (int i = 0; i < 4; ++i)
            sim->spawn(body(0));
        for (int i = 0; i < 2; ++i)
            sim->spawn(body(milliseconds(50)));
        sim->run(milliseconds(1));
        EXPECT_EQ(cpu->switchCount(), 3u);
        if (simulatorFirst) {
            sim.reset();
            cpu.reset();
        } else {
            cpu.reset();
            sim.reset();
        }
        EXPECT_EQ(destroyed, 6);
        EXPECT_EQ(finished, 0);
        // The four issued at once counted as they booked; the stalled
        // two never proceeded.
        EXPECT_EQ(redirects, 4u);
    }
}

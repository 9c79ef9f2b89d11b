/**
 * @file
 * Reference processor for the differential suite (cpu_parity_test.cc):
 * the os::Cpu model written the obvious way. Each compute is a
 * coroutine that delays to its start tick, counts its redirect, takes
 * a unit Resource (charging the switch cost when it found the
 * processor held), delays for the scaled work and releases. The
 * calendar Cpu books the same schedule without a frame; it must resume
 * every caller at the same tick and in the same order as this one. The
 * interface mirrors os::Cpu so a test can run one workload body
 * against either.
 */

#ifndef HOWSIM_TESTS_OS_REFERENCE_CPU_HH
#define HOWSIM_TESTS_OS_REFERENCE_CPU_HH

#include <cstdint>

#include "os/cpu.hh"
#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"
#include "sim/ticks.hh"

namespace howsim::reference
{

class Cpu
{
  public:
    Cpu(sim::Simulator &, double mhz, double ref_mhz = os::referenceCpuMhz,
        sim::Tick switch_cost = 0)
        : scale(ref_mhz / mhz), switchCost(switch_cost), unit(1)
    {
    }

    sim::Tick
    scaled(sim::Tick ref_ticks) const
    {
        return static_cast<sim::Tick>(
            static_cast<double>(ref_ticks) * scale);
    }

    sim::Coro<void>
    compute(sim::Tick ref_ticks, sim::Tick start = 0,
            std::uint64_t *bump = nullptr)
    {
        sim::Simulator &s = *sim::Simulator::current();
        if (start > s.now())
            co_await sim::delay(start - s.now());
        if (bump)
            ++*bump;
        sim::Tick t = scaled(ref_ticks);
        bool contended = unit.available() == 0;
        co_await unit.acquire();
        if (contended && switchCost > 0) {
            ++switches;
            t += switchCost;
        }
        co_await sim::delay(t);
        unit.release();
        busy += t;
    }

    sim::Tick busyTicks() const { return busy; }
    sim::Tick contendedTicks() const { return unit.totalWait(); }
    std::uint64_t switchCount() const { return switches; }

  private:
    double scale;
    sim::Tick switchCost;
    sim::Resource unit;
    sim::Tick busy = 0;
    std::uint64_t switches = 0;
};

} // namespace howsim::reference

#endif // HOWSIM_TESTS_OS_REFERENCE_CPU_HH

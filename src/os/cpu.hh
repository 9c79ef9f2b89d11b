/**
 * @file
 * Processor time model.
 *
 * Howsim replays user-level compute costs measured on a reference
 * machine (a DEC Alpha 2100 4/275) and "models variation in processor
 * speed by scaling these processing times". Cpu reproduces that: work
 * is expressed in reference-machine ticks and stretched by the ratio
 * of clock rates. The Cpu is a one-channel sim::Calendar, the FIFO
 * calendar of the buses, so concurrent activities on one processor
 * serialize, and a compute books as its caller suspends: no frame.
 */

#ifndef HOWSIM_OS_CPU_HH
#define HOWSIM_OS_CPU_HH

#include <coroutine>
#include <cstdint>

#include "sim/calendar.hh"
#include "sim/ticks.hh"

namespace howsim::os
{

/** The clock rate of the machine compute costs were measured on. */
constexpr double referenceCpuMhz = 275.0;

/** A single processor executing scaled reference-time work. */
class Cpu
{
  public:
    /**
     * @param mhz         This processor's clock rate.
     * @param ref_mhz     Clock rate the costs were measured at.
     * @param switch_cost Context-switch charge applied when a
     *                    compute request finds the CPU busy (two
     *                    activities interleaving on one processor).
     */
    Cpu(sim::Simulator &s, double mhz, double ref_mhz = referenceCpuMhz,
        sim::Tick switch_cost = 0)
        : clockMhz(mhz), scale(ref_mhz / mhz), unit(s, 1, switch_cost)
    {
    }

    /** Convert reference-machine ticks to this processor's ticks. */
    sim::Tick
    scaled(sim::Tick ref_ticks) const
    {
        return static_cast<sim::Tick>(
            static_cast<double>(ref_ticks) * scale);
    }

    /** Awaitable returned by compute(): books as its caller suspends. */
    struct Compute
    {
        sim::Calendar *unit;
        sim::Tick ticks; //!< this processor's time, before any switch
        sim::Tick start;
        std::uint64_t *bump;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> cont) const
        {
            unit->book(ticks, cont, 0, start, bump);
        }

        void await_resume() const noexcept {}
    };

    /**
     * Execute @p ref_ticks of reference-machine work, serializing
     * with other work on this processor. A @p start after now stalls
     * the booking until then (fault::Takeover::Route), and *@p bump
     * counts as it proceeds.
     */
    Compute
    compute(sim::Tick ref_ticks, sim::Tick start = 0,
            std::uint64_t *bump = nullptr)
    {
        return Compute{&unit, scaled(ref_ticks), start, bump};
    }

    /**
     * Copy @p bytes through this processor at @p ref_rate bytes per
     * second of reference-machine time.
     */
    Compute
    copyBytes(std::uint64_t bytes, double ref_rate)
    {
        return compute(sim::transferTicks(bytes, ref_rate));
    }

    double mhz() const { return clockMhz; }
    sim::Tick busyTicks() const { return unit.busyTicks(); }

    /** Time work spent queued behind other work on this CPU. */
    sim::Tick contendedTicks() const { return unit.totalWait(); }

    /** Context switches charged (contended handoffs). */
    std::uint64_t switchCount() const { return unit.switchCount(); }

  private:
    double clockMhz;
    double scale;
    sim::Calendar unit;
};

} // namespace howsim::os

#endif // HOWSIM_OS_CPU_HH

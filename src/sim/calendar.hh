/**
 * @file
 * FIFO calendar over identical channels, the booking engine of the
 * buses (bus::Bus) and the processors (os::Cpu). Grants and
 * completions fall at the same ticks, in the same order, as under a
 * Resource acquire / delay / release coroutine per booking (DESIGN.md
 * §12), which the comments refer to, and no booking builds a frame.
 */

#ifndef HOWSIM_SIM_CALENDAR_HH
#define HOWSIM_SIM_CALENDAR_HH

#include <cstdint>
#include <deque>

#include "obs/metrics.hh"
#include "sim/simulator.hh"
#include "sim/ticks.hh"

namespace howsim::sim
{

/** A FIFO booking calendar; see the file comment. */
class Calendar
{
  public:
    /** Observability hooks, each null when off. */
    struct Hooks
    {
        obs::Counter *units = nullptr;   //!< each completion's units
        obs::Counter *count = nullptr;   //!< set with units: one each
        obs::Histogram *wait = nullptr;  //!< each grant's wait
        obs::Histogram *depth = nullptr; //!< queue length on enqueue
    };

    /** A booking that finds every channel held pays @p switch_cost. */
    Calendar(Simulator &s, int channels, Tick switch_cost = 0)
        : simulator(s), nchannels(channels), switchCost(switch_cost)
    {
    }

    Calendar(const Calendar &) = delete;
    Calendar &operator=(const Calendar &) = delete;

    /**
     * Book @p occ ticks of a channel; @p done (a handle or target
     * word) runs in the completion event once statistics, which sum
     * @p units, are applied. A @p start after now stalls the booking
     * in one event at that tick (the reference's delay to it).
     * *@p bump, when given, counts as the booking proceeds.
     */
    void
    book(Tick occ, EventWord done, std::uint64_t units = 0,
         Tick start = 0, std::uint64_t *bump = nullptr)
    {
        Booking *b = freeList;
        if (b)
            freeList = b->next;
        else
            b = &pool.emplace_back();
        *b = Booking{{nullptr}, this, occ, 0, done, units, bump, nullptr};
        if (start <= simulator.now())
            return admit(b);
        b->fire = [](EventTarget *t) { step(t)->cal->admit(step(t)); };
        simulator.scheduleAt(start, b);
    }

    void observe(const Hooks &h) { hooks = h; }

    std::size_t queueLength() const { return waiting; }
    int inUse() const { return active; } //!< completions not yet run
    std::uint64_t completed() const { return ncompleted; }
    std::uint64_t units() const { return unitSum; }
    Tick busyTicks() const { return busy; } //!< switch charges included
    Tick totalWait() const { return waitTicks; }
    std::uint64_t switchCount() const { return switches; }

    /** Fraction of channel capacity in use over @p elapsed ticks. */
    double
    utilization(Tick elapsed) const
    {
        return elapsed == 0 ? 0.0
                            : static_cast<double>(busyUnitTicks)
                                  / (static_cast<double>(nchannels)
                                     * static_cast<double>(elapsed));
    }

  private:
    /** A pooled booking, the target of its stall/occupy/complete. */
    struct Booking final : EventTarget
    {
        Calendar *cal;
        Tick occ;
        Tick arrival;
        EventWord done;
        std::uint64_t units;
        std::uint64_t *bump;
        Booking *next;
    };

    static Booking *step(EventTarget *t) { return static_cast<Booking *>(t); }

    void
    admit(Booking *b)
    {
        if (b->bump)
            ++*b->bump;
        Tick now = simulator.now();
        b->arrival = now;
        // Immediate grant only when no queue and a channel's completion
        // has actually run — the Resource's waiters.empty() && avail > 0
        // condition, which keeps grant events at identical (tick, seq)
        // positions when a channel frees at this very tick.
        if (!head && active < nchannels) {
            grant(b, now);
            return occupy(b);
        }
        // Every channel is held (the reference's available() == 0
        // before it acquires): the booking pays the switch charge.
        if (switchCost > 0) {
            b->occ += switchCost;
            ++switches;
        }
        (tail ? tail->next : head) = b;
        tail = b;
        ++waiting;
        if (hooks.depth)
            hooks.depth->sample(waiting);
    }

    /** Integrate channel occupancy up to @p now (utilization). */
    void
    integrate(Tick now)
    {
        busyUnitTicks += static_cast<std::uint64_t>(active)
                         * (now - lastChange);
        lastChange = now;
    }

    void
    grant(Booking *b, Tick now)
    {
        integrate(now);
        ++active;
        waitTicks += now - b->arrival;
        if (hooks.wait)
            hooks.wait->sample(now - b->arrival);
    }

    void
    occupy(Booking *b)
    {
        b->fire = [](EventTarget *t) { step(t)->cal->complete(step(t)); };
        simulator.scheduleAt(simulator.now() + b->occ, b);
    }

    void
    complete(Booking *b)
    {
        Tick now = simulator.now();
        // Mirror Resource::release: grant waiters *synchronously*,
        // before statistics and the continuation, so a booking later in
        // this tick sees the post-grant queue and a second completion
        // at this tick cannot regrant a waiter. Only the occupancy
        // waits for a wake event, where the reference's resumed waiter
        // schedules its delay.
        integrate(now);
        --active;
        while (head && active < nchannels) {
            Booking *g = head;
            head = g->next;
            if (!head)
                tail = nullptr;
            --waiting;
            grant(g, now);
            g->fire = [](EventTarget *t) { step(t)->cal->occupy(step(t)); };
            simulator.scheduleAt(now, g);
        }
        ++ncompleted;
        unitSum += b->units;
        busy += b->occ;
        if (hooks.units) {
            hooks.units->add(b->units);
            hooks.count->add();
        }
        EventWord done = b->done;
        b->next = freeList;
        freeList = b;
        done();
    }

    Simulator &simulator;
    int nchannels;
    Tick switchCost;
    int active = 0;
    Booking *head = nullptr;
    Booking *tail = nullptr;
    std::size_t waiting = 0;
    std::deque<Booking> pool;
    Booking *freeList = nullptr;
    Hooks hooks;
    std::uint64_t ncompleted = 0;
    std::uint64_t unitSum = 0;
    Tick busy = 0;
    Tick waitTicks = 0;
    std::uint64_t switches = 0;
    Tick lastChange = 0;
    std::uint64_t busyUnitTicks = 0;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_CALENDAR_HH

/**
 * @file
 * Single-waiter one-shot completion, firable from plain (non-
 * coroutine) event handlers.
 *
 * Trigger supports any number of waiting coroutines. The Network's
 * per-frame walker has exactly one waiter — the transport coroutine —
 * and its completion is signalled from a plain event handler, not
 * from another coroutine. Completion is the minimal primitive for that
 * shape: one handle, one flag, no vector. fire() schedules the
 * waiter's resumption at the current tick, the same position
 * Trigger::fire() would have produced.
 */

#ifndef HOWSIM_SIM_COMPLETION_HH
#define HOWSIM_SIM_COMPLETION_HH

#include <coroutine>

#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace howsim::sim
{

/** One-shot, single-waiter completion signal; see the file comment. */
class Completion
{
  public:
    /**
     * Fire; wakes the waiter (if any) at the current tick. Firing
     * twice is a bug in the signalling event handler — a one-shot
     * that fires again has lost track of its transfer — so it
     * panics rather than masking the double signal.
     */
    void
    fire()
    {
        if (firedFlag)
            panic("Completion fired twice");
        firedFlag = true;
        if (!waiter)
            return;
        Simulator *s = Simulator::current();
        if (!s)
            panic("Completion fired outside a simulation");
        s->scheduleAt(s->now(), waiter);
        waiter = nullptr;
    }

    /** True once fire() has been called. */
    bool fired() const { return firedFlag; }

    struct Wait
    {
        Completion *comp;

        bool await_ready() const noexcept { return comp->firedFlag; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            if (comp->waiter)
                panic("Completion supports a single waiter");
            comp->waiter = h;
        }

        void await_resume() const noexcept {}
    };

    /** Awaitable that completes when fire() is called. */
    Wait wait() { return Wait{this}; }

  private:
    bool firedFlag = false;
    std::coroutine_handle<> waiter;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_COMPLETION_HH

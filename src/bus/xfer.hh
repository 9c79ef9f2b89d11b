/**
 * @file
 * Transfer-policy selection for the interconnect models.
 *
 * Buses (and the Network built from them) ship two interchangeable
 * transfer engines. The coroutine path is the reference: every
 * transfer is a coroutine that acquires a Resource slot, delays for
 * its occupancy, and releases. The calendar path computes the same
 * FIFO channel schedule arithmetically from per-channel busy-until
 * ticks and schedules only completion events — no coroutine frames —
 * producing the same grants at the same (tick, seq) positions (see
 * DESIGN.md §12 for the equivalence argument). The HOWSIM_XFER
 * environment variable ("calendar" | "coro") picks the default for
 * newly built buses.
 */

#ifndef HOWSIM_BUS_XFER_HH
#define HOWSIM_BUS_XFER_HH

namespace howsim::bus
{

/** The interchangeable bus/network transfer engines. */
enum class XferPolicy
{
    /** Coroutine per transfer over a Resource. The reference. */
    Coro,
    /** Arithmetic busy-until calendar. The default. */
    Calendar,
};

/** Short name ("coro", "calendar"). */
const char *xferPolicyName(XferPolicy policy);

/**
 * The policy named by HOWSIM_XFER, or XferPolicy::Calendar when the
 * variable is unset. Unrecognised values warn once and fall back to
 * the default. Read per call (not cached) so tests can switch the
 * environment between bus constructions.
 */
XferPolicy defaultXferPolicy();

} // namespace howsim::bus

#endif // HOWSIM_BUS_XFER_HH

/**
 * @file
 * Scheduler policy selection and the entry type shared by the
 * pluggable event-queue implementations.
 *
 * The simulation kernel ships two interchangeable scheduler policies
 * (see event_heap.hh and event_ladder.hh). Both drain events in
 * strict (tick, sequence) order, so a simulation's execution — and
 * therefore every table/figure output — is bit-identical under
 * either; they differ only in host-time cost per operation. The
 * HOWSIM_SCHED environment variable ("ladder" | "heap") picks the
 * default policy for newly built queues.
 */

#ifndef HOWSIM_SIM_SCHED_HH
#define HOWSIM_SIM_SCHED_HH

#include <cstdint>

#include "sim/action.hh"
#include "sim/ticks.hh"

namespace howsim::sim
{

/** The interchangeable event-queue implementations. */
enum class SchedPolicy
{
    /** Single binary heap; O(log n) schedule/pop. The reference. */
    Heap,
    /** Ladder queue; amortized O(1) schedule/pop. The default. */
    Ladder,
};

/** Short name ("heap", "ladder"). */
const char *schedPolicyName(SchedPolicy policy);

/**
 * The policy named by HOWSIM_SCHED, or SchedPolicy::Ladder when the
 * variable is unset. Unrecognised values warn once and fall back to
 * the default. Read per call (not cached) so tests can switch the
 * environment between simulator constructions.
 */
SchedPolicy defaultSchedPolicy();

/**
 * One pending event. The sequence number is a per-queue schedule
 * counter that breaks same-tick ties, keeping simulations
 * deterministic regardless of the underlying container, or a key
 * from a KeyStream (below) for a keyed event.
 */
struct SchedEntry
{
    Tick when;
    std::uint64_t seq;
    InlineAction action;
};

/**
 * Sequence-number band for *keyed* events (DESIGN.md §14). Ordinary
 * schedules draw fresh sequence numbers from the queue's counter, so
 * their same-tick order is scheduling order. A keyed event instead
 * carries a sequence number from a KeyStream owned by the logical
 * entity that posts it (a disk, a link, a barrier), so its same-tick
 * order is a property of that entity. The band bit orders the two
 * populations: fresh counters never reach 2^62, so at a given tick
 * every ordinary event runs before every keyed one.
 */
constexpr std::uint64_t kKeyedSeqBand = std::uint64_t{1} << 62;

/**
 * Allocator of keyed sequence numbers for one logical entity. Streams
 * are handed out by Simulator::allocKeyStream() in construction order,
 * so the assignment is identical across runs. Key layout:
 * band | stream << 36 | counter.
 */
class KeyStream
{
  public:
    KeyStream() = default;

    explicit KeyStream(std::uint64_t streamId)
        : base(kKeyedSeqBand | (streamId << counterBits))
    {
    }

    /** The next key; strictly increasing within the stream. */
    std::uint64_t next() { return base | counter++; }

    /** Bits reserved for the per-stream counter. */
    static constexpr unsigned counterBits = 36;

  private:
    std::uint64_t base = kKeyedSeqBand;
    std::uint64_t counter = 0;
};

/** Min-order comparator for the std:: heap algorithms. */
struct SchedAfter
{
    bool
    operator()(const SchedEntry &a, const SchedEntry &b) const noexcept
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_SCHED_HH

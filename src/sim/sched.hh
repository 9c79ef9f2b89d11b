/**
 * @file
 * Keyed sequence numbers for the event queue (DESIGN.md §14), plus
 * the scheduler-policy names perfbench/ still compiles against.
 */

#ifndef HOWSIM_SIM_SCHED_HH
#define HOWSIM_SIM_SCHED_HH

#include <cstdint>

namespace howsim::sim
{

/** The event queue's one implementation; exists only for perfbench/. */
enum class SchedPolicy
{
    LaneHeap,
};

/** Short name of @p policy; exists only for perfbench/. */
constexpr const char *
schedPolicyName(SchedPolicy)
{
    return "lane-heap";
}

/** The only policy; exists only for perfbench/. */
constexpr SchedPolicy
defaultSchedPolicy()
{
    return SchedPolicy::LaneHeap;
}

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
 * band | stream << 36 | counter. A default-constructed stream was
 * never allocated: its keys lack the band bit, so postKeyed() rejects
 * them instead of letting them tie with stream 0's.
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
    std::uint64_t base = 0;
    std::uint64_t counter = 0;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_SCHED_HH

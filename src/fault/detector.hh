/**
 * @file
 * Heartbeat/lease failure detector and recovery orchestration.
 *
 * The front end of every machine exchanges periodic keyed heartbeats
 * with its drives/nodes over the machine's real interconnect model,
 * so the instant a death is *declared* is an emergent function of the
 * heartbeat period (hb.period.ms), the timeout multiplier
 * (hb.timeout.x) and whatever foreground traffic is contending for
 * the link — not a configured constant. Heartbeat send instants are
 * jittered by the repo's stateless counter hash (fault::unitDraw), so
 * the probe schedule is bit-identical across job counts like every
 * other fault site.
 *
 * Two clocks matter and are deliberately distinct (DESIGN.md §13):
 *
 *  - The *nominal lease* (FaultPlan::leaseTicks()) gates when a
 *    machine may redirect a dead device's operations to its replica
 *    peer. It is a pure function of the plan, so the redirect
 *    decision reads no detector state.
 *  - The *measured detection latency* is what the monitors observe:
 *    the first heartbeat probe that both misses its ack and finds
 *    the lease expired. It is always >= the nominal lease and grows
 *    with the heartbeat period and with link contention; it is the
 *    quantity availability_sweep plots.
 *
 * A monitor that sees acks resume after declaring a device dead has
 * witnessed a rejoin (stop.restart.ms); it then starts the
 * replica-driven rebuild one keyed hop later (DESIGN.md §14): the
 * rebuild loop copies the victim's share back through the machine's
 * disks and interconnect, throttled to rebuild.rate.mbs, competing
 * with any foreground queries for the same resources.
 */

#ifndef HOWSIM_FAULT_DETECTOR_HH
#define HOWSIM_FAULT_DETECTOR_HH

#include <cstdint>
#include <vector>

#include "fault/fault.hh"
#include "sim/coro.hh"
#include "sim/simulator.hh"
#include "sim/ticks.hh"

namespace howsim::fault
{

/** Bytes of one heartbeat probe / ack frame. */
constexpr std::uint64_t kHeartbeatBytes = 64;

/** Replica-copy unit of the rebuild loop. */
constexpr std::uint64_t kRebuildChunkBytes = 1ull << 20;

/**
 * Stream / tag-band id reserved for rebuild traffic. Far above any
 * traffic-query stream (qids plus the retry offset stay below 2^19),
 * and never retired: its channels live for the machine's lifetime.
 */
constexpr int kRebuildStream = 1 << 20;

/**
 * The machine-side services the detector needs. Every architecture's
 * machine (ActiveDiskArray, ClusterMachine, SmpMachine) implements
 * it.
 */
class AvailabilityTransport
{
  public:
    virtual ~AvailabilityTransport() = default;

    /**
     * One probe round trip over the machine's interconnect, from the
     * front end. Returns false when the device was down at probe
     * arrival (no ack; the caller eats the timeout).
     */
    virtual sim::Coro<bool> heartbeat(int device) = 0;

    /**
     * Copy one replica chunk back onto the rejoined @p device:
     * replica read on the buddy, an interconnect crossing, a local
     * write — all through the machine's contended resources.
     */
    virtual sim::Coro<void> rebuildChunk(int device,
                                         std::uint64_t offset,
                                         std::uint64_t bytes) = 0;

    /** Monitored devices (drives / nodes). */
    virtual int deviceCount() const = 0;

    /** Latency of the keyed rejoin -> rebuild hop. */
    virtual sim::Tick crossLatency() const = 0;
};

/**
 * Fail-stop takeover routing, one per machine: the machine's resolved
 * schedule and the redirect of operations addressed to a dead device.
 * Pure plan arithmetic — no detector state is read.
 */
class Takeover
{
  public:
    /**
     * Resolves the fail-stop schedule of current()'s plan over
     * @p devices; empty when the plan configures none.
     */
    Takeover(sim::Simulator &s, int devices);

    const StopSchedule &schedule() const { return sched; }

    /** No fail-stop scheduled: callers skip route(). */
    bool empty() const { return sched.empty(); }

    /**
     * The device that serves an operation addressed to @p d right
     * now. A live device serves itself. An operation addressed to a
     * dead device stalls until the front end could have declared the
     * death (the nominal lease) or until the device restarts,
     * whichever is first, then runs on the device itself (restarted)
     * or on its buddy in [@p first, @p first + @p count) (redirected,
     * counted in Counters::stopRedirects).
     */
    sim::Coro<int> route(int d, int first, int count);

  private:
    sim::Simulator &simulator;
    Injector *inj = nullptr;
    StopSchedule sched;
};

/** What the detector observed, for metrics and availability_sweep. */
struct AvailabilityStats
{
    std::uint64_t heartbeats = 0;
    std::uint64_t deaths = 0;
    std::uint64_t rejoins = 0;

    /** Sum/max over victims of declaredAt - stopAt. */
    sim::Tick detectLatencyTotal = 0;
    sim::Tick detectLatencyMax = 0;

    /** Replica bytes copied back by rebuild loops. */
    std::uint64_t rebuiltBytes = 0;

    double
    meanDetectMs() const
    {
        return deaths == 0 ? 0.0
                           : sim::toMilliseconds(detectLatencyTotal)
                                 / static_cast<double>(deaths);
    }
};

/**
 * One failure detector per faulted run. Construct after the machine
 * and before Simulator::run(): the rebuild key streams must be
 * allocated at construction time, in fixed order.
 */
class Detector
{
  public:
    Detector(sim::Simulator &s, Injector &injector,
             const StopSchedule &schedule,
             AvailabilityTransport &transport,
             std::uint64_t rebuildBytesPerDevice);

    Detector(const Detector &) = delete;
    Detector &operator=(const Detector &) = delete;

    /** Spawn one monitor per device. Call before the simulator runs. */
    void start();

    /** Observations; read after Simulator::run() returns. */
    AvailabilityStats stats() const;

  private:
    sim::Coro<void> monitor(int device);
    sim::Coro<void> rebuild(int victim, sim::KeyStream &keys);
    void declareDead(int device, sim::Tick now);
    void noteRejoin(int device);

    sim::Simulator &simulator;
    Injector &inj;
    StopSchedule sched;
    AvailabilityTransport &transport;
    std::uint64_t rebuildBytes;

    /**
     * Victim watches still open. A victim's watch closes once its
     * whole story has been observed (death declared; rejoin seen too
     * when scheduled); every monitor exits once all watches close,
     * so a faulted run's event queue drains instead of heartbeating
     * forever.
     */
    int watchRemaining = 0;

    AvailabilityStats observed;

    /**
     * Per-victim key streams for the rejoin -> rebuild handshake
     * (allocated in ctor, fixed order; rebuildKeys[i] belongs to
     * victims[i]).
     */
    std::vector<sim::KeyStream> rebuildKeys;
};

} // namespace howsim::fault

#endif // HOWSIM_FAULT_DETECTOR_HH

/**
 * @file
 * Queue-based I/O interconnect model.
 *
 * Mirrors Howsim's interconnect model: "a simple queue-based model
 * that has parameters for startup latency, transfer speed and the
 * capacity of the interconnect". A Bus has a number of independent
 * channels (e.g. the two loops of a dual Fibre Channel arbitrated
 * loop); each transfer occupies one channel for
 * startup + bytes/rate. Transfers queue FIFO when all channels are
 * busy, which is what turns a shared 200 MB/s interconnect into the
 * SMP bottleneck the paper measures.
 *
 * Two interchangeable transfer engines implement those semantics
 * (BusParams::xfer, HOWSIM_XFER): the reference coroutine path
 * (Resource acquire / delay / release per transfer) and the calendar
 * path, which books the same FIFO schedule arithmetically from
 * per-channel busy-until ticks and schedules only completion events.
 * Grant order, timing, statistics and observability output are
 * identical between the two; DESIGN.md §12 gives the equivalence
 * argument.
 */

#ifndef HOWSIM_BUS_BUS_HH
#define HOWSIM_BUS_BUS_HH

#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bus/xfer.hh"
#include "sim/action.hh"
#include "sim/coro.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"
#include "sim/ticks.hh"

namespace howsim::obs
{
class Counter;
class Histogram;
class Session;
} // namespace howsim::obs

namespace howsim::bus
{

/** Interconnect parameterization. */
struct BusParams
{
    std::string name = "bus";

    /** Independent transfer channels (loops/lanes). */
    int channels = 1;

    /** Bandwidth of one channel, bytes per second. */
    double channelRate = 100e6;

    /** Per-transfer arbitration/startup latency. */
    sim::Tick startup = sim::microseconds(1);

    /** Transfer engine; defaults to HOWSIM_XFER (calendar). */
    XferPolicy xfer = defaultXferPolicy();

    /**
     * Register occupancy timeline probes with the observability
     * session. Totals counters are always kept; instantiators of
     * many buses (one per cluster host) turn the probes off to keep
     * trace counter tracks bounded.
     */
    bool probeTimeline = true;

    /** Aggregate bandwidth over all channels, bytes/second. */
    double
    aggregateRate() const
    {
        return channelRate * channels;
    }

    /**
     * Dual-loop Fibre Channel arbitrated loop with the given
     * aggregate bandwidth (the paper's 200 MB/s and 400 MB/s
     * configurations use 2 loops).
     */
    static BusParams
    fibreChannel(double aggregate_bytes_per_s, int loops = 2)
    {
        BusParams p;
        p.name = "fc-al";
        p.channels = loops;
        p.channelRate = aggregate_bytes_per_s / loops;
        p.startup = sim::microseconds(10);
        return p;
    }

    /** Ultra2 SCSI: 80 MB/s single channel. */
    static BusParams
    ultra2Scsi()
    {
        BusParams p;
        p.name = "ultra2-scsi";
        p.channels = 1;
        p.channelRate = 80e6;
        p.startup = sim::microseconds(20);
        return p;
    }

    /** 33 MHz/32-bit PCI: 133 MB/s single channel. */
    static BusParams
    pci33()
    {
        BusParams p;
        p.name = "pci";
        p.channels = 1;
        p.channelRate = 133e6;
        p.startup = sim::microseconds(1);
        return p;
    }

    /** Origin-2000-style XIO subsystem: two 700 MB/s I/O nodes. */
    static BusParams
    xio()
    {
        BusParams p;
        p.name = "xio";
        p.channels = 2;
        p.channelRate = 700e6;
        p.startup = sim::microseconds(1);
        return p;
    }
};

/** Aggregate bus statistics. */
struct BusStats
{
    std::uint64_t transfers = 0;
    std::uint64_t bytes = 0;
    sim::Tick busyTicks = 0;
};

/**
 * Owner of a closed-form booking that spans one or more calendar
 * buses (the Network's collapsed frame trains). While a reservation
 * is installed, the bus holds no per-transfer state for the owner's
 * frames; any foreign booking first calls demote(), which must
 * re-materialize the owner's still-pending frames as ordinary
 * calendar bookings on every bus it spans and clear the reservation.
 */
class Reservation
{
  public:
    virtual ~Reservation() = default;

    /** Re-materialize per-transfer state; see the class comment. */
    virtual void demote() = 0;
};

/** A shared interconnect; see the file comment for the model. */
class Bus
{
  public:
    Bus(sim::Simulator &s, BusParams params);

    Bus(const Bus &) = delete;
    Bus &operator=(const Bus &) = delete;

    ~Bus();

    class Transfer;

    /**
     * Move @p bytes across the interconnect: waits for a free
     * channel, then occupies it for startup + bytes/rate.
     */
    Transfer transfer(std::uint64_t bytes);

    /**
     * Calendar engine only: book a transfer at the current tick and
     * invoke @p done inside the completion event, after statistics
     * are applied — the position a coroutine awaiting transfer()
     * resumes at. Queues FIFO behind pending bookings.
     */
    void bookAsync(std::uint64_t bytes, sim::InlineAction done);

    /** Channel occupancy of one transfer: startup + bytes/rate. */
    sim::Tick
    occupancyTicks(std::uint64_t bytes) const
    {
        return busParams.startup
               + sim::transferTicks(bytes, busParams.channelRate);
    }

    const BusParams &params() const { return busParams; }
    const BusStats &stats() const { return accumulated; }

    /**
     * Lower bound on the send-to-delivery latency of any transfer:
     * even a zero-byte booking occupies a channel for the startup
     * (arbitration) time. Keyed hops over this interconnect take it
     * as their latency.
     */
    sim::Tick minGrantLatency() const { return busParams.startup; }

    /**
     * Transfers currently waiting for a channel. Frames covered by an
     * installed Reservation are not counted until it settles.
     */
    std::size_t
    queueLength() const
    {
        return busParams.xfer == XferPolicy::Coro ? slots.queueLength()
                                                  : pending.size();
    }

    /** Aggregate time transfers spent waiting for a channel. */
    sim::Tick
    totalWait() const
    {
        return busParams.xfer == XferPolicy::Coro ? slots.totalWait()
                                                  : waitTicks;
    }

    /** Fraction of channel capacity in use over @p elapsed ticks. */
    double
    utilization(sim::Tick elapsed) const
    {
        if (busParams.xfer == XferPolicy::Coro)
            return slots.utilization(elapsed);
        if (elapsed == 0)
            return 0.0;
        return static_cast<double>(busyUnitTicks)
               / (static_cast<double>(busParams.channels) * elapsed);
    }

    // ----- calendar collapse handshake (used by net::Network) -----

    /**
     * Clients are prospective bookers (the Network registers every
     * in-flight transfer on each bus of its path). A reservation is
     * only sound while its owner is the sole client: any concurrent
     * client could interleave with the reserved schedule at a shared
     * tick, and events materialized at demotion time cannot recover
     * the FIFO positions the per-frame engines would have assigned
     * (DESIGN.md §12). Newcomers register at their entry point —
     * before any booking — and demote intersecting reservations
     * there, which is early enough to keep event order exact.
     */
    void addClient() { ++clients; }
    void dropClient() { --clients; }
    Reservation *reservation() const { return resv; }

    /**
     * True when a closed-form booking may be layered on this bus:
     * calendar engine, no reservation installed, nothing queued or
     * in service, and the caller is the sole registered client.
     */
    bool
    calendarQuiet() const
    {
        return busParams.xfer == XferPolicy::Calendar && !resv
               && pending.empty() && activeCount == 0 && clients == 1;
    }

    /** Per-channel busy-until ticks (calendar engine). */
    const std::vector<sim::Tick> &channelEnds() const { return chanEnd; }

    /** Install @p r; @pre calendarQuiet(). */
    void setReservation(Reservation *r);

    /** Remove the installed reservation (if it is @p r). */
    void clearReservation(Reservation *r);

    /**
     * Settle one reserved transfer that ran to completion entirely
     * under the reservation: fold its end into the channel calendar
     * and apply the statistics a normal completion would have.
     * @p queued_depth is the queue depth the transfer would have
     * observed on enqueue (0 = granted immediately).
     */
    void commitReserved(sim::Tick arrival, sim::Tick start, sim::Tick end,
                        std::uint64_t bytes, std::size_t queued_depth);

    /**
     * Demotion of an in-service reserved transfer
     * (start <= now < end): occupy a channel, schedule the normal
     * completion event at @p end (which applies transfer statistics
     * and runs @p done), and settle the wait it already served.
     */
    void adoptReservedActive(sim::Tick arrival, sim::Tick start,
                             sim::Tick end, std::uint64_t bytes,
                             std::size_t queued_depth,
                             sim::InlineAction done);

    /**
     * Demotion of a reserved transfer that had arrived but not yet
     * started: append it to the pending queue with its original
     * arrival tick, to be granted by the normal completion chain.
     */
    void adoptReservedQueued(sim::Tick arrival, std::uint64_t bytes,
                             std::size_t queued_depth,
                             sim::InlineAction done);

    /** Calendar-engine awaitable / coroutine-path wrapper. */
    class Transfer
    {
      public:
        explicit Transfer(sim::Coro<void> c) : inner(std::move(c)) {}

        Transfer(Bus *b, std::uint64_t n) : target(b), nbytes(n) {}

        bool await_ready() const noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> cont)
        {
            if (inner.valid())
                return inner.operator co_await().await_suspend(cont);
            target->bookAsync(nbytes, sim::InlineAction(cont));
            return std::noop_coroutine();
        }

        void
        await_resume()
        {
            if (inner.valid())
                inner.operator co_await().await_resume();
        }

      private:
        sim::Coro<void> inner; //!< engaged on the coroutine path
        Bus *target = nullptr;
        std::uint64_t nbytes = 0;
    };

  private:
    /** Pooled per-booking record (calendar engine). */
    struct Rec
    {
        std::uint64_t bytes;
        sim::Tick occ;
        sim::Tick arrival;
        int channel;
        sim::InlineAction done;
        Rec *nextFree;
    };

    sim::Coro<void> transferCoro(std::uint64_t bytes);

    Rec *allocRec();
    void freeRec(Rec *r);
    /** Channel with the smallest busy-until tick among free ones. */
    int freeChannelMinEnd() const;
    /** Integrate channel occupancy up to now (utilization). */
    void integrate(sim::Tick now);
    /** Grant @p r a channel now and schedule its completion. */
    void grantNow(Rec *r, sim::Tick now);
    void onComplete(Rec *r);
    /** Synchronous FIFO grant at release time (Resource semantics);
     *  the wake event then schedules the completion. */
    void grantChannel(Rec *r, sim::Tick now);
    void onWake(Rec *r);

    sim::Simulator &simulator;
    BusParams busParams;
    sim::Resource slots;
    BusStats accumulated;

    // Calendar engine state (unused on the coroutine path).
    std::vector<sim::Tick> chanEnd; //!< last booked end per channel
    std::vector<int> chanBusy;      //!< outstanding completion events
    int activeCount = 0;
    std::deque<Rec *> pending;
    std::deque<Rec> recPool;
    Rec *freeRecs = nullptr;
    Reservation *resv = nullptr;
    int clients = 0; //!< registered prospective bookers

    // Conformance trace (HOWSIM_BUSLOG); see bus.cc. Null when off.
    std::FILE *dbgLog = nullptr;
    int dbgId = -1;
    sim::Tick waitTicks = 0;
    sim::Tick lastChange = 0;
    std::uint64_t busyUnitTicks = 0;

    // Cached observability hooks; null when observability is off.
    obs::Counter *obsBytes = nullptr;
    obs::Counter *obsTransfers = nullptr;
    obs::Histogram *obsWait = nullptr;
    obs::Histogram *obsDepth = nullptr;
    obs::Session *obsSess = nullptr;
};

} // namespace howsim::bus

#endif // HOWSIM_BUS_BUS_HH

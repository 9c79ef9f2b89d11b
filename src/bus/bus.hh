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
 * The bus books that FIFO schedule as a calendar: a transfer that
 * finds a free channel and no queue is granted inline, others wait
 * in a pending queue, and only completion events are scheduled, with
 * no coroutine frame per transfer. Grants and completions fall at the
 * same ticks, in the same order, as under a Resource acquire / delay
 * / release coroutine per transfer (DESIGN.md §12); the differential
 * tests check this against exactly that reference.
 */

#ifndef HOWSIM_BUS_BUS_HH
#define HOWSIM_BUS_BUS_HH

#include <coroutine>
#include <cstdint>
#include <deque>
#include <string>

#include "bus/xfer.hh"
#include "sim/action.hh"
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

    /** Unused; kept only for perfbench/. */
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
     * Book a transfer at the current tick and invoke @p done inside
     * the completion event, after statistics are applied: the
     * position a coroutine awaiting transfer() resumes at. Queues
     * FIFO behind pending bookings.
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

    /** Transfers currently waiting for a channel. */
    std::size_t queueLength() const { return pending.size(); }

    /** Aggregate time transfers spent waiting for a channel. */
    sim::Tick totalWait() const { return waitTicks; }

    /** Fraction of channel capacity in use over @p elapsed ticks. */
    double
    utilization(sim::Tick elapsed) const
    {
        if (elapsed == 0)
            return 0.0;
        return static_cast<double>(busyUnitTicks)
               / (static_cast<double>(busParams.channels) * elapsed);
    }

    /** Awaitable returned by transfer(). */
    class Transfer
    {
      public:
        Transfer(Bus *b, std::uint64_t n) : target(b), nbytes(n) {}

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> cont)
        {
            target->bookAsync(nbytes, sim::InlineAction(cont));
        }

        void await_resume() const noexcept {}

      private:
        Bus *target;
        std::uint64_t nbytes;
    };

  private:
    /** Pooled per-booking record. */
    struct Rec
    {
        std::uint64_t bytes;
        sim::Tick occ;
        sim::Tick arrival;
        sim::InlineAction done;
        Rec *nextFree;
    };

    Rec *allocRec();
    void freeRec(Rec *r);
    /** Integrate channel occupancy up to now (utilization). */
    void integrate(sim::Tick now);
    /** Hand @p r a channel at @p now and account its wait. */
    void grant(Rec *r, sim::Tick now);
    /** Schedule @p r's completion one occupancy from now. */
    void occupy(Rec *r);
    void onComplete(Rec *r);

    sim::Simulator &simulator;
    BusParams busParams;
    BusStats accumulated;

    int activeCount = 0; //!< completion events not yet run
    std::deque<Rec *> pending;
    std::deque<Rec> recPool;
    Rec *freeRecs = nullptr;
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

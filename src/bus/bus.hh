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
 * The bus books that FIFO schedule on a sim::Calendar, the FIFO
 * calendar it shares with the processors: no coroutine frame per
 * transfer, and grants and completions at the same ticks, in the same
 * order, as under a Resource acquire / delay / release coroutine per
 * transfer (DESIGN.md §12).
 */

#ifndef HOWSIM_BUS_BUS_HH
#define HOWSIM_BUS_BUS_HH

#include <coroutine>
#include <cstdint>
#include <string>

#include "bus/xfer.hh"
#include "sim/calendar.hh"
#include "sim/simulator.hh"
#include "sim/ticks.hh"

namespace howsim::obs
{
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
     * Book a transfer at the current tick and run @p done (a handle
     * or target word) inside the completion event, after statistics
     * are applied: the position a coroutine awaiting transfer()
     * resumes at. Queues FIFO behind pending bookings.
     */
    void
    bookAsync(std::uint64_t bytes, sim::EventWord done)
    {
        channels.book(occupancyTicks(bytes), done, bytes);
    }

    /** Channel occupancy of one transfer: startup + bytes/rate. */
    sim::Tick
    occupancyTicks(std::uint64_t bytes) const
    {
        return busParams.startup
               + sim::transferTicks(bytes, busParams.channelRate);
    }

    const BusParams &params() const { return busParams; }

    BusStats
    stats() const
    {
        return {channels.completed(), channels.units(), channels.busyTicks()};
    }

    /**
     * Lower bound on the send-to-delivery latency of any transfer:
     * even a zero-byte booking occupies a channel for the startup
     * (arbitration) time. Keyed hops over this interconnect take it
     * as their latency.
     */
    sim::Tick minGrantLatency() const { return busParams.startup; }

    /** Transfers currently waiting for a channel. */
    std::size_t queueLength() const { return channels.queueLength(); }

    /** Aggregate time transfers spent waiting for a channel. */
    sim::Tick totalWait() const { return channels.totalWait(); }

    /** Fraction of channel capacity in use over @p elapsed ticks. */
    double
    utilization(sim::Tick elapsed) const
    {
        return channels.utilization(elapsed);
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
            target->bookAsync(nbytes, cont);
        }

        void await_resume() const noexcept {}

      private:
        Bus *target;
        std::uint64_t nbytes;
    };

  private:
    BusParams busParams;
    sim::Calendar channels;

    /** Session the timeline probes went to; null when none. */
    obs::Session *obsSess = nullptr;
};

} // namespace howsim::bus

#endif // HOWSIM_BUS_BUS_HH

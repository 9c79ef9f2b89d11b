/**
 * @file
 * Trace explorer: run the external sort on an Active Disk machine
 * under a fine-detail observability session, then mine the session's
 * metrics and trace buffer for what the mechanism actually did —
 * request mix, service-time decomposition per sort phase, seek
 * behaviour. This is the drive-level view behind the paper's
 * Figure 3, built entirely on the obs:: subsystem (the same data the
 * HOWSIM_TRACE_DIR env switch would write for Perfetto).
 *
 * Usage: trace_explorer [ndisks] [tracedir]
 *
 * With a tracedir argument the Chrome-trace JSON is also written
 * there, ready to load at https://ui.perfetto.dev.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "diskos/active_disk_array.hh"
#include "obs/obs.hh"
#include "sim/simulator.hh"
#include "tasks/task_runner.hh"
#include "workload/dataset.hh"

using namespace howsim;

namespace
{

/** Per-phase totals of one drive's fine-detail service slices. */
struct PhaseBreakdown
{
    std::uint64_t requests = 0;
    sim::Tick overhead = 0;
    sim::Tick seek = 0;
    sim::Tick rotate = 0;
    sim::Tick media = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    int ndisks = argc > 1 ? std::atoi(argv[1]) : 16;

    // A fine-detail session records per-request sub-slices (seek,
    // rotation, media) on every drive's track, not just the coarse
    // request spans. Constructed before the Simulator so the
    // simulator binds its clock to it.
    obs::Session::Options options;
    options.detail = obs::Detail::Fine;
    if (argc > 2)
        options.traceDir = argv[2];
    obs::Session session("trace_explorer", options);

    sim::Simulator simulator;
    diskos::ActiveDiskArray machine(simulator, ndisks,
                                    disk::DiskSpec::seagateSt39102());

    // The legacy raw-record trace still works alongside obs and is
    // the only place per-request LBAs live; keep it for the access
    // pattern analysis at the end.
    std::vector<disk::TraceRecord> trace;
    machine.drive(0).traceTo(&trace);

    tasks::TaskRunner runner(simulator, machine);
    auto data = workload::DatasetSpec::forTask(
        workload::TaskKind::Sort);
    auto result = runner.run(workload::TaskKind::Sort, data);

    obs::MetricRegistry &metrics = session.metrics();
    obs::Scope drive0(metrics, "ad0");
    std::printf("sort on %d Active Disks: %.1f s; drive 0 serviced "
                "%llu requests\n\n",
                ndisks, result.seconds(),
                static_cast<unsigned long long>(
                    drive0.counter("requests").value()));

    // Request mix and latency distribution, straight from drive 0's
    // cached metrics.
    std::printf("drive 0 request mix:\n");
    std::printf("  read  %8.1f MB   write %8.1f MB   cache hits "
                "%.1f MB\n",
                static_cast<double>(
                    drive0.counter("bytes_read").value()) / 1e6,
                static_cast<double>(
                    drive0.counter("bytes_written").value()) / 1e6,
                static_cast<double>(
                    drive0.counter("cache_hit_bytes").value()) / 1e6);
    auto latency = [&](const char *label, const char *leaf) {
        const obs::Histogram &h = drive0.histogram(leaf);
        if (h.count() == 0)
            return;
        std::printf("  %-14s mean %6.2f ms  p50 %6.2f ms  p99 "
                    "%6.2f ms  (%llu samples)\n",
                    label, sim::toMilliseconds(sim::Tick(h.mean())),
                    sim::toMilliseconds(sim::Tick(h.percentile(0.5))),
                    sim::toMilliseconds(sim::Tick(h.percentile(0.99))),
                    static_cast<unsigned long long>(h.count()));
    };
    latency("service time", "service_ticks");
    latency("queue wait", "queue_ticks");
    latency("seek time", "seek_ticks");

    // Service-time decomposition per sort phase: intersect drive 0's
    // fine sub-slices with the p1/p2 phase spans on the "phases"
    // track. This reconstructs Figure 3's buckets from the trace
    // buffer alone.
    const obs::TraceSink &sink = session.trace();
    struct Window
    {
        std::string name;
        sim::Tick begin = 0, end = 0;
    };
    std::vector<Window> phases;
    for (const auto &ev : sink.allEvents()) {
        if (ev.ph == 'X' && std::string(ev.cat) == "phase"
            && sink.trackName(ev.tid) == "phases") {
            phases.push_back({ev.name, ev.ts, ev.ts + ev.dur});
        }
    }

    std::vector<PhaseBreakdown> perPhase(phases.size());
    for (const auto &ev : sink.allEvents()) {
        if (ev.ph != 'X' || sink.trackName(ev.tid) != "ad0")
            continue;
        for (std::size_t p = 0; p < phases.size(); ++p) {
            if (ev.ts < phases[p].begin || ev.ts >= phases[p].end)
                continue;
            PhaseBreakdown &b = perPhase[p];
            if (std::string(ev.cat) == "disk")
                ++b.requests;
            else if (ev.name == "overhead")
                b.overhead += ev.dur;
            else if (ev.name == "seek")
                b.seek += ev.dur;
            else if (ev.name == "rotate")
                b.rotate += ev.dur;
            else if (ev.name == "media")
                b.media += ev.dur;
            break;
        }
    }

    std::printf("\ndrive 0 service decomposition by sort phase "
                "(per request):\n");
    for (std::size_t p = 0; p < phases.size(); ++p) {
        const PhaseBreakdown &b = perPhase[p];
        if (b.requests == 0)
            continue;
        double n = static_cast<double>(b.requests);
        std::printf("  %-4s %7llu reqs | overhead %5.2f ms seek "
                    "%5.2f ms rot %5.2f ms media %5.2f ms\n",
                    phases[p].name.c_str(),
                    static_cast<unsigned long long>(b.requests),
                    sim::toMilliseconds(b.overhead) / n,
                    sim::toMilliseconds(b.seek) / n,
                    sim::toMilliseconds(b.rotate) / n,
                    sim::toMilliseconds(b.media) / n);
    }

    // Seek-distance histogram from the legacy raw records: how
    // sequential was the access pattern?
    std::uint64_t zero = 0, small = 0, large = 0;
    std::uint64_t prev_end = 0;
    for (const auto &rec : trace) {
        if (rec.request.lba == prev_end)
            ++zero;
        else if (rec.request.lba > prev_end
                     ? rec.request.lba - prev_end < 1u << 16
                     : prev_end - rec.request.lba < 1u << 16)
            ++small;
        else
            ++large;
        prev_end = rec.request.lba + rec.request.sectors;
    }
    std::printf("\naccess pattern: %llu sequential, %llu near, %llu "
                "far requests\n",
                static_cast<unsigned long long>(zero),
                static_cast<unsigned long long>(small),
                static_cast<unsigned long long>(large));
    std::printf("(the merge phase's round-robin over runs shows up "
                "as 'near/far' hops)\n");

    if (!options.traceDir.empty()) {
        session.dump();
        std::printf("\nwrote Chrome trace to %s/ — load it at "
                    "https://ui.perfetto.dev\n",
                    options.traceDir.c_str());
    }
    return 0;
}

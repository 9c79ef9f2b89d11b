#include "disk/disk.hh"

#include <algorithm>
#include <cmath>

#include "fault/fault.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"

namespace howsim::disk
{

Disk::Disk(sim::Simulator &s, DiskSpec spec, std::string name)
    : simulator(s), geom(std::move(spec)),
      diskSpec(&geom.diskSpec()),
      seeks(SeekCurve::shared(geom.diskSpec(),
                              geom.diskSpec().totalCylinders())),
      diskName(std::move(name))
{
    if (obs::Session *session = obs::session()) {
        obsSess = session;
        obsSink = &session->trace();
        obsTrack = session->trace().track(diskName);
        obsFine = session->fine();
        obs::Scope scope(session->metrics(), diskName);
        obsBytesRead = &scope.counter("bytes_read");
        obsBytesWritten = &scope.counter("bytes_written");
        obsCacheHits = &scope.counter("cache_hit_bytes");
        obsRequests = &scope.counter("requests");
        obsSeeks = &scope.counter("seeks");
        obsService = &scope.histogram("service_ticks");
        obsQueueWait = &scope.histogram("queue_ticks");
        obsSeekHist = &scope.histogram("seek_ticks");
        session->timeline().probe(
            diskName + ".queue_depth",
            [this] { return static_cast<double>(queueDepth()); },
            this);
    }
    if (fault::Injector *inj = fault::current()) {
        if (inj->plan().diskFaultsActive()) {
            faultInj = inj;
            faultSite = fault::siteId(diskName);
            faultSlow = inj->diskIsSlow(faultSite);
            if (obsSess) {
                obs::Scope scope(obsSess->metrics(), diskName);
                obsFaultMedia = &scope.counter("fault.media_errors");
                obsFaultRemaps = &scope.counter("fault.remap_hits");
                obsFaultSlowTicks = &scope.counter("fault.slow_ticks");
                obsFaultRetries = &scope.histogram("fault.retries");
            }
        }
    }
}

Disk::~Disk()
{
    // Only deregister while the session we registered with is still
    // installed; once it unwinds, its dump() already cleared probes.
    if (obsSess && obs::session() == obsSess)
        obsSess->timeline().dropProbes(this);
}

std::uint64_t
Disk::capacityBytes() const
{
    return geom.totalSectors() * diskSpec->sectorBytes;
}

std::size_t
Disk::queueDepth() const
{
    auto first = waiting.begin() + static_cast<std::ptrdiff_t>(waitingHead);
    return static_cast<std::size_t>(
        waiting.end()
        - std::upper_bound(first, waiting.end(), simulator.now()));
}

Disk::Booking
Disk::book(const DiskRequest &req, sim::Tick arrival)
{
    if (req.sectors == 0)
        panic("%s: zero-length request", diskName.c_str());
    if (req.lba + req.sectors > geom.totalSectors())
        panic("%s: request [%llu, +%u) beyond capacity",
              diskName.c_str(), static_cast<unsigned long long>(req.lba),
              req.sectors);
    if (arrival < lastArrival)
        panic("%s: arrival at tick %llu booked after one at tick %llu",
              diskName.c_str(), static_cast<unsigned long long>(arrival),
              static_cast<unsigned long long>(lastArrival));
    lastArrival = arrival;

    const sim::Tick start = std::max(arrival, busyUntil);
    AccessDetail det = computeTiming(req, start);
    det.queueTicks = start - arrival;
    busyUntil = start + det.serviceTicks();
    account(start, req, det);

    // Pass over the start ticks now() has reached, dropping them once
    // they are half the list; remember this one if it is still to come.
    const sim::Tick now = simulator.now();
    while (waitingHead < waiting.size() && waiting[waitingHead] <= now)
        ++waitingHead;
    if (2 * waitingHead >= waiting.size()) {
        waiting.erase(waiting.begin(),
                      waiting.begin()
                          + static_cast<std::ptrdiff_t>(waitingHead));
        waitingHead = 0;
    }
    if (start > now)
        waiting.push_back(start);
    return Booking{det, busyUntil};
}

void
Disk::Access::await_suspend(std::coroutine_handle<> h)
{
    Booking booked = drive.book(req, drive.simulator.now());
    detail = booked.detail;
    drive.simulator.scheduleAt(booked.done, h);
}

double
Disk::angleAt(sim::Tick t) const
{
    double revs = static_cast<double>(t - refTick)
                  / static_cast<double>(geom.revolutionTicks());
    double angle = refAngle + revs;
    return angle - std::floor(angle);
}

AccessDetail
Disk::computeTiming(const DiskRequest &req, sim::Tick start)
{
    AccessDetail d;
    d.overheadTicks = sim::fromSeconds(
        diskSpec->controllerOverheadMs * 1e-3);

    std::uint64_t lba = req.lba;
    std::uint32_t sectors = req.sectors;

    if (!req.write && raValid) {
        // Sectors already prefetched into the read-ahead segment are
        // served from cache; prefetch streams at media rate from
        // raBase since raRefTick, bounded by the segment size.
        std::uint64_t seg_sectors = diskSpec->cacheBytes
                                    / diskSpec->cacheSegments
                                    / diskSpec->sectorBytes;
        // Prefetch continues while the controller processes the
        // command, so the window is evaluated at start + overhead.
        std::uint64_t streamed = static_cast<std::uint64_t>(
            (start + d.overheadTicks - raRefTick) / std::max<sim::Tick>(
                geom.sectorTicks(raZone), 1));
        std::uint64_t ra_end = raBase + std::min(streamed, seg_sectors);
        if (lba >= raBase && lba < ra_end) {
            std::uint64_t hit = std::min<std::uint64_t>(ra_end - lba,
                                                        sectors);
            d.cacheHitBytes = hit * diskSpec->sectorBytes;
            lba += hit;
            sectors -= static_cast<std::uint32_t>(hit);
            if (sectors == 0) {
                // Full cache hit: no mechanism activity. Keep the
                // read-ahead window (it continues streaming).
                return d;
            }
            // Partial hit: the prefetch stream is already positioned
            // at `lba`; continue on media with no seek/rotation.
            Position pos = geom.locate(lba);
            headCylinder = pos.cylinder;
            headTrack = pos.track;
        }
    }

    Position first = geom.locate(lba);
    bool sequential_write = false;
    if (req.write && lba == lastWriteEnd
        && start - lastWriteTick <= 2 * geom.revolutionTicks()) {
        // Write buffer coalescing: back-to-back sequential writes
        // stream without re-incurring seek or rotational latency.
        sequential_write = true;
    }

    bool positioned = d.cacheHitBytes > 0 || sequential_write;
    if (!positioned) {
        std::uint32_t dist = first.cylinder > headCylinder
                             ? first.cylinder - headCylinder
                             : headCylinder - first.cylinder;
        if (dist > 0) {
            d.seekTicks = seeks->seekTicks(dist, req.write);
            ++accumulated.seeks;
            if (obsSeeks)
                obsSeeks->add();
        } else if (first.track != headTrack) {
            d.seekTicks = sim::fromSeconds(
                diskSpec->headSwitchMs * 1e-3);
        }
        // Rotational delay from the angle when positioning finishes
        // to the target sector's angle.
        sim::Tick arrive = start + d.overheadTicks + d.seekTicks;
        double angle = angleAt(arrive);
        double target = static_cast<double>(first.sector)
                        / geom.sectorsPerTrack(first.zone);
        double wait = target - angle;
        if (wait < 0)
            wait += 1.0;
        d.rotationTicks = static_cast<sim::Tick>(
            wait * static_cast<double>(geom.revolutionTicks()));
    }

    // Media transfer, walking tracks and cylinders. The data
    // sheet's *formatted* transfer rate already accounts for
    // skew-hidden track and cylinder switches, and sectorTicks()
    // derives from that rate, so the walk charges media time only;
    // switch costs appear in the positioning path above.
    Position pos = first;
    std::uint32_t remaining = sectors;
    while (remaining > 0) {
        std::uint32_t spt = geom.sectorsPerTrack(pos.zone);
        std::uint32_t on_track = spt - pos.sector;
        std::uint32_t chunk = std::min(on_track, remaining);
        d.mediaTicks += static_cast<sim::Tick>(chunk)
                        * geom.sectorTicks(pos.zone);
        remaining -= chunk;
        pos.sector += chunk;
        if (remaining > 0) {
            pos.sector = 0;
            ++pos.track;
            if (pos.track >= diskSpec->tracksPerCylinder) {
                pos.track = 0;
                ++pos.cylinder;
                pos.zone = geom.zoneOfCylinder(pos.cylinder);
            }
        }
    }

    if (faultInj)
        injectFaults(d, req);

    // Commit mechanical state for the position after the transfer.
    sim::Tick end = start + d.serviceTicks();
    headCylinder = pos.cylinder;
    headTrack = pos.track;
    refTick = end;
    refAngle = static_cast<double>(pos.sector)
               / geom.sectorsPerTrack(pos.zone);

    std::uint64_t end_lba = req.lba + req.sectors;
    if (req.write) {
        lastWriteEnd = end_lba;
        lastWriteTick = end;
        raValid = false;
    } else if (end_lba < geom.totalSectors()) {
        raValid = true;
        raBase = end_lba;
        raRefTick = end;
        raZone = pos.zone;
    } else {
        raValid = false;
    }
    return d;
}

/**
 * Perturb one request's timing per the active fault plan. Fail-slow
 * inflates mechanism time by a constant factor; a transient media
 * error charges one full revolution per reread; a remapped sector
 * charges the spare-area round trip (full-stroke seek + revolution).
 * Decisions hash (seed, drive name, request sequence), so they do not
 * depend on host threading or scheduler/transfer policy.
 */
void
Disk::injectFaults(AccessDetail &d, const DiskRequest &req)
{
    const fault::FaultPlan &plan = faultInj->plan();
    fault::Counters &ctr = faultInj->counters();
    const std::uint64_t seq = faultSeq++;

    if (faultSlow) {
        sim::Tick mech = d.seekTicks + d.rotationTicks + d.mediaTicks;
        auto extra = static_cast<sim::Tick>(
            (plan.diskSlowFactor - 1.0) * static_cast<double>(mech));
        d.faultTicks += extra;
        ++ctr.diskSlowRequests;
        ctr.diskSlowTicks += extra;
        if (obsFaultSlowTicks)
            obsFaultSlowTicks->add(static_cast<std::uint64_t>(extra));
    }

    int retries = faultInj->diskMediaRetryCount(faultSite, seq);
    if (retries > 0) {
        d.retries = static_cast<std::uint32_t>(retries);
        d.faultTicks += static_cast<sim::Tick>(retries)
                        * geom.revolutionTicks();
        ++ctr.diskMediaErrors;
        ctr.diskRetries += static_cast<std::uint64_t>(retries);
        if (obsFaultMedia) {
            obsFaultMedia->add();
            obsFaultRetries->sample(
                static_cast<std::uint64_t>(retries));
        }
    }

    if (faultInj->diskRemapHit(faultSite, seq)) {
        std::uint32_t stroke = diskSpec->totalCylinders() > 1
                               ? diskSpec->totalCylinders() - 1
                               : 1;
        d.faultTicks += seeks->seekTicks(stroke, req.write)
                        + geom.revolutionTicks();
        ++ctr.diskRemaps;
        if (obsFaultRemaps)
            obsFaultRemaps->add();
    }
}

/** Fold one booked request into the statistics, trace and metrics. */
void
Disk::account(sim::Tick start, const DiskRequest &req,
              const AccessDetail &det)
{
    if (trace)
        trace->push_back(TraceRecord{start, req, det});
    if (obsSink)
        recordObs(start, req, det);

    ++accumulated.requests;
    accumulated.busyTicks += det.serviceTicks();
    accumulated.seekTicks += det.seekTicks;
    accumulated.rotationTicks += det.rotationTicks;
    accumulated.mediaTicks += det.mediaTicks;
    accumulated.queueTicks += det.queueTicks;
    accumulated.cacheHitBytes += det.cacheHitBytes;
    std::uint64_t bytes = static_cast<std::uint64_t>(req.sectors)
                          * diskSpec->sectorBytes;
    if (req.write)
        accumulated.bytesWritten += bytes;
    else
        accumulated.bytesRead += bytes;
}

/**
 * Emit one request's trace span and metric samples. The request span
 * covers mechanism service time (queueing is visible as the gap from
 * arrival and is captured by the queue_ticks histogram); at fine
 * detail the span nests overhead/seek/rotate/media sub-slices.
 */
void
Disk::recordObs(sim::Tick start, const DiskRequest &req,
                const AccessDetail &det)
{
    std::uint64_t bytes = static_cast<std::uint64_t>(req.sectors)
                          * diskSpec->sectorBytes;

    obsSink->complete(obsTrack, req.write ? "write" : "read", "disk",
                      start, det.serviceTicks());
    if (obsFine) {
        sim::Tick t = start;
        if (det.overheadTicks) {
            obsSink->complete(obsTrack, "overhead", "disk.phase", t,
                              det.overheadTicks);
            t += det.overheadTicks;
        }
        if (det.seekTicks) {
            obsSink->complete(obsTrack, "seek", "disk.phase", t,
                              det.seekTicks);
            t += det.seekTicks;
        }
        if (det.rotationTicks) {
            obsSink->complete(obsTrack, "rotate", "disk.phase", t,
                              det.rotationTicks);
            t += det.rotationTicks;
        }
        if (det.mediaTicks) {
            obsSink->complete(obsTrack, "media", "disk.phase", t,
                              det.mediaTicks);
        }
    }

    obsRequests->add();
    obsService->sample(det.serviceTicks());
    obsQueueWait->sample(det.queueTicks);
    if (det.seekTicks)
        obsSeekHist->sample(det.seekTicks);
    if (det.cacheHitBytes)
        obsCacheHits->add(det.cacheHitBytes);
    if (req.write)
        obsBytesWritten->add(bytes);
    else
        obsBytesRead->add(bytes);
}

} // namespace howsim::disk

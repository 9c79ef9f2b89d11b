/**
 * @file
 * Seek-time model calibrated against published drive figures.
 *
 * The curve has the classical form
 *     seek(d) = a + b * sqrt(d) + c * d      (d = cylinder distance)
 * with coefficients fit so that seek(1) equals the track-to-track
 * time, seek(C-1) equals the full-stroke maximum, and the mean over
 * uniformly random cylinder pairs equals the published average seek —
 * the same three data points DiskSim configurations are calibrated
 * against when only a data sheet is available.
 */

#ifndef HOWSIM_DISK_SEEK_CURVE_HH
#define HOWSIM_DISK_SEEK_CURVE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "disk/disk_spec.hh"
#include "sim/ticks.hh"

namespace howsim::disk
{

class SeekCurve
{
  public:
    /**
     * Fit the curve for a drive with @p cylinders cylinders from the
     * spec's track-to-track, average and maximum seek times.
     */
    SeekCurve(const DiskSpec &spec, std::uint32_t cylinders);

    /**
     * The curve for @p spec and @p cylinders, shared with every other
     * caller holding one for the same seek figures (track-to-track,
     * average, maximum, write penalty) and cylinder count, so drives
     * of one spec keep a single table between them. Thread-safe.
     */
    static std::shared_ptr<const SeekCurve>
    shared(const DiskSpec &spec, std::uint32_t cylinders);

    /**
     * Seek time over @p distance cylinders, in ticks. Served from a
     * per-distance lookup table precomputed at construction — the
     * task suite issues millions of seeks per run, so the hot path
     * is one bounds-free array read instead of a sqrt and two
     * multiplies per request.
     */
    sim::Tick
    seekTicks(std::uint32_t distance, bool write = false) const
    {
        return write ? writeTicks[distance] : readTicks[distance];
    }

    /** Mean seek time over uniform random pairs, in milliseconds. */
    double meanSeekMs() const;

    /** @name Fitted coefficients (milliseconds), for tests. */
    /** @{ */
    double coefA() const { return a; }
    double coefB() const { return b; }
    double coefC() const { return c; }
    /** @} */

  private:
    double evalMs(std::uint32_t distance) const;

    std::uint32_t cyls;
    double a = 0, b = 0, c = 0;
    double writePenaltyMs;

    /**
     * seekTicks() per cylinder distance, indices [0, cyls). Entry 0
     * is 0 (no movement). The write table folds in the write-settle
     * penalty before tick rounding, exactly as the formula did.
     */
    std::vector<sim::Tick> readTicks;
    std::vector<sim::Tick> writeTicks;
};

} // namespace howsim::disk

#endif // HOWSIM_DISK_SEEK_CURVE_HH

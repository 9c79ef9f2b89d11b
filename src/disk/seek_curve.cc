#include "disk/seek_curve.hh"

#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>

#include "sim/logging.hh"

namespace howsim::disk
{

SeekCurve::SeekCurve(const DiskSpec &spec, std::uint32_t cylinders)
    : cyls(cylinders), writePenaltyMs(spec.writeSeekPenaltyMs)
{
    if (cylinders < 3)
        panic("SeekCurve needs at least 3 cylinders");
    const double t2t = spec.trackToTrackMs;
    const double avg = spec.avgSeekMs;
    const double max = spec.maxSeekMs;
    const double big = static_cast<double>(cylinders - 1);

    // Moments of the cylinder-distance distribution for uniformly
    // random pairs: P(d) = 2(C-d) / (C(C-1)), d in [1, C-1].
    const double c_d = static_cast<double>(cylinders);
    double e_d = 0, e_sqrt = 0;
    for (std::uint32_t d = 1; d < cylinders; ++d) {
        double p = 2.0 * (c_d - d) / (c_d * (c_d - 1.0));
        e_d += p * d;
        e_sqrt += p * std::sqrt(static_cast<double>(d));
    }

    // Solve seek(1)=t2t, seek(C-1)=max, E[seek]=avg for (a, b, c) in
    // seek(d) = a + b sqrt(d) + c d.
    // Substituting a = t2t - b - c leaves a 2x2 system.
    const double m11 = std::sqrt(big) - 1.0, m12 = big - 1.0;
    const double m21 = e_sqrt - 1.0, m22 = e_d - 1.0;
    const double r1 = max - t2t, r2 = avg - t2t;
    const double det = m11 * m22 - m12 * m21;
    if (std::abs(det) < 1e-12)
        panic("SeekCurve: singular calibration system");
    b = (r1 * m22 - r2 * m12) / det;
    c = (m11 * r2 - m21 * r1) / det;
    a = t2t - b - c;

    if (b < 0 || c < 0) {
        warn("SeekCurve for '%s': non-monotone fit (b=%f c=%f); "
             "check the spec's seek figures", spec.name.c_str(), b, c);
    }

    // Flatten the curve into per-distance tick tables. The math per
    // entry is identical to the on-demand formula (evaluate in ms,
    // add the write penalty, then round to ticks once), so tabulated
    // results are bit-identical to what interpolation produced.
    readTicks.resize(cylinders);
    writeTicks.resize(cylinders);
    readTicks[0] = 0;
    writeTicks[0] = 0;
    for (std::uint32_t d = 1; d < cylinders; ++d) {
        double ms = evalMs(d);
        readTicks[d] = sim::fromSeconds(ms * 1e-3);
        writeTicks[d] = sim::fromSeconds((ms + writePenaltyMs) * 1e-3);
    }
}

std::shared_ptr<const SeekCurve>
SeekCurve::shared(const DiskSpec &spec, std::uint32_t cylinders)
{
    // Keyed on the exact bits of everything the tables depend on.
    // Entries are weak, so a table lives only as long as its drives;
    // expired ones are swept on each miss.
    using Key = std::array<std::uint64_t, 5>;
    static std::mutex mutex;
    static std::map<Key, std::weak_ptr<const SeekCurve>> memo;
    const Key key{std::bit_cast<std::uint64_t>(spec.trackToTrackMs),
                  std::bit_cast<std::uint64_t>(spec.avgSeekMs),
                  std::bit_cast<std::uint64_t>(spec.maxSeekMs),
                  std::bit_cast<std::uint64_t>(spec.writeSeekPenaltyMs),
                  cylinders};
    std::lock_guard<std::mutex> lock(mutex);
    if (auto it = memo.find(key); it != memo.end()) {
        if (auto curve = it->second.lock())
            return curve;
    }
    std::erase_if(memo, [](const auto &entry) {
        return entry.second.expired();
    });
    auto curve = std::make_shared<const SeekCurve>(spec, cylinders);
    memo[key] = curve;
    return curve;
}

double
SeekCurve::evalMs(std::uint32_t distance) const
{
    if (distance == 0)
        return 0.0;
    return a + b * std::sqrt(static_cast<double>(distance))
           + c * static_cast<double>(distance);
}

double
SeekCurve::meanSeekMs() const
{
    const double c_d = static_cast<double>(cyls);
    double mean = 0;
    for (std::uint32_t d = 1; d < cyls; ++d) {
        double p = 2.0 * (c_d - d) / (c_d * (c_d - 1.0));
        mean += p * evalMs(d);
    }
    return mean;
}

} // namespace howsim::disk

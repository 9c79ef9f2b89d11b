/** @file Calibration and property tests for the seek-time model. */

#include <gtest/gtest.h>

#include "disk/disk_spec.hh"
#include "disk/seek_curve.hh"
#include "sim/ticks.hh"

using namespace howsim::disk;
using howsim::sim::toMilliseconds;

namespace howsim::disk
{

// Without a printer gtest dumps the spec's raw bytes, heap pointers
// included, into the test names ctest discovers, so the names would
// change from build to build. Print the make and model only.
void
PrintTo(const DiskSpec &spec, std::ostream *os)
{
    *os << spec.name.substr(0, spec.name.find(" ("));
}

} // namespace howsim::disk

class SeekCurveTest : public ::testing::TestWithParam<DiskSpec>
{
};

TEST_P(SeekCurveTest, ZeroDistanceIsFree)
{
    DiskSpec spec = GetParam();
    SeekCurve curve(spec, spec.totalCylinders());
    EXPECT_EQ(curve.seekTicks(0), 0u);
    EXPECT_EQ(curve.seekTicks(0, true), 0u);
}

TEST_P(SeekCurveTest, SingleCylinderMatchesTrackToTrack)
{
    DiskSpec spec = GetParam();
    SeekCurve curve(spec, spec.totalCylinders());
    EXPECT_NEAR(toMilliseconds(curve.seekTicks(1)),
                spec.trackToTrackMs, 0.01);
}

TEST_P(SeekCurveTest, FullStrokeMatchesMaxSeek)
{
    DiskSpec spec = GetParam();
    std::uint32_t cyls = spec.totalCylinders();
    SeekCurve curve(spec, cyls);
    EXPECT_NEAR(toMilliseconds(curve.seekTicks(cyls - 1)),
                spec.maxSeekMs, 0.05);
}

TEST_P(SeekCurveTest, MeanMatchesPublishedAverage)
{
    DiskSpec spec = GetParam();
    SeekCurve curve(spec, spec.totalCylinders());
    EXPECT_NEAR(curve.meanSeekMs(), spec.avgSeekMs, 0.05);
}

TEST_P(SeekCurveTest, MonotoneNondecreasing)
{
    DiskSpec spec = GetParam();
    std::uint32_t cyls = spec.totalCylinders();
    SeekCurve curve(spec, cyls);
    howsim::sim::Tick prev = 0;
    for (std::uint32_t d = 1; d < cyls; d += 37) {
        howsim::sim::Tick t = curve.seekTicks(d);
        EXPECT_GE(t, prev) << "at distance " << d;
        prev = t;
    }
}

TEST_P(SeekCurveTest, WritesSlowerThanReads)
{
    DiskSpec spec = GetParam();
    SeekCurve curve(spec, spec.totalCylinders());
    for (std::uint32_t d : {1u, 100u, 1000u}) {
        EXPECT_NEAR(toMilliseconds(curve.seekTicks(d, true))
                        - toMilliseconds(curve.seekTicks(d, false)),
                    spec.writeSeekPenaltyMs, 0.01);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Drives, SeekCurveTest,
    ::testing::Values(DiskSpec::seagateSt39102(),
                      DiskSpec::hitachiDk3e1t91()),
    [](const ::testing::TestParamInfo<DiskSpec> &info) {
        return info.index == 0 ? "Seagate" : "Hitachi";
    });

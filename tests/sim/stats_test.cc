/** @file Unit tests for statistics containers. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/stats.hh"

using namespace howsim::sim;

TEST(Breakdown, AccumulatesNamedBuckets)
{
    Breakdown b;
    b.add("seek", 1.5);
    b.add("seek", 0.5);
    b.add("rotate", 3.0);
    EXPECT_DOUBLE_EQ(b.get("seek"), 2.0);
    EXPECT_DOUBLE_EQ(b.get("rotate"), 3.0);
    EXPECT_DOUBLE_EQ(b.get("missing"), 0.0);
    EXPECT_DOUBLE_EQ(b.total(), 5.0);
}

TEST(Breakdown, MergeCombines)
{
    Breakdown a, b;
    a.add("x", 1.0);
    b.add("x", 2.0);
    b.add("y", 4.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 4.0);
}

TEST(Breakdown, ClearEmpties)
{
    Breakdown b;
    b.add("x", 1.0);
    b.clear();
    EXPECT_DOUBLE_EQ(b.total(), 0.0);
    EXPECT_TRUE(b.all().empty());
}

TEST(Breakdown, AllIteratesSortedByName)
{
    Breakdown b;
    b.add("p2.merge", 2.0);
    b.add("p1.sort", 1.0);
    std::vector<std::string> names;
    for (const auto &[name, v] : b.all())
        names.push_back(name);
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "p1.sort");
    EXPECT_EQ(names[1], "p2.merge");
}

TEST(Breakdown, MergeIntoEmptyCopies)
{
    Breakdown a, b;
    b.add("x", 2.5);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 2.5);
    // Merging must not disturb the source.
    EXPECT_DOUBLE_EQ(b.get("x"), 2.5);
}

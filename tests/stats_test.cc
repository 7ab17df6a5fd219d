/**
 * @file
 * Unit tests for the statistics primitives and table writers.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "stats/stats.hh"
#include "stats/table.hh"

namespace trt
{
namespace
{

TEST(Distribution, Empty)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 0.0);
}

TEST(Distribution, Accumulates)
{
    Distribution d;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.sum(), 10.0);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    EXPECT_DOUBLE_EQ(d.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 4.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
}

TEST(Ratio, Basics)
{
    Ratio r;
    EXPECT_DOUBLE_EQ(r.value(), 0.0);
    r.add(true);
    r.add(false);
    r.add(true);
    r.add(true);
    EXPECT_DOUBLE_EQ(r.value(), 0.75);
    EXPECT_EQ(r.num, 3u);
    EXPECT_EQ(r.den, 4u);
}

TEST(Geomean, Values)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Mean, Values)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Table, CellsAndAccess)
{
    Table t({"a", "b", "c"});
    t.row().cell("x").cell(1.5, 1).cell(uint64_t(7));
    t.row().cell("y").cell(2).cell("z");
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.columns(), 3u);
    EXPECT_EQ(t.at(0, 0), "x");
    EXPECT_EQ(t.at(0, 1), "1.5");
    EXPECT_EQ(t.at(0, 2), "7");
    EXPECT_EQ(t.at(1, 1), "2");
    EXPECT_THROW(t.at(5, 0), std::out_of_range);
}

TEST(Table, PrintAligned)
{
    Table t({"name", "v"});
    t.row().cell("long_scene_name").cell(uint64_t(1));
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("| name"), std::string::npos);
    EXPECT_NE(s.find("long_scene_name"), std::string::npos);
    EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, PrintCsv)
{
    Table t({"a", "b"});
    t.row().cell("1").cell("2");
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(FormatDouble, Precision)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
    EXPECT_EQ(formatDouble(-0.5, 1), "-0.5");
}

} // anonymous namespace
} // namespace trt

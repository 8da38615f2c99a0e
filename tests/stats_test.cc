/**
 * @file
 * Stats module tests: summaries, percentiles, CDFs, table rendering.
 */
#include <gtest/gtest.h>

#include "stats/ascii_chart.h"
#include "stats/summary.h"
#include "stats/table.h"

namespace sevf::stats {
namespace {

std::vector<sim::Duration>
ms(std::initializer_list<int> values)
{
    std::vector<sim::Duration> out;
    for (int v : values) {
        out.push_back(sim::Duration::millis(v));
    }
    return out;
}

TEST(Summary, BasicMoments)
{
    Summary s = summarize(ms({10, 20, 30, 40}));
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.mean_ms, 25.0);
    EXPECT_DOUBLE_EQ(s.min_ms, 10.0);
    EXPECT_DOUBLE_EQ(s.max_ms, 40.0);
    EXPECT_NEAR(s.stddev_ms, 11.18, 0.01);
}

TEST(Summary, EmptyIsZero)
{
    Summary s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.mean_ms, 0.0);
}

TEST(Percentile, InterpolatesBetweenOrderStats)
{
    std::vector<sim::Duration> samples = ms({10, 20, 30, 40, 50});
    EXPECT_DOUBLE_EQ(percentileMs(samples, 0), 10.0);
    EXPECT_DOUBLE_EQ(percentileMs(samples, 50), 30.0);
    EXPECT_DOUBLE_EQ(percentileMs(samples, 100), 50.0);
    EXPECT_DOUBLE_EQ(percentileMs(samples, 25), 20.0);
    EXPECT_DOUBLE_EQ(percentileMs(samples, 90), 46.0);
}

TEST(Cdf, MonotoneAndComplete)
{
    std::vector<CdfPoint> cdf = cdfOf(ms({30, 10, 20}));
    ASSERT_EQ(cdf.size(), 3u);
    EXPECT_DOUBLE_EQ(cdf[0].value_ms, 10.0);
    EXPECT_NEAR(cdf[0].fraction, 1.0 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(cdf[2].value_ms, 30.0);
    EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(TableTest, RendersAlignedColumns)
{
    Table t({"name", "time"});
    t.addRow({"lupine", "20.36ms"});
    t.addRow({"ubuntu-long-name", "32.96ms"});
    std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("ubuntu-long-name  32.96ms"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Formatters, Render)
{
    EXPECT_EQ(fmtMs(12.345), "12.35ms");
    EXPECT_EQ(fmtMs(12.345, 0), "12ms");
    EXPECT_EQ(fmtBytes(13.0 * 1024), "13.0K");
    EXPECT_EQ(fmtBytes(3.3 * 1024 * 1024), "3.3M");
    EXPECT_EQ(fmtBytes(304), "304B");
    EXPECT_EQ(fmtPercent(0.938), "93.8%");
}

TEST(AsciiChartTest, RendersSeriesAndAxes)
{
    AsciiChart chart(40, 8);
    chart.addSeries("up", '#', {{0, 0}, {10, 100}});
    chart.addSeries("flat", '.', {{0, 50}, {10, 50}});
    std::string out = chart.render("x-things", "y-things");
    EXPECT_NE(out.find('#'), std::string::npos);
    EXPECT_NE(out.find('.'), std::string::npos);
    EXPECT_NE(out.find("x: x-things"), std::string::npos);
    EXPECT_NE(out.find("# = up"), std::string::npos);
    EXPECT_NE(out.find(". = flat"), std::string::npos);
    // y-axis labels include the data extremes.
    EXPECT_NE(out.find("100"), std::string::npos);
    EXPECT_NE(out.find("0 |"), std::string::npos);
}

TEST(AsciiChartTest, FixedBoundsClipOutOfRangePoints)
{
    AsciiChart chart(20, 5);
    chart.setXBounds(0, 10);
    chart.setYBounds(0, 10);
    chart.addSeries("s", '*', {{5, 5}, {50, 50}}); // second point clipped
    std::string out = chart.render("x", "y");
    EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiChartTest, MonotoneSeriesRendersMonotone)
{
    // The '#' in each row must move right as rows go down->up.
    AsciiChart chart(30, 6);
    chart.addSeries("line", '#',
                    {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}});
    std::string out = chart.render("x", "y");
    std::vector<int> first_col;
    std::size_t pos = 0;
    while ((pos = out.find('\n', pos)) != std::string::npos) {
        ++pos;
        std::size_t end = out.find('\n', pos);
        if (end == std::string::npos) {
            break;
        }
        std::string line = out.substr(pos, end - pos);
        std::size_t hash = line.find('#');
        if (hash != std::string::npos) {
            first_col.push_back(static_cast<int>(hash));
        }
    }
    for (std::size_t i = 1; i < first_col.size(); ++i) {
        EXPECT_LE(first_col[i], first_col[i - 1])
            << "rows lower on screen hold smaller y => smaller x";
    }
}

} // namespace
} // namespace sevf::stats

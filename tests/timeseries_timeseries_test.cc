/**
 * @file
 * Unit tests for the hourly TimeSeries.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/error.h"
#include "timeseries/timeseries.h"

namespace carbonx
{
namespace
{

TEST(TimeSeries, ZeroFilledConstruction)
{
    const TimeSeries ts(2020);
    EXPECT_EQ(ts.size(), 8784u);
    EXPECT_DOUBLE_EQ(ts.total(), 0.0);
}

TEST(TimeSeries, ConstantFill)
{
    const TimeSeries ts(2021, 3.0);
    EXPECT_EQ(ts.size(), 8760u);
    EXPECT_DOUBLE_EQ(ts.mean(), 3.0);
    EXPECT_DOUBLE_EQ(ts.total(), 3.0 * 8760.0);
}

TEST(TimeSeries, VectorConstructionValidatesLength)
{
    std::vector<double> wrong(100, 1.0);
    EXPECT_THROW(TimeSeries(2020, std::move(wrong)), UserError);
}

TEST(TimeSeries, ElementAccess)
{
    TimeSeries ts(2021);
    ts[5] = 2.5;
    ts.set(6, 3.5);
    EXPECT_DOUBLE_EQ(ts[5], 2.5);
    EXPECT_DOUBLE_EQ(ts.at(6), 3.5);
    EXPECT_THROW(ts.at(8760), UserError);
    EXPECT_THROW(ts.set(8760, 0.0), UserError);
}

TEST(TimeSeries, Arithmetic)
{
    TimeSeries a(2021, 2.0);
    TimeSeries b(2021, 3.0);
    EXPECT_DOUBLE_EQ((a + b)[0], 5.0);
    EXPECT_DOUBLE_EQ((b - a)[0], 1.0);
    EXPECT_DOUBLE_EQ((a * 4.0)[0], 8.0);
    a += b;
    EXPECT_DOUBLE_EQ(a[0], 5.0);
    a -= b;
    EXPECT_DOUBLE_EQ(a[0], 2.0);
    a *= 0.5;
    EXPECT_DOUBLE_EQ(a[0], 1.0);
}

TEST(TimeSeries, ArithmeticRejectsYearMismatch)
{
    TimeSeries a(2020);
    TimeSeries b(2021);
    EXPECT_THROW(a + b, UserError);
    EXPECT_THROW(a - b, UserError);
    EXPECT_THROW(a += b, UserError);
}

TEST(TimeSeries, MapAppliesFunction)
{
    TimeSeries ts(2021, 2.0);
    const TimeSeries sq = ts.map([](double v) { return v * v; });
    EXPECT_DOUBLE_EQ(sq[0], 4.0);
    EXPECT_DOUBLE_EQ(sq.total(), 4.0 * 8760.0);
}

TEST(TimeSeries, MinMaxSummary)
{
    TimeSeries ts(2021, 1.0);
    ts[100] = -3.0;
    ts[200] = 9.0;
    EXPECT_DOUBLE_EQ(ts.min(), -3.0);
    EXPECT_DOUBLE_EQ(ts.max(), 9.0);
    const SummaryStats s = ts.summary();
    EXPECT_EQ(s.count(), 8760u);
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(TimeSeries, ScaledToMax)
{
    TimeSeries ts(2021);
    ts[0] = 2.0;
    ts[1] = 4.0;
    const TimeSeries scaled = ts.scaledToMax(100.0);
    EXPECT_DOUBLE_EQ(scaled[0], 50.0);
    EXPECT_DOUBLE_EQ(scaled[1], 100.0);
    EXPECT_DOUBLE_EQ(scaled.max(), 100.0);
}

TEST(TimeSeries, ScaledToMaxOfZeroSeriesThrows)
{
    // No scale can stretch an all-zero series to a positive maximum;
    // returning zeros silently used to hide dead input columns.
    const TimeSeries zero(2021);
    EXPECT_THROW(zero.scaledToMax(100.0), UserError);
    // Target zero stays well-defined.
    EXPECT_DOUBLE_EQ(zero.scaledToMax(0.0).total(), 0.0);
}

TEST(TimeSeries, PerUnitShapeToleratesAbsentResource)
{
    const TimeSeries zero(2021);
    EXPECT_DOUBLE_EQ(perUnitShape(zero).total(), 0.0);

    TimeSeries ts(2021);
    ts[0] = 4.0;
    ts[1] = 2.0;
    const TimeSeries shape = perUnitShape(ts);
    EXPECT_DOUBLE_EQ(shape[0], 1.0);
    EXPECT_DOUBLE_EQ(shape[1], 0.5);
}

TEST(TimeSeries, ScaledToMean)
{
    TimeSeries ts(2021, 2.0);
    const TimeSeries scaled = ts.scaledToMean(10.0);
    EXPECT_NEAR(scaled.mean(), 10.0, 1e-9);
}

TEST(TimeSeries, DailySums)
{
    TimeSeries ts(2021, 1.0);
    const std::vector<double> sums = ts.dailySums();
    ASSERT_EQ(sums.size(), 365u);
    for (double s : sums)
        EXPECT_DOUBLE_EQ(s, 24.0);
}

TEST(TimeSeries, DailyMeans)
{
    TimeSeries ts(2021, 2.0);
    const std::vector<double> means = ts.dailyMeans();
    EXPECT_DOUBLE_EQ(means.front(), 2.0);
    EXPECT_DOUBLE_EQ(means.back(), 2.0);
}

TEST(TimeSeries, AverageDayProfileOfPureDiurnalSignal)
{
    TimeSeries ts(2021);
    for (size_t h = 0; h < ts.size(); ++h) {
        ts[h] = std::sin(2.0 * std::numbers::pi *
                         static_cast<double>(h % 24) / 24.0);
    }
    const auto profile = ts.averageDayProfile();
    for (int hour = 0; hour < 24; ++hour) {
        EXPECT_NEAR(profile[static_cast<size_t>(hour)],
                    std::sin(2.0 * std::numbers::pi * hour / 24.0), 1e-9);
    }
}

TEST(TimeSeries, WindowExtraction)
{
    TimeSeries ts(2021);
    ts[10] = 1.0;
    ts[11] = 2.0;
    const std::vector<double> w = ts.window(10, 2);
    ASSERT_EQ(w.size(), 2u);
    EXPECT_DOUBLE_EQ(w[0], 1.0);
    EXPECT_DOUBLE_EQ(w[1], 2.0);
    EXPECT_THROW(ts.window(8759, 2), UserError);
}

TEST(TimeSeries, LeapYearHasLeapHours)
{
    EXPECT_EQ(TimeSeries(2020).size(), 8784u);
    EXPECT_EQ(TimeSeries(2024).size(), 8784u);
    EXPECT_EQ(TimeSeries(2023).size(), 8760u);
}

} // namespace
} // namespace carbonx

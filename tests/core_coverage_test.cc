/**
 * @file
 * Tests of the renewable-coverage metric (section 4.1).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "common/units.h"
#include "core/coverage.h"

namespace carbonx
{
namespace
{

using namespace literals;

constexpr int kYear = 2021;

/** Solar-like unit shape: 1.0 from hours 8-17, zero otherwise. */
TimeSeries
solarShape()
{
    TimeSeries ts(kYear);
    for (size_t h = 0; h < ts.size(); ++h) {
        const size_t hour = h % 24;
        if (hour >= 8 && hour < 18)
            ts[h] = 1.0;
    }
    return ts;
}

/** Wind-like unit shape: 0.5 everywhere, near-calm every 4th day. */
TimeSeries
windShape()
{
    TimeSeries ts(kYear, 0.5);
    for (size_t h = 0; h < ts.size(); ++h) {
        if ((h / 24) % 4 == 3)
            ts[h] = 0.05;
        if (h % 24 == 0)
            ts[h] = 1.0; // Midnight gusts define the max.
    }
    return ts;
}

CoverageAnalyzer
analyzer()
{
    return CoverageAnalyzer(TimeSeries(kYear, 10.0), solarShape(),
                            windShape());
}

TEST(Coverage, ZeroInvestmentZeroCoverage)
{
    EXPECT_NEAR(analyzer().coverage(0.0_MW, 0.0_MW), 0.0, 1e-9);
}

TEST(Coverage, SolarOnlyCapsNearDaylightFraction)
{
    // 10 daylight hours of 24: even infinite solar -> ~41.7%.
    const CoverageAnalyzer cov = analyzer();
    EXPECT_NEAR(cov.coverage(MegaWatts(1e6), 0.0_MW), 100.0 * 10.0 / 24.0, 1e-6);
    // And it saturates: 10x more buys nothing.
    EXPECT_NEAR(cov.coverage(MegaWatts(1e7), 0.0_MW), cov.coverage(MegaWatts(1e6), 0.0_MW), 1e-9);
}

TEST(Coverage, ExactSupplyGivesExactCoverage)
{
    // 20 MW of solar shape covers the 10 MW load for 10 of 24 hours.
    const double c = analyzer().coverage(20.0_MW, 0.0_MW);
    EXPECT_NEAR(c, 100.0 * 10.0 / 24.0, 1e-9);
}

TEST(Coverage, MonotoneInInvestment)
{
    const CoverageAnalyzer cov = analyzer();
    double prev = -1.0;
    for (double mw : {0.0, 5.0, 10.0, 20.0, 40.0, 80.0}) {
        const double c = cov.coverage(MegaWatts(mw), MegaWatts(mw));
        EXPECT_GE(c, prev - 1e-9);
        prev = c;
    }
}

TEST(Coverage, SupplyForIsLinearCombination)
{
    const CoverageAnalyzer cov = analyzer();
    const TimeSeries supply = cov.supplyFor(10.0_MW, 20.0_MW);
    for (size_t h = 0; h < supply.size(); h += 177) {
        EXPECT_NEAR(supply[h],
                    10.0 * solarShape()[h] + 20.0 * windShape()[h],
                    1e-12);
    }
}

TEST(Coverage, MixBeatsSingleSourceForSameCapacity)
{
    // Complementarity: solar covers days, wind covers nights.
    const CoverageAnalyzer cov = analyzer();
    const double mixed = cov.coverage(20.0_MW, 20.0_MW);
    const double solar_only = cov.coverage(40.0_MW, 0.0_MW);
    EXPECT_GT(mixed, solar_only);
}

TEST(Coverage, AverageDayAssumptionIsOptimistic)
{
    // Fig. 8: with every day averaged, the calm every-4th-day wind
    // valleys vanish and coverage looks better.
    const CoverageAnalyzer cov = analyzer();
    const double real = cov.coverage(0.0_MW, 25.0_MW);
    const double avg = cov.coverageAssumingAverageDay(0.0_MW, 25.0_MW);
    EXPECT_GT(avg, real);
}

TEST(Coverage, AverageDayCoverageEqualsTheExpandedYear)
{
    // The analyzer keeps only the 24-hour average days; its answer
    // must be bit-identical to the same sum over a full year in which
    // every day is the average day.
    TimeSeries dc(kYear);
    for (size_t h = 0; h < dc.size(); ++h)
        dc[h] = 8.0 + static_cast<double>((h * 7) % 13) / 3.0;
    const CoverageAnalyzer cov(dc, solarShape(), windShape());
    const auto dc_avg = dc.averageDayProfile();
    const auto solar_avg = solarShape().averageDayProfile();
    const auto wind_avg = windShape().averageDayProfile();
    for (const double solar : {0.0, 7.5, 30.0}) {
        for (const double wind : {0.0, 12.25, 40.0}) {
            double unmet = 0.0;
            for (size_t h = 0; h < dc.size(); ++h) {
                const double supply =
                    solar_avg[h % 24] * solar + wind_avg[h % 24] * wind;
                unmet += std::max(dc_avg[h % 24] - supply, 0.0);
            }
            EXPECT_EQ(cov.coverageAssumingAverageDay(MegaWatts(solar),
                                                     MegaWatts(wind)),
                      (1.0 - unmet / dc.total()) * 100.0)
                << "solar " << solar << ", wind " << wind;
        }
    }
}

TEST(Coverage, InvestmentScaleForCoverageBisection)
{
    const CoverageAnalyzer cov = analyzer();
    const double k = cov.investmentScaleForCoverage(1.0_MW, 1.0_MW, 50.0);
    ASSERT_GT(k, 0.0);
    EXPECT_NEAR(cov.coverage(MegaWatts(k), MegaWatts(k)), 50.0, 0.1);
    // A slightly smaller scale is below target.
    EXPECT_LT(cov.coverage(MegaWatts(0.95 * k), MegaWatts(0.95 * k)), 50.0);
}

TEST(Coverage, UnreachableTargetReturnsNegative)
{
    // Solar alone cannot reach 90%.
    const CoverageAnalyzer cov = analyzer();
    EXPECT_LT(cov.investmentScaleForCoverage(1.0_MW, 0.0_MW, 90.0), 0.0);
}

TEST(Coverage, LongTailRequiresDisproportionateInvestment)
{
    // The paper's headline: pushing the last few points of coverage
    // costs multiples of everything before. With the calm-day wind
    // shape, 99% needs far more than ~2x the 75% investment.
    const CoverageAnalyzer cov = analyzer();
    const double k75 = cov.investmentScaleForCoverage(1.0_MW, 1.0_MW, 75.0);
    const double k99 = cov.investmentScaleForCoverage(1.0_MW, 1.0_MW, 99.0,
                                                      1e6);
    ASSERT_GT(k75, 0.0);
    ASSERT_GT(k99, 0.0);
    EXPECT_GT(k99 / k75, 3.0);
}

TEST(Coverage, RejectsInvalidInputs)
{
    const CoverageAnalyzer cov = analyzer();
    EXPECT_THROW(cov.coverage(MegaWatts(-1.0), 0.0_MW), UserError);
    EXPECT_THROW(cov.supplyFor(0.0_MW, MegaWatts(-1.0)), UserError);
    EXPECT_THROW(cov.investmentScaleForCoverage(0.0_MW, 0.0_MW, 50.0),
                 UserError);
    EXPECT_THROW(cov.investmentScaleForCoverage(1.0_MW, 1.0_MW, 0.0),
                 UserError);
    // Shapes must be per-unit.
    TimeSeries bad(kYear, 2.0);
    EXPECT_THROW(CoverageAnalyzer(TimeSeries(kYear, 10.0), bad,
                                  windShape()),
                 UserError);
    // Zero demand is rejected.
    EXPECT_THROW(CoverageAnalyzer(TimeSeries(kYear), solarShape(),
                                  windShape()),
                 UserError);
}

} // namespace
} // namespace carbonx

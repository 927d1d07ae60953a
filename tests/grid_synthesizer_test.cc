/**
 * @file
 * Integration-level tests of the grid synthesizer: demand shape,
 * dispatch balance, curtailment accounting, and carbon intensity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/stats.h"
#include "grid/balancing_authority.h"
#include "grid/grid_synthesizer.h"

namespace carbonx
{
namespace
{

const BalancingAuthorityProfile &
profile(const std::string &code)
{
    return BalancingAuthorityRegistry::instance().lookup(code);
}

TEST(GridSynthesizer, DemandRespectsConfiguredBounds)
{
    const GridSynthesizer synth(profile("PACE"), 1);
    const TimeSeries demand = synth.synthesizeDemand(2020);
    const auto &params = profile("PACE").demand;
    // Mean demand lives between the configured bounds; extremes stay
    // within a modest margin of them.
    EXPECT_GT(demand.mean(), params.min_mw);
    EXPECT_LT(demand.mean(), params.peak_mw);
    EXPECT_GT(demand.min(), 0.5 * params.min_mw);
    EXPECT_LT(demand.max(), 1.3 * params.peak_mw);
}

TEST(GridSynthesizer, DemandHasDiurnalPattern)
{
    const GridSynthesizer synth(profile("ERCO"), 1);
    const TimeSeries demand = synth.synthesizeDemand(2020);
    const auto profile_day = demand.averageDayProfile();
    // Evening peak (hour 18) above pre-dawn trough (hour 5).
    EXPECT_GT(profile_day[18], profile_day[5]);
}

TEST(GridSynthesizer, SummerPeakingGridPeaksInSummer)
{
    const GridSynthesizer synth(profile("ERCO"), 1);
    const TimeSeries demand = synth.synthesizeDemand(2020);
    const auto daily = demand.dailyMeans();
    // Mean July demand above mean January demand.
    double july = 0.0;
    double january = 0.0;
    for (size_t d = 0; d < 31; ++d) {
        january += daily[d];
        july += daily[d + 182];
    }
    EXPECT_GT(july, january);
}

TEST(GridSynthesizer, DispatchBalancesDemandEveryHour)
{
    const GridSynthesizer synth(profile("PACE"), 7);
    const GridTrace trace = synth.synthesize(2020);
    const TimeSeries total = trace.mix.totalGeneration();
    for (size_t h = 0; h < total.size(); h += 53)
        EXPECT_NEAR(total[h], trace.demand[h], 1e-6) << "hour " << h;
}

TEST(GridSynthesizer, PotentialEqualsAbsorbedPlusCurtailed)
{
    const GridSynthesizer synth(profile("ERCO"), 7);
    const GridTrace trace = synth.synthesize(2020);
    for (size_t h = 0; h < trace.demand.size(); h += 53) {
        const double potential =
            trace.wind_potential[h] + trace.solar_potential[h];
        const double absorbed = trace.wind[h] + trace.solar[h];
        EXPECT_NEAR(potential, absorbed + trace.curtailed[h], 1e-6);
    }
}

TEST(GridSynthesizer, GenerationIsNonNegative)
{
    const GridSynthesizer synth(profile("MISO"), 7);
    const GridTrace trace = synth.synthesize(2020);
    for (Fuel f : kAllFuels)
        EXPECT_GE(trace.mix.of(f).min(), 0.0) << fuelName(f);
    EXPECT_GE(trace.curtailed.min(), 0.0);
}

TEST(GridSynthesizer, SolarOnlyRegionHasNoWind)
{
    const GridSynthesizer synth(profile("DUK"), 7);
    const GridTrace trace = synth.synthesize(2020);
    EXPECT_DOUBLE_EQ(trace.wind_potential.total(), 0.0);
    EXPECT_GT(trace.solar_potential.total(), 0.0);
}

TEST(GridSynthesizer, IntensityWithinFuelBounds)
{
    const GridSynthesizer synth(profile("SWPP"), 7);
    const GridTrace trace = synth.synthesize(2020);
    EXPECT_GE(trace.intensity.min(), 11.0);
    EXPECT_LE(trace.intensity.max(), 820.0);
}

TEST(GridSynthesizer, IntensityDropsWhenRenewablesBlow)
{
    // Correlation between renewable output and intensity is negative.
    const GridSynthesizer synth(profile("SWPP"), 7);
    const GridTrace trace = synth.synthesize(2020);
    const TimeSeries ren = trace.renewable();
    std::vector<double> x(ren.values().begin(), ren.values().end());
    std::vector<double> y(trace.intensity.values().begin(),
                          trace.intensity.values().end());
    EXPECT_LT(pearsonCorrelation(x, y), -0.5);
}

TEST(GridSynthesizer, ScalingRenewablesIncreasesCurtailment)
{
    const GridSynthesizer synth(profile("ERCO"), 7);
    // Curtailed share of the renewable potential.
    const auto curtailedShare = [](const GridTrace &t) {
        const double lost = t.curtailed.total();
        return lost / (t.wind.total() + t.solar.total() + lost);
    };
    const GridTrace base = synth.synthesize(2020, 1.0);
    const GridTrace grown = synth.synthesize(2020, 3.0);
    EXPECT_GT(curtailedShare(grown), curtailedShare(base));
}

TEST(GridSynthesizer, SameSeedReproduces)
{
    const GridSynthesizer a(profile("PACE"), 42);
    const GridSynthesizer b(profile("PACE"), 42);
    const GridTrace ta = a.synthesize(2020);
    const GridTrace tb = b.synthesize(2020);
    for (size_t h = 0; h < ta.demand.size(); h += 201) {
        EXPECT_DOUBLE_EQ(ta.demand[h], tb.demand[h]);
        EXPECT_DOUBLE_EQ(ta.wind[h], tb.wind[h]);
        EXPECT_DOUBLE_EQ(ta.intensity[h], tb.intensity[h]);
    }
}

TEST(GridSynthesizer, DifferentRegionsDiffer)
{
    const GridTrace a = GridSynthesizer(profile("PACE"), 42)
        .synthesize(2020);
    const GridTrace b = GridSynthesizer(profile("ERCO"), 42)
        .synthesize(2020);
    EXPECT_NE(a.demand.total(), b.demand.total());
}

TEST(GridSynthesizer, RejectsNegativeScale)
{
    const GridSynthesizer synth(profile("PACE"), 7);
    EXPECT_THROW(synth.synthesize(2020, -1.0), UserError);
}

class RegionDispatchSweep
    : public testing::TestWithParam<const char *>
{
};

TEST_P(RegionDispatchSweep, EveryRegionBalancesAndStaysPhysical)
{
    const GridSynthesizer synth(profile(GetParam()), 11);
    const GridTrace trace = synth.synthesize(2020);
    const TimeSeries total = trace.mix.totalGeneration();
    double max_err = 0.0;
    for (size_t h = 0; h < total.size(); ++h)
        max_err = std::max(max_err,
                           std::abs(total[h] - trace.demand[h]));
    EXPECT_LT(max_err, 1e-6);
    EXPECT_GE(trace.intensity.min(), 0.0);
    EXPECT_GE(trace.curtailed.min(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllRegions, RegionDispatchSweep,
                         testing::Values("SWPP", "BPAT", "PACE", "PNM",
                                         "ERCO", "PJM", "DUK", "MISO",
                                         "SOCO", "TVA"));

} // namespace
} // namespace carbonx

/**
 * @file
 * Tests of the parameter sensitivity analysis and the refined
 * optimizer.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/sensitivity.h"

namespace carbonx
{
namespace
{

ExplorerConfig
baseConfig()
{
    ExplorerConfig cfg;
    cfg.ba_code = "PACE";
    cfg.avg_dc_power_mw = MegaWatts(19.0);
    return cfg;
}

DesignSpace
smallSpace()
{
    return DesignSpace::forDatacenter(19.0, 6.0, 4, 3, 2);
}

TEST(Sensitivity, PaperRangesCoverTheHeadlineParameters)
{
    const auto params = SensitivityAnalysis::paperRanges();
    ASSERT_EQ(params.size(), 5u);
    for (const auto &p : params) {
        EXPECT_LT(p.low, p.high) << p.name;
        EXPECT_TRUE(static_cast<bool>(p.apply)) << p.name;
    }
}

TEST(Sensitivity, BatteryFootprintShiftsTheOptimum)
{
    const SensitivityAnalysis analysis(
        baseConfig(), smallSpace(), Strategy::RenewableBattery);
    const auto params = SensitivityAnalysis::paperRanges();
    // params[2] is the battery embodied range (74-134 kg/kWh).
    const SensitivityRow row = analysis.run(params[2]);
    EXPECT_EQ(row.parameter, "battery embodied (kg/kWh)");
    // Cheaper batteries can only make the optimum (weakly) better.
    EXPECT_LE(row.best_low.totalKg().value(),
              row.best_high.totalKg().value() + 1e-6);
}

TEST(Sensitivity, SolarFootprintMattersInASolarRegion)
{
    ExplorerConfig cfg = baseConfig();
    cfg.ba_code = "DUK"; // Solar-only region.
    cfg.avg_dc_power_mw = MegaWatts(51.0);
    const SensitivityAnalysis analysis(
        cfg, DesignSpace::forDatacenter(51.0, 6.0, 4, 3, 2),
        Strategy::RenewableBattery);
    const auto params = SensitivityAnalysis::paperRanges();
    const SensitivityRow solar = analysis.run(params[0]);
    EXPECT_GT(solar.totalSwingFraction(), 0.0);
    EXPECT_LE(solar.best_low.totalKg().value(),
              solar.best_high.totalKg().value() + 1e-6);
}

TEST(Sensitivity, RunAllProducesOneRowPerParameter)
{
    const SensitivityAnalysis analysis(
        baseConfig(), smallSpace(), Strategy::RenewableBatteryCas);
    const auto params = SensitivityAnalysis::paperRanges();
    const auto rows = analysis.runAll(params);
    ASSERT_EQ(rows.size(), params.size());
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].parameter, params[i].name);
}

TEST(Sensitivity, RejectsEmptyApply)
{
    const SensitivityAnalysis analysis(
        baseConfig(), smallSpace(), Strategy::RenewablesOnly);
    SensitivityParameter bad;
    bad.name = "broken";
    bad.low = 0.0;
    bad.high = 1.0;
    EXPECT_THROW(analysis.run(bad), UserError);
}

TEST(RefinedOptimizer, NeverWorseThanCoarseSearch)
{
    const CarbonExplorer explorer(baseConfig());
    const DesignSpace space = smallSpace();
    for (Strategy s :
         {Strategy::RenewablesOnly, Strategy::RenewableBattery}) {
        const double coarse =
            explorer.optimize(space, s).best.totalKg().value();
        const double refined =
            explorer.optimize(space, s, 2).best.totalKg().value();
        EXPECT_LE(refined, coarse + 1e-9) << strategyName(s);
    }
}

TEST(RefinedOptimizer, ZeroRoundsEqualsCoarse)
{
    const CarbonExplorer explorer(baseConfig());
    const DesignSpace space = smallSpace();
    const double coarse =
        explorer.optimize(space, Strategy::RenewableBattery)
            .best.totalKg()
            .value();
    const double zero = explorer
        .optimize(space, Strategy::RenewableBattery, 0)
        .best.totalKg()
        .value();
    EXPECT_DOUBLE_EQ(coarse, zero);
}

TEST(RefinedOptimizer, StaysWithinOriginalBounds)
{
    const CarbonExplorer explorer(baseConfig());
    const DesignSpace space = smallSpace();
    const OptimizationResult result = explorer.optimize(
        space, Strategy::RenewableBatteryCas, 3);
    for (const auto &e : result.evaluated) {
        EXPECT_GE(e.point.solar_mw.value(), space.solar_mw.min - 1e-9);
        EXPECT_LE(e.point.solar_mw.value(), space.solar_mw.max + 1e-9);
        EXPECT_GE(e.point.battery_mwh.value(),
                  space.battery_mwh.min - 1e-9);
        EXPECT_LE(e.point.battery_mwh.value(),
                  space.battery_mwh.max + 1e-9);
        EXPECT_GE(e.point.extra_capacity.value(),
                  space.extra_capacity.min - 1e-9);
        EXPECT_LE(e.point.extra_capacity.value(),
                  space.extra_capacity.max + 1e-9);
    }
    EXPECT_THROW(
        explorer.optimize(space, Strategy::RenewablesOnly, -1),
        UserError);
}

TEST(Attribution, WholeFarmChargesMoreEmbodiedThanConsumed)
{
    ExplorerConfig consumed = baseConfig();
    consumed.attribution = RenewableAttribution::ConsumedEnergy;
    ExplorerConfig whole = baseConfig();
    whole.attribution = RenewableAttribution::WholeFarm;

    // A heavily oversized farm: most generation is surplus.
    const DesignPoint big{MegaWatts(300.0), MegaWatts(300.0),
                          MegaWattHours(0.0), Fraction(0.0)};
    const Evaluation e_consumed = CarbonExplorer(consumed)
        .evaluate(big, Strategy::RenewablesOnly);
    const Evaluation e_whole = CarbonExplorer(whole)
        .evaluate(big, Strategy::RenewablesOnly);
    EXPECT_GT(e_whole.embodiedKg().value(),
              2.0 * e_consumed.embodiedKg().value());
    // Operational carbon is identical: attribution only moves
    // embodied accounting.
    EXPECT_NEAR(e_whole.operational_kg.value(), e_consumed.operational_kg.value(),
                1e-6);
}

TEST(Attribution, ConsumedEnergyRaisesOptimalCoverage)
{
    // The paper-matching attribution makes oversizing cheap, so the
    // optimizer pushes coverage higher than under whole-farm
    // accounting.
    ExplorerConfig consumed = baseConfig();
    consumed.attribution = RenewableAttribution::ConsumedEnergy;
    ExplorerConfig whole = baseConfig();
    whole.attribution = RenewableAttribution::WholeFarm;
    const DesignSpace space = smallSpace();

    const double cov_consumed = CarbonExplorer(consumed)
        .optimize(space, Strategy::RenewableBattery)
        .best.coverage_pct;
    const double cov_whole = CarbonExplorer(whole)
        .optimize(space, Strategy::RenewableBattery)
        .best.coverage_pct;
    EXPECT_GE(cov_consumed, cov_whole - 1e-6);
}

} // namespace
} // namespace carbonx

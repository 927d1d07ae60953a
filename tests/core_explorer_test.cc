/**
 * @file
 * Integration tests of the CarbonExplorer facade: end-to-end runs
 * asserting the paper's qualitative findings.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/explorer.h"

namespace carbonx
{
namespace
{

ExplorerConfig
utahConfig()
{
    ExplorerConfig cfg;
    cfg.ba_code = "PACE";
    cfg.avg_dc_power_mw = MegaWatts(19.0);
    return cfg;
}

const CarbonExplorer &
utahExplorer()
{
    static const CarbonExplorer explorer(utahConfig());
    return explorer;
}

TEST(Explorer, ZeroDesignHasNoEmbodiedAndFullGridOperation)
{
    const Evaluation e = utahExplorer().evaluate(
        DesignPoint{}, Strategy::RenewablesOnly);
    EXPECT_NEAR(e.coverage_pct, 0.0, 1e-6);
    EXPECT_DOUBLE_EQ(e.embodiedKg().value(), 0.0);
    EXPECT_GT(e.operational_kg.value(), 0.0);
}

TEST(Explorer, RenewablesReduceOperationalRaiseEmbodied)
{
    const CarbonExplorer &ex = utahExplorer();
    const Evaluation zero =
        ex.evaluate(DesignPoint{}, Strategy::RenewablesOnly);
    const Evaluation invested = ex.evaluate(
        DesignPoint{MegaWatts(100.0), MegaWatts(50.0), MegaWattHours(0.0), Fraction(0.0)}, Strategy::RenewablesOnly);
    EXPECT_LT(invested.operational_kg.value(), zero.operational_kg.value());
    EXPECT_GT(invested.embodiedKg().value(), 0.0);
    EXPECT_GT(invested.coverage_pct, 50.0);
}

TEST(Explorer, BatteryImprovesCoverage)
{
    const CarbonExplorer &ex = utahExplorer();
    const DesignPoint ren{MegaWatts(100.0), MegaWatts(50.0),
                          MegaWattHours(0.0), Fraction(0.0)};
    const DesignPoint with_batt{MegaWatts(100.0), MegaWatts(50.0),
                                MegaWattHours(200.0), Fraction(0.0)};
    const double cov_ren =
        ex.evaluate(ren, Strategy::RenewablesOnly).coverage_pct;
    const double cov_batt =
        ex.evaluate(with_batt, Strategy::RenewableBattery).coverage_pct;
    EXPECT_GT(cov_batt, cov_ren + 1.0);
}

TEST(Explorer, CasImprovesCoverage)
{
    const CarbonExplorer &ex = utahExplorer();
    const DesignPoint p{MegaWatts(100.0), MegaWatts(50.0),
                        MegaWattHours(0.0), Fraction(0.4)};
    const double cov_ren =
        ex.evaluate(p, Strategy::RenewablesOnly).coverage_pct;
    const double cov_cas =
        ex.evaluate(p, Strategy::RenewableCas).coverage_pct;
    EXPECT_GT(cov_cas, cov_ren);
    // Extra servers show up as embodied carbon.
    EXPECT_GT(ex.evaluate(p, Strategy::RenewableCas).embodied_server_kg.value(),
              0.0);
}

TEST(Explorer, BatteryOnlyCountedForBatteryStrategies)
{
    const CarbonExplorer &ex = utahExplorer();
    const DesignPoint p{MegaWatts(100.0), MegaWatts(50.0),
                        MegaWattHours(300.0), Fraction(0.5)};
    const Evaluation ren =
        ex.evaluate(p, Strategy::RenewablesOnly);
    EXPECT_DOUBLE_EQ(ren.embodied_battery_kg.value(), 0.0);
    EXPECT_DOUBLE_EQ(ren.embodied_server_kg.value(), 0.0);
    const Evaluation batt =
        ex.evaluate(p, Strategy::RenewableBattery);
    EXPECT_GT(batt.embodied_battery_kg.value(), 0.0);
    EXPECT_DOUBLE_EQ(batt.embodied_server_kg.value(), 0.0);
}

TEST(Explorer, SimulateExposesHourlyDetail)
{
    const CarbonExplorer &ex = utahExplorer();
    const SimulationResult sim = ex.simulate(
        DesignPoint{MegaWatts(100.0), MegaWatts(50.0), MegaWattHours(100.0), Fraction(0.0)},
        Strategy::RenewableBattery);
    EXPECT_EQ(sim.served_power.size(), 8784u);
    EXPECT_GT(sim.battery_cycles, 0.0);
    EXPECT_GE(sim.battery_soc.min(), -1e-9);
}

TEST(Explorer, OptimizeFindsMinimumTotal)
{
    const CarbonExplorer &ex = utahExplorer();
    DesignSpace space = DesignSpace::forDatacenter(19.0, 6.0, 4, 3, 2);
    const OptimizationResult result =
        ex.optimize(space, Strategy::RenewableBattery);
    EXPECT_EQ(result.evaluated.size(),
              space.sizeFor(Strategy::RenewableBattery));
    for (const auto &e : result.evaluated)
        EXPECT_GE(e.totalKg().value(),
                  result.best.totalKg().value() - 1e-9);
    // Doing nothing is never carbon-optimal in a dirty-grid region.
    EXPECT_GT(result.best.point.renewableMw().value(), 0.0);
}

TEST(Explorer, ParetoSetIsNonDominatedAndCoversBest)
{
    const CarbonExplorer &ex = utahExplorer();
    DesignSpace space = DesignSpace::forDatacenter(19.0, 6.0, 4, 3, 2);
    const OptimizationResult result =
        ex.optimize(space, Strategy::RenewableBattery);
    const auto frontier = result.paretoSet();
    ASSERT_FALSE(frontier.empty());
    for (size_t i = 1; i < frontier.size(); ++i) {
        EXPECT_GE(frontier[i].embodiedKg().value(),
                  frontier[i - 1].embodiedKg().value());
        EXPECT_LT(frontier[i].operational_kg.value(),
                  frontier[i - 1].operational_kg.value());
    }
}

TEST(Explorer, MinimumBatterySearchIsConsistent)
{
    const CarbonExplorer &ex = utahExplorer();
    const double mwh =
        ex.minimumBatteryForCoverage(MegaWatts(200.0), MegaWatts(100.0),
                                     99.0)
            .value();
    ASSERT_GT(mwh, 0.0);
    // Verify by direct simulation at and below the found size.
    const double cov_at =
        ex.evaluate(DesignPoint{MegaWatts(200.0), MegaWatts(100.0), MegaWattHours(mwh), Fraction(0.0)},
                    Strategy::RenewableBattery)
            .coverage_pct;
    EXPECT_GE(cov_at, 99.0 - 0.01);
    const double cov_below =
        ex.evaluate(DesignPoint{MegaWatts(200.0), MegaWatts(100.0), MegaWattHours(0.5 * mwh), Fraction(0.0)},
                    Strategy::RenewableBattery)
            .coverage_pct;
    EXPECT_LT(cov_below, 99.0);
}

TEST(Explorer, MinimumExtraCapacitySearchIsConsistent)
{
    const CarbonExplorer &ex = utahExplorer();
    const double extra =
        ex.minimumExtraCapacityForCoverage(MegaWatts(200.0),
                                           MegaWatts(100.0), 97.0)
            .value();
    if (extra >= 0.0) {
        const double cov = ex.evaluate(
            DesignPoint{MegaWatts(200.0), MegaWatts(100.0), MegaWattHours(0.0), Fraction(extra)},
            Strategy::RenewableCas).coverage_pct;
        EXPECT_GE(cov, 97.0 - 0.05);
    } else {
        // Unreachable even at the max: max extra capacity must fail.
        const double cov = ex.evaluate(
            DesignPoint{MegaWatts(200.0), MegaWatts(100.0), MegaWattHours(0.0), Fraction(4.0)},
            Strategy::RenewableCas).coverage_pct;
        EXPECT_LT(cov, 97.0);
    }
}

TEST(Explorer, SolarOnlyRegionCapsNearFifty)
{
    // NC (DUK) has no wind: even huge solar caps coverage near 50%.
    ExplorerConfig cfg;
    cfg.ba_code = "DUK";
    cfg.avg_dc_power_mw = MegaWatts(51.0);
    const CarbonExplorer ex(cfg);
    const double cov = ex.coverageAnalyzer().coverage(MegaWatts(50000.0),
                                                      MegaWatts(0.0));
    EXPECT_GT(cov, 40.0);
    EXPECT_LT(cov, 60.0);
    // And wind investment buys nothing on this grid.
    EXPECT_NEAR(ex.coverageAnalyzer().coverage(MegaWatts(0.0),
                                               MegaWatts(50000.0)),
                0.0,
                1e-6);
}

TEST(Explorer, RejectsBadConfig)
{
    ExplorerConfig cfg;
    cfg.ba_code = "NOPE";
    EXPECT_THROW(CarbonExplorer{cfg}, UserError);
    cfg = ExplorerConfig{};
    cfg.flexible_ratio = Fraction(2.0);
    EXPECT_THROW(CarbonExplorer{cfg}, UserError);
}

TEST(Explorer, RejectsNonFiniteSloWindows)
{
    for (const double window : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        ExplorerConfig cfg = utahConfig();
        cfg.slo_window_hours = Hours(window);
        try {
            const CarbonExplorer explorer(cfg);
            FAIL() << "window " << window << " was accepted";
        } catch (const UserError &e) {
            EXPECT_NE(std::string(e.what()).find("slo_window_hours"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Explorer, SloWindowsAsLongAsTheYearOrLongerAgreeBitwise)
{
    // A deadline past the trace's last hour never matures, so every
    // window at least as long as the year (2021: 8760 h) defers the
    // same way, and a window of 1e300 h must not reach an undefined
    // cast to an hour count.
    const std::vector<DesignPoint> points = {
        DesignPoint{},
        DesignPoint{MegaWatts(30.0), MegaWatts(15.0),
                    MegaWattHours(60.0), Fraction(0.2)}};
    for (const DesignPoint &point : points) {
        SCOPED_TRACE(point.describe());
        std::vector<Evaluation> evals;
        for (const double window : {8760.0, 1e6, 1e300}) {
            ExplorerConfig cfg = utahConfig();
            cfg.year = 2021;
            cfg.avg_dc_power_mw = MegaWatts(20.0);
            cfg.flexible_ratio = Fraction(0.4);
            cfg.slo_window_hours = Hours(window);
            evals.push_back(CarbonExplorer(cfg).evaluate(
                point, Strategy::RenewableBatteryCas));
        }
        EXPECT_GT(evals[0].deferred_mwh.value(), 0.0);
        for (size_t i = 1; i < evals.size(); ++i) {
            const auto bits = [](double v) {
                return std::bit_cast<uint64_t>(v);
            };
            const Evaluation &a = evals[0];
            const Evaluation &b = evals[i];
            EXPECT_EQ(bits(a.coverage_pct), bits(b.coverage_pct));
            EXPECT_EQ(bits(a.operational_kg.value()),
                      bits(b.operational_kg.value()));
            EXPECT_EQ(bits(a.embodiedKg().value()),
                      bits(b.embodiedKg().value()));
            EXPECT_EQ(bits(a.battery_cycles), bits(b.battery_cycles));
            EXPECT_EQ(bits(a.deferred_mwh.value()),
                      bits(b.deferred_mwh.value()));
            EXPECT_EQ(bits(a.renewable_excess_mwh.value()),
                      bits(b.renewable_excess_mwh.value()));
        }
    }
}

} // namespace
} // namespace carbonx

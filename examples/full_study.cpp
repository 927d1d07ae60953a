/**
 * @file
 * Full design study: the complete workflow a datacenter operator
 * would run for a prospective site —
 *   1. characterize the region's grid,
 *   2. search the design space (adaptive sweep plus two rounds of
 *      zoom refinement, bit-identical to the exhaustive grid's best),
 *   3. stress the chosen design across weather years,
 *   4. check sensitivity to the published carbon parameters,
 *   5. lay out the 15-year facility carbon plan.
 *
 * Run:  ./build/examples/full_study [BA_CODE] [AVG_DC_MW]
 */

#include <cstdlib>
#include <iostream>

#include "carbon/horizon.h"
#include "common/table.h"
#include "core/adaptive_sweep.h"
#include "core/report.h"
#include "core/robustness.h"
#include "core/sensitivity.h"

int
main(int argc, char **argv)
{
    using namespace carbonx;

    ExplorerConfig config;
    config.ba_code = argc > 1 ? argv[1] : "ERCO";
    config.avg_dc_power_mw = MegaWatts(argc > 2 ? std::atof(argv[2]) : 60.0);
    config.flexible_ratio = Fraction(0.4);
    const double dc = config.avg_dc_power_mw.value();

    std::cout << "=== Full design study: " << config.ba_code << ", "
              << dc << " MW datacenter ===\n\n";

    // 1. Region characterization.
    const CarbonExplorer explorer(config);
    std::cout << "[1] Grid: mean intensity "
              << formatFixed(explorer.gridIntensity().mean(), 0)
              << " g/kWh; coverage at 6x 50/50 renewables: "
              << formatPercent(explorer.coverageAnalyzer().coverage(MegaWatts(3.0 * dc), MegaWatts(3.0 * dc)))
              << "\n\n";

    // 2. Design-space search.
    const DesignSpace space =
        DesignSpace::forDatacenter(dc, 10.0, 7, 7, 5);
    const AdaptiveSweepResult search = AdaptiveSweeper(explorer).sweep(
        space, Strategy::RenewableBatteryCas, 2);
    const Evaluation &best = search.result.best;
    std::cout << "[2] Optimum: " << summarizeEvaluation(best) << '\n'
              << "    adaptive sweep simulated "
              << search.stats.simulated_points << " of "
              << search.stats.lattice_points << " lattice points\n\n";

    // 3. Weather robustness.
    const RobustnessAnalysis robustness(
        config, RobustnessAnalysis::sequentialSeeds(5000, 8));
    const RobustnessReport stress =
        robustness.evaluate(best.point, Strategy::RenewableBatteryCas);
    std::cout << "[3] Across 8 weather years: coverage "
              << formatFixed(stress.coverage_pct.min(), 1) << "-"
              << formatFixed(stress.coverage_pct.max(), 1)
              << "% (mean "
              << formatFixed(stress.coverage_pct.mean(), 1)
              << "%), total "
              << formatFixed(
                     KilogramsCo2(stress.total_kg.mean()).kilotons(),
                     1)
              << " +/- "
              << formatFixed(
                     KilogramsCo2(stress.total_kg.stddev()).kilotons(),
                     1)
              << " ktCO2\n\n";

    // 4. Parameter sensitivity (the two most uncertain inputs).
    const SensitivityAnalysis sensitivity(
        config, DesignSpace::forDatacenter(dc, 10.0, 5, 5, 3),
        Strategy::RenewableBatteryCas);
    const auto ranges = SensitivityAnalysis::paperRanges();
    std::cout << "[4] Sensitivity:\n";
    for (size_t i : {size_t{0}, size_t{2}}) { // Solar & battery kg.
        const SensitivityRow row = sensitivity.run(ranges[i]);
        std::cout << "    " << row.parameter << " ("
                  << row.low_value << " - " << row.high_value
                  << "): optimal total swings "
                  << formatPercent(100.0 * row.totalSwingFraction(),
                                   1)
                  << "\n";
    }
    std::cout << '\n';

    // 5. Facility-lifetime plan.
    const SimulationResult sim =
        explorer.simulate(best.point, Strategy::RenewableBatteryCas);
    HorizonInputs inputs;
    inputs.battery_mwh = best.point.battery_mwh;
    inputs.extra_capacity = best.point.extra_capacity;
    inputs.operational_kg_per_year = best.operational_kg;
    inputs.solar_attributed_mwh = MegaWattHours(
        best.embodied_solar_kg.value() /
        config.renewable_embodied.solar_g_per_kwh.value());
    inputs.wind_attributed_mwh = MegaWattHours(
        best.embodied_wind_kg.value() /
        config.renewable_embodied.wind_g_per_kwh.value());
    inputs.battery_cycles_per_year = sim.battery_cycles;
    inputs.base_peak_power_mw = explorer.dcPeakPowerMw();
    const HorizonPlanner planner(
        EmbodiedCarbonModel(config.renewable_embodied,
                            config.server_spec),
        config.chemistry);
    const HorizonPlan plan = planner.plan(inputs, 15.0);
    std::cout << "[5] 15-year plan: "
              << formatFixed(KilogramsCo2(plan.total_kg).kilotons(), 1)
              << " ktCO2 total, " << plan.battery_replacements
              << " battery / " << plan.server_replacements
              << " server replacement(s)\n";
    return 0;
}

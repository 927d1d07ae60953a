/**
 * @file
 * Ablation: grid-charging (carbon arbitrage) extension. The paper
 * charges batteries only from surplus renewables; this ablation lets
 * the battery also charge from the grid when the grid is clean and
 * measures the effect on operational carbon and the coverage metric.
 */

#include <iostream>

#include "bench_util.h"
#include "core/explorer.h"
#include "scheduler/batched_engine.h"

int
main()
{
    using namespace carbonx;
    bench::banner("Ablation — grid-charging carbon arbitrage",
                  "charging on clean grid hours trades the coverage "
                  "metric for lower real emissions");

    ExplorerConfig config;
    config.ba_code = "PACE";
    config.avg_dc_power_mw = MegaWatts(19.0);
    const CarbonExplorer explorer(config);
    const double dc = config.avg_dc_power_mw.value();
    const CoverageAnalyzer &cov = explorer.coverageAnalyzer();
    const BatchedSimulationEngine engine(explorer.dcPower(),
                                         cov.solarShape(), cov.windShape(),
                                         &explorer.gridIntensity());
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();

    TextTable table("Arbitrage threshold sweep (8 h LFP battery)",
                    {"Charge threshold g/kWh", "Grid charge MWh",
                     "Coverage %", "Operational ktCO2", "Cycles"});
    double kg_never = 0.0;
    double best_kg = 1e30;
    for (double threshold : {0.0, 150.0, 200.0, 250.0, 300.0, 400.0}) {
        BatchLaneConfig lane;
        lane.solar_mw = MegaWatts(3.0 * dc);
        lane.wind_mw = MegaWatts(3.0 * dc);
        lane.capacity_cap_mw = MegaWatts(explorer.dcPeakPowerMw());
        lane.chemistry = &lfp;
        lane.battery_capacity_mwh = MegaWattHours(8.0 * dc);
        if (threshold > 0.0) {
            lane.grid_charge_policy =
                GridChargePolicy::BelowIntensityThreshold;
            lane.grid_charge_threshold_gkwh = GramsPerKwh(threshold);
        }
        SimulationBatch batch(1);
        batch.addLane(lane);
        engine.run(batch);
        const BatchLaneResult &r = batch.result(0);
        const double kg = r.operational_kg.value();
        if (threshold == 0.0)
            kg_never = kg;
        best_kg = std::min(best_kg, kg);
        table.addRow({threshold == 0.0 ? "never (paper)"
                                       : formatFixed(threshold, 0),
                      formatFixed(r.grid_charge_mwh.value(), 0),
                      formatFixed(r.coverage_pct, 2),
                      formatFixed(KilogramsCo2(kg).kilotons(), 3),
                      formatFixed(r.battery_cycles, 0)});
    }
    table.print(std::cout);

    std::cout << "\nBest arbitrage setting cuts operational carbon by "
              << formatPercent(100.0 * (kg_never - best_kg) / kg_never)
              << " vs renewable-only charging.\n";

    bench::shapeCheck(best_kg <= kg_never,
                      "some arbitrage threshold is at least as clean "
                      "as never charging from the grid");
    return 0;
}

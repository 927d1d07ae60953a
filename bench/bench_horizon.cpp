/**
 * @file
 * Extension study: the facility-lifetime (15-20 year) view of the
 * carbon-optimal design. The paper amortizes embodied carbon; this
 * harness shows the same design as its owner will live it — embodied
 * pulses at purchase and replacement years, operations in between.
 */

#include <iostream>

#include "bench_util.h"
#include "carbon/horizon.h"
#include "core/explorer.h"

int
main()
{
    using namespace carbonx;
    bench::banner("Extension — facility-lifetime carbon plan",
                  "embodied carbon arrives in purchase-year pulses; "
                  "batteries and servers are replaced several times "
                  "over a 15-20 year facility life");

    ExplorerConfig config;
    config.ba_code = "PACE";
    config.avg_dc_power_mw = MegaWatts(19.0);
    config.flexible_ratio = Fraction(0.4);
    const CarbonExplorer explorer(config);

    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 6, 6, 3);
    const Evaluation best =
        explorer.optimize(space, Strategy::RenewableBatteryCas, 2).best;
    const SimulationResult sim =
        explorer.simulate(best.point, Strategy::RenewableBatteryCas);

    HorizonInputs inputs;
    inputs.battery_mwh = MegaWattHours(best.point.battery_mwh);
    inputs.extra_capacity = best.point.extra_capacity;
    inputs.operational_kg_per_year = best.operational_kg;
    // Recover the attributed generation from the evaluation's
    // embodied flows.
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

    std::cout << "Design: " << best.point.describe() << " (coverage "
              << formatFixed(best.coverage_pct, 1) << "%)\n\n";
    TextTable table("15-year carbon plan (ktCO2)",
                    {"Year", "Operational", "Embodied", "Cumulative",
                     "Events"});
    for (const HorizonYear &y : plan.years) {
        std::string events;
        if (y.year_index == 0)
            events = "initial build-out";
        if (y.battery_replaced)
            events += " battery replaced";
        if (y.servers_replaced)
            events += " servers replaced";
        table.addRow(
            {std::to_string(y.year_index),
             formatFixed(KilogramsCo2(y.operational_kg.value()).kilotons(), 2),
             formatFixed(KilogramsCo2(y.embodied_kg).kilotons(), 2),
             formatFixed(KilogramsCo2(y.cumulative_kg.value()).kilotons(), 2),
             events});
    }
    table.print(std::cout);

    std::cout << "\nTotals: "
              << formatFixed(KilogramsCo2(plan.total_kg).kilotons(), 1)
              << " ktCO2 over 15 years ("
              << formatFixed(
                     KilogramsCo2(plan.averagePerYearKg()).kilotons(),
                     2)
              << " kt/yr average); " << plan.battery_replacements
              << " battery and " << plan.server_replacements
              << " server replacement(s)\n";

    bench::shapeCheck(plan.server_replacements >= 1 ||
                          best.point.extra_capacity.value() == 0.0,
                      "5-year servers are replaced within a 15-year "
                      "facility life");
    bench::shapeCheck(plan.total_kg.value() >
                          14.0 * best.operational_kg.value(),
                      "lifetime totals dominate any single year");
    return 0;
}

/**
 * @file
 * Net Zero vs 24/7: demonstrates the paper's motivating observation
 * that annual REC matching does not deliver hourly carbon-free
 * operation, then shows what closing the gap takes (section 3.2 /
 * Fig. 6).
 *
 * Run:  ./build/examples/net_zero_vs_247 [BA_CODE] [AVG_DC_MW]
 */

#include <cstdlib>
#include <iostream>

#include "carbon/operational.h"
#include "common/table.h"
#include "core/explorer.h"

int
main(int argc, char **argv)
{
    using namespace carbonx;

    ExplorerConfig config;
    config.ba_code = argc > 1 ? argv[1] : "DUK";
    config.avg_dc_power_mw = MegaWatts(argc > 2 ? std::atof(argv[2]) : 51.0);
    const CarbonExplorer explorer(config);

    const TimeSeries &load = explorer.dcPower();
    const TimeSeries &intensity = explorer.gridIntensity();
    const auto &cov = explorer.coverageAnalyzer();

    // Scale renewables until annual credits exactly match consumption
    // (the Net Zero investment level).
    double lo = 0.0;
    double hi = 1e6;
    for (int i = 0; i < 60; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (cov.supplyFor(MegaWatts(0.7 * mid), MegaWatts(0.3 * mid)).total() >= load.total())
            hi = mid;
        else
            lo = mid;
    }
    const double solar_mw = 0.7 * hi;
    const double wind_mw = 0.3 * hi;
    const TimeSeries supply = cov.supplyFor(MegaWatts(solar_mw), MegaWatts(wind_mw));

    const NetZeroReport report =
        NetZeroAccounting::evaluate(load, supply, intensity);

    TextTable table("Net Zero accounting at " + config.ba_code,
                    {"Metric", "Value"});
    table.addRow({"Annual consumption",
                  formatFixed(report.consumed_mwh.value() / 1e3, 1) + " GWh"});
    table.addRow({"Annual REC credits",
                  formatFixed(report.credits_mwh.value() / 1e3, 1) + " GWh"});
    table.addRow({"Net Zero achieved", report.net_zero ? "yes" : "no"});
    table.addRow({"Hourly 24/7 coverage",
                  formatPercent(report.hourly_coverage_pct)});
    table.addRow({"Residual hourly emissions",
                  formatFixed(KilogramsCo2(report.hourly_emissions_kg.value())
                                  .kilotons(),
                              1) +
                      " ktCO2/yr"});
    table.print(std::cout);

    // What does actually closing the hourly gap take?
    const double battery_mwh =
        explorer
            .minimumBatteryForCoverage(
                MegaWatts(solar_mw), MegaWatts(wind_mw), 99.99,
                MegaWattHours(400.0 *
                              config.avg_dc_power_mw.value()))
            .value();
    std::cout << "\nClosing the hourly gap at this investment level "
              << "requires ";
    if (battery_mwh < 0.0) {
        std::cout << "more than seasonal-scale storage — extra "
                     "renewables or scheduling are needed too.\n";
    } else {
        std::cout << formatFixed(battery_mwh, 0) << " MWh of battery ("
                  << formatFixed(battery_mwh /
                                     config.avg_dc_power_mw.value(),
                                 1)
                  << " hours of compute).\n";
    }

    // Effective hourly carbon intensity of the DC's energy under the
    // three supply scenarios of Fig. 6.
    TimeSeries grid_draw(load.year());
    for (size_t h = 0; h < load.size(); ++h)
        grid_draw[h] = std::max(load[h] - supply[h], 0.0);
    const TimeSeries effective =
        OperationalCarbonModel::effectiveIntensity(load, grid_draw,
                                                   intensity);
    std::cout << "\nMean hourly carbon intensity of DC energy:\n"
              << "  grid mix only:        "
              << formatFixed(intensity.mean(), 0) << " g/kWh\n"
              << "  Net Zero investments: "
              << formatFixed(effective.mean(), 0) << " g/kWh\n"
              << "  24/7 target:          0 g/kWh\n";
    return 0;
}

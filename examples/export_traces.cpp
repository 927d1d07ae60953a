/**
 * @file
 * Trace exporter: writes the framework's synthesized hourly series —
 * grid generation per fuel, carbon intensity, datacenter load, and a
 * simulated strategy run — to CSV files for external plotting or for
 * feeding back through user tooling.
 *
 * Run:  ./build/examples/export_traces [BA_CODE] [OUT_DIR]
 */

#include <iostream>
#include <string>

#include "common/csv.h"
#include "core/explorer.h"
#include "grid/grid_synthesizer.h"

int
main(int argc, char **argv)
{
    using namespace carbonx;

    const std::string ba = argc > 1 ? argv[1] : "PACE";
    const std::string out_dir = argc > 2 ? argv[2] : ".";

    ExplorerConfig config;
    config.ba_code = ba;
    config.avg_dc_power_mw = MegaWatts(19.0);
    config.flexible_ratio = Fraction(0.4);
    const CarbonExplorer explorer(config);
    const GridTrace grid =
        GridSynthesizer(
            BalancingAuthorityRegistry::instance().lookup(config.ba_code),
            config.seed)
            .synthesize(config.year);
    const TimeSeries &load = explorer.dcPower();

    // 1. Grid trace: per-fuel dispatch + intensity.
    CsvTable grid_csv({"hour", "demand_mw", "wind_mw", "solar_mw",
                       "hydro_mw", "nuclear_mw", "gas_mw", "coal_mw",
                       "oil_mw", "other_mw", "curtailed_mw",
                       "intensity_g_per_kwh"});
    for (size_t h = 0; h < grid.demand.size(); ++h) {
        grid_csv.addNumericRow(
            {static_cast<double>(h), grid.demand[h], grid.wind[h],
             grid.solar[h], grid.mix.of(Fuel::Hydro)[h],
             grid.mix.of(Fuel::Nuclear)[h],
             grid.mix.of(Fuel::NaturalGas)[h],
             grid.mix.of(Fuel::Coal)[h], grid.mix.of(Fuel::Oil)[h],
             grid.mix.of(Fuel::Other)[h], grid.curtailed[h],
             grid.intensity[h]});
    }
    const std::string grid_path = out_dir + "/" + ba + "_grid.csv";
    grid_csv.writeFile(grid_path);

    // 2. Datacenter load.
    CsvTable load_csv({"hour", "dc_power_mw"});
    for (size_t h = 0; h < load.size(); ++h)
        load_csv.addNumericRow({static_cast<double>(h), load[h]});
    const std::string load_path = out_dir + "/" + ba + "_load.csv";
    load_csv.writeFile(load_path);

    // 3. A combined-strategy simulation at a representative design.
    const double dc = config.avg_dc_power_mw.value();
    const DesignPoint point{MegaWatts(4.0 * dc), MegaWatts(4.0 * dc),
                            MegaWattHours(8.0 * dc), Fraction(0.25)};
    const SimulationResult sim =
        explorer.simulate(point, Strategy::RenewableBatteryCas);
    CsvTable sim_csv({"hour", "served_mw", "grid_mw", "battery_soc",
                      "battery_flow_mw"});
    for (size_t h = 0; h < sim.served_power.size(); ++h) {
        sim_csv.addNumericRow({static_cast<double>(h),
                               sim.served_power[h], sim.grid_power[h],
                               sim.battery_soc[h],
                               sim.battery_flow[h]});
    }
    const std::string sim_path =
        out_dir + "/" + ba + "_simulation.csv";
    sim_csv.writeFile(sim_path);

    std::cout << "Wrote:\n  " << grid_path << " ("
              << grid_csv.numRows() << " rows)\n  " << load_path
              << " (" << load_csv.numRows() << " rows)\n  "
              << sim_path << " (" << sim_csv.numRows() << " rows)\n"
              << "Design simulated: " << point.describe()
              << ", coverage "
              << (1.0 - sim.grid_energy_mwh.value() / sim.load_energy_mwh.value()) *
                     100.0
              << "%\n";
    return 0;
}

/**
 * @file
 * Ablation: price-driven vs carbon-driven demand response. Section
 * 3.2 argues cheap hours are green hours; this harness measures how
 * much carbon a purely price-chasing scheduler captures relative to
 * scheduling on the carbon signal directly — and what it saves in
 * energy cost.
 */

#include <iostream>
#include <vector>

#include "bench_util.h"
#include "carbon/operational.h"
#include "common/stats.h"
#include "core/explorer.h"
#include "grid/grid_synthesizer.h"
#include "grid/pricing.h"
#include "scheduler/greedy_scheduler.h"

int
main()
{
    using namespace carbonx;
    bench::banner("Ablation — price vs carbon scheduling signal",
                  "cheap hours tend to be green hours (section 3.2); "
                  "price-chasing captures much of the carbon saving");

    ExplorerConfig config;
    config.ba_code = "PACE";
    config.avg_dc_power_mw = MegaWatts(19.0);
    const CarbonExplorer explorer(config);
    const TimeSeries &load = explorer.dcPower();
    const TimeSeries &intensity = explorer.gridIntensity();
    const auto &ba =
        BalancingAuthorityRegistry::instance().lookup(config.ba_code);
    const TimeSeries price = PriceModel().price(
        GridSynthesizer(ba, config.seed).synthesize(config.year), ba);

    std::vector<double> p(price.values().begin(),
                          price.values().end());
    std::vector<double> i(intensity.values().begin(),
                          intensity.values().end());
    const double corr = pearsonCorrelation(p, i);
    std::cout << "Price/intensity correlation: "
              << formatFixed(corr, 3) << "\n\n";

    SchedulerConfig sched;
    sched.capacity_cap_mw = MegaWatts(1.3 * explorer.dcPeakPowerMw());
    sched.flexible_ratio = Fraction(0.4);
    const GreedyCarbonScheduler scheduler(sched);

    auto emissions = [&](const TimeSeries &power) {
        return OperationalCarbonModel::gridEmissions(power, intensity)
            .value();
    };
    auto energyCost = [&](const TimeSeries &power) {
        double usd = 0.0;
        for (size_t h = 0; h < power.size(); ++h)
            usd += power[h] * price[h];
        return usd;
    };

    const double base_kg = emissions(load);
    const double base_usd = energyCost(load);
    const ScheduleResult on_carbon =
        scheduler.schedule(load, intensity);
    const ScheduleResult on_price = scheduler.schedule(load, price);

    TextTable table("Schedule outcomes",
                    {"Signal", "Emissions ktCO2", "CO2 saving %",
                     "Energy cost M$", "Cost saving %"});
    auto row = [&](const std::string &name, const TimeSeries &power) {
        const double kg = emissions(power);
        const double usd = energyCost(power);
        table.addRow(
            {name, formatFixed(KilogramsCo2(kg).kilotons(), 2),
             formatFixed(100.0 * (base_kg - kg) / base_kg, 2),
             formatFixed(usd / 1e6, 2),
             formatFixed(100.0 * (base_usd - usd) / base_usd, 2)});
    };
    row("none", load);
    row("carbon intensity", on_carbon.reshaped_power);
    row("wholesale price", on_price.reshaped_power);
    table.print(std::cout);

    const double carbon_saving = base_kg -
        emissions(on_carbon.reshaped_power);
    const double price_carbon_saving = base_kg -
        emissions(on_price.reshaped_power);
    const double captured = carbon_saving > 0.0
        ? price_carbon_saving / carbon_saving
        : 0.0;
    std::cout << "\nPrice-chasing captures "
              << formatPercent(100.0 * captured, 0)
              << " of the carbon-optimal signal's CO2 saving.\n";

    bench::shapeCheck(corr > 0.35,
                      "price and carbon intensity are positively "
                      "aligned");
    bench::shapeCheck(captured > 0.4,
                      "time-of-use price response captures much of "
                      "the carbon benefit");
    return 0;
}

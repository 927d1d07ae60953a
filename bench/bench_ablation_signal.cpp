/**
 * @file
 * Ablation: carbon-aware scheduling signal — average grid mix vs
 * marginal-unit intensity. The paper schedules against the average
 * mix; incremental load is physically served by the marginal unit,
 * so the two signals can rank hours differently.
 */

#include <iostream>

#include "bench_util.h"
#include "carbon/operational.h"
#include "core/explorer.h"
#include "grid/grid_synthesizer.h"
#include "scheduler/greedy_scheduler.h"

int
main()
{
    using namespace carbonx;
    bench::banner("Ablation — average vs marginal intensity signal",
                  "scheduling against the marginal unit targets the "
                  "emissions incremental load actually causes");

    ExplorerConfig config;
    config.ba_code = "PACE";
    config.avg_dc_power_mw = MegaWatts(19.0);
    const CarbonExplorer explorer(config);
    const TimeSeries &load = explorer.dcPower();
    const TimeSeries average = explorer.gridIntensity();
    const auto &ba =
        BalancingAuthorityRegistry::instance().lookup(config.ba_code);
    const TimeSeries marginal = GridSynthesizer(ba, config.seed)
                                    .synthesize(config.year)
                                    .mix.marginalIntensity();

    SchedulerConfig sched;
    sched.capacity_cap_mw = MegaWatts(1.3 * explorer.dcPeakPowerMw());
    sched.flexible_ratio = Fraction(0.4);
    const GreedyCarbonScheduler scheduler(sched);

    // Score both schedules under both accounting bases.
    const ScheduleResult on_avg = scheduler.schedule(load, average);
    const ScheduleResult on_marg = scheduler.schedule(load, marginal);

    auto score = [&](const TimeSeries &power,
                     const TimeSeries &basis) {
        return OperationalCarbonModel::gridEmissions(power, basis)
            .value();
    };

    TextTable table("Emissions (ktCO2) by schedule x accounting basis",
                    {"Schedule \\ accounting", "Average basis",
                     "Marginal basis"});
    const double base_avg = score(load, average);
    const double base_marg = score(load, marginal);
    table.addRow({"unscheduled",
                  formatFixed(KilogramsCo2(base_avg).kilotons(), 2),
                  formatFixed(KilogramsCo2(base_marg).kilotons(), 2)});
    table.addRow(
        {"scheduled on average signal",
         formatFixed(
             KilogramsCo2(score(on_avg.reshaped_power, average))
                 .kilotons(),
             2),
         formatFixed(
             KilogramsCo2(score(on_avg.reshaped_power, marginal))
                 .kilotons(),
             2)});
    table.addRow(
        {"scheduled on marginal signal",
         formatFixed(
             KilogramsCo2(score(on_marg.reshaped_power, average))
                 .kilotons(),
             2),
         formatFixed(
             KilogramsCo2(score(on_marg.reshaped_power, marginal))
                 .kilotons(),
             2)});
    table.print(std::cout);

    std::cout << "\nMean intensity: average basis "
              << formatFixed(average.mean(), 0)
              << " g/kWh, marginal basis "
              << formatFixed(marginal.mean(), 0) << " g/kWh\n";

    const double diag_avg = score(on_avg.reshaped_power, average);
    const double diag_marg = score(on_marg.reshaped_power, marginal);
    bench::shapeCheck(diag_avg <= base_avg && diag_marg <= base_marg,
                      "each schedule wins under its own accounting");
    bench::shapeCheck(marginal.mean() > average.mean(),
                      "marginal intensity exceeds the average mix "
                      "(thermal units sit on the margin)");
    return 0;
}

/**
 * @file
 * Extension study: weather robustness of the carbon-optimal design.
 * The paper optimizes against the single year 2020; this harness
 * re-simulates that optimum under ten independent synthetic weather
 * years and reports the spread — how much a 24/7 pledge depends on
 * the weather year it was planned against.
 */

#include <iostream>

#include "bench_util.h"
#include "core/robustness.h"

int
main()
{
    using namespace carbonx;
    bench::banner("Extension — weather robustness of the optimum",
                  "a design tuned to one weather year must hold up "
                  "in others; the worst year is what a pledge "
                  "must survive");

    ExplorerConfig config;
    config.ba_code = "PACE";
    config.avg_dc_power_mw = MegaWatts(19.0);
    config.flexible_ratio = Fraction(0.4);

    // Optimize against the default year...
    const CarbonExplorer explorer(config);
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 6, 6, 3);
    const Evaluation best =
        explorer.optimize(space, Strategy::RenewableBatteryCas, 2).best;
    std::cout << "Design under test (optimal for seed 2020): "
              << best.point.describe() << ", planned coverage "
              << formatFixed(best.coverage_pct, 2) << "%\n\n";

    // ...then stress it across ten independent weather years.
    const RobustnessAnalysis analysis(
        config, RobustnessAnalysis::sequentialSeeds(3000, 10));
    const RobustnessReport report =
        analysis.evaluate(best.point, Strategy::RenewableBatteryCas);

    TextTable table("Outcome distribution over 10 weather years",
                    {"Metric", "Min", "Mean", "Max", "Stddev"});
    table.addRow({"Coverage %",
                  formatFixed(report.coverage_pct.min(), 2),
                  formatFixed(report.coverage_pct.mean(), 2),
                  formatFixed(report.coverage_pct.max(), 2),
                  formatFixed(report.coverage_pct.stddev(), 2)});
    table.addRow(
        {"Total ktCO2",
         formatFixed(KilogramsCo2(report.total_kg.min()).kilotons(),
                     2),
         formatFixed(KilogramsCo2(report.total_kg.mean()).kilotons(),
                     2),
         formatFixed(KilogramsCo2(report.total_kg.max()).kilotons(),
                     2),
         formatFixed(KilogramsCo2(report.total_kg.stddev())
                         .kilotons(),
                     2)});
    table.print(std::cout);

    std::cout << "\nWorst-year coverage: "
              << formatFixed(report.worstCoverage(), 2)
              << "% (planned: " << formatFixed(best.coverage_pct, 2)
              << "%), spread "
              << formatFixed(report.coverageSpread(), 2)
              << " points\n";

    bench::shapeCheck(report.coverageSpread() > 0.05,
                      "weather year matters: outcomes vary across "
                      "years");
    bench::shapeCheck(report.worstCoverage() >
                          best.coverage_pct - 10.0,
                      "the optimum degrades gracefully rather than "
                      "collapsing in bad weather years");
    return 0;
}

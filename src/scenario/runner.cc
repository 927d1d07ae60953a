#include "runner.h"

#include <cmath>
#include <filesystem>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/fnv.h"
#include "core/report.h"
#include "obs/provenance.h"

namespace carbonx::scenario
{

std::unique_ptr<CarbonExplorer>
makeScenarioExplorer(const Scenario &s)
{
    ExplorerConfig cfg;
    cfg.ba_code = s.ba_code;
    cfg.year = s.year;
    cfg.seed = s.seed;
    cfg.avg_dc_power_mw = s.dc_avg_mw;
    cfg.flexible_ratio = s.flexible_ratio;
    cfg.slo_window_hours = s.slo_hours;
    cfg.chemistry = chemistryByName(s.chemistry);
    cfg.attribution = s.attribution;
    cfg.grid_charge_policy =
        s.grid_charge_policy == "below_intensity"
            ? GridChargePolicy::BelowIntensityThreshold
            : GridChargePolicy::Never;
    cfg.grid_charge_threshold_gkwh = s.grid_charge_threshold_gkwh;

    if (!s.traces_csv.empty())
        return std::make_unique<CarbonExplorer>(
            cfg, ExternalTraces::fromCsv(s.traces_csv, s.year));
    return std::make_unique<CarbonExplorer>(cfg);
}

ScenarioRunResult
runScenario(const Scenario &s, const ScenarioRunOptions &opts)
{
    require(!s.abstract_base,
            "scenario '" + s.id +
                "' is an abstract base and cannot be run");

    const std::unique_ptr<CarbonExplorer> explorer =
        makeScenarioExplorer(s);
    const DesignSpace space = s.designSpace();
    const SweepMode mode = opts.mode_override.value_or(s.mode);

    ScenarioRunResult out;
    out.scenario_id = s.id;
    out.mode = mode;
    out.scenario_digest = s.digest();
    out.config_digest = explorer->configDigest(s.strategy);
    out.lattice_points = space.sizeFor(s.strategy);

    std::unique_ptr<SweepResultCache> cache;
    if (!opts.cache_dir.empty()) {
        std::filesystem::create_directories(opts.cache_dir);
        cache = std::make_unique<SweepResultCache>(
            opts.cache_dir + "/" + s.id + ".evals",
            out.config_digest, "scenario " + s.id);
        explorer->setSweepCache(cache.get());
    }
    std::unique_ptr<obs::DecisionJournal> journal;
    if (!opts.journal_path.empty()) {
        journal = std::make_unique<obs::DecisionJournal>(
            opts.journal_path, out.config_digest,
            "scenario " + s.id);
        explorer->setJournal(journal.get());
    }

    if (mode == SweepMode::Exhaustive) {
        out.result =
            explorer->optimize(space, s.strategy, s.refine_rounds);
        out.stats.lattice_points = out.lattice_points;
    } else {
        AdaptiveSweepResult adaptive = AdaptiveSweeper(*explorer).sweep(
            space, s.strategy, s.refine_rounds);
        out.result = std::move(adaptive.result);
        out.stats = adaptive.stats;
    }
    if (journal != nullptr) {
        journal->flush();
        explorer->setJournal(nullptr);
    }
    return out;
}

void
writeScenarioReport(std::ostream &os, const Scenario &s,
                    const ScenarioRunResult &run)
{
    // Deliberately deterministic provenance: no wall time, threads
    // pinned to 0 — the one property that lets CI diff two runs of
    // the same scenario byte for byte.
    obs::Provenance prov;
    prov.tool = "carbonx";
    prov.invocation = "carbonx run " + s.id;
    prov.config_hash = fnvHex(run.config_digest);
    prov.region = s.traces_csv.empty() ? s.ba_code : "external";
    prov.year = s.year;
    prov.seed = s.seed;
    prov.threads = 0;
    prov.build = obs::Provenance::buildInfo();
    prov.extra.emplace_back("artifact", "scenario-run-report-v1");
    prov.extra.emplace_back("scenario", s.id);
    prov.extra.emplace_back("scenario_digest", s.digestHex());
    prov.extra.emplace_back("strategy", strategyName(s.strategy));
    prov.writeCommentHeader(os, "# ");

    os << "Best: " << summarizeEvaluation(run.result.best) << '\n';
    printParetoTable(os, "Pareto frontier (embodied vs operational)",
                     run.result.paretoSet());

    // The only mode-dependent lines; CI's exhaustive-vs-refine diff
    // filters "^# sweep" and expects everything above to match.
    os << "# sweep mode: " << sweepModeName(run.mode) << '\n';
    os << "# sweep lattice: " << run.lattice_points << '\n';
    os << "# sweep evaluated: " << run.result.evaluated.size()
       << '\n';
    if (run.mode == SweepMode::Adaptive) {
        os << "# sweep simulated: " << run.stats.simulated_points
           << '\n';
        os << "# sweep skipped: " << run.stats.points_skipped << '\n';
        os << "# sweep cache_hits: " << run.stats.cache_hits << '\n';
    }
}

std::vector<std::string>
checkExpectations(const Scenario &s, const Evaluation &best)
{
    std::vector<std::string> violations;
    const ScenarioExpectations &e = s.expect;

    if (e.has_best_total_kg) {
        const double got = best.totalKg().value();
        const double tol =
            std::abs(e.best_total_kg) * e.tolerance_pct / 100.0;
        if (std::abs(got - e.best_total_kg) > tol) {
            std::ostringstream msg;
            msg << "best_total_kg: expected "
                << e.best_total_kg << " +/- " << e.tolerance_pct
                << "%, got " << got;
            violations.push_back(msg.str());
        }
    }

    if (best.coverage_pct < e.min_coverage_pct - 1e-9 ||
        best.coverage_pct > e.max_coverage_pct + 1e-9) {
        std::ostringstream msg;
        msg << "coverage_pct: expected ["
            << e.min_coverage_pct << ", " << e.max_coverage_pct
            << "], got " << best.coverage_pct;
        violations.push_back(msg.str());
    }

    return violations;
}

} // namespace carbonx::scenario

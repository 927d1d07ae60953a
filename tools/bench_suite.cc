#include "bench_suite.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/table.h"
#include "core/adaptive_sweep.h"
#include "core/explorer.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/provenance.h"

namespace carbonx::tools
{

namespace
{

/** Report layout version; bump on any structural change. */
constexpr int kBenchSchemaVersion = 1;

/** What one timed repetition of a scenario produced. */
struct RepOutcome
{
    uint64_t work_points = 0;
    double best_total_kg = 0.0;
    bool has_best = false;
};

/** One registered macro scenario; setup/teardown run untimed. */
struct BenchScenario
{
    std::string name;
    std::function<void()> setup;
    std::function<RepOutcome()> run;
    std::function<void()> teardown;
};

/** Everything the report records about one scenario. */
struct ScenarioReport
{
    std::string name;
    int reps = 0;
    double wall_s = 0.0; ///< Median over reps.
    RepOutcome outcome;
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::string profile_json; ///< Merged phase tree, serialized.
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os.precision(15);
    os << v;
    return os.str();
}

/**
 * The suite's scenarios over one canonical workload (PACE, 19 MW,
 * year 2020, seed 2020 — the same configuration the micro benchmarks
 * pin). The workloads are identical in smoke and full mode, so
 * work_points always match and any two reports stay comparable.
 */
std::vector<BenchScenario>
makeScenarios()
{
    ExplorerConfig config;
    config.ba_code = "PACE";
    config.avg_dc_power_mw = MegaWatts(19.0);
    config.flexible_ratio = Fraction(0.4);
    config.year = 2020;
    config.seed = 2020;

    // Shared across scenarios; construction (trace synthesis) stays
    // untimed. The shared_ptr keeps it alive inside the lambdas.
    auto explorer = std::make_shared<CarbonExplorer>(config);
    const Strategy strategy = Strategy::RenewableBatteryCas;
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    const DesignSpace coarse =
        DesignSpace::forDatacenter(19.0, 6.0, 4, 3, 2);
    const DesignPoint point{MegaWatts(120.0), MegaWatts(80.0),
                            MegaWattHours(40.0), Fraction(0.2)};

    std::vector<BenchScenario> scenarios;

    scenarios.push_back(BenchScenario{
        "optimize_sweep", nullptr,
        [explorer, space, strategy] {
            const OptimizationResult r =
                explorer->optimize(space, strategy);
            return RepOutcome{r.evaluated.size(),
                              r.best.totalKg().value(), true};
        },
        nullptr});

    // The raw batched-kernel path with no sweep bookkeeping: the full
    // lattice straight through SweepBatchEvaluator, best picked with
    // the same strict-< first-wins scan optimize() uses — so
    // best_total_kg must equal the optimize_sweep row exactly, and
    // the delta between the two rows is the cost of everything around
    // the kernel (progress, refinement plumbing, result assembly).
    scenarios.push_back(BenchScenario{
        "batched_sweep", nullptr,
        [explorer, space, strategy] {
            const std::vector<DesignPoint> points =
                space.enumerate(strategy);
            std::vector<Evaluation> evals(points.size());
            SweepBatchEvaluator evaluator(*explorer, strategy);
            evaluator.evaluate(points.data(), points.size(),
                               evals.data(), nullptr);
            const Evaluation *best = &evals.front();
            for (const Evaluation &eval : evals) {
                if (eval.totalKg() < best->totalKg())
                    best = &eval;
            }
            return RepOutcome{evals.size(), best->totalKg().value(),
                              true};
        },
        nullptr});

    scenarios.push_back(BenchScenario{
        "adaptive_cold", nullptr,
        [explorer, space, strategy] {
            const AdaptiveSweepResult a =
                AdaptiveSweeper(*explorer).sweep(space, strategy);
            return RepOutcome{a.stats.lattice_points,
                              a.result.best.totalKg().value(), true};
        },
        nullptr});

    // Warm adaptive sweep: a persistent cache is populated once
    // (untimed), then every timed rep replays it — this is the
    // cache-hit fast path plus the triage logic, with no simulation.
    auto warm_cache = std::make_shared<std::unique_ptr<SweepResultCache>>();
    const std::string warm_dir =
        (std::filesystem::temp_directory_path() /
         "carbonx_bench_warm_cache")
            .string();
    scenarios.push_back(BenchScenario{
        "adaptive_warm",
        [explorer, space, strategy, warm_cache, warm_dir] {
            std::filesystem::remove_all(warm_dir);
            std::filesystem::create_directories(warm_dir);
            const std::string path =
                (std::filesystem::path(warm_dir) / "bench.cxrc")
                    .string();
            *warm_cache = std::make_unique<SweepResultCache>(
                path, explorer->configDigest(strategy), "");
            explorer->setSweepCache(warm_cache->get());
            AdaptiveSweeper(*explorer).sweep(space, strategy);
        },
        [explorer, space, strategy] {
            // One warm sweep runs in ~1 ms — far too little signal
            // for a regression gate; twenty per rep keeps the timer
            // noise well under the gate threshold.
            RepOutcome out;
            for (int i = 0; i < 20; ++i) {
                const AdaptiveSweepResult a =
                    AdaptiveSweeper(*explorer).sweep(space, strategy);
                out.work_points += a.stats.lattice_points;
                out.best_total_kg = a.result.best.totalKg().value();
                out.has_best = true;
            }
            return out;
        },
        [explorer, warm_cache, warm_dir] {
            explorer->setSweepCache(nullptr);
            warm_cache->reset();
            std::filesystem::remove_all(warm_dir);
        }});

    scenarios.push_back(BenchScenario{
        "simulate_recorded", nullptr,
        [explorer, point, strategy] {
            // Twenty flight-recorded re-simulations of one fixed
            // point; the work unit is hours simulated, matching the
            // per-hour throughput counters.
            RepOutcome out;
            for (int i = 0; i < 20; ++i) {
                const ExplainResult ex =
                    explorer->explain(point, strategy);
                out.work_points += ex.recording.hours();
                out.best_total_kg = ex.evaluation.totalKg().value();
                out.has_best = true;
            }
            return out;
        },
        nullptr});

    scenarios.push_back(BenchScenario{
        "explain", nullptr,
        [explorer, coarse, strategy] {
            // The bare `carbonx explain` path: coarse sweep, recorded
            // re-simulation of its best, invariant audit.
            const OptimizationResult sweep =
                explorer->optimize(coarse, strategy);
            const ExplainResult ex =
                explorer->explain(sweep.best.point, strategy);
            const obs::AuditReport audit =
                auditRecording(ex.recording, ex.auditContext());
            ensure(audit.clean(),
                   "bench explain scenario failed its invariant audit");
            return RepOutcome{sweep.evaluated.size() + 1,
                              ex.evaluation.totalKg().value(), true};
        },
        nullptr});

    return scenarios;
}

ScenarioReport
runScenario(const BenchScenario &scenario, int reps)
{
    if (scenario.setup)
        scenario.setup();

    auto &profiler = obs::PhaseProfiler::instance();
    obs::MetricsRegistry::instance().reset();
    profiler.reset();
    profiler.setEnabled(true);

    ScenarioReport report;
    report.name = scenario.name;
    report.reps = reps;
    std::vector<double> walls;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        report.outcome = scenario.run();
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - t0;
        walls.push_back(wall.count());
        std::cerr << "bench: " << scenario.name << " rep " << (r + 1)
                  << '/' << reps << ": "
                  << formatFixed(wall.count(), 3) << " s\n";
    }
    profiler.setEnabled(false);

    std::sort(walls.begin(), walls.end());
    report.wall_s = walls[walls.size() / 2];
    // Drop zero counters: reset() keeps earlier scenarios' names
    // registered, and an all-zeros dump buries the scenario's signal.
    for (const auto &[name, value] :
         obs::MetricsRegistry::instance().counterValues()) {
        if (value > 0)
            report.counters.emplace_back(name, value);
    }
    std::ostringstream prof;
    obs::writeProfileJson(prof, profiler.merged(), "      ");
    report.profile_json = prof.str();

    if (scenario.teardown)
        scenario.teardown();
    return report;
}

void
writeReport(const std::string &path, const std::string &tag, int reps,
            const std::vector<ScenarioReport> &scenarios)
{
    std::ofstream out(path);
    require(out.good(), "cannot open bench report file: " + path);
    out << "{\n  \"schema_version\": " << kBenchSchemaVersion
        << ",\n  \"suite\": \"" << (reps == 1 ? "smoke" : "full")
        << "\",\n  \"tag\": \"" << jsonEscapeString(tag) << "\",\n";
    if (obs::hasProcessProvenance()) {
        out << "  \"provenance\": ";
        obs::processProvenance().writeJson(out, "  ");
        out << ",\n";
    }
    out << "  \"scenarios\": [";
    bool first = true;
    for (const ScenarioReport &s : scenarios) {
        const double pps =
            s.wall_s > 0.0
                ? static_cast<double>(s.outcome.work_points) / s.wall_s
                : 0.0;
        out << (first ? "" : ",") << "\n    {\n      \"name\": \""
            << jsonEscapeString(s.name) << "\",\n      \"reps\": " << s.reps
            << ",\n      \"wall_s\": " << jsonNumber(s.wall_s)
            << ",\n      \"work_points\": " << s.outcome.work_points
            << ",\n      \"points_per_sec\": " << jsonNumber(pps);
        if (s.outcome.has_best) {
            out << ",\n      \"best_total_kg\": "
                << jsonNumber(s.outcome.best_total_kg);
        }
        out << ",\n      \"counters\": {";
        bool first_counter = true;
        for (const auto &[name, value] : s.counters) {
            out << (first_counter ? "" : ",") << "\n        \""
                << jsonEscapeString(name) << "\": " << value;
            first_counter = false;
        }
        out << (first_counter ? "" : "\n      ")
            << "},\n      \"profile\": " << s.profile_json
            << "\n    }";
        first = false;
    }
    out << (first ? "" : "\n  ") << "]\n}\n";
    require(out.good(), "failed writing bench report file: " + path);
}

/** The per-scenario numbers the comparator needs from a report. */
struct ScenarioNumbers
{
    double points_per_sec = 0.0;
    uint64_t work_points = 0;
    double best_total_kg = 0.0;
    bool has_best = false;
};

std::map<std::string, ScenarioNumbers>
loadReport(const std::string &path)
{
    const JsonValue doc = JsonValue::parseFile(path);
    const std::string context = "bench report " + path;
    const double version =
        doc.at("schema_version", context).asNumber();
    require(version == kBenchSchemaVersion,
            context + ": schema_version " + jsonNumber(version) +
                " unsupported (expected " +
                std::to_string(kBenchSchemaVersion) + ")");
    std::map<std::string, ScenarioNumbers> out;
    for (const JsonValue &s : doc.at("scenarios", context).items()) {
        const std::string name = s.at("name", context).asString();
        ScenarioNumbers numbers;
        numbers.points_per_sec =
            s.at("points_per_sec", context + " scenario " + name)
                .asNumber();
        numbers.work_points = static_cast<uint64_t>(
            s.at("work_points", context + " scenario " + name)
                .asNumber());
        if (const JsonValue *best = s.find("best_total_kg")) {
            numbers.best_total_kg = best->asNumber();
            numbers.has_best = true;
        }
        out.emplace(name, numbers);
    }
    require(!out.empty(), context + ": no scenarios");
    return out;
}

/**
 * Gate @p candidate_path against @p base_path: print the per-scenario
 * comparison table and return 4 when any scenario's throughput
 * dropped by more than @p threshold_pct percent.
 */
int
compareReports(const std::string &base_path,
               const std::string &candidate_path, double threshold_pct)
{
    const auto base = loadReport(base_path);
    const auto candidate = loadReport(candidate_path);

    TextTable table("Bench comparison vs " + base_path +
                        " (threshold " +
                        formatFixed(threshold_pct, 1) + "%)",
                    {"Scenario", "Base pts/s", "Cand pts/s", "Delta %",
                     "Verdict"});
    bool breached = false;
    for (const auto &[name, cand] : candidate) {
        const auto it = base.find(name);
        if (it == base.end()) {
            table.addRow({name, "-",
                          formatFixed(cand.points_per_sec, 1), "-",
                          "new"});
            continue;
        }
        const ScenarioNumbers &ref = it->second;
        if (ref.work_points != cand.work_points) {
            // Different workloads measure different things; refusing
            // to pretend they compare is the honest outcome.
            table.addRow({name, formatFixed(ref.points_per_sec, 1),
                          formatFixed(cand.points_per_sec, 1), "-",
                          "skipped (work mismatch)"});
            std::cerr << "bench: scenario " << name
                      << " skipped: work_points "
                      << cand.work_points << " vs baseline "
                      << ref.work_points << '\n';
            continue;
        }
        if (ref.has_best && cand.has_best &&
            ref.best_total_kg != cand.best_total_kg) {
            // Not a throughput breach, but worth a loud note: the two
            // runs did not compute the same answer.
            std::cerr << "bench: determinism warning: scenario "
                      << name << " best_total_kg "
                      << jsonNumber(cand.best_total_kg)
                      << " differs from baseline "
                      << jsonNumber(ref.best_total_kg) << '\n';
        }
        const double delta_pct =
            ref.points_per_sec > 0.0
                ? 100.0 *
                      (ref.points_per_sec - cand.points_per_sec) /
                      ref.points_per_sec
                : 0.0;
        const bool regressed = delta_pct > threshold_pct;
        breached = breached || regressed;
        table.addRow({name, formatFixed(ref.points_per_sec, 1),
                      formatFixed(cand.points_per_sec, 1),
                      formatFixed(delta_pct, 1),
                      regressed ? "REGRESSED" : "ok"});
    }
    for (const auto &[name, ref] : base) {
        if (candidate.find(name) != candidate.end())
            continue;
        // A scenario that vanished must not silently pass the gate.
        breached = true;
        table.addRow({name, formatFixed(ref.points_per_sec, 1), "-",
                      "-", "MISSING"});
    }
    table.print(std::cout);
    if (breached) {
        std::cerr << "bench: performance regression gate FAILED\n";
        return 4;
    }
    return 0;
}

} // namespace

int
cmdBench(const ArgParser &args)
{
    const std::string base_path = args.getString("compare", "");
    const std::string input_path = args.getString("input", "");
    const double threshold = args.getDouble("threshold", 5.0);
    require(threshold >= 0.0, "--threshold must be >= 0");
    require(input_path.empty() || !base_path.empty(),
            "--input only makes sense with --compare");
    if (!input_path.empty())
        return compareReports(base_path, input_path, threshold);

    const bool smoke = args.getBool("smoke");
    const int reps =
        static_cast<int>(args.getInt("reps", smoke ? 1 : 3));
    require(reps >= 1, "--reps must be >= 1");
    const std::string tag = args.getString("tag", "local");
    const std::string out_path =
        args.getString("out", "BENCH_" + tag + ".json");

    std::vector<ScenarioReport> reports;
    for (const BenchScenario &scenario : makeScenarios())
        reports.push_back(runScenario(scenario, reps));
    writeReport(out_path, tag, reps, reports);
    std::cerr << "bench: report written to " << out_path << '\n';

    if (!base_path.empty())
        return compareReports(base_path, out_path, threshold);
    return 0;
}

} // namespace carbonx::tools

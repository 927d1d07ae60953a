/**
 * @file
 * carbonx — command-line front end for the Carbon Explorer framework.
 *
 * Subcommands:
 *   sites                          List the Table 1 datacenter sites.
 *   regions                        List balancing-authority profiles.
 *   coverage  --ba --dc --solar --wind
 *                                  Renewable coverage of an investment.
 *   optimize  --ba --dc [--strategy ren|batt|cas|all|combined]
 *                                  Carbon-optimal design search.
 *   battery   --ba --dc --solar --wind [--target 99.99]
 *                                  Minimum battery for a coverage goal.
 *   schedule  --ba --dc [--flex 0.4] [--cap-mult 1.3]
 *                                  Carbon-aware scheduling savings.
 *   fleet     [--flex 0.4]         Geographic migration across the
 *                                  thirteen-site Meta fleet.
 *   explain   --ba --dc [--solar S --wind W --battery B --extra X]
 *                                  Re-simulate one design point with
 *                                  the flight recorder on, audit the
 *                                  recording, and print the carbon
 *                                  waterfall.
 *   bench     [--smoke] [--compare BASE [--input CAND]]
 *                                  Macro perf scenarios under the
 *                                  phase profiler; BENCH_<tag>.json
 *                                  reports and a regression gate.
 *   inspect   <journal> [--format text|json|csv]
 *                                  Render a sweep decision journal
 *                                  (optimize --journal-out) into
 *                                  decision/wave/worker reports.
 *   run       <scenario-id> | --list | --check
 *                                  Execute a declarative scenario
 *                                  from scenarios/ (provenance-
 *                                  stamped report, expectations
 *                                  enforced); exit 5 on unknown ids.
 *
 * Common flags: --seed N, --year Y, --log-level L,
 * --metrics-out PATH, --trace-out PATH.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "arg_parser.h"
#include "bench_suite.h"
#include "inspect_suite.h"
#include "run_suite.h"
#include "carbon/operational.h"
#include "common/fnv.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/adaptive_sweep.h"
#include "core/explorer.h"
#include "core/report.h"
#include "datacenter/site.h"
#include "fleet/fleet.h"
#include "grid/balancing_authority.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/status.h"
#include "obs/trace.h"
#include "scheduler/greedy_scheduler.h"

namespace
{

using namespace carbonx;
using carbonx::tools::ArgParser;

ExplorerConfig
configFrom(const ArgParser &args)
{
    ExplorerConfig config;
    config.ba_code = args.getString("ba", "PACE");
    config.avg_dc_power_mw = MegaWatts(args.getDouble("dc", 19.0));
    config.flexible_ratio = Fraction(args.getDouble("flex", 0.4));
    config.year = static_cast<int>(args.getInt("year", 2020));
    config.seed = args.getUint64("seed", 2020);
    return config;
}

/**
 * One observability session per CLI invocation — the single place all
 * commands get their common flags handled. Construction applies
 * --log-level and --threads, enables span collection when --trace-out
 * was requested, and installs the process provenance manifest that
 * every artifact writer embeds. flush() writes the --metrics-out /
 * --trace-out files; the destructor flushes best-effort so a command
 * that dies on an exception still leaves its metrics and trace behind
 * for diagnosis.
 */
class ObsSession
{
  public:
    ObsSession(const ArgParser &args, int argc, char **argv)
        : args_(args)
    {
        setLogLevel(parseLogLevel(args.getString("log-level", "warn")));
        // 0 = auto (CARBONX_THREADS env, else hardware concurrency).
        setThreadCount(
            static_cast<size_t>(args.getUint64("threads", 0)));
        if (!args.getString("trace-out", "").empty())
            obs::SpanTracer::instance().setEnabled(true);

        std::string invocation = "carbonx";
        std::string config_blob;
        for (int i = 1; i < argc; ++i) {
            invocation += ' ';
            invocation += argv[i];
            config_blob += argv[i];
            config_blob += '\n';
        }
        obs::Provenance prov;
        prov.tool = "carbonx";
        prov.invocation = invocation;
        prov.config_hash = obs::fnv1a64Hex(config_blob);
        prov.region = args.getString("ba", "PACE");
        prov.year = static_cast<int>(args.getInt("year", 2020));
        prov.seed = args.getUint64("seed", 2020);
        prov.threads = threadCount();
        prov.build = obs::Provenance::buildInfo();
        prov.wall_time_utc = obs::Provenance::nowUtc();
        obs::setProcessProvenance(std::move(prov));
    }

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    /** Write --metrics-out / --trace-out files when requested. */
    void flush()
    {
        flushed_ = true;
        const std::string metrics_path =
            args_.getString("metrics-out", "");
        if (!metrics_path.empty())
            obs::MetricsRegistry::instance().writeFile(metrics_path);
        const std::string trace_path = args_.getString("trace-out", "");
        if (!trace_path.empty())
            obs::SpanTracer::instance().writeChromeTraceFile(trace_path);
    }

    ~ObsSession()
    {
        if (flushed_)
            return;
        try {
            flush();
        } catch (const std::exception &e) {
            // Unwinding from the command's own error; report the
            // flush failure but never throw out of a destructor.
            std::cerr << "carbonx: " << e.what() << '\n';
        }
    }

  private:
    const ArgParser &args_;
    bool flushed_ = false;
};

int
cmdSites()
{
    TextTable table("Datacenter sites (paper Table 1)",
                    {"#", "Location", "State", "BA", "Solar MW",
                     "Wind MW", "Avg DC MW"});
    for (const Site &s : SiteRegistry::instance().all()) {
        table.addRow({std::to_string(s.index), s.location, s.state,
                      s.ba_code, formatFixed(s.solar_invest_mw, 0),
                      formatFixed(s.wind_invest_mw, 0),
                      formatFixed(s.avg_dc_power_mw, 0)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdRegions()
{
    TextTable table("Balancing authorities",
                    {"Code", "Name", "Character", "Latitude",
                     "Wind cap MW", "Solar cap MW"});
    for (const auto &ba : BalancingAuthorityRegistry::instance().all()) {
        table.addRow({ba.code, ba.name,
                      renewableCharacterName(ba.character),
                      formatFixed(ba.latitude_deg, 1),
                      formatFixed(ba.windCapacityMw(), 0),
                      formatFixed(ba.solarCapacityMw(), 0)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdCoverage(const ArgParser &args)
{
    const ExplorerConfig config = configFrom(args);
    const double solar = args.getDouble("solar", 0.0);
    const double wind = args.getDouble("wind", 0.0);
    const CarbonExplorer explorer(config);
    const auto &cov = explorer.coverageAnalyzer();

    std::cout << "Region " << config.ba_code << ", DC "
              << config.avg_dc_power_mw << " avg\n"
              << "Investment: solar " << solar << " MW, wind " << wind
              << " MW\n"
              << "Hourly 24/7 coverage: "
              << formatPercent(cov.coverage(MegaWatts(solar), MegaWatts(wind))) << '\n'
              << "Under average-day assumption (optimistic): "
              << formatPercent(
                     cov.coverageAssumingAverageDay(MegaWatts(solar), MegaWatts(wind)))
              << '\n';
    return 0;
}

Strategy
parseStrategy(const std::string &name)
{
    if (name == "ren")
        return Strategy::RenewablesOnly;
    if (name == "batt")
        return Strategy::RenewableBattery;
    if (name == "cas")
        return Strategy::RenewableCas;
    if (name == "combined")
        return Strategy::RenewableBatteryCas;
    throw UserError("unknown strategy '" + name +
                    "' (ren|batt|cas|combined|all)");
}

/**
 * Open the per-strategy persistent sweep cache when --cache-dir was
 * given (created on demand; one file per config digest, so unrelated
 * studies coexist in the same directory). --resume additionally
 * asserts that reusable results exist — a typo'd flag that changes
 * the digest then fails loudly instead of silently re-simulating
 * everything.
 */
std::unique_ptr<SweepResultCache>
makeSweepCache(const ArgParser &args, const CarbonExplorer &explorer,
               Strategy strategy)
{
    const std::string dir = args.getString("cache-dir", "");
    const bool resume = args.getBool("resume");
    if (dir.empty()) {
        require(!resume, "--resume needs --cache-dir to know where "
                         "the interrupted sweep's results live");
        return nullptr;
    }
    std::filesystem::create_directories(dir);
    const uint64_t digest = explorer.configDigest(strategy);
    const std::string path =
        (std::filesystem::path(dir) /
         ("sweep-" + fnvHex(digest) + ".cxrc"))
            .string();
    std::ostringstream prov;
    obs::processProvenance().writeJson(prov, "");
    auto cache =
        std::make_unique<SweepResultCache>(path, digest, prov.str());
    if (resume) {
        require(cache->loadedFromDisk() > 0,
                "--resume: no reusable results in " + path +
                    (cache->rebuildReason().empty()
                         ? std::string(" (no prior run with this "
                                       "configuration?)")
                         : " (" + cache->rebuildReason() + ")"));
        inform("resuming " + strategyName(strategy) + " sweep: " +
               std::to_string(cache->loadedFromDisk()) +
               " cached evaluations from " + path);
    }
    return cache;
}

int
cmdOptimize(const ArgParser &args, obs::RunStatus &status)
{
    // Declarative path: --scenario resolves the whole study from the
    // registry and shares `carbonx run`'s semantics, including exit
    // code 5 on an unknown id or an empty registry.
    if (args.has("scenario")) {
        const scenario::ScenarioRegistry registry =
            tools::loadScenarioRegistry(args);
        const scenario::Scenario *s = tools::resolveScenario(
            registry, args.getString("scenario", ""));
        if (s == nullptr)
            return tools::kExitNoScenario;
        return tools::runResolvedScenario(*s, args);
    }

    const ExplorerConfig config = configFrom(args);
    CarbonExplorer explorer(config);
    explorer.setAbortAfterPoints(
        static_cast<size_t>(args.getUint64("abort-after-points", 0)));

    // Live run status: the sweep publishes its passes and waves into
    // `status` (owned by main so it outlives the explorer while
    // exceptions unwind), each milestone republishes the page, and
    // SIGUSR1 dumps it to stderr on demand. The milestone callback is
    // always installed — it doubles as the SIGUSR1 poll point — but
    // stderr progress lines stay opt-in.
    explorer.setRunStatus(&status);
    obs::installStatusSignalHandler();
    const bool progress = args.getBool("progress");
    const std::string status_path = args.getString("status-out", "");
    status.setMilestoneCallback(
        [&status, status_path, progress](const obs::SweepProgress &p) {
            if (progress) {
                // At most obs::RunStatus::kMilestonesPerPass lines
                // per pass plus the final one, on stderr so stdout
                // stays a clean parseable table.
                std::cerr << "progress: pass " << p.pass << ' '
                          << p.points_done << '/' << p.points_total
                          << " points, best "
                          << formatFixed(p.best_total_kg / 1e3, 1)
                          << " tCO2, eta "
                          << formatFixed(std::max(p.eta_seconds, 0.0),
                                         1)
                          << "s\n";
            }
            if (!status_path.empty())
                status.writeFile(status_path);
            if (obs::consumeStatusSignal())
                status.writeText(std::cerr);
        });

    // Decision journal: one per run, covering every strategy swept.
    // The header digest folds each strategy's config digest so a
    // journal can be matched to its caches; checkpoint() keeps it
    // durable through aborts, and the destructor is the last-resort
    // flush on error paths.
    std::unique_ptr<obs::DecisionJournal> journal;
    const std::string journal_path = args.getString("journal-out", "");
    const double reach = args.getDouble("reach", 10.0);
    const DesignSpace space = DesignSpace::forDatacenter(
        config.avg_dc_power_mw.value(), reach, 7, 7, 3);

    const std::string which = args.getString("strategy", "all");
    std::vector<Strategy> strategies;
    if (which == "all") {
        strategies = {Strategy::RenewablesOnly,
                      Strategy::RenewableBattery,
                      Strategy::RenewableCas,
                      Strategy::RenewableBatteryCas};
    } else {
        strategies = {parseStrategy(which)};
    }

    if (!journal_path.empty()) {
        uint64_t digest = kFnvOffsetBasis;
        for (Strategy s : strategies) {
            const uint64_t d = explorer.configDigest(s);
            digest = fnv1a64Bytes(&d, sizeof(d), digest);
        }
        std::ostringstream prov;
        obs::processProvenance().writeJson(prov, "");
        journal = std::make_unique<obs::DecisionJournal>(
            journal_path, digest, prov.str());
        explorer.setJournal(journal.get());
    }

    const bool adaptive = args.getBool("refine");
    std::vector<Evaluation> bests;
    for (Strategy s : strategies) {
        const std::unique_ptr<SweepResultCache> cache =
            makeSweepCache(args, explorer, s);
        explorer.setSweepCache(cache.get());
        if (journal != nullptr && cache != nullptr &&
            !cache->rebuildReason().empty()) {
            // The cache dropped corrupt or mismatched on-disk state
            // while loading; journal it so `inspect` can explain a
            // cold-looking run that was supposed to be warm.
            obs::DecisionRow row;
            row.verdict = obs::DecisionVerdict::CacheCorrupt;
            row.predicted_kg =
                std::numeric_limits<double>::quiet_NaN();
            row.actual_kg = row.predicted_kg;
            row.margin_kg = row.predicted_kg;
            row.ts_us = journal->nowUs();
            journal->sink(0).record(row);
        }
        if (adaptive) {
            const AdaptiveSweepResult adaptive_result =
                AdaptiveSweeper(explorer).sweep(space, s, 2);
            const AdaptiveSweepStats &st = adaptive_result.stats;
            std::cerr << "refine[" << strategyName(s) << "]: "
                      << st.simulated_points << " simulated, "
                      << st.cache_hits << " cached, "
                      << st.points_skipped << '/' << st.lattice_points
                      << " skipped\n";
            bests.push_back(adaptive_result.result.best);
        } else {
            bests.push_back(explorer.optimize(space, s, 2).best);
        }
        explorer.setSweepCache(nullptr);
    }
    if (journal != nullptr) {
        journal->flush();
        explorer.setJournal(nullptr);
        inform("decision journal: " +
               std::to_string(journal->flushedRows()) + " rows in " +
               journal->path());
    }
    if (!status_path.empty()) {
        status.setPhase("done");
        status.writeFile(status_path);
    }
    printEvaluationTable(std::cout,
                         "Carbon-optimal designs (" + config.ba_code +
                             ", " +
                             formatFixed(config.avg_dc_power_mw.value(), 0) +
                             " MW)",
                         bests);
    return 0;
}

int
cmdBattery(const ArgParser &args)
{
    const ExplorerConfig config = configFrom(args);
    const CarbonExplorer explorer(config);
    const double solar = args.getDouble("solar", 0.0);
    const double wind = args.getDouble("wind", 0.0);
    const double target = args.getDouble("target", 99.99);

    const double mwh =
        explorer
            .minimumBatteryForCoverage(
                MegaWatts(solar), MegaWatts(wind), target,
                MegaWattHours(400.0 * config.avg_dc_power_mw.value()))
            .value();
    if (mwh < 0.0) {
        std::cout << "Target " << target
                  << "% unreachable with any battery up to "
                  << 400.0 * config.avg_dc_power_mw.value()
                  << " MWh at this investment — add renewables or "
                     "scheduling.\n";
        return 1;
    }
    std::cout << "Minimum battery for " << target
              << "% coverage: " << formatFixed(mwh, 1) << " MWh ("
              << formatFixed(mwh / config.avg_dc_power_mw.value(), 1)
              << " hours of compute)\n";
    return 0;
}

int
cmdSchedule(const ArgParser &args)
{
    const ExplorerConfig config = configFrom(args);
    const CarbonExplorer explorer(config);
    const TimeSeries &load = explorer.dcPower();
    const TimeSeries &intensity = explorer.gridIntensity();

    SchedulerConfig sched;
    sched.capacity_cap_mw = explorer.dcPeakPowerMw() *
                            args.getDouble("cap-mult", 1.3);
    sched.flexible_ratio = Fraction(config.flexible_ratio);
    const ScheduleResult result =
        GreedyCarbonScheduler(sched).schedule(load, intensity);

    const double before =
        OperationalCarbonModel::gridEmissions(load, intensity).value();
    const double after = OperationalCarbonModel::gridEmissions(
                             result.reshaped_power, intensity)
                             .value();
    std::cout << "Carbon-aware scheduling on " << config.ba_code
              << " (flex " << formatPercent(
                     sched.flexible_ratio.percent(), 0)
              << ", cap " << formatFixed(sched.capacity_cap_mw.value(), 1)
              << " MW)\n"
              << "Moved " << formatFixed(result.moved_mwh.value(), 0)
              << " MWh; emissions "
              << formatFixed(KilogramsCo2(before).kilotons(), 2)
              << " -> "
              << formatFixed(KilogramsCo2(after).kilotons(), 2)
              << " ktCO2 ("
              << formatPercent(100.0 * (before - after) / before)
              << " saved)\n";
    return 0;
}

int
cmdExplain(const ArgParser &args)
{
    const ExplorerConfig config = configFrom(args);
    CarbonExplorer explorer(config);
    const Strategy strategy =
        parseStrategy(args.getString("strategy", "combined"));

    // The point to explain: taken from the flags when any design axis
    // was given, otherwise the best of a coarse sweep — so a bare
    // `carbonx explain` dissects the same optimum `optimize` reports.
    DesignPoint point;
    bool from_sweep = false;
    Evaluation sweep_best;
    if (args.has("solar") || args.has("wind") || args.has("battery") ||
        args.has("extra")) {
        point.solar_mw = MegaWatts(args.getDouble("solar", 0.0));
        point.wind_mw = MegaWatts(args.getDouble("wind", 0.0));
        point.battery_mwh =
            MegaWattHours(args.getDouble("battery", 0.0));
        point.extra_capacity = Fraction(args.getDouble("extra", 0.0));
    } else {
        const double reach = args.getDouble("reach", 6.0);
        const DesignSpace space = DesignSpace::forDatacenter(
            config.avg_dc_power_mw.value(), reach, 4, 3, 2);
        // The coarse sweep reuses (and feeds) the persistent cache,
        // so `explain` after `optimize --cache-dir D` replays stored
        // evaluations instead of re-simulating its whole lattice.
        const std::unique_ptr<SweepResultCache> cache =
            makeSweepCache(args, explorer, strategy);
        explorer.setSweepCache(cache.get());
        sweep_best = explorer.optimize(space, strategy).best;
        explorer.setSweepCache(nullptr);
        point = sweep_best.point;
        from_sweep = true;
        std::cout << "Best of sweep: "
                  << summarizeEvaluation(sweep_best) << '\n';
    }

    // Tag the process manifest with the explained point so every
    // artifact written below says exactly which design it describes.
    {
        obs::Provenance prov = obs::processProvenance();
        prov.extra.emplace_back("strategy", strategyName(strategy));
        prov.extra.emplace_back("design_point", point.describe());
        obs::setProcessProvenance(std::move(prov));
    }

    const ExplainResult ex = explorer.explain(point, strategy);

    int rc = 0;
    if (from_sweep) {
        // Bitwise, not approximate: the recording's carbon ledger is
        // only trustworthy if the re-simulation is the same number.
        if (ex.evaluation.totalKg().value() ==
            sweep_best.totalKg().value()) {
            std::cout << "Re-simulation reproduces the sweep-reported "
                         "total exactly ("
                      << formatFixed(ex.evaluation.totalKg().kilotons(),
                                     2)
                      << " ktCO2).\n";
        } else {
            std::cerr << "carbonx: re-simulated total "
                      << ex.evaluation.totalKg().value()
                      << " kg diverged from the sweep-reported "
                      << sweep_best.totalKg().value() << " kg\n";
            rc = 1;
        }
    }

    std::cout << '\n';
    printCarbonWaterfall(std::cout, ex);

    const obs::AuditReport audit =
        auditRecording(ex.recording, ex.auditContext());
    std::cout << '\n';
    audit.write(std::cout);
    if (!audit.clean())
        rc = 1;

    const std::string timeline_path =
        args.getString("timeline-out", "");
    if (!timeline_path.empty())
        writeTimelineFile(timeline_path, ex.recording);

    // Per-hour counter lanes next to the spans in the Chrome trace.
    auto &tracer = obs::SpanTracer::instance();
    if (tracer.enabled()) {
        tracer.addCounterTrack("hourly/grid_mw", ex.recording.grid_mw);
        tracer.addCounterTrack("hourly/renewable_used_mw",
                               ex.recording.renewable_used_mw);
        tracer.addCounterTrack("hourly/battery_energy_mwh",
                               ex.recording.battery_energy_mwh);
        tracer.addCounterTrack("hourly/backlog_mwh",
                               ex.recording.backlog_mwh);
        tracer.addCounterTrack("hourly/carbon_kg",
                               ex.recording.carbon_kg);
    }
    return rc;
}

int
cmdFleet(const ArgParser &args)
{
    const double flex = args.getDouble("flex", 0.4);
    const FleetSimulator fleet(FleetSimulator::metaFleet(flex));
    const FleetResult base = fleet.runWithoutMigration();
    const FleetResult migrated = fleet.runWithMigration();
    std::cout << "Meta fleet (13 sites), migratable ratio "
              << formatPercent(100.0 * flex, 0) << "\n"
              << "Coverage: " << formatFixed(base.coverage_pct, 2)
              << "% -> " << formatFixed(migrated.coverage_pct, 2)
              << "%\nEmissions: "
              << formatFixed(
                     KilogramsCo2(base.total_emissions_kg).kilotons(),
                     1)
              << " -> "
              << formatFixed(KilogramsCo2(migrated.total_emissions_kg)
                                 .kilotons(),
                             1)
              << " ktCO2\nMigrated energy: "
              << formatFixed(migrated.migrated_mwh / 1e3, 1)
              << " GWh\n";
    return 0;
}

void
usage()
{
    std::cout <<
        "carbonx — Carbon Explorer CLI\n"
        "usage: carbonx <command> [flags]\n\n"
        "commands:\n"
        "  sites                              list Table 1 sites\n"
        "  regions                            list balancing "
        "authorities\n"
        "  coverage --ba PACE --dc 19 --solar 100 --wind 50\n"
        "  optimize --ba PACE --dc 19 [--strategy all|ren|batt|cas|"
        "combined] [--reach 10] [--progress]\n"
        "           [--refine]             adaptive multi-resolution "
        "sweep (bit-identical best, fewer simulations)\n"
        "           [--cache-dir DIR]      persistent result cache; "
        "reruns replay cached evaluations\n"
        "           [--resume]             require cached results "
        "(continue an interrupted --cache-dir sweep)\n"
        "           [--abort-after-points N]  checkpoint then abort "
        "after N fresh simulations (exit 3; CI hook)\n"
        "           [--journal-out PATH]   per-decision sweep journal "
        "(render with `carbonx inspect`)\n"
        "           [--status-out PATH]    live status page, "
        "atomically rewritten at each progress milestone\n"
        "                                  (SIGUSR1 dumps the same "
        "page to stderr on demand)\n"
        "  battery  --ba PACE --dc 19 --solar 100 --wind 50 "
        "[--target 99.99]\n"
        "  schedule --ba PACE --dc 19 [--flex 0.4] [--cap-mult 1.3]\n"
        "  fleet    [--flex 0.4]\n"
        "  explain  --ba PACE --dc 19 [--strategy ren|batt|cas|"
        "combined]\n"
        "           [--solar S --wind W --battery B --extra X]  "
        "(default: best of a coarse sweep)\n"
        "           [--timeline-out PATH]  hourly recording "
        "(.csv/.json)\n"
        "           [--cache-dir DIR] [--resume]  reuse optimize's "
        "sweep cache for the coarse sweep\n"
        "  bench    [--smoke] [--reps N] [--tag NAME] [--out PATH]\n"
        "           run the macro perf scenarios under the phase "
        "profiler; write BENCH_<tag>.json\n"
        "           [--compare BASE [--threshold PCT]]  regression "
        "gate vs a baseline report (exit 4 on breach)\n"
        "           [--compare BASE --input CAND]  compare two "
        "existing reports, run nothing\n"
        "  inspect  <journal> [--format text|json|csv]\n"
        "           decision breakdown, wave timeline, cache "
        "efficacy and per-worker utilization of a\n"
        "           --journal-out file; --trace-out adds per-wave "
        "counter tracks to the span trace\n"
        "  run      <scenario-id> [--refine|--exhaustive] "
        "[--report-out PATH] [--cache-dir DIR]\n"
        "           [--journal-out PATH] [--scenario-dir DIR]  "
        "execute a declarative scenario; the report's\n"
        "           best point is bit-identical between exhaustive "
        "and --refine runs\n"
        "           --list [--tag TAG]     table of runnable "
        "scenarios\n"
        "           --check                validate every scenario "
        "file and exit\n"
        "           (optimize --scenario ID runs the same path; "
        "unknown ids exit 5 with a near-miss list)\n\n"
        "common flags: --seed N --year Y\n"
        "              --threads N          sweep worker threads "
        "(0 = auto; CARBONX_THREADS env also honored)\n"
        "              --log-level silent|warn|info|debug\n"
        "              --metrics-out PATH   dump the metrics registry "
        "(.json/.csv/text)\n"
        "              --trace-out PATH     write a chrome://tracing "
        "span trace\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using carbonx::tools::ArgParser;
    const ArgParser args(argc, argv);
    if (args.positionals().empty()) {
        usage();
        return 2;
    }
    const std::string &command = args.positionals().front();
    int rc = 2;
    // Outlives the explorer inside cmdOptimize: sweep workers publish
    // into it, and it stays valid while exceptions unwind.
    carbonx::obs::RunStatus run_status;
    try {
        ObsSession obs_session(args, argc, argv);
        try {
            if (command == "sites")
                rc = cmdSites();
            else if (command == "regions")
                rc = cmdRegions();
            else if (command == "coverage")
                rc = cmdCoverage(args);
            else if (command == "optimize")
                rc = cmdOptimize(args, run_status);
            else if (command == "battery")
                rc = cmdBattery(args);
            else if (command == "schedule")
                rc = cmdSchedule(args);
            else if (command == "fleet")
                rc = cmdFleet(args);
            else if (command == "explain")
                rc = cmdExplain(args);
            else if (command == "bench")
                rc = tools::cmdBench(args);
            else if (command == "inspect")
                rc = tools::cmdInspect(args);
            else if (command == "run")
                rc = tools::cmdRun(args);
            else {
                std::cerr << "unknown command: " << command << "\n\n";
                usage();
                return 2;
            }
            obs_session.flush();
            return rc;
        } catch (const carbonx::SweepAborted &e) {
            // The deliberate checkpoint-abort hook: everything
            // simulated so far is flushed to the cache, so a rerun
            // with --resume picks up exactly where this run stopped.
            // Distinct exit code so the CI resume-smoke can tell
            // "aborted as planned" from a real failure. The metrics
            // and trace flush is explicit here — not left to the
            // session destructor's best-effort path — so a flush
            // failure surfaces as an error instead of a half-written
            // artifact next to exit code 3.
            obs_session.flush();
            std::cerr << "carbonx: " << e.what() << '\n';
            return 3;
        }
    } catch (const carbonx::Error &e) {
        std::cerr << "carbonx: " << e.what() << '\n';
        return 1;
    }
}

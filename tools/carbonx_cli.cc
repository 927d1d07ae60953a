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
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

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
 * The sweep of @p strategy as the flags ask for it. With --cache-dir
 * the result cache lives there, one file per config digest, so
 * unrelated studies coexist in the same directory. --resume makes
 * runSweep require reusable results — a typo'd flag that changes the
 * digest then fails loudly instead of silently re-simulating
 * everything.
 */
SweepRequest
sweepRequestFrom(const ArgParser &args, const CarbonExplorer &explorer,
                 Strategy strategy)
{
    SweepRequest request;
    request.strategy = strategy;
    request.resume = args.getBool("resume");
    const std::string dir = args.getString("cache-dir", "");
    if (dir.empty()) {
        require(!request.resume,
                "--resume needs --cache-dir to know where the "
                "interrupted sweep's results live");
        return request;
    }
    request.cache_path =
        (std::filesystem::path(dir) /
         ("sweep-" + fnvHex(explorer.configDigest(strategy)) + ".cxrc"))
            .string();
    std::ostringstream prov;
    obs::processProvenance().writeJson(prov, "");
    request.cache_provenance = prov.str();
    return request;
}

int
cmdOptimize(const ArgParser &args, obs::RunStatus &status)
{
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
        SweepRequest request = sweepRequestFrom(args, explorer, s);
        request.mode =
            adaptive ? SweepMode::Adaptive : SweepMode::Exhaustive;
        request.refine_rounds = 2;
        const AdaptiveSweepResult sweep =
            runSweep(explorer, space, request);
        if (adaptive) {
            const AdaptiveSweepStats &st = sweep.stats;
            std::cerr << "refine[" << strategyName(s) << "]: "
                      << st.simulated_points << " simulated, "
                      << st.cache_hits << " cached, "
                      << st.points_skipped << '/' << st.lattice_points
                      << " skipped\n";
        }
        bests.push_back(sweep.result.best);
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
        sweep_best =
            runSweep(explorer, space,
                     sweepRequestFrom(args, explorer, strategy))
                .result.best;
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

/** Flags every command takes (the observability session's). */
const std::vector<std::string_view> kCommonFlags = {
    "seed", "year", "threads", "log-level", "metrics-out", "trace-out"};

/** One subcommand: what it reads, how to call it, what it runs. */
struct Command
{
    std::string_view name;
    /** The flags it reads besides kCommonFlags. */
    std::vector<std::string_view> flags;
    /** Its lines of the usage text. */
    std::string_view usage;
    int (*run)(const ArgParser &args, obs::RunStatus &status);
};

const std::vector<Command> &
commands()
{
    static const std::vector<Command> table = {
        {"sites",
         {},
         "  sites                              list Table 1 sites\n",
         [](const ArgParser &, obs::RunStatus &) { return cmdSites(); }},
        {"regions",
         {},
         "  regions                            list balancing "
         "authorities\n",
         [](const ArgParser &, obs::RunStatus &) { return cmdRegions(); }},
        {"coverage",
         {"ba", "dc", "flex", "solar", "wind"},
         "  coverage --ba PACE --dc 19 --solar 100 --wind 50\n",
         [](const ArgParser &args, obs::RunStatus &) {
             return cmdCoverage(args);
         }},
        {"optimize",
         {"ba", "dc", "flex", "strategy", "reach", "progress", "refine",
          "cache-dir", "resume", "abort-after-points", "journal-out",
          "status-out"},
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
         "page to stderr on demand)\n",
         cmdOptimize},
        {"battery",
         {"ba", "dc", "flex", "solar", "wind", "target"},
         "  battery  --ba PACE --dc 19 --solar 100 --wind 50 "
         "[--target 99.99]\n",
         [](const ArgParser &args, obs::RunStatus &) {
             return cmdBattery(args);
         }},
        {"schedule",
         {"ba", "dc", "flex", "cap-mult"},
         "  schedule --ba PACE --dc 19 [--flex 0.4] [--cap-mult 1.3]\n",
         [](const ArgParser &args, obs::RunStatus &) {
             return cmdSchedule(args);
         }},
        {"fleet",
         {"flex"},
         "  fleet    [--flex 0.4]\n",
         [](const ArgParser &args, obs::RunStatus &) {
             return cmdFleet(args);
         }},
        {"explain",
         {"ba", "dc", "flex", "strategy", "solar", "wind", "battery",
          "extra", "reach", "timeline-out", "cache-dir", "resume"},
         "  explain  --ba PACE --dc 19 [--strategy ren|batt|cas|"
         "combined]\n"
         "           [--solar S --wind W --battery B --extra X]  "
         "(default: best of a coarse sweep)\n"
         "           [--timeline-out PATH]  hourly recording "
         "(.csv/.json)\n"
         "           [--cache-dir DIR] [--resume]  reuse optimize's "
         "sweep cache for the coarse sweep\n",
         [](const ArgParser &args, obs::RunStatus &) {
             return cmdExplain(args);
         }},
        {"bench",
         {"smoke", "reps", "tag", "out", "compare", "threshold", "input"},
         "  bench    [--smoke] [--reps N] [--tag NAME] [--out PATH]\n"
         "           run the macro perf scenarios under the phase "
         "profiler; write BENCH_<tag>.json\n"
         "           [--compare BASE [--threshold PCT]]  regression "
         "gate vs a baseline report (exit 4 on breach)\n"
         "           [--compare BASE --input CAND]  compare two "
         "existing reports, run nothing\n",
         [](const ArgParser &args, obs::RunStatus &) {
             return tools::cmdBench(args);
         }},
        {"inspect",
         {"format"},
         "  inspect  <journal> [--format text|json|csv]\n"
         "           decision breakdown, wave timeline, cache "
         "efficacy and per-worker utilization of a\n"
         "           --journal-out file; --trace-out adds per-wave "
         "counter tracks to the span trace\n",
         [](const ArgParser &args, obs::RunStatus &) {
             return tools::cmdInspect(args);
         }},
        {"run",
         {"refine", "exhaustive", "report-out", "cache-dir",
          "journal-out", "scenario-dir", "list", "tag", "check"},
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
         "           (unknown ids exit 5 with a near-miss list)\n",
         [](const ArgParser &args, obs::RunStatus &) {
             return tools::cmdRun(args);
         }},
    };
    return table;
}

void
usage()
{
    std::cout << "carbonx — Carbon Explorer CLI\n"
                 "usage: carbonx <command> [flags]\n\n"
                 "commands:\n";
    for (const Command &command : commands())
        std::cout << command.usage;
    std::cout <<
        "\n"
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
    const std::string &name = args.positionals().front();
    const auto command =
        std::find_if(commands().begin(), commands().end(),
                     [&name](const Command &c) { return c.name == name; });
    if (command == commands().end()) {
        std::cerr << "unknown command: " << name << "\n\n";
        usage();
        return 2;
    }
    // Before anything runs: a flag the command does not declare (a
    // typo, or --help) is a usage error, not a silent no-op.
    try {
        std::vector<std::string_view> known = kCommonFlags;
        known.insert(known.end(), command->flags.begin(),
                     command->flags.end());
        args.requireKnownFlags(known);
    } catch (const carbonx::UserError &e) {
        std::cerr << "carbonx: " << e.what() << "\nusage:\n"
                  << command->usage;
        return 2;
    }
    // Outlives the explorer inside cmdOptimize: sweep workers publish
    // into it, and it stays valid while exceptions unwind.
    carbonx::obs::RunStatus run_status;
    try {
        ObsSession obs_session(args, argc, argv);
        try {
            const int rc = command->run(args, run_status);
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

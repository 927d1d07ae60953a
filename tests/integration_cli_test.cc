/**
 * @file
 * Integration tests of the carbonx CLI binary: every subcommand must
 * run, exit cleanly, and print its expected table. Tests skip when
 * the binary is not at the expected build location (e.g. when the
 * test binary is run standalone from another directory).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"

namespace
{

constexpr const char *kCliPath = "../tools/carbonx";

/** Run a CLI command line, capturing stdout+stderr and exit code. */
struct CliRun
{
    int exit_code = -1;
    std::string output;
};

CliRun
runCli(const std::string &args)
{
    CliRun result;
    const std::string command =
        std::string(kCliPath) + " " + args + " 2>&1";
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return result;
    std::array<char, 512> buffer;
    while (fgets(buffer.data(), buffer.size(), pipe) != nullptr)
        result.output += buffer.data();
    const int status = pclose(pipe);
    result.exit_code = WEXITSTATUS(status);
    return result;
}

/** Like CliRun, but with stdout and stderr captured separately. */
struct CliRunSplit
{
    int exit_code = -1;
    std::string out;
    std::string err;
};

CliRunSplit
runCliSplit(const std::string &args)
{
    CliRunSplit result;
    const std::string err_path =
        ::testing::UnitTest::GetInstance()
            ->current_test_info()
            ->name() +
        std::string(".stderr.txt");
    const std::string command =
        std::string(kCliPath) + " " + args + " 2>" + err_path;
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return result;
    std::array<char, 512> buffer;
    while (fgets(buffer.data(), buffer.size(), pipe) != nullptr)
        result.out += buffer.data();
    const int status = pclose(pipe);
    result.exit_code = WEXITSTATUS(status);

    std::ifstream err_file(err_path);
    std::ostringstream err;
    err << err_file.rdbuf();
    result.err = err.str();
    std::remove(err_path.c_str());
    return result;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

bool
cliAvailable()
{
    FILE *f = std::fopen(kCliPath, "rb");
    if (f == nullptr)
        return false;
    std::fclose(f);
    return true;
}

#define REQUIRE_CLI()                                                 \
    do {                                                              \
        if (!cliAvailable())                                          \
            GTEST_SKIP() << "carbonx CLI not found at " << kCliPath;  \
    } while (0)

TEST(Cli, NoArgsPrintsUsage)
{
    REQUIRE_CLI();
    const CliRun run = runCli("");
    EXPECT_EQ(run.exit_code, 2);
    EXPECT_NE(run.output.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails)
{
    REQUIRE_CLI();
    const CliRun run = runCli("frobnicate");
    EXPECT_EQ(run.exit_code, 2);
    EXPECT_NE(run.output.find("unknown command"), std::string::npos);
}

TEST(Cli, SitesListsThirteen)
{
    REQUIRE_CLI();
    const CliRun run = runCli("sites");
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_NE(run.output.find("Prineville, Oregon"),
              std::string::npos);
    EXPECT_NE(run.output.find("Huntsville, Alabama"),
              std::string::npos);
}

TEST(Cli, RegionsListsBalancingAuthorities)
{
    REQUIRE_CLI();
    const CliRun run = runCli("regions");
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_NE(run.output.find("ERCO"), std::string::npos);
    EXPECT_NE(run.output.find("Majorly Solar"), std::string::npos);
}

TEST(Cli, CoverageReportsPercentage)
{
    REQUIRE_CLI();
    const CliRun run =
        runCli("coverage --ba PACE --dc 19 --solar 694 --wind 239");
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_NE(run.output.find("Hourly 24/7 coverage:"),
              std::string::npos);
}

TEST(Cli, BatteryFindsASize)
{
    REQUIRE_CLI();
    const CliRun run =
        runCli("battery --ba PACE --dc 19 --solar 694 --wind 239");
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_NE(run.output.find("hours of compute"), std::string::npos);
}

TEST(Cli, ScheduleReportsSavings)
{
    REQUIRE_CLI();
    const CliRun run = runCli("schedule --ba PACE --dc 19");
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_NE(run.output.find("saved"), std::string::npos);
}

TEST(Cli, BadFlagValueFailsGracefully)
{
    REQUIRE_CLI();
    const CliRun run = runCli("coverage --ba PACE --dc notanumber");
    EXPECT_EQ(run.exit_code, 1);
    EXPECT_NE(run.output.find("carbonx:"), std::string::npos);
}

TEST(Cli, UnknownRegionFailsGracefully)
{
    REQUIRE_CLI();
    const CliRun run = runCli("coverage --ba NOPE --dc 19");
    EXPECT_EQ(run.exit_code, 1);
    EXPECT_NE(run.output.find("unknown balancing authority"),
              std::string::npos);
}

TEST(Cli, OptimizeProgressRendersOnStderrOnly)
{
    REQUIRE_CLI();
    const CliRunSplit run = runCliSplit(
        "optimize --ba PACE --dc 19 --strategy ren --progress");
    EXPECT_EQ(run.exit_code, 0);

    // Progress lines go to stderr with counts, best-so-far, and ETA.
    EXPECT_NE(run.err.find("progress: pass 0"), std::string::npos);
    EXPECT_NE(run.err.find("points, best"), std::string::npos);
    EXPECT_NE(run.err.find("tCO2, eta"), std::string::npos);

    // stdout stays a clean parseable table, untouched by progress.
    EXPECT_NE(run.out.find("Carbon-optimal designs"),
              std::string::npos);
    EXPECT_EQ(run.out.find("progress:"), std::string::npos);
}

TEST(Cli, OptimizeWritesMetricsAndTraceFiles)
{
    REQUIRE_CLI();
    const std::string metrics_path = "cli_obs_metrics.json";
    const std::string trace_path = "cli_obs_trace.json";
    const CliRunSplit run = runCliSplit(
        "optimize --ba PACE --dc 19 --strategy ren --metrics-out " +
        metrics_path + " --trace-out " + trace_path);
    EXPECT_EQ(run.exit_code, 0);

    const std::string metrics = readFile(metrics_path);
    EXPECT_NE(metrics.find("\"explorer.points_evaluated\""),
              std::string::npos);
    // The sweep runs on the batched SoA kernel, so the simulation
    // counters/spans are the batch ones.
    EXPECT_NE(metrics.find("\"sim.batch_runs\""), std::string::npos);
    EXPECT_NE(metrics.find("\"sim.batch_lanes\""), std::string::npos);
    EXPECT_NE(metrics.find("\"explorer.point_eval_us\""),
              std::string::npos);

    const std::string trace = readFile(trace_path);
    EXPECT_EQ(trace.rfind("{\"traceEvents\": [", 0), 0u);
    EXPECT_NE(trace.find("sweep/pass"), std::string::npos);
    EXPECT_NE(trace.find("grid/synthesize"), std::string::npos);
    EXPECT_NE(trace.find("sim/batch_run"), std::string::npos);

    std::remove(metrics_path.c_str());
    std::remove(trace_path.c_str());
}

TEST(Cli, ExplainExplicitPointAuditsCleanAndWritesTimeline)
{
    REQUIRE_CLI();
    const std::string timeline_path = "cli_explain_timeline.csv";
    const CliRun run = runCli(
        "explain --ba PACE --dc 19 --solar 80 --wind 80 --battery 150"
        " --strategy combined --timeline-out " +
        timeline_path);
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_NE(run.output.find("Carbon waterfall"), std::string::npos);
    EXPECT_NE(run.output.find("all-grid counterfactual"),
              std::string::npos);
    EXPECT_NE(run.output.find("audit: 0 violations"),
              std::string::npos);

    const std::string timeline = readFile(timeline_path);
    // Provenance comment header, then the columnar hourly records.
    EXPECT_EQ(timeline.rfind("# tool: carbonx", 0), 0u);
    EXPECT_NE(timeline.find("# config_hash: "), std::string::npos);
    EXPECT_NE(timeline.find("# design_point: "), std::string::npos);
    EXPECT_NE(timeline.find("hour,load_mw,served_mw"),
              std::string::npos);
    EXPECT_NE(timeline.find(",carbon_kg\n"), std::string::npos);
    EXPECT_NE(timeline.find("\n0,"), std::string::npos);
    std::remove(timeline_path.c_str());
}

TEST(Cli, ExplainSweepBestReproducesTotalExactly)
{
    REQUIRE_CLI();
    const CliRun run =
        runCli("explain --ba PACE --dc 19 --strategy ren --reach 4");
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_NE(run.output.find("Best of sweep:"), std::string::npos);
    EXPECT_NE(run.output.find(
                  "reproduces the sweep-reported total exactly"),
              std::string::npos);
    EXPECT_NE(run.output.find("audit: 0 violations"),
              std::string::npos);
}

TEST(Cli, ExplainTraceCarriesHourlyCounterTracks)
{
    REQUIRE_CLI();
    const std::string trace_path = "cli_explain_trace.json";
    const CliRun run = runCli(
        "explain --ba PACE --dc 19 --solar 80 --wind 80 --battery 150"
        " --trace-out " +
        trace_path);
    EXPECT_EQ(run.exit_code, 0);
    const std::string trace = readFile(trace_path);
    EXPECT_NE(trace.find("\"hourly/grid_mw\""), std::string::npos);
    EXPECT_NE(trace.find("\"hourly/carbon_kg\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(trace.find("\"provenance\""), std::string::npos);
    std::remove(trace_path.c_str());
}

TEST(Cli, ScheduleWritesMetricsAndTraceFiles)
{
    REQUIRE_CLI();
    const std::string metrics_path = "cli_sched_metrics.json";
    const std::string trace_path = "cli_sched_trace.json";
    const CliRun run = runCli(
        "schedule --ba PACE --dc 19 --metrics-out " + metrics_path +
        " --trace-out " + trace_path);
    EXPECT_EQ(run.exit_code, 0);

    const std::string metrics = readFile(metrics_path);
    EXPECT_NE(metrics.find("\"provenance\""), std::string::npos);
    EXPECT_NE(metrics.find("\"counters\""), std::string::npos);

    const std::string trace = readFile(trace_path);
    EXPECT_EQ(trace.rfind("{\"traceEvents\": [", 0), 0u);
    EXPECT_NE(trace.find("grid/synthesize"), std::string::npos);

    std::remove(metrics_path.c_str());
    std::remove(trace_path.c_str());
}

TEST(Cli, BatteryWritesMetricsAndTraceFiles)
{
    REQUIRE_CLI();
    const std::string metrics_path = "cli_batt_metrics.json";
    const std::string trace_path = "cli_batt_trace.json";
    const CliRun run = runCli(
        "battery --ba PACE --dc 19 --solar 694 --wind 239"
        " --metrics-out " +
        metrics_path + " --trace-out " + trace_path);
    EXPECT_EQ(run.exit_code, 0);

    const std::string metrics = readFile(metrics_path);
    EXPECT_NE(metrics.find("\"provenance\""), std::string::npos);
    EXPECT_NE(metrics.find("\"sim.batch_runs\""), std::string::npos);

    const std::string trace = readFile(trace_path);
    EXPECT_EQ(trace.rfind("{\"traceEvents\": [", 0), 0u);
    EXPECT_NE(trace.find("sim/batch_run"), std::string::npos);

    std::remove(metrics_path.c_str());
    std::remove(trace_path.c_str());
}

TEST(Cli, CheckpointAbortStillWritesMetricsAndTrace)
{
    REQUIRE_CLI();
    const std::string metrics_path = "cli_abort_metrics.json";
    const std::string trace_path = "cli_abort_trace.json";
    const CliRun run = runCli(
        "optimize --ba PACE --dc 19 --strategy combined "
        "--abort-after-points 50 --metrics-out " +
        metrics_path + " --trace-out " + trace_path);
    // Deliberate checkpoint-abort: exit code 3, and both telemetry
    // files must still be written — completely, not best-effort.
    EXPECT_EQ(run.exit_code, 3);
    EXPECT_NE(run.output.find("carbonx:"), std::string::npos);

    const carbonx::JsonValue metrics =
        carbonx::JsonValue::parseFile(metrics_path);
    EXPECT_GT(metrics.at("counters", "metrics")
                  .at("explorer.points_evaluated", "counters")
                  .asNumber(),
              0.0);
    // The aborted pass still reports its partial sweep throughput.
    const carbonx::JsonValue *pps =
        metrics.at("gauges", "metrics").find("sweep.points_per_sec");
    ASSERT_NE(pps, nullptr);
    EXPECT_GT(pps->asNumber(), 0.0);

    const std::string trace = readFile(trace_path);
    EXPECT_EQ(trace.rfind("{\"traceEvents\": [", 0), 0u);
    EXPECT_NE(trace.find("sim/batch_run"), std::string::npos);

    std::remove(metrics_path.c_str());
    std::remove(trace_path.c_str());
}

TEST(Cli, OptimizeJournalReconcilesWithMetricsViaInspect)
{
    REQUIRE_CLI();
    const std::string journal_path = "cli_journal.cxj";
    const std::string status_path = "cli_journal_status.txt";
    const std::string metrics_path = "cli_journal_metrics.json";
    const CliRunSplit run = runCliSplit(
        "optimize --ba PACE --dc 19 --strategy ren --journal-out " +
        journal_path + " --status-out " + status_path +
        " --metrics-out " + metrics_path);
    EXPECT_EQ(run.exit_code, 0) << run.err;

    // The status page reached its terminal phase.
    const std::string status = readFile(status_path);
    EXPECT_NE(status.find("done"), std::string::npos);

    // The journal's decision counts reconcile exactly with the
    // metrics the sweep reported about itself.
    const CliRun inspect =
        runCli("inspect " + journal_path + " --format json");
    ASSERT_EQ(inspect.exit_code, 0) << inspect.output;
    const carbonx::JsonValue report =
        carbonx::JsonValue::parse(inspect.output);
    const carbonx::JsonValue metrics =
        carbonx::JsonValue::parseFile(metrics_path);
    const double evaluated = report.at("decisions", "report")
                                 .at("evaluated", "decisions")
                                 .asNumber();
    EXPECT_EQ(evaluated, metrics.at("counters", "metrics")
                             .at("explorer.points_evaluated",
                                 "counters")
                             .asNumber());
    EXPECT_EQ(report.at("rows", "report").asNumber(), evaluated)
        << "exhaustive sweep journals only evaluated rows";

    // The text rendering names its sections.
    const CliRun text = runCli("inspect " + journal_path);
    EXPECT_EQ(text.exit_code, 0);
    EXPECT_NE(text.output.find("Decision breakdown"),
              std::string::npos);
    EXPECT_NE(text.output.find("Wave timeline"), std::string::npos);
    EXPECT_NE(text.output.find("Per-worker utilization"),
              std::string::npos);

    std::remove(journal_path.c_str());
    std::remove(status_path.c_str());
    std::remove(metrics_path.c_str());
}

TEST(Cli, InspectIsByteStableAcrossInvocations)
{
    REQUIRE_CLI();
    const std::string journal_path = "cli_journal_stable.cxj";
    const CliRun make = runCli(
        "optimize --ba PACE --dc 19 --strategy ren --journal-out " +
        journal_path);
    ASSERT_EQ(make.exit_code, 0);

    for (const std::string format : {"text", "json", "csv"}) {
        const CliRun first =
            runCli("inspect " + journal_path + " --format " + format);
        const CliRun second =
            runCli("inspect " + journal_path + " --format " + format);
        EXPECT_EQ(first.exit_code, 0) << format;
        EXPECT_EQ(first.output, second.output)
            << format << " rendering must be byte-stable";
    }
    std::remove(journal_path.c_str());
}

TEST(Cli, CheckpointAbortStillFlushesTheJournal)
{
    REQUIRE_CLI();
    const std::string journal_path = "cli_abort_journal.cxj";
    const CliRun run = runCli(
        "optimize --ba PACE --dc 19 --strategy combined "
        "--abort-after-points 50 --journal-out " +
        journal_path);
    EXPECT_EQ(run.exit_code, 3);

    // Every decision made before the abort is on disk and readable.
    const CliRun inspect =
        runCli("inspect " + journal_path + " --format json");
    ASSERT_EQ(inspect.exit_code, 0) << inspect.output;
    const carbonx::JsonValue report =
        carbonx::JsonValue::parse(inspect.output);
    EXPECT_GE(report.at("rows", "report").asNumber(), 50.0);
    std::remove(journal_path.c_str());
}

TEST(Cli, InspectMissingOrCorruptJournalFailsGracefully)
{
    REQUIRE_CLI();
    const CliRun missing = runCli("inspect no_such_journal.cxj");
    EXPECT_EQ(missing.exit_code, 1);
    EXPECT_NE(missing.output.find("carbonx:"), std::string::npos);

    const std::string garbage_path = "cli_garbage.cxj";
    {
        std::ofstream out(garbage_path, std::ios::binary);
        out << "this is not a journal file at all";
    }
    const CliRun corrupt = runCli("inspect " + garbage_path);
    EXPECT_EQ(corrupt.exit_code, 1);
    EXPECT_NE(corrupt.output.find("carbonx:"), std::string::npos);
    std::remove(garbage_path.c_str());

    const CliRun noarg = runCli("inspect");
    EXPECT_EQ(noarg.exit_code, 1);
    EXPECT_NE(noarg.output.find("usage: carbonx inspect"),
              std::string::npos);
}

TEST(Cli, BadLogLevelFailsGracefully)
{
    REQUIRE_CLI();
    const CliRun run = runCli("sites --log-level loud");
    EXPECT_EQ(run.exit_code, 1);
    EXPECT_NE(run.output.find("unknown log level"), std::string::npos);
}

TEST(Cli, FractionalSeedIsRejected)
{
    REQUIRE_CLI();
    const CliRun run =
        runCli("coverage --ba PACE --dc 19 --seed 2020.5");
    EXPECT_EQ(run.exit_code, 1);
    EXPECT_NE(run.output.find("--seed"), std::string::npos);
}

} // namespace

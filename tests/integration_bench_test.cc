/**
 * @file
 * Integration tests of `carbonx bench`: the smoke suite must write a
 * parseable, schema-versioned report, and the --compare gate must
 * pass identical reports, skip incomparable ones, and fail doctored
 * ones with exit code 4.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.h"

namespace
{

constexpr const char *kCliPath = "../tools/carbonx";

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

/** Write a minimal but schema-valid report for comparator tests. */
void
writeFixtureReport(const std::string &path, double sweep_pps,
                   uint64_t sweep_work, bool include_explain = true)
{
    std::ofstream out(path);
    out << "{\n  \"schema_version\": 1,\n  \"suite\": \"full\",\n"
        << "  \"tag\": \"fixture\",\n  \"scenarios\": [\n"
        << "    {\"name\": \"optimize_sweep\", \"reps\": 3, "
        << "\"wall_s\": 0.5, \"work_points\": " << sweep_work
        << ", \"points_per_sec\": " << sweep_pps
        << ", \"best_total_kg\": 1000.0, \"counters\": {}, "
        << "\"profile\": {}}";
    if (include_explain) {
        out << ",\n    {\"name\": \"explain\", \"reps\": 3, "
            << "\"wall_s\": 0.1, \"work_points\": 97, "
            << "\"points_per_sec\": 970.0, \"counters\": {}, "
            << "\"profile\": {}}";
    }
    out << "\n  ]\n}\n";
}

class BenchCompareFixtures : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        for (const std::string &path : cleanup_)
            std::remove(path.c_str());
    }

    std::string fixture(const std::string &name, double pps,
                        uint64_t work, bool include_explain = true)
    {
        writeFixtureReport(name, pps, work, include_explain);
        cleanup_.push_back(name);
        return name;
    }

    std::vector<std::string> cleanup_;
};

TEST(BenchCli, SmokeWritesParseableReport)
{
    REQUIRE_CLI();
    const std::string report = "bench_it_smoke.json";
    const CliRun run = runCli("bench --smoke --tag it --threads 2 "
                              "--out " +
                              report);
    ASSERT_EQ(run.exit_code, 0) << run.output;
    // The overhead fences time dozens of whole sweeps; smoke skips them.
    EXPECT_EQ(run.output.find("overhead check"), std::string::npos)
        << run.output;

    const carbonx::JsonValue doc = carbonx::JsonValue::parseFile(report);
    EXPECT_DOUBLE_EQ(doc.at("schema_version", "report").asNumber(),
                     1.0);
    EXPECT_EQ(doc.at("suite", "report").asString(), "smoke");
    EXPECT_TRUE(doc.find("provenance") != nullptr);

    const auto &scenarios = doc.at("scenarios", "report").items();
    ASSERT_GE(scenarios.size(), 5u);
    bool saw_sweep = false;
    bool saw_greedy = false;
    bool saw_build = false;
    for (const carbonx::JsonValue &s : scenarios) {
        const std::string name = s.at("name", "scenario").asString();
        EXPECT_GT(s.at("work_points", name).asNumber(), 0.0);
        EXPECT_GT(s.at("points_per_sec", name).asNumber(), 0.0);
        EXPECT_FALSE(s.at("counters", name).members().empty());
        // Every scenario ran under the profiler, so its call tree
        // must have recorded at least one phase.
        EXPECT_FALSE(
            s.at("profile", name).at("children", name).items().empty());
        if (name == "optimize_sweep") {
            saw_sweep = true;
            EXPECT_DOUBLE_EQ(s.at("work_points", name).asNumber(),
                             1029.0);
            EXPECT_TRUE(s.find("best_total_kg") != nullptr);
        }
        saw_greedy = saw_greedy || name == "greedy_schedule";
        if (name == "explorer_build") {
            // Ten constructions of the leap-year 2020 explorer.
            saw_build = true;
            EXPECT_DOUBLE_EQ(s.at("work_points", name).asNumber(),
                             10.0 * 8784.0);
            EXPECT_GT(s.at("best_total_kg", name).asNumber(), 0.0);
        }
    }
    EXPECT_TRUE(saw_sweep);
    // The scheduler scenario is checked by the loop above like every
    // other: work_points, counters and profile children.
    EXPECT_TRUE(saw_greedy);
    EXPECT_TRUE(saw_build);

    // A report always round-trips clean against itself.
    const CliRun self = runCli("bench --compare " + report +
                               " --input " + report);
    EXPECT_EQ(self.exit_code, 0) << self.output;
    EXPECT_NE(self.output.find("ok"), std::string::npos);
    std::remove(report.c_str());
}

TEST_F(BenchCompareFixtures, IdenticalReportsPassTheGate)
{
    REQUIRE_CLI();
    const std::string base =
        fixture("bench_fix_base.json", 1000.0, 1029);
    const std::string cand =
        fixture("bench_fix_cand_same.json", 1000.0, 1029);
    const CliRun run =
        runCli("bench --compare " + base + " --input " + cand);
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_NE(run.output.find("ok"), std::string::npos);
    EXPECT_EQ(run.output.find("REGRESSED"), std::string::npos);
}

TEST_F(BenchCompareFixtures, DoctoredReportFailsWithExitFour)
{
    REQUIRE_CLI();
    const std::string base =
        fixture("bench_fix_base2.json", 1000.0, 1029);
    const std::string cand =
        fixture("bench_fix_cand_slow.json", 500.0, 1029);
    const CliRun run = runCli("bench --compare " + base + " --input " +
                              cand + " --threshold 25");
    EXPECT_EQ(run.exit_code, 4) << run.output;
    EXPECT_NE(run.output.find("REGRESSED"), std::string::npos);
    EXPECT_NE(run.output.find("FAILED"), std::string::npos);
}

TEST_F(BenchCompareFixtures, ExitFourStillFlushesTelemetryFiles)
{
    REQUIRE_CLI();
    const std::string base =
        fixture("bench_fix_base_flush.json", 1000.0, 1029);
    const std::string cand =
        fixture("bench_fix_cand_flush.json", 500.0, 1029);
    const std::string metrics_path = "bench_fix_flush_metrics.json";
    const CliRun run = runCli("bench --compare " + base + " --input " +
                              cand + " --threshold 25 --metrics-out " +
                              metrics_path);
    EXPECT_EQ(run.exit_code, 4) << run.output;

    // The gate breach must not cost the telemetry: the metrics file
    // is complete and parseable, not half-written or missing.
    const carbonx::JsonValue metrics =
        carbonx::JsonValue::parseFile(metrics_path);
    EXPECT_TRUE(metrics.find("provenance") != nullptr);
    EXPECT_TRUE(metrics.find("counters") != nullptr);
    std::remove(metrics_path.c_str());
}

TEST_F(BenchCompareFixtures, ImprovementPassesTheGate)
{
    REQUIRE_CLI();
    const std::string base =
        fixture("bench_fix_base3.json", 1000.0, 1029);
    const std::string cand =
        fixture("bench_fix_cand_fast.json", 2000.0, 1029);
    const CliRun run =
        runCli("bench --compare " + base + " --input " + cand);
    EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(BenchCompareFixtures, WorkMismatchIsSkippedNotCompared)
{
    REQUIRE_CLI();
    const std::string base =
        fixture("bench_fix_base4.json", 1000.0, 1029);
    // Same name, wildly lower throughput — but a different workload,
    // so the gate must refuse to compare instead of failing.
    const std::string cand =
        fixture("bench_fix_cand_work.json", 10.0, 2058);
    const CliRun run =
        runCli("bench --compare " + base + " --input " + cand);
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_NE(run.output.find("skipped"), std::string::npos);
}

TEST_F(BenchCompareFixtures, MissingScenarioFailsTheGate)
{
    REQUIRE_CLI();
    const std::string base =
        fixture("bench_fix_base5.json", 1000.0, 1029);
    const std::string cand = fixture("bench_fix_cand_missing.json",
                                     1000.0, 1029, false);
    const CliRun run =
        runCli("bench --compare " + base + " --input " + cand);
    EXPECT_EQ(run.exit_code, 4) << run.output;
    EXPECT_NE(run.output.find("MISSING"), std::string::npos);
}

TEST_F(BenchCompareFixtures, MalformedReportFailsLoudly)
{
    REQUIRE_CLI();
    const std::string bad = "bench_fix_truncated.json";
    {
        std::ofstream out(bad);
        out << "{\"schema_version\": 1, \"scenarios\": [";
    }
    cleanup_.push_back(bad);
    const std::string base =
        fixture("bench_fix_base6.json", 1000.0, 1029);
    const CliRun run =
        runCli("bench --compare " + base + " --input " + bad);
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find(bad), std::string::npos);
}

TEST(BenchCli, InputWithoutCompareIsAnError)
{
    REQUIRE_CLI();
    const CliRun run = runCli("bench --input whatever.json");
    EXPECT_EQ(run.exit_code, 1);
    EXPECT_NE(run.output.find("--compare"), std::string::npos);
}

} // namespace

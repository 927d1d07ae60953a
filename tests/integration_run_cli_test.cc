/**
 * @file
 * Integration tests of `carbonx run`, the one scenario command,
 * against the real CLI binary: listing, validation, report
 * byte-stability, the exhaustive/--refine report contract, the
 * dedicated exit code (5) with a near-miss list for unknown scenario
 * ids and empty registries, and the journaled record of a corrupted
 * result cache. Tests skip when the binary is not at the expected
 * build location.
 */

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace
{

namespace fs = std::filesystem;

constexpr const char *kCliPath = "../tools/carbonx";
constexpr const char *kScenarioDir = CARBONX_SCENARIO_DIR;
constexpr const char *kFixtureDir = CARBONX_SCENARIO_FIXTURE_DIR;
constexpr int kExitNoScenario = 5;

struct CliRun
{
    int exit_code = -1;
    std::string out;
    std::string err;
};

/**
 * A stderr capture file named after the running test: ctest runs each
 * test in its own process, possibly in parallel, so a shared name
 * would let one test read (or delete) another's stderr.
 */
std::string
stderrPath()
{
    const testing::TestInfo *test =
        testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(test->test_suite_name()) + "_" +
        test->name();
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return testing::TempDir() + "run_cli_stderr_" + name + ".txt";
}

CliRun
runCli(const std::string &args)
{
    CliRun result;
    const std::string err_path = stderrPath();
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

/** Drop the mode-dependent "# sweep" lines from a report. */
std::string
stripSweepLines(const std::string &report)
{
    std::istringstream in(report);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("# sweep", 0) != 0)
            out << line << '\n';
    return out.str();
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

#define REQUIRE_CLI()                                                \
    do {                                                             \
        if (!cliAvailable())                                         \
            GTEST_SKIP() << "carbonx CLI not found at " << kCliPath; \
    } while (0)

std::string
scenarioDirFlag()
{
    return std::string("--scenario-dir ") + kScenarioDir;
}

TEST(RunCli, ListShowsTheCommittedCorpus)
{
    REQUIRE_CLI();
    const CliRun r = runCli("run --list " + scenarioDirFlag());
    EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
    EXPECT_NE(r.out.find("pace-combined"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("erco-combined"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("grid-charging"), std::string::npos) << r.out;
    // Abstract bases are not listed as runnable rows.
    EXPECT_EQ(r.out.find("paper-baseline "), std::string::npos)
        << r.out;
}

TEST(RunCli, CheckValidatesTheCommittedCorpus)
{
    REQUIRE_CLI();
    const CliRun r = runCli("run --check " + scenarioDirFlag());
    EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
    EXPECT_NE(r.out.find("valid"), std::string::npos) << r.out;
}

TEST(RunCli, CheckRejectsEverySeededInvalidFixture)
{
    REQUIRE_CLI();
    size_t dirs = 0;
    for (const auto &entry : fs::directory_iterator(kFixtureDir)) {
        if (!entry.is_directory())
            continue;
        ++dirs;
        const CliRun r = runCli("run --check --scenario-dir " +
                                entry.path().string());
        EXPECT_EQ(r.exit_code, 1) << entry.path() << ": " << r.out;
        EXPECT_NE(r.err.find("scenario"), std::string::npos)
            << entry.path() << ": " << r.err;
    }
    EXPECT_GE(dirs, 6u);
}

TEST(RunCli, UnknownScenarioIdExitsFiveWithNearMisses)
{
    REQUIRE_CLI();
    const CliRun r = runCli("run pace-combned " + scenarioDirFlag());
    EXPECT_EQ(r.exit_code, kExitNoScenario) << r.out << r.err;
    EXPECT_NE(r.err.find("pace-combned"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("did you mean"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("pace-combined"), std::string::npos) << r.err;
}

TEST(RunCli, OptimizeRejectsTheScenarioFlag)
{
    // `carbonx run` is the one scenario command: optimize declares no
    // --scenario flag, so it stops with its usage before running
    // anything.
    REQUIRE_CLI();
    const CliRun r = runCli("optimize --scenario pace-ren");
    EXPECT_EQ(r.exit_code, 2) << r.out << r.err;
    EXPECT_NE(r.err.find("unknown flag --scenario"), std::string::npos)
        << r.err;
    EXPECT_NE(r.err.find("usage:\n  optimize --ba PACE --dc 19"),
              std::string::npos)
        << r.err;
    EXPECT_NE(r.err.find("[--status-out PATH]"), std::string::npos)
        << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(RunCli, EmptyRegistryExitsFive)
{
    REQUIRE_CLI();
    const std::string empty_dir = testing::TempDir() + "no_scenarios";
    fs::create_directories(empty_dir);
    const CliRun run_r =
        runCli("run pace-combined --scenario-dir " + empty_dir);
    EXPECT_EQ(run_r.exit_code, kExitNoScenario) << run_r.err;
    const CliRun list_r = runCli("run --list --scenario-dir " + empty_dir);
    EXPECT_EQ(list_r.exit_code, kExitNoScenario) << list_r.err;
    fs::remove_all(empty_dir);
}

TEST(RunCli, AbstractBaseIsNotRunnable)
{
    REQUIRE_CLI();
    const CliRun r = runCli("run paper-baseline " + scenarioDirFlag());
    EXPECT_EQ(r.exit_code, kExitNoScenario) << r.out << r.err;
    EXPECT_NE(r.err.find("abstract"), std::string::npos) << r.err;
}

TEST(RunCli, RunProducesAProvenanceStampedReport)
{
    REQUIRE_CLI();
    const CliRun r = runCli("run pace-ren " + scenarioDirFlag());
    ASSERT_EQ(r.exit_code, 0) << r.out << r.err;
    EXPECT_NE(r.out.find("# artifact: scenario-run-report-v1"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("# scenario: pace-ren"), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("Best:"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("# sweep mode: exhaustive"),
              std::string::npos)
        << r.out;
}

TEST(RunCli, ReportIsByteStableRunToRun)
{
    REQUIRE_CLI();
    const std::string a = testing::TempDir() + "run_report_a.txt";
    const std::string b = testing::TempDir() + "run_report_b.txt";
    const std::string base =
        "run pace-ren " + scenarioDirFlag() + " --report-out ";
    ASSERT_EQ(runCli(base + a).exit_code, 0);
    ASSERT_EQ(runCli(base + b).exit_code, 0);
    const std::string report_a = readFile(a);
    ASSERT_FALSE(report_a.empty());
    EXPECT_EQ(report_a, readFile(b))
        << "same scenario, same binary, different bytes";
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(RunCli, RefineReportMatchesExhaustiveModuloSweepLines)
{
    REQUIRE_CLI();
    const std::string a = testing::TempDir() + "run_report_ex.txt";
    const std::string b = testing::TempDir() + "run_report_ref.txt";
    const std::string base = "run pace-ren " + scenarioDirFlag();
    ASSERT_EQ(runCli(base + " --exhaustive --report-out " + a).exit_code,
              0);
    ASSERT_EQ(runCli(base + " --refine --report-out " + b).exit_code, 0);
    const std::string exhaustive = readFile(a);
    const std::string refined = readFile(b);
    ASSERT_FALSE(exhaustive.empty());
    // The whole report — provenance, best line, Pareto table — is
    // identical; only the "# sweep" driver lines may differ.
    EXPECT_EQ(stripSweepLines(exhaustive), stripSweepLines(refined));
    EXPECT_NE(exhaustive.find("# sweep mode: exhaustive"),
              std::string::npos);
    EXPECT_NE(refined.find("# sweep mode: adaptive"),
              std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(RunCli, RerunOverACorruptedCacheJournalsIt)
{
    // A cache that drops on-disk state while loading is journaled as
    // one cache_corrupt row, under `run` as under `optimize`; the
    // valid records before the garbage tail are still replayed.
    REQUIRE_CLI();
    const std::string dir = testing::TempDir() + "run_corrupt_cache";
    const std::string journal = dir + "/rerun.cxj";
    fs::remove_all(dir);
    const std::string base =
        "run pace-ren " + scenarioDirFlag() + " --cache-dir " + dir;
    const CliRun cold = runCli(base);
    ASSERT_EQ(cold.exit_code, 0) << cold.err;
    {
        std::ofstream tail(dir + "/pace-ren.evals",
                           std::ios::binary | std::ios::app);
        tail << "not a cache block";
    }
    const CliRun rerun = runCli(base + " --journal-out " + journal);
    ASSERT_EQ(rerun.exit_code, 0) << rerun.err;
    EXPECT_EQ(rerun.out, cold.out);

    const CliRun inspect = runCli("inspect " + journal + " --format json");
    ASSERT_EQ(inspect.exit_code, 0) << inspect.err;
    EXPECT_NE(inspect.out.find("\"cache_hit\": 49, \"re_armed\": 0, "
                               "\"cache_corrupt\": 1}"),
              std::string::npos)
        << inspect.out;
    fs::remove_all(dir);
}

TEST(RunCli, UsageMentionsRunSubcommand)
{
    REQUIRE_CLI();
    const CliRun r = runCli("");
    EXPECT_NE((r.out + r.err).find("run"), std::string::npos);
}

TEST(RunCli, RunWithoutIdIsAUsageError)
{
    REQUIRE_CLI();
    const CliRun r = runCli("run " + scenarioDirFlag());
    EXPECT_EQ(r.exit_code, 2) << r.out << r.err;
}

} // namespace

/**
 * @file
 * Unit tests for the carbonx-lint rule engine (tools/lint_rules.h):
 * comment/string stripping, path classification, each rule's
 * positive and negative cases, and the allow() suppression escape
 * hatch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "lint_rules.h"

namespace carbonx
{
namespace
{

using lint::Diagnostic;
using lint::classify;
using lint::lintSource;
using lint::stripCommentsAndStrings;

size_t
countRule(const std::vector<Diagnostic> &diags, const char *rule)
{
    return static_cast<size_t>(
        std::count_if(diags.begin(), diags.end(),
                      [&](const Diagnostic &d) { return d.rule == rule; }));
}

const char *const kGuard =
    "#ifndef CARBONX_X_H\n#define CARBONX_X_H\n";

TEST(LintStrip, RemovesCommentsAndStringsKeepsLines)
{
    const std::string src =
        "int a; // double supply_mw\n"
        "/* double x_mwh = 1.0;\n"
        "   still comment */ int b;\n"
        "const char *s = \"x / 24.0\";\n";
    const std::string out = stripCommentsAndStrings(src);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
              std::count(src.begin(), src.end(), '\n'));
    EXPECT_EQ(out.find("supply_mw"), std::string::npos);
    EXPECT_EQ(out.find("x_mwh"), std::string::npos);
    EXPECT_EQ(out.find("24.0"), std::string::npos);
    EXPECT_NE(out.find("int a;"), std::string::npos);
    EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(LintClassify, BoundaryAndConversionHomes)
{
    EXPECT_TRUE(classify("src/grid/grid_synthesizer.cc").unit_boundary);
    EXPECT_TRUE(classify("src/fleet/fleet_optimizer.h").unit_boundary);
    EXPECT_TRUE(classify("tools/carbonx_cli.cc").unit_boundary);
    EXPECT_FALSE(classify("src/core/explorer.cc").unit_boundary);
    EXPECT_FALSE(classify("src/battery/chemistry.cc").unit_boundary);
    EXPECT_TRUE(classify("src/common/units.h").conversion_home);
    EXPECT_TRUE(classify("src/timeseries/calendar.cc").conversion_home);
    EXPECT_FALSE(classify("src/timeseries/timeseries.cc").conversion_home);
    EXPECT_TRUE(classify("src/core/pareto.h").is_header);
    EXPECT_FALSE(classify("src/core/pareto.cc").is_header);
}

TEST(LintRawUnitDouble, FlagsSuffixedDoubles)
{
    const std::string src = std::string(kGuard) +
                            "double supply_mw = 0.0;\n"
                            "const double cap_mwh = 1.0;\n"
                            "double intensity_gkwh;\n"
                            "double total_kgco2;\n"
                            "#endif\n";
    const auto diags = lintSource("src/core/x.h", src);
    EXPECT_EQ(countRule(diags, lint::kRuleRawUnitDouble), 4u);
    EXPECT_EQ(diags[0].line, 3u);
    EXPECT_NE(diags[0].message.find("supply_mw"), std::string::npos);
}

TEST(LintRawUnitDouble, IgnoresBoundaryLayersAndCleanNames)
{
    const std::string src = "double supply_mw = 0.0;\n";
    EXPECT_TRUE(lintSource("src/grid/x.cc", src).empty());
    EXPECT_TRUE(lintSource("src/fleet/x.cc", src).empty());
    // No unit suffix, or suffix not terminal: not flagged.
    const auto diags = lintSource(
        "src/core/x.cc",
        "double ratio = 0.0;\ndouble mwh_total_count = 1.0;\n");
    EXPECT_EQ(countRule(diags, lint::kRuleRawUnitDouble), 0u);
}

TEST(LintSuffixMismatch, FlagsCrossUnitAssignment)
{
    const auto diags = lintSource("src/core/x.cc",
                                  "supply_mw = demand_mwh;\n"
                                  "a.total_kgco2 = b.rate_gkwh;\n");
    EXPECT_EQ(countRule(diags, lint::kRuleSuffixMismatch), 2u);
}

TEST(LintSuffixMismatch, AllowsMatchingOrUnsuffixed)
{
    const auto diags =
        lintSource("src/core/x.cc",
                   "supply_mw = demand_mw;\n"
                   "total = demand_mwh;\n"
                   "eval.deferred_mwh = sim.deferred_mwh;\n"
                   "if (a_mw == b_mwh) {}\n");
    EXPECT_EQ(countRule(diags, lint::kRuleSuffixMismatch), 0u);
}

TEST(LintMagicConversion, FlagsConversionConstants)
{
    const auto diags = lintSource("src/core/x.cc",
                                  "double d = h / 24.0;\n"
                                  "double e = g * 1000;\n"
                                  "double f = g * 1e3;\n"
                                  "size_t day = h % 24;\n");
    EXPECT_EQ(countRule(diags, lint::kRuleMagicConversion), 4u);
}

TEST(LintMagicConversion, AllowsHomesAndPlainNumbers)
{
    const std::string src = "double d = h / 24.0;\n";
    EXPECT_TRUE(lintSource("src/common/units.h",
                           std::string(kGuard) + src + "#endif\n")
                    .empty());
    EXPECT_TRUE(
        lintSource("src/timeseries/calendar.cc", src).empty());
    // 24 as a value (not a divisor/multiplier) is domain data.
    const auto diags = lintSource("src/core/x.cc",
                                  "Hours window{24.0};\n"
                                  "double reach = 24.0 * avg;\n"
                                  "double big = x / 2400.0;\n");
    EXPECT_EQ(countRule(diags, lint::kRuleMagicConversion), 0u);
}

TEST(LintHeaderGuard, RequiresRepoIdiom)
{
    EXPECT_EQ(countRule(lintSource("src/core/x.h", "int a;\n"),
                        lint::kRuleHeaderGuard),
              1u);
    // Mismatched #define does not count as a guard.
    EXPECT_EQ(countRule(lintSource("src/core/x.h",
                                   "#ifndef CARBONX_A_H\n"
                                   "#define CARBONX_B_H\n"
                                   "#endif\n"),
                        lint::kRuleHeaderGuard),
              1u);
    EXPECT_EQ(countRule(lintSource("src/core/x.h",
                                   std::string(kGuard) + "#endif\n"),
                        lint::kRuleHeaderGuard),
              0u);
    // Not a header: rule does not apply.
    EXPECT_EQ(countRule(lintSource("src/core/x.cc", "int a;\n"),
                        lint::kRuleHeaderGuard),
              0u);
}

TEST(LintSuppression, AllowCoversLineAndNextLine)
{
    const auto same_line = lintSource(
        "src/core/x.cc",
        "double supply_mw = 0.0; // carbonx-lint: allow(raw-unit-double)\n");
    EXPECT_TRUE(same_line.empty());

    const auto line_above = lintSource(
        "src/core/x.cc",
        "// carbonx-lint: allow(raw-unit-double) boundary note\n"
        "double supply_mw = 0.0;\n");
    EXPECT_TRUE(line_above.empty());

    const auto all_rules = lintSource(
        "src/core/x.cc",
        "// carbonx-lint: allow(all)\n"
        "double supply_mw = demand_mwh / 24.0;\n");
    EXPECT_TRUE(all_rules.empty());

    // Wrong rule name suppresses nothing.
    const auto wrong = lintSource(
        "src/core/x.cc",
        "double supply_mw = 0.0; // carbonx-lint: allow(magic-conversion)\n");
    EXPECT_EQ(countRule(wrong, lint::kRuleRawUnitDouble), 1u);

    // Two lines below the marker is out of scope again.
    const auto too_far = lintSource(
        "src/core/x.cc",
        "// carbonx-lint: allow(raw-unit-double)\n"
        "int unrelated;\n"
        "double supply_mw = 0.0;\n");
    EXPECT_EQ(countRule(too_far, lint::kRuleRawUnitDouble), 1u);
}

TEST(LintClassify, RecorderWritersAreSchedulerAndObs)
{
    EXPECT_TRUE(classify("src/scheduler/batched_engine.cc")
                    .recorder_writer);
    EXPECT_TRUE(classify("src/obs/recorder.cc").recorder_writer);
    EXPECT_TRUE(classify("src/obs/audit.cc").recorder_writer);
    EXPECT_FALSE(classify("src/core/explorer.cc").recorder_writer);
    EXPECT_FALSE(classify("tools/carbonx_cli.cc").recorder_writer);
    // The recorder/audit headers are unit boundaries: raw doubles
    // with unit suffixes are their deliberate export format.
    EXPECT_TRUE(classify("src/obs/recorder.h").unit_boundary);
    EXPECT_TRUE(classify("src/obs/audit.h").unit_boundary);
}

TEST(LintRecorderWrite, FlagsFieldWritesOutsideWriters)
{
    const std::string src =
        "rec.grid_mw[h] = 0.0;\n"
        "row.carbon_kg = grid * intensity;\n"
        "recorder->backlog_mwh[h] += 1.0;\n"
        "r.shifted_mwh *= 2.0;\n";
    const auto diags = lintSource("src/core/x.cc", src);
    EXPECT_EQ(countRule(diags, lint::kRuleRecorderWrite), 4u);
    EXPECT_NE(diags[0].message.find("grid_mw"), std::string::npos);
    EXPECT_NE(diags[0].message.find("read-only"), std::string::npos);
}

TEST(LintRecorderWrite, SilentForWritersReadsAndComparisons)
{
    const std::string writes =
        "rec.grid_mw[h] = 0.0;\nrow.carbon_kg = 1.0;\n";
    EXPECT_EQ(countRule(lintSource("src/scheduler/x.cc", writes),
                        lint::kRuleRecorderWrite),
              0u);
    EXPECT_EQ(countRule(lintSource("src/obs/x.cc", writes),
                        lint::kRuleRecorderWrite),
              0u);

    // Reads and comparisons of recorder fields are fine anywhere.
    const auto reads = lintSource(
        "src/core/x.cc",
        "double g = rec.grid_mw[h];\n"
        "if (row.carbon_kg == 0.0) {}\n"
        "total += rec.backlog_mwh[h];\n"
        "use(recording.served_mw);\n");
    EXPECT_EQ(countRule(reads, lint::kRuleRecorderWrite), 0u);

    // A local variable that merely shares a suffix is not a recorder
    // field; only the recorded column names are fenced.
    const auto unrelated = lintSource(
        "src/core/x.cc", "state.max_supply_mw = 3.0;\n");
    EXPECT_EQ(countRule(unrelated, lint::kRuleRecorderWrite), 0u);
}

TEST(LintRecorderWrite, AllowSuppressionWorks)
{
    const auto allowed = lintSource(
        "src/core/x.cc",
        "// carbonx-lint: allow(recorder-field-write) test fixture\n"
        "rec.grid_mw[h] = 0.0;\n");
    EXPECT_EQ(countRule(allowed, lint::kRuleRecorderWrite), 0u);
}

TEST(LintProfilePhase, FlagsDuplicateDynamicAndEmptyNames)
{
    const auto diags = lintSource(
        "src/core/x.cc",
        "CARBONX_PROFILE(\"sweep/pass\");\n"
        "CARBONX_PROFILE(\"sweep/pass\");\n"
        "CARBONX_PROFILE(dynamic_name);\n"
        "CARBONX_PROFILE(\"\");\n");
    ASSERT_EQ(countRule(diags, lint::kRuleProfilePhase), 3u);
    EXPECT_EQ(diags[0].line, 2u);
    EXPECT_NE(diags[0].message.find("duplicate"), std::string::npos);
    EXPECT_NE(diags[0].message.find("first used at line 1"),
              std::string::npos);
    EXPECT_EQ(diags[1].line, 3u);
    EXPECT_NE(diags[1].message.find("string literal"),
              std::string::npos);
    EXPECT_EQ(diags[2].line, 4u);
    EXPECT_NE(diags[2].message.find("empty"), std::string::npos);
}

TEST(LintProfilePhase, AcceptsLiteralFollowedByHistogram)
{
    const auto diags = lintSource(
        "src/grid/x.cc",
        "CARBONX_PROFILE(\"grid/synthesize\", &h_synth);\n"
        "CARBONX_PROFILE(\"grid/other\");\n");
    EXPECT_EQ(countRule(diags, lint::kRuleProfilePhase), 0u);
    const auto uses = lint::collectProfilePhases(
        "CARBONX_PROFILE(\"grid/synthesize\", &h_synth);\n");
    ASSERT_EQ(uses.size(), 1u);
    EXPECT_TRUE(uses[0].is_literal);
    EXPECT_EQ(uses[0].name, "grid/synthesize");
}

TEST(LintProfilePhase, FlagsDynamicNameWithHistogram)
{
    const auto diags = lintSource("src/grid/x.cc",
                                  "CARBONX_PROFILE(name, &h);\n");
    ASSERT_EQ(countRule(diags, lint::kRuleProfilePhase), 1u);
    EXPECT_NE(diags[0].message.find("string literal"),
              std::string::npos);
}

TEST(LintProfilePhase, FlagsDuplicateAcrossOneAndTwoArgumentForms)
{
    const auto diags = lintSource(
        "src/grid/x.cc",
        "CARBONX_PROFILE(\"grid/synthesize\");\n"
        "CARBONX_PROFILE(\"grid/synthesize\", &h_synth);\n");
    ASSERT_EQ(countRule(diags, lint::kRuleProfilePhase), 1u);
    EXPECT_EQ(diags[0].line, 2u);
    EXPECT_NE(diags[0].message.find("duplicate"), std::string::npos);

    using lint::PhaseUse;
    std::vector<std::pair<std::string, std::vector<PhaseUse>>> per_file;
    per_file.emplace_back(
        "src/grid/a.cc",
        lint::collectProfilePhases("CARBONX_PROFILE(\"x/phase\");\n"));
    per_file.emplace_back("src/grid/b.cc",
                          lint::collectProfilePhases(
                              "CARBONX_PROFILE(\"x/phase\", &h);\n"));
    const auto cross = lint::crossFilePhaseDuplicates(per_file);
    ASSERT_EQ(cross.size(), 1u);
    EXPECT_EQ(cross[0].file, "src/grid/b.cc");
}

TEST(LintProfilePhase, CleanUsageMacroDefinitionAndCommentsPass)
{
    // Unique literals are fine; the macro's own #define (with its
    // backslash continuations), the CONCAT helpers, and mentions in
    // comments or strings must not register as call sites.
    const std::string src =
        std::string(kGuard) +
        "#define CARBONX_PROFILE_CONCAT2(a, b) a##b\n"
        "#define CARBONX_PROFILE(...)                             \\\n"
        "    ::carbonx::obs::ScopedPhase CARBONX_PROFILE_CONCAT(  \\\n"
        "        carbonx_phase_, __LINE__)(__VA_ARGS__)\n"
        "// CARBONX_PROFILE(\"in/a/comment\");\n"
        "inline void f()\n"
        "{\n"
        "    CARBONX_PROFILE(\"phase/one\");\n"
        "    CARBONX_PROFILE(\"phase/two\");\n"
        "    const char *s = \"CARBONX_PROFILE(nope)\";\n"
        "    (void)s;\n"
        "}\n"
        "#endif\n";
    EXPECT_EQ(countRule(lintSource("src/obs/x.h", src),
                        lint::kRuleProfilePhase),
              0u);
}

TEST(LintProfilePhase, CrossFileDuplicatesPointAtFirstUse)
{
    using lint::PhaseUse;
    using lint::collectProfilePhases;
    std::vector<std::pair<std::string, std::vector<PhaseUse>>> per_file;
    per_file.emplace_back(
        "src/core/a.cc",
        collectProfilePhases("CARBONX_PROFILE(\"shared/phase\");\n"
                             "CARBONX_PROFILE(\"a/only\");\n"));
    per_file.emplace_back(
        "src/core/b.cc",
        collectProfilePhases("CARBONX_PROFILE(\"shared/phase\");\n"));
    // An in-file duplicate is lintSource's finding, not a cross-file
    // one — it must not be re-reported by the aggregate pass.
    per_file.emplace_back(
        "src/core/c.cc",
        collectProfilePhases("CARBONX_PROFILE(\"c/dup\");\n"
                             "CARBONX_PROFILE(\"c/dup\");\n"));

    const auto diags = lint::crossFilePhaseDuplicates(per_file);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].file, "src/core/b.cc");
    EXPECT_EQ(diags[0].line, 1u);
    EXPECT_EQ(diags[0].rule, lint::kRuleProfilePhase);
    EXPECT_NE(diags[0].message.find("src/core/a.cc:1"),
              std::string::npos);
}

TEST(LintProfilePhase, AllowSuppressionHidesSiteFromBothChecks)
{
    const std::string src =
        "// carbonx-lint: allow(profile-phase) generated name\n"
        "CARBONX_PROFILE(dynamic_name);\n";
    EXPECT_TRUE(lintSource("src/core/x.cc", src).empty());
    // The collector drops the waived site too, so it can never feed
    // the cross-file duplicate check.
    EXPECT_TRUE(lint::collectProfilePhases(src).empty());
}

TEST(LintDiagnostic, FormatIsFileLineRuleMessage)
{
    const Diagnostic d{"src/core/x.cc", 7, "magic-conversion", "boom"};
    EXPECT_EQ(d.format(), "src/core/x.cc:7: [magic-conversion] boom");
}

// ---------------------------------------------------------------
// Exit-code contract of the carbonx_lint binary: 0 clean, 1 when
// violations are found, 2 on I/O or parse errors. Tests skip when
// the binary is not at the expected build location.

constexpr const char *kLintPath = "../tools/carbonx_lint";

struct LintRun
{
    int exit_code = -1;
    std::string output;
};

LintRun
runLint(const std::string &args)
{
    LintRun result;
    const std::string command =
        std::string(kLintPath) + " " + args + " 2>&1";
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
lintBinaryPresent()
{
    std::ifstream probe(kLintPath);
    return probe.good();
}

/** Write a scratch file next to the test binary; removed by caller. */
std::string
writeScratch(const std::string &name, const std::string &contents)
{
    std::ofstream out(name);
    out << contents;
    return name;
}

TEST(LintExitCodes, CleanFileExitsZero)
{
    if (!lintBinaryPresent())
        GTEST_SKIP() << "carbonx_lint not at " << kLintPath;
    const std::string path = writeScratch(
        "lint_clean.cc", "int add(int a, int b) { return a + b; }\n");
    const LintRun run = runLint(path);
    std::remove(path.c_str());
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_NE(run.output.find("clean"), std::string::npos);
}

TEST(LintExitCodes, ViolationsExitOne)
{
    if (!lintBinaryPresent())
        GTEST_SKIP() << "carbonx_lint not at " << kLintPath;
    const std::string path = writeScratch(
        "lint_dirty.cc", "void f() { int r = rand(); (void)r; }\n");
    const LintRun run = runLint(path);
    std::remove(path.c_str());
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find("determinism"), std::string::npos);
}

TEST(LintExitCodes, UnreadablePathIsAHardErrorTwo)
{
    if (!lintBinaryPresent())
        GTEST_SKIP() << "carbonx_lint not at " << kLintPath;
    const LintRun run = runLint("no_such_dir_xyzzy");
    EXPECT_EQ(run.exit_code, 2) << run.output;
    EXPECT_NE(run.output.find("cannot read"), std::string::npos);
}

TEST(LintExitCodes, UnreadableFileAmongGoodOnesIsStillErrorTwo)
{
    if (!lintBinaryPresent())
        GTEST_SKIP() << "carbonx_lint not at " << kLintPath;
    const std::string good = writeScratch(
        "lint_good.cc", "int add(int a, int b) { return a + b; }\n");
    const LintRun run = runLint(good + " lint_missing_xyzzy.cc");
    std::remove(good.c_str());
    EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(LintExitCodes, UnknownFlagIsUsageErrorTwo)
{
    if (!lintBinaryPresent())
        GTEST_SKIP() << "carbonx_lint not at " << kLintPath;
    const LintRun run = runLint("--no-such-flag .");
    EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(LintExitCodes, MalformedBaselineIsParseErrorTwo)
{
    if (!lintBinaryPresent())
        GTEST_SKIP() << "carbonx_lint not at " << kLintPath;
    const std::string src = writeScratch(
        "lint_base_src.cc", "int add(int a, int b) { return a + b; }\n");
    const std::string baseline =
        writeScratch("lint_bad_baseline.txt", "not a valid entry\n");
    const LintRun run =
        runLint("--baseline=" + baseline + " " + src);
    std::remove(src.c_str());
    std::remove(baseline.c_str());
    EXPECT_EQ(run.exit_code, 2) << run.output;
    EXPECT_NE(run.output.find("baseline"), std::string::npos);
}

TEST(LintExitCodes, BaselinedFindingsExitZero)
{
    if (!lintBinaryPresent())
        GTEST_SKIP() << "carbonx_lint not at " << kLintPath;
    const std::string src = writeScratch(
        "lint_tolerated.cc",
        "void f() { int r = rand(); (void)r; }\n");
    const std::string baseline = writeScratch(
        "lint_ok_baseline.txt",
        "# scratch fixture exercising the baseline path\n"
        "lint_tolerated.cc:1 determinism\n");
    const LintRun run =
        runLint("--baseline=" + baseline + " " + src);
    std::remove(src.c_str());
    std::remove(baseline.c_str());
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_NE(run.output.find("(baselined)"), std::string::npos);
}

TEST(LintExitCodes, BaselineDriftGateExitsOneOnStaleEntry)
{
    if (!lintBinaryPresent())
        GTEST_SKIP() << "carbonx_lint not at " << kLintPath;
    const std::string src = writeScratch(
        "lint_short.cc", "int add(int a, int b) { return a + b; }\n");
    const std::string baseline = writeScratch(
        "lint_stale_baseline.txt",
        "# entry points far past EOF\n"
        "lint_short.cc:999 determinism\n");
    const LintRun run =
        runLint("--check-baseline=" + baseline + " " + src);
    std::remove(src.c_str());
    std::remove(baseline.c_str());
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find("drift"), std::string::npos);
}

TEST(LintExitCodes, SarifOutputParsesEvenWithFindings)
{
    if (!lintBinaryPresent())
        GTEST_SKIP() << "carbonx_lint not at " << kLintPath;
    const std::string src = writeScratch(
        "lint_sarif_src.cc",
        "void f() { int r = rand(); (void)r; }\n");
    const LintRun run = runLint("--format=sarif " + src);
    std::remove(src.c_str());
    EXPECT_EQ(run.exit_code, 1) << run.output;
    const auto doc = JsonValue::parse(run.output);
    EXPECT_EQ(doc.at("version", "sarif").asString(), "2.1.0");
    EXPECT_EQ(doc.at("runs", "sarif")
                  .items()[0]
                  .at("results", "run")
                  .items()
                  .size(),
              1u);
}

} // namespace
} // namespace carbonx

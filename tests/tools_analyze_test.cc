/**
 * @file
 * Unit tests for the carbonx-analyze framework: the four newer rule
 * families (hot-path allocation, determinism, concurrency hygiene,
 * layering), the rule registry, the baseline parser/matcher, and the
 * SARIF 2.1.0 emitter (round-tripped through common/json.h to prove
 * the required properties are present and well-formed).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/json.h"
#include "lint_rules.h"

using carbonx::lint::Diagnostic;
using carbonx::lint::Severity;

namespace
{

std::vector<Diagnostic>
lintAs(const std::string &path, const std::string &src)
{
    return carbonx::lint::lintSource(path, src);
}

size_t
countRule(const std::vector<Diagnostic> &diags, const char *rule)
{
    return static_cast<size_t>(
        std::count_if(diags.begin(), diags.end(),
                      [&](const Diagnostic &d) {
                          return d.rule == rule;
                      }));
}

// ---------------------------------------------------------------
// Hot-path allocation.

TEST(HotPathAllocTest, FlagsAllocationsInsideAnnotatedFunction)
{
    const std::string src = "// carbonx-hot\n"
                            "void f() {\n"
                            "    auto *p = new int[8];\n"
                            "    std::string s;\n"
                            "    std::vector<int> v;\n"
                            "    v.push_back(1);\n"
                            "}\n";
    const auto diags = lintAs("src/core/hot.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleHotPathAlloc), 4u);
}

TEST(HotPathAllocTest, ColdCodeIsNotFlagged)
{
    const std::string src = "void f() {\n"
                            "    std::vector<int> v;\n"
                            "    v.push_back(1);\n"
                            "    auto *p = new int;\n"
                            "}\n";
    const auto diags = lintAs("src/core/cold.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleHotPathAlloc), 0u);
}

TEST(HotPathAllocTest, HotProfilePhaseMakesEnclosingBlockHot)
{
    const std::string src = "void f() {\n"
                            "    CARBONX_PROFILE(\"sim/step\");\n"
                            "    std::string s;\n"
                            "}\n"
                            "void g() {\n"
                            "    CARBONX_PROFILE(\"report/emit\");\n"
                            "    std::string t;\n"
                            "}\n";
    const auto diags = lintAs("src/core/phases.cc", src);
    // Only the sim/ phase is a hot phase; report/emit is not.
    ASSERT_EQ(countRule(diags, carbonx::lint::kRuleHotPathAlloc), 1u);
    EXPECT_EQ(diags[0].line, 3u);
}

TEST(HotPathAllocTest, ReservedVectorsAreExempt)
{
    const std::string src = "// carbonx-hot\n"
                            "void f() {\n"
                            "    std::vector<int> v;\n"
                            "    v.reserve(64);\n"
                            "    v.push_back(1);\n"
                            "}\n";
    const auto diags = lintAs("src/core/reserved.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleHotPathAlloc), 0u);
}

TEST(HotPathAllocTest, HelperReserveFormIsRecognized)
{
    // simulation_batch.cc reserves through a helper lambda:
    // reserve(lane). The identifier inside the call counts.
    const std::string src = "// carbonx-hot\n"
                            "void f() {\n"
                            "    std::vector<double> lane;\n"
                            "    reserve(lane);\n"
                            "    lane.push_back(0.0);\n"
                            "}\n";
    const auto diags = lintAs("src/core/helper.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleHotPathAlloc), 0u);
}

TEST(HotPathAllocTest, WaiverSuppressesFinding)
{
    const std::string src =
        "// carbonx-hot\n"
        "void f() {\n"
        "    // carbonx-lint: allow(hot-path-alloc) setup-only\n"
        "    std::string s;\n"
        "}\n";
    const auto diags = lintAs("src/core/waived.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleHotPathAlloc), 0u);
}

TEST(HotPathAllocTest, AnnotatedLoopBodyIsHot)
{
    // The for-header's ';' must not end the annotation's reach: the
    // loop body is the hot region, the code after it is not.
    const std::string src = "void f(int n) {\n"
                            "    // carbonx-hot: per-hour loop\n"
                            "    for (int h = 0; h < n; ++h) {\n"
                            "        std::string s;\n"
                            "    }\n"
                            "    std::string after;\n"
                            "}\n";
    const auto diags = lintAs("src/core/loop.cc", src);
    ASSERT_EQ(countRule(diags, carbonx::lint::kRuleHotPathAlloc), 1u);
    EXPECT_EQ(diags[0].line, 4u);
}

TEST(HotPathAllocTest, ProseMentionOfMarkerIsNotAnAnnotation)
{
    const std::string src =
        "// functions tagged carbonx-hot are checked\n"
        "void f() {\n"
        "    std::string s;\n"
        "}\n";
    const auto diags = lintAs("src/core/prose.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleHotPathAlloc), 0u);
}

// ---------------------------------------------------------------
// Determinism.

TEST(DeterminismTest, FlagsEntropyAndWallClock)
{
    const std::string src =
        "void f() {\n"
        "    int a = rand();\n"
        "    std::random_device rd;\n"
        "    auto t = time(nullptr);\n"
        "    auto n = std::chrono::system_clock::now();\n"
        "}\n";
    const auto diags = lintAs("src/core/entropy.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleDeterminism), 4u);
    for (const Diagnostic &d : diags)
        EXPECT_EQ(d.severity, Severity::Error);
}

TEST(DeterminismTest, EntropyHomesAreExempt)
{
    const std::string src = "void f() { std::random_device rd; }\n";
    EXPECT_EQ(countRule(lintAs("src/common/rng.h", src),
                        carbonx::lint::kRuleDeterminism),
              0u);
    EXPECT_EQ(countRule(lintAs("src/obs/provenance.cc", src),
                        carbonx::lint::kRuleDeterminism),
              0u);
}

TEST(DeterminismTest, SteadyClockIsAllowed)
{
    const std::string src =
        "void f() {\n"
        "    auto t0 = std::chrono::steady_clock::now();\n"
        "}\n";
    const auto diags = lintAs("src/core/timer.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleDeterminism), 0u);
}

TEST(DeterminismTest, UnorderedIterationIsAWarningOnly)
{
    const std::string src =
        "double f(const std::unordered_map<int, double> &weights) {\n"
        "    double total = 0.0;\n"
        "    for (const auto &e : weights)\n"
        "        total += e.second;\n"
        "    return total;\n"
        "}\n";
    const auto diags = lintAs("src/core/iter.cc", src);
    ASSERT_EQ(countRule(diags, carbonx::lint::kRuleDeterminism), 1u);
    EXPECT_EQ(diags[0].severity, Severity::Warning);
    EXPECT_EQ(diags[0].line, 3u);
}

TEST(DeterminismTest, MemberRandIsNotLibcRand)
{
    const std::string src = "void f(Rng &g) { auto x = g.rand(); }\n";
    const auto diags = lintAs("src/core/member.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleDeterminism), 0u);
}

// ---------------------------------------------------------------
// Concurrency hygiene.

TEST(ConcurrencyTest, FlagsNakedLockDetachAndSeqCst)
{
    const std::string src =
        "std::mutex m;\n"
        "std::atomic<int> hits{0};\n"
        "// carbonx-hot\n"
        "void f(std::thread &t) {\n"
        "    m.lock();\n"
        "    t.detach();\n"
        "    hits.fetch_add(1);\n"
        "}\n";
    const auto diags = lintAs("src/core/conc.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleConcurrency), 3u);
}

TEST(ConcurrencyTest, RaiiAndExplicitOrdersAreClean)
{
    const std::string src =
        "std::mutex m;\n"
        "std::atomic<int> hits{0};\n"
        "// carbonx-hot\n"
        "void f() {\n"
        "    std::lock_guard<std::mutex> guard(m);\n"
        "    hits.fetch_add(1, std::memory_order_relaxed);\n"
        "}\n";
    const auto diags = lintAs("src/core/conc_ok.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleConcurrency), 0u);
}

TEST(ConcurrencyTest, SeqCstOutsideHotOrRelaxedHomesIsTolerated)
{
    // The seq_cst check applies in src/common, src/obs, and hot
    // regions — where relaxed is the convention. Elsewhere a default
    // seq_cst is a deliberate (safe) choice.
    const std::string src = "std::atomic<int> hits{0};\n"
                            "void f() { hits.fetch_add(1); }\n";
    const auto diags = lintAs("src/core/cold_atomic.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleConcurrency), 0u);
}

TEST(ConcurrencyTest, UniqueLockRelockIsNotNaked)
{
    const std::string src =
        "std::mutex state_mutex_;\n"
        "void f() {\n"
        "    std::unique_lock<std::mutex> lock(state_mutex_);\n"
        "    lock.unlock();\n"
        "    lock.lock();\n"
        "}\n";
    const auto diags = lintAs("src/core/relock.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleConcurrency), 0u);
}

// ---------------------------------------------------------------
// Layering.

TEST(LayeringTest, FlagsEdgeNotInDag)
{
    const std::string src =
        "#include \"scheduler/batched_engine.h\"\n";
    const auto diags = lintAs("src/obs/bad_include.cc", src);
    ASSERT_EQ(countRule(diags, carbonx::lint::kRuleLayering), 1u);
    // The message names the offending edge.
    EXPECT_NE(diags[0].message.find("obs -> scheduler"),
              std::string::npos);
}

TEST(LayeringTest, BatteryMayNotSeeObs)
{
    // The battery layer holds chemistry presets and aging statistics
    // only; the battery physics runs in the scheduler's kernel.
    const std::string src = "#include \"common/units.h\"\n"
                            "#include \"obs/metrics.h\"\n";
    const auto diags = lintAs("src/battery/chemistry.cc", src);
    ASSERT_EQ(countRule(diags, carbonx::lint::kRuleLayering), 1u);
    const auto it = std::find_if(
        diags.begin(), diags.end(), [](const Diagnostic &d) {
            return d.rule == carbonx::lint::kRuleLayering;
        });
    EXPECT_NE(it->message.find("battery -> obs"), std::string::npos);
}

TEST(LayeringTest, AllowsDagEdgesAndSelfAndSystemIncludes)
{
    const std::string src = "#include <vector>\n"
                            "#include \"common/units.h\"\n"
                            "#include \"obs/metrics.h\"\n";
    const auto diags = lintAs("src/obs/good_include.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleLayering), 0u);
}

TEST(LayeringTest, CoreMayIncludeEverything)
{
    const std::string src = "#include \"common/units.h\"\n"
                            "#include \"scheduler/batched_engine.h\"\n"
                            "#include \"fleet/fleet_model.h\"\n"
                            "#include \"grid/grid_mix.h\"\n";
    const auto diags = lintAs("src/core/explorer.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleLayering), 0u);
}

TEST(LayeringTest, NonLayerFilesAreExempt)
{
    const std::string src =
        "#include \"scheduler/batched_engine.h\"\n";
    const auto diags = lintAs("tools/carbonx_cli.cc", src);
    EXPECT_EQ(countRule(diags, carbonx::lint::kRuleLayering), 0u);
}

// ---------------------------------------------------------------
// Registry.

TEST(RegistryTest, EveryRuleIsNamedDocumentedAndFindable)
{
    const auto &table = carbonx::lint::ruleTable();
    EXPECT_EQ(table.size(), 10u);
    for (const auto &rule : table) {
        EXPECT_NE(rule.name, nullptr);
        EXPECT_GT(std::string(rule.summary).size(), 10u);
        EXPECT_NE(rule.check, nullptr);
        EXPECT_EQ(carbonx::lint::findRule(rule.name), &rule);
    }
    EXPECT_EQ(carbonx::lint::findRule("no-such-rule"), nullptr);
}

// ---------------------------------------------------------------
// Baseline.

TEST(BaselineTest, ParsesEntriesWithAttachedComments)
{
    const std::string text =
        "# header prose\n"
        "\n"
        "# why the first entry is fine\n"
        "src/core/a.cc:12 magic-conversion\n"
        "# two lines of\n"
        "# explanation\n"
        "tools/b.cc:3 determinism\n";
    const auto parsed = carbonx::lint::parseBaseline(text);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ASSERT_EQ(parsed.entries.size(), 2u);
    EXPECT_EQ(parsed.entries[0].file, "src/core/a.cc");
    EXPECT_EQ(parsed.entries[0].line, 12u);
    EXPECT_EQ(parsed.entries[0].rule, "magic-conversion");
    EXPECT_NE(parsed.entries[0].comment.find("first entry"),
              std::string::npos);
    EXPECT_EQ(parsed.entries[1].comment,
              "two lines of explanation");
}

TEST(BaselineTest, MalformedEntryFailsTheParse)
{
    const auto no_line =
        carbonx::lint::parseBaseline("src/a.cc magic-conversion\n");
    EXPECT_FALSE(no_line.ok);
    EXPECT_NE(no_line.error.find("line 1"), std::string::npos);

    const auto no_rule = carbonx::lint::parseBaseline("src/a.cc:5\n");
    EXPECT_FALSE(no_rule.ok);

    const auto bad_number =
        carbonx::lint::parseBaseline("src/a.cc:5x magic-conversion\n");
    EXPECT_FALSE(bad_number.ok);
}

TEST(BaselineTest, SuffixMatchRequiresComponentBoundary)
{
    using carbonx::lint::pathSuffixMatches;
    EXPECT_TRUE(pathSuffixMatches("/abs/repo/src/core/a.cc",
                                  "src/core/a.cc"));
    EXPECT_TRUE(pathSuffixMatches("src/core/a.cc", "src/core/a.cc"));
    EXPECT_FALSE(pathSuffixMatches("src/core/xa.cc", "a.cc"));
    EXPECT_FALSE(pathSuffixMatches("src/core/a.cc", "b/src/core/a.cc"));
}

TEST(BaselineTest, ApplyDemotesMatchesAndMarksEntriesUsed)
{
    std::vector<Diagnostic> diags = {
        Diagnostic{"/abs/src/core/a.cc", 12, "magic-conversion",
                   "boom"},
        Diagnostic{"/abs/src/core/a.cc", 13, "magic-conversion",
                   "boom"},
    };
    auto parsed = carbonx::lint::parseBaseline(
        "# fine\nsrc/core/a.cc:12 magic-conversion\n"
        "# stale\nsrc/core/gone.cc:1 determinism\n");
    ASSERT_TRUE(parsed.ok);
    const size_t demoted =
        carbonx::lint::applyBaseline(parsed.entries, diags);
    EXPECT_EQ(demoted, 1u);
    EXPECT_TRUE(diags[0].baselined);
    EXPECT_FALSE(diags[1].baselined);
    EXPECT_TRUE(parsed.entries[0].used);
    EXPECT_FALSE(parsed.entries[1].used);
}

// ---------------------------------------------------------------
// SARIF.

TEST(SarifTest, ReportCarriesRequiredSarifProperties)
{
    std::vector<Diagnostic> diags = {
        Diagnostic{"src/core/a.cc", 12, "magic-conversion",
                   "bare \"24\" factor"},
        Diagnostic{"src/obs/b.cc", 3, "determinism", "rand()",
                   Severity::Warning},
    };
    const std::string report = carbonx::lint::sarifReport(diags);
    const auto doc = carbonx::JsonValue::parse(report);

    EXPECT_EQ(doc.at("version", "sarif").asString(), "2.1.0");
    EXPECT_NE(doc.at("$schema", "sarif").asString().find("2.1.0"),
              std::string::npos);

    const auto &runs = doc.at("runs", "sarif");
    ASSERT_TRUE(runs.isArray());
    ASSERT_EQ(runs.items().size(), 1u);
    const auto &run = runs.items()[0];

    const auto &driver =
        run.at("tool", "run").at("driver", "tool");
    EXPECT_EQ(driver.at("name", "driver").asString(),
              "carbonx-lint");
    const auto &rules = driver.at("rules", "driver");
    ASSERT_TRUE(rules.isArray());
    EXPECT_EQ(rules.items().size(),
              carbonx::lint::ruleTable().size());
    for (const auto &rule : rules.items()) {
        EXPECT_TRUE(rule.at("id", "rule").isString());
        EXPECT_TRUE(rule.at("shortDescription", "rule")
                        .at("text", "desc")
                        .isString());
    }

    const auto &results = run.at("results", "run");
    ASSERT_TRUE(results.isArray());
    ASSERT_EQ(results.items().size(), 2u);

    const auto &first = results.items()[0];
    EXPECT_EQ(first.at("ruleId", "result").asString(),
              "magic-conversion");
    EXPECT_EQ(first.at("level", "result").asString(), "error");
    EXPECT_NE(first.at("message", "result")
                  .at("text", "message")
                  .asString()
                  .find("24"),
              std::string::npos);
    const auto &loc = first.at("locations", "result").items().at(0);
    const auto &phys = loc.at("physicalLocation", "location");
    EXPECT_EQ(phys.at("artifactLocation", "phys")
                  .at("uri", "artifact")
                  .asString(),
              "src/core/a.cc");
    EXPECT_EQ(phys.at("region", "phys")
                  .at("startLine", "region")
                  .asNumber(),
              12.0);

    // ruleIndex must agree with the driver.rules order.
    const size_t idx = static_cast<size_t>(
        first.at("ruleIndex", "result").asNumber());
    ASSERT_LT(idx, rules.items().size());
    EXPECT_EQ(rules.items()[idx].at("id", "rule").asString(),
              "magic-conversion");

    EXPECT_EQ(results.items()[1].at("level", "result").asString(),
              "warning");
}

TEST(SarifTest, BaselinedFindingsAreOmitted)
{
    Diagnostic kept{"src/a.cc", 1, "determinism", "rand()"};
    Diagnostic demoted{"src/b.cc", 2, "determinism", "rand()"};
    demoted.baselined = true;
    const std::string report =
        carbonx::lint::sarifReport({kept, demoted});
    const auto doc = carbonx::JsonValue::parse(report);
    const auto &results =
        doc.at("runs", "sarif").items()[0].at("results", "run");
    ASSERT_EQ(results.items().size(), 1u);
    EXPECT_EQ(results.items()[0]
                  .at("locations", "result")
                  .items()[0]
                  .at("physicalLocation", "loc")
                  .at("artifactLocation", "phys")
                  .at("uri", "artifact")
                  .asString(),
              "src/a.cc");
}

TEST(SarifTest, EscapesControlAndQuoteCharacters)
{
    Diagnostic d{"src/a.cc", 1, "determinism",
                 "quote \" slash \\ newline \n tab \t bell \x07"};
    const std::string report = carbonx::lint::sarifReport({d});
    // Must still parse, and round-trip the message verbatim.
    const auto doc = carbonx::JsonValue::parse(report);
    const auto &msg = doc.at("runs", "sarif")
                          .items()[0]
                          .at("results", "run")
                          .items()[0]
                          .at("message", "result")
                          .at("text", "msg");
    EXPECT_EQ(msg.asString(), d.message);
}

} // namespace

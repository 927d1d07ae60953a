/**
 * @file
 * The scenario runner over a persistent result cache: a rerun over a
 * cache whose tail was corrupted journals the rebuild as one
 * cache_corrupt row, replays the valid records, and keeps the
 * reconciliation identities of DESIGN §15.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "scenario/runner.h"

namespace carbonx::scenario
{
namespace
{

size_t
countVerdict(const std::vector<obs::DecisionRow> &rows,
             obs::DecisionVerdict verdict)
{
    size_t n = 0;
    for (const obs::DecisionRow &row : rows)
        n += row.verdict == verdict ? 1 : 0;
    return n;
}

/** A small adaptive study, cheap enough to run three times. */
Scenario
smallStudy()
{
    Scenario s;
    s.id = "runner-corrupt-cache";
    s.source_path = "<generated>";
    s.strategy = Strategy::RenewableBattery;
    s.mode = SweepMode::Adaptive;
    s.solar.steps = 5;
    s.wind.steps = 5;
    s.battery.steps = 4;
    s.extra.steps = 1;
    return s;
}

TEST(ScenarioRunner, CorruptedCacheJournalsOneCacheCorruptRow)
{
    const std::string dir = testing::TempDir() + "runner_corrupt_cache";
    std::filesystem::remove_all(dir);
    const Scenario s = smallStudy();
    validateScenario(s);

    ScenarioRunOptions opts;
    opts.cache_dir = dir;
    const ScenarioRunResult cold = runScenario(s, opts);
    ASSERT_GT(cold.stats.simulated_points, 0u);
    {
        std::ofstream tail(dir + "/" + s.id + ".evals",
                           std::ios::binary | std::ios::app);
        tail << "not a cache block";
    }

    opts.journal_path = dir + "/rerun.cxj";
    const ScenarioRunResult warm = runScenario(s, opts);
    EXPECT_EQ(warm.result.best.totalKg().value(),
              cold.result.best.totalKg().value());
    EXPECT_EQ(warm.stats.simulated_points, 0u);
    EXPECT_EQ(warm.stats.cache_hits, cold.stats.simulated_points);

    const obs::JournalData data = obs::readJournal(opts.journal_path);
    EXPECT_TRUE(data.truncation_reason.empty());
    EXPECT_EQ(data.config_digest, warm.config_digest);
    EXPECT_EQ(countVerdict(data.rows, obs::DecisionVerdict::CacheCorrupt),
              1u);

    // DESIGN §15: simulated rows, net skips and replays reconcile
    // with the sweep's own statistics, the sentinel row included.
    size_t revived = 0;
    for (const obs::DecisionRow &row : data.rows)
        revived += obs::isRevival(row) ? 1 : 0;
    EXPECT_EQ(countVerdict(data.rows, obs::DecisionVerdict::Evaluated) +
                  countVerdict(data.rows,
                               obs::DecisionVerdict::Interpolated) +
                  countVerdict(data.rows, obs::DecisionVerdict::ReArmed),
              warm.stats.simulated_points);
    EXPECT_EQ(countVerdict(data.rows, obs::DecisionVerdict::Skipped) -
                  revived,
              warm.stats.points_skipped);
    EXPECT_EQ(countVerdict(data.rows, obs::DecisionVerdict::CacheHit),
              warm.stats.cache_hits);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace carbonx::scenario

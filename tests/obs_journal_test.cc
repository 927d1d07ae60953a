/**
 * @file
 * Unit tests for the sweep decision journal: header/block round-trip
 * with NaN-preserving columns, per-worker sink drain order, run-wide
 * wave-id claiming, reader recovery on truncated files, and the
 * allocation-free warm record path (counting operator new).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fnv.h"
#include "obs/journal.h"

#include "counting_new.h"

namespace carbonx
{
namespace
{

constexpr uint64_t kDigest = 0xabcdef0123456789ULL;

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

obs::DecisionRow
rowOf(size_t i, obs::DecisionVerdict verdict)
{
    obs::DecisionRow row;
    row.point_id = 0x1000 + i;
    row.wave = static_cast<uint32_t>(i / 8);
    row.worker = static_cast<uint16_t>(i % 3);
    row.lane = static_cast<uint16_t>(i % 8);
    row.verdict = verdict;
    row.predicted_kg = 1.5 * static_cast<double>(i);
    row.actual_kg = 2.5 * static_cast<double>(i);
    row.margin_kg = 0.25 * static_cast<double>(i);
    row.ts_us = 10 * i;
    return row;
}

void
expectRowsEqual(const obs::DecisionRow &a, const obs::DecisionRow &b)
{
    EXPECT_EQ(a.point_id, b.point_id);
    EXPECT_EQ(a.wave, b.wave);
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_EQ(a.lane, b.lane);
    EXPECT_EQ(a.verdict, b.verdict);
    // Bit-exact including NaN: compare the representations.
    EXPECT_EQ(std::isnan(a.predicted_kg), std::isnan(b.predicted_kg));
    if (!std::isnan(a.predicted_kg)) {
        EXPECT_EQ(a.predicted_kg, b.predicted_kg);
    }
    EXPECT_EQ(std::isnan(a.actual_kg), std::isnan(b.actual_kg));
    if (!std::isnan(a.actual_kg)) {
        EXPECT_EQ(a.actual_kg, b.actual_kg);
    }
    EXPECT_EQ(std::isnan(a.margin_kg), std::isnan(b.margin_kg));
    if (!std::isnan(a.margin_kg)) {
        EXPECT_EQ(a.margin_kg, b.margin_kg);
    }
    EXPECT_EQ(a.ts_us, b.ts_us);
}

TEST(JournalFormat, RoundTripPreservesEveryColumnAndHeader)
{
    const std::string path = tempPath("journal_roundtrip.cxj");
    std::remove(path.c_str());
    std::vector<obs::DecisionRow> written;
    {
        obs::DecisionJournal journal(path, kDigest, "{\"t\":1}");
        for (size_t i = 0; i < 20; ++i) {
            obs::DecisionRow row = rowOf(
                i, static_cast<obs::DecisionVerdict>(
                       i % obs::kDecisionVerdicts));
            if (i % 5 == 0) {
                row.predicted_kg =
                    std::numeric_limits<double>::quiet_NaN();
                row.margin_kg = row.predicted_kg;
            }
            journal.sink(0).record(row);
            written.push_back(row);
        }
        journal.flush();
        // Second block.
        for (size_t i = 20; i < 27; ++i) {
            const obs::DecisionRow row =
                rowOf(i, obs::DecisionVerdict::Evaluated);
            journal.sink(0).record(row);
            written.push_back(row);
        }
        journal.flush();
        EXPECT_EQ(journal.flushedRows(), written.size());
        EXPECT_EQ(journal.pendingRows(), 0u);
    }

    const obs::JournalData data = obs::readJournal(path);
    EXPECT_EQ(data.config_digest, kDigest);
    EXPECT_EQ(data.provenance, "{\"t\":1}");
    EXPECT_TRUE(data.truncation_reason.empty());
    ASSERT_EQ(data.rows.size(), written.size());
    for (size_t i = 0; i < written.size(); ++i) {
        SCOPED_TRACE("row " + std::to_string(i));
        expectRowsEqual(data.rows[i], written[i]);
    }
    std::remove(path.c_str());
}

TEST(JournalFormat, FlushDrainsSinksInWorkerOrder)
{
    const std::string path = tempPath("journal_sink_order.cxj");
    std::remove(path.c_str());
    {
        obs::DecisionJournal journal(path, kDigest);
        journal.ensureSinks(3);
        ASSERT_EQ(journal.sinkCount(), 3u);
        // Record out of worker order; the file must still come out
        // sink 0, then 1, then 2.
        journal.sink(2).record(rowOf(2, obs::DecisionVerdict::Skipped));
        journal.sink(0).record(
            rowOf(0, obs::DecisionVerdict::Evaluated));
        journal.sink(1).record(
            rowOf(1, obs::DecisionVerdict::CacheHit));
        EXPECT_EQ(journal.pendingRows(), 3u);
        journal.flush();
    }
    const obs::JournalData data = obs::readJournal(path);
    ASSERT_EQ(data.rows.size(), 3u);
    EXPECT_EQ(data.rows[0].verdict, obs::DecisionVerdict::Evaluated);
    EXPECT_EQ(data.rows[1].verdict, obs::DecisionVerdict::CacheHit);
    EXPECT_EQ(data.rows[2].verdict, obs::DecisionVerdict::Skipped);
    std::remove(path.c_str());
}

TEST(JournalFormat, DestructorFlushesPendingRows)
{
    const std::string path = tempPath("journal_dtor_flush.cxj");
    std::remove(path.c_str());
    {
        obs::DecisionJournal journal(path, kDigest);
        journal.sink(0).record(
            rowOf(0, obs::DecisionVerdict::Evaluated));
        // No explicit flush: the destructor must persist the row.
    }
    const obs::JournalData data = obs::readJournal(path);
    EXPECT_EQ(data.rows.size(), 1u);
    std::remove(path.c_str());
}

TEST(JournalFormat, ClaimWavesHandsOutUniqueRunWideIds)
{
    const std::string path = tempPath("journal_waves.cxj");
    std::remove(path.c_str());
    obs::DecisionJournal journal(path, kDigest);
    EXPECT_EQ(journal.nextWave(), 0u);
    EXPECT_EQ(journal.claimWaves(3), 0u);
    EXPECT_EQ(journal.nextWave(), 3u);
    EXPECT_EQ(journal.claimWaves(0), 3u);
    EXPECT_EQ(journal.claimWaves(2), 3u);
    EXPECT_EQ(journal.nextWave(), 5u);
    std::remove(path.c_str());
}

TEST(JournalFormat, PointIdIsFnvOverTheFourCoordinates)
{
    const std::array<double, 4> coords = {59.0, 76.0, 12.5, 0.2};
    EXPECT_EQ(obs::decisionPointId(coords),
              fnv1a64Bytes(coords.data(),
                           coords.size() * sizeof(double)));
}

TEST(JournalFormat, VerdictNamesAreStable)
{
    EXPECT_STREQ(
        obs::decisionVerdictName(obs::DecisionVerdict::Evaluated),
        "evaluated");
    EXPECT_STREQ(
        obs::decisionVerdictName(obs::DecisionVerdict::Interpolated),
        "interpolated");
    EXPECT_STREQ(
        obs::decisionVerdictName(obs::DecisionVerdict::Skipped),
        "skipped");
    EXPECT_STREQ(
        obs::decisionVerdictName(obs::DecisionVerdict::CacheHit),
        "cache_hit");
    EXPECT_STREQ(
        obs::decisionVerdictName(obs::DecisionVerdict::ReArmed),
        "re_armed");
    EXPECT_STREQ(
        obs::decisionVerdictName(obs::DecisionVerdict::CacheCorrupt),
        "cache_corrupt");
}

TEST(JournalFormat, MissingFileThrows)
{
    EXPECT_THROW(obs::readJournal(tempPath("journal_missing.cxj")),
                 Error);
}

TEST(JournalFormat, EmptyJournalReadsHeaderOnly)
{
    const std::string path = tempPath("journal_empty.cxj");
    std::remove(path.c_str());
    {
        const obs::DecisionJournal journal(path, kDigest, "prov");
    }
    const obs::JournalData data = obs::readJournal(path);
    EXPECT_EQ(data.config_digest, kDigest);
    EXPECT_EQ(data.provenance, "prov");
    EXPECT_TRUE(data.rows.empty());
    EXPECT_TRUE(data.truncation_reason.empty());
    std::remove(path.c_str());
}

TEST(JournalFormat, ConstructionTruncatesAPriorRunsFile)
{
    const std::string path = tempPath("journal_truncate.cxj");
    std::remove(path.c_str());
    {
        obs::DecisionJournal journal(path, kDigest);
        journal.sink(0).record(
            rowOf(0, obs::DecisionVerdict::Evaluated));
        journal.flush();
    }
    {
        const obs::DecisionJournal fresh(path, kDigest + 1);
    }
    const obs::JournalData data = obs::readJournal(path);
    EXPECT_EQ(data.config_digest, kDigest + 1);
    EXPECT_TRUE(data.rows.empty());
    std::remove(path.c_str());
}

TEST(JournalHotPath, WarmSinkRecordIsAllocationFree)
{
    const std::string path = tempPath("journal_alloc_free.cxj");
    std::remove(path.c_str());
    obs::DecisionJournal journal(path, kDigest);
    journal.ensureSinks(2);

    // Warm both sinks past the working-set size, then flush —
    // clear-on-flush keeps the capacity.
    constexpr size_t kRows = 256;
    for (size_t i = 0; i < kRows; ++i)
        journal.sink(i % 2).record(
            rowOf(i, obs::DecisionVerdict::Evaluated));
    journal.flush();
    ASSERT_GE(journal.sink(0).capacity(), kRows / 2);

    g_allocation_count.store(0);
    g_count_allocations.store(true);
    for (size_t i = 0; i < kRows; ++i)
        journal.sink(i % 2).record(
            rowOf(i, obs::DecisionVerdict::Evaluated));
    const uint64_t nowus = journal.nowUs();
    g_count_allocations.store(false);
    EXPECT_EQ(g_allocation_count.load(), 0u)
        << "warm record()/nowUs() path must not allocate";
    EXPECT_GE(nowus, 0u);
    journal.flush();
    std::remove(path.c_str());
}

} // namespace
} // namespace carbonx

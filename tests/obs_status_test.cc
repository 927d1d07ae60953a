/**
 * @file
 * Unit tests of obs::RunStatus, the one live progress aggregate of a
 * sweep. The SweepProgress suite covers its milestone series: it must
 * be monotone, end at 100% even when the throttle stride does not
 * divide the total, survive a growing total, and be closed exactly
 * once by finishPass() — also when the pass stops short of its total.
 * The RunStatus suite covers the page itself: its text sections, the
 * tmp-then-rename file write, worker slots, the SIGUSR1 flag, and an
 * explorer that reports into a status with no callback attached.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/explorer.h"
#include "obs/status.h"

namespace carbonx::obs
{
namespace
{

constexpr size_t kMaxMilestones = RunStatus::kMilestonesPerPass + 1;

/** A status whose milestone callback records every snapshot. */
struct Capture
{
    RunStatus status;
    std::vector<SweepProgress> snapshots;

    Capture()
    {
        status.setMilestoneCallback(
            [this](const SweepProgress &p) { snapshots.push_back(p); });
    }
};

TEST(SweepProgress, FinalMilestoneAlwaysFires)
{
    // 25 points: stride ceil(25/10) = 3, so the throttle lands on 3,
    // 6, ..., 24 — never on 25. Reaching the total must still close
    // the series at 100%.
    Capture capture;
    capture.status.beginPass(0, 25);
    for (int i = 0; i < 25; ++i)
        capture.status.addPoints(1, 100.0 - i);
    ASSERT_FALSE(capture.snapshots.empty());
    EXPECT_EQ(capture.snapshots.back().points_done, 25u);
    EXPECT_EQ(capture.snapshots.back().points_total, 25u);
    EXPECT_EQ(capture.snapshots.back().fractionDone(), 1.0);
    EXPECT_LE(capture.snapshots.size(), kMaxMilestones);
}

TEST(SweepProgress, SeriesIsMonotoneAndTracksBest)
{
    // Waves of 7 points: a wave crosses a milestone without landing
    // on a multiple of the stride (5), and still reports it.
    Capture capture;
    capture.status.beginPass(2, 50);
    for (int i = 0; i < 50; i += 7) {
        const int n = std::min(7, 50 - i);
        capture.status.addWave(0, static_cast<uint64_t>(n),
                               1000.0 - (i + n - 1));
    }
    ASSERT_FALSE(capture.snapshots.empty());
    size_t prev = 0;
    for (const SweepProgress &p : capture.snapshots) {
        EXPECT_GT(p.points_done, prev);
        prev = p.points_done;
        EXPECT_EQ(p.pass, 2);
        EXPECT_EQ(p.points_total, 50u);
        EXPECT_GE(p.eta_seconds, 0.0);
    }
    EXPECT_LE(capture.snapshots.size(), kMaxMilestones);
    EXPECT_EQ(capture.snapshots.back().points_done, 50u);
    EXPECT_EQ(capture.snapshots.back().best_total_kg, 1000.0 - 49.0);
}

TEST(SweepProgress, FinishClosesAShortenedPass)
{
    // A pass that stops short of its total (e.g. an aborted sweep)
    // leaves the throttled series dangling; finishPass() reports the
    // points actually done.
    Capture capture;
    capture.status.beginPass(0, 100);
    for (int i = 0; i < 14; ++i) // Milestone at 10; 14 unreported.
        capture.status.addPoints(1, 50.0);
    ASSERT_EQ(capture.snapshots.size(), 1u);
    EXPECT_EQ(capture.snapshots.back().points_done, 10u);

    capture.status.finishPass();
    ASSERT_EQ(capture.snapshots.size(), 2u);
    EXPECT_EQ(capture.snapshots.back().points_done, 14u);
}

TEST(SweepProgress, FinishIsIdempotent)
{
    Capture capture;
    capture.status.beginPass(0, 4);
    for (int i = 0; i < 4; ++i)
        capture.status.addPoints(1, 10.0);
    const size_t after_adds = capture.snapshots.size();
    EXPECT_EQ(capture.snapshots.back().points_done, 4u);

    // The final add already reported 4/4; finishPass() must not emit
    // a duplicate — in any order or multiplicity.
    capture.status.finishPass();
    capture.status.finishPass();
    EXPECT_EQ(capture.snapshots.size(), after_adds);
}

TEST(SweepProgress, FinishBeforeAnyPointIsSilent)
{
    Capture capture;
    capture.status.beginPass(0, 10);
    capture.status.finishPass();
    EXPECT_TRUE(capture.snapshots.empty());
}

TEST(SweepProgress, EmptyCallbackMakesEmitterInert)
{
    // Without a callback nothing fires, but the status still
    // aggregates the pass: the page needs no front end to be right.
    RunStatus status;
    status.beginPass(0, 10);
    for (int i = 0; i < 10; ++i)
        status.addPoints(1, 1.0 + i);
    status.finishPass(); // Must not crash or invoke anything.
    const RunStatus::Snapshot snap = status.snapshot();
    EXPECT_EQ(snap.progress.points_done, 10u);
    EXPECT_EQ(snap.progress.points_total, 10u);
    EXPECT_EQ(snap.progress.best_total_kg, 1.0);
}

TEST(SweepProgress, GrowingTotalKeepsSnapshotsConsistent)
{
    // An adaptive sweep discovers work between waves: the total
    // starts at the coarse count and grows before each refinement.
    // Every snapshot must stay internally consistent — done never
    // exceeds the total, the fraction never exceeds 1 — and both
    // series must be monotone.
    Capture capture;
    RunStatus &status = capture.status;
    status.beginPass(0, 4);
    for (int i = 0; i < 4; ++i)
        status.addPoints(1, 50.0 - i);
    status.growTotal(6);
    for (int i = 0; i < 6; ++i)
        status.addPoints(1, 40.0 - i);
    status.growTotal(2);
    status.addPoints(1, 10.0);
    status.addPoints(1, 9.0);
    status.finishPass();

    ASSERT_FALSE(capture.snapshots.empty());
    size_t prev_done = 0;
    size_t prev_total = 0;
    for (const SweepProgress &p : capture.snapshots) {
        EXPECT_LE(p.points_done, p.points_total);
        EXPECT_LE(p.fractionDone(), 1.0);
        EXPECT_GE(p.points_done, prev_done);
        EXPECT_GE(p.points_total, prev_total);
        prev_done = p.points_done;
        prev_total = p.points_total;
    }
    EXPECT_EQ(capture.snapshots.back().points_done, 12u);
    EXPECT_EQ(capture.snapshots.back().points_total, 12u);
    EXPECT_EQ(capture.snapshots.back().fractionDone(), 1.0);
}

TEST(SweepProgress, GrowTotalAfterFinalPointStillClosesAtFullFraction)
{
    // The adaptive driver may grow the total for a wave that turns
    // out to be fully skippable (every candidate excluded), adding
    // zero evaluations. finishPass() must still close the series
    // with done == total.
    Capture capture;
    capture.status.beginPass(0, 3);
    for (int i = 0; i < 3; ++i)
        capture.status.addPoints(1, 5.0);
    capture.status.growTotal(0); // a wave with nothing to evaluate
    capture.status.finishPass();

    ASSERT_FALSE(capture.snapshots.empty());
    EXPECT_EQ(capture.snapshots.back().points_done,
              capture.snapshots.back().points_total);
    EXPECT_EQ(capture.snapshots.back().fractionDone(), 1.0);
}

TEST(SweepProgress, AdaptiveSweepMilestonesStayMonotoneEndToEnd)
{
    // Integration shape: many small growth bursts interleaved with
    // completions, like cells-per-wave refinement. The initial total
    // of 10 makes the stride 1, so many milestones fire.
    Capture capture;
    RunStatus &status = capture.status;
    status.beginPass(2, 10);
    for (int i = 0; i < 10; ++i)
        status.addPoints(1, 100.0);
    for (int wave = 0; wave < 7; ++wave) {
        status.growTotal(static_cast<uint64_t>(wave % 3));
        for (int i = 0; i < wave % 3; ++i)
            status.addPoints(1, 90.0 - wave);
    }
    status.finishPass();

    ASSERT_FALSE(capture.snapshots.empty());
    double prev_fraction = 0.0;
    for (const SweepProgress &p : capture.snapshots) {
        EXPECT_EQ(p.pass, 2);
        EXPECT_LE(p.points_done, p.points_total);
        // The fraction itself may dip when the total grows; it must
        // never exceed 1 and must end at exactly 1.
        EXPECT_LE(p.fractionDone(), 1.0);
        prev_fraction = p.fractionDone();
    }
    EXPECT_EQ(prev_fraction, 1.0);
    EXPECT_EQ(capture.snapshots.back().points_done, 16u);
}

TEST(SweepProgress, ConcurrentAddGrowAndFinishStaysCoherent)
{
    // Stress the status the way a parallel refinement wave does:
    // many worker threads add waves concurrently, another thread
    // grows the total mid-flight, a reader renders snapshots, and
    // several threads race finishPass() at the end. The callback
    // runs under the emit lock, so Capture's plain vector is safe.
    constexpr size_t kThreads = 8;
    constexpr size_t kWave = 20;
    constexpr size_t kWavesPerThread = 25;
    constexpr size_t kPerThread = kWave * kWavesPerThread;
    constexpr size_t kPoints = kThreads * kPerThread;
    constexpr size_t kGrowth = 64;

    Capture capture;
    RunStatus &status = capture.status;
    status.beginPass(1, kPoints);

    std::atomic<bool> go{false};
    std::atomic<bool> done{false};
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (size_t w = 0; w < kWavesPerThread; ++w) {
                // Deterministic minimum 1.0 regardless of schedule.
                status.addWave(t, kWave,
                               1.0 + static_cast<double>(
                                         t * kPerThread + w * kWave));
            }
        });
    }
    // The grower races the adders; the announced-but-never-added
    // points leave the pass short of its total, the case
    // finishPass() exists for.
    workers.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (size_t i = 0; i < kGrowth; ++i)
            status.growTotal(1);
    });
    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            const RunStatus::Snapshot snap = status.snapshot();
            EXPECT_LE(snap.progress.points_done,
                      snap.progress.points_total);
        }
    });
    go.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();

    std::vector<std::thread> finishers;
    for (size_t t = 0; t < 4; ++t)
        finishers.emplace_back([&] { status.finishPass(); });
    for (auto &f : finishers)
        f.join();
    done.store(true, std::memory_order_release);
    reader.join();

    ASSERT_FALSE(capture.snapshots.empty());
    EXPECT_LE(capture.snapshots.size(), kMaxMilestones);
    size_t prev_done = 0;
    size_t prev_total = 0;
    size_t terminal_snapshots = 0;
    for (const SweepProgress &p : capture.snapshots) {
        EXPECT_EQ(p.pass, 1);
        // Strictly monotone done, monotone totals, done <= total.
        EXPECT_GT(p.points_done, prev_done);
        EXPECT_GE(p.points_total, prev_total);
        EXPECT_GE(p.points_total, kPoints);
        EXPECT_LE(p.points_done, p.points_total);
        EXPECT_LE(p.fractionDone(), 1.0);
        prev_done = p.points_done;
        prev_total = p.points_total;
        if (p.points_done == kPoints)
            ++terminal_snapshots;
    }
    // Racing finishPass() calls close the series exactly once, at the
    // number of points actually completed.
    EXPECT_EQ(terminal_snapshots, 1u);
    EXPECT_EQ(capture.snapshots.back().points_done, kPoints);
    // The terminal emit may race the last growTotal() calls, so the
    // final total is only bounded, not exact.
    EXPECT_LE(capture.snapshots.back().points_total,
              kPoints + kGrowth);
    EXPECT_DOUBLE_EQ(capture.snapshots.back().best_total_kg, 1.0);

    // Every wave landed in its worker's slot.
    const RunStatus::Snapshot snap = status.snapshot();
    EXPECT_EQ(snap.waves_done, kThreads * kWavesPerThread);
    ASSERT_EQ(snap.workers.size(), kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(snap.workers[t].first, t);
        EXPECT_EQ(snap.workers[t].second.waves, kWavesPerThread);
        EXPECT_EQ(snap.workers[t].second.points, kPerThread);
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

TEST(RunStatus, WriteTextListsEverySection)
{
    RunStatus status;
    std::ostringstream idle;
    status.writeText(idle);
    EXPECT_NE(idle.str().find("phase:        idle"), std::string::npos);
    EXPECT_NE(idle.str().find("eta:          unknown"),
              std::string::npos);
    // No worker has reported yet, so the section is omitted.
    EXPECT_EQ(idle.str().find("workers:"), std::string::npos);

    status.setPhase("exhaustive sweep");
    status.beginPass(3, 40);
    status.addWave(2, 16, 1234.5);
    std::ostringstream os;
    status.writeText(os);
    const std::string page = os.str();
    EXPECT_EQ(page.rfind("carbonx run status\n", 0), 0u);
    for (const char *line :
         {"  phase:        exhaustive sweep\n", "  pass:         3\n",
          "  points:       16 / 40\n", "  best total:   1234.5 kg\n",
          "  elapsed:      ", "  eta:          ", "  points/s:     ",
          "  waves:        1\n", "  workers:\n",
          "    worker 2: 1 waves, 16 points\n"}) {
        EXPECT_NE(page.find(line), std::string::npos) << line;
    }
    EXPECT_EQ(page.find("unknown"), std::string::npos);
}

TEST(RunStatus, WriteFileRenamesTheTmpPageOverThePath)
{
    const std::string path = "obs_status_test_page.txt";
    {
        std::ofstream stale(path);
        stale << "stale page\n";
    }
    RunStatus status;
    status.setPhase("done");
    ASSERT_TRUE(status.writeFile(path));

    std::ostringstream expected;
    status.writeText(expected);
    EXPECT_EQ(readFile(path), expected.str());
    EXPECT_FALSE(fileExists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(RunStatus, WriteFileFailsCleanlyOnAnUnwritableDirectory)
{
    // A regular file used as the directory: nothing can be created
    // under it, whatever the process's privileges.
    const std::string blocker = "obs_status_test_blocker";
    {
        std::ofstream file(blocker);
        file << "not a directory\n";
    }
    RunStatus status;
    EXPECT_FALSE(status.writeFile(blocker + "/status.txt"));
    EXPECT_EQ(readFile(blocker), "not a directory\n");
    std::remove(blocker.c_str());
}

TEST(RunStatus, WorkerIdsBeyondTheArrayFoldIntoTheLastSlot)
{
    RunStatus status;
    status.addWave(RunStatus::kMaxWorkers + 5, 3, 1.0);
    status.addWave(RunStatus::kMaxWorkers, 4, 1.0);
    status.addWave(RunStatus::kMaxWorkers - 1, 2, 1.0);
    status.addWave(0, 1, 1.0);

    const RunStatus::Snapshot snap = status.snapshot();
    EXPECT_EQ(snap.waves_done, 4u);
    ASSERT_EQ(snap.workers.size(), 2u);
    EXPECT_EQ(snap.workers[0].first, 0u);
    EXPECT_EQ(snap.workers[0].second.waves, 1u);
    EXPECT_EQ(snap.workers[1].first, RunStatus::kMaxWorkers - 1);
    EXPECT_EQ(snap.workers[1].second.waves, 3u);
    EXPECT_EQ(snap.workers[1].second.points, 9u);
}

#ifdef SIGUSR1
TEST(RunStatus, ConsumeStatusSignalFiresOnceAfterSigusr1)
{
    installStatusSignalHandler();
    consumeStatusSignal(); // Drop anything pending from earlier.
    EXPECT_FALSE(consumeStatusSignal());
    ASSERT_EQ(std::raise(SIGUSR1), 0);
    EXPECT_TRUE(consumeStatusSignal());
    EXPECT_FALSE(consumeStatusSignal());
}
#endif

TEST(RunStatus, BeginPassRestartsTheSeriesButKeepsWorkerTotals)
{
    Capture capture;
    RunStatus &status = capture.status;
    status.beginPass(0, 8);
    status.addWave(1, 8, 50.0);
    status.finishPass();
    status.beginPass(1, 4);
    status.addWave(1, 4, 60.0);
    status.finishPass();

    ASSERT_EQ(capture.snapshots.size(), 2u);
    EXPECT_EQ(capture.snapshots[0].pass, 0);
    EXPECT_EQ(capture.snapshots[0].points_done, 8u);
    EXPECT_EQ(capture.snapshots[1].pass, 1);
    EXPECT_EQ(capture.snapshots[1].points_done, 4u);
    // The best total is per pass: pass 1 never saw pass 0's 50.
    EXPECT_EQ(capture.snapshots[1].best_total_kg, 60.0);

    const RunStatus::Snapshot snap = status.snapshot();
    EXPECT_EQ(snap.waves_done, 2u);
    ASSERT_EQ(snap.workers.size(), 1u);
    EXPECT_EQ(snap.workers[0].second.points, 12u);
}

TEST(RunStatus, FinishedPassFreezesItsTimes)
{
    RunStatus status;
    status.beginPass(0, 10);
    status.addPoints(10, 3.0);
    status.finishPass();
    const SweepProgress first = status.snapshot().progress;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const SweepProgress later = status.snapshot().progress;
    EXPECT_EQ(later.elapsed_seconds, first.elapsed_seconds);
    EXPECT_EQ(later.eta_seconds, 0.0);
    EXPECT_EQ(later.pointsPerSecond(), first.pointsPerSecond());
}

TEST(RunStatus, ExplorerWithOnlyAStatusReportsTheWholeLattice)
{
    // No milestone callback: the sweep itself keeps the status
    // current, so a status page attached on its own is never stuck
    // at zero points.
    ExplorerConfig config;
    config.ba_code = "PACE";
    config.avg_dc_power_mw = MegaWatts(19.0);
    CarbonExplorer explorer(config);
    RunStatus status;
    explorer.setRunStatus(&status);

    const DesignSpace space = DesignSpace::forDatacenter(19.0, 6.0, 4, 3, 2);
    const Strategy strategy = Strategy::RenewableBattery;
    const OptimizationResult result = explorer.optimize(space, strategy);

    const RunStatus::Snapshot snap = status.snapshot();
    EXPECT_STREQ(snap.phase, "exhaustive sweep");
    EXPECT_EQ(snap.progress.pass, 0);
    EXPECT_EQ(snap.progress.points_done, space.sizeFor(strategy));
    EXPECT_EQ(snap.progress.points_total, space.sizeFor(strategy));
    EXPECT_EQ(snap.progress.best_total_kg,
              result.best.totalKg().value());
    EXPECT_GT(snap.waves_done, 0u);
}

} // namespace
} // namespace carbonx::obs

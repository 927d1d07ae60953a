/**
 * @file
 * Determinism contract of the parallel design-space sweep: optimize(),
 * with or without refinement rounds, must produce bit-identical
 * results at any thread count, the allocation-free workspace paths
 * (supplyFor into a buffer, a reused one-lane batch) must match their
 * allocating counterparts exactly, and sweep progress must report
 * monotone throttled milestones ending at the total.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

#include "battery/chemistry.h"
#include "common/parallel.h"
#include "core/adaptive_sweep.h"
#include "core/explorer.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/status.h"
#include "scheduler/batched_engine.h"

#include "counting_new.h"

namespace carbonx
{
namespace
{

/** RAII guard restoring the automatic thread count. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(size_t n) { setThreadCount(n); }
    ~ThreadCountGuard() { setThreadCount(0); }
};

ExplorerConfig
utahConfig()
{
    ExplorerConfig cfg;
    cfg.ba_code = "PACE";
    cfg.avg_dc_power_mw = MegaWatts(19.0);
    cfg.flexible_ratio = Fraction(0.4);
    return cfg;
}

const CarbonExplorer &
utahExplorer()
{
    static const CarbonExplorer explorer(utahConfig());
    return explorer;
}

DesignSpace
smallSpace()
{
    return DesignSpace::forDatacenter(19.0, 6.0, 3, 3, 2);
}

void
expectEvalIdentical(const Evaluation &a, const Evaluation &b)
{
    EXPECT_EQ(a.point.solar_mw, b.point.solar_mw);
    EXPECT_EQ(a.point.wind_mw, b.point.wind_mw);
    EXPECT_EQ(a.point.battery_mwh, b.point.battery_mwh);
    EXPECT_EQ(a.point.extra_capacity, b.point.extra_capacity);
    EXPECT_EQ(a.strategy, b.strategy);
    EXPECT_EQ(a.coverage_pct, b.coverage_pct);
    EXPECT_EQ(a.operational_kg.value(), b.operational_kg.value());
    EXPECT_EQ(a.embodied_solar_kg.value(), b.embodied_solar_kg.value());
    EXPECT_EQ(a.embodied_wind_kg.value(), b.embodied_wind_kg.value());
    EXPECT_EQ(a.embodied_battery_kg.value(), b.embodied_battery_kg.value());
    EXPECT_EQ(a.embodied_server_kg.value(), b.embodied_server_kg.value());
    EXPECT_EQ(a.battery_cycles, b.battery_cycles);
    EXPECT_EQ(a.deferred_mwh.value(), b.deferred_mwh.value());
    EXPECT_EQ(a.renewable_excess_mwh.value(), b.renewable_excess_mwh.value());
}

void
expectResultIdentical(const OptimizationResult &a,
                      const OptimizationResult &b)
{
    expectEvalIdentical(a.best, b.best);
    ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
    for (size_t i = 0; i < a.evaluated.size(); ++i) {
        SCOPED_TRACE("evaluated[" + std::to_string(i) + "]");
        expectEvalIdentical(a.evaluated[i], b.evaluated[i]);
    }
}

TEST(ParallelSweep, OptimizeBitIdenticalAcrossThreadCounts)
{
    const CarbonExplorer &ex = utahExplorer();
    const DesignSpace space = smallSpace();
    const Strategy strategy = Strategy::RenewableBatteryCas;

    OptimizationResult serial;
    {
        const ThreadCountGuard guard(1);
        serial = ex.optimize(space, strategy);
    }
    for (size_t threads : {size_t{2}, hardwareThreads()}) {
        const ThreadCountGuard guard(threads);
        const OptimizationResult parallel = ex.optimize(space, strategy);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectResultIdentical(serial, parallel);
    }
}

TEST(ParallelSweep, OptimizeBitIdenticalWithProfilerEnabled)
{
    // The profiler's non-interference contract: enabling it only
    // reads clocks, so a profiled sweep must stay bit-identical to an
    // unprofiled serial one at any thread count.
    const CarbonExplorer &ex = utahExplorer();
    const DesignSpace space = smallSpace();
    const Strategy strategy = Strategy::RenewableBatteryCas;

    OptimizationResult unprofiled;
    {
        const ThreadCountGuard guard(1);
        unprofiled = ex.optimize(space, strategy);
    }

    struct ProfilerGuard
    {
        ProfilerGuard()
        {
            auto &p = obs::PhaseProfiler::instance();
            p.reset();
            p.setEnabled(true);
        }
        ~ProfilerGuard()
        {
            auto &p = obs::PhaseProfiler::instance();
            p.setEnabled(false);
            p.reset();
        }
    };
    const ProfilerGuard profiling;
    for (size_t threads : {size_t{1}, size_t{2}, hardwareThreads()}) {
        const ThreadCountGuard guard(threads);
        const OptimizationResult profiled = ex.optimize(space, strategy);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectResultIdentical(unprofiled, profiled);
    }

    // And the sweep really was profiled, not silently disabled.
    const obs::ProfileNode merged =
        obs::PhaseProfiler::instance().merged();
    const obs::ProfileNode *pass = merged.find("sweep/pass");
    ASSERT_NE(pass, nullptr);
    EXPECT_GE(pass->count, 3u);
}

TEST(ParallelSweep, OptimizeRefinedBitIdenticalAcrossThreadCounts)
{
    const CarbonExplorer &ex = utahExplorer();
    const DesignSpace space = smallSpace();
    const Strategy strategy = Strategy::RenewableBattery;

    OptimizationResult serial;
    {
        const ThreadCountGuard guard(1);
        serial = ex.optimize(space, strategy, 1);
    }
    const ThreadCountGuard guard(hardwareThreads());
    const OptimizationResult parallel =
        ex.optimize(space, strategy, 1);
    expectResultIdentical(serial, parallel);
}

TEST(ParallelSweep, SupplyBufferOverloadMatchesAllocating)
{
    const CoverageAnalyzer &cov = utahExplorer().coverageAnalyzer();
    const TimeSeries fresh = cov.supplyFor(MegaWatts(123.0), MegaWatts(45.0));
    TimeSeries buffer(fresh.year(), 99.0); // Pre-filled with garbage.
    cov.supplyFor(MegaWatts(123.0), MegaWatts(45.0), buffer);
    for (size_t h = 0; h < fresh.size(); ++h)
        ASSERT_EQ(fresh[h], buffer[h]) << "hour " << h;
}

TEST(ParallelSweep, RunIntoReusedResultMatchesAllocating)
{
    const CarbonExplorer &ex = utahExplorer();
    const CoverageAnalyzer &cov = ex.coverageAnalyzer();
    const BatchedSimulationEngine engine(ex.dcPower(), cov.solarShape(),
                                         cov.windShape(),
                                         &ex.gridIntensity());

    BatchLaneConfig with_cas;
    with_cas.solar_mw = MegaWatts(80.0);
    with_cas.wind_mw = MegaWatts(40.0);
    with_cas.capacity_cap_mw = MegaWatts(ex.dcPeakPowerMw() * 1.2);
    with_cas.flexible_ratio = Fraction(0.4);

    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    BatchLaneConfig with_batt = with_cas;
    with_batt.capacity_cap_mw = MegaWatts(ex.dcPeakPowerMw());
    with_batt.flexible_ratio = Fraction(0.0);
    with_batt.chemistry = &lfp;
    with_batt.battery_capacity_mwh = MegaWattHours(150.0);

    // One reused batch and recorder across two different lanes: the
    // second run must be unaffected by the first (reset correctness).
    SimulationBatch reused(1);
    obs::FlightRecorder reused_rec;
    for (const BatchLaneConfig *lane : {&with_cas, &with_batt}) {
        SimulationBatch fresh(1);
        fresh.addLane(*lane);
        obs::FlightRecorder fresh_rec;
        engine.run(fresh, &fresh_rec);
        reused.clear();
        reused.addLane(*lane);
        engine.run(reused, &reused_rec);
        const BatchLaneResult &a = fresh.result(0);
        const BatchLaneResult &b = reused.result(0);
        EXPECT_EQ(a.load_energy_mwh.value(), b.load_energy_mwh.value());
        EXPECT_EQ(a.served_energy_mwh.value(), b.served_energy_mwh.value());
        EXPECT_EQ(a.grid_energy_mwh.value(), b.grid_energy_mwh.value());
        EXPECT_EQ(a.renewable_used_mwh.value(), b.renewable_used_mwh.value());
        EXPECT_EQ(a.renewable_excess_mwh.value(),
                  b.renewable_excess_mwh.value());
        EXPECT_EQ(a.deferred_mwh.value(), b.deferred_mwh.value());
        EXPECT_EQ(a.max_backlog_mwh.value(), b.max_backlog_mwh.value());
        EXPECT_EQ(a.residual_backlog_mwh.value(),
                  b.residual_backlog_mwh.value());
        EXPECT_EQ(a.slo_violation_mwh.value(), b.slo_violation_mwh.value());
        EXPECT_EQ(a.peak_power_mw.value(), b.peak_power_mw.value());
        EXPECT_EQ(a.battery_cycles, b.battery_cycles);
        EXPECT_EQ(a.coverage_pct, b.coverage_pct);
        EXPECT_EQ(a.operational_kg.value(), b.operational_kg.value());
        EXPECT_TRUE(obs::bitIdentical(fresh_rec, reused_rec));
    }
}

TEST(ParallelSweep, ProgressMilestonesAreMonotoneAndEndAtTotal)
{
    CarbonExplorer explorer(utahConfig());
    // 216 points: four 64-lane waves, so several milestones fire.
    const DesignSpace space = DesignSpace::forDatacenter(19.0, 6.0, 6, 6, 2);

    std::mutex mutex;
    std::vector<obs::SweepProgress> snapshots;
    obs::RunStatus status;
    status.setMilestoneCallback([&](const obs::SweepProgress &p) {
        const std::lock_guard<std::mutex> lock(mutex);
        snapshots.push_back(p);
    });
    explorer.setRunStatus(&status);

    const ThreadCountGuard guard(hardwareThreads());
    const Strategy strategy = Strategy::RenewableBattery;
    explorer.optimize(space, strategy);

    const size_t total = space.sizeFor(strategy);
    ASSERT_FALSE(snapshots.empty());
    EXPECT_GT(snapshots.size(), 1u);
    EXPECT_LE(snapshots.size(), obs::RunStatus::kMilestonesPerPass + 1);
    for (size_t i = 0; i < snapshots.size(); ++i) {
        EXPECT_EQ(snapshots[i].pass, 0);
        EXPECT_EQ(snapshots[i].points_total, total);
        EXPECT_GT(snapshots[i].best_total_kg, 0.0);
        EXPECT_GE(snapshots[i].eta_seconds, 0.0);
        if (i > 0) {
            EXPECT_GT(snapshots[i].points_done,
                      snapshots[i - 1].points_done);
        }
    }
    EXPECT_EQ(snapshots.back().points_done, total);
}

/** The paper's Fig. 7 surface: a 101 x 101 RenewablesOnly lattice. */
DesignSpace
fig7Space()
{
    return DesignSpace::forDatacenter(19.0, 6.0, 101, 2, 2);
}

TEST(ParallelSweep, ThinLatticeBatchesOccupyEveryWorker)
{
    // One inner point per (solar, wind) pair: each checkpoint batch
    // must still hold enough 64-lane waves for every worker, and the
    // result must not depend on which worker ran which wave.
    const CarbonExplorer &ex = utahExplorer();
    const DesignSpace space = fig7Space();
    const Strategy strategy = Strategy::RenewablesOnly;
    ASSERT_EQ(space.sizeFor(strategy), 101u * 101u);

    OptimizationResult serial;
    {
        const ThreadCountGuard guard(1);
        serial = ex.optimize(space, strategy);
    }
    for (const size_t threads : {size_t{2}, size_t{3}}) {
        CarbonExplorer explorer(utahConfig());
        obs::RunStatus status;
        explorer.setRunStatus(&status);
        const ThreadCountGuard guard(threads);
        const OptimizationResult parallel =
            explorer.optimize(space, strategy);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectResultIdentical(serial, parallel);
        EXPECT_EQ(std::bit_cast<uint64_t>(parallel.best.totalKg().value()),
                  std::bit_cast<uint64_t>(serial.best.totalKg().value()));
        for (size_t i = 0; i < serial.evaluated.size(); ++i) {
            ASSERT_EQ(std::bit_cast<uint64_t>(
                          parallel.evaluated[i].totalKg().value()),
                      std::bit_cast<uint64_t>(
                          serial.evaluated[i].totalKg().value()))
                << "evaluated[" << i << "]";
        }

        const obs::RunStatus::Snapshot snap = status.snapshot();
        ASSERT_EQ(snap.workers.size(), threads);
        for (const auto &[worker, state] : snap.workers) {
            SCOPED_TRACE("worker " + std::to_string(worker));
            EXPECT_GT(state.waves, 0u);
        }
    }
}

TEST(ParallelSweep, ThreadsGaugeCountsWorkersOneBatchCanOccupy)
{
    const CarbonExplorer &ex = utahExplorer();
    const auto &g_threads = obs::gauge("sweep.threads");
    const ThreadCountGuard guard(2);

    // One point: one one-lane wave, so one worker runs it whatever
    // the pool size.
    ex.optimize(DesignSpace::forDatacenter(19.0, 6.0, 1, 1, 1),
                Strategy::RenewablesOnly);
    EXPECT_EQ(g_threads.value(), 1.0);

    // Adaptive waves of 64 or fewer misses split across both workers.
    AdaptiveSweeper(ex).sweep(DesignSpace::forDatacenter(19.0, 6.0, 7, 3, 2),
                              Strategy::RenewableBatteryCas);
    EXPECT_EQ(g_threads.value(), 2.0);

    ex.optimize(fig7Space(), Strategy::RenewablesOnly);
    EXPECT_EQ(g_threads.value(), 2.0);
}

/** Every field of @p a and @p b has the same bit pattern. */
void
expectEvalBitIdentical(const Evaluation &a, const Evaluation &b)
{
    const auto bits = [](const Evaluation &e) {
        return std::vector<uint64_t>{
            std::bit_cast<uint64_t>(e.point.solar_mw.value()),
            std::bit_cast<uint64_t>(e.point.wind_mw.value()),
            std::bit_cast<uint64_t>(e.point.battery_mwh.value()),
            std::bit_cast<uint64_t>(e.point.extra_capacity.value()),
            static_cast<uint64_t>(e.strategy),
            std::bit_cast<uint64_t>(e.coverage_pct),
            std::bit_cast<uint64_t>(e.operational_kg.value()),
            std::bit_cast<uint64_t>(e.embodied_solar_kg.value()),
            std::bit_cast<uint64_t>(e.embodied_wind_kg.value()),
            std::bit_cast<uint64_t>(e.embodied_battery_kg.value()),
            std::bit_cast<uint64_t>(e.embodied_server_kg.value()),
            std::bit_cast<uint64_t>(e.battery_cycles),
            std::bit_cast<uint64_t>(e.deferred_mwh.value()),
            std::bit_cast<uint64_t>(e.renewable_excess_mwh.value())};
    };
    EXPECT_EQ(bits(a), bits(b));
}

TEST(ParallelSweep, EvaluatorSplitsMissesIntoBalancedWavesForEveryWorker)
{
    // One evaluate() call splits its misses into waves of at most 64
    // lanes, at least one per worker when there are enough misses, and
    // no lane's result may depend on the wave or worker that ran it.
    CarbonExplorer explorer(utahConfig());
    const Strategy strategy = Strategy::RenewableBatteryCas;
    std::vector<DesignPoint> points;
    for (size_t i = 0; i < 200; ++i) {
        points.push_back(DesignPoint{
            MegaWatts(10.0 * static_cast<double>(i % 10)),
            MegaWatts(15.0 * static_cast<double>(i / 10 % 5)),
            MegaWattHours(20.0 * static_cast<double>(i / 50)),
            Fraction(0.1 * static_cast<double>(i % 3))});
    }
    const std::string path =
        testing::TempDir() + "parallel_sweep_split.cxj";
    const std::vector<size_t> sizes = {1, 2, 63, 64, 65, 129, 200};

    std::vector<Evaluation> serial(points.size());
    {
        const ThreadCountGuard guard(1);
        SweepBatchEvaluator(explorer, strategy)
            .evaluate(points.data(), points.size(), serial.data(),
                      nullptr);
    }

    // One journaled call of @p n misses; returns the worker slots
    // that ran a wave.
    const auto evaluateOnce = [&](size_t n) {
        std::remove(path.c_str());
        obs::DecisionJournal journal(path, 1);
        explorer.setJournal(&journal);
        obs::RunStatus status;
        status.beginPass(0, n);
        std::vector<Evaluation> out(n);
        SweepBatchEvaluator(explorer, strategy)
            .evaluate(points.data(), n, out.data(), &status);
        explorer.setJournal(nullptr);
        journal.flush();

        for (size_t i = 0; i < n; ++i) {
            SCOPED_TRACE("point " + std::to_string(i));
            expectEvalBitIdentical(out[i], serial[i]);
        }

        const obs::JournalData data = obs::readJournal(path);
        EXPECT_EQ(data.rows.size(), n);
        std::map<uint32_t, size_t> wave_sizes;
        for (const obs::DecisionRow &row : data.rows) {
            EXPECT_LT(row.lane, 64u);
            ++wave_sizes[row.wave];
        }
        // Enough waves for every worker, balanced to within a lane.
        EXPECT_GE(wave_sizes.size(), std::min(n, threadCount()));
        const auto [lo, hi] = std::minmax_element(
            wave_sizes.begin(), wave_sizes.end(),
            [](const auto &a, const auto &b) {
                return a.second < b.second;
            });
        EXPECT_LE(hi->second - lo->second, 1u);
        return status.snapshot().workers.size();
    };

    for (const size_t threads : {size_t{1}, size_t{2}, size_t{3}}) {
        const ThreadCountGuard guard(threads);
        // Start the pool threads before the first measured call.
        parallelFor(0, threads, 1, [](size_t) {});
        for (const size_t n : sizes) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " threads=" + std::to_string(threads));
            // Dispatch is dynamic: on a loaded host the calling thread
            // can run every wave of a short call before a parked
            // worker is scheduled, so a call whose slots did not all
            // fill is repeated (the split itself is checked above on
            // every call).
            const size_t want = std::min(n, threads);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            size_t busy = evaluateOnce(n);
            while (busy < want && std::chrono::steady_clock::now() < deadline)
                busy = evaluateOnce(n);
            EXPECT_EQ(busy, want);
        }
    }
    std::remove(path.c_str());
}

TEST(ParallelSweep, AllHitEvaluateBuildsNoEngineOrBatches)
{
    // The engine and the per-worker 64-lane batches are built on the
    // first miss: an evaluator whose every point is a cache hit
    // builds neither, and replays the cold results bit for bit.
    const ThreadCountGuard guard(2);
    CarbonExplorer explorer(utahConfig());
    const Strategy strategy = Strategy::RenewableBatteryCas;
    std::vector<DesignPoint> points;
    for (size_t i = 0; i < 24; ++i) {
        points.push_back(DesignPoint{
            MegaWatts(20.0 * static_cast<double>(i % 4)),
            MegaWatts(25.0 * static_cast<double>(i / 4 % 3)),
            MegaWattHours(30.0 * static_cast<double>(i / 12)),
            Fraction(0.2)});
    }
    const std::string path =
        testing::TempDir() + "parallel_sweep_all_hit.cxrc";
    std::remove(path.c_str());
    SweepResultCache cache(path, explorer.configDigest(strategy));
    explorer.setSweepCache(&cache);

    std::vector<Evaluation> cold(points.size());
    SweepBatchEvaluator(explorer, strategy)
        .evaluate(points.data(), points.size(), cold.data(), nullptr);

    std::vector<Evaluation> warm(points.size());
    g_allocation_count = 0;
    g_count_allocations = true;
    {
        SweepBatchEvaluator evaluator(explorer, strategy);
        evaluator.evaluate(points.data(), points.size(), warm.data(),
                           nullptr);
        EXPECT_EQ(evaluator.cacheHits(), points.size());
        EXPECT_EQ(evaluator.simulatedPoints(), 0u);
    }
    g_count_allocations = false;
    // The misses index and the (empty) wave body's std::function; one
    // 64-lane batch alone would allocate far more.
    EXPECT_LE(g_allocation_count.load(), 2u);
    for (size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectEvalBitIdentical(warm[i], cold[i]);
    }

    // A later miss on the same evaluator still builds and simulates.
    SweepBatchEvaluator evaluator(explorer, strategy);
    const DesignPoint fresh{MegaWatts(35.0), MegaWatts(45.0),
                            MegaWattHours(15.0), Fraction(0.2)};
    Evaluation hit;
    Evaluation missed;
    evaluator.evaluate(points.data(), 1, &hit, nullptr);
    evaluator.evaluate(&fresh, 1, &missed, nullptr);
    EXPECT_EQ(evaluator.simulatedPoints(), 1u);
    expectEvalBitIdentical(hit, cold[0]);
    explorer.setSweepCache(nullptr);
    const Evaluation direct = explorer.evaluate(fresh, strategy);
    expectEvalBitIdentical(missed, direct);
    std::remove(path.c_str());
}

} // namespace
} // namespace carbonx

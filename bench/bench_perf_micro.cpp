/**
 * @file
 * Google-benchmark microbenchmarks of the framework's hot paths:
 * trace synthesis, coverage evaluation, the co-simulation kernel,
 * the greedy scheduler, and a full design-space search.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <limits>
#include <vector>

#include "battery/chemistry.h"
#include "common/parallel.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "core/adaptive_sweep.h"
#include "core/explorer.h"
#include "grid/balancing_authority.h"
#include "grid/grid_synthesizer.h"
#include "scheduler/batched_engine.h"
#include "scheduler/greedy_scheduler.h"
#include "scheduler/simulation_batch.h"

namespace
{

using namespace carbonx;

const CarbonExplorer &
sharedExplorer()
{
    static const CarbonExplorer explorer([] {
        ExplorerConfig config;
        config.ba_code = "PACE";
        config.avg_dc_power_mw = MegaWatts(19.0);
        config.flexible_ratio = Fraction(0.4);
        return config;
    }());
    return explorer;
}

void
BM_GridSynthesisYear(benchmark::State &state)
{
    const auto &profile =
        BalancingAuthorityRegistry::instance().lookup("PACE");
    const GridSynthesizer synth(profile, 2020);
    for (auto _ : state) {
        GridTrace trace = synth.synthesize(2020);
        benchmark::DoNotOptimize(trace.intensity.total());
    }
}
BENCHMARK(BM_GridSynthesisYear);

void
BM_CoverageEvaluation(benchmark::State &state)
{
    const auto &cov = sharedExplorer().coverageAnalyzer();
    double solar = 50.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cov.coverage(MegaWatts(solar), MegaWatts(80.0)));
        solar += 0.001; // Defeat caching.
    }
}
BENCHMARK(BM_CoverageEvaluation);

/** One design point as a one-lane batch, at 80 MW solar + 80 MW wind. */
SimulationBatch
singleLane(const CarbonExplorer &ex, bool battery_cas)
{
    static const BatteryChemistry chem =
        BatteryChemistry::lithiumIronPhosphate();
    BatchLaneConfig lane;
    lane.solar_mw = MegaWatts(80.0);
    lane.wind_mw = MegaWatts(80.0);
    lane.capacity_cap_mw = MegaWatts(ex.dcPeakPowerMw());
    if (battery_cas) {
        lane.capacity_cap_mw = MegaWatts(1.5 * ex.dcPeakPowerMw());
        lane.flexible_ratio = Fraction(0.4);
        lane.chemistry = &chem;
        lane.battery_capacity_mwh = MegaWattHours(150.0);
    }
    SimulationBatch batch(1);
    batch.addLane(lane);
    return batch;
}

void
BM_SimulationYearNoBattery(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const CoverageAnalyzer &cov = ex.coverageAnalyzer();
    const BatchedSimulationEngine engine(ex.dcPower(), cov.solarShape(),
                                         cov.windShape());
    SimulationBatch batch = singleLane(ex, false);
    for (auto _ : state) {
        engine.run(batch);
        benchmark::DoNotOptimize(batch.result(0).coverage_pct);
    }
}
BENCHMARK(BM_SimulationYearNoBattery);

void
BM_SimulationYearBatteryCas(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const CoverageAnalyzer &cov = ex.coverageAnalyzer();
    const BatchedSimulationEngine engine(ex.dcPower(), cov.solarShape(),
                                         cov.windShape());
    SimulationBatch batch = singleLane(ex, true);
    for (auto _ : state) {
        engine.run(batch);
        benchmark::DoNotOptimize(batch.result(0).coverage_pct);
    }
}
BENCHMARK(BM_SimulationYearBatteryCas);

// The flight-recorder zero-overhead contract, measured: the same
// battery+CAS year with recording off must match the plain
// BM_SimulationYearBatteryCas row (the off path adds one null check
// per lane-hour), and the recorder-on row bounds the opt-in cost of
// `carbonx explain`.
void
BM_SimulateRecorded(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const CoverageAnalyzer &cov = ex.coverageAnalyzer();
    const BatchedSimulationEngine engine(ex.dcPower(), cov.solarShape(),
                                         cov.windShape(),
                                         &ex.gridIntensity());
    SimulationBatch batch = singleLane(ex, true);
    obs::FlightRecorder recorder;
    obs::FlightRecorder *rec = state.range(0) != 0 ? &recorder : nullptr;
    for (auto _ : state) {
        engine.run(batch, rec);
        benchmark::DoNotOptimize(batch.result(0).coverage_pct);
    }
}
BENCHMARK(BM_SimulateRecorded)
    ->ArgNames({"recorder"})
    ->Arg(0)
    ->Arg(1);

// One wave of the batched SoA kernel: 64 mixed lanes (with/without
// battery, CAS on/off) through a single pass over the hourly trace.
// items_per_second here is lanes (design points) per second — the
// direct counterpart of one-run-per-point BM_SimulationYearBatteryCas.
void
BM_SimulateBatch(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const CoverageAnalyzer &cov = ex.coverageAnalyzer();
    static const BatteryChemistry chem =
        BatteryChemistry::lithiumIronPhosphate();
    const BatchedSimulationEngine engine(ex.dcPower(), cov.solarShape(),
                                         cov.windShape(),
                                         &ex.gridIntensity());
    const size_t lanes = 64;
    SimulationBatch batch(lanes);
    const auto fill = [&] {
        batch.clear();
        for (size_t i = 0; i < lanes; ++i) {
            BatchLaneConfig lane;
            lane.solar_mw = MegaWatts(20.0 + 1.5 * static_cast<double>(i));
            lane.wind_mw = MegaWatts(80.0 - static_cast<double>(i));
            const bool cas = i % 2 == 0;
            lane.capacity_cap_mw =
                MegaWatts((cas ? 1.5 : 1.0) * ex.dcPeakPowerMw().value());
            if (cas)
                lane.flexible_ratio = Fraction(0.4);
            if (i % 4 != 3) {
                lane.chemistry = &chem;
                lane.battery_capacity_mwh =
                    MegaWattHours(50.0 + 5.0 * static_cast<double>(i));
            }
            batch.addLane(lane);
        }
    };
    fill();
    engine.run(batch); // Warm-up: grow queues, register metrics.
    for (auto _ : state) {
        fill();
        engine.run(batch);
        benchmark::DoNotOptimize(batch.result(lanes - 1).coverage_pct);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(lanes));
}
BENCHMARK(BM_SimulateBatch);

void
BM_GreedySchedulerYear(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    SchedulerConfig cfg;
    cfg.capacity_cap_mw = MegaWatts(1.2 * ex.dcPeakPowerMw());
    cfg.flexible_ratio = Fraction(0.4);
    const GreedyCarbonScheduler scheduler(cfg);
    for (auto _ : state) {
        ScheduleResult r =
            scheduler.schedule(ex.dcPower(), ex.gridIntensity());
        benchmark::DoNotOptimize(r.moved_mwh.value());
    }
}
BENCHMARK(BM_GreedySchedulerYear);

void
BM_WindowedSchedulerYear(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    SchedulerConfig cfg;
    cfg.capacity_cap_mw = MegaWatts(1.2 * ex.dcPeakPowerMw());
    cfg.flexible_ratio = Fraction(0.4);
    cfg.slo_window_hours = Hours(8.0);
    const GreedyCarbonScheduler scheduler(cfg);
    for (auto _ : state) {
        ScheduleResult r =
            scheduler.schedule(ex.dcPower(), ex.gridIntensity());
        benchmark::DoNotOptimize(r.moved_mwh.value());
    }
}
BENCHMARK(BM_WindowedSchedulerYear);

void
BM_OptimizeRenewablesOnly(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 8.0, 5, 3, 2);
    for (auto _ : state) {
        OptimizationResult r =
            ex.optimize(space, Strategy::RenewablesOnly);
        benchmark::DoNotOptimize(r.best.totalKg());
    }
}
BENCHMARK(BM_OptimizeRenewablesOnly);

// The Fig. 15 full-factorial sweep at 1 and N worker threads; the
// ratio of the two rows is the parallel speedup of optimize().
void
BM_OptimizeSweep(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    setThreadCount(static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        OptimizationResult r =
            ex.optimize(space, Strategy::RenewableBatteryCas);
        benchmark::DoNotOptimize(r.best.totalKg());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(
            space.sizeFor(Strategy::RenewableBatteryCas)));
    setThreadCount(0);
}
BENCHMARK(BM_OptimizeSweep)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(static_cast<int>(hardwareThreads()))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same sweep with phase timers on, as a visible row next to the
// plain BM_OptimizeSweep pair. The phases are batch-scoped (hundreds
// of timer pairs per sweep, not one per design point), so the delta
// to the unprofiled rows is the whole cost of always-on profiling.
void
BM_OptimizeSweepProfiled(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    setThreadCount(static_cast<size_t>(state.range(0)));
    auto &profiler = obs::PhaseProfiler::instance();
    profiler.reset();
    profiler.setEnabled(true);
    for (auto _ : state) {
        OptimizationResult r =
            ex.optimize(space, Strategy::RenewableBatteryCas);
        benchmark::DoNotOptimize(r.best.totalKg());
    }
    profiler.setEnabled(false);
    profiler.reset();
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(
            space.sizeFor(Strategy::RenewableBatteryCas)));
    setThreadCount(0);
}
BENCHMARK(BM_OptimizeSweepProfiled)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(static_cast<int>(hardwareThreads()))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// A non-const twin of sharedExplorer() for benchmarks that attach a
// sweep cache or journal (both setters mutate the explorer).
CarbonExplorer &
sharedSweepExplorer()
{
    static CarbonExplorer explorer([] {
        ExplorerConfig config;
        config.ba_code = "PACE";
        config.avg_dc_power_mw = MegaWatts(19.0);
        config.flexible_ratio = Fraction(0.4);
        return config;
    }());
    return explorer;
}

// The same sweep with the decision journal attached, as a visible row
// next to the plain BM_OptimizeSweep pair. Rows are buffered into
// per-worker sinks and flushed block-wise once per pass, so the delta
// to the unjournaled rows is the whole cost of --journal-out.
void
BM_OptimizeSweepJournaled(benchmark::State &state)
{
    CarbonExplorer &ex = sharedSweepExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "carbonx_bench_journal.cxj")
            .string();
    setThreadCount(static_cast<size_t>(state.range(0)));
    obs::DecisionJournal journal(
        path, ex.configDigest(Strategy::RenewableBatteryCas));
    ex.setJournal(&journal);
    for (auto _ : state) {
        OptimizationResult r =
            ex.optimize(space, Strategy::RenewableBatteryCas);
        benchmark::DoNotOptimize(r.best.totalKg());
    }
    ex.setJournal(nullptr);
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(
            space.sizeFor(Strategy::RenewableBatteryCas)));
    setThreadCount(0);
    std::filesystem::remove(path);
}
BENCHMARK(BM_OptimizeSweepJournaled)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(static_cast<int>(hardwareThreads()))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same lattice as BM_OptimizeSweep under the adaptive driver with
// a cold cache: the margin-guarded interpolation skips dominated-and-
// worse interior points, so the ratio to BM_OptimizeSweep is the pure
// algorithmic saving.
void
BM_AdaptiveSweep(benchmark::State &state)
{
    const CarbonExplorer &ex = sharedExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    setThreadCount(static_cast<size_t>(state.range(0)));
    for (auto _ : state) {
        AdaptiveSweepResult r =
            AdaptiveSweeper(ex).sweep(space,
                                      Strategy::RenewableBatteryCas);
        benchmark::DoNotOptimize(r.result.best.totalKg());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(
            space.sizeFor(Strategy::RenewableBatteryCas)));
    setThreadCount(0);
}
BENCHMARK(BM_AdaptiveSweep)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(static_cast<int>(hardwareThreads()))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The resume path: a persistent cache pre-warmed by one full sweep
// turns every later sweep of the same study into pure replay — no
// simulation at all. This is the >=2x headline over BM_OptimizeSweep.
void
BM_AdaptiveSweepWarmCache(benchmark::State &state)
{
    CarbonExplorer &ex = sharedSweepExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "carbonx_bench_sweep.cxrc")
            .string();
    std::filesystem::remove(path);
    SweepResultCache cache(
        path, ex.configDigest(Strategy::RenewableBatteryCas));
    ex.setSweepCache(&cache);
    // Warm pass, outside the timed region.
    AdaptiveSweeper(ex).sweep(space, Strategy::RenewableBatteryCas);
    for (auto _ : state) {
        AdaptiveSweepResult r =
            AdaptiveSweeper(ex).sweep(space,
                                      Strategy::RenewableBatteryCas);
        benchmark::DoNotOptimize(r.result.best.totalKg());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(
            space.sizeFor(Strategy::RenewableBatteryCas)));
    ex.setSweepCache(nullptr);
    std::filesystem::remove(path);
}
BENCHMARK(BM_AdaptiveSweepWarmCache)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Harness-level guard on the recorder's zero-overhead contract:
// median wall time of the battery+CAS one-lane year with a null
// recorder and the intensity series attached (the explain path's
// engine) must stay within noise of the same lane on a bare engine. Medians of repeated ~ms runs are
// stable enough for a generous 25% fence; a real regression (a
// recording branch leaking into the disabled path) shows up as 2x+.
bool
recorderOffWithinNoise()
{
    const CarbonExplorer &ex = sharedExplorer();
    const CoverageAnalyzer &cov = ex.coverageAnalyzer();
    const BatchedSimulationEngine baseline(ex.dcPower(), cov.solarShape(),
                                           cov.windShape());
    const BatchedSimulationEngine recorder_off(
        ex.dcPower(), cov.solarShape(), cov.windShape(),
        &ex.gridIntensity());
    SimulationBatch batch = singleLane(ex, true);

    const auto median_us = [&](const BatchedSimulationEngine &engine,
                               obs::FlightRecorder *recorder) {
        std::vector<double> samples;
        for (int i = 0; i < 9; ++i) {
            const auto start = std::chrono::steady_clock::now();
            engine.run(batch, recorder);
            benchmark::DoNotOptimize(batch.result(0).coverage_pct);
            const std::chrono::duration<double, std::micro> us =
                std::chrono::steady_clock::now() - start;
            samples.push_back(us.count());
        }
        std::sort(samples.begin(), samples.end());
        return samples[samples.size() / 2];
    };

    // Warm the caches before timing either path.
    median_us(baseline, nullptr);
    const double base_us = median_us(baseline, nullptr);
    const double off_us = median_us(recorder_off, nullptr);
    const bool ok = off_us <= base_us * 1.25;
    std::cerr << "recorder-off overhead check: baseline "
              << base_us << " us, recorder-off " << off_us << " us ("
              << (ok ? "within noise" : "REGRESSION") << ")\n";
    return ok;
}

/** Wall time of one RenewableBatteryCas sweep of @p space (ms). */
double
sweepMs(const CarbonExplorer &ex, const DesignSpace &space)
{
    const auto start = std::chrono::steady_clock::now();
    OptimizationResult r = ex.optimize(space, Strategy::RenewableBatteryCas);
    benchmark::DoNotOptimize(r.best.totalKg());
    const std::chrono::duration<double, std::milli> ms =
        std::chrono::steady_clock::now() - start;
    return ms.count();
}

/** Fastest off and on sweeps seen by overheadFence(). */
struct OverheadTimes
{
    double off_ms = std::numeric_limits<double>::infinity();
    double on_ms = std::numeric_limits<double>::infinity();
};

/**
 * Time the sweep with a feature off and on (@p toggle switches it):
 * up to three attempts of eight adjacent off/on pairs, keeping the
 * fastest sweep of each mode, stopping at the first attempt that ends
 * with on <= off * @p fence. Alternating sweep by sweep lets a slow
 * stretch on a shared host hit both modes, and a neighbour can only
 * slow a sweep down, so the minima approach the true costs; a real
 * regression stays over the fence on every attempt.
 */
template <typename Toggle>
OverheadTimes
overheadFence(const CarbonExplorer &ex, const DesignSpace &space,
              double fence, Toggle &&toggle)
{
    toggle(false);
    sweepMs(ex, space); // Warm the caches before timing either mode.
    OverheadTimes t;
    for (int attempt = 0; attempt < 3; ++attempt) {
        for (int i = 0; i < 8; ++i) {
            // Alternate which mode runs first, so that a position
            // effect within a pair cancels out.
            for (const bool on : {i % 2 == 1, i % 2 == 0}) {
                toggle(on);
                double &fastest = on ? t.on_ms : t.off_ms;
                fastest = std::min(fastest, sweepMs(ex, space));
            }
            toggle(false);
        }
        if (t.on_ms <= t.off_ms * fence)
            break;
    }
    return t;
}

// Harness-level guard on the profiler's overhead budget: the fastest
// Fig. 15 full-factorial sweep with phase timers on must stay within
// 10% of the fastest identical sweep with the profiler off. The
// phases are batch-scoped, so the true cost is well under 2%; the
// generous fence only absorbs scheduler noise. A real
// regression (a per-point timer, a lock on the hot path) shows up as
// far more.
bool
profilerOverheadWithinBudget()
{
    const CarbonExplorer &ex = sharedExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    auto &profiler = carbonx::obs::PhaseProfiler::instance();

    profiler.reset();
    const OverheadTimes t = overheadFence(
        ex, space, 1.10, [&](bool on) { profiler.setEnabled(on); });
    const carbonx::obs::ProfileNode merged = profiler.merged();
    profiler.reset();

    // The sweep routes through the batched kernel, so the profiled
    // run must have timed its batch phases — a missing node means the
    // fence silently stopped covering the hot path.
    const auto findDeep = [](const carbonx::obs::ProfileNode &node,
                             const std::string &name,
                             auto &&self) -> bool {
        if (node.name == name)
            return true;
        for (const carbonx::obs::ProfileNode &child : node.children) {
            if (self(child, name, self))
                return true;
        }
        return false;
    };
    const bool phases_ok = findDeep(merged, "sweep/batch_fill", findDeep) &&
                           findDeep(merged, "sim/batch_step", findDeep) &&
                           findDeep(merged, "sim/batch_drain", findDeep);
    if (!phases_ok)
        std::cerr << "profiler overhead check: batched kernel phases "
                     "missing from the merged profile\n";

    const bool ok = phases_ok && t.on_ms <= t.off_ms * 1.10;
    std::cerr << "profiler overhead check: fastest off " << t.off_ms
              << " ms, on " << t.on_ms << " ms ("
              << 100.0 * (t.on_ms - t.off_ms) / t.off_ms
              << "%, fence 10%; "
              << (ok ? "within budget" : "REGRESSION") << ")\n";
    return ok;
}

// Harness-level guard on the decision journal's overhead budget: the
// fastest Fig. 15 full-factorial sweep with a journal attached must
// stay within 5% of the fastest identical sweep without one.
// Rows go into pre-sized per-worker sinks (a plain push_back per
// point) and hit the disk once per pass, so the true cost is around
// 1%; a real regression (per-row I/O, an allocation or lock on the
// record path) shows up as far more.
bool
journalOverheadWithinBudget()
{
    CarbonExplorer &ex = sharedSweepExplorer();
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 7, 7, 3);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "carbonx_bench_journal_fence.cxj")
            .string();

    carbonx::obs::DecisionJournal journal(
        path, ex.configDigest(Strategy::RenewableBatteryCas));
    const OverheadTimes t =
        overheadFence(ex, space, 1.05, [&](bool on) {
            ex.setJournal(on ? &journal : nullptr);
        });
    journal.flush();
    const uint64_t rows = journal.flushedRows();
    std::filesystem::remove(path);

    // The journaled run must actually have journaled: eight sweeps of
    // the full lattice per attempt, one row per design point.
    const uint64_t expected =
        8 * static_cast<uint64_t>(
                space.sizeFor(Strategy::RenewableBatteryCas));
    const bool rows_ok = rows >= expected;
    if (!rows_ok)
        std::cerr << "journal overhead check: only " << rows
                  << " rows journaled (expected >= " << expected
                  << ") — the fence stopped covering the hot path\n";

    const bool ok = rows_ok && t.on_ms <= t.off_ms * 1.05;
    std::cerr << "journal overhead check: fastest off " << t.off_ms
              << " ms, on " << t.on_ms << " ms ("
              << 100.0 * (t.on_ms - t.off_ms) / t.off_ms
              << "%, fence 5%; "
              << (ok ? "within budget" : "REGRESSION") << ")\n";
    return ok;
}

} // namespace

// Expanded BENCHMARK_MAIN() so the run can end with a dump of the
// metrics registry: phase-level counts (simulation runs, battery
// steps, design points) land next to every wall-clock trajectory.
// The table goes to stderr to keep the benchmark's stdout/JSON clean.
int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    const bool recorder_ok = recorderOffWithinNoise();
    const bool profiler_ok = profilerOverheadWithinBudget();
    const bool journal_ok = journalOverheadWithinBudget();
    carbonx::obs::MetricsRegistry::instance().writeText(std::cerr);
    return (recorder_ok && profiler_ok && journal_ok) ? 0 : 1;
}

/**
 * @file
 * Tests of the batched SoA simulation kernel: randomized lanes must
 * reproduce a table of aggregates frozen from the scalar engine the
 * kernel replaced, bit for bit, and every one of them must pass the
 * invariant audit when re-run as a recorded one-lane batch. A lane's
 * result must not depend on its batch size, its neighbours, re-runs,
 * profiling or the sweep's thread count. Also covers the
 * allocation-freedom contract of the hot loop and the
 * SimulationScratch pushFront head==0 regression.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/tolerances.h"
#include "core/explorer.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "scheduler/batched_engine.h"
#include "scheduler/simulation_batch.h"

#include "counting_new.h"

namespace carbonx
{
namespace
{

constexpr int kYear = 2021;

/** RAII guard restoring the automatic thread count. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(size_t n) { setThreadCount(n); }
    ~ThreadCountGuard() { setThreadCount(0); }
};

/** Chemistry exercising DoD < 1, asymmetric efficiencies, sub-1C. */
BatteryChemistry
conservativeChemistry()
{
    BatteryChemistry chem = BatteryChemistry::lithiumIronPhosphate();
    chem.name = "LFP-conservative";
    chem.charge_efficiency = 0.9;
    chem.discharge_efficiency = 0.88;
    chem.max_charge_c_rate = 0.5;
    chem.max_discharge_c_rate = 0.7;
    chem.depth_of_discharge = 0.8;
    return chem;
}

struct SyntheticTraces
{
    TimeSeries load{kYear};
    TimeSeries solar_shape{kYear};
    TimeSeries wind_shape{kYear};
    TimeSeries intensity{kYear};
};

SyntheticTraces
makeTraces(uint64_t seed)
{
    Rng rng(seed, "batched-engine-traces");
    SyntheticTraces t;
    for (size_t h = 0; h < t.load.size(); ++h) {
        t.load[h] = rng.uniform(8.0, 12.0);
        const size_t hour_of_day = h % 24;
        t.solar_shape[h] = (hour_of_day >= 7 && hour_of_day <= 17)
                               ? rng.uniform(0.3, 1.0)
                               : 0.0;
        t.wind_shape[h] = rng.uniform(0.0, 1.0);
        t.intensity[h] = rng.uniform(50.0, 800.0);
    }
    return t;
}

double
peakOf(const TimeSeries &load)
{
    double peak = 0.0;
    for (size_t h = 0; h < load.size(); ++h)
        peak = std::max(peak, load[h]);
    return peak;
}

/**
 * A random lane drawing from every configuration axis: with/without
 * battery (two chemistries), CAS on/off, short/long SLO windows,
 * explicit initial SoC, and grid-charging policies.
 */
BatchLaneConfig
randomLane(Rng &rng, double peak, const BatteryChemistry *lfp,
           const BatteryChemistry *conservative)
{
    BatchLaneConfig lane;
    lane.solar_mw = MegaWatts(rng.uniform(0.0, 40.0));
    lane.wind_mw = MegaWatts(rng.uniform(0.0, 40.0));
    lane.capacity_cap_mw = MegaWatts(peak * rng.uniform(1.0, 1.5));
    if (rng.bernoulli(0.7))
        lane.flexible_ratio = Fraction(rng.uniform(0.0, 0.6));
    lane.slo_window_hours = Hours(1.0 + static_cast<double>(rng.uniformInt(48)));
    if (rng.bernoulli(0.6)) {
        lane.chemistry = rng.bernoulli(0.5) ? lfp : conservative;
        lane.battery_capacity_mwh = MegaWattHours(rng.uniform(0.0, 200.0));
        if (rng.bernoulli(0.3))
            lane.initial_soc = rng.uniform(0.2, 1.0);
        if (rng.bernoulli(0.3)) {
            lane.grid_charge_policy =
                GridChargePolicy::BelowIntensityThreshold;
            lane.grid_charge_threshold_gkwh =
                GramsPerKwh(rng.uniform(100.0, 500.0));
        }
    }
    return lane;
}

/** The 14 aggregates of one lane, in the frozen table's column order. */
constexpr size_t kAggregates = 14;
using Aggregates = std::array<double, kAggregates>;

Aggregates
aggregatesOf(const BatchLaneResult &r)
{
    return {r.load_energy_mwh.value(),      r.served_energy_mwh.value(),
            r.grid_energy_mwh.value(),      r.renewable_used_mwh.value(),
            r.renewable_excess_mwh.value(), r.deferred_mwh.value(),
            r.max_backlog_mwh.value(),      r.residual_backlog_mwh.value(),
            r.slo_violation_mwh.value(),    r.peak_power_mw.value(),
            r.battery_cycles,               r.grid_charge_mwh.value(),
            r.coverage_pct,                 r.operational_kg.value()};
}

void
expectBitIdentical(const Aggregates &got, const Aggregates &want)
{
    for (size_t k = 0; k < kAggregates; ++k) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got[k]),
                  std::bit_cast<uint64_t>(want[k]))
            << "aggregate " << k << ": " << got[k] << " vs " << want[k];
    }
}

std::string
laneTablePath()
{
    return std::string(CARBONX_GOLDEN_DIR) + "/batched_lanes.txt";
}

/** Rows of the frozen lane table, hexfloats parsed exactly. */
std::vector<Aggregates>
readLaneTable()
{
    std::ifstream in(laneTablePath());
    std::vector<Aggregates> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        Aggregates row{};
        std::string field;
        for (double &value : row) {
            fields >> field;
            value = std::strtod(field.c_str(), nullptr);
        }
        rows.push_back(row);
    }
    return rows;
}

constexpr size_t kFrozenLanes = 48;

/** The randomized lane set whose aggregates the table freezes. */
std::vector<BatchLaneConfig>
frozenLanes(const SyntheticTraces &t, const BatteryChemistry &lfp,
            const BatteryChemistry &conservative)
{
    Rng rng(7, "batched-engine-lanes");
    std::vector<BatchLaneConfig> configs;
    for (size_t i = 0; i < kFrozenLanes; ++i)
        configs.push_back(
            randomLane(rng, peakOf(t.load), &lfp, &conservative));
    return configs;
}

/** Run @p lanes as one batch and return their results. */
std::vector<BatchLaneResult>
runTogether(const BatchedSimulationEngine &engine,
            const std::vector<BatchLaneConfig> &lanes)
{
    SimulationBatch batch(lanes.size());
    for (const BatchLaneConfig &lane : lanes)
        batch.addLane(lane);
    engine.run(batch);
    std::vector<BatchLaneResult> out;
    for (size_t i = 0; i < lanes.size(); ++i)
        out.push_back(batch.result(i));
    return out;
}

TEST(BatchedEngine, RandomizedLanesMatchScalarBitForBit)
{
    // tests/golden/batched_lanes.txt holds the aggregates the scalar
    // engine this kernel replaced produced for these lanes, as exact
    // hexfloats. Do not regenerate it: it is the reference.
    const SyntheticTraces t = makeTraces(0xC0FFEE);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const BatteryChemistry conservative = conservativeChemistry();
    const std::vector<BatchLaneConfig> configs =
        frozenLanes(t, lfp, conservative);

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    const std::vector<BatchLaneResult> results = runTogether(engine, configs);

    const std::vector<Aggregates> table = readLaneTable();
    ASSERT_EQ(table.size(), configs.size()) << laneTablePath();
    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        expectBitIdentical(aggregatesOf(results[i]), table[i]);
    }
}

TEST(BatchedEngine, RandomizedLanesObeyThePhysicsAsRecordedOneLaneBatches)
{
    // Every frozen lane, re-run alone with the flight recorder on, must
    // pass the invariant audit (energy balance, storage bounds, cap,
    // curtailment, backlog conservation, carbon reconciliation) and
    // reproduce its aggregates inside the 48-lane batch bit for bit:
    // recorder on vs off, batch size 1 vs 48.
    const SyntheticTraces t = makeTraces(0xC0FFEE);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const BatteryChemistry conservative = conservativeChemistry();
    const std::vector<BatchLaneConfig> configs =
        frozenLanes(t, lfp, conservative);
    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    const std::vector<BatchLaneResult> together = runTogether(engine, configs);

    SimulationBatch alone(1);
    obs::FlightRecorder recording;
    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        alone.clear();
        alone.addLane(configs[i]);
        engine.run(alone, &recording);
        const BatchLaneResult &r = alone.result(0);
        expectBitIdentical(aggregatesOf(r), aggregatesOf(together[i]));

        obs::AuditContext ctx;
        ctx.capacity_cap_mw = configs[i].capacity_cap_mw.value();
        ctx.battery_capacity_mwh = configs[i].battery_capacity_mwh.value();
        ctx.residual_backlog_mwh = r.residual_backlog_mwh.value();
        ctx.reported_operational_kg = r.operational_kg.value();
        const obs::AuditReport audit = obs::auditRecording(recording, ctx);
        EXPECT_EQ(audit.hours, t.load.size());
        EXPECT_TRUE(audit.clean()) << audit.violations.front().format();
    }
}

TEST(BatchedEngine, BatchSizeInvariance)
{
    // The same lane set chunked through batch capacities 1, 2, 7, 64,
    // and one full wave must produce identical results: lanes are
    // independent, so where the wave boundaries fall cannot matter.
    const SyntheticTraces t = makeTraces(0xBEEF);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const BatteryChemistry conservative = conservativeChemistry();
    const double peak = peakOf(t.load);
    Rng rng(11, "batched-size-lanes");

    const size_t lanes = 30;
    std::vector<BatchLaneConfig> configs;
    for (size_t i = 0; i < lanes; ++i)
        configs.push_back(randomLane(rng, peak, &lfp, &conservative));

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    const std::vector<BatchLaneResult> refs = runTogether(engine, configs);
    for (size_t chunk : {size_t{1}, size_t{2}, size_t{7}, size_t{64},
                         lanes}) {
        SimulationBatch batch(chunk);
        for (size_t begin = 0; begin < lanes; begin += chunk) {
            const size_t end = std::min(begin + chunk, lanes);
            batch.clear();
            for (size_t i = begin; i < end; ++i)
                batch.addLane(configs[i]);
            engine.run(batch);
            for (size_t i = begin; i < end; ++i) {
                SCOPED_TRACE("chunk=" + std::to_string(chunk) +
                             " lane=" + std::to_string(i));
                expectBitIdentical(aggregatesOf(batch.result(i - begin)),
                                   aggregatesOf(refs[i]));
            }
        }
    }
}

TEST(BatchedEngine, SingleLaneBatchDegeneracy)
{
    // A capacity-1 batch must agree exactly with the same lane between
    // neighbours in a wider batch, and re-running the same batch must
    // be a no-op on the outcome (run-state reset correctness).
    const SyntheticTraces t = makeTraces(0xABBA);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();

    BatchLaneConfig lane;
    lane.solar_mw = MegaWatts(25.0);
    lane.wind_mw = MegaWatts(15.0);
    lane.capacity_cap_mw = MegaWatts(peakOf(t.load) * 1.2);
    lane.flexible_ratio = Fraction(0.4);
    lane.chemistry = &lfp;
    lane.battery_capacity_mwh = MegaWattHours(120.0);

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    BatchLaneConfig neighbour = lane;
    neighbour.chemistry = nullptr;
    neighbour.battery_capacity_mwh = MegaWattHours(0.0);
    neighbour.flexible_ratio = Fraction(0.1);
    const Aggregates ref =
        aggregatesOf(runTogether(engine, {neighbour, lane, neighbour})[1]);

    SimulationBatch batch(1);
    batch.addLane(lane);
    engine.run(batch);
    expectBitIdentical(aggregatesOf(batch.result(0)), ref);

    engine.run(batch);
    expectBitIdentical(aggregatesOf(batch.result(0)), ref);
}

TEST(BatchedEngine, SloPressureLanesExerciseBacklogDrain)
{
    // A tight capacity cap, large flexible share, and short SLO
    // windows force deferred work to its deadline every day — the
    // deadline-forced drain path the sunny-day sweeps rarely touch.
    // Note violations themselves stay zero by construction: one
    // deferred chunk (at most fwr * load) matures per hour, so the
    // mandatory work (1 - fwr) * load[h] + fwr * load[h - W] never
    // exceeds the peak, and the cap must be at least the peak.
    const SyntheticTraces t = makeTraces(0xD00D);
    const double peak = peakOf(t.load);

    std::vector<BatchLaneConfig> configs;
    for (double window : {1.0, 2.0, 4.0}) {
        BatchLaneConfig lane;
        lane.solar_mw = MegaWatts(5.0);
        lane.wind_mw = MegaWatts(2.0);
        lane.capacity_cap_mw = MegaWatts(peak);
        lane.flexible_ratio = Fraction(0.6);
        lane.slo_window_hours = Hours(window);
        configs.push_back(lane);
    }

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    SimulationBatch batch(configs.size());
    for (const BatchLaneConfig &lane : configs)
        batch.addLane(lane);
    engine.run(batch);

    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        // The configuration really drove the backlog machinery.
        EXPECT_GT(batch.result(i).deferred_mwh.value(), 0.0);
        EXPECT_GT(batch.result(i).max_backlog_mwh.value(), 0.0);
        EXPECT_EQ(batch.result(i).slo_violation_mwh.value(), 0.0);
    }
}

TEST(BatchedEngine, MixedGridChargingLanesMatchScalar)
{
    // Lanes with different grid-charging policies side by side in one
    // batch: the per-lane policy flags must not bleed across lanes (each
    // lane matches itself run alone), and at least one arbitrage lane
    // must actually charge.
    const SyntheticTraces t = makeTraces(0xFACE);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const double peak = peakOf(t.load);

    std::vector<BatchLaneConfig> configs;
    for (int i = 0; i < 6; ++i) {
        BatchLaneConfig lane;
        // Even lanes: zero renewables, so only grid charging can move
        // energy through the battery. Odd lanes: renewables, Never.
        if (i % 2 == 0) {
            lane.grid_charge_policy =
                GridChargePolicy::BelowIntensityThreshold;
            lane.grid_charge_threshold_gkwh =
                GramsPerKwh(150.0 + 100.0 * i);
        } else {
            lane.solar_mw = MegaWatts(20.0);
            lane.wind_mw = MegaWatts(10.0);
        }
        lane.capacity_cap_mw = MegaWatts(peak * 1.1);
        lane.chemistry = &lfp;
        lane.battery_capacity_mwh = MegaWattHours(60.0 + 20.0 * i);
        configs.push_back(lane);
    }

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    SimulationBatch batch(configs.size());
    for (const BatchLaneConfig &lane : configs)
        batch.addLane(lane);
    engine.run(batch);

    double charged = 0.0;
    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        expectBitIdentical(aggregatesOf(batch.result(i)),
                           aggregatesOf(runTogether(engine, {configs[i]})[0]));
        charged += batch.result(i).grid_charge_mwh.value();
        if (i % 2 == 1) {
            EXPECT_EQ(batch.result(i).grid_charge_mwh.value(), 0.0);
        }
    }
    EXPECT_GT(charged, 0.0);
}

TEST(BatchedEngine, RefillAfterClearIsStateless)
{
    // clear() keeps storage but must not leak state: running lanes A,
    // then lanes B, then lanes A again must reproduce the first run.
    const SyntheticTraces t = makeTraces(0x1DEA);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const BatteryChemistry conservative = conservativeChemistry();
    const double peak = peakOf(t.load);
    Rng rng(23, "batched-refill-lanes");

    std::vector<BatchLaneConfig> first, second;
    for (int i = 0; i < 9; ++i) {
        first.push_back(randomLane(rng, peak, &lfp, &conservative));
        second.push_back(randomLane(rng, peak, &lfp, &conservative));
    }

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    SimulationBatch batch(16);
    auto runSet = [&](const std::vector<BatchLaneConfig> &set) {
        batch.clear();
        for (const BatchLaneConfig &lane : set)
            batch.addLane(lane);
        engine.run(batch);
        std::vector<BatchLaneResult> out;
        for (size_t i = 0; i < set.size(); ++i)
            out.push_back(batch.result(i));
        return out;
    };

    const std::vector<BatchLaneResult> before = runSet(first);
    runSet(second);
    const std::vector<BatchLaneResult> after = runSet(first);
    ASSERT_EQ(before.size(), after.size());
    for (size_t i = 0; i < before.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        EXPECT_EQ(before[i].grid_energy_mwh.value(),
                  after[i].grid_energy_mwh.value());
        EXPECT_EQ(before[i].battery_cycles, after[i].battery_cycles);
        EXPECT_EQ(before[i].operational_kg.value(),
                  after[i].operational_kg.value());
        EXPECT_EQ(before[i].residual_backlog_mwh.value(),
                  after[i].residual_backlog_mwh.value());
    }
}

TEST(BatchedEngine, ValidationMatchesScalarContracts)
{
    const SyntheticTraces t = makeTraces(0xBAD);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const double peak = peakOf(t.load);

    EXPECT_THROW(SimulationBatch(0), UserError);

    SimulationBatch batch(2);
    BatchLaneConfig lane;
    lane.capacity_cap_mw = MegaWatts(peak * 1.1);

    BatchLaneConfig negative = lane;
    negative.solar_mw = MegaWatts(-1.0);
    EXPECT_THROW(batch.addLane(negative), UserError);

    BatchLaneConfig bad_ratio = lane;
    bad_ratio.flexible_ratio = Fraction(1.5);
    EXPECT_THROW(batch.addLane(bad_ratio), UserError);

    BatchLaneConfig orphan_battery = lane;
    orphan_battery.battery_capacity_mwh = MegaWattHours(10.0);
    EXPECT_THROW(batch.addLane(orphan_battery), UserError);

    // The battery: each chemistry range, the capacity, and the
    // initial SoC's place in the DoD window.
    const auto withBattery = [&lane](const BatteryChemistry &chem,
                                      double mwh, double soc) {
        BatchLaneConfig l = lane;
        l.chemistry = &chem;
        l.battery_capacity_mwh = MegaWattHours(mwh);
        l.initial_soc = soc;
        return l;
    };
    BatteryChemistry bad = lfp;
    bad.charge_efficiency = 1.1;
    EXPECT_THROW(batch.addLane(withBattery(bad, 10.0, -1.0)), UserError);
    bad = lfp;
    bad.discharge_efficiency = 0.0;
    EXPECT_THROW(batch.addLane(withBattery(bad, 10.0, -1.0)), UserError);
    bad = lfp;
    bad.max_charge_c_rate = 0.0;
    EXPECT_THROW(batch.addLane(withBattery(bad, 10.0, -1.0)), UserError);
    bad = lfp;
    bad.depth_of_discharge = 1.5;
    EXPECT_THROW(batch.addLane(withBattery(bad, 10.0, -1.0)), UserError);
    EXPECT_THROW(batch.addLane(withBattery(lfp, -1.0, -1.0)), UserError);
    bad = lfp;
    bad.depth_of_discharge = 0.8;
    EXPECT_THROW(batch.addLane(withBattery(bad, 10.0, 0.1)), UserError);
    EXPECT_EQ(batch.size(), 0u);

    // Capacity cap below the load peak is an engine-side error.
    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    BatchLaneConfig low_cap = lane;
    low_cap.capacity_cap_mw = MegaWatts(peak * 0.5);
    batch.addLane(low_cap);
    EXPECT_THROW(engine.run(batch), UserError);
    batch.clear();

    // Grid charging needs an intensity series on the engine.
    const BatchedSimulationEngine no_intensity(t.load, t.solar_shape,
                                               t.wind_shape);
    BatchLaneConfig arb = lane;
    arb.chemistry = &lfp;
    arb.battery_capacity_mwh = MegaWattHours(10.0);
    arb.grid_charge_policy = GridChargePolicy::BelowIntensityThreshold;
    arb.grid_charge_threshold_gkwh = GramsPerKwh(200.0);
    batch.addLane(arb);
    EXPECT_THROW(no_intensity.run(batch), UserError);
    batch.clear();

    // A full batch rejects further lanes.
    batch.addLane(lane);
    batch.addLane(lane);
    EXPECT_THROW(batch.addLane(lane), UserError);

    // A flight recorder records exactly one lane.
    obs::FlightRecorder recorder;
    EXPECT_THROW(engine.run(batch, &recorder), UserError);
}

TEST(BatchedEngine, NoAllocationsAfterWarmup)
{
    // The allocation-freedom contract: once a batch's working set has
    // been run (queues grown to their high-water mark, metric handles
    // registered), refilling and re-running the same lanes performs
    // zero heap allocations.
    const SyntheticTraces t = makeTraces(0x50C);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const double peak = peakOf(t.load);

    std::vector<BatchLaneConfig> configs;
    for (int i = 0; i < 8; ++i) {
        BatchLaneConfig lane;
        lane.solar_mw = MegaWatts(5.0 * i);
        lane.wind_mw = MegaWatts(3.0 * i);
        lane.capacity_cap_mw =
            MegaWatts(peak * (i % 2 == 0 ? 1.0 : 1.3));
        lane.flexible_ratio = Fraction(i % 2 == 0 ? 0.6 : 0.3);
        lane.slo_window_hours = Hours(i % 2 == 0 ? 2.0 : 24.0);
        if (i % 3 != 0) {
            lane.chemistry = &lfp;
            lane.battery_capacity_mwh = MegaWattHours(40.0 + 10.0 * i);
        }
        if (i == 4) {
            lane.grid_charge_policy =
                GridChargePolicy::BelowIntensityThreshold;
            lane.grid_charge_threshold_gkwh = GramsPerKwh(300.0);
        }
        configs.push_back(lane);
    }

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    SimulationBatch batch(configs.size());
    auto fill = [&] {
        batch.clear();
        for (const BatchLaneConfig &lane : configs)
            batch.addLane(lane);
    };
    // Warm-up: two full fill+run rounds grow every backlog queue to
    // its working-set size and register the static metric handles.
    for (int round = 0; round < 2; ++round) {
        fill();
        engine.run(batch);
    }

    g_allocation_count.store(0);
    g_count_allocations.store(true);
    fill();
    engine.run(batch);
    g_count_allocations.store(false);
    EXPECT_EQ(g_allocation_count.load(), 0u)
        << "warm fill+run of the batched kernel must not allocate";

    // The same contract on the plain stage 2: the lanes without
    // battery, deferral or grid charging, run as their own batch.
    const auto &c_plain = obs::counter("sim.plain_batch_runs");
    std::vector<BatchLaneConfig> plain_configs;
    for (BatchLaneConfig lane : configs) {
        lane.flexible_ratio = Fraction(0.0);
        lane.chemistry = nullptr;
        lane.battery_capacity_mwh = MegaWattHours(0.0);
        lane.grid_charge_policy = GridChargePolicy::Never;
        plain_configs.push_back(lane);
    }
    SimulationBatch plain(plain_configs.size());
    auto fillPlain = [&] {
        plain.clear();
        for (const BatchLaneConfig &lane : plain_configs)
            plain.addLane(lane);
    };
    fillPlain();
    engine.run(plain);

    const uint64_t plain_runs = c_plain.value();
    g_allocation_count.store(0);
    g_count_allocations.store(true);
    fillPlain();
    engine.run(plain);
    g_count_allocations.store(false);
    EXPECT_EQ(g_allocation_count.load(), 0u)
        << "warm fill+run of a plain batch must not allocate";
    EXPECT_EQ(c_plain.value(), plain_runs + 1);
}

TEST(BatchedEngine, ProfiledRunIsBitIdenticalAndRecordsPhases)
{
    const SyntheticTraces t = makeTraces(0xF00D);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();

    BatchLaneConfig lane;
    lane.solar_mw = MegaWatts(18.0);
    lane.wind_mw = MegaWatts(12.0);
    lane.capacity_cap_mw = MegaWatts(peakOf(t.load) * 1.2);
    lane.flexible_ratio = Fraction(0.4);
    lane.chemistry = &lfp;
    lane.battery_capacity_mwh = MegaWattHours(80.0);

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    SimulationBatch batch(1);
    batch.addLane(lane);
    engine.run(batch);
    const BatchLaneResult unprofiled = batch.result(0);

    auto &profiler = obs::PhaseProfiler::instance();
    profiler.reset();
    profiler.setEnabled(true);
    engine.run(batch);
    profiler.setEnabled(false);
    const obs::ProfileNode merged = profiler.merged();
    profiler.reset();

    EXPECT_EQ(batch.result(0).grid_energy_mwh.value(),
              unprofiled.grid_energy_mwh.value());
    EXPECT_EQ(batch.result(0).operational_kg.value(),
              unprofiled.operational_kg.value());
    EXPECT_EQ(batch.result(0).battery_cycles, unprofiled.battery_cycles);

    // The engine's phases must show up in the merged tree (at any
    // depth — nesting depends on the caller's enclosing phases).
    auto findDeep = [](const obs::ProfileNode &node,
                       const std::string &name,
                       auto &&self) -> const obs::ProfileNode * {
        if (node.name == name)
            return &node;
        for (const obs::ProfileNode &child : node.children) {
            if (const obs::ProfileNode *hit = self(child, name, self))
                return hit;
        }
        return nullptr;
    };
    EXPECT_NE(findDeep(merged, "sim/batch_step", findDeep), nullptr);
    EXPECT_NE(findDeep(merged, "sim/batch_drain", findDeep), nullptr);
}

// ---------------------------------------------------------------------------
// The plain stage 2: batches whose every lane has no battery, no
// deferral, no grid charging and a cap at or above the peak run a
// fused lane loop that must reproduce the general step bit for bit.
// ---------------------------------------------------------------------------

/** Is @p lane one the engine runs on the plain stage 2? */
bool
isPlainLane(const BatchLaneConfig &lane, double peak)
{
    return lane.chemistry == nullptr &&
        lane.flexible_ratio.value() == 0.0 &&
        lane.grid_charge_policy == GridChargePolicy::Never &&
        lane.capacity_cap_mw.value() >= peak;
}

/**
 * Run @p lanes once alone (a plain batch) and once with @p battery
 * appended (which sends the whole batch down the general step), and
 * require every lane's 14 aggregates to agree bitwise.
 */
void
expectPlainMatchesGeneral(const BatchedSimulationEngine &engine,
                          const std::vector<BatchLaneConfig> &lanes,
                          const BatchLaneConfig &battery)
{
    const auto &c_plain = obs::counter("sim.plain_batch_runs");
    const uint64_t before = c_plain.value();
    const std::vector<BatchLaneResult> plain = runTogether(engine, lanes);
    ASSERT_EQ(c_plain.value(), before + 1) << "plain path not taken";

    std::vector<BatchLaneConfig> mixed = lanes;
    mixed.push_back(battery);
    const std::vector<BatchLaneResult> general = runTogether(engine, mixed);
    ASSERT_EQ(c_plain.value(), before + 1) << "general path not taken";

    for (size_t i = 0; i < lanes.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        expectBitIdentical(aggregatesOf(plain[i]),
                           aggregatesOf(general[i]));
    }
}

TEST(BatchedEngine, PlainRowsOfTheFrozenTableMatchItAsOneBatch)
{
    // The frozen table's plain rows (no battery, fwr 0), re-run as one
    // homogeneous batch so they take the plain stage 2, must still
    // match the table the scalar engine produced.
    const SyntheticTraces t = makeTraces(0xC0FFEE);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const BatteryChemistry conservative = conservativeChemistry();
    const std::vector<BatchLaneConfig> configs =
        frozenLanes(t, lfp, conservative);
    const std::vector<Aggregates> table = readLaneTable();
    ASSERT_EQ(table.size(), configs.size()) << laneTablePath();

    std::vector<size_t> rows;
    std::vector<BatchLaneConfig> plain;
    for (size_t i = 0; i < configs.size(); ++i) {
        if (isPlainLane(configs[i], peakOf(t.load))) {
            rows.push_back(i);
            plain.push_back(configs[i]);
        }
    }
    ASSERT_GE(plain.size(), 3u);

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    const auto &c_plain = obs::counter("sim.plain_batch_runs");
    const uint64_t before = c_plain.value();
    const std::vector<BatchLaneResult> results = runTogether(engine, plain);
    EXPECT_EQ(c_plain.value(), before + 1);
    for (size_t k = 0; k < rows.size(); ++k) {
        SCOPED_TRACE("table row " + std::to_string(rows[k]));
        expectBitIdentical(aggregatesOf(results[k]), table[rows[k]]);
    }
}

TEST(BatchedEngine, PlainPathMatchesGeneralPathOnRandomLanes)
{
    // Traces with the edge hours the plain loop's selects must get
    // right: a -0.0 load hour, and hours where a wind-only lane's
    // supply equals the load exactly.
    SyntheticTraces t = makeTraces(0x9A1A);
    t.load[0] = -0.0;
    for (size_t h = 1; h < t.load.size(); h += 5) {
        t.load[h] = 10.0;
        t.wind_shape[h] = 0.5;
        t.solar_shape[h] = 0.0;
    }
    const double peak = peakOf(t.load);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();

    BatchLaneConfig battery;
    battery.solar_mw = MegaWatts(10.0);
    battery.wind_mw = MegaWatts(10.0);
    battery.capacity_cap_mw = MegaWatts(peak);
    battery.chemistry = &lfp;
    battery.battery_capacity_mwh = MegaWattHours(50.0);

    Rng rng(31, "batched-plain-lanes");
    std::vector<BatchLaneConfig> lanes;
    for (size_t i = 0; i < 40; ++i) {
        BatchLaneConfig lane;
        lane.solar_mw = MegaWatts(rng.uniform(0.0, 40.0));
        lane.wind_mw = MegaWatts(rng.uniform(0.0, 40.0));
        lane.capacity_cap_mw = MegaWatts(
            rng.bernoulli(0.3) ? peak : peak * rng.uniform(1.0, 1.5));
        lanes.push_back(lane);
    }
    // A zero-supply lane, and a wind-only lane whose supply equals
    // the load in every fifth hour (0.5 x 20 == 10).
    BatchLaneConfig dark;
    dark.capacity_cap_mw = MegaWatts(peak);
    lanes.push_back(dark);
    BatchLaneConfig exact = dark;
    exact.wind_mw = MegaWatts(20.0);
    lanes.push_back(exact);

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    expectPlainMatchesGeneral(engine, lanes, battery);

    // The same lanes without an intensity series (carbon stays 0).
    const BatchedSimulationEngine no_intensity(t.load, t.solar_shape,
                                               t.wind_shape);
    expectPlainMatchesGeneral(no_intensity, lanes, battery);

    // An all-zero load trace: peak 0, every lane's cap 0 or above.
    const TimeSeries zero_load(kYear, 0.0);
    const BatchedSimulationEngine idle(zero_load, t.solar_shape,
                                       t.wind_shape, &t.intensity);
    std::vector<BatchLaneConfig> idle_lanes = lanes;
    idle_lanes.back().capacity_cap_mw = MegaWatts(0.0);
    battery.capacity_cap_mw = MegaWatts(0.0);
    expectPlainMatchesGeneral(idle, idle_lanes, battery);
}

TEST(BatchedEngine, CapInsideTheSlackTakesTheGeneralPath)
{
    // A cap just below the peak passes validation (the slack absorbs
    // rounding in derived caps), but mandatory work can then exceed
    // it and queue backlog, which only the general step models.
    const SyntheticTraces t = makeTraces(0x51AC);
    const double peak = peakOf(t.load);

    BatchLaneConfig lane;
    lane.solar_mw = MegaWatts(10.0);
    lane.wind_mw = MegaWatts(5.0);
    lane.capacity_cap_mw = MegaWatts(peak - 0.5 * kCapacityCapSlackMw);
    ASSERT_LT(lane.capacity_cap_mw.value(), peak);

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    const auto &c_plain = obs::counter("sim.plain_batch_runs");
    const uint64_t before = c_plain.value();
    const BatchLaneResult r = runTogether(engine, {lane})[0];
    EXPECT_EQ(c_plain.value(), before);
    EXPECT_GT(r.slo_violation_mwh.value(), 0.0);
}

// ---------------------------------------------------------------------------
// Sweep-level differential: the batched evaluator inside optimize()
// against the one-lane evaluate() path.
// ---------------------------------------------------------------------------

ExplorerConfig
utahConfig()
{
    ExplorerConfig cfg;
    cfg.ba_code = "PACE";
    cfg.avg_dc_power_mw = MegaWatts(19.0);
    cfg.flexible_ratio = Fraction(0.4);
    return cfg;
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
    EXPECT_EQ(a.embodied_battery_kg.value(),
              b.embodied_battery_kg.value());
    EXPECT_EQ(a.embodied_server_kg.value(), b.embodied_server_kg.value());
    EXPECT_EQ(a.battery_cycles, b.battery_cycles);
    EXPECT_EQ(a.deferred_mwh.value(), b.deferred_mwh.value());
    EXPECT_EQ(a.renewable_excess_mwh.value(),
              b.renewable_excess_mwh.value());
}

TEST(BatchedSweep, OptimizeMatchesScalarEvaluateAcrossThreadCounts)
{
    // optimize() routes design points through 64-lane waves, sharded
    // across workers; evaluate() runs each point as a one-lane batch.
    // The two must agree bit for bit on every point of the lattice, at
    // any worker count.
    const CarbonExplorer explorer(utahConfig());
    const DesignSpace space = DesignSpace::forDatacenter(19.0, 6.0, 3, 3, 2);

    for (const Strategy strategy :
         {Strategy::RenewablesOnly, Strategy::RenewableBatteryCas}) {
        for (const size_t threads : {size_t{1}, size_t{2}, size_t{5}}) {
            const ThreadCountGuard guard(threads);
            const OptimizationResult swept =
                explorer.optimize(space, strategy);
            SCOPED_TRACE("threads=" + std::to_string(threads));
            for (const Evaluation &eval : swept.evaluated) {
                const Evaluation single =
                    explorer.evaluate(eval.point, strategy);
                expectEvalIdentical(eval, single);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SimulationScratch pushFront regression.
// ---------------------------------------------------------------------------

TEST(BatchedScratch, PushFrontWithNoHeadroomPreservesOrder)
{
    // Regression: pushFront at head == 0 used to fall back to an
    // O(n) insert-at-begin per push; it now opens a proportional gap
    // in one move. Either way the queue order must be exact.
    SimulationScratch scratch;
    // No headroom at all: first push lands at the front.
    scratch.pushFront({7, MegaWattHours(1.5)});
    ASSERT_FALSE(scratch.empty());
    EXPECT_EQ(scratch.front().deadline_hour, 7u);
    EXPECT_EQ(scratch.front().mwh.value(), 1.5);

    // Exhaust the headroom the growth opened, then keep pushing: the
    // head == 0 path must trigger again without corrupting order.
    for (size_t i = 0; i < 100; ++i)
        scratch.pushFront({i, MegaWattHours(static_cast<double>(i))});
    for (size_t i = 0; i < 100; ++i) {
        ASSERT_FALSE(scratch.empty());
        EXPECT_EQ(scratch.front().deadline_hour, 99 - i);
        scratch.popFront();
    }
    EXPECT_EQ(scratch.front().deadline_hour, 7u);
    scratch.popFront();
    EXPECT_TRUE(scratch.empty());
}

TEST(BatchedScratch, RandomizedOpsMatchDequeModel)
{
    Rng rng(99, "scratch-model");
    SimulationScratch scratch;
    std::deque<SimulationScratch::Entry> model;
    for (int op = 0; op < 20000; ++op) {
        const double roll = rng.uniform();
        SimulationScratch::Entry e{static_cast<size_t>(op),
                                   MegaWattHours(rng.uniform())};
        if (roll < 0.35) {
            scratch.pushBack(e);
            model.push_back(e);
        } else if (roll < 0.7) {
            scratch.pushFront(e);
            model.push_front(e);
        } else if (!model.empty()) {
            ASSERT_FALSE(scratch.empty());
            EXPECT_EQ(scratch.front().deadline_hour,
                      model.front().deadline_hour);
            EXPECT_EQ(scratch.front().mwh.value(),
                      model.front().mwh.value());
            scratch.popFront();
            model.pop_front();
        } else {
            EXPECT_TRUE(scratch.empty());
        }
    }
    while (!model.empty()) {
        ASSERT_FALSE(scratch.empty());
        EXPECT_EQ(scratch.front().deadline_hour,
                  model.front().deadline_hour);
        scratch.popFront();
        model.pop_front();
    }
    EXPECT_TRUE(scratch.empty());
}

} // namespace
} // namespace carbonx

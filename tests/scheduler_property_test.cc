/**
 * @file
 * Property-based tests of the co-simulation kernel: invariants that
 * must hold for every region, strategy knob, and random load/supply
 * combination, each run as a one-lane batch.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <tuple>

#include "common/rng.h"
#include "obs/recorder.h"
#include "scheduler/batched_engine.h"

namespace carbonx
{
namespace
{

constexpr int kYear = 2021;

/** Random but physical load series: positive, bounded, diurnal-ish. */
TimeSeries
randomLoad(Rng &rng)
{
    TimeSeries ts(kYear);
    const double base = rng.uniform(5.0, 40.0);
    const double swing = rng.uniform(0.0, 0.15);
    for (size_t h = 0; h < ts.size(); ++h) {
        const double diurnal =
            1.0 + swing * std::sin(2.0 * std::numbers::pi *
                                   static_cast<double>(h % 24) / 24.0);
        ts[h] = base * diurnal * rng.uniform(0.95, 1.05);
    }
    return ts;
}

/** Random renewable supply: bursty, sometimes zero. */
TimeSeries
randomSupply(Rng &rng)
{
    TimeSeries ts(kYear);
    const double peak = rng.uniform(0.0, 120.0);
    double level = 0.5;
    for (size_t h = 0; h < ts.size(); ++h) {
        level = std::clamp(level + rng.normal(0.0, 0.08), 0.0, 1.0);
        ts[h] = peak * level;
    }
    return ts;
}

const BatteryChemistry &
lfp()
{
    static const BatteryChemistry chem =
        BatteryChemistry::lithiumIronPhosphate();
    return chem;
}

/** @p lane with a battery of @p mwh (none when @p mwh is 0). */
BatchLaneConfig
withBattery(BatchLaneConfig lane, double mwh)
{
    if (mwh > 0.0) {
        lane.chemistry = &lfp();
        lane.battery_capacity_mwh = MegaWattHours(mwh);
    }
    return lane;
}

/**
 * Run @p lane alone over @p load. @p supply goes in as the solar shape
 * at a 1 MW nameplate, which reproduces the series exactly.
 */
BatchLaneResult
runLane(const TimeSeries &load, const TimeSeries &supply,
        BatchLaneConfig lane, obs::FlightRecorder *recording = nullptr)
{
    const TimeSeries no_wind(load.year());
    const BatchedSimulationEngine engine(load, supply, no_wind);
    lane.solar_mw = MegaWatts(1.0);
    lane.wind_mw = MegaWatts(0.0);
    SimulationBatch batch(1);
    batch.addLane(lane);
    engine.run(batch, recording);
    return batch.result(0);
}

class EngineProperty
    : public testing::TestWithParam<std::tuple<uint64_t, double, double>>
{
};

TEST_P(EngineProperty, InvariantsHold)
{
    const auto [seed, fwr, battery_hours] = GetParam();
    Rng rng(seed);
    const TimeSeries load = randomLoad(rng);
    const TimeSeries supply = randomSupply(rng);

    const double capacity = battery_hours * load.mean();
    BatchLaneConfig lane;
    lane.capacity_cap_mw = MegaWatts(load.max() * 1.4);
    lane.flexible_ratio = Fraction(fwr);
    lane = withBattery(lane, capacity);
    obs::FlightRecorder rec;
    const BatchLaneResult r = runLane(load, supply, lane, &rec);

    // 1. Capacity cap respected everywhere.
    EXPECT_LE(r.peak_power_mw.value(),
              lane.capacity_cap_mw.value() + 1e-9);

    // 2. Work conservation: served + residual backlog = demand.
    EXPECT_NEAR(r.served_energy_mwh.value() + r.residual_backlog_mwh.value(),
                r.load_energy_mwh.value(), 1e-6 * r.load_energy_mwh.value() + 1e-6);

    // 3. No SLO violations at generous caps.
    EXPECT_DOUBLE_EQ(r.slo_violation_mwh.value(), 0.0);

    // 4. Hourly power balance: grid >= served - supply - net
    //    discharge, and never negative.
    for (size_t h = 0; h < load.size(); ++h)
        ASSERT_GE(rec.grid_mw[h], 0.0) << "hour " << h;
    for (size_t h = 0; h < load.size(); h += 97) {
        const double discharge = std::max(
            rec.battery_discharge_mw[h] - rec.battery_charge_mw[h], 0.0);
        EXPECT_GE(rec.grid_mw[h] + 1e-6,
                  rec.served_mw[h] - supply[h] - discharge);
    }

    // 5. Energy conservation overall: renewables used + grid + battery
    //    net discharge covers everything served.
    EXPECT_LE(r.renewable_used_mwh.value(),
              supply.total() + 1e-6);
    EXPECT_GE(r.grid_energy_mwh.value(), -1e-9);

    // 6. Coverage consistent with energies.
    EXPECT_NEAR(r.coverage_pct,
                (1.0 - r.grid_energy_mwh.value() / r.load_energy_mwh.value()) * 100.0,
                1e-9);

    // 7. Stored energy bounded by the nameplate.
    for (size_t h = 0; h < load.size(); ++h) {
        ASSERT_GE(rec.battery_energy_mwh[h], -1e-9) << "hour " << h;
        ASSERT_LE(rec.battery_energy_mwh[h], capacity + 1e-9)
            << "hour " << h;
    }
}

TEST_P(EngineProperty, BatteryNeverHurtsCoverage)
{
    const auto [seed, fwr, battery_hours] = GetParam();
    Rng rng(seed + 99);
    const TimeSeries load = randomLoad(rng);
    const TimeSeries supply = randomSupply(rng);

    BatchLaneConfig lane;
    lane.capacity_cap_mw = MegaWatts(load.max() * 1.4);
    lane.flexible_ratio = Fraction(fwr);
    const double cov_plain = runLane(load, supply, lane).coverage_pct;

    const double cov_batt =
        runLane(load, supply,
                withBattery(lane, std::max(battery_hours, 1.0) *
                                      load.mean()))
            .coverage_pct;
    EXPECT_GE(cov_batt, cov_plain - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorlds, EngineProperty,
    testing::Combine(testing::Values(11u, 42u, 1234u),
                     testing::Values(0.0, 0.4, 1.0),
                     testing::Values(0.0, 4.0, 16.0)));

TEST(EngineDeterminism, SameInputsSameOutputs)
{
    Rng rng(7);
    const TimeSeries load = randomLoad(rng);
    const TimeSeries supply = randomSupply(rng);
    BatchLaneConfig lane;
    lane.capacity_cap_mw = MegaWatts(load.max() * 1.5);
    lane.flexible_ratio = Fraction(0.4);
    lane = withBattery(lane, 100.0);
    obs::FlightRecorder rec_a;
    obs::FlightRecorder rec_b;
    const BatchLaneResult a = runLane(load, supply, lane, &rec_a);
    const BatchLaneResult b = runLane(load, supply, lane, &rec_b);
    EXPECT_DOUBLE_EQ(a.grid_energy_mwh.value(), b.grid_energy_mwh.value());
    EXPECT_DOUBLE_EQ(a.coverage_pct, b.coverage_pct);
    EXPECT_TRUE(obs::bitIdentical(rec_a, rec_b));
}

} // namespace
} // namespace carbonx

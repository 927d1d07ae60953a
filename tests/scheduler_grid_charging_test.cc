/**
 * @file
 * Tests of the grid-charging (carbon arbitrage) extension of the
 * co-simulation kernel, each run as a one-lane batch.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "obs/recorder.h"
#include "scheduler/batched_engine.h"

namespace carbonx
{
namespace
{

constexpr int kYear = 2021;

TimeSeries
flatLoad(double mw = 10.0)
{
    return TimeSeries(kYear, mw);
}

/** Intensity: clean (100) during the day, dirty (700) at night. */
TimeSeries
dayNightIntensity()
{
    TimeSeries ts(kYear, 700.0);
    for (size_t h = 0; h < ts.size(); ++h) {
        const size_t hour = h % 24;
        if (hour >= 8 && hour < 18)
            ts[h] = 100.0;
    }
    return ts;
}

/** A lane under a 20 MW cap with a battery of @p mwh of @p chem. */
BatchLaneConfig
batteryLane(const BatteryChemistry &chem, double mwh)
{
    BatchLaneConfig lane;
    lane.capacity_cap_mw = MegaWatts(20.0);
    lane.chemistry = &chem;
    lane.battery_capacity_mwh = MegaWattHours(mwh);
    return lane;
}

/** @p lane charging from the grid at or below @p threshold g/kWh. */
BatchLaneConfig
arbitrage(BatchLaneConfig lane, double threshold)
{
    lane.grid_charge_policy = GridChargePolicy::BelowIntensityThreshold;
    lane.grid_charge_threshold_gkwh = GramsPerKwh(threshold);
    return lane;
}

/**
 * Run @p lane alone against a flat 10 MW load with no renewables at
 * all, so only grid charging can move energy through the battery.
 */
BatchLaneResult
runLane(const BatchLaneConfig &lane, const TimeSeries *intensity,
        obs::FlightRecorder *recording = nullptr)
{
    const TimeSeries load = flatLoad();
    const TimeSeries none(kYear);
    const BatchedSimulationEngine engine(load, none, none, intensity);
    SimulationBatch batch(1);
    batch.addLane(lane);
    engine.run(batch, recording);
    return batch.result(0);
}

TEST(GridCharging, NeverPolicyDrawsNoChargeEnergy)
{
    const TimeSeries intensity = dayNightIntensity();
    const BatteryChemistry ideal = BatteryChemistry::ideal();
    const BatchLaneResult r = runLane(batteryLane(ideal, 100.0), &intensity);
    EXPECT_DOUBLE_EQ(r.grid_charge_mwh.value(), 0.0);
}

TEST(GridCharging, ThresholdPolicyChargesOnCleanHours)
{
    const TimeSeries intensity = dayNightIntensity();
    const BatteryChemistry ideal = BatteryChemistry::ideal();
    const BatchLaneResult r =
        runLane(arbitrage(batteryLane(ideal, 50.0), 200.0), &intensity);
    EXPECT_GT(r.grid_charge_mwh.value(), 0.0);
    EXPECT_GT(r.battery_cycles, 100.0); // Cycles most days.
}

TEST(GridCharging, ArbitrageReducesOperationalCarbon)
{
    // Even with zero renewables, storing clean daytime grid energy
    // and discharging it at night must cut total emissions despite
    // round-trip losses.
    const TimeSeries intensity = dayNightIntensity();
    BatchLaneConfig plain;
    plain.capacity_cap_mw = MegaWatts(20.0);
    const BatchLaneResult base = runLane(plain, &intensity);

    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const BatchLaneResult with_arb =
        runLane(arbitrage(batteryLane(lfp, 120.0), 200.0), &intensity);
    EXPECT_LT(with_arb.operational_kg.value(), base.operational_kg.value());

    // But total grid energy goes up (losses + stored energy).
    EXPECT_GT(with_arb.grid_energy_mwh.value(), base.grid_energy_mwh.value());
}

TEST(GridCharging, ChargeEnergyCountsAsGridDraw)
{
    const TimeSeries intensity = dayNightIntensity();
    const BatteryChemistry ideal = BatteryChemistry::ideal();
    obs::FlightRecorder rec;
    const BatchLaneResult r = runLane(
        arbitrage(batteryLane(ideal, 50.0), 200.0), &intensity, &rec);
    // The charge energy is drawn from the grid, and with a lossless
    // battery every stored MWh later displaces a grid MWh, so the
    // total grid energy equals the load exactly — but the draw has
    // moved into the clean hours.
    EXPECT_GT(r.grid_charge_mwh.value(), 0.0);
    EXPECT_NEAR(r.grid_energy_mwh.value(), r.load_energy_mwh.value(), 1e-6);
    // At least the charged energy was billed during clean hours.
    double clean_grid_mwh = 0.0;
    for (size_t h = 0; h < rec.hours(); ++h) {
        if (intensity[h] <= 200.0)
            clean_grid_mwh += rec.grid_mw[h];
    }
    EXPECT_GE(clean_grid_mwh + 1e-6, r.grid_charge_mwh.value());
}

TEST(GridCharging, HighThresholdChargesMoreThanLowThreshold)
{
    const TimeSeries intensity = dayNightIntensity();
    const BatteryChemistry ideal = BatteryChemistry::ideal();
    auto chargeAt = [&](double threshold) {
        return runLane(arbitrage(batteryLane(ideal, 50.0), threshold),
                       &intensity)
            .grid_charge_mwh.value();
    };
    EXPECT_DOUBLE_EQ(chargeAt(50.0), 0.0);   // Nothing qualifies.
    EXPECT_GT(chargeAt(800.0), chargeAt(200.0) - 1e-9);
    EXPECT_GT(chargeAt(200.0), 0.0);
}

TEST(GridCharging, RequiresIntensitySeries)
{
    const BatteryChemistry ideal = BatteryChemistry::ideal();
    const BatchLaneConfig lane = arbitrage(batteryLane(ideal, 50.0), 200.0);
    EXPECT_THROW(runLane(lane, nullptr), UserError);

    const TimeSeries wrong_year(2020, 100.0);
    EXPECT_THROW(runLane(lane, &wrong_year), UserError);
}

} // namespace
} // namespace carbonx

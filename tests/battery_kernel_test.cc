/**
 * @file
 * Tests of the battery physics, which live in stage 2 of the
 * simulation kernel: the C/L/C rules (battery/chemistry.h) applied to
 * a lane's chemistry every hour. Each test runs one-lane batches over
 * closed-form traces and reads the battery through the flight
 * recorder.
 *
 * The lane carries a flat load, no flexible work and no grid
 * charging, so in every hour the kernel offers the battery exactly
 * supply - load (a surplus) or asks it for exactly load - supply (a
 * deficit). A test states its actions as that per-hour offer
 * (positive) or request (negative); later hours are idle.
 *
 * Suites: ClcBattery covers the C/L/C rules under physical
 * chemistries, IdealBattery covers BatteryChemistry::ideal(), and
 * BatteryPropertyTest checks the rules hour by hour over random
 * traces for every preset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "battery/chemistry.h"
#include "common/error.h"
#include "common/rng.h"
#include "obs/recorder.h"
#include "scheduler/batched_engine.h"

namespace carbonx
{
namespace
{

constexpr int kYear = 2021;

/** Flat demand, above every offer or request the tests make. */
constexpr double kLoadMw = 1000.0;

/** LFP with a lossless round trip, for exact-arithmetic tests. */
BatteryChemistry
losslessLfp()
{
    BatteryChemistry c = BatteryChemistry::lithiumIronPhosphate();
    c.charge_efficiency = 1.0;
    c.discharge_efficiency = 1.0;
    return c;
}

/** The traces of one action list: flat load, supply = load + action. */
struct ActionTrace
{
    explicit ActionTrace(const std::vector<double> &actions)
        : load(kYear, kLoadMw), supply(kYear, kLoadMw), no_wind(kYear)
    {
        for (size_t h = 0; h < actions.size(); ++h)
            supply[h] = kLoadMw + actions[h];
    }

    /** The kernel over these traces; supply is the 1 MW solar shape. */
    BatchedSimulationEngine engine() const
    {
        return BatchedSimulationEngine(load, supply, no_wind);
    }

    TimeSeries load;
    TimeSeries supply;
    TimeSeries no_wind;
};

/** A lane that reproduces the supply series and holds one battery. */
BatchLaneConfig
batteryLane(const BatteryChemistry &chem, double capacity_mwh,
            double initial_soc = -1.0)
{
    BatchLaneConfig lane;
    lane.solar_mw = MegaWatts(1.0);
    lane.capacity_cap_mw = MegaWatts(kLoadMw);
    lane.chemistry = &chem;
    lane.battery_capacity_mwh = MegaWattHours(capacity_mwh);
    lane.initial_soc = initial_soc;
    return lane;
}

/** The recording and aggregates of one battery lane's year. */
struct BatteryRun
{
    obs::FlightRecorder rec;
    BatchLaneResult result;
};

BatteryRun
runActions(const BatteryChemistry &chem, double capacity_mwh,
           const std::vector<double> &actions, double initial_soc = -1.0)
{
    const ActionTrace trace(actions);
    SimulationBatch batch(1);
    batch.addLane(batteryLane(chem, capacity_mwh, initial_soc));
    BatteryRun run;
    trace.engine().run(batch, &run.rec);
    run.result = batch.result(0);
    return run;
}

/** Total AC energy the battery delivered over the recording. */
double
dischargedMwh(const obs::FlightRecorder &rec)
{
    double total = 0.0;
    for (const double mw : rec.battery_discharge_mw)
        total += mw;
    return total;
}

// ---------------------------------------------------------------------------
// The C/L/C rules.
// ---------------------------------------------------------------------------

TEST(ClcBattery, StartsAtTheDodFloor)
{
    const BatteryRun full_window = runActions(losslessLfp(), 100.0, {});
    EXPECT_EQ(full_window.rec.battery_energy_mwh[0], 0.0);

    BatteryChemistry c = losslessLfp();
    c.depth_of_discharge = 0.8;
    // A request at the floor gets nothing; a full charge and a full
    // discharge then move exactly the usable 80 MWh.
    const BatteryRun windowed =
        runActions(c, 100.0, {-50.0, 100.0, -200.0});
    EXPECT_DOUBLE_EQ(windowed.rec.battery_energy_mwh[0], 20.0);
    EXPECT_EQ(windowed.rec.battery_discharge_mw[0], 0.0);
    EXPECT_DOUBLE_EQ(windowed.rec.battery_charge_mw[1], 80.0);
    EXPECT_DOUBLE_EQ(windowed.rec.battery_energy_mwh[1], 100.0);
    EXPECT_DOUBLE_EQ(windowed.rec.battery_discharge_mw[2], 80.0);
    EXPECT_DOUBLE_EQ(windowed.rec.battery_energy_mwh[2], 20.0);
}

TEST(ClcBattery, ChargeStoresEnergy)
{
    const BatteryRun run = runActions(losslessLfp(), 100.0, {30.0});
    EXPECT_EQ(run.rec.battery_charge_mw[0], 30.0);
    EXPECT_EQ(run.rec.battery_energy_mwh[0], 30.0);
    // The stored energy stays put through the idle hours.
    EXPECT_EQ(run.rec.battery_energy_mwh.back(), 30.0);
}

TEST(ClcBattery, ChargeRespectsCRate)
{
    // At 1C an hourly step fills an empty battery exactly when the
    // headroom runs out, so a 0.5C chemistry isolates the rate cap:
    // 0.5C on 100 MWh accepts at most 50 MW.
    BatteryChemistry c = losslessLfp();
    c.max_charge_c_rate = 0.5;
    const BatteryRun run = runActions(c, 100.0, {250.0, 250.0, 250.0});
    EXPECT_EQ(run.rec.battery_charge_mw[0], 50.0);
    EXPECT_EQ(run.rec.battery_charge_mw[1], 50.0);
    EXPECT_EQ(run.rec.battery_energy_mwh[1], 100.0);
    EXPECT_EQ(run.rec.battery_charge_mw[2], 0.0);
}

TEST(ClcBattery, ChargeStopsAtCapacity)
{
    const BatteryRun run =
        runActions(losslessLfp(), 100.0, {90.0, 50.0, 10.0});
    EXPECT_EQ(run.rec.battery_charge_mw[1], 10.0);
    EXPECT_EQ(run.rec.battery_energy_mwh[1], 100.0);
    EXPECT_EQ(run.rec.battery_charge_mw[2], 0.0);
    // What the battery refused is curtailed.
    EXPECT_EQ(run.rec.curtailed_mw[1], 40.0);
}

TEST(ClcBattery, DischargeDeliversStoredEnergy)
{
    const BatteryRun run = runActions(losslessLfp(), 100.0, {60.0, -25.0});
    EXPECT_EQ(run.rec.battery_discharge_mw[1], 25.0);
    EXPECT_EQ(run.rec.battery_energy_mwh[1], 35.0);
    // The battery covers the deficit; the grid supplies nothing.
    EXPECT_EQ(run.rec.grid_mw[1], 0.0);
}

TEST(ClcBattery, DischargeRespectsCRateAndContent)
{
    // 0.4C on 100 MWh delivers at most 40 MW: the rate cap binds
    // twice, then the remaining content, then nothing is left.
    BatteryChemistry c = losslessLfp();
    c.max_discharge_c_rate = 0.4;
    const BatteryRun run =
        runActions(c, 100.0, {100.0, -500.0, -500.0, -500.0, -1.0});
    EXPECT_DOUBLE_EQ(run.rec.battery_discharge_mw[1], 40.0);
    EXPECT_DOUBLE_EQ(run.rec.battery_discharge_mw[2], 40.0);
    EXPECT_DOUBLE_EQ(run.rec.battery_discharge_mw[3], 20.0);
    EXPECT_DOUBLE_EQ(run.rec.battery_energy_mwh[3], 0.0);
    EXPECT_EQ(run.rec.battery_discharge_mw[4], 0.0);
}

TEST(ClcBattery, DischargeHonorsDodFloor)
{
    BatteryChemistry c = losslessLfp();
    c.depth_of_discharge = 0.8;
    const BatteryRun run = runActions(c, 100.0, {-200.0}, 1.0);
    EXPECT_DOUBLE_EQ(run.rec.battery_discharge_mw[0], 80.0);
    EXPECT_DOUBLE_EQ(run.rec.battery_energy_mwh[0], 20.0);
}

TEST(ClcBattery, ChargingEfficiencyLosesEnergy)
{
    BatteryChemistry c = losslessLfp();
    c.charge_efficiency = 0.9;
    // 10 MWh at the terminal, 9 stored.
    const BatteryRun run = runActions(c, 100.0, {10.0});
    EXPECT_EQ(run.rec.battery_charge_mw[0], 10.0);
    EXPECT_DOUBLE_EQ(run.rec.battery_energy_mwh[0], 9.0);
}

TEST(ClcBattery, DischargingEfficiencyDrawsExtraContent)
{
    BatteryChemistry c = losslessLfp();
    c.discharge_efficiency = 0.9;
    // Delivers 9, draws 10 from content.
    const BatteryRun run = runActions(c, 100.0, {50.0, -9.0});
    EXPECT_EQ(run.rec.battery_discharge_mw[1], 9.0);
    EXPECT_DOUBLE_EQ(run.rec.battery_energy_mwh[1], 40.0);
}

TEST(ClcBattery, RoundTripEfficiencyCompounds)
{
    // LFP: 0.95 each way -> ~90% round trip.
    const BatteryRun run =
        runActions(BatteryChemistry::lithiumIronPhosphate(), 1000.0,
                   {100.0, -1000.0});
    const double in = run.rec.battery_charge_mw[0];
    const double out = run.rec.battery_discharge_mw[1];
    EXPECT_EQ(in, 100.0);
    EXPECT_NEAR(out / in, 0.95 * 0.95, 1e-9);
    EXPECT_NEAR(run.rec.battery_energy_mwh[1], 0.0, 1e-9);
}

TEST(ClcBattery, StateOfChargeTracksContent)
{
    // An initial SoC sets the starting content: half of 200 MWh.
    const BatteryRun run =
        runActions(losslessLfp(), 200.0, {0.0, 50.0}, 0.5);
    EXPECT_EQ(run.rec.battery_energy_mwh[0], 100.0);
    EXPECT_EQ(run.rec.battery_energy_mwh[1], 0.75 * 200.0);
}

TEST(ClcBattery, FullEquivalentCyclesFromThroughput)
{
    const std::vector<double> three_cycles = {100.0, -100.0, 100.0,
                                              -100.0, 100.0, -100.0};
    const BatteryRun run = runActions(losslessLfp(), 100.0, three_cycles);
    EXPECT_NEAR(run.result.battery_cycles, 3.0, 1e-9);

    // Cycles count discharged energy against the usable window, not
    // the nameplate: 3 x 80 MWh out of an 80 MWh window.
    BatteryChemistry c = losslessLfp();
    c.depth_of_discharge = 0.8;
    const BatteryRun windowed = runActions(c, 100.0, three_cycles);
    EXPECT_NEAR(dischargedMwh(windowed.rec), 240.0, 1e-9);
    EXPECT_NEAR(windowed.result.battery_cycles, 3.0, 1e-9);
}

TEST(ClcBattery, ResetRestoresInitialState)
{
    // Running a batch again restarts every battery from its initial
    // content with no throughput carried over.
    const ActionTrace trace({20.0, -5.0});
    const BatchedSimulationEngine engine = trace.engine();
    const BatteryChemistry chem = losslessLfp();
    SimulationBatch batch(1);
    batch.addLane(batteryLane(chem, 100.0, 0.5));
    obs::FlightRecorder first;
    engine.run(batch, &first);
    const double first_cycles = batch.result(0).battery_cycles;
    obs::FlightRecorder second;
    engine.run(batch, &second);
    EXPECT_EQ(second.battery_energy_mwh[0], 70.0);
    EXPECT_EQ(second.battery_energy_mwh[1], 65.0);
    EXPECT_TRUE(obs::bitIdentical(first, second));
    EXPECT_EQ(batch.result(0).battery_cycles, first_cycles);
    EXPECT_EQ(first_cycles, 5.0 / 100.0);
}

TEST(ClcBattery, ZeroCapacityIsInert)
{
    const BatteryRun run = runActions(losslessLfp(), 0.0, {10.0, -10.0});
    EXPECT_EQ(run.rec.battery_charge_mw[0], 0.0);
    EXPECT_EQ(run.rec.battery_discharge_mw[1], 0.0);
    EXPECT_EQ(run.rec.battery_energy_mwh[1], 0.0);
    EXPECT_EQ(run.rec.grid_mw[1], 10.0);
    EXPECT_EQ(run.result.battery_cycles, 0.0);
}

TEST(ClcBattery, RejectsInvalidArguments)
{
    // A rejected lane leaves the batch as it was: the next lane runs
    // exactly as it would in a fresh batch.
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    BatteryChemistry no_window = lfp;
    no_window.depth_of_discharge = 0.0;
    SimulationBatch batch(2);
    EXPECT_THROW(batch.addLane(batteryLane(lfp, -1.0)), UserError);
    EXPECT_THROW(batch.addLane(batteryLane(no_window, 10.0)), UserError);
    EXPECT_THROW(batch.addLane(batteryLane(lfp, 10.0, 1.5)), UserError);
    EXPECT_EQ(batch.size(), 0u);

    const std::vector<double> actions = {30.0, -20.0};
    batch.addLane(batteryLane(lfp, 50.0));
    obs::FlightRecorder rec;
    ActionTrace(actions).engine().run(batch, &rec);
    EXPECT_TRUE(obs::bitIdentical(rec, runActions(lfp, 50.0, actions).rec));
}

// ---------------------------------------------------------------------------
// BatteryChemistry::ideal(): lossless, no rate limit, full window.
// ---------------------------------------------------------------------------

TEST(IdealBattery, PerfectRoundTrip)
{
    const BatteryRun run =
        runActions(BatteryChemistry::ideal(), 100.0, {40.0, -100.0});
    EXPECT_EQ(run.rec.battery_charge_mw[0], 40.0);
    EXPECT_EQ(run.rec.battery_discharge_mw[1], 40.0);
    EXPECT_EQ(run.rec.battery_energy_mwh[1], 0.0);
}

TEST(IdealBattery, NoPowerLimit)
{
    // Infinite C-rates leave only the headroom and the content as
    // bounds: a full charge and a full discharge each take one hour,
    // however large the offer, and nothing non-finite leaks out.
    const BatteryRun run =
        runActions(BatteryChemistry::ideal(), 100.0, {6000.0, -1000.0});
    EXPECT_EQ(run.rec.battery_charge_mw[0], 100.0);
    EXPECT_EQ(run.rec.battery_energy_mwh[0], 100.0);
    EXPECT_EQ(run.rec.battery_discharge_mw[1], 100.0);
    EXPECT_EQ(run.rec.battery_energy_mwh[1], 0.0);
    EXPECT_EQ(run.result.battery_cycles, 1.0);
}

TEST(IdealBattery, CapacityStillBinds)
{
    const BatteryRun run =
        runActions(BatteryChemistry::ideal(), 50.0, {80.0, -80.0});
    EXPECT_EQ(run.rec.battery_charge_mw[0], 50.0);
    EXPECT_EQ(run.rec.battery_discharge_mw[1], 50.0);
}

TEST(IdealBattery, StateOfChargeAndCycles)
{
    const BatteryRun run = runActions(BatteryChemistry::ideal(), 10.0,
                                      {5.0, -5.0, 10.0, -10.0});
    EXPECT_EQ(run.rec.battery_energy_mwh[0], 0.5 * 10.0);
    EXPECT_EQ(run.result.battery_cycles, 1.5);
}

TEST(IdealBattery, ResetClearsEverything)
{
    // A battery left full by one run starts empty on the next.
    const ActionTrace trace({10.0});
    const BatchedSimulationEngine engine = trace.engine();
    const BatteryChemistry ideal = BatteryChemistry::ideal();
    SimulationBatch batch(1);
    batch.addLane(batteryLane(ideal, 10.0));
    obs::FlightRecorder first;
    engine.run(batch, &first);
    EXPECT_EQ(first.battery_energy_mwh.back(), 10.0);
    obs::FlightRecorder second;
    engine.run(batch, &second);
    EXPECT_EQ(second.battery_charge_mw[0], 10.0);
    EXPECT_TRUE(obs::bitIdentical(first, second));
}

TEST(IdealBattery, RejectsInvalidArguments)
{
    // Infinite C-rates pass the positivity check; the capacity and
    // the SoC window are still validated.
    const BatteryChemistry ideal = BatteryChemistry::ideal();
    SimulationBatch batch(1);
    EXPECT_THROW(batch.addLane(batteryLane(ideal, -1.0)), UserError);
    EXPECT_THROW(batch.addLane(batteryLane(ideal, 10.0, 1.5)), UserError);
    EXPECT_NO_THROW(batch.addLane(batteryLane(ideal, 10.0)));
}

TEST(IdealBattery, OutperformsClcEverywhere)
{
    // A daily cycle: 20 MW of surplus in hours 8-17, a 10 MW deficit
    // otherwise. On the same lane the ideal battery delivers at least
    // as much as LFP in every hour, and covers at least as much load.
    std::vector<double> day(TimeSeries(kYear).size(), -10.0);
    for (size_t h = 0; h < day.size(); ++h) {
        if (h % 24 >= 8 && h % 24 < 18)
            day[h] = 20.0;
    }
    const BatteryRun ideal =
        runActions(BatteryChemistry::ideal(), 50.0, day);
    const BatteryRun lfp =
        runActions(BatteryChemistry::lithiumIronPhosphate(), 50.0, day);
    for (size_t h = 0; h < day.size(); ++h) {
        ASSERT_GE(ideal.rec.battery_discharge_mw[h],
                  lfp.rec.battery_discharge_mw[h])
            << "hour " << h;
    }
    EXPECT_GT(dischargedMwh(ideal.rec), dischargedMwh(lfp.rec));
    EXPECT_GE(ideal.result.coverage_pct, lfp.result.coverage_pct);
}

TEST(BatteryComparison, IdealDominatesClcOnTheSameSchedule)
{
    // For the same random offer/request schedule, the lossless
    // unbounded chemistry delivers at least as much as LFP.
    Rng rng(77);
    std::vector<double> actions;
    for (int step = 0; step < 1000; ++step) {
        const double p = rng.uniform(0.0, 120.0);
        actions.push_back(rng.bernoulli(0.5) ? p : -p);
    }
    const BatteryRun ideal =
        runActions(BatteryChemistry::ideal(), 50.0, actions);
    const BatteryRun lfp =
        runActions(BatteryChemistry::lithiumIronPhosphate(), 50.0,
                   actions);
    EXPECT_GE(dischargedMwh(ideal.rec), dischargedMwh(lfp.rec));
}

// ---------------------------------------------------------------------------
// Properties under random hourly traces, for every preset.
// ---------------------------------------------------------------------------

/** A chemistry under test, at a nameplate capacity. */
struct BatteryCase
{
    std::string name;
    BatteryChemistry chemistry;
    double capacity_mwh;
};

std::vector<BatteryCase>
allCases()
{
    BatteryChemistry dod80 = BatteryChemistry::lithiumIronPhosphate();
    dod80.depth_of_discharge = 0.8;
    return {
        {"LFP", BatteryChemistry::lithiumIronPhosphate(), 120.0},
        {"NMC", BatteryChemistry::nickelManganeseCobalt(), 80.0},
        {"NaIon", BatteryChemistry::sodiumIon(), 40.0},
        {"LFPDoD80", dod80, 120.0},
        {"Ideal", BatteryChemistry::ideal(), 60.0},
    };
}

class BatteryPropertyTest
    : public testing::TestWithParam<std::tuple<size_t, uint64_t>>
{
  protected:
    const BatteryCase &batteryCase() const
    {
        static const std::vector<BatteryCase> cases = allCases();
        return cases[std::get<0>(GetParam())];
    }

    /** A year of offers and requests of up to 3x the capacity. */
    std::vector<double> randomActions() const
    {
        const BatteryCase &bc = batteryCase();
        Rng rng(std::get<1>(GetParam()), bc.name);
        std::vector<double> actions(TimeSeries(kYear).size());
        for (double &a : actions)
            a = rng.uniform(-3.0, 3.0) * bc.capacity_mwh;
        return actions;
    }
};

TEST_P(BatteryPropertyTest, InvariantsUnderRandomActions)
{
    const BatteryCase &bc = batteryCase();
    const BatteryChemistry &chem = bc.chemistry;
    const double cap = bc.capacity_mwh;
    const BatteryRun run = runActions(chem, cap, randomActions());
    const obs::FlightRecorder &rec = run.rec;

    const double floor = cap * (1.0 - chem.depth_of_discharge);
    const double rate_charge = chem.max_charge_c_rate * cap;
    const double rate_discharge = chem.max_discharge_c_rate * cap;
    double prev = floor;
    double discharged = 0.0;
    for (size_t h = 0; h < rec.hours(); ++h) {
        const double in = rec.battery_charge_mw[h];
        const double out = rec.battery_discharge_mw[h];
        const double content = rec.battery_energy_mwh[h];

        // Stored energy stays inside the DoD window.
        ASSERT_GE(content, floor) << "hour " << h;
        ASSERT_LE(content, cap) << "hour " << h;

        // The battery takes no more than the rate cap and the
        // renewable surplus offered, and gives no more than the rate
        // cap and the deficit asked of it.
        const double surplus = rec.renewable_mw[h] - rec.load_mw[h];
        ASSERT_GE(in, 0.0) << "hour " << h;
        ASSERT_LE(in, std::min(rate_charge, std::max(surplus, 0.0)))
            << "hour " << h;
        ASSERT_GE(out, 0.0) << "hour " << h;
        ASSERT_LE(out, std::min(rate_discharge, std::max(-surplus, 0.0)))
            << "hour " << h;

        // Content moves by exactly eta_c * in - out / eta_d, unless a
        // bound clamps it, and a clamp only absorbs rounding.
        const double moved = prev + in * chem.charge_efficiency -
            out / chem.discharge_efficiency;
        ASSERT_EQ(content, std::clamp(moved, floor, cap)) << "hour " << h;
        ASSERT_NEAR(content, moved, 1e-9 * cap) << "hour " << h;

        prev = content;
        discharged += out;
    }

    // Full-equivalent cycles: discharged energy over the usable window.
    EXPECT_EQ(run.result.battery_cycles,
              discharged / (cap * chem.depth_of_discharge));
    EXPECT_GT(run.result.battery_cycles, 0.0);
}

TEST_P(BatteryPropertyTest, IdenticalSequencesAreDeterministic)
{
    const BatteryCase &bc = batteryCase();
    const std::vector<double> actions = randomActions();
    const BatteryRun a = runActions(bc.chemistry, bc.capacity_mwh, actions);
    const BatteryRun b = runActions(bc.chemistry, bc.capacity_mwh, actions);
    EXPECT_TRUE(obs::bitIdentical(a.rec, b.rec));
    EXPECT_EQ(a.result.battery_cycles, b.result.battery_cycles);
    EXPECT_EQ(a.result.grid_energy_mwh.value(),
              b.result.grid_energy_mwh.value());
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, BatteryPropertyTest,
    testing::Combine(testing::Range<size_t>(0, 5),
                     testing::Values(1u, 17u, 4242u)),
    [](const testing::TestParamInfo<std::tuple<size_t, uint64_t>> &info) {
        static const std::vector<BatteryCase> cases = allCases();
        return cases[std::get<0>(info.param)].name + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace carbonx

/**
 * @file
 * Tests of the hour-by-hour co-simulation: the four strategies of
 * section 5.2 and their interactions, plus the kernel's edge cases
 * (zero load, zero capacity, an empty battery, and both sides of the
 * dispatch threshold), each run as a one-lane batch.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/tolerances.h"
#include "obs/audit.h"
#include "obs/recorder.h"
#include "scheduler/batched_engine.h"

namespace carbonx
{
namespace
{

constexpr int kYear = 2021;

/** Flat 10 MW demand. */
TimeSeries
flatLoad(double mw = 10.0)
{
    return TimeSeries(kYear, mw);
}

/** Solar-like supply: 30 MW from hours 8-17, zero otherwise. */
TimeSeries
daySupply(double mw = 30.0)
{
    TimeSeries ts(kYear);
    for (size_t h = 0; h < ts.size(); ++h) {
        const size_t hour = h % 24;
        if (hour >= 8 && hour < 18)
            ts[h] = mw;
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

const BatteryChemistry &
ideal()
{
    static const BatteryChemistry chem = BatteryChemistry::ideal();
    return chem;
}

BatchLaneConfig
baseLane()
{
    BatchLaneConfig lane;
    lane.capacity_cap_mw = MegaWatts(40.0);
    return lane;
}

BatchLaneConfig
withBattery(BatchLaneConfig lane, const BatteryChemistry &chem,
            double mwh)
{
    lane.chemistry = &chem;
    lane.battery_capacity_mwh = MegaWattHours(mwh);
    return lane;
}

BatchLaneConfig
withCas(BatchLaneConfig lane, double fwr)
{
    lane.flexible_ratio = Fraction(fwr);
    return lane;
}

/**
 * Run @p lane alone over @p load. @p supply goes in as the solar shape
 * at a 1 MW nameplate, which reproduces the series exactly; the hours
 * stream into @p recording when it is given.
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

/** Audit @p recording of @p lane's run and expect no violation. */
void
expectCleanAudit(const obs::FlightRecorder &recording,
                 const BatchLaneConfig &lane, const BatchLaneResult &r)
{
    obs::AuditContext ctx;
    ctx.capacity_cap_mw = lane.capacity_cap_mw.value();
    ctx.battery_capacity_mwh = lane.battery_capacity_mwh.value();
    ctx.residual_backlog_mwh = r.residual_backlog_mwh.value();
    ctx.reported_operational_kg = r.operational_kg.value();
    const obs::AuditReport report = obs::auditRecording(recording, ctx);
    EXPECT_TRUE(report.clean())
        << report.violations.front().format();
}

TEST(SimulationEngine, RenewableOnlyCoverageMatchesClosedForm)
{
    // 10 of 24 hours fully covered: coverage = 10/24.
    const BatchLaneResult r = runLane(flatLoad(), daySupply(), baseLane());
    EXPECT_NEAR(r.coverage_pct, 100.0 * 10.0 / 24.0, 1e-6);
}

TEST(SimulationEngine, ZeroSupplyMeansZeroCoverage)
{
    const BatchLaneResult r =
        runLane(flatLoad(), TimeSeries(kYear), baseLane());
    EXPECT_NEAR(r.coverage_pct, 0.0, 1e-9);
    EXPECT_NEAR(r.grid_energy_mwh.value(), r.load_energy_mwh.value(), 1e-6);
}

TEST(SimulationEngine, AbundantSupplyMeansFullCoverage)
{
    const BatchLaneResult r =
        runLane(flatLoad(), TimeSeries(kYear, 100.0), baseLane());
    EXPECT_NEAR(r.coverage_pct, 100.0, 1e-9);
    EXPECT_NEAR(r.grid_energy_mwh.value(), 0.0, 1e-9);
    EXPECT_GT(r.renewable_excess_mwh.value(), 0.0);
}

TEST(SimulationEngine, BatteryBridgesNights)
{
    // Day supply delivers 300 MWh over 10 hours against 240 MWh of
    // daily demand; a large ideal battery shifts the 60 MWh surplus
    // into the 14 night hours (140 MWh needed) -> partial bridging.
    const BatchLaneResult with_batt = runLane(
        flatLoad(), daySupply(), withBattery(baseLane(), ideal(), 500.0));
    const double base_cov =
        runLane(flatLoad(), daySupply(), baseLane()).coverage_pct;
    EXPECT_GT(with_batt.coverage_pct, base_cov + 5.0);
    EXPECT_GT(with_batt.battery_cycles, 10.0);
}

TEST(SimulationEngine, BigEnoughSupplyAndBatteryReach100)
{
    // 60 MW for 10 daytime hours = 600 MWh/day vs 240 MWh demand;
    // battery holds a full night comfortably.
    const BatchLaneResult r =
        runLane(flatLoad(), daySupply(60.0),
                withBattery(baseLane(), ideal(), 200.0));
    EXPECT_NEAR(r.coverage_pct, 100.0, 0.1);
}

TEST(SimulationEngine, ClcLossesReduceCoverageVsIdeal)
{
    const double cov_clc =
        runLane(flatLoad(), daySupply(35.0),
                withBattery(baseLane(), lfp(), 200.0))
            .coverage_pct;
    const double cov_ideal =
        runLane(flatLoad(), daySupply(35.0),
                withBattery(baseLane(), ideal(), 200.0))
            .coverage_pct;
    EXPECT_GE(cov_ideal, cov_clc);
}

TEST(SimulationEngine, CasShiftsFlexibleLoadIntoTheDay)
{
    const BatchLaneResult r =
        runLane(flatLoad(), daySupply(), withCas(baseLane(), 0.4));
    const double base_cov =
        runLane(flatLoad(), daySupply(), baseLane()).coverage_pct;
    EXPECT_GT(r.coverage_pct, base_cov + 5.0);
    EXPECT_GT(r.deferred_mwh.value(), 0.0);
    // Total work conserved up to the residual backlog at year end.
    EXPECT_NEAR(r.served_energy_mwh.value() + r.residual_backlog_mwh.value(),
                r.load_energy_mwh.value(), 1.0);
}

TEST(SimulationEngine, DeferredWorkMeetsItsDeadline)
{
    BatchLaneConfig lane = withCas(baseLane(), 0.4);
    lane.slo_window_hours = Hours(24.0);
    const BatchLaneResult r = runLane(flatLoad(), daySupply(), lane);
    EXPECT_DOUBLE_EQ(r.slo_violation_mwh.value(), 0.0);
    // Backlog never exceeds one day of deferrable work.
    EXPECT_LE(r.max_backlog_mwh.value(), 0.4 * 10.0 * 24.0 + 1e-6);
}

TEST(SimulationEngine, ServedPowerRespectsCapacityCap)
{
    BatchLaneConfig lane = withCas(baseLane(), 1.0);
    lane.capacity_cap_mw = MegaWatts(12.0);
    const BatchLaneResult r = runLane(flatLoad(), daySupply(), lane);
    EXPECT_LE(r.peak_power_mw.value(), 12.0 + 1e-9);
}

TEST(SimulationEngine, CombinedBeatsEitherAlone)
{
    const TimeSeries supply = daySupply(25.0);
    const double cov_cas =
        runLane(flatLoad(), supply, withCas(baseLane(), 0.4)).coverage_pct;
    const double cov_batt =
        runLane(flatLoad(), supply, withBattery(baseLane(), lfp(), 80.0))
            .coverage_pct;
    const double cov_both =
        runLane(flatLoad(), supply,
                withBattery(withCas(baseLane(), 0.4), lfp(), 80.0))
            .coverage_pct;
    const double cov_plain =
        runLane(flatLoad(), supply, baseLane()).coverage_pct;

    EXPECT_GE(cov_both, cov_cas - 1e-6);
    EXPECT_GE(cov_both, cov_batt - 1e-6);
    EXPECT_GT(cov_both, cov_plain);
}

TEST(SimulationEngine, BatteryDischargesBeforeDeferral)
{
    // Section 5.2 priority: with a large battery, flexible work rides
    // through deficits on stored energy instead of being deferred.
    // A huge first week charges the battery.
    TimeSeries supply = daySupply(30.0);
    for (size_t h = 0; h < 7 * 24; ++h)
        supply[h] = 100.0;
    const BatchLaneConfig cas = withCas(baseLane(), 0.4);
    const BatchLaneResult r =
        runLane(flatLoad(), supply, withBattery(cas, ideal(), 10000.0));
    const BatchLaneResult r2 = runLane(flatLoad(), supply, cas);
    EXPECT_LT(r.deferred_mwh.value(), r2.deferred_mwh.value());
}

TEST(SimulationEngine, GridPowerIsTheResidual)
{
    const TimeSeries supply = daySupply();
    obs::FlightRecorder rec;
    runLane(flatLoad(), supply, baseLane(), &rec);
    for (size_t h = 0; h < rec.hours(); h += 97) {
        const double expected =
            std::max(rec.served_mw[h] - supply[h], 0.0);
        EXPECT_NEAR(rec.grid_mw[h], expected, 1e-9);
    }
}

TEST(SimulationEngine, SocSeriesStaysInRange)
{
    obs::FlightRecorder rec;
    runLane(flatLoad(), daySupply(), withBattery(baseLane(), lfp(), 100.0),
            &rec);
    for (size_t h = 0; h < rec.hours(); ++h) {
        const double soc = rec.battery_energy_mwh[h] / 100.0;
        ASSERT_GE(soc, -1e-9) << "hour " << h;
        ASSERT_LE(soc, 1.0 + 1e-9) << "hour " << h;
    }
}

TEST(SimulationEngine, RejectsInvalidConfigs)
{
    BatchLaneConfig lane = baseLane();
    lane.capacity_cap_mw = MegaWatts(5.0); // Below the 10 MW load peak.
    EXPECT_THROW(runLane(flatLoad(), daySupply(), lane), UserError);
    EXPECT_THROW(runLane(flatLoad(), daySupply(), withCas(baseLane(), -0.1)),
                 UserError);
    lane = baseLane();
    lane.slo_window_hours = Hours(0.0);
    EXPECT_THROW(runLane(flatLoad(), daySupply(), lane), UserError);
}

TEST(SimulationEngine, RejectsMismatchedSeries)
{
    const TimeSeries other_year(2020, 1.0);
    const TimeSeries no_wind(kYear);
    EXPECT_THROW(BatchedSimulationEngine(flatLoad(), other_year, no_wind),
                 UserError);
    const TimeSeries negative(kYear, -1.0);
    const TimeSeries supply = daySupply();
    EXPECT_THROW(BatchedSimulationEngine(negative, supply, no_wind),
                 UserError);
}

class SloWindowSweep : public testing::TestWithParam<double>
{
};

TEST_P(SloWindowSweep, NoSloViolationsAtAnyWindow)
{
    BatchLaneConfig lane = withCas(baseLane(), 0.4);
    lane.slo_window_hours = Hours(GetParam());
    const BatchLaneResult r = runLane(flatLoad(), daySupply(), lane);
    EXPECT_DOUBLE_EQ(r.slo_violation_mwh.value(), 0.0);
    EXPECT_LE(r.peak_power_mw.value(),
              lane.capacity_cap_mw.value() + 1e-9);
    EXPECT_NEAR(r.served_energy_mwh.value() + r.residual_backlog_mwh.value(),
                r.load_energy_mwh.value(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Windows, SloWindowSweep,
                         testing::Values(4.0, 8.0, 12.0, 24.0, 48.0));

// ---------------------------------------------------------------------------
// Edge cases of the dispatch step.
// ---------------------------------------------------------------------------

/** One ULP above @p x. */
double
ulpAbove(double x)
{
    return std::nextafter(x, 2.0 * x);
}

TEST(DispatchEdges, ZeroLoadHourServesAndDrawsNothing)
{
    TimeSeries load = flatLoad();
    load[5] = 0.0; // A night hour: no supply, and no backlog due yet.
    const BatchLaneConfig lane =
        withBattery(withCas(baseLane(), 0.4), lfp(), 50.0);
    obs::FlightRecorder rec;
    const BatchLaneResult r = runLane(load, daySupply(), lane, &rec);
    EXPECT_EQ(rec.served_mw[5], 0.0);
    EXPECT_EQ(rec.grid_mw[5], 0.0);
    EXPECT_EQ(rec.battery_discharge_mw[5], 0.0);
    EXPECT_EQ(rec.shifted_mwh[5], 0.0);
    expectCleanAudit(rec, lane, r);

    // A whole year without load is fully covered, and every supplied
    // megawatt-hour is left over.
    const TimeSeries supply = daySupply();
    const BatchLaneResult idle =
        runLane(TimeSeries(kYear), supply, baseLane());
    EXPECT_EQ(idle.coverage_pct, 100.0);
    EXPECT_EQ(idle.grid_energy_mwh.value(), 0.0);
    EXPECT_EQ(idle.served_energy_mwh.value(), 0.0);
    EXPECT_EQ(idle.renewable_excess_mwh.value(), supply.total());
}

TEST(DispatchEdges, ZeroCapacityBatteryIsNoBattery)
{
    const BatchLaneConfig plain = withCas(baseLane(), 0.4);
    const BatchLaneConfig empty = withBattery(plain, lfp(), 0.0);
    obs::FlightRecorder rec;
    const BatchLaneResult a = runLane(flatLoad(), daySupply(), plain);
    const BatchLaneResult b =
        runLane(flatLoad(), daySupply(), empty, &rec);
    EXPECT_EQ(a.grid_energy_mwh.value(), b.grid_energy_mwh.value());
    EXPECT_EQ(a.served_energy_mwh.value(), b.served_energy_mwh.value());
    EXPECT_EQ(a.deferred_mwh.value(), b.deferred_mwh.value());
    EXPECT_EQ(a.coverage_pct, b.coverage_pct);
    EXPECT_EQ(b.battery_cycles, 0.0);
    for (size_t h = 0; h < rec.hours(); ++h) {
        ASSERT_EQ(rec.battery_charge_mw[h], 0.0) << "hour " << h;
        ASSERT_EQ(rec.battery_discharge_mw[h], 0.0) << "hour " << h;
        ASSERT_EQ(rec.battery_energy_mwh[h], 0.0) << "hour " << h;
    }
    expectCleanAudit(rec, empty, b);
}

TEST(DispatchEdges, BatteryStartingAtDodFloorDeliversNothing)
{
    BatteryChemistry chem = BatteryChemistry::lithiumIronPhosphate();
    chem.depth_of_discharge = 0.8;
    const double floor_soc = 1.0 - chem.depth_of_discharge;
    BatchLaneConfig lane = withBattery(baseLane(), chem, 100.0);
    lane.initial_soc = floor_soc;

    // Hour 0 is a night hour: the deficit asks the battery first,
    // and an empty battery has nothing above its floor to give.
    obs::FlightRecorder rec;
    const BatchLaneResult r = runLane(flatLoad(), daySupply(), lane, &rec);
    EXPECT_EQ(rec.battery_discharge_mw[0], 0.0);
    EXPECT_EQ(rec.battery_energy_mwh[0], 100.0 * floor_soc);
    EXPECT_EQ(rec.grid_mw[0], 10.0);
    expectCleanAudit(rec, lane, r);

    // The floor is also where a battery starts by default.
    BatchLaneConfig by_default = lane;
    by_default.initial_soc = -1.0;
    const BatchLaneResult d = runLane(flatLoad(), daySupply(), by_default);
    EXPECT_EQ(r.grid_energy_mwh.value(), d.grid_energy_mwh.value());
    EXPECT_EQ(r.battery_cycles, d.battery_cycles);
}

/**
 * Hour 0 has no load and @p surplus MW of supply; every later hour
 * has 10 MW of load and none. Returns what the battery took in hour 0.
 */
double
chargedFromSurplus(double surplus)
{
    TimeSeries load = flatLoad();
    load[0] = 0.0;
    TimeSeries supply(kYear);
    supply[0] = surplus;
    const BatchLaneConfig lane = withBattery(baseLane(), ideal(), 100.0);
    obs::FlightRecorder rec;
    const BatchLaneResult r = runLane(load, supply, lane, &rec);
    expectCleanAudit(rec, lane, r);
    EXPECT_EQ(rec.battery_charge_mw[0] + rec.curtailed_mw[0], surplus);
    return rec.battery_charge_mw[0];
}

TEST(DispatchEdges, SurplusAtTheThresholdIsNotOfferedToTheBattery)
{
    EXPECT_EQ(chargedFromSurplus(kNegligibleDispatch), 0.0);
}

TEST(DispatchEdges, SurplusOneUlpAboveTheThresholdCharges)
{
    const double surplus = ulpAbove(kNegligibleDispatch);
    EXPECT_EQ(chargedFromSurplus(surplus), surplus);
}

/**
 * Hour 0 defers an entry of @p entry MWh (all of its load is flexible
 * and there is no supply); hour 1 has no load and ample surplus; the
 * entry is due at hour 4.
 */
obs::FlightRecorder
drainBacklogEntry(double entry)
{
    TimeSeries load(kYear);
    load[0] = entry;
    TimeSeries supply(kYear);
    supply[1] = 5.0;
    BatchLaneConfig lane = withCas(baseLane(), 1.0);
    lane.slo_window_hours = Hours(4.0);
    obs::FlightRecorder rec;
    const BatchLaneResult r = runLane(load, supply, lane, &rec);
    EXPECT_EQ(rec.shifted_mwh[0], entry);
    EXPECT_EQ(r.served_energy_mwh.value(), entry);
    expectCleanAudit(rec, lane, r);
    return rec;
}

TEST(DispatchEdges, BacklogEntryAtTheThresholdWaitsForItsDeadline)
{
    // A slice at the threshold is not worth running on surplus: the
    // entry stays queued through hour 1 and runs when it falls due.
    const obs::FlightRecorder rec = drainBacklogEntry(kNegligibleDispatch);
    EXPECT_EQ(rec.served_mw[1], 0.0);
    EXPECT_EQ(rec.backlog_mwh[1], kNegligibleDispatch);
    EXPECT_EQ(rec.served_mw[4], kNegligibleDispatch);
    EXPECT_EQ(rec.backlog_mwh[4], 0.0);
}

TEST(DispatchEdges, BacklogEntryOneUlpAboveTheThresholdDrainsOnSurplus)
{
    const double entry = ulpAbove(kNegligibleDispatch);
    const obs::FlightRecorder rec = drainBacklogEntry(entry);
    EXPECT_EQ(rec.served_mw[1], entry);
    EXPECT_EQ(rec.backlog_mwh[1], 0.0);
    EXPECT_EQ(rec.served_mw[4], 0.0);
}

TEST(DispatchEdges, CapAtPeakWithoutFlexibilityServesTheLoadAsIs)
{
    TimeSeries load(kYear);
    for (size_t h = 0; h < load.size(); ++h)
        load[h] = 8.0 + static_cast<double>(h % 24) / 6.0;
    BatchLaneConfig lane = withBattery(baseLane(), lfp(), 40.0);
    lane.capacity_cap_mw = MegaWatts(load.max());
    obs::FlightRecorder rec;
    const BatchLaneResult r = runLane(load, daySupply(), lane, &rec);
    for (size_t h = 0; h < rec.hours(); ++h)
        ASSERT_EQ(rec.served_mw[h], load[h]) << "hour " << h;
    EXPECT_EQ(r.peak_power_mw.value(), load.max());
    EXPECT_EQ(r.deferred_mwh.value(), 0.0);
    EXPECT_EQ(r.slo_violation_mwh.value(), 0.0);
    EXPECT_EQ(r.max_backlog_mwh.value(), 0.0);
    expectCleanAudit(rec, lane, r);
}

} // namespace
} // namespace carbonx

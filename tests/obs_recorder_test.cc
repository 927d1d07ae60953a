/**
 * @file
 * Contract tests of the simulation flight recorder: the buffer
 * mechanics (in-order append, reuse, row/column views), the
 * zero-perturbation guarantee (attaching a recorder changes nothing
 * about the simulation result), bit-identical recordings at any
 * thread count, and exact carbon reconciliation between the hourly
 * carbon column and the reported operational total.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "carbon/operational.h"
#include "common/error.h"
#include "common/parallel.h"
#include "core/explorer.h"

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

DesignPoint
holisticPoint()
{
    return DesignPoint{MegaWatts(80.0), MegaWatts(80.0),
                       MegaWattHours(150.0), Fraction(0.0)};
}

obs::HourlyRecord
sampleRow(double base)
{
    obs::HourlyRecord row;
    row.load_mw = base;
    row.served_mw = base + 1.0;
    row.renewable_mw = base + 2.0;
    row.renewable_used_mw = base + 3.0;
    row.grid_mw = base + 4.0;
    row.battery_charge_mw = base + 5.0;
    row.battery_discharge_mw = base + 6.0;
    row.battery_energy_mwh = base + 7.0;
    row.curtailed_mw = base + 8.0;
    row.shifted_mwh = base + 9.0;
    row.backlog_mwh = base + 10.0;
    row.slo_violation_mwh = base + 11.0;
    row.grid_charge_mwh = base + 12.0;
    row.carbon_kg = base + 13.0;
    return row;
}

TEST(FlightRecorder, RecordsRowsInOrderAndRoundTrips)
{
    obs::FlightRecorder rec;
    rec.begin(2020, 2, true);
    EXPECT_EQ(rec.year(), 2020);
    EXPECT_TRUE(rec.hasCarbon());
    EXPECT_EQ(rec.hours(), 0u);

    rec.record(0, sampleRow(0.0));
    rec.record(1, sampleRow(100.0));
    ASSERT_EQ(rec.hours(), 2u);

    const obs::HourlyRecord back = rec.row(1);
    EXPECT_EQ(back.load_mw, 100.0);
    EXPECT_EQ(back.served_mw, 101.0);
    EXPECT_EQ(back.renewable_mw, 102.0);
    EXPECT_EQ(back.renewable_used_mw, 103.0);
    EXPECT_EQ(back.grid_mw, 104.0);
    EXPECT_EQ(back.battery_charge_mw, 105.0);
    EXPECT_EQ(back.battery_discharge_mw, 106.0);
    EXPECT_EQ(back.battery_energy_mwh, 107.0);
    EXPECT_EQ(back.curtailed_mw, 108.0);
    EXPECT_EQ(back.shifted_mwh, 109.0);
    EXPECT_EQ(back.backlog_mwh, 110.0);
    EXPECT_EQ(back.slo_violation_mwh, 111.0);
    EXPECT_EQ(back.grid_charge_mwh, 112.0);
    EXPECT_EQ(back.carbon_kg, 113.0);

    EXPECT_EQ(rec.totalCarbonKg(), 13.0 + 113.0);
}

TEST(FlightRecorder, OutOfOrderRecordIsAnInternalError)
{
    obs::FlightRecorder rec;
    rec.begin(2020, 4, false);
    rec.record(0, sampleRow(0.0));
    EXPECT_THROW(rec.record(2, sampleRow(1.0)), InternalError);
    EXPECT_THROW(rec.record(0, sampleRow(1.0)), InternalError);
}

TEST(FlightRecorder, BeginResetsForReuse)
{
    obs::FlightRecorder rec;
    rec.begin(2020, 3, true);
    rec.record(0, sampleRow(1.0));
    rec.record(1, sampleRow(2.0));

    rec.begin(2021, 3, false);
    EXPECT_EQ(rec.hours(), 0u);
    EXPECT_EQ(rec.year(), 2021);
    EXPECT_FALSE(rec.hasCarbon());
    rec.record(0, sampleRow(5.0));
    EXPECT_EQ(rec.row(0).load_mw, 5.0);
}

TEST(FlightRecorder, ColumnViewsMatchDeclarationOrder)
{
    const auto &names = obs::FlightRecorder::columnNames();
    ASSERT_EQ(names.size(), 14u);
    EXPECT_STREQ(names.front(), "load_mw");
    EXPECT_STREQ(names.back(), "carbon_kg");

    obs::FlightRecorder rec;
    rec.begin(2020, 1, true);
    rec.record(0, sampleRow(0.0));
    const auto columns = rec.columns();
    ASSERT_EQ(columns.size(), names.size());
    // sampleRow fills field k with k, in declaration order.
    for (size_t c = 0; c < columns.size(); ++c) {
        ASSERT_EQ(columns[c]->size(), 1u);
        EXPECT_EQ((*columns[c])[0], static_cast<double>(c))
            << "column " << names[c];
    }
}

TEST(FlightRecorder, BitIdenticalComparesEveryColumn)
{
    obs::FlightRecorder a;
    obs::FlightRecorder b;
    for (obs::FlightRecorder *rec : {&a, &b}) {
        rec->begin(2020, 2, true);
        rec->record(0, sampleRow(1.0));
        rec->record(1, sampleRow(2.0));
    }
    EXPECT_TRUE(bitIdentical(a, b));

    b.backlog_mwh[1] += 1e-12;
    EXPECT_FALSE(bitIdentical(a, b));

    b.backlog_mwh[1] = a.backlog_mwh[1];
    EXPECT_TRUE(bitIdentical(a, b));

    obs::FlightRecorder shorter;
    shorter.begin(2020, 2, true);
    shorter.record(0, sampleRow(1.0));
    EXPECT_FALSE(bitIdentical(a, shorter));
}

TEST(FlightRecorder, BitIdenticalComparesBitPatterns)
{
    obs::FlightRecorder a;
    obs::FlightRecorder b;
    for (obs::FlightRecorder *rec : {&a, &b}) {
        rec->begin(2020, 2, true);
        rec->record(0, sampleRow(1.0));
        rec->record(1, sampleRow(2.0));
    }

    // The same NaN in both recordings is the same recording.
    a.grid_mw[0] = std::numeric_limits<double>::quiet_NaN();
    b.grid_mw[0] = a.grid_mw[0];
    EXPECT_TRUE(bitIdentical(a, b));

    // +0.0 == -0.0 as numbers, but not as bits.
    a.carbon_kg[1] = 0.0;
    b.carbon_kg[1] = -0.0;
    EXPECT_FALSE(bitIdentical(a, b));
    EXPECT_FALSE(bitIdentical(b, a));
    b.carbon_kg[1] = 0.0;
    EXPECT_TRUE(bitIdentical(a, b));
}

TEST(FlightRecorder, ExplainRecordsEveryHourOfTheYear)
{
    const CarbonExplorer &ex = utahExplorer();
    const ExplainResult res =
        ex.explain(holisticPoint(), Strategy::RenewableBatteryCas);
    EXPECT_EQ(res.recording.hours(), ex.dcPower().size());
    EXPECT_EQ(res.recording.year(), ex.dcPower().year());
    EXPECT_TRUE(res.recording.hasCarbon());
}

TEST(FlightRecorder, RecorderDoesNotPerturbTheSimulation)
{
    const CarbonExplorer &ex = utahExplorer();
    const DesignPoint point = holisticPoint();
    for (const Strategy strategy :
         {Strategy::RenewablesOnly, Strategy::RenewableBattery,
          Strategy::RenewableCas, Strategy::RenewableBatteryCas}) {
        SCOPED_TRACE(strategyName(strategy));
        // evaluate() runs the same lane with no recorder attached.
        const Evaluation plain = ex.evaluate(point, strategy);
        const ExplainResult rec = ex.explain(point, strategy);
        const SimulationResult sim = ex.simulate(point, strategy);

        EXPECT_EQ(plain.coverage_pct, rec.simulation.coverage_pct);
        EXPECT_EQ(plain.operational_kg.value(),
                  rec.simulation.operational_kg.value());
        EXPECT_EQ(plain.battery_cycles, rec.simulation.battery_cycles);
        EXPECT_EQ(plain.deferred_mwh.value(),
                  rec.simulation.deferred_mwh.value());
        EXPECT_EQ(plain.renewable_excess_mwh.value(),
                  rec.simulation.renewable_excess_mwh.value());
        EXPECT_EQ(sim.grid_energy_mwh.value(),
                  rec.simulation.grid_energy_mwh.value());
        EXPECT_EQ(sim.served_energy_mwh.value(),
                  rec.simulation.served_energy_mwh.value());
        EXPECT_EQ(sim.renewable_used_mwh.value(),
                  rec.simulation.renewable_used_mwh.value());
        EXPECT_EQ(sim.residual_backlog_mwh.value(),
                  rec.simulation.residual_backlog_mwh.value());
        for (size_t h = 0; h < sim.grid_power.size(); ++h) {
            ASSERT_EQ(sim.grid_power[h], rec.recording.grid_mw[h])
                << "hour " << h;
            ASSERT_EQ(sim.served_power[h], rec.recording.served_mw[h])
                << "hour " << h;
        }
    }
}

TEST(FlightRecorder, ExplainMatchesEvaluateBitwise)
{
    const CarbonExplorer &ex = utahExplorer();
    const DesignPoint point = holisticPoint();
    const Strategy strategy = Strategy::RenewableBatteryCas;
    const Evaluation eval = ex.evaluate(point, strategy);
    const ExplainResult res = ex.explain(point, strategy);
    EXPECT_EQ(eval.operational_kg.value(),
              res.evaluation.operational_kg.value());
    EXPECT_EQ(eval.totalKg().value(), res.evaluation.totalKg().value());
    EXPECT_EQ(eval.coverage_pct, res.evaluation.coverage_pct);
}

TEST(FlightRecorder, CarbonColumnSumsToReportedOperationalExactly)
{
    const CarbonExplorer &ex = utahExplorer();
    for (const Strategy strategy :
         {Strategy::RenewablesOnly, Strategy::RenewableBatteryCas}) {
        SCOPED_TRACE(strategyName(strategy));
        const ExplainResult res = ex.explain(holisticPoint(), strategy);
        // Exact, not approximate: the recorder stores grid * intensity
        // per hour and totalCarbonKg() sums in hour order — the same
        // float operations in the same order as gridEmissions().
        EXPECT_EQ(res.recording.totalCarbonKg(),
                  res.evaluation.operational_kg.value());
        const KilogramsCo2 recomputed =
            OperationalCarbonModel::gridEmissions(
                ex.simulate(holisticPoint(), strategy).grid_power,
                ex.gridIntensity());
        EXPECT_EQ(res.recording.totalCarbonKg(), recomputed.value());
    }
}

TEST(FlightRecorder, RecordingBitIdenticalAcrossThreadCounts)
{
    const CarbonExplorer &ex = utahExplorer();
    const DesignPoint point = holisticPoint();
    const Strategy strategy = Strategy::RenewableBatteryCas;

    obs::FlightRecorder serial_recording;
    double serial_total_kg = 0.0;
    {
        const ThreadCountGuard guard(1);
        const ExplainResult serial = ex.explain(point, strategy);
        serial_recording = serial.recording;
        serial_total_kg = serial.evaluation.totalKg().value();
    }
    for (size_t threads : {size_t{2}, hardwareThreads()}) {
        const ThreadCountGuard guard(threads);
        const ExplainResult parallel = ex.explain(point, strategy);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_TRUE(
            bitIdentical(serial_recording, parallel.recording));
        EXPECT_EQ(serial_total_kg,
                  parallel.evaluation.totalKg().value());
    }
}

TEST(FlightRecorder, EnergyColumnsReconcileWithAggregates)
{
    const CarbonExplorer &ex = utahExplorer();
    const ExplainResult res =
        ex.explain(holisticPoint(), Strategy::RenewableBatteryCas);
    const obs::FlightRecorder &rec = res.recording;

    double grid_mwh = 0.0;
    double served_mwh = 0.0;
    double shifted_mwh = 0.0;
    for (size_t h = 0; h < rec.hours(); ++h) {
        grid_mwh += rec.grid_mw[h];
        served_mwh += rec.served_mw[h];
        shifted_mwh += rec.shifted_mwh[h];
    }
    EXPECT_NEAR(grid_mwh, res.simulation.grid_energy_mwh.value(), 1e-6);
    EXPECT_NEAR(served_mwh, res.simulation.served_energy_mwh.value(),
                1e-6);
    EXPECT_NEAR(shifted_mwh, res.simulation.deferred_mwh.value(), 1e-6);
    EXPECT_EQ(rec.backlog_mwh.back(),
              res.simulation.residual_backlog_mwh.value());
}

} // namespace
} // namespace carbonx

/**
 * @file
 * Frozen kernel results at the extremes of the deferred-work backlog.
 * Four lane sets each drive one corner of the backlog machinery:
 *
 *  - overflow: caps inside the validation slack below the load peak,
 *    so deadline-forced work exceeds the cap and re-queues at the
 *    front of the backlog (the SLO-violation path), cascading through
 *    blocks of peak hours;
 *  - windows: SLO windows of 1 h next to windows as long as the year
 *    or longer, in one batch;
 *  - no renewables: zero solar and wind with every watt flexible, so
 *    every hour defers and the backlog holds one entry per hour of the
 *    window;
 *  - grid charging: battery lanes that also charge from a clean grid.
 *
 * Every lane set runs as batches of 1, 7 and 64 lanes. A lane's
 * results do not depend on its batch, so one FNV-1a 64 digest over
 * every BatchLaneResult field of every lane, in lane order, is pinned
 * per set; a lane that read or wrote a neighbour's backlog would move
 * it at some batch size. The constants were taken from the kernel's
 * per-lane vector-queue backlog, before backlogs moved into fixed
 * rings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "common/rng.h"
#include "common/tolerances.h"
#include "scheduler/batched_engine.h"
#include "scheduler/simulation_batch.h"

namespace carbonx
{
namespace
{

constexpr int kYear = 2021;
constexpr double kPeak = 12.5;

struct Traces
{
    TimeSeries load{kYear};
    TimeSeries solar_shape{kYear};
    TimeSeries wind_shape{kYear};
    TimeSeries intensity{kYear};
};

/**
 * Noisy load in [8, 12] MW with a six-hour block at exactly kPeak
 * every 500 hours, so forced work matures at the peak in runs.
 */
Traces
makeTraces()
{
    Rng rng(0xB4C0, "backlog-freeze-traces");
    Traces t;
    for (size_t h = 0; h < t.load.size(); ++h) {
        t.load[h] = h % 500 < 6 ? kPeak : rng.uniform(8.0, 12.0);
        const size_t hour_of_day = h % 24;
        t.solar_shape[h] = (hour_of_day >= 7 && hour_of_day <= 17)
                               ? rng.uniform(0.2, 1.0)
                               : 0.0;
        t.wind_shape[h] = rng.uniform(0.0, 1.0);
        t.intensity[h] = rng.uniform(50.0, 800.0);
    }
    return t;
}

BatteryChemistry
lossyChemistry()
{
    BatteryChemistry chem = BatteryChemistry::lithiumIronPhosphate();
    chem.charge_efficiency = 0.9;
    chem.discharge_efficiency = 0.88;
    chem.max_charge_c_rate = 0.5;
    chem.max_discharge_c_rate = 0.7;
    chem.depth_of_discharge = 0.8;
    return chem;
}

enum class Corner
{
    Overflow,
    Windows,
    NoRenewables,
    GridCharging,
};

constexpr size_t kLanes = 64;

/** The deterministic lane set of one corner. */
std::vector<BatchLaneConfig>
lanesFor(Corner corner, const BatteryChemistry *chem)
{
    Rng rng(0xF00D + static_cast<uint64_t>(corner), "backlog-freeze");
    const std::array<double, 7> windows = {1.0,    2.0,    5.0,   24.0,
                                           8760.0, 8784.0, 1e6};
    std::vector<BatchLaneConfig> lanes;
    for (size_t i = 0; i < kLanes; ++i) {
        BatchLaneConfig lane;
        lane.solar_mw = MegaWatts(rng.uniform(0.0, 20.0));
        lane.wind_mw = MegaWatts(rng.uniform(0.0, 10.0));
        lane.capacity_cap_mw = MegaWatts(kPeak * rng.uniform(1.0, 1.3));
        lane.flexible_ratio = Fraction(rng.uniform(0.1, 1.0));
        lane.slo_window_hours = Hours(
            windows[static_cast<size_t>(rng.uniformInt(windows.size()))]);
        if (rng.bernoulli(0.5)) {
            lane.chemistry = chem;
            lane.battery_capacity_mwh =
                MegaWattHours(rng.uniform(0.0, 60.0));
        }
        switch (corner) {
        case Corner::Overflow:
            lane.capacity_cap_mw =
                MegaWatts(kPeak - 0.5 * kCapacityCapSlackMw);
            lane.flexible_ratio = Fraction(i % 2 == 0 ? 1.0 : 0.7);
            lane.slo_window_hours = Hours(1.0 + static_cast<double>(i % 9));
            if (i % 4 == 0) {
                lane.solar_mw = MegaWatts(0.0);
                lane.wind_mw = MegaWatts(0.0);
            }
            break;
        case Corner::Windows:
            lane.slo_window_hours = Hours(windows[i % windows.size()]);
            break;
        case Corner::NoRenewables:
            lane.solar_mw = MegaWatts(0.0);
            lane.wind_mw = MegaWatts(0.0);
            lane.flexible_ratio = Fraction(1.0);
            break;
        case Corner::GridCharging:
            lane.chemistry = chem;
            lane.battery_capacity_mwh =
                MegaWattHours(rng.uniform(5.0, 80.0));
            lane.grid_charge_policy =
                GridChargePolicy::BelowIntensityThreshold;
            lane.grid_charge_threshold_gkwh =
                GramsPerKwh(rng.uniform(100.0, 500.0));
            break;
        }
        lanes.push_back(lane);
    }
    return lanes;
}

/** FNV-1a 64 over every field of @p r. */
uint64_t
foldResult(const BatchLaneResult &r, uint64_t hash)
{
    const std::array<double, 14> fields = {
        r.load_energy_mwh.value(),      r.served_energy_mwh.value(),
        r.grid_energy_mwh.value(),      r.renewable_used_mwh.value(),
        r.renewable_excess_mwh.value(), r.deferred_mwh.value(),
        r.max_backlog_mwh.value(),      r.residual_backlog_mwh.value(),
        r.slo_violation_mwh.value(),    r.peak_power_mw.value(),
        r.battery_cycles,               r.grid_charge_mwh.value(),
        r.coverage_pct,                 r.operational_kg.value()};
    return fnv1a64Bytes(fields.data(), sizeof(fields), hash);
}

/**
 * Run @p lanes in consecutive batches of @p batch_size lanes (one
 * reused batch) and digest every result in lane order.
 */
uint64_t
digestAt(const BatchedSimulationEngine &engine,
         const std::vector<BatchLaneConfig> &lanes, size_t batch_size,
         double *violation_mwh)
{
    SimulationBatch batch(batch_size);
    uint64_t hash = kFnvOffsetBasis;
    for (size_t first = 0; first < lanes.size(); first += batch_size) {
        batch.clear();
        const size_t last = std::min(lanes.size(), first + batch_size);
        for (size_t l = first; l < last; ++l)
            batch.addLane(lanes[l]);
        engine.run(batch);
        for (size_t l = 0; l < batch.size(); ++l) {
            hash = foldResult(batch.result(l), hash);
            *violation_mwh += batch.result(l).slo_violation_mwh.value();
        }
    }
    return hash;
}

void
expectFrozen(Corner corner, uint64_t want, bool violates)
{
    const Traces t = makeTraces();
    const BatteryChemistry chem = lossyChemistry();
    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    const std::vector<BatchLaneConfig> lanes = lanesFor(corner, &chem);
    for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
        SCOPED_TRACE("batch size " + std::to_string(batch_size));
        double violation_mwh = 0.0;
        EXPECT_EQ(digestAt(engine, lanes, batch_size, &violation_mwh),
                  want);
        EXPECT_EQ(violation_mwh > 0.0, violates);
    }
}

TEST(BacklogFreeze, OverflowRequeuesForcedWorkAboveTheCap)
{
    // With a cap half the slack below the peak, work deferred from a
    // peak hour exceeds the cap when it matures; the excess re-queues
    // at the front with next hour's deadline. On a zero-renewable lane
    // with every watt flexible, that hour holds the window's W − 1
    // unexpired entries, the re-queued excess and the hour's own
    // deferral: W + 1 live entries, the most a backlog can hold.
    expectFrozen(Corner::Overflow, 0x35334e112be700eaULL, true);
}

TEST(BacklogFreeze, OneHourAndYearLongWindows)
{
    expectFrozen(Corner::Windows, 0x2645d6722d33b579ULL, false);
}

TEST(BacklogFreeze, NoRenewablesEveryWattFlexible)
{
    expectFrozen(Corner::NoRenewables, 0x9898ac1f9dab7cd4ULL, false);
}

TEST(BacklogFreeze, BatteryLanesWithGridCharging)
{
    expectFrozen(Corner::GridCharging, 0xa06860b9e06ad772ULL, false);
}

} // namespace
} // namespace carbonx

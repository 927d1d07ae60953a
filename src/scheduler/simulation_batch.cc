#include "simulation_batch.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/tolerances.h"

namespace carbonx
{

namespace
{
/**
 * addLane sits on the sweep's wave-refill path, so its checks branch
 * first and build the message only on the failure path, out of line.
 */
[[noreturn]] void
failLane(const char *msg)
{
    throw UserError(msg);
}
} // namespace

SimulationBatch::SimulationBatch(size_t capacity) : capacity_(capacity)
{
    require(capacity > 0, "simulation batch capacity must be > 0");
    const auto reserve = [capacity](auto &vec) {
        vec.reserve(capacity);
    };
    reserve(lanes_);
    reserve(solar_);
    reserve(wind_);
    reserve(fwr_);
    reserve(ren_);
    reserve(fixed_);
    reserve(flex_);
    reserve(acc_grid_);
    reserve(acc_ren_used_);
    reserve(acc_ren_excess_);
    reserve(acc_carbon_);
    reserve(results_);
}

void
SimulationBatch::clear()
{
    size_ = 0;
    lanes_.clear();
    solar_.clear();
    wind_.clear();
    fwr_.clear();
}

void
SimulationBatch::addLane(const BatchLaneConfig &lane)
{
    if (size_ >= capacity_)
        failLane("simulation batch is full");
    // Each range check reads !(inside), so NaN fails it too.
    if (!(lane.solar_mw.value() >= 0.0 && lane.wind_mw.value() >= 0.0))
        failLane("solar_mw and wind_mw must be >= 0");
    if (!(lane.flexible_ratio.value() >= 0.0 &&
          lane.flexible_ratio.value() <= 1.0))
        failLane("flexible_ratio must be in [0, 1]");
    // The engine clamps a long finite window to the trace before it
    // becomes an hour count.
    if (!std::isfinite(lane.slo_window_hours.value()))
        failLane("slo_window_hours must be finite");
    if (lane.slo_window_hours.value() < 1.0)
        failLane("slo_window_hours must be at least one hour");

    const bool grid_charging = lane.grid_charge_policy ==
        GridChargePolicy::BelowIntensityThreshold;
    if (grid_charging && !(lane.grid_charge_threshold_gkwh.value() >= 0.0))
        failLane("grid_charge_threshold_gkwh must be >= 0");

    Lane rec;
    rec.cap = lane.capacity_cap_mw.value();
    rec.fwr = lane.flexible_ratio.value();
    rec.window_hours = lane.slo_window_hours.value();
    rec.grid_charging = grid_charging;
    rec.grid_threshold = lane.grid_charge_threshold_gkwh.value();
    if (lane.chemistry != nullptr) {
        // Validate the chemistry, then pre-derive the C/L/C
        // quantities the kernel reads every hour: rate caps (C-rate x
        // capacity), DoD floor ((1 - DoD) x capacity), usable
        // capacity (DoD x capacity) and initial content.
        const BatteryChemistry &chem = *lane.chemistry;
        if (!(lane.battery_capacity_mwh.value() >= 0.0))
            failLane("battery_capacity_mwh must be >= 0");
        if (!(chem.charge_efficiency > 0.0 &&
              chem.charge_efficiency <= 1.0))
            failLane("charge_efficiency must be in (0, 1]");
        if (!(chem.discharge_efficiency > 0.0 &&
              chem.discharge_efficiency <= 1.0))
            failLane("discharge_efficiency must be in (0, 1]");
        if (!(chem.max_charge_c_rate > 0.0 &&
              chem.max_discharge_c_rate > 0.0))
            failLane("max_charge_c_rate and max_discharge_c_rate must "
                     "be positive");
        if (!(chem.depth_of_discharge > 0.0 &&
              chem.depth_of_discharge <= 1.0))
            failLane("depth_of_discharge must be in (0, 1]");

        const double capacity = lane.battery_capacity_mwh.value();
        const double min_soc = 1.0 - chem.depth_of_discharge;
        double soc = lane.initial_soc;
        if (soc < 0.0)
            soc = min_soc;
        if (!(soc >= min_soc - kUnitIntervalSlack &&
              soc <= 1.0 + kUnitIntervalSlack))
            failLane("initial_soc outside the DoD window");

        rec.has_battery = true;
        rec.bat_capacity = capacity;
        rec.bat_initial = capacity * std::clamp(soc, min_soc, 1.0);
        rec.bat_rate_charge = chem.max_charge_c_rate * capacity;
        rec.bat_rate_discharge = chem.max_discharge_c_rate * capacity;
        rec.bat_eff_charge = chem.charge_efficiency;
        rec.bat_eff_discharge = chem.discharge_efficiency;
        rec.bat_min_content = capacity * min_soc;
        rec.bat_usable = capacity * chem.depth_of_discharge;
    } else if (lane.battery_capacity_mwh.value() != 0.0) {
        // Without a battery the record keeps its zero parameters; the
        // capacity <= 0 early-outs of the battery steps fire first.
        failLane("battery_capacity_mwh requires a chemistry");
    }

    lanes_.push_back(rec);
    solar_.push_back(lane.solar_mw.value());
    wind_.push_back(lane.wind_mw.value());
    fwr_.push_back(rec.fwr);
    ++size_;
}

} // namespace carbonx

#include "simulation_batch.h"

#include <algorithm>

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
    reserve(solar_);
    reserve(wind_);
    reserve(cap_);
    reserve(fwr_);
    reserve(window_);
    reserve(grid_charging_);
    reserve(grid_threshold_);
    reserve(has_battery_);
    reserve(bat_capacity_);
    reserve(bat_initial_);
    reserve(bat_rate_charge_);
    reserve(bat_rate_discharge_);
    reserve(bat_eff_charge_);
    reserve(bat_eff_discharge_);
    reserve(bat_min_content_);
    reserve(bat_usable_);
    reserve(bat_content_);
    reserve(bat_charged_);
    reserve(bat_discharged_);
    reserve(backlog_total_);
    reserve(ren_);
    reserve(fixed_);
    reserve(flex_);
    reserve(acc_load_);
    reserve(acc_served_);
    reserve(acc_grid_);
    reserve(acc_ren_used_);
    reserve(acc_ren_excess_);
    reserve(acc_deferred_);
    reserve(acc_max_backlog_);
    reserve(acc_violation_);
    reserve(acc_grid_charge_);
    reserve(acc_peak_);
    reserve(acc_carbon_);
    reserve(results_);
    // Backlog queues live at full capacity permanently: clear() must
    // not destroy them, or the entry storage they grew during earlier
    // runs would be re-allocated on every wave.
    backlog_.resize(capacity);
}

void
SimulationBatch::clear()
{
    size_ = 0;
    solar_.clear();
    wind_.clear();
    cap_.clear();
    fwr_.clear();
    window_.clear();
    grid_charging_.clear();
    grid_threshold_.clear();
    has_battery_.clear();
    bat_capacity_.clear();
    bat_initial_.clear();
    bat_rate_charge_.clear();
    bat_rate_discharge_.clear();
    bat_eff_charge_.clear();
    bat_eff_discharge_.clear();
    bat_min_content_.clear();
    bat_usable_.clear();
}

void
SimulationBatch::addLane(const BatchLaneConfig &lane)
{
    if (size_ >= capacity_)
        failLane("simulation batch is full");
    if (lane.solar_mw.value() < 0.0 || lane.wind_mw.value() < 0.0)
        failLane("investments must be >= 0");
    if (lane.flexible_ratio.value() < 0.0 ||
        lane.flexible_ratio.value() > 1.0)
        failLane("flexible ratio must be in [0, 1]");
    if (lane.slo_window_hours.value() < 1.0)
        failLane("SLO window must be at least one hour");

    const bool grid_charging = lane.grid_charge_policy ==
        GridChargePolicy::BelowIntensityThreshold;
    if (grid_charging && lane.grid_charge_threshold_gkwh.value() < 0.0)
        failLane("grid-charge threshold must be >= 0");

    if (lane.chemistry != nullptr) {
        // Validate the chemistry, then pre-derive the C/L/C
        // quantities the kernel reads every hour: rate caps (C-rate x
        // capacity), DoD floor ((1 - DoD) x capacity), usable
        // capacity (DoD x capacity) and initial content.
        const BatteryChemistry &chem = *lane.chemistry;
        if (lane.battery_capacity_mwh.value() < 0.0)
            failLane("battery capacity must be >= 0");
        if (chem.charge_efficiency <= 0.0 ||
            chem.charge_efficiency > 1.0)
            failLane("charge efficiency must be in (0, 1]");
        if (chem.discharge_efficiency <= 0.0 ||
            chem.discharge_efficiency > 1.0)
            failLane("discharge efficiency must be in (0, 1]");
        if (chem.max_charge_c_rate <= 0.0 ||
            chem.max_discharge_c_rate <= 0.0)
            failLane("C-rates must be positive");
        if (chem.depth_of_discharge <= 0.0 ||
            chem.depth_of_discharge > 1.0)
            failLane("depth of discharge must be in (0, 1]");

        const double capacity = lane.battery_capacity_mwh.value();
        const double min_soc = 1.0 - chem.depth_of_discharge;
        double soc = lane.initial_soc;
        if (soc < 0.0)
            soc = min_soc;
        if (soc < min_soc - kUnitIntervalSlack ||
            soc > 1.0 + kUnitIntervalSlack)
            failLane("initial SoC outside the DoD window");

        has_battery_.push_back(1);
        bat_capacity_.push_back(capacity);
        bat_initial_.push_back(capacity *
                               std::clamp(soc, min_soc, 1.0));
        bat_rate_charge_.push_back(chem.max_charge_c_rate * capacity);
        bat_rate_discharge_.push_back(chem.max_discharge_c_rate *
                                      capacity);
        bat_eff_charge_.push_back(chem.charge_efficiency);
        bat_eff_discharge_.push_back(chem.discharge_efficiency);
        bat_min_content_.push_back(capacity * min_soc);
        bat_usable_.push_back(capacity * chem.depth_of_discharge);
    } else {
        if (lane.battery_capacity_mwh.value() != 0.0)
            failLane("battery capacity requires a chemistry");
        has_battery_.push_back(0);
        bat_capacity_.push_back(0.0);
        bat_initial_.push_back(0.0);
        bat_rate_charge_.push_back(0.0);
        bat_rate_discharge_.push_back(0.0);
        // Never read (the capacity<=0 early-outs fire first); 1.0
        // keeps the arrays free of accidental divide-by-zero bait.
        bat_eff_charge_.push_back(1.0);
        bat_eff_discharge_.push_back(1.0);
        bat_min_content_.push_back(0.0);
        bat_usable_.push_back(0.0);
    }

    solar_.push_back(lane.solar_mw.value());
    wind_.push_back(lane.wind_mw.value());
    cap_.push_back(lane.capacity_cap_mw.value());
    fwr_.push_back(lane.flexible_ratio.value());
    window_.push_back(
        static_cast<size_t>(lane.slo_window_hours.value()));
    grid_charging_.push_back(grid_charging ? 1 : 0);
    grid_threshold_.push_back(lane.grid_charge_threshold_gkwh.value());
    ++size_;
}

} // namespace carbonx

#include "recorder.h"

#include <cstring>

#include "common/error.h"

namespace carbonx::obs
{

void
FlightRecorder::begin(int year, size_t hours, bool with_carbon)
{
    year_ = year;
    has_carbon_ = with_carbon;
    for (std::vector<double> *col : mutableColumns()) {
        col->clear();
        col->reserve(hours);
    }
}

std::vector<std::vector<double> *>
FlightRecorder::mutableColumns()
{
    return {&load_mw,
            &served_mw,
            &renewable_mw,
            &renewable_used_mw,
            &grid_mw,
            &battery_charge_mw,
            &battery_discharge_mw,
            &battery_energy_mwh,
            &curtailed_mw,
            &shifted_mwh,
            &backlog_mwh,
            &slo_violation_mwh,
            &grid_charge_mwh,
            &carbon_kg};
}

void
FlightRecorder::record(size_t hour, const HourlyRecord &row)
{
    ensure(hour == load_mw.size(),
           "flight-recorder rows must arrive in hour order");
    load_mw.push_back(row.load_mw);
    served_mw.push_back(row.served_mw);
    renewable_mw.push_back(row.renewable_mw);
    renewable_used_mw.push_back(row.renewable_used_mw);
    grid_mw.push_back(row.grid_mw);
    battery_charge_mw.push_back(row.battery_charge_mw);
    battery_discharge_mw.push_back(row.battery_discharge_mw);
    battery_energy_mwh.push_back(row.battery_energy_mwh);
    curtailed_mw.push_back(row.curtailed_mw);
    shifted_mwh.push_back(row.shifted_mwh);
    backlog_mwh.push_back(row.backlog_mwh);
    slo_violation_mwh.push_back(row.slo_violation_mwh);
    grid_charge_mwh.push_back(row.grid_charge_mwh);
    carbon_kg.push_back(row.carbon_kg);
}

HourlyRecord
FlightRecorder::row(size_t hour) const
{
    ensure(hour < hours(), "flight-recorder row out of range");
    HourlyRecord r;
    r.load_mw = load_mw[hour];
    r.served_mw = served_mw[hour];
    r.renewable_mw = renewable_mw[hour];
    r.renewable_used_mw = renewable_used_mw[hour];
    r.grid_mw = grid_mw[hour];
    r.battery_charge_mw = battery_charge_mw[hour];
    r.battery_discharge_mw = battery_discharge_mw[hour];
    r.battery_energy_mwh = battery_energy_mwh[hour];
    r.curtailed_mw = curtailed_mw[hour];
    r.shifted_mwh = shifted_mwh[hour];
    r.backlog_mwh = backlog_mwh[hour];
    r.slo_violation_mwh = slo_violation_mwh[hour];
    r.grid_charge_mwh = grid_charge_mwh[hour];
    r.carbon_kg = carbon_kg[hour];
    return r;
}

double
FlightRecorder::totalCarbonKg() const
{
    // Summed in hour order so the total is bit-identical to the
    // engine's own accumulation and to
    // OperationalCarbonModel::gridEmissions over the grid column.
    double kg = 0.0;
    for (const double v : carbon_kg)
        kg += v;
    return kg;
}

const std::vector<const char *> &
FlightRecorder::columnNames()
{
    static const std::vector<const char *> names = {
        "load_mw",
        "served_mw",
        "renewable_mw",
        "renewable_used_mw",
        "grid_mw",
        "battery_charge_mw",
        "battery_discharge_mw",
        "battery_energy_mwh",
        "curtailed_mw",
        "shifted_mwh",
        "backlog_mwh",
        "slo_violation_mwh",
        "grid_charge_mwh",
        "carbon_kg",
    };
    return names;
}

std::vector<const std::vector<double> *>
FlightRecorder::columns() const
{
    return {&load_mw,
            &served_mw,
            &renewable_mw,
            &renewable_used_mw,
            &grid_mw,
            &battery_charge_mw,
            &battery_discharge_mw,
            &battery_energy_mwh,
            &curtailed_mw,
            &shifted_mwh,
            &backlog_mwh,
            &slo_violation_mwh,
            &grid_charge_mwh,
            &carbon_kg};
}

bool
bitIdentical(const FlightRecorder &a, const FlightRecorder &b)
{
    if (a.year() != b.year() || a.hasCarbon() != b.hasCarbon() ||
        a.hours() != b.hours())
        return false;
    // Bit patterns, not operator==: +0.0 and -0.0 differ, and a NaN
    // cell matches its own copy.
    const auto cols_a = a.columns();
    const auto cols_b = b.columns();
    for (size_t c = 0; c < cols_a.size(); ++c) {
        const std::vector<double> &x = *cols_a[c];
        const std::vector<double> &y = *cols_b[c];
        if (x.size() != y.size() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)
            return false;
    }
    return true;
}

} // namespace carbonx::obs

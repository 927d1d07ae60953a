#include "chemistry.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace carbonx
{

double
BatteryChemistry::cyclesAtDod(double dod) const
{
    require(dod > 0.0 && dod <= 1.0, "DoD must be in (0, 1]");
    require(!cycle_life.empty(), "chemistry has no cycle-life curve");

    if (dod <= cycle_life.front().depth_of_discharge)
        return cycle_life.front().cycles;
    if (dod >= cycle_life.back().depth_of_discharge)
        return cycle_life.back().cycles;

    for (size_t i = 1; i < cycle_life.size(); ++i) {
        const auto &lo = cycle_life[i - 1];
        const auto &hi = cycle_life[i];
        if (dod <= hi.depth_of_discharge) {
            // Log-linear interpolation: cycle life is roughly
            // exponential in DoD.
            const double t = (dod - lo.depth_of_discharge) /
                (hi.depth_of_discharge - lo.depth_of_discharge);
            return std::exp((1.0 - t) * std::log(lo.cycles) +
                            t * std::log(hi.cycles));
        }
    }
    return cycle_life.back().cycles;
}

double
BatteryChemistry::lifetimeYears(double cycles_per_day) const
{
    const double rated = cyclesAtDod(depth_of_discharge);
    if (cycles_per_day <= 0.0)
        return calendar_life_years;
    const double cycle_years = rated / cycles_per_day / 365.0;
    return std::min(cycle_years, calendar_life_years);
}

BatteryChemistry
BatteryChemistry::lithiumIronPhosphate()
{
    BatteryChemistry c;
    c.name = "LFP";
    c.charge_efficiency = 0.95;
    c.discharge_efficiency = 0.95;
    c.max_charge_c_rate = 1.0;
    c.max_discharge_c_rate = 1.0;
    c.depth_of_discharge = 1.0;
    c.embodied_kg_per_kwh = 104.0;
    // Paper section 5.1: 3000 cycles at 100% DoD, 4500 at 80%, and a
    // 60% DoD point implying ~10000 cycles.
    c.cycle_life = {{0.6, 10000.0}, {0.8, 4500.0}, {1.0, 3000.0}};
    c.calendar_life_years = 15.0;
    return c;
}

BatteryChemistry
BatteryChemistry::nickelManganeseCobalt()
{
    BatteryChemistry c;
    c.name = "NMC";
    c.charge_efficiency = 0.96;
    c.discharge_efficiency = 0.96;
    c.max_charge_c_rate = 1.0;
    c.max_discharge_c_rate = 2.0;
    c.depth_of_discharge = 0.9;
    c.embodied_kg_per_kwh = 120.0;
    c.cycle_life = {{0.6, 4000.0}, {0.8, 2500.0}, {1.0, 1500.0}};
    c.calendar_life_years = 12.0;
    return c;
}

BatteryChemistry
BatteryChemistry::sodiumIon()
{
    BatteryChemistry c;
    c.name = "Na-ion";
    c.charge_efficiency = 0.92;
    c.discharge_efficiency = 0.92;
    c.max_charge_c_rate = 1.0;
    c.max_discharge_c_rate = 1.0;
    c.depth_of_discharge = 1.0;
    // Easier-to-obtain materials with lower environmental impact
    // (section 4.2).
    c.embodied_kg_per_kwh = 70.0;
    c.cycle_life = {{0.6, 6000.0}, {0.8, 3500.0}, {1.0, 2000.0}};
    c.calendar_life_years = 12.0;
    return c;
}

BatteryChemistry
BatteryChemistry::ideal()
{
    BatteryChemistry c = lithiumIronPhosphate();
    c.name = "ideal";
    c.charge_efficiency = 1.0;
    c.discharge_efficiency = 1.0;
    c.max_charge_c_rate = std::numeric_limits<double>::infinity();
    c.max_discharge_c_rate = std::numeric_limits<double>::infinity();
    c.depth_of_discharge = 1.0;
    return c;
}

} // namespace carbonx

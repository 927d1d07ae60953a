/**
 * @file
 * Battery chemistry parameter sets (paper sections 4.2 and 5.1).
 *
 * The paper models Lithium Iron Phosphate (LFP) cells: high cycle
 * life, 1C charge/discharge, manufacturing footprint of 74-134 kg
 * CO2eq per kWh of capacity. NMC, sodium-ion and an ideal (lossless,
 * rate-unlimited) preset sit beside it.
 *
 * A chemistry is the whole battery model. Stage 2 of the simulation
 * kernel (scheduler/batched_engine.cc) applies the C/L/C rules
 * (Kazhamiaka, Rosenberg & Keshav, Energy Informatics 2019) to these
 * parameters every hour:
 *   - charging accepts min(offer, C-rate x capacity,
 *     headroom / eta_c) and stores eta_c of it;
 *   - discharging delivers min(request, C-rate x capacity,
 *     (content - floor) x eta_d) and draws 1 / eta_d of it;
 *   - content stays in [floor, capacity], floor = (1 - DoD) x
 *     capacity, and a battery starts at the floor unless its lane
 *     sets an initial SoC.
 *
 * A new storage technology is a new preset here: efficiencies,
 * C-rates, DoD, embodied footprint and cycle-life curve. Add its name
 * to chemistryByName (scenario/scenario.h) for scenarios to select
 * it. SimulationBatch::addLane validates the ranges.
 */

#ifndef CARBONX_BATTERY_CHEMISTRY_H
#define CARBONX_BATTERY_CHEMISTRY_H

#include <string>
#include <vector>

#include "common/units.h"

namespace carbonx
{

/** One point of the DoD -> cycle-life curve. */
struct CycleLifePoint
{
    double depth_of_discharge; ///< Fraction in (0, 1].
    double cycles;             ///< Rated full cycles at that DoD.
};

/** Physical and life-cycle parameters of a storage chemistry. */
struct BatteryChemistry
{
    std::string name = "LFP";

    /** One-way charging efficiency (AC -> cell). */
    double charge_efficiency = 0.95;

    /** One-way discharging efficiency (cell -> AC). */
    double discharge_efficiency = 0.95;

    /**
     * Maximum charging rate as a fraction of capacity per hour (1.0 =
     * 1C: a full charge takes one hour). The paper assumes 1C because
     * its grid data is hourly.
     */
    double max_charge_c_rate = 1.0;

    /** Maximum discharging C-rate. */
    double max_discharge_c_rate = 1.0;

    /**
     * Depth of discharge: usable fraction of capacity. 1.0 uses the
     * full window; 0.8 keeps a 20% floor to extend cycle life.
     */
    double depth_of_discharge = 1.0;

    /**
     * Manufacturing footprint per kWh of nameplate capacity, kg
     * CO2eq. The paper cites 74-134; we default to the midpoint.
     */
    double embodied_kg_per_kwh = 104.0;

    /** DoD -> cycles curve; must be sorted by DoD ascending. */
    std::vector<CycleLifePoint> cycle_life;

    /** Calendar life cap in years regardless of cycling. */
    double calendar_life_years = 15.0;

    /**
     * The manufacturing footprint as a strongly typed per-MWh
     * intensity, ready for the units.h algebra (intensity * capacity
     * = mass).
     */
    KgCo2PerMwh embodiedIntensity() const
    {
        return KgCo2PerMwh::fromPerKwh(embodied_kg_per_kwh);
    }

    /**
     * Rated cycles at a DoD, log-linearly interpolated between curve
     * points and clamped at the ends.
     */
    double cyclesAtDod(double dod) const;

    /**
     * Battery lifetime in years when cycled @p cycles_per_day at the
     * chemistry's configured DoD, capped by calendar life.
     */
    double lifetimeYears(double cycles_per_day) const;

    /** Paper's LFP preset: 3000 cycles @ 100% DoD, 4500 @ 80%,
     * 10000 @ 60%. */
    static BatteryChemistry lithiumIronPhosphate();

    /** Nickel-manganese-cobalt preset: denser, fewer cycles. */
    static BatteryChemistry nickelManganeseCobalt();

    /** Sodium-ion preset: lower embodied footprint, fewer cycles. */
    static BatteryChemistry sodiumIon();

    /**
     * Ideal storage: lossless, unbounded C-rates, full DoD — the
     * upper-bound baseline for ablations against the physical
     * presets. Life-cycle figures are LFP's.
     */
    static BatteryChemistry ideal();
};

} // namespace carbonx

#endif // CARBONX_BATTERY_CHEMISTRY_H

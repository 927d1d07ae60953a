#include "grid_synthesizer.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "common/error.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace carbonx
{

GridSynthesizer::GridSynthesizer(const BalancingAuthorityProfile &profile,
                                 uint64_t base_seed)
    : profile_(profile),
      seed_(base_seed ^ SplitMix64::hashString(profile.code))
{
}

TimeSeries
GridSynthesizer::synthesizeDemand(int year) const
{
    CARBONX_PROFILE("grid/synthesize_demand");
    TimeSeries out(year);
    const HourlyCalendar &cal = out.calendar();
    Rng noise(seed_, "grid-demand");

    const GridDemandParams &d = profile_.demand;
    require(d.peak_mw > d.min_mw && d.min_mw > 0.0,
            "grid demand bounds must satisfy 0 < min < peak");

    const double mid = 0.5 * (d.peak_mw + d.min_mw);
    const double rel_amp = (d.peak_mw - d.min_mw) / (d.peak_mw + d.min_mw);
    // Allocate the swing between seasonal and diurnal components and
    // leave margin for the noise term so extremes stay near the bounds.
    const double seasonal_amp = 0.45 * rel_amp;
    const double diurnal_amp = 0.45 * rel_amp;
    const double noise_sd = 0.04 * rel_amp + 0.005;

    const double days = static_cast<double>(cal.daysInYear());
    const double peak_day = d.summer_peaking ? 200.0 : 20.0;

    // Slow weather-driven demand deviation (heat waves, cold snaps).
    double dev = 0.0;
    const double rho = std::exp(-1.0 / 36.0);
    const double innovation = noise_sd * std::sqrt(1.0 - rho * rho);

    size_t floored_hours = 0;
    for (size_t h = 0; h < out.size(); ++h) {
        const double day = static_cast<double>(h) / kHoursPerDayF;
        const double hour = static_cast<double>(h % kHoursPerDay);
        const double seasonal = seasonal_amp *
            std::cos(2.0 * std::numbers::pi * (day - peak_day) / days);
        // Demand troughs near 4am and peaks in the early evening.
        const double diurnal = diurnal_amp *
            std::cos(2.0 * std::numbers::pi * (hour - 18.0) / kHoursPerDayF);
        dev = rho * dev + noise.normal(0.0, innovation);
        const double value = mid * (1.0 + seasonal + diurnal + dev);
        if (value < 0.25 * d.min_mw)
            ++floored_hours;
        out[h] = std::max(value, 0.25 * d.min_mw);
    }
    if (floored_hours > 0) {
        warn("grid demand for " + profile_.code + " floored at 25% of "
             "minimum in " + std::to_string(floored_hours) +
             " hours; the noise process drifted unusually low");
    }
    return out;
}

GridTrace
GridSynthesizer::synthesize(int year, double renewable_scale) const
{
    require(renewable_scale >= 0.0,
            "renewable scale must be non-negative");

    static auto &c_calls = obs::counter("grid.synthesize_calls");
    CARBONX_PROFILE("grid/synthesize");
    c_calls.increment();

    GridTrace trace(year);
    trace.demand = synthesizeDemand(year);

    const WindResourceModel wind_model(profile_.wind);
    const SolarResourceModel solar_model(profile_.solar);
    const TimeSeries wind_pu = wind_model.generate(year, seed_);
    const TimeSeries solar_pu = solar_model.generate(year, seed_);

    const auto cap = [&](Fuel f) {
        return profile_.capacity_mw[static_cast<size_t>(f)];
    };
    const double wind_cap = cap(Fuel::Wind) * renewable_scale;
    const double solar_cap = cap(Fuel::Solar) * renewable_scale;

    size_t peaker_hours = 0;
    for (size_t h = 0; h < trace.demand.size(); ++h) {
        const double demand = trace.demand[h];
        double remaining = demand;

        // Nuclear runs as inflexible baseload.
        const double nuclear =
            std::min(remaining, cap(Fuel::Nuclear) * 0.92);
        trace.mix.of(Fuel::Nuclear)[h] = nuclear;
        remaining -= nuclear;

        // Wind and solar are must-run: the grid absorbs them up to the
        // remaining demand minus the must-run thermal floor and
        // curtails the excess (section 3.2 / Fig. 4).
        const double wind_pot = wind_pu[h] * wind_cap;
        const double solar_pot = solar_pu[h] * solar_cap;
        trace.wind_potential[h] = wind_pot;
        trace.solar_potential[h] = solar_pot;
        const double ren_pot = wind_pot + solar_pot;
        const double headroom =
            std::max(remaining - profile_.min_thermal_mw, 0.0);
        const double absorbed = std::min(ren_pot, headroom);
        const double share = ren_pot > 0.0 ? absorbed / ren_pot : 0.0;
        trace.wind[h] = wind_pot * share;
        trace.solar[h] = solar_pot * share;
        trace.curtailed[h] = ren_pot - absorbed;
        trace.mix.of(Fuel::Wind)[h] = trace.wind[h];
        trace.mix.of(Fuel::Solar)[h] = trace.solar[h];
        remaining -= absorbed;

        // Dispatchable fleet in merit order.
        const double hydro = std::min(remaining, cap(Fuel::Hydro) * 0.8);
        trace.mix.of(Fuel::Hydro)[h] = hydro;
        remaining -= hydro;

        const double gas = std::min(remaining, cap(Fuel::NaturalGas));
        trace.mix.of(Fuel::NaturalGas)[h] = gas;
        remaining -= gas;

        const double coal = std::min(remaining, cap(Fuel::Coal));
        trace.mix.of(Fuel::Coal)[h] = coal;
        remaining -= coal;

        const double other = std::min(remaining, cap(Fuel::Other));
        trace.mix.of(Fuel::Other)[h] = other;
        remaining -= other;

        // Oil peakers balance whatever is left so load is always met.
        if (remaining > 0.0)
            ++peaker_hours;
        trace.mix.of(Fuel::Oil)[h] = std::max(remaining, 0.0);
    }

    if (peaker_hours > 0) {
        inform("dispatch stack for " + profile_.code +
               " exhausted in " + std::to_string(peaker_hours) +
               " hours; oil peakers balanced the residual demand");
    }

    trace.intensity = trace.mix.carbonIntensity();
    return trace;
}

} // namespace carbonx

#include "solar_model.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.h"

namespace carbonx
{

namespace
{

constexpr double kDegToRad = std::numbers::pi / 180.0;

} // namespace

SolarResourceModel::SolarResourceModel(const SolarModelParams &params)
    : params_(params),
      sin_lat_(std::sin(params.latitude_deg * kDegToRad)),
      cos_lat_(std::cos(params.latitude_deg * kDegToRad))
{
    require(params.latitude_deg > -66.0 && params.latitude_deg < 66.0,
            "solar model latitude must be between polar circles");
    require(params.mean_clearness > 0.0 && params.mean_clearness <= 1.0,
            "mean clearness must be in (0, 1]");
    require(params.clearness_autocorr >= 0.0 &&
                params.clearness_autocorr < 1.0,
            "clearness autocorrelation must be in [0, 1)");
}

SolarResourceModel::SunDay
SolarResourceModel::sunDay(size_t day_of_year, size_t days_in_year) const
{
    // Solar declination (Cooper's equation).
    const double n = static_cast<double>(day_of_year) + 1.0;
    const double decl = 23.45 * kDegToRad *
        std::sin(2.0 * std::numbers::pi * (284.0 + n) /
                 static_cast<double>(days_in_year));
    return SunDay{sin_lat_ * std::sin(decl), cos_lat_ * std::cos(decl)};
}

double
SolarResourceModel::clearSkyOutput(const SunDay &day, int hour_of_day)
{
    // Hour angle: 0 at solar noon, 15 degrees per hour. Sample the
    // middle of the hour so hour 12 straddles noon.
    const double solar_hour = static_cast<double>(hour_of_day) + 0.5;
    const double hour_angle = (solar_hour - 12.0) * 15.0 * kDegToRad;

    const double sin_elev =
        day.sin_term + day.cos_term * std::cos(hour_angle);
    if (sin_elev <= 0.0)
        return 0.0;

    // Simple air-mass attenuation so output rolls off near the horizon
    // rather than following the pure sine.
    const double air_mass = 1.0 / std::max(sin_elev, 0.05);
    const double transmitted = std::pow(0.75, std::pow(air_mass, 0.678));
    // Normalize so overhead sun at air mass 1 maps to 1.0 per-unit.
    return std::min(1.0, sin_elev * transmitted / 0.75);
}

double
SolarResourceModel::clearSkyOutput(size_t day_of_year, int hour_of_day,
                                   size_t days_in_year) const
{
    return clearSkyOutput(sunDay(day_of_year, days_in_year), hour_of_day);
}

TimeSeries
SolarResourceModel::generate(int year, uint64_t seed) const
{
    TimeSeries out(year);
    const HourlyCalendar &cal = out.calendar();
    Rng weather(seed, "solar-weather");
    Rng noise(seed, "solar-noise");

    const size_t days = cal.daysInYear();

    // AR(1) daily clearness deviation around the seasonal mean.
    double dev = 0.0;
    const double rho = params_.clearness_autocorr;
    const double innovation_sd =
        params_.clearness_stddev * std::sqrt(1.0 - rho * rho);

    for (size_t day = 0; day < days; ++day) {
        dev = rho * dev + weather.normal(0.0, innovation_sd);
        // Seasonal clearness peaks mid-summer (day ~172).
        const double seasonal = params_.seasonal_clearness_amp *
            std::cos(2.0 * std::numbers::pi *
                     (static_cast<double>(day) - 172.0) /
                     static_cast<double>(days));
        const double clearness = std::clamp(
            params_.mean_clearness + seasonal + dev,
            params_.min_clearness, 1.0);

        const SunDay sun = sunDay(day, days);
        for (int hour = 0; hour < 24; ++hour) {
            const double clear_sky = clearSkyOutput(sun, hour);
            if (clear_sky <= 0.0)
                continue;
            const double jitter =
                1.0 + noise.normal(0.0, params_.intra_hour_noise);
            const double value =
                std::clamp(clear_sky * clearness * jitter, 0.0, 1.0);
            out[day * kHoursPerDay + static_cast<size_t>(hour)] = value;
        }
    }
    return out;
}

} // namespace carbonx

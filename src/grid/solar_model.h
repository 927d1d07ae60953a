/**
 * @file
 * Synthetic solar generation model.
 *
 * Substitutes for the EIA Hourly Grid Monitor's solar traces. The model
 * is physically grounded: clear-sky output follows solar geometry
 * (declination, hour angle, solar elevation) for the balancing
 * authority's latitude, and is attenuated by an autocorrelated daily
 * cloud process plus small intra-hour noise. The result reproduces the
 * statistics Carbon Explorer depends on: zero output at night (which
 * caps solar-only 24/7 coverage near 50%), longer days in summer,
 * day-to-day weather persistence, and a realistic daily-sum histogram.
 */

#ifndef CARBONX_GRID_SOLAR_MODEL_H
#define CARBONX_GRID_SOLAR_MODEL_H

#include <cstdint>

#include "common/rng.h"
#include "timeseries/timeseries.h"

namespace carbonx
{

/** Tunable parameters of the synthetic solar resource. */
struct SolarModelParams
{
    /** Site latitude in degrees north; drives day length & seasonality. */
    double latitude_deg = 38.0;

    /**
     * Mean clear-sky fraction: 1 - average cloud attenuation. Sunnier
     * regions (NM, UT) sit near 0.8; cloudier ones (OR) near 0.55.
     */
    double mean_clearness = 0.7;

    /** Std-dev of the daily clearness process (weather variability). */
    double clearness_stddev = 0.18;

    /**
     * Day-to-day autocorrelation of the clearness process in [0, 1);
     * cloudy spells persist for ~1/(1-rho) days.
     */
    double clearness_autocorr = 0.6;

    /** Std-dev of multiplicative intra-hour noise (passing clouds). */
    double intra_hour_noise = 0.05;

    /**
     * Floor on the daily clearness: even heavily overcast panels
     * produce diffuse-light output. Keeps worst-case cloudy spells
     * physical instead of total blackouts.
     */
    double min_clearness = 0.12;

    /**
     * Amplitude of the seasonal clearness swing (winter is cloudier);
     * applied as a cosine peaking mid-summer.
     */
    double seasonal_clearness_amp = 0.1;
};

/**
 * Generates one year of per-unit solar output (fraction of nameplate
 * capacity, in [0, 1]) at hourly resolution.
 */
class SolarResourceModel
{
  public:
    explicit SolarResourceModel(const SolarModelParams &params);

    /**
     * Deterministic clear-sky per-unit output for a given instant.
     *
     * @param day_of_year 0-based day.
     * @param hour_of_day Hour 0..23 (solar time).
     * @param days_in_year 365 or 366.
     * @return Per-unit output in [0, 1]; 0 when the sun is down.
     */
    double clearSkyOutput(size_t day_of_year, int hour_of_day,
                          size_t days_in_year) const;

    /**
     * Generate a stochastic hourly trace for @p year.
     *
     * @param year Calendar year.
     * @param seed Seed for the weather process; equal seeds reproduce
     *             identical traces.
     * @return Per-unit series (multiply by nameplate MW for power).
     */
    TimeSeries generate(int year, uint64_t seed) const;

    const SolarModelParams &params() const { return params_; }

  private:
    /**
     * Day-level factors of the solar elevation, sin(elev) =
     * sin_term + cos_term * cos(hour angle): sin(lat) sin(decl) and
     * cos(lat) cos(decl) for one day's declination.
     */
    struct SunDay
    {
        double sin_term;
        double cos_term;
    };

    SunDay sunDay(size_t day_of_year, size_t days_in_year) const;

    static double clearSkyOutput(const SunDay &day, int hour_of_day);

    SolarModelParams params_;
    double sin_lat_;
    double cos_lat_;
};

} // namespace carbonx

#endif // CARBONX_GRID_SOLAR_MODEL_H

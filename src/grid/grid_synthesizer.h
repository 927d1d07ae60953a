/**
 * @file
 * End-to-end synthetic grid: demand, per-fuel dispatch, and the hourly
 * traces Carbon Explorer consumes for one balancing authority.
 *
 * This is the stand-in for the EIA Hourly Grid Monitor (section 3 of
 * the paper). Given a BalancingAuthorityProfile, it produces:
 *   - hourly grid demand (diurnal + seasonal + weather noise),
 *   - must-run wind and solar generation from the resource models,
 *   - thermal/hydro/nuclear dispatch in merit order to balance demand,
 *   - the grid's hourly average carbon intensity, and
 *   - curtailed renewable energy (supply beyond what the grid absorbs).
 */

#ifndef CARBONX_GRID_GRID_SYNTHESIZER_H
#define CARBONX_GRID_GRID_SYNTHESIZER_H

#include <cstdint>

#include "grid/balancing_authority.h"
#include "grid/generation_mix.h"
#include "timeseries/timeseries.h"

namespace carbonx
{

/** One year of synthesized operating data for a balancing authority. */
struct GridTrace
{
    /** Year-long hourly series; all power values in MW. */
    TimeSeries demand;
    /** Wind generation actually absorbed by the grid. */
    TimeSeries wind;
    /** Solar generation actually absorbed by the grid. */
    TimeSeries solar;
    /**
     * Wind potential before curtailment: what the installed farms
     * could produce. This is the shape a datacenter's own PPA farms
     * follow (their output does not depend on grid absorption).
     */
    TimeSeries wind_potential;
    /** Solar potential before curtailment. */
    TimeSeries solar_potential;
    /** Renewable potential that had to be curtailed. */
    TimeSeries curtailed;
    /** Grid-average carbon intensity (g/kWh). */
    TimeSeries intensity;
    /** Full per-fuel dispatch. */
    GenerationMix mix;

    explicit GridTrace(int year)
        : demand(year), wind(year), solar(year), wind_potential(year),
          solar_potential(year), curtailed(year), intensity(year),
          mix(year)
    {
    }

    /** Wind + solar absorbed by the grid. */
    TimeSeries renewable() const { return wind + solar; }
};

/** Synthesizes GridTraces for balancing-authority profiles. */
class GridSynthesizer
{
  public:
    /**
     * @param profile The balancing authority to synthesize.
     * @param base_seed Global experiment seed; combined with the BA
     *        code so every region gets an independent substream.
     */
    GridSynthesizer(const BalancingAuthorityProfile &profile,
                    uint64_t base_seed = 2020);

    /**
     * Synthesize one year of grid operation.
     *
     * @param year Calendar year (the paper evaluates 2020).
     * @param renewable_scale Multiplier on the profile's installed
     *        wind+solar capacity; used by the curtailment study to
     *        model year-over-year renewable build-out.
     */
    GridTrace synthesize(int year, double renewable_scale = 1.0) const;

    /**
     * Hourly grid demand only (MW); exposed for tests and for the
     * curtailment model.
     */
    TimeSeries synthesizeDemand(int year) const;

    const BalancingAuthorityProfile &profile() const { return profile_; }

  private:
    BalancingAuthorityProfile profile_;
    uint64_t seed_;
};

} // namespace carbonx

#endif // CARBONX_GRID_GRID_SYNTHESIZER_H

/**
 * @file
 * Renewable coverage analysis (paper section 4.1).
 *
 * Coverage is the share of annual datacenter energy met by renewable
 * supply in the hour it is consumed:
 *
 *   coverage = (1 - sum_h max(P_DC(h) - P_Ren(h), 0) / sum_h P_DC(h))
 *              x 100
 *
 * Renewable supply for an investment level is the grid's hourly
 * generation shape linearly rescaled so its annual maximum equals the
 * invested nameplate capacity, exactly as the paper projects supply
 * from EIA data.
 */

#ifndef CARBONX_CORE_COVERAGE_H
#define CARBONX_CORE_COVERAGE_H

#include <array>

#include "common/units.h"
#include "core/design_point.h"
#include "timeseries/timeseries.h"

namespace carbonx
{

/** Coverage calculator for one (load, region shapes) pairing. */
class CoverageAnalyzer
{
  public:
    /**
     * @param dc_power Hourly datacenter demand (MW).
     * @param solar_shape Per-unit solar shape: the region's hourly
     *        solar generation rescaled to annual max 1.0. All-zero if
     *        the grid has no solar.
     * @param wind_shape Per-unit wind shape, likewise.
     *
     * All three series are taken by value; pass rvalues to hand them
     * over without a copy.
     */
    CoverageAnalyzer(TimeSeries dc_power, TimeSeries solar_shape,
                     TimeSeries wind_shape);

    /** Hourly renewable supply for an investment pair (MW). */
    TimeSeries supplyFor(MegaWatts solar_mw, MegaWatts wind_mw) const;

    /**
     * Allocation-free variant: writes the supply into @p out, which
     * must already cover the analyzer's year. Produces bit-identical
     * values to the allocating overload, so the parallel sweep can
     * reuse one buffer per worker.
     */
    void supplyFor(MegaWatts solar_mw, MegaWatts wind_mw,
                   TimeSeries &out) const;

    /** Coverage percentage for an investment pair. */
    double coverage(MegaWatts solar_mw, MegaWatts wind_mw) const;

    /**
     * Coverage under the naive "every day is the average day"
     * assumption that Fig. 8 debunks.
     */
    double coverageAssumingAverageDay(MegaWatts solar_mw,
                                      MegaWatts wind_mw) const;

    /**
     * Smallest uniform scale k such that coverage(k*s, k*w) reaches
     * @p target_pct, found by bisection along the (s, w) ray.
     *
     * @param solar_unit_mw Solar investment at scale 1.
     * @param wind_unit_mw Wind investment at scale 1.
     * @param target_pct Coverage target, e.g. 95.0.
     * @param max_scale Search upper bound.
     * @return The scale, or a negative value when the target is
     *         unreachable even at max_scale (e.g. >50% with solar
     *         only).
     */
    double investmentScaleForCoverage(MegaWatts solar_unit_mw,
                                      MegaWatts wind_unit_mw,
                                      double target_pct,
                                      double max_scale = 1e4) const;

    const TimeSeries &dcPower() const { return dc_power_; }
    const TimeSeries &solarShape() const { return solar_shape_; }
    const TimeSeries &windShape() const { return wind_shape_; }

  private:
    TimeSeries dc_power_;
    TimeSeries solar_shape_;
    TimeSeries wind_shape_;
    /** Average days (24 hours each) for coverageAssumingAverageDay. */
    std::array<double, 24> dc_avg_day_;
    std::array<double, 24> solar_avg_day_;
    std::array<double, 24> wind_avg_day_;
    double dc_total_;
};

} // namespace carbonx

#endif // CARBONX_CORE_COVERAGE_H

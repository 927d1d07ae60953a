#include "coverage.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/tolerances.h"
#include "timeseries/calendar.h"

namespace carbonx
{

CoverageAnalyzer::CoverageAnalyzer(TimeSeries dc_power,
                                   TimeSeries solar_shape,
                                   TimeSeries wind_shape)
    : dc_power_(std::move(dc_power)), solar_shape_(std::move(solar_shape)),
      wind_shape_(std::move(wind_shape)),
      dc_avg_day_(dc_power_.averageDayProfile()),
      solar_avg_day_(solar_shape_.averageDayProfile()),
      wind_avg_day_(wind_shape_.averageDayProfile()),
      dc_total_(dc_power_.total())
{
    require(dc_power_.year() == solar_shape_.year() &&
                dc_power_.year() == wind_shape_.year(),
            "coverage series must cover the same year");
    require(solar_shape_.max() <= 1.0 + kUnitIntervalSlack &&
                solar_shape_.min() >= 0.0,
            "solar shape must be per-unit in [0, 1]");
    require(wind_shape_.max() <= 1.0 + kUnitIntervalSlack &&
                wind_shape_.min() >= 0.0,
            "wind shape must be per-unit in [0, 1]");
    require(dc_total_ > 0.0, "datacenter load must be non-zero");
}

TimeSeries
CoverageAnalyzer::supplyFor(MegaWatts solar_mw, MegaWatts wind_mw) const
{
    require(solar_mw.value() >= 0.0 && wind_mw.value() >= 0.0,
            "investments must be >= 0");
    return solar_shape_ * solar_mw.value() +
           wind_shape_ * wind_mw.value();
}

void
CoverageAnalyzer::supplyFor(MegaWatts solar_mw, MegaWatts wind_mw,
                            TimeSeries &out) const
{
    const double solar = solar_mw.value();
    const double wind = wind_mw.value();
    require(solar >= 0.0 && wind >= 0.0, "investments must be >= 0");
    require(out.year() == dc_power_.year() &&
                out.size() == dc_power_.size(),
            "supply buffer must cover the analyzer's year");
    // Same evaluation order as shape * s + shape * w above, so both
    // overloads round identically.
    for (size_t h = 0; h < out.size(); ++h)
        out[h] = solar_shape_[h] * solar + wind_shape_[h] * wind;
}

double
CoverageAnalyzer::coverage(MegaWatts solar_mw, MegaWatts wind_mw) const
{
    const double solar = solar_mw.value();
    const double wind = wind_mw.value();
    require(solar >= 0.0 && wind >= 0.0, "investments must be >= 0");
    double unmet = 0.0;
    for (size_t h = 0; h < dc_power_.size(); ++h) {
        const double supply =
            solar_shape_[h] * solar + wind_shape_[h] * wind;
        unmet += std::max(dc_power_[h] - supply, 0.0);
    }
    return (1.0 - unmet / dc_total_) * 100.0;
}

double
CoverageAnalyzer::coverageAssumingAverageDay(MegaWatts solar_mw,
                                             MegaWatts wind_mw) const
{
    // Replace both supply shapes and demand with their average days,
    // repeated every day of the year: this is the optimistic
    // assumption of Fig. 8. The 24-hour profiles only depend on the
    // shapes, so they are computed once at construction.
    const double solar = solar_mw.value();
    const double wind = wind_mw.value();
    double unmet = 0.0;
    for (size_t h = 0; h < dc_power_.size(); ++h) {
        const size_t hod = h % kHoursPerDay;
        const double supply =
            solar_avg_day_[hod] * solar + wind_avg_day_[hod] * wind;
        unmet += std::max(dc_avg_day_[hod] - supply, 0.0);
    }
    return (1.0 - unmet / dc_total_) * 100.0;
}

double
CoverageAnalyzer::investmentScaleForCoverage(MegaWatts solar_unit_mw,
                                             MegaWatts wind_unit_mw,
                                             double target_pct,
                                             double max_scale) const
{
    require(target_pct > 0.0 && target_pct <= 100.0,
            "coverage target must be in (0, 100]");
    require(solar_unit_mw.value() >= 0.0 &&
                wind_unit_mw.value() >= 0.0 &&
                (solar_unit_mw + wind_unit_mw).value() > 0.0,
            "the investment ray must be non-trivial");

    auto covAt = [&](double k) {
        return coverage(k * solar_unit_mw, k * wind_unit_mw);
    };
    if (covAt(max_scale) < target_pct)
        return -1.0;

    double lo = 0.0;
    double hi = max_scale;
    for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (covAt(mid) >= target_pct)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

} // namespace carbonx

/**
 * @file
 * Hourly time series: the central data structure of Carbon Explorer.
 *
 * Both framework inputs — datacenter power demand and renewable grid
 * generation — are hourly series over one calendar year. TimeSeries
 * couples a value vector with an HourlyCalendar and provides the
 * elementwise algebra, daily aggregation, and summary shapes (average
 * day profile, daily sums) used throughout sections 3-5 of the paper.
 *
 * Values are raw doubles; the physical unit (MW for power series,
 * g/kWh for intensity series) is by convention of the producing module
 * and documented at each API.
 */

#ifndef CARBONX_TIMESERIES_TIMESERIES_H
#define CARBONX_TIMESERIES_TIMESERIES_H

#include <array>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/stats.h"
#include "timeseries/calendar.h"

namespace carbonx
{

/** One-year hourly series of doubles tied to a calendar. */
class TimeSeries
{
  public:
    /** Zero-filled series covering @p year. */
    explicit TimeSeries(int year);

    /** Constant-valued series covering @p year. */
    TimeSeries(int year, double fill);

    /**
     * Series from explicit hourly values.
     *
     * @param year Calendar year; values.size() must equal the year's
     *             hour count (8760 or 8784).
     */
    TimeSeries(int year, std::vector<double> values);

    const HourlyCalendar &calendar() const { return calendar_; }
    int year() const { return calendar_.year(); }
    size_t size() const { return values_.size(); }

    double operator[](size_t hour) const { return values_[hour]; }
    double &operator[](size_t hour) { return values_[hour]; }

    /** Bounds-checked element access. */
    double at(size_t hour) const;
    void set(size_t hour, double value);

    std::span<const double> values() const { return values_; }

    /** @name Elementwise algebra (series must share the same year). */
    /// @{
    TimeSeries operator+(const TimeSeries &o) const;
    TimeSeries operator-(const TimeSeries &o) const;
    TimeSeries operator*(double scale) const;
    TimeSeries &operator+=(const TimeSeries &o);
    TimeSeries &operator-=(const TimeSeries &o);
    TimeSeries &operator*=(double scale);
    /// @}

    /** Apply @p fn to every value, returning a new series. */
    TimeSeries map(const std::function<double(double)> &fn) const;

    /** Sum over all hours. */
    double total() const;

    /** Arithmetic mean over all hours. */
    double mean() const;

    double min() const;
    double max() const;

    /** Full summary statistics over all hours. */
    SummaryStats summary() const;

    /**
     * Rescale so the annual maximum equals @p new_max (the paper's
     * renewable-investment scaling: grid shape x desired capacity).
     * Throws UserError when the series has no positive value and
     * @p new_max is positive — there is no scale that gets an all-zero
     * series to a positive maximum, and silently returning zeros hides
     * dead input columns. Use the free perUnitShape() helper for
     * shapes that may legitimately be absent.
     */
    TimeSeries scaledToMax(double new_max) const;

    /** Rescale so the annual mean equals @p new_mean. */
    TimeSeries scaledToMean(double new_mean) const;

    /** Sum of each calendar day's 24 hours (daysInYear entries). */
    std::vector<double> dailySums() const;

    /** Mean of each calendar day's 24 hours. */
    std::vector<double> dailyMeans() const;

    /**
     * The "average day": mean value at each hour-of-day across the
     * year (24 entries). This is the left column of the paper's
     * Fig. 5.
     */
    std::array<double, 24> averageDayProfile() const;

    /**
     * Counterfactual series where every day is the average day
     * (Fig. 8's overly optimistic assumption).
     */
    TimeSeries averageDayExpansion() const;

    /** Copy of hours [first, first+count). */
    std::vector<double> window(size_t first, size_t count) const;

  private:
    void checkSameYear(const TimeSeries &o) const;

    HourlyCalendar calendar_;
    std::vector<double> values_;
};

/**
 * Per-unit shape of a renewable potential series: scaledToMax(1.0)
 * when the series has any generation, an all-zero series when the
 * resource is absent from the grid (e.g. a wind-free region). This is
 * the tolerant counterpart to TimeSeries::scaledToMax, which treats an
 * all-zero input as an error.
 */
TimeSeries perUnitShape(const TimeSeries &series);

} // namespace carbonx

#endif // CARBONX_TIMESERIES_TIMESERIES_H

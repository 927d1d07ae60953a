#include "timeseries.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace carbonx
{

TimeSeries::TimeSeries(int year)
    : calendar_(year), values_(calendar_.hoursInYear(), 0.0)
{
}

TimeSeries::TimeSeries(int year, double fill)
    : calendar_(year), values_(calendar_.hoursInYear(), fill)
{
}

TimeSeries::TimeSeries(int year, std::vector<double> values)
    : calendar_(year), values_(std::move(values))
{
    require(values_.size() == calendar_.hoursInYear(),
            "time series length does not match the year's hour count");
}

double
TimeSeries::at(size_t hour) const
{
    require(hour < values_.size(), "time series index out of range");
    return values_[hour];
}

void
TimeSeries::set(size_t hour, double value)
{
    require(hour < values_.size(), "time series index out of range");
    values_[hour] = value;
}

void
TimeSeries::checkSameYear(const TimeSeries &o) const
{
    require(year() == o.year(),
            "time series arithmetic requires matching years");
}

TimeSeries
TimeSeries::operator+(const TimeSeries &o) const
{
    TimeSeries out(*this);
    out += o;
    return out;
}

TimeSeries
TimeSeries::operator-(const TimeSeries &o) const
{
    TimeSeries out(*this);
    out -= o;
    return out;
}

TimeSeries
TimeSeries::operator*(double scale) const
{
    TimeSeries out(*this);
    out *= scale;
    return out;
}

TimeSeries &
TimeSeries::operator+=(const TimeSeries &o)
{
    checkSameYear(o);
    for (size_t i = 0; i < values_.size(); ++i)
        values_[i] += o.values_[i];
    return *this;
}

TimeSeries &
TimeSeries::operator-=(const TimeSeries &o)
{
    checkSameYear(o);
    for (size_t i = 0; i < values_.size(); ++i)
        values_[i] -= o.values_[i];
    return *this;
}

TimeSeries &
TimeSeries::operator*=(double scale)
{
    for (double &v : values_)
        v *= scale;
    return *this;
}

TimeSeries
TimeSeries::map(const std::function<double(double)> &fn) const
{
    TimeSeries out(*this);
    for (double &v : out.values_)
        v = fn(v);
    return out;
}

double
TimeSeries::total() const
{
    double s = 0.0;
    for (double v : values_)
        s += v;
    return s;
}

double
TimeSeries::mean() const
{
    return total() / static_cast<double>(values_.size());
}

double
TimeSeries::min() const
{
    return *std::min_element(values_.begin(), values_.end());
}

double
TimeSeries::max() const
{
    return *std::max_element(values_.begin(), values_.end());
}

SummaryStats
TimeSeries::summary() const
{
    SummaryStats s;
    for (double v : values_)
        s.add(v);
    return s;
}

TimeSeries
TimeSeries::scaledToMax(double new_max) const
{
    require(new_max >= 0.0, "scaledToMax requires a non-negative target");
    const double cur_max = max();
    if (cur_max <= 0.0) {
        // An all-zero (or non-positive) series cannot be stretched to
        // a positive maximum; silently returning zeros used to mask
        // dead input columns until results looked subtly wrong.
        require(new_max == 0.0,
                "scaledToMax: series has no positive values; cannot "
                "rescale it to a positive maximum (use perUnitShape() "
                "for possibly-absent renewable shapes)");
        return TimeSeries(year(), 0.0);
    }
    return *this * (new_max / cur_max);
}

TimeSeries
perUnitShape(const TimeSeries &series)
{
    if (series.max() <= 0.0)
        return TimeSeries(series.year(), 0.0);
    return series.scaledToMax(1.0);
}

TimeSeries
TimeSeries::scaledToMean(double new_mean) const
{
    require(new_mean >= 0.0, "scaledToMean requires a non-negative target");
    const double cur_mean = mean();
    if (cur_mean <= 0.0)
        return TimeSeries(year(), 0.0);
    return *this * (new_mean / cur_mean);
}

std::vector<double>
TimeSeries::dailySums() const
{
    const size_t days = calendar_.daysInYear();
    std::vector<double> out(days, 0.0);
    for (size_t h = 0; h < values_.size(); ++h)
        out[h / kHoursPerDay] += values_[h];
    return out;
}

std::vector<double>
TimeSeries::dailyMeans() const
{
    std::vector<double> out = dailySums();
    for (double &v : out)
        v /= kHoursPerDayF;
    return out;
}

std::array<double, 24>
TimeSeries::averageDayProfile() const
{
    std::array<double, 24> sums{};
    for (size_t h = 0; h < values_.size(); ++h)
        sums[h % kHoursPerDay] += values_[h];
    const double days = static_cast<double>(calendar_.daysInYear());
    for (double &v : sums)
        v /= days;
    return sums;
}

std::vector<double>
TimeSeries::window(size_t first, size_t count) const
{
    require(first + count <= values_.size(),
            "time series window out of range");
    return {values_.begin() + static_cast<long>(first),
            values_.begin() + static_cast<long>(first + count)};
}

} // namespace carbonx

/**
 * @file
 * Hourly calendar arithmetic for one simulation year.
 *
 * Carbon Explorer consumes EIA-style hourly series covering a calendar
 * year (the paper uses 2020, a leap year with 8784 hours). This class
 * maps a flat hour-of-year index to (month, day-of-year, day-of-month,
 * hour-of-day, weekday) and back, without any timezone or DST
 * complications: all series are in grid-local standard time.
 */

#ifndef CARBONX_TIMESERIES_CALENDAR_H
#define CARBONX_TIMESERIES_CALENDAR_H

#include <array>
#include <cstddef>

namespace carbonx
{

/** Hours per civil day — the day/hour unit conversion factor. */
inline constexpr size_t kHoursPerDay = 24;

/** Floating-point variant for day/hour phase arithmetic. */
inline constexpr double kHoursPerDayF = 24.0;

/** Calendar date resolved from an hour-of-year index. */
struct CalendarInstant
{
    int year;         ///< Calendar year, e.g. 2020.
    int month;        ///< 1..12
    int day_of_month; ///< 1..31
    int day_of_year;  ///< 0-based, 0..364/365
    int hour_of_day;  ///< 0..23
    int weekday;      ///< 0 = Monday .. 6 = Sunday
};

/** Leap-aware calendar over the hours of a single year. */
class HourlyCalendar
{
  public:
    /** @param year Calendar year covered by the series. */
    explicit HourlyCalendar(int year);

    int year() const { return year_; }
    bool isLeapYear() const { return leap_; }

    /** 365 or 366. */
    size_t daysInYear() const { return leap_ ? 366 : 365; }

    /** 8760 or 8784. */
    size_t hoursInYear() const { return daysInYear() * kHoursPerDay; }

    /** Days in a month (1..12) of this year. */
    size_t daysInMonth(int month) const;

    /** Resolve an hour-of-year index into a calendar date. */
    CalendarInstant instantAt(size_t hour_of_year) const;

    /** Hour-of-year for a (month, day-of-month, hour) triple. */
    size_t hourIndex(int month, int day_of_month, int hour_of_day) const;

    /** 0-based day-of-year for an hour-of-year index. */
    size_t dayOfYear(size_t hour_of_year) const;

    /** Hour within the day (0..23) for an hour-of-year index. */
    int hourOfDay(size_t hour_of_year) const;

    /** Weekday (0 = Monday) of a 0-based day-of-year. */
    int weekdayOfDay(size_t day_of_year) const;

    /** True when @p year is a Gregorian leap year. */
    static bool isLeap(int year);

  private:
    int year_;
    bool leap_;
    /** First 0-based day-of-year of each month, plus a sentinel. */
    std::array<size_t, 13> month_start_day_;
    /** Weekday (0 = Monday) of January 1st. */
    int jan1_weekday_;
};

} // namespace carbonx

#endif // CARBONX_TIMESERIES_CALENDAR_H

#include "calendar.h"

#include "common/error.h"

namespace carbonx
{

namespace
{

constexpr std::array<size_t, 12> kDaysPerMonth = {
    31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

/**
 * Weekday of January 1st for @p year with 0 = Monday, via a compact
 * Gregorian day-count (days since the proleptic epoch 0001-01-01,
 * which was a Monday).
 */
int
jan1Weekday(int year)
{
    const int y = year - 1;
    // Days elapsed before Jan 1 of `year` since 0001-01-01.
    const long days = 365L * y + y / 4 - y / 100 + y / 400;
    return static_cast<int>(days % 7);
}

} // namespace

bool
HourlyCalendar::isLeap(int year)
{
    return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

HourlyCalendar::HourlyCalendar(int year)
    : year_(year), leap_(isLeap(year)), jan1_weekday_(jan1Weekday(year))
{
    require(year >= 1900 && year <= 2500, "calendar year out of range");
    size_t day = 0;
    for (int m = 0; m < 12; ++m) {
        month_start_day_[static_cast<size_t>(m)] = day;
        day += kDaysPerMonth[static_cast<size_t>(m)] +
               ((m == 1 && leap_) ? 1 : 0);
    }
    month_start_day_[12] = day;
}

size_t
HourlyCalendar::daysInMonth(int month) const
{
    require(month >= 1 && month <= 12, "month must be in 1..12");
    return month_start_day_[static_cast<size_t>(month)] -
           month_start_day_[static_cast<size_t>(month - 1)];
}

CalendarInstant
HourlyCalendar::instantAt(size_t hour_of_year) const
{
    require(hour_of_year < hoursInYear(), "hour index beyond year end");
    CalendarInstant out;
    out.year = year_;
    const size_t day = hour_of_year / kHoursPerDay;
    out.day_of_year = static_cast<int>(day);
    out.hour_of_day = static_cast<int>(hour_of_year % kHoursPerDay);
    int month = 1;
    while (month < 12 && month_start_day_[static_cast<size_t>(month)] <= day)
        ++month;
    out.month = month;
    out.day_of_month = static_cast<int>(
        day - month_start_day_[static_cast<size_t>(month - 1)] + 1);
    out.weekday = weekdayOfDay(day);
    return out;
}

size_t
HourlyCalendar::hourIndex(int month, int day_of_month, int hour_of_day) const
{
    require(month >= 1 && month <= 12, "month must be in 1..12");
    require(day_of_month >= 1 &&
                static_cast<size_t>(day_of_month) <= daysInMonth(month),
            "day of month out of range");
    require(hour_of_day >= 0 && hour_of_day < 24, "hour must be in 0..23");
    const size_t day = month_start_day_[static_cast<size_t>(month - 1)] +
                       static_cast<size_t>(day_of_month - 1);
    return day * kHoursPerDay + static_cast<size_t>(hour_of_day);
}

size_t
HourlyCalendar::dayOfYear(size_t hour_of_year) const
{
    require(hour_of_year < hoursInYear(), "hour index beyond year end");
    return hour_of_year / kHoursPerDay;
}

int
HourlyCalendar::hourOfDay(size_t hour_of_year) const
{
    require(hour_of_year < hoursInYear(), "hour index beyond year end");
    return static_cast<int>(hour_of_year % kHoursPerDay);
}

int
HourlyCalendar::weekdayOfDay(size_t day_of_year) const
{
    require(day_of_year < daysInYear(), "day index beyond year end");
    return static_cast<int>(
        (static_cast<size_t>(jan1_weekday_) + day_of_year) % 7);
}

} // namespace carbonx

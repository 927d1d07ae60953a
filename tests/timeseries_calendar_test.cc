/**
 * @file
 * Unit tests for the hourly calendar.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "timeseries/calendar.h"

namespace carbonx
{
namespace
{

TEST(Calendar, LeapYearRules)
{
    EXPECT_TRUE(HourlyCalendar::isLeap(2020));
    EXPECT_TRUE(HourlyCalendar::isLeap(2000));
    EXPECT_FALSE(HourlyCalendar::isLeap(1900));
    EXPECT_FALSE(HourlyCalendar::isLeap(2021));
    EXPECT_FALSE(HourlyCalendar::isLeap(2023));
    EXPECT_TRUE(HourlyCalendar::isLeap(2024));
}

TEST(Calendar, HourCounts)
{
    EXPECT_EQ(HourlyCalendar(2020).hoursInYear(), 8784u);
    EXPECT_EQ(HourlyCalendar(2021).hoursInYear(), 8760u);
    EXPECT_EQ(HourlyCalendar(2020).daysInYear(), 366u);
    EXPECT_EQ(HourlyCalendar(2021).daysInYear(), 365u);
}

TEST(Calendar, DaysInMonth)
{
    const HourlyCalendar leap(2020);
    const HourlyCalendar common(2021);
    EXPECT_EQ(leap.daysInMonth(2), 29u);
    EXPECT_EQ(common.daysInMonth(2), 28u);
    EXPECT_EQ(leap.daysInMonth(1), 31u);
    EXPECT_EQ(leap.daysInMonth(4), 30u);
    EXPECT_EQ(leap.daysInMonth(12), 31u);
}

TEST(Calendar, FirstHourOfYear)
{
    const HourlyCalendar cal(2020);
    const CalendarInstant t = cal.instantAt(0);
    EXPECT_EQ(t.year, 2020);
    EXPECT_EQ(t.month, 1);
    EXPECT_EQ(t.day_of_month, 1);
    EXPECT_EQ(t.day_of_year, 0);
    EXPECT_EQ(t.hour_of_day, 0);
}

TEST(Calendar, LastHourOfYear)
{
    const HourlyCalendar cal(2020);
    const CalendarInstant t = cal.instantAt(cal.hoursInYear() - 1);
    EXPECT_EQ(t.month, 12);
    EXPECT_EQ(t.day_of_month, 31);
    EXPECT_EQ(t.hour_of_day, 23);
    EXPECT_EQ(t.day_of_year, 365);
}

TEST(Calendar, LeapDayExists)
{
    const HourlyCalendar cal(2020);
    const size_t h = cal.hourIndex(2, 29, 12);
    const CalendarInstant t = cal.instantAt(h);
    EXPECT_EQ(t.month, 2);
    EXPECT_EQ(t.day_of_month, 29);
    EXPECT_EQ(t.hour_of_day, 12);
}

TEST(Calendar, HourIndexRoundTrip)
{
    const HourlyCalendar cal(2021);
    for (size_t h = 0; h < cal.hoursInYear(); h += 37) {
        const CalendarInstant t = cal.instantAt(h);
        EXPECT_EQ(cal.hourIndex(t.month, t.day_of_month, t.hour_of_day),
                  h);
    }
}

TEST(Calendar, KnownWeekdays)
{
    // 2020-01-01 was a Wednesday (weekday 2 with Monday = 0).
    EXPECT_EQ(HourlyCalendar(2020).instantAt(0).weekday, 2);
    // 2021-01-01 was a Friday.
    EXPECT_EQ(HourlyCalendar(2021).instantAt(0).weekday, 4);
    // 2024-01-01 was a Monday.
    EXPECT_EQ(HourlyCalendar(2024).instantAt(0).weekday, 0);
}

TEST(Calendar, WeekdayCycles)
{
    const HourlyCalendar cal(2020);
    const int w0 = cal.weekdayOfDay(0);
    EXPECT_EQ(cal.weekdayOfDay(7), w0);
    EXPECT_EQ(cal.weekdayOfDay(14), w0);
    EXPECT_EQ(cal.weekdayOfDay(1), (w0 + 1) % 7);
}

TEST(Calendar, DayOfYearAndHourOfDay)
{
    const HourlyCalendar cal(2020);
    EXPECT_EQ(cal.dayOfYear(0), 0u);
    EXPECT_EQ(cal.dayOfYear(23), 0u);
    EXPECT_EQ(cal.dayOfYear(24), 1u);
    EXPECT_EQ(cal.hourOfDay(25), 1);
}

TEST(Calendar, RejectsOutOfRange)
{
    const HourlyCalendar cal(2020);
    EXPECT_THROW(cal.instantAt(cal.hoursInYear()), UserError);
    EXPECT_THROW(cal.hourIndex(2, 30, 0), UserError);
    EXPECT_THROW(cal.hourIndex(1, 1, 24), UserError);
    EXPECT_THROW(cal.hourIndex(13, 1, 0), UserError);
    EXPECT_THROW(cal.daysInMonth(0), UserError);
    EXPECT_THROW(HourlyCalendar(1800), UserError);
}

class CalendarYearSweep : public testing::TestWithParam<int>
{
};

TEST_P(CalendarYearSweep, InstantRoundTripsAcrossWholeYear)
{
    const HourlyCalendar cal(GetParam());
    size_t day_transitions = 0;
    int last_day = -1;
    for (size_t h = 0; h < cal.hoursInYear(); ++h) {
        const CalendarInstant t = cal.instantAt(h);
        EXPECT_EQ(cal.hourIndex(t.month, t.day_of_month, t.hour_of_day),
                  h);
        if (t.day_of_year != last_day) {
            ++day_transitions;
            last_day = t.day_of_year;
        }
    }
    EXPECT_EQ(day_transitions, cal.daysInYear());
}

INSTANTIATE_TEST_SUITE_P(Years, CalendarYearSweep,
                         testing::Values(2019, 2020, 2021, 2024, 2100));

} // namespace
} // namespace carbonx

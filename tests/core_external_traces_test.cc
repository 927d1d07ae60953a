/**
 * @file
 * Tests of running Carbon Explorer on user-supplied traces, including
 * the CSV round trip that a real-EIA-data workflow would use.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/error.h"
#include "core/explorer.h"

namespace carbonx
{
namespace
{

constexpr int kYear = 2021;

ExternalTraces
syntheticTraces()
{
    TimeSeries load(kYear, 10.0);
    TimeSeries solar(kYear);
    TimeSeries wind(kYear, 0.5);
    TimeSeries intensity(kYear, 400.0);
    for (size_t h = 0; h < solar.size(); ++h) {
        const size_t hour = h % 24;
        if (hour >= 8 && hour < 18)
            solar[h] = 1.0;
        if (hour == 0)
            wind[h] = 1.0;
        if (hour >= 8 && hour < 18)
            intensity[h] = 150.0; // Cleaner by day.
    }
    return ExternalTraces(std::move(load), std::move(solar),
                          std::move(wind), std::move(intensity));
}

ExplorerConfig
baseConfig()
{
    ExplorerConfig cfg;
    cfg.flexible_ratio = Fraction(0.4);
    return cfg;
}

TEST(ExternalTraces, ExplorerUsesProvidedSeries)
{
    const CarbonExplorer explorer(baseConfig(), syntheticTraces());
    EXPECT_EQ(explorer.dcPower().size(), 8760u);
    EXPECT_DOUBLE_EQ(explorer.dcPower().mean(), 10.0);
    EXPECT_DOUBLE_EQ(explorer.gridIntensity()[0], 400.0);
    EXPECT_DOUBLE_EQ(explorer.gridIntensity()[12], 150.0);
    // 20 MW of solar shape covers the day hours exactly.
    EXPECT_NEAR(explorer.coverageAnalyzer().coverage(MegaWatts(20.0), MegaWatts(0.0)),
                100.0 * 10.0 / 24.0, 1e-9);
}

TEST(ExternalTraces, EvaluationWorksEndToEnd)
{
    const CarbonExplorer explorer(baseConfig(), syntheticTraces());
    const Evaluation e = explorer.evaluate(
        DesignPoint{MegaWatts(10.0), MegaWatts(10.0), MegaWattHours(20.0), Fraction(0.0)},
        Strategy::RenewableBattery);
    EXPECT_GT(e.coverage_pct, 50.0);
    EXPECT_GT(e.operational_kg.value(), 0.0);
    EXPECT_GT(e.embodiedKg().value(), 0.0);
}

TEST(ExternalTraces, RejectsMismatchedYears)
{
    TimeSeries load(2020, 10.0);
    TimeSeries other(kYear, 0.5);
    EXPECT_THROW(
        CarbonExplorer(baseConfig(),
                       ExternalTraces(load, other, other, other)),
        UserError);
}

TEST(ExternalTraces, RejectsNonFiniteSloWindows)
{
    for (const double window : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        ExplorerConfig cfg = baseConfig();
        cfg.slo_window_hours = Hours(window);
        EXPECT_THROW(CarbonExplorer(cfg, syntheticTraces()), UserError)
            << "window " << window;
    }
}

TEST(ExternalTraces, RejectsNegativeAndNonFiniteHoursBuiltInCode)
{
    // Traces built in code skip fromCsv's checks; the explorer must
    // refuse them instead of returning operational_kg = nan.
    ExternalTraces traces = syntheticTraces();
    traces.intensity[5] = -1e6;
    traces.intensity[6] = std::nan("");
    try {
        const CarbonExplorer explorer(baseConfig(), traces);
        FAIL() << "expected a UserError";
    } catch (const UserError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("intensity"), std::string::npos) << what;
        EXPECT_NE(what.find("hour 5 "), std::string::npos) << what;
    }

    const std::pair<const char *, TimeSeries ExternalTraces::*> series[] = {
        {"dc_power", &ExternalTraces::dc_power},
        {"solar_shape", &ExternalTraces::solar_shape},
        {"wind_shape", &ExternalTraces::wind_shape}};
    for (const auto &[name, member] : series) {
        for (const double value :
             {-1.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
            SCOPED_TRACE(std::string(name) + " = " +
                         std::to_string(value));
            ExternalTraces t = syntheticTraces();
            (t.*member)[8000] = value;
            try {
                const CarbonExplorer explorer(baseConfig(), t);
                FAIL() << "expected a UserError";
            } catch (const UserError &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find(name), std::string::npos) << what;
                EXPECT_NE(what.find("hour 8000 "), std::string::npos)
                    << what;
            }
        }
    }
}

TEST(ExternalTraces, RejectsNonPerUnitShapes)
{
    TimeSeries load(kYear, 10.0);
    TimeSeries big(kYear, 2.0);
    TimeSeries ok(kYear, 0.5);
    EXPECT_THROW(
        CarbonExplorer(baseConfig(),
                       ExternalTraces(load, big, ok, ok)),
        UserError);
}

TEST(ExternalTraces, CsvRoundTrip)
{
    // Export a trace CSV the way a user would prepare EIA data, read
    // it back, and verify the explorer sees identical series.
    const std::string path =
        testing::TempDir() + "/carbonx_traces.csv";
    CsvTable csv({"hour", "dc_power_mw", "solar_mw", "wind_mw",
                  "intensity_g_per_kwh"});
    const HourlyCalendar cal(kYear);
    for (size_t h = 0; h < cal.hoursInYear(); ++h) {
        const double hour = static_cast<double>(h % 24);
        const double solar = std::max(
            0.0, 500.0 * std::sin(std::numbers::pi * (hour - 6.0) /
                                  12.0));
        csv.addNumericRow({static_cast<double>(h), 25.0, solar,
                           300.0 + 100.0 * ((h / 24) % 2 == 0),
                           350.0 + hour});
    }
    csv.writeFile(path);

    const ExternalTraces traces = ExternalTraces::fromCsv(path, kYear);
    EXPECT_NEAR(traces.solar_shape.max(), 1.0, 1e-12);
    EXPECT_NEAR(traces.wind_shape.max(), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(traces.dc_power.mean(), 25.0);

    const CarbonExplorer explorer(baseConfig(), traces);
    const double cov = explorer.coverageAnalyzer().coverage(MegaWatts(0.0), MegaWatts(50.0));
    EXPECT_GT(cov, 99.0); // 50 MW of near-flat wind covers 25 MW.
}

TEST(ExternalTraces, CsvValidation)
{
    EXPECT_THROW(ExternalTraces::fromCsv("/nonexistent.csv", kYear),
                 UserError);
    // Wrong row count.
    const std::string path =
        testing::TempDir() + "/carbonx_short.csv";
    CsvTable csv({"dc_power_mw", "solar_mw", "wind_mw",
                  "intensity_g_per_kwh"});
    csv.addNumericRow({1.0, 2.0, 3.0, 4.0});
    csv.writeFile(path);
    EXPECT_THROW(ExternalTraces::fromCsv(path, kYear), UserError);
}

TEST(ExternalTraces, CsvRejectsDeadRenewableColumn)
{
    // An all-zero solar_mw column (e.g. a unit mix-up or a truncated
    // export) used to scale into a silent all-zero shape; it must now
    // be reported as an input error instead.
    const std::string path =
        testing::TempDir() + "/carbonx_dead_solar.csv";
    CsvTable csv({"dc_power_mw", "solar_mw", "wind_mw",
                  "intensity_g_per_kwh"});
    const HourlyCalendar cal(kYear);
    for (size_t h = 0; h < cal.hoursInYear(); ++h)
        csv.addNumericRow({25.0, 0.0, 5.0 + (h % 3), 400.0});
    csv.writeFile(path);
    try {
        ExternalTraces::fromCsv(path, kYear);
        FAIL() << "expected a UserError for the dead solar column";
    } catch (const UserError &e) {
        EXPECT_NE(std::string(e.what()).find("solar_mw"),
                  std::string::npos)
            << e.what();
    }
}

/** Expect fromCsv(@p path) to throw a UserError naming every @p part. */
void
expectCsvError(const std::string &path,
               const std::vector<std::string> &parts)
{
    try {
        ExternalTraces::fromCsv(path, kYear);
        FAIL() << "expected a UserError for " << path;
    } catch (const UserError &e) {
        for (const std::string &part : parts) {
            EXPECT_NE(std::string(e.what()).find(part), std::string::npos)
                << "'" << part << "' missing from: " << e.what();
        }
    }
}

TEST(ExternalTraces, CsvRowCountErrorNamesTheFile)
{
    const std::string path = testing::TempDir() + "/carbonx_two_rows.csv";
    CsvTable csv({"dc_power_mw", "solar_mw", "wind_mw",
                  "intensity_g_per_kwh"});
    csv.addNumericRow({1.0, 2.0, 3.0, 4.0});
    csv.addNumericRow({1.0, 2.0, 3.0, 4.0});
    csv.writeFile(path);
    expectCsvError(path, {path, "8760", "not 2"});
}

TEST(ExternalTraces, CsvMissingColumnErrorNamesTheFileAndColumns)
{
    const std::string path =
        testing::TempDir() + "/carbonx_no_wind_column.csv";
    CsvTable csv({"dc_power_mw", "solar_mw", "intensity_g_per_kwh"});
    const HourlyCalendar cal(kYear);
    for (size_t h = 0; h < cal.hoursInYear(); ++h)
        csv.addNumericRow({25.0, 100.0, 400.0});
    csv.writeFile(path);
    expectCsvError(path, {path, "wind_mw",
                          "dc_power_mw, solar_mw, intensity_g_per_kwh"});
}

TEST(ExternalTraces, CsvRejectsNegativeAndNonFiniteValues)
{
    // Every value column must hold finite numbers >= 0; the error
    // names the file, the column and the first bad data row (1-based).
    const HourlyCalendar cal(kYear);
    const std::vector<std::string> columns = {
        "dc_power_mw", "solar_mw", "wind_mw", "intensity_g_per_kwh"};
    for (size_t col = 0; col < columns.size(); ++col) {
        for (const std::string bad : {"-1.5", "nan", "inf", "-inf", "abc"}) {
            SCOPED_TRACE(columns[col] + " = " + bad);
            const std::string path =
                testing::TempDir() + "/carbonx_bad_value.csv";
            CsvTable csv(columns);
            for (size_t h = 0; h < cal.hoursInYear(); ++h) {
                std::vector<std::string> row = {"25", "100", "50",
                                                "400"};
                // Rows 37 and 38 (1-based) are bad; 37 is reported.
                if (h == 36 || h == 37)
                    row[col] = bad;
                csv.addRow(row);
            }
            csv.writeFile(path);
            expectCsvError(path, {path, columns[col], "data row 37 ",
                                  "'" + bad + "'"});
        }
    }
}

TEST(ExternalTraces, CsvAcceptsZerosInEveryColumn)
{
    // Zero is a valid load, generation or intensity hour.
    const std::string path = testing::TempDir() + "/carbonx_zeros.csv";
    CsvTable csv({"dc_power_mw", "solar_mw", "wind_mw",
                  "intensity_g_per_kwh"});
    const HourlyCalendar cal(kYear);
    for (size_t h = 0; h < cal.hoursInYear(); ++h) {
        const double on = h % 2 == 0 ? 1.0 : 0.0;
        csv.addNumericRow({25.0 * on, 100.0 * on, 50.0 * (1.0 - on),
                           400.0 * on});
    }
    csv.writeFile(path);
    const ExternalTraces traces = ExternalTraces::fromCsv(path, kYear);
    EXPECT_EQ(traces.dc_power.min(), 0.0);
    EXPECT_EQ(traces.intensity.min(), 0.0);
}

TEST(ExternalTraces, SyntheticExportFeedsBackIdentically)
{
    // The bridge between modes: synthesize, export as an external
    // CSV, reload, and check coverage agrees with the original.
    ExplorerConfig cfg;
    cfg.ba_code = "PACE";
    cfg.avg_dc_power_mw = MegaWatts(19.0);
    const CarbonExplorer original(cfg);

    const std::string path =
        testing::TempDir() + "/carbonx_export.csv";
    CsvTable csv({"dc_power_mw", "solar_mw", "wind_mw",
                  "intensity_g_per_kwh"});
    const CoverageAnalyzer &coverage = original.coverageAnalyzer();
    for (size_t h = 0; h < original.dcPower().size(); ++h) {
        csv.addNumericRow({original.dcPower()[h],
                           coverage.solarShape()[h],
                           coverage.windShape()[h],
                           original.gridIntensity()[h]});
    }
    csv.writeFile(path);

    const ExternalTraces traces =
        ExternalTraces::fromCsv(path, cfg.year);
    const CarbonExplorer reloaded(cfg, traces);
    for (double solar : {100.0, 300.0}) {
        EXPECT_NEAR(
            reloaded.coverageAnalyzer().coverage(MegaWatts(solar), MegaWatts(100.0)),
            original.coverageAnalyzer().coverage(MegaWatts(solar), MegaWatts(100.0)), 0.01);
    }
}

} // namespace
} // namespace carbonx

/**
 * @file
 * Golden end-to-end fixtures: two tiny deterministic region traces
 * (a solar-dominant and a wind-dominant site) are swept, explained,
 * and reported, and the complete text output is compared byte-for-
 * byte against checked-in expectations under tests/golden/.
 *
 * Regeneration: run this binary with --update-golden to rewrite both
 * the fixture trace CSVs and the expected outputs (see DESIGN.md,
 * "Adaptive sweep & result cache"). The traces themselves are
 * derived from closed-form hourly patterns — no RNG — so the CSVs
 * regenerate bit-identically on any machine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/fnv.h"
#include "core/adaptive_sweep.h"
#include "core/explorer.h"
#include "core/report.h"
#include "timeseries/calendar.h"

#ifndef CARBONX_GOLDEN_DIR
#error "CARBONX_GOLDEN_DIR must point at tests/golden"
#endif

namespace carbonx
{
namespace
{

bool g_update_golden = false;

constexpr int kYear = 2021;

/** One synthetic golden region, built from closed-form patterns. */
struct GoldenRegion
{
    const char *name;
    double power_mw;
    /** Hourly values as integers, from the hour index alone. */
    double (*dc)(size_t h);
    double (*solar)(size_t h);
    double (*wind)(size_t h);
    double (*intensity)(size_t h);
};

/** Solar-dominant site: strong clear-sky days, weak steady wind. */
const GoldenRegion kSunville = {
    "sunville",
    20.0,
    [](size_t h) { return 18.0 + static_cast<double>(h % 24 / 6); },
    [](size_t h) {
        const size_t hour = h % 24;
        if (hour < 6 || hour >= 19)
            return 0.0;
        const double x = static_cast<double>(hour) - 12.5;
        return std::max(0.0, 100.0 - 3.0 * x * x);
    },
    [](size_t h) {
        // Calm most days; brief gusty spells every fourth day.
        const size_t day = h / 24;
        if (day % 4 != 0)
            return 3.0 + static_cast<double>(h % 3);
        return 35.0 + static_cast<double>(h % 11);
    },
    [](size_t h) {
        const size_t hour = h % 24;
        return hour >= 9 && hour < 17 ? 250.0 : 420.0;
    },
};

/** Wind-dominant site: gusty multi-day fronts, weak winter sun. */
const GoldenRegion kGaleport = {
    "galeport",
    20.0,
    [](size_t) { return 20.0; },
    [](size_t h) {
        const size_t hour = h % 24;
        if (hour < 8 || hour >= 17)
            return 0.0;
        return 40.0 - 4.0 * std::abs(static_cast<double>(hour) - 12.0);
    },
    [](size_t h) {
        // Three-day fronts: two windy days, one lull.
        const size_t day = h / 24;
        const double front = day % 3 == 2 ? 25.0 : 95.0;
        return front + static_cast<double>(h % 7);
    },
    [](size_t h) { return 360.0 + static_cast<double>(h % 24); },
};

/** FNV-1a over the raw bytes of @p series in turn. */
std::string
seriesDigest(const std::vector<std::span<const double>> &series)
{
    uint64_t digest = kFnvOffsetBasis;
    for (const std::span<const double> values : series)
        digest = fnv1a64Bytes(values.data(), values.size_bytes(), digest);
    return fnvHex(digest);
}

std::string
tracePath(const GoldenRegion &r)
{
    return std::string(CARBONX_GOLDEN_DIR) + "/" + r.name +
        "_traces.csv";
}

std::string
reportPath(const GoldenRegion &r)
{
    return std::string(CARBONX_GOLDEN_DIR) + "/" + r.name +
        "_report.txt";
}

void
writeTraceCsv(const GoldenRegion &r)
{
    CsvTable csv({"hour", "dc_power_mw", "solar_mw", "wind_mw",
                  "intensity_g_per_kwh"});
    const HourlyCalendar cal(kYear);
    for (size_t h = 0; h < cal.hoursInYear(); ++h)
        csv.addNumericRow({static_cast<double>(h), r.dc(h),
                           r.solar(h), r.wind(h), r.intensity(h)});
    csv.writeFile(tracePath(r));
}

/**
 * The full deterministic report of one region: the four strategy
 * optima, the combined strategy's Pareto frontier, and the carbon
 * waterfall of the combined optimum — exactly what the CLI's
 * optimize and explain commands print, minus anything run-dependent
 * (timings, paths, thread counts) — plus digests of every hourly
 * column the optimum's flight recording and simulate() series carry.
 */
std::string
renderReport(const GoldenRegion &r)
{
    ExplorerConfig config;
    config.year = kYear;
    config.avg_dc_power_mw = MegaWatts(r.power_mw);
    const ExternalTraces traces =
        ExternalTraces::fromCsv(tracePath(r), kYear);
    const CarbonExplorer explorer(config, traces);
    const DesignSpace space =
        DesignSpace::forDatacenter(r.power_mw, 6.0, 4, 3, 2);

    std::ostringstream out;
    std::vector<Evaluation> bests;
    for (const Strategy s :
         {Strategy::RenewablesOnly, Strategy::RenewableBattery,
          Strategy::RenewableCas, Strategy::RenewableBatteryCas}) {
        // The adaptive sweep is the driver under test end-to-end;
        // its bit-identity contract means the golden file also pins
        // the exhaustive result.
        const AdaptiveSweepResult swept =
            AdaptiveSweeper(explorer).sweep(space, s);
        bests.push_back(swept.result.best);
    }
    printEvaluationTable(out,
                         "Carbon-optimal designs (" +
                             std::string(r.name) + ")",
                         bests);
    out << '\n';

    const AdaptiveSweepResult combined = AdaptiveSweeper(explorer)
        .sweep(space, Strategy::RenewableBatteryCas);
    printParetoTable(out,
                     "Pareto frontier (" + std::string(r.name) +
                         ", combined)",
                     combined.result.paretoSet());
    out << '\n';

    const ExplainResult ex = explorer.explain(
        combined.result.best.point, Strategy::RenewableBatteryCas);
    printCarbonWaterfall(out, ex);

    std::vector<std::span<const double>> columns;
    for (const std::vector<double> *column : ex.recording.columns())
        columns.emplace_back(*column);
    out << "\nrecording digest: " << seriesDigest(columns) << '\n';
    const SimulationResult sim = explorer.simulate(
        combined.result.best.point, Strategy::RenewableBatteryCas);
    out << "simulate digest: "
        << seriesDigest({sim.served_power.values(),
                         sim.grid_power.values(),
                         sim.battery_soc.values(),
                         sim.battery_flow.values()})
        << '\n';
    return out.str();
}

std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return "";
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
checkRegion(const GoldenRegion &r)
{
    if (g_update_golden)
        writeTraceCsv(r);

    const std::string rendered = renderReport(r);
    ASSERT_FALSE(rendered.empty());

    if (g_update_golden) {
        std::ofstream out(reportPath(r),
                          std::ios::binary | std::ios::trunc);
        out << rendered;
        SUCCEED() << "updated " << reportPath(r);
        return;
    }

    const std::string expected = readFileOrEmpty(reportPath(r));
    ASSERT_FALSE(expected.empty())
        << reportPath(r)
        << " missing — regenerate with --update-golden";
    if (rendered != expected) {
        // Point at the first differing line to keep failures
        // readable.
        std::istringstream got(rendered);
        std::istringstream want(expected);
        std::string got_line;
        std::string want_line;
        size_t line = 0;
        while (true) {
            ++line;
            const bool got_ok =
                static_cast<bool>(std::getline(got, got_line));
            const bool want_ok =
                static_cast<bool>(std::getline(want, want_line));
            if (!got_ok && !want_ok)
                break;
            if (got_line != want_line || got_ok != want_ok) {
                FAIL() << r.name << " output diverges at line "
                       << line << "\n  expected: "
                       << (want_ok ? want_line : "<eof>")
                       << "\n  actual:   "
                       << (got_ok ? got_line : "<eof>")
                       << "\nRegenerate intentionally with "
                          "--update-golden.";
            }
        }
    }
    SUCCEED();
}

TEST(GoldenEndToEnd, SunvilleReportMatchesGolden)
{
    checkRegion(kSunville);
}

TEST(GoldenEndToEnd, GaleportReportMatchesGolden)
{
    checkRegion(kGaleport);
}

TEST(GoldenEndToEnd, TraceFixturesRegenerateBitIdentically)
{
    // The fixture CSVs are pure functions of the hour index; writing
    // them again must reproduce the checked-in bytes exactly. Guards
    // against accidental edits to the pattern functions without
    // --update-golden.
    for (const GoldenRegion *r : {&kSunville, &kGaleport}) {
        const std::string checked_in = readFileOrEmpty(tracePath(*r));
        ASSERT_FALSE(checked_in.empty())
            << tracePath(*r)
            << " missing — regenerate with --update-golden";
        CsvTable csv({"hour", "dc_power_mw", "solar_mw", "wind_mw",
                      "intensity_g_per_kwh"});
        const HourlyCalendar cal(kYear);
        for (size_t h = 0; h < cal.hoursInYear(); ++h)
            csv.addNumericRow({static_cast<double>(h), r->dc(h),
                               r->solar(h), r->wind(h),
                               r->intensity(h)});
        std::ostringstream regenerated;
        csv.write(regenerated);
        EXPECT_EQ(regenerated.str(), checked_in) << r->name;
    }
}

} // namespace
} // namespace carbonx

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--update-golden") == 0)
            carbonx::g_update_golden = true;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}

/**
 * @file
 * Frozen triage trajectories of the adaptive sweep. For four studies
 * (a RenewableBatteryCas lattice at PACE, a lattice whose audit
 * inflates the margins, a RenewablesOnly lattice at DUK, and a
 * battery-only lattice whose points all tie on operational carbon)
 * every AdaptiveSweepStats field and an FNV-1a 64 digest of the
 * evaluated points' coordinates, in result order, are pinned at 1 and
 * 2 threads. A change to the skip decisions (the dominance query, the
 * best-so-far bound, the re-arm loop) moves these numbers, so an
 * internal rewrite of the driver that keeps them is exact, not just
 * close.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "common/fnv.h"
#include "common/parallel.h"
#include "core/adaptive_sweep.h"
#include "core/explorer.h"

namespace carbonx
{
namespace
{

/** RAII guard restoring the automatic thread count. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(size_t n) { setThreadCount(n); }
    ~ThreadCountGuard() { setThreadCount(0); }
};

/** The pinned outcome of one adaptive sweep. */
struct Frozen
{
    AdaptiveSweepStats stats;
    uint64_t evaluated_digest = 0;
};

ExplorerConfig
configFor(const char *ba, uint64_t seed, double power_mw)
{
    ExplorerConfig cfg;
    cfg.ba_code = ba;
    cfg.seed = seed;
    cfg.avg_dc_power_mw = MegaWatts(power_mw);
    return cfg;
}

/** FNV-1a 64 over the four coordinates of every evaluated point. */
uint64_t
evaluatedDigest(const OptimizationResult &result)
{
    uint64_t hash = kFnvOffsetBasis;
    for (const Evaluation &ev : result.evaluated) {
        const std::array<double, 4> coords = {
            ev.point.solar_mw.value(), ev.point.wind_mw.value(),
            ev.point.battery_mwh.value(),
            ev.point.extra_capacity.value()};
        hash = fnv1a64Bytes(coords.data(), sizeof(coords), hash);
    }
    return hash;
}

void
expectFrozen(const ExplorerConfig &config, const DesignSpace &space,
             Strategy strategy, const Frozen &want)
{
    for (const size_t threads : {size_t{1}, size_t{2}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const ThreadCountGuard guard(threads);
        CarbonExplorer explorer(config);
        const AdaptiveSweepResult got =
            AdaptiveSweeper(explorer).sweep(space, strategy);
        const AdaptiveSweepStats &s = got.stats;
        EXPECT_EQ(s.lattice_points, want.stats.lattice_points);
        EXPECT_EQ(s.simulated_points, want.stats.simulated_points);
        EXPECT_EQ(s.cache_hits, want.stats.cache_hits);
        EXPECT_EQ(s.points_skipped, want.stats.points_skipped);
        EXPECT_EQ(s.cells_total, want.stats.cells_total);
        EXPECT_EQ(s.cells_refined, want.stats.cells_refined);
        EXPECT_EQ(s.cells_excluded, want.stats.cells_excluded);
        EXPECT_EQ(s.margin_inflations, want.stats.margin_inflations);
        EXPECT_EQ(fnvHex(evaluatedDigest(got.result)),
                  fnvHex(want.evaluated_digest));
    }
}

TEST(AdaptiveFreeze, RenewableBatteryCasAtPace)
{
    // The adaptive_cached benchmark lattice: 75 cells excluded whole.
    Frozen want;
    want.stats = {7605, 4579, 0, 3026, 288, 213, 75, 1};
    want.evaluated_digest = 0x9bb8604e822f1affull;
    expectFrozen(configFor("PACE", 1, 19.0),
                 DesignSpace::forDatacenter(19.0, 10.0, 13, 9, 5),
                 Strategy::RenewableBatteryCas, want);
}

TEST(AdaptiveFreeze, MarginInflationAtErco)
{
    // The coarse audit doubles the margins once and revives skips.
    Frozen want;
    want.stats = {49, 31, 0, 18, 9, 5, 4, 1};
    want.evaluated_digest = 0x18fa97f293b2f786ull;
    expectFrozen(configFor("ERCO", 2020, 19.0),
                 DesignSpace::forDatacenter(19.0, 6.0, 7, 5, 3),
                 Strategy::RenewablesOnly, want);
}

TEST(AdaptiveFreeze, RenewablesOnlyAtDuk)
{
    // Every point of this surface is Pareto-optimal: nothing may be
    // skipped, even after the audit inflates the margins.
    Frozen want;
    want.stats = {625, 625, 0, 0, 144, 144, 0, 1};
    want.evaluated_digest = 0xd31db8aac16f6fc5ull;
    expectFrozen(configFor("DUK", 4, 15.0),
                 DesignSpace::forDatacenter(15.0, 30.0, 25, 1, 1),
                 Strategy::RenewablesOnly, want);
}

TEST(AdaptiveFreeze, OperationalTiesAreNotDominated)
{
    // No renewables: the battery never charges, so every point has the
    // same operational carbon and the margins on it are zero. A point
    // tied on operational carbon is not strictly dominated, so every
    // interior battery size must still be simulated.
    DesignSpace space;
    space.battery_mwh = AxisSpec{0.0, 160.0, 9};
    Frozen want;
    want.stats = {9, 9, 0, 0, 4, 4, 0, 0};
    want.evaluated_digest = 0x3b654f2a77e043fdull;
    expectFrozen(configFor("PACE", 1, 19.0), space,
                 Strategy::RenewableBattery, want);
}

} // namespace
} // namespace carbonx

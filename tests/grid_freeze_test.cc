/**
 * @file
 * Bit-level freeze of trace synthesis.
 *
 * Pins an FNV-1a-64 digest of every GridTrace series for every
 * registry balancing authority at two seeds, plus standalone wind
 * traces with odd and even sub-farm counts (an odd count leaves a
 * cached second normal straddling each hour of the spatial stream).
 * The digests were taken from the serial synthesizer; the parallel
 * shaping pass must reproduce them bit for bit at any thread count
 * and when synthesis runs nested inside another parallelFor body.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "common/parallel.h"
#include "grid/balancing_authority.h"
#include "grid/fuels.h"
#include "grid/grid_synthesizer.h"
#include "grid/wind_model.h"

namespace carbonx
{
namespace
{

class ThreadCountGuard
{
  public:
    explicit ThreadCountGuard(size_t n) { setThreadCount(n); }
    ~ThreadCountGuard() { setThreadCount(0); }
};

uint64_t
digestSeries(const TimeSeries &series, uint64_t hash)
{
    const auto values = series.values();
    return fnv1a64Bytes(values.data(), values.size() * sizeof(double),
                        hash);
}

/** FNV-1a-64 chained over every series of @p trace in field order. */
uint64_t
digestTrace(const GridTrace &trace)
{
    uint64_t hash = kFnvOffsetBasis;
    for (const TimeSeries *s :
         {&trace.demand, &trace.wind, &trace.solar, &trace.wind_potential,
          &trace.solar_potential, &trace.curtailed, &trace.intensity})
        hash = digestSeries(*s, hash);
    for (const Fuel fuel : kAllFuels)
        hash = digestSeries(trace.mix.of(fuel), hash);
    return hash;
}

struct GridCase
{
    const char *ba;
    uint64_t seed;
    uint64_t digest;
};

// Taken from the serial synthesizer (year 2020, renewable scale 1).
constexpr GridCase kGridCases[] = {
    {"SWPP", 2020, 0x78886cd54ac1108dull},
    {"SWPP", 7, 0x19fb8f6d8c6b6d56ull},
    {"BPAT", 2020, 0xd13579dea5d96eddull},
    {"BPAT", 7, 0xf95bd4e422ed3a8cull},
    {"PACE", 2020, 0x30dc00cfbf285b84ull},
    {"PACE", 7, 0x96d25c4668a5ad0bull},
    {"PNM", 2020, 0x758b6d645b635dd4ull},
    {"PNM", 7, 0x2d4464c4f90a3403ull},
    {"ERCO", 2020, 0x5ca4e151e86c7ee0ull},
    {"ERCO", 7, 0x43f0d00539bade96ull},
    {"PJM", 2020, 0x3d1cab6965133120ull},
    {"PJM", 7, 0x2347998aadea07acull},
    {"DUK", 2020, 0x0b479a79e37f5a62ull},
    {"DUK", 7, 0x85a2c517acbbf367ull},
    {"MISO", 2020, 0xd15701769518d33aull},
    {"MISO", 7, 0x32d729c87f1692cbull},
    {"SOCO", 2020, 0x629b083c32beea42ull},
    {"SOCO", 7, 0x79380b4dfcb55d15ull},
    {"TVA", 2020, 0x3dcd85f50c3205edull},
    {"TVA", 7, 0x0869a2ce5f6b3061ull},
};

struct WindCase
{
    int sub_farms;
    int year;
    uint64_t seed;
    uint64_t digest;
};

// Default WindModelParams apart from the sub-farm count.
constexpr WindCase kWindCases[] = {
    {1, 2020, 2020, 0x4f8a0a9f26321bacull},
    {3, 2021, 7, 0x5878cd2e4cf44d7eull},
    {4, 2020, 7, 0x0920ed96f3a87910ull},
    {5, 2021, 2020, 0x82060ae804671e85ull},
};

uint64_t
gridDigest(const GridCase &c)
{
    const GridSynthesizer synth(
        BalancingAuthorityRegistry::instance().lookup(c.ba), c.seed);
    return digestTrace(synth.synthesize(2020));
}

uint64_t
windDigest(const WindCase &c)
{
    WindModelParams params;
    params.sub_farms = c.sub_farms;
    const WindResourceModel model(params);
    return digestSeries(model.generate(c.year, c.seed), kFnvOffsetBasis);
}

TEST(GridFreeze, CasesCoverEveryRegistryAuthority)
{
    for (const std::string &code :
         BalancingAuthorityRegistry::instance().codes()) {
        size_t seeds = 0;
        for (const GridCase &c : kGridCases)
            seeds += code == c.ba ? 1 : 0;
        EXPECT_EQ(seeds, 2u) << code;
    }
}

TEST(GridFreeze, DigestsHoldAtEveryThreadCount)
{
    for (const size_t threads : {1u, 2u, 4u}) {
        const ThreadCountGuard guard(threads);
        for (const GridCase &c : kGridCases) {
            EXPECT_EQ(fnvHex(gridDigest(c)), fnvHex(c.digest))
                << c.ba << " seed " << c.seed << " at " << threads
                << " threads";
        }
        for (const WindCase &c : kWindCases) {
            EXPECT_EQ(fnvHex(windDigest(c)), fnvHex(c.digest))
                << c.sub_farms << " sub-farms, year " << c.year
                << ", seed " << c.seed << " at " << threads
                << " threads";
        }
    }
}

TEST(GridFreeze, DigestsHoldInsideAParallelForBody)
{
    const ThreadCountGuard guard(4);
    const size_t n = std::size(kGridCases);
    std::vector<uint64_t> digests(n);
    parallelFor(0, n, 1,
                [&](size_t i) { digests[i] = gridDigest(kGridCases[i]); });
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(fnvHex(digests[i]), fnvHex(kGridCases[i].digest))
            << kGridCases[i].ba << " seed " << kGridCases[i].seed;
    }
}

} // namespace
} // namespace carbonx

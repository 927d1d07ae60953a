/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace carbonx
{
namespace
{

TEST(SplitMix64, IsDeterministic)
{
    SplitMix64 a(42);
    SplitMix64 b(42);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer)
{
    SplitMix64 a(1);
    SplitMix64 b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(SplitMix64, StringHashIsStableAndDistinct)
{
    const uint64_t h1 = SplitMix64::hashString("BPAT");
    const uint64_t h2 = SplitMix64::hashString("BPAT");
    const uint64_t h3 = SplitMix64::hashString("ERCO");
    EXPECT_EQ(h1, h2);
    EXPECT_NE(h1, h3);
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, NamedStreamsAreIndependent)
{
    Rng a(7, "solar");
    Rng b(7, "wind");
    // Independence proxy: the first draws differ.
    EXPECT_NE(a.nextU64(), b.nextU64());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntWithinRangeAndCoversAll)
{
    Rng rng(19);
    std::vector<int> counts(7, 0);
    for (int i = 0; i < 7000; ++i) {
        const uint64_t v = rng.uniformInt(7);
        ASSERT_LT(v, 7u);
        ++counts[static_cast<size_t>(v)];
    }
    for (int c : counts)
        EXPECT_GT(c, 0);
}

TEST(Rng, UniformIntRejectsZero)
{
    Rng rng(23);
    EXPECT_THROW(rng.uniformInt(0), UserError);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(29);
    double sum = 0.0;
    double sum_sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Rng, NormalWithParamsShiftsAndScales)
{
    Rng rng(31);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(37);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeibullMeanMatchesTheory)
{
    // E[Weibull(k, lambda)] = lambda * Gamma(1 + 1/k).
    Rng rng(41);
    const double k = 2.0;
    const double lambda = 8.0;
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.weibull(k, lambda);
        EXPECT_GE(v, 0.0);
        sum += v;
    }
    const double expected = lambda * std::tgamma(1.0 + 1.0 / k);
    EXPECT_NEAR(sum / n, expected, 0.1);
}

TEST(Rng, WeibullRejectsBadParams)
{
    Rng rng(43);
    EXPECT_THROW(rng.weibull(0.0, 1.0), UserError);
    EXPECT_THROW(rng.weibull(1.0, -1.0), UserError);
}

TEST(Rng, ExponentialMeanIsInverseRate)
{
    Rng rng(47);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(0.5);
    EXPECT_NEAR(sum / n, 2.0, 0.05);
}

/**
 * skipNormals(k) then normal() must equal k + 1 normal() calls, bit
 * for bit, and leave the stream where those calls leave it.
 * @p primed draws one normal() first so a cached second normal is
 * pending when the skip starts.
 */
void
expectSkipMatchesDraws(uint64_t k, bool primed)
{
    Rng drawn(2020, "skip");
    Rng skipped(2020, "skip");
    if (primed) {
        EXPECT_EQ(drawn.normal(), skipped.normal());
    }
    for (uint64_t i = 0; i < k; ++i)
        drawn.normal();
    skipped.skipNormals(k);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(skipped.normal()),
                  std::bit_cast<uint64_t>(drawn.normal()))
            << "k = " << k << ", normal " << i;
    }
    EXPECT_EQ(skipped.nextU64(), drawn.nextU64()) << "k = " << k;
}

TEST(Rng, SkipNormalsEvenCountMatchesDraws)
{
    for (const uint64_t k : {0u, 2u, 8u, 5840u})
        expectSkipMatchesDraws(k, false);
}

TEST(Rng, SkipNormalsOddCountMatchesDraws)
{
    for (const uint64_t k : {1u, 3u, 9u, 5841u})
        expectSkipMatchesDraws(k, false);
}

TEST(Rng, SkipNormalsWithCachedNormalMatchesDraws)
{
    for (const uint64_t k : {0u, 1u, 2u, 3u, 8u, 9u, 5840u, 5841u})
        expectSkipMatchesDraws(k, true);
}

TEST(Rng, SkipNormalsComposes)
{
    // Positioning block copies one skip at a time, as the wind
    // model's shaping pass does, lands where one long skip does.
    Rng stepped(7, "skip");
    Rng once(7, "skip");
    stepped.normal();
    once.normal();
    for (const uint64_t k : {3u, 5u, 8u})
        stepped.skipNormals(k);
    once.skipNormals(16);
    EXPECT_EQ(std::bit_cast<uint64_t>(stepped.normal()),
              std::bit_cast<uint64_t>(once.normal()));
    EXPECT_EQ(stepped.nextU64(), once.nextU64());
}

} // namespace
} // namespace carbonx

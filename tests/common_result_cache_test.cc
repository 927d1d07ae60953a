/**
 * @file
 * The result cache's in-memory index and its round trip through the
 * file: growth, bitwise key equality, duplicate inserts, reopening,
 * and reopening after a damaged tail.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "common/result_cache.h"

namespace carbonx
{
namespace
{

constexpr uint64_t kDigest = 0x0ddba11cafef00dULL;
constexpr uint32_t kWidth = 2;

/** A fresh cache path: any file left by an earlier run is removed. */
std::string
freshPath(const std::string &name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

/**
 * Key @p i of a 20 x 20 x 6 x 5 lattice of design-point-like
 * coordinates: round numbers whose bit patterns share their low bits,
 * the case a weak index hash would pile into a few slots.
 */
ResultCache::Key
latticeKey(size_t i)
{
    return ResultCache::Key{12.5 * static_cast<double>(i % 20),
                            40.0 * static_cast<double>(i / 20 % 20),
                            8.0 * static_cast<double>(i / 400 % 6),
                            0.25 * static_cast<double>(i / 2400)};
}

constexpr size_t kLatticeKeys = 20 * 20 * 6 * 5;

std::array<double, kWidth>
payloadOf(size_t i)
{
    return {static_cast<double>(i) + 0.5, -static_cast<double>(i)};
}

void
expectPayload(const double *found, size_t i)
{
    ASSERT_NE(found, nullptr) << "record " << i;
    EXPECT_EQ(found[0], payloadOf(i)[0]) << "record " << i;
    EXPECT_EQ(found[1], payloadOf(i)[1]) << "record " << i;
}

/** Insert records [first, last) and flush them as one block. */
void
appendBlock(ResultCache &cache, size_t first, size_t last)
{
    for (size_t i = first; i < last; ++i)
        ASSERT_TRUE(cache.insert(latticeKey(i), payloadOf(i).data()));
    cache.flush();
}

TEST(ResultCache, GrowsThroughManyRehashesAndFindsEveryKey)
{
    static_assert(kLatticeKeys >= 10000);
    ResultCache cache(freshPath("rc_growth.cxrc"), kDigest, kWidth);
    for (size_t i = 0; i < kLatticeKeys; ++i) {
        ASSERT_TRUE(cache.insert(latticeKey(i), payloadOf(i).data()));
        // Records inserted before a rehash stay findable after it.
        if ((i & (i + 1)) == 0) {
            for (size_t j = 0; j <= i; ++j)
                ASSERT_NE(cache.find(latticeKey(j)), nullptr)
                    << "record " << j << " after " << i + 1 << " inserts";
        }
    }
    EXPECT_EQ(cache.size(), kLatticeKeys);
    for (size_t i = 0; i < kLatticeKeys; ++i)
        expectPayload(cache.find(latticeKey(i)), i);

    // Points between the lattice's coordinates are misses.
    for (size_t i = 0; i < kLatticeKeys; i += 7) {
        ResultCache::Key off = latticeKey(i);
        off[i % 4] += 0.125;
        EXPECT_EQ(cache.find(off), nullptr) << "record " << i;
    }
}

TEST(ResultCache, KeysCompareBitForBit)
{
    const std::string path = freshPath("rc_bits.cxrc");
    const ResultCache::Key plus{0.0, 1.0, 2.0, 3.0};
    const ResultCache::Key minus{-0.0, 1.0, 2.0, 3.0};
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const ResultCache::Key with_nan{nan, 1.0, 2.0, 3.0};
    {
        ResultCache cache(path, kDigest, kWidth);
        // +0.0 == -0.0 as numbers; as keys they are two records.
        EXPECT_TRUE(cache.insert(plus, payloadOf(1).data()));
        EXPECT_TRUE(cache.insert(minus, payloadOf(2).data()));
        EXPECT_EQ(cache.size(), 2u);
        expectPayload(cache.find(plus), 1);
        expectPayload(cache.find(minus), 2);

        // A NaN coordinate matches its own bit pattern.
        EXPECT_TRUE(cache.insert(with_nan, payloadOf(3).data()));
        expectPayload(cache.find(with_nan), 3);
        EXPECT_FALSE(cache.insert(with_nan, payloadOf(4).data()));
    }
    const ResultCache reopened(path, kDigest, kWidth);
    EXPECT_EQ(reopened.loadedFromDisk(), 3u);
    expectPayload(reopened.find(plus), 1);
    expectPayload(reopened.find(minus), 2);
    expectPayload(reopened.find(with_nan), 3);
}

TEST(ResultCache, DuplicateInsertKeepsTheFirstPayload)
{
    ResultCache cache(freshPath("rc_duplicate.cxrc"), kDigest, kWidth);
    EXPECT_TRUE(cache.insert(latticeKey(5), payloadOf(5).data()));
    EXPECT_FALSE(cache.insert(latticeKey(5), payloadOf(6).data()));
    EXPECT_EQ(cache.size(), 1u);
    expectPayload(cache.find(latticeKey(5)), 5);
}

TEST(ResultCache, ReopenFindsEveryRecord)
{
    const std::string path = freshPath("rc_reopen.cxrc");
    {
        ResultCache cache(path, kDigest, kWidth);
        appendBlock(cache, 0, 1000);
        appendBlock(cache, 1000, 1001);
        appendBlock(cache, 1001, 3000);
    }
    ResultCache reopened(path, kDigest, kWidth);
    EXPECT_TRUE(reopened.rebuildReason().empty());
    EXPECT_EQ(reopened.loadedFromDisk(), 3000u);
    for (size_t i = 0; i < 3000; ++i)
        expectPayload(reopened.find(latticeKey(i)), i);
    EXPECT_EQ(reopened.find(latticeKey(3000)), nullptr);

    // A loaded key is a duplicate; new keys still grow the index.
    EXPECT_FALSE(reopened.insert(latticeKey(0), payloadOf(1).data()));
    appendBlock(reopened, 3000, kLatticeKeys);
    for (size_t i = 0; i < kLatticeKeys; ++i)
        expectPayload(reopened.find(latticeKey(i)), i);
}

TEST(ResultCache, CorruptTailKeepsTheValidPrefixFindable)
{
    const std::string path = freshPath("rc_tail.cxrc");
    {
        ResultCache cache(path, kDigest, kWidth);
        appendBlock(cache, 0, 400);
        appendBlock(cache, 400, 800);
    }
    const auto two_blocks = std::filesystem::file_size(path);
    {
        ResultCache cache(path, kDigest, kWidth);
        appendBlock(cache, 800, 1200);
    }
    // Cut the third block short, as a crash mid-append would.
    std::filesystem::resize_file(
        path, (two_blocks + std::filesystem::file_size(path)) / 2);
    {
        ResultCache cache(path, kDigest, kWidth);
        EXPECT_FALSE(cache.rebuildReason().empty());
        EXPECT_EQ(cache.loadedFromDisk(), 800u);
        for (size_t i = 0; i < 800; ++i)
            expectPayload(cache.find(latticeKey(i)), i);
        for (size_t i = 800; i < 1200; ++i)
            EXPECT_EQ(cache.find(latticeKey(i)), nullptr) << "record " << i;
        // The lost block can be re-inserted and lands after the prefix.
        appendBlock(cache, 800, 1200);
    }
    const ResultCache repaired(path, kDigest, kWidth);
    EXPECT_TRUE(repaired.rebuildReason().empty());
    EXPECT_EQ(repaired.loadedFromDisk(), 1200u);
    for (size_t i = 0; i < 1200; ++i)
        expectPayload(repaired.find(latticeKey(i)), i);
}

} // namespace
} // namespace carbonx

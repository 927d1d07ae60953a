/**
 * @file
 * The shared columnar log format (common/column_log) and its two
 * users, the result cache and the decision journal.
 *
 * The FormatFreeze cases pin the exact bytes both files get on disk:
 * each writes a file through the public API with fixed inputs and
 * compares the FNV-1a-64 of the whole file against a constant taken
 * before the two codecs were folded into one. A change to either
 * file's layout, digest chain or append discipline changes the
 * constant, so old files stay readable by new builds and new files
 * by old builds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/column_log.h"
#include "common/counters.h"
#include "common/fnv.h"
#include "common/result_cache.h"
#include "obs/journal.h"

namespace carbonx
{
namespace
{

constexpr uint64_t kDigest = 0x0123456789abcdefULL;
constexpr uint32_t kWidth = 3;

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
}

void
appendBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t
fileDigest(const std::string &path)
{
    const std::vector<char> bytes = readAll(path);
    return fnv1a64Bytes(bytes.data(), bytes.size());
}

ResultCache::Key
keyOf(size_t i)
{
    return ResultCache::Key{static_cast<double>(i) * 12.5,
                            100.0 - static_cast<double>(i), -0.0,
                            static_cast<double>(i % 3)};
}

std::array<double, kWidth>
payloadOf(size_t i)
{
    return {static_cast<double>(i) + 0.125, 1e300 / (1.0 + i),
            -static_cast<double>(i) * 7.75};
}

/** Three flushes of 2, 3 and 4 records with fixed provenance. */
void
writeFrozenCache(const std::string &path)
{
    std::remove(path.c_str());
    ResultCache cache(path, kDigest, kWidth, "{\"frozen\":\"cache\"}");
    size_t next = 0;
    for (const size_t per : {2, 3, 4}) {
        for (size_t r = 0; r < per; ++r, ++next)
            cache.insert(keyOf(next), payloadOf(next).data());
        cache.flush();
    }
}

obs::DecisionRow
rowOf(size_t i)
{
    obs::DecisionRow row;
    row.point_id = 0x9e3779b97f4a7c15ULL * (i + 1);
    row.wave = static_cast<uint32_t>(i / 3);
    row.worker = static_cast<uint16_t>(i % 2);
    row.lane = static_cast<uint16_t>(i % 5);
    row.verdict =
        static_cast<obs::DecisionVerdict>(i % obs::kDecisionVerdicts);
    row.predicted_kg = i % 2 == 0
        ? std::numeric_limits<double>::quiet_NaN()
        : 1000.0 + static_cast<double>(i);
    row.actual_kg = 2000.5 - static_cast<double>(i);
    row.margin_kg = static_cast<double>(i) * 0.25;
    row.ts_us = 1000 + i * 17;
    return row;
}

TEST(FormatFreeze, ResultCacheBytesAreFrozen)
{
    const std::string path = tempPath("freeze_cache.cxrc");
    writeFrozenCache(path);
    EXPECT_EQ(fileDigest(path), 0x4b94e32f36f43b44ULL);
    std::remove(path.c_str());
}

TEST(FormatFreeze, ResultCacheTruncateAndAppendBytesAreFrozen)
{
    const std::string path = tempPath("freeze_cache_tail.cxrc");
    writeFrozenCache(path);
    appendBytes(path, std::string(37, '\x5a'));
    {
        ResultCache cache(path, kDigest, kWidth);
        EXPECT_EQ(cache.loadedFromDisk(), 9u);
        EXPECT_FALSE(cache.rebuildReason().empty());
        cache.insert(keyOf(9), payloadOf(9).data());
        cache.flush();
    }
    EXPECT_EQ(fileDigest(path), 0x45608c4df5598096ULL);
    std::remove(path.c_str());
}

TEST(FormatFreeze, JournalBytesAreFrozen)
{
    const std::string path = tempPath("freeze_journal.cxj");
    std::remove(path.c_str());
    {
        obs::DecisionJournal journal(path, kDigest,
                                     "{\"frozen\":\"journal\"}");
        journal.ensureSinks(2);
        size_t next = 0;
        for (const size_t per : {1, 4, 2}) {
            for (size_t r = 0; r < per; ++r, ++next)
                journal.sink(next % 2).record(rowOf(next));
            journal.flush();
        }
    }
    EXPECT_EQ(fileDigest(path), 0x14980c831c8a9758ULL);
    std::remove(path.c_str());
}

TEST(ResultCacheShortTail, OneToThreeStrayBytesAreReportedAndTruncated)
{
    // A crash inside the first four bytes of an append leaves a 1-3
    // byte tail. It is a damaged block header, not a clean end of
    // file: report it, keep every record, and cut it on flush.
    const std::string path = tempPath("short_tail.cxrc");
    for (const size_t stray : {1, 2, 3}) {
        SCOPED_TRACE(std::to_string(stray) + " stray bytes");
        writeFrozenCache(path);
        const auto clean_size = std::filesystem::file_size(path);
        appendBytes(path, std::string(stray, '\x42'));
        const uint64_t corrupt_before =
            counter("result_cache.corrupt_blocks").value();
        {
            ResultCache cache(path, kDigest, kWidth);
            EXPECT_EQ(cache.rebuildReason(), "unreadable block header");
            EXPECT_EQ(counter("result_cache.corrupt_blocks").value(),
                      corrupt_before + 1);
            ASSERT_EQ(cache.loadedFromDisk(), 9u);
            for (size_t i = 0; i < 9; ++i) {
                const double *p = cache.find(keyOf(i));
                ASSERT_NE(p, nullptr) << "record " << i;
                EXPECT_EQ(p[1], payloadOf(i)[1]);
            }
            cache.flush();
        }
        EXPECT_EQ(std::filesystem::file_size(path), clean_size);
        const ResultCache reopened(path, kDigest, kWidth);
        EXPECT_EQ(reopened.loadedFromDisk(), 9u);
        EXPECT_TRUE(reopened.rebuildReason().empty());
    }
    std::remove(path.c_str());
}

constexpr column_log::Magic kMagic = {'C', 'X', 'T', 'E',
                                      'S', 'T', 'L', 'G'};
constexpr uint32_t kBlockMagic = 0x54534554u;

TEST(ColumnLog, BlocksRoundTripOneAtATime)
{
    const std::string path = tempPath("column_log_roundtrip.cxl");
    const column_log::Header written{kMagic, 7, 2, kDigest, "prov"};
    uint64_t end = column_log::writeHeader(path, written);
    EXPECT_EQ(end, std::filesystem::file_size(path));
    const std::vector<uint64_t> first = {1, 2, 10, 20};
    const std::vector<uint64_t> second = {3, 4, 5, 30, 40, 50};
    end += column_log::writeBlock(path, end, kBlockMagic, 2, first);
    end += column_log::writeBlock(path, end, kBlockMagic, 3, second);
    EXPECT_EQ(end, std::filesystem::file_size(path));

    column_log::Reader reader(path);
    ASSERT_TRUE(reader.isOpen());
    column_log::Header read;
    ASSERT_EQ(reader.readHeader(kMagic, read), column_log::Status::Ok);
    EXPECT_EQ(read.version, 7u);
    EXPECT_EQ(read.columns, 2u);
    EXPECT_EQ(read.config_digest, kDigest);
    EXPECT_EQ(read.provenance, "prov");
    // The reader holds one block at a time.
    std::vector<uint64_t> cells;
    ASSERT_EQ(reader.nextBlock(kBlockMagic, 2, cells),
              column_log::Status::Ok);
    EXPECT_EQ(cells, first);
    ASSERT_EQ(reader.nextBlock(kBlockMagic, 2, cells),
              column_log::Status::Ok);
    EXPECT_EQ(cells, second);
    EXPECT_EQ(reader.nextBlock(kBlockMagic, 2, cells),
              column_log::Status::End);
    EXPECT_EQ(reader.validBytes(), end);
    std::remove(path.c_str());
}

TEST(ColumnLog, WriteBlockOverwritesFromItsOffset)
{
    // Appending at the valid prefix replaces a damaged tail in place.
    const std::string path = tempPath("column_log_offset.cxl");
    const uint64_t header =
        column_log::writeHeader(path, {kMagic, 1, 1, kDigest, ""});
    appendBytes(path, std::string(5, '\x7f'));
    const uint64_t block = column_log::writeBlock(path, header,
                                                  kBlockMagic, 1, {42});
    EXPECT_EQ(std::filesystem::file_size(path), header + block);

    column_log::Reader reader(path);
    column_log::Header read;
    ASSERT_EQ(reader.readHeader(kMagic, read), column_log::Status::Ok);
    std::vector<uint64_t> cells;
    ASSERT_EQ(reader.nextBlock(kBlockMagic, 1, cells),
              column_log::Status::Ok);
    EXPECT_EQ(cells, std::vector<uint64_t>{42});
    EXPECT_EQ(reader.nextBlock(kBlockMagic, 1, cells),
              column_log::Status::End);
    std::remove(path.c_str());
}

TEST(ColumnLog, ReaderNamesWhyTheValidPrefixEnds)
{
    const std::string path = tempPath("column_log_reasons.cxl");
    const uint64_t header =
        column_log::writeHeader(path, {kMagic, 1, 2, kDigest, "p"});
    const uint64_t block =
        column_log::writeBlock(path, header, kBlockMagic, 1, {7, 8});
    const std::vector<char> clean = readAll(path);

    const auto statusAfter = [&](const std::vector<char> &bytes,
                                 uint32_t block_magic) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        column_log::Reader reader(path);
        column_log::Header read;
        const column_log::Status status = reader.readHeader(kMagic, read);
        if (status != column_log::Status::Ok)
            return status;
        std::vector<uint64_t> cells;
        column_log::Status next;
        while ((next = reader.nextBlock(block_magic, 2, cells)) ==
               column_log::Status::Ok) {
        }
        EXPECT_EQ(reader.validBytes(),
                  next == column_log::Status::End ? bytes.size()
                                                  : header);
        return next;
    };
    const auto cut = [&](size_t len) {
        return std::vector<char>(clean.begin(),
                                 clean.begin() +
                                     static_cast<ptrdiff_t>(len));
    };
    const auto flipped = [&](size_t pos) {
        std::vector<char> bytes = clean;
        bytes[pos] = static_cast<char>(bytes[pos] ^ 1);
        return bytes;
    };
    using column_log::Status;
    EXPECT_EQ(statusAfter(clean, kBlockMagic), Status::End);
    EXPECT_EQ(statusAfter(cut(20), kBlockMagic), Status::TruncatedHeader);
    EXPECT_EQ(statusAfter(flipped(0), kBlockMagic), Status::BadMagic);
    std::vector<char> huge = clean;
    huge[27] = '\x7f'; // Top byte of the provenance length.
    EXPECT_EQ(statusAfter(huge, kBlockMagic),
              Status::ImplausibleProvenance);
    EXPECT_EQ(statusAfter(cut(32), kBlockMagic),
              Status::TruncatedProvenance);
    EXPECT_EQ(statusAfter(cut(header - 3), kBlockMagic),
              Status::TruncatedHeaderDigest);
    EXPECT_EQ(statusAfter(flipped(33), kBlockMagic),
              Status::HeaderDigestMismatch);
    EXPECT_EQ(statusAfter(cut(header + 3), kBlockMagic),
              Status::UnreadableBlockHeader);
    EXPECT_EQ(statusAfter(clean, kBlockMagic + 1), Status::BadBlockHeader);
    EXPECT_EQ(statusAfter(cut(header + 8), kBlockMagic),
              Status::BlockLargerThanFile);
    EXPECT_EQ(statusAfter(flipped(header + 9), kBlockMagic),
              Status::BlockDigestMismatch);
    EXPECT_EQ(column_log::describe(Status::UnreadableBlockHeader),
              std::string("unreadable block header"));
    EXPECT_EQ(header + block, clean.size());
    std::remove(path.c_str());
}

} // namespace
} // namespace carbonx

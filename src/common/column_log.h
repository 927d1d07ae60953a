/**
 * @file
 * The append-only columnar file format of the result cache
 * (common/result_cache.h) and the sweep decision journal
 * (obs/journal.h): their one writer and one verifying reader.
 *
 * Layout (host endianness, fixed-width fields):
 *
 *   header:  8-byte file magic | u32 version | u32 columns
 *            | u64 config_digest | u32 provenance_size | u32 reserved (0)
 *            | provenance bytes | u64 header_digest (FNV-1a over all
 *            preceding bytes)
 *   blocks:  u32 block_magic | u32 row_count (> 0)
 *            | columns x row_count 8-byte cells, column-major
 *            | u64 block_digest (FNV-1a over magic, count, cells)
 *
 * Each user has its own magics and version and gives the header's
 * column word its own meaning. A double cell is its bit pattern. What
 * to do after a bad header or block is the user's policy.
 */

#ifndef CARBONX_COMMON_COLUMN_LOG_H
#define CARBONX_COMMON_COLUMN_LOG_H

#include <array>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace carbonx::column_log
{

using Magic = std::array<char, 8>;

struct Header
{
    Magic magic{};
    uint32_t version = 0;
    uint32_t columns = 0; ///< The user's column word.
    uint64_t config_digest = 0;
    std::string provenance;
};

/** What reading a header or a block found. */
enum class Status : uint8_t
{
    Ok,
    End, ///< Clean end of file after the last whole block.
    // Header failures: nothing in the file can be trusted.
    TruncatedHeader,
    BadMagic,
    ImplausibleProvenance,
    TruncatedProvenance,
    TruncatedHeaderDigest,
    HeaderDigestMismatch,
    // Block failures: the valid prefix ends before this block.
    UnreadableBlockHeader, ///< A 1-3 byte tail: a crash mid-append.
    BadBlockHeader,
    BlockLargerThanFile,
    TruncatedBlock,
    BlockDigestMismatch,
};

/** Lowercase text of @p status ("block digest mismatch", ...). */
const char *describe(Status status);

/**
 * Create (truncating) @p path holding only @p header; returns its byte
 * length, where the first block goes. @throws UserError on failure.
 */
uint64_t writeHeader(const std::string &path, const Header &header);

/**
 * Write a block of @p rows rows (@p cells: its columns one after
 * another) at byte @p offset of the existing file @p path, over
 * whatever lies there; returns the block's byte length.
 * @throws UserError on failure.
 */
uint64_t writeBlock(const std::string &path, uint64_t offset,
                    uint32_t block_magic, uint32_t rows,
                    const std::vector<uint64_t> &cells);

/** Reads a file one verified block at a time. */
class Reader
{
  public:
    /** Open @p path; isOpen() is false when it cannot be read. */
    explicit Reader(const std::string &path);

    bool isOpen() const { return is_.is_open(); }

    /** Read and verify the header, which must carry @p magic. */
    Status readHeader(const Magic &magic, Header &header);

    /**
     * Read and verify the next block, which must carry @p block_magic
     * and @p columns columns, into @p cells (column-major). After any
     * status but Ok, stop reading.
     */
    Status nextBlock(uint32_t block_magic, uint32_t columns,
                     std::vector<uint64_t> &cells);

    /** Byte length of the header plus every block read Ok. */
    uint64_t validBytes() const { return valid_bytes_; }

    /** Byte length of the whole file. */
    uint64_t fileSize() const { return file_size_; }

  private:
    std::ifstream is_;
    uint64_t file_size_ = 0;
    uint64_t valid_bytes_ = 0;
};

} // namespace carbonx::column_log

#endif // CARBONX_COMMON_COLUMN_LOG_H

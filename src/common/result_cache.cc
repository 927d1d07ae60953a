#include "result_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>

#include "common/column_log.h"
#include "common/error.h"
#include "common/counters.h"
#include "common/logging.h"

namespace carbonx
{

namespace
{

constexpr column_log::Magic kFileMagic = {'C', 'X', 'R', 'C',
                                          'A', 'C', 'H', 'E'};
constexpr uint32_t kBlockMagic = 0x434b4c42u; // "BLKC" little-endian.

/** Index slots of an empty cache. */
constexpr size_t kMinSlots = 16;

/**
 * The index's hash of @p key: a multiply-xorshift mix of its four bit
 * patterns, then SplitMix64's finalizer so that the low bits the
 * table uses depend on every key bit (design-point coordinates are
 * round numbers whose low mantissa bits are all zero). It only places
 * records in memory; the file's digests are FNV-1a (common/fnv.h).
 */
uint64_t
indexHash(const ResultCache::Key &key)
{
    uint64_t hash = 0;
    for (const double v : key) {
        hash = (hash ^ std::bit_cast<uint64_t>(v)) * 0x9e3779b97f4a7c15ull;
        hash ^= hash >> 32;
    }
    hash ^= hash >> 29;
    hash *= 0xbf58476d1ce4e5b9ull;
    return hash ^ (hash >> 32);
}

bool
sameBits(const ResultCache::Key &a, const ResultCache::Key &b)
{
    return std::memcmp(a.data(), b.data(), sizeof(ResultCache::Key)) == 0;
}

} // namespace

ResultCache::ResultCache(std::string path, uint64_t config_digest,
                         uint32_t payload_width, std::string provenance)
    : path_(std::move(path)), config_digest_(config_digest),
      payload_width_(payload_width), provenance_(std::move(provenance)),
      slots_(kMinSlots, kEmptySlot)
{
    require(payload_width_ > 0, "result cache payload width must be > 0");
    load();
}

ResultCache::~ResultCache()
{
    try {
        flush();
    } catch (const std::exception &e) {
        // A cache that cannot be persisted only costs a re-simulation;
        // never let it tear down the process during unwinding.
        warn(std::string("result cache flush failed: ") + e.what());
    }
}

size_t
ResultCache::slotOf(const Key &key) const
{
    const size_t mask = slots_.size() - 1;
    for (size_t slot = indexHash(key) & mask;; slot = (slot + 1) & mask) {
        const uint32_t record = slots_[slot];
        if (record == kEmptySlot || sameBits(coords_[record], key))
            return slot;
    }
}

void
ResultCache::indexFrom(size_t first)
{
    if (2 * coords_.size() > slots_.size()) {
        slots_.assign(std::bit_ceil(2 * coords_.size()), kEmptySlot);
        first = 0;
    }
    // A key stored twice (only a hand-edited file can hold one) keeps
    // its first record, as insert() does.
    for (size_t record = first; record < coords_.size(); ++record) {
        uint32_t &slot = slots_[slotOf(coords_[record])];
        if (slot == kEmptySlot)
            slot = static_cast<uint32_t>(record);
    }
}

const double *
ResultCache::find(const Key &key) const
{
    static Counter &c_hits = counter("result_cache.hits");
    static Counter &c_misses = counter("result_cache.misses");
    const uint32_t record = slots_[slotOf(key)];
    if (record == kEmptySlot) {
        c_misses.increment();
        return nullptr;
    }
    c_hits.increment();
    return payloads_.data() + static_cast<size_t>(record) * payload_width_;
}

bool
ResultCache::insert(const Key &key, const double *payload)
{
    const size_t slot = slotOf(key);
    if (slots_[slot] != kEmptySlot)
        return false;
    static Counter &c_inserts = counter("result_cache.inserts");
    c_inserts.increment();
    const auto record = static_cast<uint32_t>(coords_.size());
    coords_.push_back(key);
    payloads_.insert(payloads_.end(), payload, payload + payload_width_);
    if (2 * coords_.size() > slots_.size())
        indexFrom(record); // Grows the table and re-indexes every record.
    else
        slots_[slot] = record;
    return true;
}

void
ResultCache::load()
{
    column_log::Reader reader(path_);
    if (!reader.isOpen())
        return; // New cache; nothing on disk yet.

    const auto fail = [&](const std::string &why) {
        counter("result_cache.rebuilds").increment();
        rebuild_reason_ = why;
        warn("result cache " + path_ + " discarded (" + why +
             "); rebuilding from scratch");
    };

    column_log::Header header;
    const column_log::Status status = reader.readHeader(kFileMagic, header);
    if (status != column_log::Status::Ok)
        return fail(column_log::describe(status));
    if (header.version != kFormatVersion)
        return fail("format version " + std::to_string(header.version) +
                    " != " + std::to_string(kFormatVersion));
    if (header.columns != payload_width_)
        return fail("payload width " + std::to_string(header.columns) +
                    " != " + std::to_string(payload_width_));
    if (header.config_digest != config_digest_)
        return fail("config digest mismatch");
    provenance_ = std::move(header.provenance);
    rewrite_needed_ = false;

    // The blocks cannot hold more records than the bytes after the
    // header have room for, so one reservation covers every block.
    const size_t columns = kKeyWidth + payload_width_;
    const size_t max_records =
        (reader.fileSize() - reader.validBytes()) /
        (columns * sizeof(uint64_t));
    coords_.reserve(max_records);
    payloads_.reserve(max_records * payload_width_);
    slots_.assign(std::bit_ceil(std::max(kMinSlots, 2 * max_records)),
                  kEmptySlot);

    // Columnar within a block: key columns first, then payload
    // columns, each `rows` cells long.
    std::vector<uint64_t> cells;
    column_log::Status block;
    while ((block = reader.nextBlock(kBlockMagic,
                                     static_cast<uint32_t>(columns),
                                     cells)) == column_log::Status::Ok) {
        const size_t rows = cells.size() / columns;
        const size_t first = coords_.size();
        coords_.resize(first + rows);
        payloads_.resize((first + rows) * payload_width_);
        for (size_t c = 0; c < kKeyWidth; ++c) {
            for (size_t r = 0; r < rows; ++r)
                coords_[first + r][c] =
                    std::bit_cast<double>(cells[c * rows + r]);
        }
        double *payloads = payloads_.data() + first * payload_width_;
        for (size_t p = 0; p < payload_width_; ++p) {
            const uint64_t *column = cells.data() + (kKeyWidth + p) * rows;
            for (size_t r = 0; r < rows; ++r)
                payloads[r * payload_width_ + p] =
                    std::bit_cast<double>(column[r]);
        }
        indexFrom(first);
    }
    good_prefix_bytes_ = reader.validBytes();
    loaded_from_disk_ = coords_.size();
    flushed_records_ = coords_.size();
    counter("result_cache.records_loaded").increment(loaded_from_disk_);
    if (block != column_log::Status::End) {
        // One corrupt tail per load at most: the reader stops at the
        // first bad block.
        truncate_needed_ = true;
        rebuild_reason_ = column_log::describe(block);
        counter("result_cache.corrupt_blocks").increment();
        warn("result cache " + path_ + " has a corrupt tail (" +
             rebuild_reason_ + "); kept " +
             std::to_string(loaded_from_disk_) +
             " records, dropping the rest");
    }
}

void
ResultCache::flush()
{
    if (rewrite_needed_) {
        if (coords_.empty() && rebuild_reason_.empty())
            return; // Nothing to persist, nothing to repair.
        good_prefix_bytes_ = column_log::writeHeader(
            path_, {kFileMagic, kFormatVersion, payload_width_,
                    config_digest_, provenance_});
        flushed_records_ = 0;
        rewrite_needed_ = false;
    } else if (truncate_needed_) {
        // Drop the corrupt tail so the next append lands right after
        // the last valid block.
        std::error_code ec;
        std::filesystem::resize_file(path_, good_prefix_bytes_, ec);
        require(!ec, "cannot truncate corrupt result cache tail: " +
                         path_ + " (" + ec.message() + ")");
        truncate_needed_ = false;
    }
    const size_t first = flushed_records_;
    const size_t count = coords_.size() - first;
    if (count == 0)
        return;
    // One block: the key columns, then the payload columns.
    std::vector<uint64_t> cells;
    cells.reserve(count * (kKeyWidth + payload_width_));
    for (size_t c = 0; c < kKeyWidth; ++c) {
        for (size_t r = first; r < coords_.size(); ++r)
            cells.push_back(std::bit_cast<uint64_t>(coords_[r][c]));
    }
    for (size_t p = 0; p < payload_width_; ++p) {
        for (size_t r = first; r < coords_.size(); ++r)
            cells.push_back(
                std::bit_cast<uint64_t>(payloads_[r * payload_width_ + p]));
    }
    good_prefix_bytes_ += column_log::writeBlock(
        path_, good_prefix_bytes_, kBlockMagic,
        static_cast<uint32_t>(count), cells);
    flushed_records_ = coords_.size();
    counter("result_cache.blocks_appended").increment();
    counter("result_cache.records_appended").increment(count);
}

} // namespace carbonx

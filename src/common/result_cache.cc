#include "result_cache.h"

#include <bit>
#include <filesystem>

#include "common/column_log.h"
#include "common/error.h"
#include "common/fnv.h"
#include "common/counters.h"
#include "common/logging.h"

namespace carbonx
{

namespace
{

constexpr column_log::Magic kFileMagic = {'C', 'X', 'R', 'C',
                                          'A', 'C', 'H', 'E'};
constexpr uint32_t kBlockMagic = 0x434b4c42u; // "BLKC" little-endian.

} // namespace

ResultCache::ResultCache(std::string path, uint64_t config_digest,
                         uint32_t payload_width, std::string provenance)
    : path_(std::move(path)), config_digest_(config_digest),
      payload_width_(payload_width), provenance_(std::move(provenance))
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

uint64_t
ResultCache::keyHash(const Key &key) const
{
    return fnv1a64Bytes(key.data(), sizeof(double) * kKeyWidth);
}

const double *
ResultCache::lookup(const Key &key) const
{
    const auto [begin, end] = index_.equal_range(keyHash(key));
    for (auto it = begin; it != end; ++it) {
        if (coords_[it->second] == key)
            return payloads_.data() +
                   static_cast<size_t>(it->second) * payload_width_;
    }
    return nullptr;
}

const double *
ResultCache::find(const Key &key) const
{
    static Counter &c_hits = counter("result_cache.hits");
    static Counter &c_misses = counter("result_cache.misses");
    const double *payload = lookup(key);
    (payload != nullptr ? c_hits : c_misses).increment();
    return payload;
}

bool
ResultCache::insert(const Key &key, const double *payload)
{
    if (lookup(key) != nullptr)
        return false;
    static Counter &c_inserts = counter("result_cache.inserts");
    c_inserts.increment();
    const auto record = static_cast<uint32_t>(coords_.size());
    coords_.push_back(key);
    payloads_.insert(payloads_.end(), payload, payload + payload_width_);
    index_.emplace(keyHash(key), record);
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

    // Columnar within a block: key columns first, then payload
    // columns, each `rows` cells long.
    const size_t columns = kKeyWidth + payload_width_;
    std::vector<uint64_t> cells;
    column_log::Status block;
    while ((block = reader.nextBlock(kBlockMagic,
                                     static_cast<uint32_t>(columns),
                                     cells)) == column_log::Status::Ok) {
        const size_t rows = cells.size() / columns;
        for (size_t r = 0; r < rows; ++r) {
            Key key;
            for (size_t c = 0; c < kKeyWidth; ++c)
                key[c] = std::bit_cast<double>(cells[c * rows + r]);
            index_.emplace(keyHash(key),
                           static_cast<uint32_t>(coords_.size()));
            coords_.push_back(key);
            for (size_t c = kKeyWidth; c < columns; ++c)
                payloads_.push_back(
                    std::bit_cast<double>(cells[c * rows + r]));
        }
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

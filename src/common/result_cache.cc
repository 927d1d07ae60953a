#include "result_cache.h"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "common/fnv.h"
#include "common/counters.h"
#include "common/logging.h"

namespace carbonx
{

namespace
{

constexpr char kFileMagic[8] = {'C', 'X', 'R', 'C', 'A', 'C', 'H', 'E'};
constexpr uint32_t kBlockMagic = 0x434b4c42u; // "BLKC" little-endian.

/** Append a trivially copyable value to a byte buffer. */
template <typename T>
void
put(std::string &buf, const T &value)
{
    const char *raw = reinterpret_cast<const char *>(&value);
    buf.append(raw, sizeof(T));
}

/** Read a trivially copyable value; false on short read. */
template <typename T>
bool
get(std::istream &is, T &value)
{
    return static_cast<bool>(
        is.read(reinterpret_cast<char *>(&value), sizeof(T)));
}

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
    std::ifstream is(path_, std::ios::binary);
    if (!is.is_open())
        return; // New cache; nothing on disk yet.
    is.seekg(0, std::ios::end);
    const uint64_t file_size = static_cast<uint64_t>(is.tellg());
    is.seekg(0, std::ios::beg);

    const auto fail = [&](const std::string &why) {
        counter("result_cache.rebuilds").increment();
        rebuild_reason_ = why;
        rewrite_needed_ = true;
        truncate_needed_ = false;
        coords_.clear();
        payloads_.clear();
        index_.clear();
        loaded_from_disk_ = 0;
        flushed_records_ = 0;
        good_prefix_bytes_ = 0;
        warn("result cache " + path_ + " discarded (" + why +
             "); rebuilding from scratch");
    };

    // --- Header ---------------------------------------------------
    char magic[8];
    uint32_t version = 0;
    uint32_t width = 0;
    uint64_t digest = 0;
    uint32_t prov_size = 0;
    uint32_t reserved = 0;
    if (!is.read(magic, sizeof(magic)) || !get(is, version) ||
        !get(is, width) || !get(is, digest) || !get(is, prov_size) ||
        !get(is, reserved)) {
        return fail("truncated header");
    }
    if (std::memcmp(magic, kFileMagic, sizeof(magic)) != 0)
        return fail("bad magic");
    // An oversized provenance length is itself corruption; bound it
    // before allocating.
    if (prov_size > (1u << 20))
        return fail("implausible provenance size");
    std::string prov(prov_size, '\0');
    if (prov_size > 0 && !is.read(prov.data(), prov_size))
        return fail("truncated provenance");
    uint64_t expected = kFnvOffsetBasis;
    expected = fnv1a64Bytes(magic, sizeof(magic), expected);
    expected = fnv1a64Bytes(&version, sizeof(version), expected);
    expected = fnv1a64Bytes(&width, sizeof(width), expected);
    expected = fnv1a64Bytes(&digest, sizeof(digest), expected);
    expected = fnv1a64Bytes(&prov_size, sizeof(prov_size), expected);
    expected = fnv1a64Bytes(&reserved, sizeof(reserved), expected);
    expected = fnv1a64Bytes(prov.data(), prov.size(), expected);
    uint64_t header_digest = 0;
    if (!get(is, header_digest))
        return fail("truncated header digest");
    if (header_digest != expected)
        return fail("header digest mismatch");
    if (version != kFormatVersion)
        return fail("format version " + std::to_string(version) +
                    " != " + std::to_string(kFormatVersion));
    if (width != payload_width_)
        return fail("payload width " + std::to_string(width) + " != " +
                    std::to_string(payload_width_));
    if (digest != config_digest_)
        return fail("config digest mismatch");
    provenance_ = std::move(prov);
    rewrite_needed_ = false;
    good_prefix_bytes_ = static_cast<uint64_t>(is.tellg());

    // --- Blocks ---------------------------------------------------
    const size_t doubles_per_record = kKeyWidth + payload_width_;
    while (true) {
        uint32_t block_magic = 0;
        uint32_t count = 0;
        if (!get(is, block_magic)) {
            if (is.eof())
                break; // Clean end of file.
            truncate_needed_ = true;
            rebuild_reason_ = "unreadable block header";
            break;
        }
        if (block_magic != kBlockMagic || !get(is, count) || count == 0) {
            truncate_needed_ = true;
            rebuild_reason_ = "bad block header";
            break;
        }
        const size_t data_doubles =
            static_cast<size_t>(count) * doubles_per_record;
        // A corrupted count would otherwise size a huge allocation;
        // the block (plus its digest) must fit in the bytes left.
        const uint64_t pos = static_cast<uint64_t>(is.tellg());
        if (data_doubles * sizeof(double) + sizeof(uint64_t) >
            file_size - pos) {
            truncate_needed_ = true;
            rebuild_reason_ = "block larger than file";
            break;
        }
        std::vector<double> data(data_doubles);
        uint64_t block_digest = 0;
        if (!is.read(reinterpret_cast<char *>(data.data()),
                     static_cast<std::streamsize>(data_doubles *
                                                  sizeof(double))) ||
            !get(is, block_digest)) {
            truncate_needed_ = true;
            rebuild_reason_ = "truncated block";
            break;
        }
        uint64_t want = kFnvOffsetBasis;
        want = fnv1a64Bytes(&block_magic, sizeof(block_magic), want);
        want = fnv1a64Bytes(&count, sizeof(count), want);
        want = fnv1a64Bytes(data.data(), data_doubles * sizeof(double),
                            want);
        if (block_digest != want) {
            truncate_needed_ = true;
            rebuild_reason_ = "block digest mismatch";
            break;
        }
        // Columnar within the block: key columns first, then payload
        // columns, each a contiguous double[count].
        const size_t base = coords_.size();
        coords_.resize(base + count);
        payloads_.resize((base + count) * payload_width_);
        for (size_t c = 0; c < kKeyWidth; ++c) {
            const double *col = data.data() + c * count;
            for (size_t r = 0; r < count; ++r)
                coords_[base + r][c] = col[r];
        }
        for (size_t p = 0; p < payload_width_; ++p) {
            const double *col = data.data() + (kKeyWidth + p) * count;
            for (size_t r = 0; r < count; ++r)
                payloads_[(base + r) * payload_width_ + p] = col[r];
        }
        for (size_t r = 0; r < count; ++r) {
            index_.emplace(keyHash(coords_[base + r]),
                           static_cast<uint32_t>(base + r));
        }
        good_prefix_bytes_ = static_cast<uint64_t>(is.tellg());
    }
    loaded_from_disk_ = coords_.size();
    flushed_records_ = coords_.size();
    counter("result_cache.records_loaded").increment(loaded_from_disk_);
    if (truncate_needed_) {
        // One corrupt tail per load at most: the scan stops at the
        // first block whose digest fails.
        counter("result_cache.corrupt_blocks").increment();
        warn("result cache " + path_ + " has a corrupt tail (" +
             rebuild_reason_ + "); kept " +
             std::to_string(loaded_from_disk_) +
             " records, dropping the rest");
    }
}

void
ResultCache::writeFreshFile()
{
    std::string buf;
    put(buf, kFileMagic);
    put(buf, kFormatVersion);
    put(buf, payload_width_);
    put(buf, config_digest_);
    const auto prov_size = static_cast<uint32_t>(provenance_.size());
    put(buf, prov_size);
    const uint32_t reserved = 0;
    put(buf, reserved);
    buf += provenance_;
    put(buf, fnv1a64Bytes(buf.data(), buf.size()));

    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    require(os.is_open(),
            "cannot write result cache file " + path_);
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    os.flush();
    require(os.good(), "result cache write failed: " + path_);
    good_prefix_bytes_ = buf.size();
    flushed_records_ = 0;
    rewrite_needed_ = false;
    truncate_needed_ = false;
}

void
ResultCache::appendBlock(size_t first, size_t count)
{
    std::string data;
    data.reserve(count * (kKeyWidth + payload_width_) * sizeof(double));
    for (size_t c = 0; c < kKeyWidth; ++c) {
        for (size_t r = 0; r < count; ++r)
            put(data, coords_[first + r][c]);
    }
    for (size_t p = 0; p < payload_width_; ++p) {
        for (size_t r = 0; r < count; ++r)
            put(data, payloads_[(first + r) * payload_width_ + p]);
    }

    std::string block;
    put(block, kBlockMagic);
    put(block, static_cast<uint32_t>(count));
    block += data;
    uint64_t digest = kFnvOffsetBasis;
    digest = fnv1a64Bytes(block.data(), block.size(), digest);
    put(block, digest);

    std::ofstream os(path_,
                     std::ios::binary | std::ios::in | std::ios::out);
    require(os.is_open(), "cannot append to result cache " + path_);
    os.seekp(static_cast<std::streamoff>(good_prefix_bytes_));
    os.write(block.data(), static_cast<std::streamsize>(block.size()));
    os.flush();
    require(os.good(), "result cache append failed: " + path_);
    good_prefix_bytes_ += block.size();
    counter("result_cache.blocks_appended").increment();
    counter("result_cache.records_appended").increment(count);
}

void
ResultCache::flush()
{
    if (rewrite_needed_) {
        if (coords_.empty() && rebuild_reason_.empty())
            return; // Nothing to persist, nothing to repair.
        writeFreshFile();
    } else if (truncate_needed_) {
        // Drop the corrupt tail so the next append lands right after
        // the last valid block.
        std::error_code ec;
        std::filesystem::resize_file(path_, good_prefix_bytes_, ec);
        require(!ec, "cannot truncate corrupt result cache tail: " +
                         path_ + " (" + ec.message() + ")");
        truncate_needed_ = false;
    }
    if (flushed_records_ == coords_.size())
        return;
    appendBlock(flushed_records_, coords_.size() - flushed_records_);
    flushed_records_ = coords_.size();
}

} // namespace carbonx

/**
 * @file
 * Persistent on-disk cache of design-point evaluation results.
 *
 * The design-space sweeps simulate the same lattice points over and
 * over: interrupted sweeps restart from zero, a re-sweep after one
 * axis changed re-simulates every unchanged point, and `carbonx
 * explain` re-runs the coarse sweep it just reported. ResultCache
 * removes that waste: every evaluation is appended to a binary cache
 * file keyed by the FNV-1a config digest (see common/fnv.h and the
 * provenance layer) plus the point's coordinates, and any later run
 * with the same digest reuses the stored payload bit-for-bit.
 *
 * The file is a column log (common/column_log.h) with magic
 * "CXRCACHE", whose header column word holds the payload width; each
 * block holds the 4 key columns, then the payload columns. A column
 * is one contiguous run of doubles, so a reader can stride through
 * any single column without touching the rest. Appends happen a
 * whole block at a time (one write + flush per checkpoint), which is
 * what makes interrupted sweeps resumable: a crash mid-append leaves
 * a damaged tail block that the next open detects and drops, keeping
 * every fully flushed record.
 *
 * Corruption policy: any header mismatch (magic, version, digest,
 * payload width, config digest) rebuilds the cache from empty; any
 * bad block, a 1-3 byte tail included, drops that block and
 * everything after it and is cut off on the next flush. Both paths
 * are reported via rebuildReason(), and never crash or silently
 * serve stale data.
 *
 * In memory, records live in two flat arrays (keys, payloads) that an
 * open-addressing table of record ids indexes. The table's hash is a
 * cheap mix of the four key words and is never written to disk; keys
 * compare bit for bit, so +0.0 and -0.0 are distinct keys. A load
 * sizes all three from the file length, so opening a cache makes no
 * allocation per record.
 *
 * Not thread-safe: the sweep drivers call it only from the
 * coordinating thread, between parallel evaluation waves.
 */

#ifndef CARBONX_COMMON_RESULT_CACHE_H
#define CARBONX_COMMON_RESULT_CACHE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace carbonx
{

class ResultCache
{
  public:
    /** Bumped on any layout change; mismatches trigger a rebuild. */
    static constexpr uint32_t kFormatVersion = 1;

    /** Number of key coordinates per record. */
    static constexpr size_t kKeyWidth = 4;

    /** A record key: the design point's four axis coordinates. */
    using Key = std::array<double, kKeyWidth>;

    /**
     * Open (or prepare to create) the cache file at @p path.
     * An existing file is loaded when its header matches @p
     * config_digest and @p payload_width; otherwise the cache starts
     * empty and the file is rewritten on the next flush(), with the
     * reason available from rebuildReason().
     *
     * @param provenance Free-form manifest text (typically the JSON
     *        provenance of the producing run) embedded in the header
     *        of a newly created file.
     */
    ResultCache(std::string path, uint64_t config_digest,
                uint32_t payload_width, std::string provenance = "");

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** Best-effort flush; never throws. */
    ~ResultCache();

    /**
     * The stored payload for @p key (payload_width doubles), or
     * nullptr on a miss; keys match bit for bit. The pointer is
     * invalidated by insert().
     */
    const double *find(const Key &key) const;

    /**
     * Store @p payload (payload_width doubles) under @p key, buffered
     * until the next flush(). Duplicate keys keep the first payload
     * and return false.
     */
    bool insert(const Key &key, const double *payload);

    /**
     * Append every record buffered since the last flush as one block
     * (rewriting the whole file first when the header was invalid).
     * @throws UserError when the file cannot be written.
     */
    void flush();

    /** Records resident (loaded + inserted). */
    size_t size() const { return coords_.size(); }

    /** Records recovered from the file at construction. */
    size_t loadedFromDisk() const { return loaded_from_disk_; }

    /**
     * Why the on-disk state was (fully or partially) discarded at
     * construction; empty when the load was clean.
     */
    const std::string &rebuildReason() const { return rebuild_reason_; }

    const std::string &path() const { return path_; }

  private:
    void load();
    /**
     * The slot holding @p key's record id, or the empty slot where it
     * would go.
     */
    size_t slotOf(const Key &key) const;
    /**
     * Index records [@p first, size()); when that would fill the
     * table past half, double it until it is at most half full and
     * re-index every record instead.
     */
    void indexFrom(size_t first);

    /** An empty table slot. */
    static constexpr uint32_t kEmptySlot = UINT32_MAX;

    std::string path_;
    uint64_t config_digest_ = 0;
    uint32_t payload_width_ = 0;
    std::string provenance_;

    std::vector<Key> coords_;
    std::vector<double> payloads_; ///< size() * payload_width_ flat.
    /**
     * Open-addressing table (linear probing, power-of-two size, at
     * most half full) of record ids into coords_ and payloads_.
     */
    std::vector<uint32_t> slots_;

    size_t loaded_from_disk_ = 0;
    size_t flushed_records_ = 0;
    /** Byte length of the valid on-disk prefix (header + blocks). */
    uint64_t good_prefix_bytes_ = 0;
    /** True when the file must be rewritten from scratch on flush. */
    bool rewrite_needed_ = true;
    /** True when a valid file has a corrupt tail to truncate away. */
    bool truncate_needed_ = false;
    std::string rebuild_reason_;
};

} // namespace carbonx

#endif // CARBONX_COMMON_RESULT_CACHE_H

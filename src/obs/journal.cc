#include "journal.h"

#include <cstring>
#include <fstream>

#include "common/error.h"
#include "common/fnv.h"
#include "common/counters.h"
#include "common/logging.h"

namespace carbonx::obs
{

namespace
{

constexpr char kFileMagic[8] = {'C', 'X', 'J', 'O', 'R', 'N', 'A', 'L'};
constexpr uint32_t kBlockMagic = 0x4a4b4c42u; // "BLKJ" little-endian.

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

/** Column c of @p row as its 8-byte on-disk cell. */
uint64_t
cellOf(const DecisionRow &row, size_t c)
{
    const auto bits = [](double v) {
        uint64_t u = 0;
        std::memcpy(&u, &v, sizeof(u));
        return u;
    };
    switch (c) {
    case 0:
        return row.point_id;
    case 1:
        return row.wave;
    case 2:
        return row.worker;
    case 3:
        return row.lane;
    case 4:
        return static_cast<uint64_t>(row.verdict);
    case 5:
        return bits(row.predicted_kg);
    case 6:
        return bits(row.actual_kg);
    case 7:
        return bits(row.margin_kg);
    default:
        return row.ts_us;
    }
}

/** Inverse of cellOf: scatter cell @p c back into @p row. */
void
setCell(DecisionRow &row, size_t c, uint64_t cell)
{
    const auto real = [](uint64_t u) {
        double v = 0.0;
        std::memcpy(&v, &u, sizeof(v));
        return v;
    };
    switch (c) {
    case 0:
        row.point_id = cell;
        break;
    case 1:
        row.wave = static_cast<uint32_t>(cell);
        break;
    case 2:
        row.worker = static_cast<uint16_t>(cell);
        break;
    case 3:
        row.lane = static_cast<uint16_t>(cell);
        break;
    case 4:
        row.verdict = static_cast<DecisionVerdict>(cell);
        break;
    case 5:
        row.predicted_kg = real(cell);
        break;
    case 6:
        row.actual_kg = real(cell);
        break;
    case 7:
        row.margin_kg = real(cell);
        break;
    default:
        row.ts_us = cell;
        break;
    }
}

} // namespace

const char *
decisionVerdictName(DecisionVerdict verdict)
{
    switch (verdict) {
    case DecisionVerdict::Evaluated:
        return "evaluated";
    case DecisionVerdict::Interpolated:
        return "interpolated";
    case DecisionVerdict::Skipped:
        return "skipped";
    case DecisionVerdict::CacheHit:
        return "cache_hit";
    case DecisionVerdict::ReArmed:
        return "re_armed";
    case DecisionVerdict::CacheCorrupt:
        return "cache_corrupt";
    }
    return "?";
}

uint64_t
decisionPointId(const std::array<double, 4> &coords)
{
    // Byte-identical to ResultCache::keyHash over the same point, so
    // a journal row's point_id indexes straight into the cache.
    return fnv1a64Bytes(coords.data(), sizeof(double) * coords.size());
}

DecisionJournal::DecisionJournal(std::string path,
                                 uint64_t config_digest,
                                 std::string provenance)
    : path_(std::move(path)), config_digest_(config_digest),
      provenance_(std::move(provenance)),
      epoch_(std::chrono::steady_clock::now())
{
    require(!path_.empty(), "decision journal path must not be empty");
    writeHeader();
    sinks_.resize(1); // The coordinating thread always has a sink.
}

DecisionJournal::~DecisionJournal()
{
    try {
        flush();
    } catch (const std::exception &e) {
        // A journal that cannot be persisted only costs forensics;
        // never let it tear down the process during unwinding.
        warn(std::string("decision journal flush failed: ") + e.what());
    }
}

void
DecisionJournal::writeHeader()
{
    std::string buf;
    put(buf, kFileMagic);
    put(buf, kFormatVersion);
    put(buf, kColumns);
    put(buf, config_digest_);
    const auto prov_size = static_cast<uint32_t>(provenance_.size());
    put(buf, prov_size);
    const uint32_t reserved = 0;
    put(buf, reserved);
    buf += provenance_;
    put(buf, fnv1a64Bytes(buf.data(), buf.size()));

    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    require(os.is_open(), "cannot write decision journal " + path_);
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    os.flush();
    require(os.good(), "decision journal write failed: " + path_);
}

void
DecisionJournal::ensureSinks(size_t worker_ids)
{
    if (worker_ids > sinks_.size())
        sinks_.resize(worker_ids);
}

DecisionJournal::Sink &
DecisionJournal::sink(size_t worker)
{
    // Build the message only on failure: this accessor sits on the
    // per-row hot path and must not allocate.
    if (worker >= sinks_.size())
        ensure(false,
               "decision journal sink index out of range (ensureSinks "
               "not called?)");
    return sinks_[worker];
}

uint64_t
DecisionJournal::nowUs() const
{
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - epoch_);
    return static_cast<uint64_t>(us.count());
}

size_t
DecisionJournal::pendingRows() const
{
    size_t n = 0;
    for (const Sink &s : sinks_)
        n += s.rows_.size();
    return n;
}

void
DecisionJournal::flush()
{
    staged_.clear();
    for (Sink &s : sinks_) {
        staged_.insert(staged_.end(), s.rows_.begin(), s.rows_.end());
        s.rows_.clear(); // Keeps capacity: the warm path stays
                         // allocation-free across waves.
    }
    if (staged_.empty())
        return;

    const auto count = static_cast<uint32_t>(staged_.size());
    std::string block;
    block.reserve(sizeof(kBlockMagic) + sizeof(count) +
                  staged_.size() * kColumns * sizeof(uint64_t) +
                  sizeof(uint64_t));
    put(block, kBlockMagic);
    put(block, count);
    for (size_t c = 0; c < kColumns; ++c) {
        for (const DecisionRow &row : staged_)
            put(block, cellOf(row, c));
    }
    uint64_t digest = kFnvOffsetBasis;
    digest = fnv1a64Bytes(block.data(), block.size(), digest);
    put(block, digest);

    std::ofstream os(path_, std::ios::binary | std::ios::app);
    require(os.is_open(), "cannot append to decision journal " + path_);
    os.write(block.data(), static_cast<std::streamsize>(block.size()));
    os.flush();
    require(os.good(), "decision journal append failed: " + path_);
    flushed_rows_ += staged_.size();
    counter("journal.blocks_appended").increment();
    counter("journal.rows_appended").increment(count);
}

JournalData
readJournal(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    require(is.is_open(), "cannot open decision journal: " + path);
    is.seekg(0, std::ios::end);
    const uint64_t file_size = static_cast<uint64_t>(is.tellg());
    is.seekg(0, std::ios::beg);

    const auto fail = [&](const std::string &why) -> JournalData {
        throw Error("decision journal " + path + ": " + why);
    };

    // --- Header ---------------------------------------------------
    char magic[8];
    uint32_t version = 0;
    uint32_t columns = 0;
    uint64_t digest = 0;
    uint32_t prov_size = 0;
    uint32_t reserved = 0;
    if (!is.read(magic, sizeof(magic)) || !get(is, version) ||
        !get(is, columns) || !get(is, digest) || !get(is, prov_size) ||
        !get(is, reserved))
        return fail("truncated header");
    if (std::memcmp(magic, kFileMagic, sizeof(magic)) != 0)
        return fail("bad magic");
    if (prov_size > (1u << 20))
        return fail("implausible provenance size");
    std::string prov(prov_size, '\0');
    if (prov_size > 0 && !is.read(prov.data(), prov_size))
        return fail("truncated provenance");
    uint64_t expected = kFnvOffsetBasis;
    expected = fnv1a64Bytes(magic, sizeof(magic), expected);
    expected = fnv1a64Bytes(&version, sizeof(version), expected);
    expected = fnv1a64Bytes(&columns, sizeof(columns), expected);
    expected = fnv1a64Bytes(&digest, sizeof(digest), expected);
    expected = fnv1a64Bytes(&prov_size, sizeof(prov_size), expected);
    expected = fnv1a64Bytes(&reserved, sizeof(reserved), expected);
    expected = fnv1a64Bytes(prov.data(), prov.size(), expected);
    uint64_t header_digest = 0;
    if (!get(is, header_digest))
        return fail("truncated header digest");
    if (header_digest != expected)
        return fail("header digest mismatch");
    if (version != DecisionJournal::kFormatVersion)
        return fail("format version " + std::to_string(version) +
                    " != " +
                    std::to_string(DecisionJournal::kFormatVersion));
    if (columns != DecisionJournal::kColumns)
        return fail("column count " + std::to_string(columns) +
                    " != " + std::to_string(DecisionJournal::kColumns));

    JournalData out;
    out.config_digest = digest;
    out.provenance = std::move(prov);

    // --- Blocks ---------------------------------------------------
    while (true) {
        uint32_t block_magic = 0;
        uint32_t count = 0;
        if (!get(is, block_magic)) {
            if (is.eof() && is.gcount() == 0)
                break; // Clean end of file.
            // A 1-3 byte tail is a crash mid-append, not a clean end;
            // report it rather than silently dropping the bytes.
            out.truncation_reason = "unreadable block header";
            break;
        }
        if (block_magic != kBlockMagic || !get(is, count) ||
            count == 0) {
            out.truncation_reason = "bad block header";
            break;
        }
        const size_t cells =
            static_cast<size_t>(count) * DecisionJournal::kColumns;
        // A corrupted count would otherwise size a huge allocation;
        // the block (plus its digest) must fit in the bytes left.
        const uint64_t pos = static_cast<uint64_t>(is.tellg());
        if (cells * sizeof(uint64_t) + sizeof(uint64_t) >
            file_size - pos) {
            out.truncation_reason = "block larger than file";
            break;
        }
        std::vector<uint64_t> data(cells);
        uint64_t block_digest = 0;
        if (!is.read(reinterpret_cast<char *>(data.data()),
                     static_cast<std::streamsize>(cells *
                                                  sizeof(uint64_t))) ||
            !get(is, block_digest)) {
            out.truncation_reason = "truncated block";
            break;
        }
        uint64_t want = kFnvOffsetBasis;
        want = fnv1a64Bytes(&block_magic, sizeof(block_magic), want);
        want = fnv1a64Bytes(&count, sizeof(count), want);
        want = fnv1a64Bytes(data.data(), cells * sizeof(uint64_t),
                            want);
        if (block_digest != want) {
            out.truncation_reason = "block digest mismatch";
            break;
        }
        const size_t base = out.rows.size();
        out.rows.resize(base + count);
        for (size_t c = 0; c < DecisionJournal::kColumns; ++c) {
            const uint64_t *col = data.data() + c * count;
            for (size_t r = 0; r < count; ++r)
                setCell(out.rows[base + r], c, col[r]);
        }
    }
    if (!out.truncation_reason.empty()) {
        warn("decision journal " + path + " has a corrupt tail (" +
             out.truncation_reason + "); kept " +
             std::to_string(out.rows.size()) +
             " rows, dropping the rest");
    }
    return out;
}

} // namespace carbonx::obs

#include "journal.h"

#include <bit>
#include <cmath>

#include "common/column_log.h"
#include "common/error.h"
#include "common/fnv.h"
#include "common/counters.h"
#include "common/logging.h"

namespace carbonx::obs
{

namespace
{

constexpr column_log::Magic kFileMagic = {'C', 'X', 'J', 'O',
                                          'R', 'N', 'A', 'L'};
constexpr uint32_t kBlockMagic = 0x4a4b4c42u; // "BLKJ" little-endian.

using Cells = std::array<uint64_t, DecisionJournal::kColumns>;

/** @p row as its on-disk cells, in column (and field) order. */
Cells
cellsOf(const DecisionRow &row)
{
    return {row.point_id, row.wave, row.worker, row.lane,
            static_cast<uint64_t>(row.verdict),
            std::bit_cast<uint64_t>(row.predicted_kg),
            std::bit_cast<uint64_t>(row.actual_kg),
            std::bit_cast<uint64_t>(row.margin_kg), row.ts_us};
}

/** Inverse of cellsOf. */
DecisionRow
rowOf(const Cells &c)
{
    return {c[0], static_cast<uint32_t>(c[1]), static_cast<uint16_t>(c[2]),
            static_cast<uint16_t>(c[3]), static_cast<DecisionVerdict>(c[4]),
            std::bit_cast<double>(c[5]), std::bit_cast<double>(c[6]),
            std::bit_cast<double>(c[7]), c[8]};
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

bool
isRevival(const DecisionRow &row)
{
    return row.verdict == DecisionVerdict::ReArmed ||
        (row.verdict == DecisionVerdict::CacheHit &&
         !std::isnan(row.margin_kg));
}

uint64_t
decisionPointId(const std::array<double, 4> &coords)
{
    // FNV-1a over the 32 bytes of the point's ResultCache::Key, so a
    // journal row's point_id names the cache record with the same
    // coordinate bits.
    return fnv1a64Bytes(coords.data(), sizeof(double) * coords.size());
}

DecisionJournal::DecisionJournal(std::string path,
                                 uint64_t config_digest,
                                 std::string provenance)
    : path_(std::move(path)), config_digest_(config_digest),
      epoch_(std::chrono::steady_clock::now())
{
    require(!path_.empty(), "decision journal path must not be empty");
    file_bytes_ = column_log::writeHeader(
        path_, {kFileMagic, kFormatVersion, kColumns, config_digest_,
                std::move(provenance)});
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
    const size_t count = pendingRows();
    if (count == 0)
        return;
    // Drain sinks in worker order straight into the block's columns.
    cells_.resize(count * kColumns);
    size_t r = 0;
    for (Sink &s : sinks_) {
        for (const DecisionRow &row : s.rows_) {
            const Cells cells = cellsOf(row);
            for (size_t c = 0; c < kColumns; ++c)
                cells_[c * count + r] = cells[c];
            ++r;
        }
        s.rows_.clear(); // Keeps capacity: the warm path stays
                         // allocation-free across waves.
    }
    file_bytes_ += column_log::writeBlock(path_, file_bytes_, kBlockMagic,
                                          static_cast<uint32_t>(count),
                                          cells_);
    flushed_rows_ += count;
    counter("journal.blocks_appended").increment();
    counter("journal.rows_appended").increment(count);
}

JournalData
readJournal(const std::string &path)
{
    column_log::Reader reader(path);
    require(reader.isOpen(), "cannot open decision journal: " + path);

    const auto fail = [&](const std::string &why) -> JournalData {
        throw Error("decision journal " + path + ": " + why);
    };

    column_log::Header header;
    const column_log::Status status = reader.readHeader(kFileMagic, header);
    if (status != column_log::Status::Ok)
        return fail(column_log::describe(status));
    if (header.version != DecisionJournal::kFormatVersion)
        return fail("format version " + std::to_string(header.version) +
                    " != " +
                    std::to_string(DecisionJournal::kFormatVersion));
    if (header.columns != DecisionJournal::kColumns)
        return fail("column count " + std::to_string(header.columns) +
                    " != " + std::to_string(DecisionJournal::kColumns));

    JournalData out;
    out.config_digest = header.config_digest;
    out.provenance = std::move(header.provenance);

    std::vector<uint64_t> cells;
    column_log::Status block;
    while ((block = reader.nextBlock(kBlockMagic, DecisionJournal::kColumns,
                                     cells)) == column_log::Status::Ok) {
        const size_t count = cells.size() / DecisionJournal::kColumns;
        for (size_t r = 0; r < count; ++r) {
            Cells row;
            for (size_t c = 0; c < row.size(); ++c)
                row[c] = cells[c * count + r];
            out.rows.push_back(rowOf(row));
        }
    }
    if (block != column_log::Status::End) {
        out.truncation_reason = column_log::describe(block);
        warn("decision journal " + path + " has a corrupt tail (" +
             out.truncation_reason + "); kept " +
             std::to_string(out.rows.size()) +
             " rows, dropping the rest");
    }
    return out;
}

} // namespace carbonx::obs

/**
 * @file
 * The sweep decision journal: an append-only, columnar event log
 * with one row per design-point decision.
 *
 * The adaptive sweeper and the batched evaluator collapse thousands
 * of per-point decisions (simulate, interpolate-and-skip, cache
 * replay, margin-driven revival) into a handful of aggregate
 * counters. The journal keeps the individual decisions: which point,
 * in which wave, on which worker/lane, with what verdict, what the
 * optimizer predicted versus what the simulation produced, and the
 * margin in force when the decision was made. `carbonx inspect`
 * renders the file into decision breakdowns, wave timelines and
 * per-worker utilization; tests reconcile its rows against the
 * `sweep.*` metrics exactly.
 *
 * The file is a column log (common/column_log.h) with magic
 * "CXJORNAL" and kColumns columns of 8-byte cells.
 *
 * Column order: point_id, wave, worker, lane, verdict (all u64),
 * predicted_kg, actual_kg, margin_kg (f64; NaN = not applicable),
 * ts_us (u64, monotonic since journal creation).
 *
 * Writer threading contract: the coordinating thread constructs the
 * journal, sizes the per-worker sinks (ensureSinks) and flushes;
 * inside a parallel wave each worker records only into its own sink.
 * record() is a plain push_back — after the first wave has warmed the
 * sink capacities the hot path allocates nothing (guarded by the
 * counting-operator-new test), and flush() drains sinks in worker
 * order so the file contents are deterministic at any thread count.
 *
 * Corruption policy: a corrupt header means no trustworthy rows, so
 * readJournal throws Error; otherwise it keeps the clean prefix of
 * blocks and reports why the tail was dropped — a crash mid-append
 * never loses flushed decisions.
 */

#ifndef CARBONX_OBS_JOURNAL_H
#define CARBONX_OBS_JOURNAL_H

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace carbonx::obs
{

/** What the optimizer decided to do with one design point. */
enum class DecisionVerdict : uint8_t
{
    /** Simulated in a coarse or exhaustive wave. */
    Evaluated = 0,
    /** Triaged by interpolation, then simulated in a refine wave. */
    Interpolated = 1,
    /** Pruned: margin-padded prediction was provably non-optimal. */
    Skipped = 2,
    /** Replayed bit-for-bit from the persistent result cache; has a
     *  margin only when a margin inflation revived the point. */
    CacheHit = 3,
    /** Previously skipped, revived by a margin inflation, simulated. */
    ReArmed = 4,
    /** The attached result cache dropped corrupt on-disk state. */
    CacheCorrupt = 5,
};

/** Number of distinct verdicts (array-sizing constant). */
inline constexpr size_t kDecisionVerdicts = 6;

/** Stable lowercase name of @p verdict ("evaluated", ...). */
const char *decisionVerdictName(DecisionVerdict verdict);

/** One journaled decision. */
struct DecisionRow
{
    /** FNV-1a over the point's four axis coordinates — the same
     *  bytes (and therefore the same hash) the result cache indexes
     *  by, so journal rows and cache records cross-reference. */
    uint64_t point_id = 0;
    uint32_t wave = 0;   ///< Global wave index within the run.
    uint16_t worker = 0; ///< Worker id (0 = coordinating thread).
    uint16_t lane = 0;   ///< Lane within the wave's SoA batch.
    DecisionVerdict verdict = DecisionVerdict::Evaluated;
    double predicted_kg = 0.0; ///< Interpolated total (NaN: none).
    double actual_kg = 0.0;    ///< Simulated/cached total (NaN: none).
    double margin_kg = 0.0;    ///< Margin at decision time (NaN: none).
    uint64_t ts_us = 0;        ///< Monotonic, since journal creation.
};

/**
 * True when @p row revives a skipped point: a re_armed row, or a
 * cache_hit row with a margin (a revived point the cache served).
 */
bool isRevival(const DecisionRow &row);

/** The journal point id of a design point's four coordinates. */
uint64_t decisionPointId(const std::array<double, 4> &coords);

class DecisionJournal
{
  public:
    /** Bumped on any layout change; readers reject mismatches. */
    static constexpr uint32_t kFormatVersion = 1;

    /** Fixed column count of the block format. */
    static constexpr uint32_t kColumns = 9;

    /**
     * Per-worker append buffer. Workers obtain their own sink once
     * per wave and push rows into it with no locking; the journal
     * drains all sinks on flush. clear-on-flush keeps the storage,
     * so a warmed sink records without allocating.
     */
    class Sink
    {
      public:
        void record(const DecisionRow &row) { rows_.push_back(row); }
        size_t pendingRows() const { return rows_.size(); }
        size_t capacity() const { return rows_.capacity(); }

      private:
        friend class DecisionJournal;
        std::vector<DecisionRow> rows_;
    };

    /**
     * Create (truncating) the journal file at @p path and write its
     * header. The journal is a per-run audit log, not a cross-run
     * cache: every run starts a fresh file. @throws UserError when
     * the file cannot be written.
     */
    DecisionJournal(std::string path, uint64_t config_digest,
                    std::string provenance = "");

    DecisionJournal(const DecisionJournal &) = delete;
    DecisionJournal &operator=(const DecisionJournal &) = delete;

    /** Best-effort flush; never throws. */
    ~DecisionJournal();

    /**
     * Grow the sink array to at least @p worker_ids entries.
     * Coordinating thread only, never concurrent with record().
     */
    void ensureSinks(size_t worker_ids);

    /** Worker @p worker's sink; ensureSinks must have covered it. */
    Sink &sink(size_t worker);

    size_t sinkCount() const { return sinks_.size(); }

    /** Microseconds since journal creation (monotonic clock). */
    uint64_t nowUs() const;

    /**
     * The wave index the next claimed wave will get. The counter
     * lives here, not in an evaluator, so wave ids stay unique across
     * the whole run even though each optimize pass constructs its own
     * evaluator. Rows journaled outside any evaluation wave (cache
     * replays, skips) use this value: they belong to the wave about
     * to run.
     */
    uint32_t nextWave() const { return wave_base_; }

    /**
     * Claim @p count consecutive wave ids, returning the first.
     * Coordinating thread only, before the parallel wave launches.
     */
    uint32_t claimWaves(uint32_t count)
    {
        const uint32_t base = wave_base_;
        wave_base_ += count;
        return base;
    }

    /**
     * Append every row recorded since the last flush as one block,
     * draining sinks in worker order (deterministic file contents at
     * any thread count). Coordinating thread only.
     * @throws UserError when the file cannot be written.
     */
    void flush();

    /** Rows durably appended to the file so far. */
    size_t flushedRows() const { return flushed_rows_; }

    /** Rows recorded but not yet flushed, across all sinks. */
    size_t pendingRows() const;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    uint64_t config_digest_ = 0;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Sink> sinks_;
    std::vector<uint64_t> cells_; ///< Flush scratch (reused).
    uint64_t file_bytes_ = 0;     ///< Where the next block goes.
    size_t flushed_rows_ = 0;
    uint32_t wave_base_ = 0;
};

/** Everything readJournal recovers from one journal file. */
struct JournalData
{
    uint64_t config_digest = 0;
    std::string provenance;
    std::vector<DecisionRow> rows;
    /**
     * Why the scan stopped before end of file (truncated or corrupt
     * tail block); empty when the whole file was clean. The rows
     * above are the verified clean prefix either way.
     */
    std::string truncation_reason;
};

/**
 * Load the journal at @p path, verifying every digest. Corrupt or
 * truncated tail blocks are dropped (reported via truncation_reason)
 * and the clean prefix is returned; a missing file or a corrupt
 * header — where no row can be trusted — throws Error instead.
 */
JournalData readJournal(const std::string &path);

} // namespace carbonx::obs

#endif // CARBONX_OBS_JOURNAL_H

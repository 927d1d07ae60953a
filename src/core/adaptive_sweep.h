/**
 * @file
 * Adaptive multi-resolution sweep driver and the typed sweep result
 * cache.
 *
 * The exhaustive search of CarbonExplorer::optimize simulates every
 * lattice point of the design space, yet on realistic spaces the
 * carbon surface is smooth: most of the lattice lies far above the
 * optimum and far inside the Pareto-dominated region. AdaptiveSweeper
 * exploits that: it evaluates a coarse sub-lattice, ranks the cells
 * between coarse points by how close their corners come to the best
 * total seen, and refines the promising cells first. Within a cell,
 * each lattice point gets a multilinear interpolation of the corner
 * evaluations; points whose margin-padded estimates are provably
 * irrelevant (strictly worse than the best so far, and strictly
 * dominated on the Pareto frontier) are skipped, the rest
 * are simulated. A bound audit checks every simulated point against
 * its own prediction and inflates the safety margins (re-testing
 * every previously skipped point) whenever they prove optimistic —
 * so the returned best point, best total, and Pareto frontier are
 * bit-identical to the exhaustive sweep while simulating a fraction
 * of the lattice.
 *
 * SweepResultCache wraps the generic on-disk ResultCache
 * (common/result_cache.h) with the Evaluation payload codec, giving
 * every sweep driver checkpoint/resume and cross-run reuse keyed by
 * CarbonExplorer::configDigest.
 */

#ifndef CARBONX_CORE_ADAPTIVE_SWEEP_H
#define CARBONX_CORE_ADAPTIVE_SWEEP_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result_cache.h"
#include "core/explorer.h"

namespace carbonx
{

/**
 * Persistent cache of design-point Evaluations. A thin, typed wrapper
 * over ResultCache: the key is the design point's four coordinates,
 * the payload is the nine carbon/energy outcome fields of Evaluation
 * (the point and strategy are reconstructed by the caller, which is
 * why find() takes both). One cache file serves one (configuration,
 * strategy) pair — the config digest folds the strategy in, so
 * attaching a cache built for a different study rebuilds it from
 * scratch rather than serving wrong results.
 *
 * Not thread-safe; call only from the sweep's coordinating thread
 * (see SweepBatchEvaluator).
 */
class SweepResultCache
{
  public:
    /** Evaluation outcome fields stored per record. */
    static constexpr uint32_t kPayloadWidth = 9;

    /**
     * Open or create the cache file at @p path for the study
     * identified by @p config_digest (CarbonExplorer::configDigest of
     * the swept strategy). @p provenance is embedded in newly written
     * files for `carbonx explain`-style forensics.
     */
    SweepResultCache(std::string path, uint64_t config_digest,
                     std::string provenance = "");

    /**
     * Look up @p point; on a hit, reconstruct the full Evaluation
     * (with @p strategy stamped) into @p out and return true.
     */
    bool find(const DesignPoint &point, Strategy strategy,
              Evaluation *out) const;

    /** Buffer @p eval for the next flush; false when already cached. */
    bool insert(const Evaluation &eval);

    /** Persist buffered records as one block (see ResultCache). */
    void flush();

    size_t loadedFromDisk() const { return cache_.loadedFromDisk(); }
    const std::string &rebuildReason() const
    {
        return cache_.rebuildReason();
    }
    const std::string &path() const { return cache_.path(); }

    /** The cache key of a design point (its four coordinates). */
    static ResultCache::Key keyFor(const DesignPoint &point);

  private:
    ResultCache cache_;
};

/** Work accounting of one adaptive sweep (summed over its passes). */
struct AdaptiveSweepStats
{
    size_t lattice_points = 0;   ///< Full-resolution lattice size.
    size_t simulated_points = 0; ///< Freshly simulated (cache misses).
    size_t cache_hits = 0;       ///< Served from the result cache.
    size_t points_skipped = 0;   ///< Excluded by cell bounds.
    size_t cells_total = 0;      ///< Cells in the coarse partition.
    size_t cells_refined = 0;    ///< Cells scanned to full resolution.
    size_t cells_excluded = 0;   ///< Cells proven not to matter.
    size_t margin_inflations = 0; ///< Audit-triggered margin doublings.
};

/** Outcome of AdaptiveSweeper::sweep. */
struct AdaptiveSweepResult
{
    /**
     * best is bit-identical to the exhaustive optimize() best;
     * evaluated holds only the points actually evaluated, in the same
     * order the exhaustive sweep would list them, so paretoSet()
     * equals the exhaustive frontier.
     */
    OptimizationResult result;
    AdaptiveSweepStats stats;
};

/**
 * The coarse-to-fine driver. Borrow an explorer (whose sweep cache
 * and run status are honored) and call sweep() per strategy.
 * Its tuning is fixed (coarse stride 2, margins of 0.1 of a cell's
 * corner spread plus 0.01 of the coarse pass's spread, 8 cells per
 * wave, Pareto frontier always preserved; see adaptive_sweep.cc).
 *
 * Algorithm: evaluate the coarse sub-lattice; partition the space
 * into cells (hyper-rectangles between adjacent coarse indices);
 * repeatedly pop the most promising pending cells (lowest margin-
 * padded corner minimum first) and triage each interior point
 * against the current best-so-far and Pareto set using its
 * interpolated, margin-padded estimate: provably irrelevant points
 * are skipped, the rest are simulated in one parallel wave. After
 * each wave, audit every fresh evaluation against its own
 * prediction; a violation doubles the global margin inflation and
 * re-tests all previously skipped points, evaluating any that no
 * longer pass. The loop ends when no cell is pending; with margins
 * inflated past the global spread nothing can be skipped, so the
 * worst case degrades gracefully to the exhaustive sweep.
 *
 * Refinement rounds run through the same zoomRefine loop as
 * CarbonExplorer::optimize, each zoomed pass swept adaptively. Every
 * pass's best is bit-identical to its exhaustive twin, so the zoom
 * trajectory — and the final best — matches the exhaustive driver's.
 *
 * Determinism: every decision (ordering, exclusion, wave membership)
 * happens on the coordinating thread from deterministic inputs;
 * parallelism only accelerates the point evaluations, which are
 * themselves bit-deterministic. Results are identical at any thread
 * count.
 */
class AdaptiveSweeper
{
  public:
    explicit AdaptiveSweeper(const CarbonExplorer &explorer)
        : explorer_(explorer)
    {
    }

    /**
     * Run the adaptive search over @p space, followed by
     * @p refine_rounds zoom-refinement passes (see zoomRefine). Throws
     * SweepAborted when the explorer's abort hook fires (progress is
     * checkpointed to the attached cache first).
     */
    AdaptiveSweepResult sweep(const DesignSpace &space,
                              Strategy strategy,
                              int refine_rounds = 0) const;

  private:
    AdaptiveSweepResult sweepPass(const DesignSpace &space,
                                  Strategy strategy, int pass) const;

    const CarbonExplorer &explorer_;
};

/** Which sweep driver runs a study. */
enum class SweepMode
{
    Exhaustive, ///< CarbonExplorer::optimize over the full lattice.
    Adaptive,   ///< AdaptiveSweeper (bit-identical best, fewer sims).
};

/** Stable lowercase name ("exhaustive" / "adaptive"). */
const char *sweepModeName(SweepMode mode);

/** One sweep as a front end asks for it (see runSweep). */
struct SweepRequest
{
    Strategy strategy = Strategy::RenewableBatteryCas;
    SweepMode mode = SweepMode::Exhaustive;
    int refine_rounds = 0; ///< Zoom rounds after the first pass.
    /** Result cache file ("" = none); its directory is made on demand. */
    std::string cache_path;
    std::string cache_provenance; ///< Embedded in a new cache file.
    /** `--resume`: a cache with no reusable results is a UserError. */
    bool resume = false;
};

/**
 * Run one whole sweep, the path `optimize`, `explain` and `carbonx
 * run` all take: open the request's cache (keyed by
 * configDigest(strategy)) and attach it; when it dropped on-disk state
 * and @p explorer has a journal, journal one CacheCorrupt row; run the
 * exhaustive or adaptive driver over @p space; detach the cache, also
 * on a throw. The journal stays the caller's to flush. Exhaustive
 * stats are zero but lattice_points (the first pass's lattice).
 * @throws UserError, SweepAborted (after the cache checkpoint).
 */
AdaptiveSweepResult runSweep(CarbonExplorer &explorer,
                             const DesignSpace &space,
                             const SweepRequest &request);

} // namespace carbonx

#endif // CARBONX_CORE_ADAPTIVE_SWEEP_H

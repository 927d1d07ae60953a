#include "adaptive_sweep.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>

#include "common/error.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace carbonx
{

SweepResultCache::SweepResultCache(std::string path,
                                   uint64_t config_digest,
                                   std::string provenance)
    : cache_([&] {
          // Delegating through a lambda so the phase brackets the
          // underlying ResultCache's on-disk load (the common layer
          // cannot depend on obs, so the timer lives here).
          CARBONX_PROFILE("cache/load");
          return ResultCache(std::move(path), config_digest,
                             kPayloadWidth, std::move(provenance));
      }())
{
}

ResultCache::Key
SweepResultCache::keyFor(const DesignPoint &point)
{
    return ResultCache::Key{
        point.solar_mw.value(), point.wind_mw.value(),
        point.battery_mwh.value(), point.extra_capacity.value()};
}

bool
SweepResultCache::find(const DesignPoint &point, Strategy strategy,
                       Evaluation *out) const
{
    const double *payload = cache_.find(keyFor(point));
    if (payload == nullptr)
        return false;
    out->point = point;
    out->strategy = strategy;
    out->coverage_pct = payload[0];
    out->operational_kg = KilogramsCo2(payload[1]);
    out->embodied_solar_kg = KilogramsCo2(payload[2]);
    out->embodied_wind_kg = KilogramsCo2(payload[3]);
    out->embodied_battery_kg = KilogramsCo2(payload[4]);
    out->embodied_server_kg = KilogramsCo2(payload[5]);
    out->battery_cycles = payload[6];
    out->deferred_mwh = MegaWattHours(payload[7]);
    out->renewable_excess_mwh = MegaWattHours(payload[8]);
    return true;
}

bool
SweepResultCache::insert(const Evaluation &eval)
{
    const std::array<double, kPayloadWidth> payload = {
        eval.coverage_pct,
        eval.operational_kg.value(),
        eval.embodied_solar_kg.value(),
        eval.embodied_wind_kg.value(),
        eval.embodied_battery_kg.value(),
        eval.embodied_server_kg.value(),
        eval.battery_cycles,
        eval.deferred_mwh.value(),
        eval.renewable_excess_mwh.value()};
    return cache_.insert(keyFor(eval.point), payload.data());
}

void
SweepResultCache::flush()
{
    CARBONX_PROFILE("cache/flush");
    cache_.flush();
}

namespace
{

/**
 * Coarse sub-lattice stride: every stride-th index of each axis (plus
 * the last) is evaluated up front. 2 keeps the corner interpolation
 * tight, which empirically skips the most points overall.
 */
constexpr size_t kCoarseStride = 2;

/**
 * Safety margin subtracted from a point's interpolated estimate, as a
 * multiple of the owning cell's corner spread. Larger values evaluate
 * more points; the audit doubles the effective margins whenever a
 * simulated point proves them optimistic.
 */
constexpr double kMarginScale = 0.1;

/**
 * Margin floor as a fraction of the global coarse-pass spread, so
 * cells whose corners happen to agree still keep a safety band.
 */
constexpr double kMarginFloorRel = 0.01;

/**
 * Cells refined per wave. Fixed (never derived from the thread count)
 * so the refinement trajectory — and with it the set of evaluated
 * points — is bit-identical at any thread count.
 */
constexpr size_t kCellsPerWave = 8;

/** Axis indices of one lattice point. */
using LatticeIdx = std::array<size_t, 4>;

/** Coarse index list of one axis: 0, stride, 2*stride, ..., last. */
std::vector<size_t>
coarseIndices(size_t n, size_t stride)
{
    std::vector<size_t> out;
    for (size_t i = 0; i < n; i += stride)
        out.push_back(i);
    if (out.back() != n - 1)
        out.push_back(n - 1);
    return out;
}

/**
 * std::partition_point over [first, first + n), where @p pred holds on
 * a prefix, with a conditional move instead of a branch per halving:
 * the staircase queries run once per triaged point, and their
 * outcomes are too irregular to predict.
 */
template <typename T, typename Pred>
const T *
partitionPoint(const T *first, size_t n, Pred pred)
{
    if (n == 0)
        return first;
    while (n > 1) {
        const size_t half = n / 2;
        first = pred(first[half]) ? first + half : first;
        n -= half;
    }
    return pred(*first) ? first + 1 : first;
}

/** Corner statistics of one cell, on the three bounded objectives. */
struct CellBounds
{
    double min_total = 0.0;
    double spread_total = 0.0;
    double min_embodied = 0.0;
    double spread_embodied = 0.0;
    double min_operational = 0.0;
    double spread_operational = 0.0;
};

/**
 * One hyper-rectangle between adjacent coarse indices (inclusive on
 * both faces; neighbors share faces, deduplicated by the evaluated
 * bitmap). order_key is the lo-corner's lattice linear index — the
 * deterministic tie-break of the refinement priority order.
 */
struct Cell
{
    LatticeIdx lo{};
    LatticeIdx hi{};
    CellBounds bounds;
    size_t order_key = 0;
};

} // namespace

AdaptiveSweepResult
AdaptiveSweeper::sweep(const DesignSpace &space, Strategy strategy,
                       int refine_rounds) const
{
    AdaptiveSweepResult out;
    AdaptiveSweepStats &sum = out.stats;
    out.result = zoomRefine(
        space, refine_rounds,
        [&](const DesignSpace &pass_space, int pass) {
            AdaptiveSweepResult r = sweepPass(pass_space, strategy, pass);
            sum.lattice_points += r.stats.lattice_points;
            sum.simulated_points += r.stats.simulated_points;
            sum.cache_hits += r.stats.cache_hits;
            sum.points_skipped += r.stats.points_skipped;
            sum.cells_total += r.stats.cells_total;
            sum.cells_refined += r.stats.cells_refined;
            sum.cells_excluded += r.stats.cells_excluded;
            sum.margin_inflations += r.stats.margin_inflations;
            return std::move(r.result);
        });
    return out;
}

AdaptiveSweepResult
AdaptiveSweeper::sweepPass(const DesignSpace &space, Strategy strategy,
                           int pass) const
{
    CARBONX_PROFILE("adaptive/pass");
    static auto &c_sweeps = obs::counter("sweep.adaptive_passes");
    static auto &c_skipped = obs::counter("sweep.points_skipped");
    static auto &c_refined = obs::counter("sweep.cells_refined");
    static auto &c_excluded = obs::counter("sweep.cells_excluded");
    static auto &c_inflated = obs::counter("sweep.margin_inflations");
    c_sweeps.increment();
    obs::DecisionJournal *journal = explorer_.journal();
    obs::RunStatus *status = explorer_.runStatus();

    // The same lattice the exhaustive pass enumerates, in the same
    // linear order: axes a strategy ignores collapse to {0}.
    const std::array<std::vector<double>, 4> axes = {
        space.solar_mw.samples(), space.wind_mw.samples(),
        strategyUsesBattery(strategy) ? space.battery_mwh.samples()
                                      : std::vector<double>{0.0},
        strategyUsesCas(strategy) ? space.extra_capacity.samples()
                                  : std::vector<double>{0.0}};
    const std::array<size_t, 4> dims = {
        axes[0].size(), axes[1].size(), axes[2].size(),
        axes[3].size()};
    const size_t total = dims[0] * dims[1] * dims[2] * dims[3];
    ensure(total > 0, "adaptive sweep has no design points");

    const auto linearIndex = [&dims](const LatticeIdx &idx) {
        return ((idx[0] * dims[1] + idx[1]) * dims[2] + idx[2]) *
                   dims[3] +
               idx[3];
    };
    const auto pointAt = [&axes](const LatticeIdx &idx) {
        return DesignPoint{MegaWatts(axes[0][idx[0]]),
                           MegaWatts(axes[1][idx[1]]),
                           MegaWattHours(axes[2][idx[2]]),
                           Fraction(axes[3][idx[3]])};
    };
    const auto latticeIdxOf = [&dims](size_t linear) {
        LatticeIdx idx;
        idx[3] = linear % dims[3];
        linear /= dims[3];
        idx[2] = linear % dims[2];
        linear /= dims[2];
        idx[1] = linear % dims[1];
        idx[0] = linear / dims[1];
        return idx;
    };

    std::vector<uint8_t> evaluated(total, 0);
    std::vector<Evaluation> evals(total);

    SweepBatchEvaluator evaluator(explorer_, strategy);

    // Coarse sub-lattice.
    std::array<std::vector<size_t>, 4> coarse;
    for (size_t a = 0; a < 4; ++a)
        coarse[a] = coarseIndices(dims[a], kCoarseStride);
    std::vector<size_t> coarse_points;
    coarse_points.reserve(coarse[0].size() * coarse[1].size() *
                          coarse[2].size() * coarse[3].size());
    for (const size_t i0 : coarse[0])
        for (const size_t i1 : coarse[1])
            for (const size_t i2 : coarse[2])
                for (const size_t i3 : coarse[3])
                    coarse_points.push_back(
                        linearIndex(LatticeIdx{i0, i1, i2, i3}));

    // Progress covers the whole adaptive run as one pass; the total
    // starts at the coarse count and grows as refinement discovers
    // work (obs::RunStatus::growTotal).
    if (status != nullptr) {
        status->setPhase("adaptive sweep");
        status->beginPass(pass, coarse_points.size());
    }

    // Strict-domination query structure over the evaluated points'
    // (embodied, operational) pairs, kept as a Pareto staircase:
    // sorted by embodied, each entry's operational strictly below
    // every earlier entry's. The lowest operational among pairs with
    // embodied < e is reached at a staircase entry (a pruned pair has
    // an earlier kept pair whose operational is no larger), so "does
    // any evaluated point strictly dominate (e, o)?" is one binary
    // search, and each evaluation call merges only its own pairs. A
    // fresh pair that some staircase pair weakly dominates (embodied
    // and operational both no lower) would be pruned by the merge, so
    // it is dropped before the sort.
    using Stair = std::pair<double, double>;
    std::vector<Stair> stairs;
    const auto strictlyDominated = [&](double e, double o) {
        const Stair *first = stairs.data();
        const Stair *it = partitionPoint(
            first, stairs.size(),
            [e](const Stair &p) { return p.first < e; });
        return it != first && it[-1].second < o;
    };
    const auto weaklyDominated = [&](size_t end, double e, double o) {
        const Stair *first = stairs.data();
        const Stair *it = partitionPoint(
            first, end, [e](const Stair &p) { return p.first <= e; });
        return it != first && it[-1].second <= o;
    };
    double best_total = std::numeric_limits<double>::infinity();

    // Evaluate a sorted, unevaluated index list; scatter into evals,
    // then fold the fresh points into best_total and the staircase.
    // @p ann, when non-null, annotates the journal rows of this wave
    // (one entry per id, in id order) with the triage verdict and the
    // prediction the decision was based on.
    std::vector<DesignPoint> wave_points;
    std::vector<Evaluation> wave_out;
    const auto evaluateIndices =
        [&](const std::vector<size_t> &ids,
            const SweepBatchEvaluator::PointAnnotation *ann) {
            if (ids.empty())
                return;
            wave_points.clear();
            wave_points.reserve(ids.size());
            for (const size_t li : ids)
                wave_points.push_back(pointAt(latticeIdxOf(li)));
            wave_out.resize(ids.size());
            if (ann != nullptr)
                evaluator.setPointAnnotations(ann);
            evaluator.evaluate(wave_points.data(), wave_points.size(),
                               wave_out.data(), status);
            const size_t old_size = stairs.size();
            for (size_t k = 0; k < ids.size(); ++k) {
                const Evaluation &ev = evals[ids[k]] =
                    std::move(wave_out[k]);
                evaluated[ids[k]] = 1;
                best_total = std::min(best_total, ev.totalKg().value());
                const double e = ev.embodiedKg().value();
                const double o = ev.operational_kg.value();
                if (!weaklyDominated(old_size, e, o))
                    stairs.emplace_back(e, o);
            }
            const auto old_end = stairs.begin() +
                static_cast<ptrdiff_t>(old_size);
            std::sort(old_end, stairs.end());
            std::inplace_merge(stairs.begin(), old_end, stairs.end());
            size_t keep = 0;
            for (const auto &p : stairs) {
                if (keep == 0 || p.second < stairs[keep - 1].second)
                    stairs[keep++] = p;
            }
            stairs.resize(keep);
        };
    evaluateIndices(coarse_points, nullptr);

    // Global objective spreads over the coarse pass anchor the margin
    // floors; frozen here so margins evolve only through the audit's
    // inflation factor (deterministic and easy to reason about).
    double global_spread_total = 0.0;
    double global_spread_embodied = 0.0;
    double global_spread_operational = 0.0;
    {
        double max_total = -std::numeric_limits<double>::infinity();
        double min_e = std::numeric_limits<double>::infinity();
        double max_e = -min_e;
        double min_o = min_e;
        double max_o = -min_e;
        for (const size_t li : coarse_points) {
            const Evaluation &ev = evals[li];
            max_total = std::max(max_total, ev.totalKg().value());
            min_e = std::min(min_e, ev.embodiedKg().value());
            max_e = std::max(max_e, ev.embodiedKg().value());
            min_o = std::min(min_o, ev.operational_kg.value());
            max_o = std::max(max_o, ev.operational_kg.value());
        }
        global_spread_total = max_total - best_total;
        global_spread_embodied = max_e - min_e;
        global_spread_operational = max_o - min_o;
    }

    // Build the cell partition with corner bounds (corners are coarse
    // points, all evaluated above).
    const auto segmentsOf = [](const std::vector<size_t> &marks) {
        std::vector<std::pair<size_t, size_t>> segs;
        if (marks.size() == 1) {
            segs.emplace_back(marks[0], marks[0]);
        } else {
            for (size_t j = 0; j + 1 < marks.size(); ++j)
                segs.emplace_back(marks[j], marks[j + 1]);
        }
        return segs;
    };
    std::array<std::vector<std::pair<size_t, size_t>>, 4> segments;
    for (size_t a = 0; a < 4; ++a)
        segments[a] = segmentsOf(coarse[a]);

    std::vector<Cell> pending;
    for (const auto &s0 : segments[0])
        for (const auto &s1 : segments[1])
            for (const auto &s2 : segments[2])
                for (const auto &s3 : segments[3]) {
                    Cell cell;
                    cell.lo = {s0.first, s1.first, s2.first, s3.first};
                    cell.hi = {s0.second, s1.second, s2.second,
                               s3.second};
                    cell.order_key = linearIndex(cell.lo);

                    CellBounds &b = cell.bounds;
                    b.min_total = std::numeric_limits<double>::infinity();
                    b.min_embodied = b.min_total;
                    b.min_operational = b.min_total;
                    double max_total = -b.min_total;
                    double max_e = -b.min_total;
                    double max_o = -b.min_total;
                    for (unsigned corner = 0; corner < 16; ++corner) {
                        LatticeIdx idx;
                        for (size_t a = 0; a < 4; ++a)
                            idx[a] = (corner & (1u << a)) != 0
                                ? cell.hi[a]
                                : cell.lo[a];
                        const Evaluation &ev =
                            evals[linearIndex(idx)];
                        const double t = ev.totalKg().value();
                        const double e = ev.embodiedKg().value();
                        const double o = ev.operational_kg.value();
                        b.min_total = std::min(b.min_total, t);
                        max_total = std::max(max_total, t);
                        b.min_embodied = std::min(b.min_embodied, e);
                        max_e = std::max(max_e, e);
                        b.min_operational =
                            std::min(b.min_operational, o);
                        max_o = std::max(max_o, o);
                    }
                    b.spread_total = max_total - b.min_total;
                    b.spread_embodied = max_e - b.min_embodied;
                    b.spread_operational = max_o - b.min_operational;
                    pending.push_back(cell);
                }
    const size_t cells_total = pending.size();

    double inflation = 1.0;

    // Per-point predictions: multilinear interpolation of the owning
    // cell's corner evaluations, with margins from the cell's corner
    // spread plus the global floor. A point is skipped only when its
    // margin-padded estimate is strictly worse than the best so far
    // AND some evaluated point strictly dominates its margin-padded
    // (embodied, operational) estimate. The second test guarantees
    // that the frontier over the evaluated subset equals the frontier
    // over the full lattice; surfaces where the whole lattice is
    // Pareto-optimal (e.g. a pure solar trade-off) therefore evaluate
    // every point. The audit below checks every evaluated interior
    // point against its own prediction, so optimistic margins are
    // caught on the points we do simulate and cured by doubling
    // `inflation`, which re-tests every skipped point.
    struct PointPrediction
    {
        double e_hat = 0.0; ///< Interpolated embodied estimate.
        double o_hat = 0.0; ///< Interpolated operational estimate.
        double m_t = 0.0;   ///< Base total margin (pre-inflation).
        double m_e = 0.0;   ///< Base embodied margin.
        double m_o = 0.0;   ///< Base operational margin.
    };
    // 0 = undecided, 1 = queued for evaluation, 2 = skipped.
    std::vector<uint8_t> decided(total, 0);
    std::vector<PointPrediction> preds(total);
    std::vector<size_t> skipped_ids;

    // Journal plumbing for triage decisions: skipped points are
    // journaled immediately (they never reach the evaluator), and
    // simulated waves carry PointAnnotations so the evaluator's rows
    // record the triage verdict plus the prediction behind it. A
    // revived point therefore journals twice — Skipped when pruned,
    // ReArmed when the inflated margins bring it back (or a CacheHit
    // carrying that margin when the cache serves it) — so readers
    // can replay the margin-inflation history.
    std::vector<SweepBatchEvaluator::PointAnnotation> wave_ann;
    const auto annotationsFor =
        [&](const std::vector<size_t> &ids,
            obs::DecisionVerdict verdict)
        -> const SweepBatchEvaluator::PointAnnotation * {
        if (journal == nullptr || ids.empty())
            return nullptr;
        wave_ann.clear();
        wave_ann.reserve(ids.size());
        for (const size_t li : ids) {
            const PointPrediction &p = preds[li];
            wave_ann.push_back(SweepBatchEvaluator::PointAnnotation{
                verdict, p.e_hat + p.o_hat, inflation * p.m_t});
        }
        return wave_ann.data();
    };
    const auto journalSkip = [&](const LatticeIdx &idx, size_t li,
                                 uint64_t ts) {
        obs::DecisionRow row;
        row.point_id = obs::decisionPointId(
            {axes[0][idx[0]], axes[1][idx[1]], axes[2][idx[2]],
             axes[3][idx[3]]});
        row.wave = journal->nextWave();
        row.verdict = obs::DecisionVerdict::Skipped;
        row.predicted_kg = preds[li].e_hat + preds[li].o_hat;
        row.actual_kg = std::numeric_limits<double>::quiet_NaN();
        row.margin_kg = inflation * preds[li].m_t;
        row.ts_us = ts;
        journal->sink(0).record(row);
    };

    const auto skippable = [&](const PointPrediction &p) {
        const double t_hat = p.e_hat + p.o_hat;
        if (!(t_hat - inflation * p.m_t > best_total))
            return false;
        return strictlyDominated(p.e_hat - inflation * p.m_e,
                                 p.o_hat - inflation * p.m_o);
    };
    // True when the simulated point undercuts its own margin-padded
    // prediction — the signal that margins are optimistic here.
    const auto auditFails = [&](size_t li) {
        const PointPrediction &p = preds[li];
        const Evaluation &ev = evals[li];
        const double t_hat = p.e_hat + p.o_hat;
        return ev.totalKg().value() < t_hat - inflation * p.m_t ||
               ev.embodiedKg().value() <
                   p.e_hat - inflation * p.m_e ||
               ev.operational_kg.value() <
                   p.o_hat - inflation * p.m_o;
    };

    AdaptiveSweepStats stats;
    // Triage of one cell's undecided points, in lattice order. Each
    // point's (embodied, operational) estimate is the multilinear
    // interpolation of the cell's 16 corner evaluations, read once
    // per cell: corner c takes axis a's hi index when bit a of c is
    // set, and its weight is the product over axes, in axis order, of
    // the point's fractional offset (hi) or its complement (lo). The
    // partial products over the outer axes are shared by every point
    // that has them in common; each is the same multiplication in the
    // same order as a per-point product, so estimates are exact
    // reproductions. Margins depend only on the cell.
    const auto triageCell = [&](const Cell &cell, uint64_t triage_ts,
                                std::vector<size_t> &needed) {
        std::array<double, 16> corner_e;
        std::array<double, 16> corner_o;
        for (unsigned corner = 0; corner < 16; ++corner) {
            LatticeIdx cidx;
            for (size_t a = 0; a < 4; ++a)
                cidx[a] = (corner & (1u << a)) != 0 ? cell.hi[a]
                                                     : cell.lo[a];
            const Evaluation &ev = evals[linearIndex(cidx)];
            corner_e[corner] = ev.embodiedKg().value();
            corner_o[corner] = ev.operational_kg.value();
        }
        const CellBounds &b = cell.bounds;
        const double m_t = kMarginScale * b.spread_total +
            kMarginFloorRel * global_spread_total;
        const double m_e = kMarginScale * b.spread_embodied +
            kMarginFloorRel * global_spread_embodied;
        const double m_o = kMarginScale * b.spread_operational +
            kMarginFloorRel * global_spread_operational;
        // {lo, hi} weight factors of axis a at index i.
        const auto factors = [&cell](size_t a, size_t i) {
            const size_t w = cell.hi[a] - cell.lo[a];
            const double frac = w > 0
                ? static_cast<double>(i - cell.lo[a]) /
                    static_cast<double>(w)
                : 0.0;
            return std::array<double, 2>{1.0 - frac, frac};
        };

        // Axis a's bit goes into `hi_only` when only its hi factor is
        // nonzero, into `both` when both are. The corners of nonzero
        // weight are then hi_only | s for every subset s of `both`,
        // visited in ascending corner order; a weight that is a
        // product of nonzero factors k/w or 1 - k/w is itself nonzero.
        const auto axisBits = [](const std::array<double, 2> &f,
                                 unsigned bit, unsigned &hi_only,
                                 unsigned &both) {
            if (f[1] == 0.0)
                return;
            if (f[0] == 0.0)
                hi_only |= bit;
            else
                both |= bit;
        };

        bool any_needed = false;
        bool any_skipped = false;
        std::array<double, 4> w01;
        std::array<double, 8> w012;
        LatticeIdx idx;
        for (idx[0] = cell.lo[0]; idx[0] <= cell.hi[0]; ++idx[0]) {
            const auto f0 = factors(0, idx[0]);
            unsigned hi0 = 0;
            unsigned both0 = 0;
            axisBits(f0, 1u, hi0, both0);
            for (idx[1] = cell.lo[1]; idx[1] <= cell.hi[1]; ++idx[1]) {
                const auto f1 = factors(1, idx[1]);
                unsigned hi1 = hi0;
                unsigned both1 = both0;
                axisBits(f1, 2u, hi1, both1);
                for (unsigned c = 0; c < 4; ++c)
                    w01[c] = f0[c & 1] * f1[c >> 1];
                for (idx[2] = cell.lo[2]; idx[2] <= cell.hi[2];
                     ++idx[2]) {
                    const auto f2 = factors(2, idx[2]);
                    unsigned hi2 = hi1;
                    unsigned both2 = both1;
                    axisBits(f2, 4u, hi2, both2);
                    for (unsigned c = 0; c < 8; ++c)
                        w012[c] = w01[c & 3] * f2[c >> 2];
                    for (idx[3] = cell.lo[3]; idx[3] <= cell.hi[3];
                         ++idx[3]) {
                        const size_t li = linearIndex(idx);
                        if (evaluated[li] != 0 || decided[li] != 0)
                            continue; // first decision wins (shared faces)
                        const auto f3 = factors(3, idx[3]);
                        unsigned hi_only = hi2;
                        unsigned both = both2;
                        axisBits(f3, 8u, hi_only, both);
                        double e_hat = 0.0;
                        double o_hat = 0.0;
                        for (unsigned sub = 0;; sub = (sub - both) & both) {
                            const unsigned c = hi_only | sub;
                            const double weight = w012[c & 7] * f3[c >> 3];
                            e_hat += weight * corner_e[c];
                            o_hat += weight * corner_o[c];
                            if (sub == both)
                                break;
                        }
                        PointPrediction &p = preds[li];
                        p = {e_hat, o_hat, m_t, m_e, m_o};
                        if (skippable(p)) {
                            decided[li] = 2;
                            skipped_ids.push_back(li);
                            if (journal != nullptr)
                                journalSkip(idx, li, triage_ts);
                            any_skipped = true;
                        } else {
                            decided[li] = 1;
                            needed.push_back(li);
                            any_needed = true;
                        }
                    }
                }
            }
        }
        if (any_needed)
            ++stats.cells_refined;
        else if (any_skipped)
            ++stats.cells_excluded;
    };

    std::vector<size_t> wave_ids;
    std::vector<size_t> revived;
    const auto cellLowerBound = [&](const Cell &cell) {
        return cell.bounds.min_total -
            inflation *
                (kMarginScale * cell.bounds.spread_total +
                 kMarginFloorRel * global_spread_total);
    };
    const auto byLowerBound = [&](const Cell &a, const Cell &b) {
        const double lba = cellLowerBound(a);
        const double lbb = cellLowerBound(b);
        if (lba != lbb)
            return lba < lbb;
        return a.order_key < b.order_key;
    };
    // Most promising cells first: lowest margin-padded corner minimum,
    // lo-corner lattice order as the deterministic tie-break.
    // Evaluating low cells early drives best_total down, which lets
    // later cells skip more of their interior. The order is a strict
    // total order that only `inflation` moves, so the cells still
    // pending are re-sorted only after it changes.
    size_t next_cell = 0;
    bool sorted = false;
    while (next_cell < pending.size()) {
        if (!sorted) {
            std::sort(pending.begin() + static_cast<ptrdiff_t>(next_cell),
                      pending.end(), byLowerBound);
            sorted = true;
        }
        const size_t wave_begin = next_cell;
        next_cell = std::min(next_cell + kCellsPerWave, pending.size());

        wave_ids.clear();
        // One timestamp per triage wave: skip rows are bookkeeping,
        // not timing samples, so a shared clock read keeps the triage
        // loop cheap.
        const uint64_t triage_ts =
            journal != nullptr ? journal->nowUs() : 0;
        for (size_t c = wave_begin; c < next_cell; ++c)
            triageCell(pending[c], triage_ts, wave_ids);
        std::sort(wave_ids.begin(), wave_ids.end());

        if (status != nullptr)
            status->growTotal(wave_ids.size());
        evaluateIndices(
            wave_ids,
            annotationsFor(wave_ids,
                           obs::DecisionVerdict::Interpolated));

        // Audit-and-re-arm loop: any evaluated point undercutting its
        // own prediction makes every standing skip suspect. Double
        // the inflation, re-test all skipped points under the new
        // margins, and evaluate the ones that no longer pass. Repeats
        // until a round is clean; inflation growing past the global
        // spreads revives everything, so this terminates.
        std::vector<size_t> suspects = wave_ids;
        while (true) {
            bool violated = false;
            for (const size_t li : suspects) {
                if (auditFails(li)) {
                    violated = true;
                    break;
                }
            }
            if (!violated)
                break;
            inflation *= 2.0;
            sorted = false;
            ++stats.margin_inflations;
            c_inflated.increment();
            revived.clear();
            size_t keep = 0;
            for (const size_t li : skipped_ids) {
                if (skippable(preds[li])) {
                    skipped_ids[keep++] = li;
                } else {
                    decided[li] = 1;
                    revived.push_back(li);
                }
            }
            skipped_ids.resize(keep);
            if (revived.empty())
                break;
            std::sort(revived.begin(), revived.end());
            if (status != nullptr)
                status->growTotal(revived.size());
            evaluateIndices(
                revived,
                annotationsFor(revived,
                               obs::DecisionVerdict::ReArmed));
            suspects = revived;
        }
    }
    if (status != nullptr)
        status->finishPass();

    // Assemble the result in lattice linear order — the exhaustive
    // sweep's evaluation order restricted to the evaluated subset.
    // The strict < scan then reproduces the exhaustive tie-break:
    // every skipped point is strictly worse than best_total, so no
    // skipped point could have won or tied.
    AdaptiveSweepResult out;
    out.result.evaluated.reserve(total);
    for (size_t li = 0; li < total; ++li) {
        if (evaluated[li] != 0)
            out.result.evaluated.push_back(std::move(evals[li]));
    }
    ensure(!out.result.evaluated.empty(),
           "adaptive sweep evaluated no design points");
    out.result.best = out.result.evaluated.front();
    for (const Evaluation &ev : out.result.evaluated) {
        if (ev.totalKg() < out.result.best.totalKg())
            out.result.best = ev;
    }

    stats.lattice_points = total;
    stats.simulated_points = evaluator.simulatedPoints();
    stats.cache_hits = evaluator.cacheHits();
    stats.points_skipped = total - out.result.evaluated.size();
    stats.cells_total = cells_total;
    c_skipped.increment(stats.points_skipped);
    c_refined.increment(stats.cells_refined);
    c_excluded.increment(stats.cells_excluded);
    out.stats = stats;

    inform("adaptive sweep: " + std::to_string(stats.simulated_points) +
           " simulated, " + std::to_string(stats.cache_hits) +
           " cache hits, " + std::to_string(stats.points_skipped) +
           "/" + std::to_string(total) + " lattice points skipped (" +
           std::to_string(stats.cells_excluded) + "/" +
           std::to_string(stats.cells_total) + " cells excluded, " +
           std::to_string(stats.margin_inflations) +
           " margin inflations)");
    return out;
}

const char *
sweepModeName(SweepMode mode)
{
    return mode == SweepMode::Exhaustive ? "exhaustive" : "adaptive";
}

AdaptiveSweepResult
runSweep(CarbonExplorer &explorer, const DesignSpace &space,
         const SweepRequest &request)
{
    std::unique_ptr<SweepResultCache> cache;
    if (!request.cache_path.empty()) {
        const auto dir =
            std::filesystem::path(request.cache_path).parent_path();
        if (!dir.empty())
            std::filesystem::create_directories(dir);
        cache = std::make_unique<SweepResultCache>(
            request.cache_path, explorer.configDigest(request.strategy),
            request.cache_provenance);
        if (request.resume) {
            require(cache->loadedFromDisk() > 0,
                    "--resume: no reusable results in " +
                        request.cache_path +
                        (cache->rebuildReason().empty()
                             ? std::string(" (no prior run with this "
                                           "configuration?)")
                             : " (" + cache->rebuildReason() + ")"));
            inform("resuming " + strategyName(request.strategy) +
                   " sweep: " + std::to_string(cache->loadedFromDisk()) +
                   " cached evaluations from " + request.cache_path);
        }
        obs::DecisionJournal *journal = explorer.journal();
        if (journal != nullptr && !cache->rebuildReason().empty()) {
            obs::DecisionRow row;
            row.verdict = obs::DecisionVerdict::CacheCorrupt;
            row.predicted_kg = std::numeric_limits<double>::quiet_NaN();
            row.actual_kg = row.predicted_kg;
            row.margin_kg = row.predicted_kg;
            row.ts_us = journal->nowUs();
            journal->sink(0).record(row);
        }
    }

    // Detach on every exit: the cache dies with this frame, and a
    // SweepAborted must not leave the explorer pointing at it.
    struct Detach
    {
        CarbonExplorer &explorer;
        ~Detach() { explorer.setSweepCache(nullptr); }
    } detach{explorer};
    explorer.setSweepCache(cache.get());

    if (request.mode == SweepMode::Adaptive)
        return AdaptiveSweeper(explorer).sweep(space, request.strategy,
                                               request.refine_rounds);
    AdaptiveSweepResult out;
    out.result =
        explorer.optimize(space, request.strategy, request.refine_rounds);
    out.stats.lattice_points = space.sizeFor(request.strategy);
    return out;
}

} // namespace carbonx

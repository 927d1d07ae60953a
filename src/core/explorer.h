/**
 * @file
 * The CarbonExplorer facade: the framework of Fig. 13.
 *
 * Inputs: hourly datacenter power demand and hourly renewable supply
 * shapes for a geographic region (synthesized by src/grid and
 * src/datacenter), plus manufacturing footprints and lifetimes of
 * solar panels, wind turbines, batteries, and servers.
 *
 * Output: carbon-optimal renewable investment amounts, battery
 * capacity, and server capacity, found by exhaustively minimizing
 * operational + embodied carbon over a user-bounded design space.
 */

#ifndef CARBONX_CORE_EXPLORER_H
#define CARBONX_CORE_EXPLORER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "battery/chemistry.h"
#include "carbon/embodied.h"
#include "common/error.h"
#include "core/coverage.h"
#include "core/design_point.h"
#include "core/design_space.h"
#include "core/pareto.h"
#include "datacenter/load_model.h"
#include "grid/grid_synthesizer.h"
#include "obs/audit.h"
#include "obs/journal.h"
#include "obs/recorder.h"
#include "obs/status.h"
#include "scheduler/simulation_batch.h"
#include "timeseries/timeseries.h"

namespace carbonx
{

class SweepResultCache;

/**
 * Thrown when a sweep stops early because the point-count abort hook
 * fired (CarbonExplorer::setAbortAfterPoints). Everything simulated
 * before the abort has been flushed to the sweep cache, so a rerun
 * with the same configuration resumes where this one stopped. Used by
 * the checkpoint/resume tests and the CI resume-smoke job.
 */
class SweepAborted : public Error
{
  public:
    SweepAborted(size_t simulated, std::string cache_path)
        : Error("sweep aborted after " + std::to_string(simulated) +
                " simulated points" +
                (cache_path.empty()
                     ? std::string(" (no cache attached)")
                     : "; progress flushed to " + cache_path)),
          simulated_points(simulated), cache_path(std::move(cache_path))
    {
    }

    size_t simulated_points = 0;
    std::string cache_path;
};

/**
 * How renewable-farm embodied carbon is attributed to the datacenter.
 *
 * The paper's life-cycle footprints (g CO2 per kWh generated) can be
 * charged to the datacenter in two defensible ways:
 *  - ConsumedEnergy: the DC carries the footprint of the renewable
 *    energy it actually consumes (its PPA share); the farm's surplus
 *    carries its own footprint to whoever absorbs it on the grid.
 *    This reproduces the paper's behavior, where heavily oversized
 *    farms and 100% 24/7 coverage can still be carbon-optimal.
 *  - WholeFarm: the DC carries the footprint of everything its
 *    contracted farms generate, surplus included. Conservative; makes
 *    oversizing expensive and lowers the optimal coverage.
 */
enum class RenewableAttribution
{
    ConsumedEnergy,
    WholeFarm,
};

/** Full configuration of one Carbon Explorer study. */
struct ExplorerConfig
{
    /** Balancing authority powering the datacenter. */
    std::string ba_code = "PACE";

    /** Evaluation year (the paper uses 2020). */
    int year = 2020;

    /** Master seed for all synthetic traces. */
    uint64_t seed = 2020;

    /** Average datacenter power. */
    MegaWatts avg_dc_power_mw{30.0};

    /**
     * Flexible workload ratio for carbon-aware scheduling; the
     * paper's holistic analysis uses 0.4.
     */
    Fraction flexible_ratio{0.4};

    /** Completion SLO for deferred work. */
    Hours slo_window_hours{24.0};

    /** Battery chemistry for storage strategies. */
    BatteryChemistry chemistry = BatteryChemistry::lithiumIronPhosphate();

    /** Life-cycle footprints of wind/solar assets. */
    RenewableEmbodiedParams renewable_embodied{};

    /** Embodied-carbon attribution for renewable farms. */
    RenewableAttribution attribution =
        RenewableAttribution::ConsumedEnergy;

    /** Server SKU for extra demand-response capacity. */
    ServerSpec server_spec{};

    /**
     * Battery grid-charging policy. Never reproduces the paper;
     * BelowIntensityThreshold lets the battery charge from the grid
     * whenever the hourly intensity is at or below the threshold —
     * the grid-charging ablation, now a first-class design knob so
     * the scenario registry can sweep it.
     */
    GridChargePolicy grid_charge_policy = GridChargePolicy::Never;

    /** Intensity threshold for BelowIntensityThreshold. */
    GramsPerKwh grid_charge_threshold_gkwh{0.0};

    /** Extra knobs of the demand model (avg power is overridden). */
    LoadModelParams load_params{};
};

/** Carbon outcome of one (design point, strategy) evaluation. */
struct Evaluation
{
    DesignPoint point;
    Strategy strategy = Strategy::RenewablesOnly;

    double coverage_pct = 0.0;

    /** Annual operational carbon from grid draw. */
    KilogramsCo2 operational_kg;

    /** Annual embodied attributions per asset class. */
    KilogramsCo2 embodied_solar_kg;
    KilogramsCo2 embodied_wind_kg;
    KilogramsCo2 embodied_battery_kg;
    KilogramsCo2 embodied_server_kg;

    double battery_cycles = 0.0;      ///< Full-equivalent cycles/year.
    MegaWattHours deferred_mwh;       ///< Energy shifted by CAS.
    MegaWattHours renewable_excess_mwh; ///< Unused renewable supply.

    KilogramsCo2 embodiedKg() const
    {
        return embodied_solar_kg + embodied_wind_kg +
               embodied_battery_kg + embodied_server_kg;
    }

    KilogramsCo2 totalKg() const
    {
        return operational_kg + embodiedKg();
    }
};

/** Outcome of an exhaustive search. */
struct OptimizationResult
{
    Evaluation best;
    std::vector<Evaluation> evaluated;

    /** Pareto frontier of the evaluated set on (embodied, operational). */
    std::vector<Evaluation> paretoSet() const;
};

/**
 * One sweep pass over a design space; the int is the pass number
 * (0 for the first) that tags its progress reports.
 */
using SweepPass =
    std::function<OptimizationResult(const DesignSpace &, int)>;

/**
 * The zoom refinement of both sweep drivers (CarbonExplorer::optimize
 * and AdaptiveSweeper::sweep): run @p pass over @p space, then for
 * each of @p rounds narrow every axis to one current step either side
 * of the best point so far (clamped to @p space's bounds, sample
 * counts kept) and run @p pass over the zoomed space. Returns the
 * best over all passes (the earliest wins ties) and the union of
 * their evaluations in pass order. Throws UserError on negative
 * @p rounds.
 */
OptimizationResult zoomRefine(const DesignSpace &space, int rounds,
                              const SweepPass &pass);

/**
 * One simulated year in full: the lane aggregates plus four hourly
 * series copied from the run's flight recording.
 */
struct SimulationResult : BatchLaneResult
{
    TimeSeries served_power;   ///< Power actually consumed per hour (MW).
    TimeSeries grid_power;     ///< Carbon-intensive grid draw (MW).
    TimeSeries battery_soc;    ///< State of charge at hour end.
    TimeSeries battery_flow;   ///< +MW charging, -MW discharging.

    explicit SimulationResult(int year)
        : served_power(year), grid_power(year), battery_soc(year),
          battery_flow(year)
    {
    }
};

/**
 * Full forensic detail of one design point: the carbon evaluation,
 * the simulation aggregates, and the hour-by-hour flight recording —
 * everything `carbonx explain` and the invariant auditor need to
 * reconstruct where every kilogram of the reported total came from.
 */
struct ExplainResult
{
    Evaluation evaluation;
    BatchLaneResult simulation;
    obs::FlightRecorder recording;

    /** Capacity cap the run was configured with. */
    MegaWatts capacity_cap_mw{0.0};

    /** Battery nameplate capacity (0 when the strategy has none). */
    MegaWattHours battery_capacity_mwh{0.0};

    /**
     * All-grid counterfactual: operational carbon had every hour of
     * demand been served from the grid. The anchor bar of the
     * waterfall — the gap down to the actual operational carbon is
     * what the renewable/battery/CAS investment avoided.
     */
    KilogramsCo2 grid_only_kg{0.0};

    /** Audit context matching this run's configuration and outputs. */
    obs::AuditContext auditContext() const
    {
        obs::AuditContext ctx;
        ctx.capacity_cap_mw = capacity_cap_mw.value();
        ctx.battery_capacity_mwh = battery_capacity_mwh.value();
        ctx.residual_backlog_mwh =
            simulation.residual_backlog_mwh.value();
        ctx.reported_operational_kg = evaluation.operational_kg.value();
        return ctx;
    }
};

/**
 * User-supplied hourly traces, for running Carbon Explorer on real
 * data (e.g. actual EIA grid-monitor exports and metered datacenter
 * load) instead of the built-in synthetic models.
 */
struct ExternalTraces
{
    TimeSeries dc_power;    ///< Hourly datacenter demand (MW).
    TimeSeries solar_shape; ///< Per-unit solar shape (max 1.0).
    TimeSeries wind_shape;  ///< Per-unit wind shape (max 1.0).
    TimeSeries intensity;   ///< Grid carbon intensity (g/kWh).

    ExternalTraces(TimeSeries load, TimeSeries solar, TimeSeries wind,
                   TimeSeries inten)
        : dc_power(std::move(load)), solar_shape(std::move(solar)),
          wind_shape(std::move(wind)), intensity(std::move(inten))
    {
    }

    /**
     * Load from a CSV with columns dc_power_mw, solar_mw, wind_mw,
     * intensity_g_per_kwh (one row per hour of @p year; extra columns
     * ignored). Solar/wind columns are rescaled to per-unit shapes.
     * Throws UserError naming the file, the column and the first bad
     * data row when a value is negative or not finite.
     */
    static ExternalTraces fromCsv(const std::string &path, int year);
};

/** The design-space exploration facade. */
class CarbonExplorer
{
  public:
    explicit CarbonExplorer(ExplorerConfig config);

    /**
     * Construct from user-supplied traces instead of the synthetic
     * grid/load models. The config still provides the embodied
     * parameters, chemistry, flexibility and attribution; its
     * ba_code / avg_dc_power_mw / seed are ignored.
     */
    CarbonExplorer(ExplorerConfig config, const ExternalTraces &traces);

    /** Evaluate one candidate design under a strategy. */
    Evaluation evaluate(const DesignPoint &point, Strategy strategy) const;

    /**
     * Full simulation detail (hourly series, battery SoC, backlog
     * stats) for one candidate design; used by the illustration
     * figures (11, 16).
     */
    SimulationResult simulate(const DesignPoint &point,
                              Strategy strategy) const;

    /**
     * Re-run one design point with the flight recorder attached:
     * same kernel, same inputs, so the evaluation is bit-identical
     * to evaluate() — plus the full hourly recording (carbon column
     * included) ready for auditing and timeline export.
     */
    ExplainResult explain(const DesignPoint &point,
                          Strategy strategy) const;

    /**
     * Exhaustive search: minimize total (op + embodied) carbon. The
     * (solar, wind) grid is sharded across the process thread pool
     * (see common/parallel.h); results are deterministic — `best` and
     * the order of `evaluated` are bit-identical at any thread count.
     * @p refine_rounds exhaustive passes follow over the space zoomed
     * onto the best point so far (see zoomRefine), converging on the
     * carbon optimum far faster than a uniformly fine grid; the
     * returned evaluated set is then the union of all passes.
     */
    OptimizationResult optimize(const DesignSpace &space,
                                Strategy strategy,
                                int refine_rounds = 0) const;

    /**
     * Smallest battery that reaches @p target_pct coverage for the
     * given renewable investment, by bisection; negative when
     * unreachable below @p max_mwh (a negative @p max_mwh asks for
     * the default bound of 100 average-power hours).
     */
    MegaWattHours
    minimumBatteryForCoverage(MegaWatts solar_mw, MegaWatts wind_mw,
                              double target_pct = 99.999,
                              MegaWattHours max_mwh =
                                  MegaWattHours(-1.0)) const;

    /**
     * Smallest extra server fraction that reaches @p target_pct
     * coverage with carbon-aware scheduling (no battery); negative
     * when unreachable below @p max_extra.
     */
    Fraction minimumExtraCapacityForCoverage(
        MegaWatts solar_mw, MegaWatts wind_mw,
        double target_pct = 99.999,
        Fraction max_extra = Fraction(4.0)) const;

    /**
     * Stable FNV-1a digest of everything an Evaluation depends on:
     * the full configuration (region, year, seed, demand model,
     * chemistry, embodied parameters, attribution, server spec) plus
     * the actual hourly trace content, folded with @p strategy. Two
     * explorers with equal digests produce bit-identical evaluations
     * for the same design point, which is what makes the digest safe
     * as the persistent result-cache key.
     */
    uint64_t configDigest(Strategy strategy) const;

    /**
     * Attach a persistent result cache (borrowed; may be null to
     * detach). Every sweep — optimize() and the adaptive driver, with
     * or without refinement — consults it before simulating a point and
     * checkpoints fresh evaluations into it between parallel batches,
     * so interrupted sweeps resume and identical re-runs are pure
     * cache replays. The cache must have been created with
     * configDigest(strategy) of the strategy being swept.
     */
    void setSweepCache(SweepResultCache *cache) { sweep_cache_ = cache; }

    /**
     * Attach a decision journal (borrowed; may be null to detach).
     * Every sweep then records one row per design-point decision —
     * evaluated / interpolated / skipped / cache_hit / re_armed —
     * through the batched evaluator and the adaptive driver, flushed
     * block-wise at each checkpoint. Emission is instance-based and
     * re-entrant: two explorers with two journals never share state.
     */
    void setJournal(obs::DecisionJournal *journal)
    {
        journal_ = journal;
    }

    /** The attached decision journal, or null. */
    obs::DecisionJournal *journal() const { return journal_; }

    /**
     * Attach a live run status (borrowed; may be null to detach).
     * Every sweep pass — exhaustive or adaptive, each refinement
     * round its own pass — opens a pass on it, adds each finished
     * wave, and closes the pass; its milestone callback
     * (obs::RunStatus::setMilestoneCallback) is how front ends observe
     * sweep progress. The CLI renders it as the --status-out page and
     * the SIGUSR1 dump.
     */
    void setRunStatus(obs::RunStatus *status) { run_status_ = status; }

    /** The attached run-status sink, or null. */
    obs::RunStatus *runStatus() const { return run_status_; }

    /**
     * Testing/CI hook: abort any sweep (throwing SweepAborted) once
     * @p n points have been freshly simulated across passes, right
     * after the cache checkpoint that persists them. 0 disables.
     * Setting the threshold resets the fresh-point count.
     */
    void setAbortAfterPoints(size_t n)
    {
        abort_after_points_ = n;
        fresh_simulated_points_ = 0;
    }

    const ExplorerConfig &config() const { return config_; }
    const TimeSeries &dcPower() const { return coverage_.dcPower(); }
    const TimeSeries &gridIntensity() const { return intensity_; }
    const CoverageAnalyzer &coverageAnalyzer() const { return coverage_; }
    MegaWatts dcPeakPowerMw() const { return peak_power_mw_; }

  private:
    friend class SweepBatchEvaluator;

    /** The synthetic constructor's body, fed its synthesized year. */
    CarbonExplorer(ExplorerConfig config, GridTrace trace);

    /** One exhaustive pass; @p pass tags progress reports. */
    OptimizationResult optimizePass(const DesignSpace &space,
                                    Strategy strategy, int pass) const;

    /**
     * The kernel lane simulating @p point under @p strategy: capacity
     * cap, flexible ratio, SLO window and battery mapped from the
     * strategy and the explorer's configuration.
     */
    BatchLaneConfig laneConfig(const DesignPoint &point,
                               Strategy strategy) const;

    /**
     * Run @p lane alone, as a one-lane batch over the explorer's
     * traces, streaming its hours into @p recorder when non-null.
     */
    BatchLaneResult runLane(const BatchLaneConfig &lane,
                            obs::FlightRecorder *recorder = nullptr) const;

    /** Carbon attribution of one simulated lane. */
    Evaluation evaluationFrom(const DesignPoint &point, Strategy strategy,
                              const BatchLaneResult &lane) const;

    ExplorerConfig config_;
    /** The grid's hourly carbon intensity; the only grid series kept. */
    TimeSeries intensity_;
    /**
     * Also holds the hourly demand and the per-unit solar/wind
     * shapes (one copy each).
     */
    CoverageAnalyzer coverage_;
    EmbodiedCarbonModel embodied_;
    MegaWatts peak_power_mw_;
    SweepResultCache *sweep_cache_ = nullptr;
    obs::DecisionJournal *journal_ = nullptr;
    obs::RunStatus *run_status_ = nullptr;
    size_t abort_after_points_ = 0;
    /**
     * Fresh (cache-missed) simulations since setAbortAfterPoints,
     * accumulated across passes by SweepBatchEvaluator. Mutated only
     * on the coordinating thread, between parallel waves.
     */
    mutable size_t fresh_simulated_points_ = 0;
};

/**
 * Cache-aware batch evaluator shared by the exhaustive sweep and the
 * adaptive driver. Owns one BatchedSimulationEngine plus a per-worker
 * SimulationBatch (the SoA lane workspace that makes repeated point
 * evaluations allocation-free), consults the explorer's sweep cache
 * before simulating, and checkpoints fresh results back into it —
 * always on the calling thread, between parallel waves, so the cache
 * needs no internal locking. Cache misses shard into balanced lane
 * waves of at most 64 lanes, at least one per worker when there are
 * enough misses; each worker fills its whole wave into its batch and
 * one batched engine pass advances every lane through the hourly
 * trace together (scheduler/batched_engine.h).
 *
 * Determinism contract: evaluate() writes out[i] for points[i] and
 * produces bit-identical Evaluations whether a point was simulated
 * here, in a previous wave, or replayed from a cache written by an
 * earlier process with the same configDigest.
 */
class SweepBatchEvaluator
{
  public:
    /** @p explorer is borrowed and must outlive the evaluator. */
    SweepBatchEvaluator(const CarbonExplorer &explorer, Strategy strategy);
    ~SweepBatchEvaluator();

    SweepBatchEvaluator(const SweepBatchEvaluator &) = delete;
    SweepBatchEvaluator &operator=(const SweepBatchEvaluator &) = delete;

    /**
     * Evaluate @p count points into @p out (same length), hitting the
     * cache where possible and simulating misses in batched waves on
     * the process thread pool. Per-lane renewable supply is evaluated
     * inline from the shared shapes inside the kernel, so no point
     * ordering is required for performance (contiguous (solar, wind)
     * runs are fine but no longer special). Adds each finished
     * wave, and the cache hits as one batch, to the current pass of
     * @p status (optional).
     *
     * Each call ends with a checkpoint: fresh results are inserted
     * into the attached cache and flushed to disk, then SweepAborted
     * is thrown if the explorer's abort-after-points threshold has
     * been crossed. Callers control checkpoint granularity by how
     * many points they pass per call.
     */
    void evaluate(const DesignPoint *points, size_t count,
                  Evaluation *out, obs::RunStatus *status);

    /** Freshly simulated (cache-missed) points so far. */
    size_t simulatedPoints() const { return simulated_points_; }

    /** Cache hits so far (0 when no cache is attached). */
    size_t cacheHits() const { return cache_hits_; }

    /**
     * Journal annotation of one point in the next evaluate() call:
     * the verdict its rows carry and the prediction/margin that was
     * in force when the driver decided to simulate it. Points with
     * no annotation journal as Evaluated with NaN prediction.
     */
    struct PointAnnotation
    {
        obs::DecisionVerdict verdict = obs::DecisionVerdict::Evaluated;
        double predicted_kg = 0.0;
        double margin_kg = 0.0;
    };

    /**
     * Annotate the next evaluate() call: @p annotations is parallel
     * to its points array (borrowed, may be null). Consumed by that
     * call — subsequent calls revert to plain Evaluated rows.
     */
    void setPointAnnotations(const PointAnnotation *annotations)
    {
        annotations_ = annotations;
    }

  private:
    struct Workspaces;

    void checkpoint();

    const CarbonExplorer &explorer_;
    Strategy strategy_;
    /** Worker ids the pool may hand out (threadCount() at construction). */
    size_t worker_ids_;
    /** Engine and per-worker batches; built on the first cache miss. */
    std::unique_ptr<Workspaces> workspaces_;
    size_t simulated_points_ = 0;
    size_t cache_hits_ = 0;
    const PointAnnotation *annotations_ = nullptr;
};

} // namespace carbonx

#endif // CARBONX_CORE_EXPLORER_H

#include "explorer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "carbon/operational.h"
#include "common/error.h"
#include "common/csv.h"
#include "common/fnv.h"
#include "common/tolerances.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/table.h"
#include "core/adaptive_sweep.h"
#include "grid/balancing_authority.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "scheduler/batched_engine.h"

namespace carbonx
{

namespace
{

/** Hourly datacenter power demand for a config (MW). */
TimeSeries
makeDcPower(const ExplorerConfig &config)
{
    LoadModelParams params = config.load_params;
    params.avg_power_mw = config.avg_dc_power_mw.value();
    const DatacenterLoadModel model(params);
    return model.generate(config.year, config.seed).power;
}

/** Build the grid trace for a config. */
GridTrace
makeGridTrace(const ExplorerConfig &config)
{
    const auto &profile =
        BalancingAuthorityRegistry::instance().lookup(config.ba_code);
    const GridSynthesizer synth(profile, config.seed);
    return synth.synthesize(config.year);
}

/**
 * The intensity of external traces, once every trace has been checked.
 * Traces built in code meet fromCsv's rules here: one year, every hour
 * finite and >= 0, so no NaN or negative intensity reaches the carbon
 * sums.
 */
const TimeSeries &
checkedIntensity(const ExternalTraces &traces)
{
    require(traces.dc_power.year() == traces.intensity.year() &&
                traces.dc_power.year() == traces.solar_shape.year() &&
                traces.dc_power.year() == traces.wind_shape.year(),
            "external traces must cover the same year");
    for (const auto &[name, series] :
         {std::pair{"dc_power", &traces.dc_power},
          std::pair{"solar_shape", &traces.solar_shape},
          std::pair{"wind_shape", &traces.wind_shape},
          std::pair{"intensity", &traces.intensity}}) {
        for (size_t h = 0; h < series->size(); ++h) {
            const double v = (*series)[h];
            if (!std::isfinite(v) || v < 0.0)
                throw UserError("external trace " + std::string(name) +
                                " must hold finite values >= 0, but "
                                "hour " + std::to_string(h) + " is " +
                                std::to_string(v));
        }
    }
    return traces.intensity;
}

/**
 * Column @p column of an external trace CSV as a series. Every value
 * must be a finite number >= 0: a negative or NaN intensity would
 * silently corrupt operational carbon, and negative load or
 * generation would fail deep in the engine without naming the file.
 */
TimeSeries
traceColumn(const CsvTable &csv, const std::string &path,
            const std::string &column, int year)
{
    const std::vector<std::string> &names = csv.header();
    const auto it = std::find(names.begin(), names.end(), column);
    std::string found;
    for (const std::string &name : names)
        found += (found.empty() ? "" : ", ") + name;
    require(it != names.end(), "trace CSV " + path + " has no column " +
                                   column + " (found: " + found + ")");
    const auto col = static_cast<size_t>(it - names.begin());
    std::vector<double> values(csv.numRows());
    for (size_t r = 0; r < values.size(); ++r) {
        double value = std::numeric_limits<double>::quiet_NaN();
        try {
            value = csv.numericCell(r, col);
        } catch (const UserError &) {
            // Not a number: reported below with the file and row.
        }
        if (!std::isfinite(value) || value < 0.0) {
            throw UserError(
                "trace CSV " + path + ": column " + column +
                " must hold finite numbers >= 0, but data row " +
                std::to_string(r + 1) + " is '" + csv.cell(r, col) + "'");
        }
        values[r] = value;
    }
    return TimeSeries(year, std::move(values));
}

} // namespace

ExternalTraces
ExternalTraces::fromCsv(const std::string &path, int year)
{
    CARBONX_PROFILE("explorer/load_external_traces");
    inform("loading external traces from " + path +
           "; solar/wind columns are rescaled to per-unit shapes");
    const CsvTable csv = CsvTable::readFile(path);
    const HourlyCalendar calendar(year);
    require(csv.numRows() == calendar.hoursInYear(),
            "trace CSV " + path + " must have one row per hour of " +
                std::to_string(year) + " (" +
                std::to_string(calendar.hoursInYear()) + "), not " +
                std::to_string(csv.numRows()));
    TimeSeries load = traceColumn(csv, path, "dc_power_mw", year);
    TimeSeries solar = traceColumn(csv, path, "solar_mw", year);
    TimeSeries wind = traceColumn(csv, path, "wind_mw", year);
    TimeSeries intensity =
        traceColumn(csv, path, "intensity_g_per_kwh", year);
    // Dead generation columns are almost always an export bug (wrong
    // units, empty join), so reject them here with the column name
    // instead of letting scaledToMax produce a cryptic error. A region
    // that really lacks a resource can construct ExternalTraces
    // directly with an all-zero shape.
    require(solar.max() > 0.0,
            "trace CSV column solar_mw has no positive values; cannot "
            "derive a per-unit solar shape from " + path);
    require(wind.max() > 0.0,
            "trace CSV column wind_mw has no positive values; cannot "
            "derive a per-unit wind shape from " + path);
    return ExternalTraces(std::move(load), solar.scaledToMax(1.0),
                          wind.scaledToMax(1.0), std::move(intensity));
}

namespace
{

/** The scheduling knobs both constructors check. */
void
checkKnobs(const ExplorerConfig &config)
{
    require(config.flexible_ratio.value() >= 0.0 &&
                config.flexible_ratio.value() <= 1.0,
            "flexible ratio must be in [0, 1]");
    require(std::isfinite(config.slo_window_hours.value()),
            "slo_window_hours must be finite");
}

} // namespace

CarbonExplorer::CarbonExplorer(ExplorerConfig config)
    : CarbonExplorer(config, makeGridTrace(config))
{
}

CarbonExplorer::CarbonExplorer(ExplorerConfig config, GridTrace trace)
    : config_(std::move(config)), intensity_(std::move(trace.intensity)),
      coverage_(makeDcPower(config_), perUnitShape(trace.solar_potential),
                perUnitShape(trace.wind_potential)),
      embodied_(config_.renewable_embodied, config_.server_spec),
      peak_power_mw_(coverage_.dcPower().max())
{
    checkKnobs(config_);
}

CarbonExplorer::CarbonExplorer(ExplorerConfig config,
                               const ExternalTraces &traces)
    : config_(std::move(config)), intensity_(checkedIntensity(traces)),
      coverage_(traces.dc_power, traces.solar_shape, traces.wind_shape),
      embodied_(config_.renewable_embodied, config_.server_spec),
      peak_power_mw_(coverage_.dcPower().max())
{
    checkKnobs(config_);
}

uint64_t
CarbonExplorer::configDigest(Strategy strategy) const
{
    // Canonical, version-tagged serialization of every input an
    // Evaluation depends on. Field order and widths are part of the
    // format: any change must bump the version tag below so caches
    // written by older builds rebuild instead of matching spuriously.
    std::string buf;
    buf.reserve(512);
    const auto raw = [&buf](const auto &value) {
        buf.append(reinterpret_cast<const char *>(&value),
                   sizeof(value));
    };
    const auto str = [&](const std::string &s) {
        raw(static_cast<uint64_t>(s.size()));
        buf += s;
    };

    // v2: grid-charging policy/threshold joined the evaluation inputs.
    str("carbonx-sweep-config-v2");
    str(config_.ba_code);
    raw(static_cast<int64_t>(config_.year));
    raw(config_.seed);
    raw(config_.avg_dc_power_mw.value());
    raw(config_.flexible_ratio.value());
    raw(config_.slo_window_hours.value());

    const BatteryChemistry &chem = config_.chemistry;
    str(chem.name);
    raw(chem.charge_efficiency);
    raw(chem.discharge_efficiency);
    raw(chem.max_charge_c_rate);
    raw(chem.max_discharge_c_rate);
    raw(chem.depth_of_discharge);
    raw(chem.embodied_kg_per_kwh);
    raw(static_cast<uint64_t>(chem.cycle_life.size()));
    for (const CycleLifePoint &p : chem.cycle_life) {
        raw(p.depth_of_discharge);
        raw(p.cycles);
    }
    raw(chem.calendar_life_years);

    raw(config_.renewable_embodied.wind_g_per_kwh.value());
    raw(config_.renewable_embodied.solar_g_per_kwh.value());
    raw(config_.renewable_embodied.wind_lifetime_years);
    raw(config_.renewable_embodied.solar_lifetime_years);
    raw(static_cast<int32_t>(config_.attribution));
    raw(static_cast<int32_t>(config_.grid_charge_policy));
    raw(config_.grid_charge_threshold_gkwh.value());

    raw(config_.server_spec.tdp_watts);
    raw(config_.server_spec.idle_fraction);
    raw(config_.server_spec.embodied_kg_co2);
    raw(config_.server_spec.lifetime_years);
    raw(config_.server_spec.infrastructure_multiplier);

    raw(config_.load_params.avg_power_mw);
    raw(config_.load_params.util_mean);
    raw(config_.load_params.util_swing);
    raw(config_.load_params.weekend_dip);
    raw(config_.load_params.util_noise);
    raw(config_.load_params.idle_power_fraction);
    raw(config_.load_params.peak_hour);

    raw(static_cast<int32_t>(strategy));

    // Fold in the actual trace content (not just its parameters):
    // external traces have no generating config, and even synthetic
    // ones could drift across generator changes. Bit-equal digests
    // then really do imply bit-equal evaluation inputs.
    uint64_t digest = fnv1a64String(buf);
    const auto fold = [&digest](const TimeSeries &series) {
        const int32_t series_year = series.year();
        digest =
            fnv1a64Bytes(&series_year, sizeof(series_year), digest);
        const std::span<const double> values = series.values();
        digest = fnv1a64Bytes(values.data(),
                              values.size() * sizeof(double), digest);
    };
    fold(coverage_.dcPower());
    fold(intensity_);
    fold(coverage_.solarShape());
    fold(coverage_.windShape());
    return digest;
}

BatchLaneConfig
CarbonExplorer::laneConfig(const DesignPoint &point,
                           Strategy strategy) const
{
    BatchLaneConfig lane;
    lane.solar_mw = point.solar_mw;
    lane.wind_mw = point.wind_mw;
    lane.capacity_cap_mw = MegaWatts(
        peak_power_mw_.value() * (1.0 + (strategyUsesCas(strategy)
                                             ? point.extra_capacity
                                                   .value()
                                             : 0.0)));
    lane.flexible_ratio = strategyUsesCas(strategy)
        ? config_.flexible_ratio
        : Fraction(0.0);
    lane.slo_window_hours = config_.slo_window_hours;
    // A lane has a battery exactly when the strategy uses storage and
    // the point sizes it above zero.
    if (strategyUsesBattery(strategy) &&
        point.battery_mwh.value() > 0.0) {
        lane.battery_capacity_mwh = point.battery_mwh;
        lane.chemistry = &config_.chemistry;
        lane.grid_charge_policy = config_.grid_charge_policy;
        lane.grid_charge_threshold_gkwh =
            config_.grid_charge_threshold_gkwh;
    }
    return lane;
}

BatchLaneResult
CarbonExplorer::runLane(const BatchLaneConfig &lane,
                        obs::FlightRecorder *recorder) const
{
    const BatchedSimulationEngine engine(coverage_.dcPower(),
                                         coverage_.solarShape(),
                                         coverage_.windShape(),
                                         &intensity_);
    SimulationBatch batch(1);
    batch.addLane(lane);
    engine.run(batch, recorder);
    return batch.result(0);
}

Evaluation
CarbonExplorer::evaluationFrom(const DesignPoint &point, Strategy strategy,
                               const BatchLaneResult &lane) const
{
    Evaluation eval;
    eval.point = point;
    eval.strategy = strategy;
    eval.coverage_pct = lane.coverage_pct;
    eval.operational_kg = lane.operational_kg;

    // Renewable embodied carbon follows generated energy (LCA per-kWh
    // footprints amortize manufacturing over lifetime generation).
    // Under ConsumedEnergy attribution only the energy the DC used is
    // charged (its PPA share, split pro-rata between solar and wind);
    // under WholeFarm the full generation is charged.
    const MegaWattHours solar_gen_mwh(
        coverage_.solarShape().total() * point.solar_mw.value());
    const MegaWattHours wind_gen_mwh(
        coverage_.windShape().total() * point.wind_mw.value());
    double solar_attr = solar_gen_mwh.value();
    double wind_attr = wind_gen_mwh.value();
    if (config_.attribution == RenewableAttribution::ConsumedEnergy) {
        const double total_gen =
            solar_gen_mwh.value() + wind_gen_mwh.value();
        const MegaWattHours used = lane.renewable_used_mwh;
        if (total_gen > 0.0 &&
            used.value() > total_gen * (1.0 + kUnitIntervalSlack)) {
            warn("renewable energy used exceeds farm generation (" +
                 formatFixed(used.value(), 1) +
                 " > " + formatFixed(total_gen, 1) +
                 " MWh); clamping attribution to the whole farm");
        }
        const double used_fraction = total_gen > 0.0
            ? std::min(used.value() / total_gen, 1.0)
            : 0.0;
        solar_attr *= used_fraction;
        wind_attr *= used_fraction;
    }
    eval.embodied_solar_kg =
        embodied_.solarAnnual(MegaWattHours(solar_attr));
    eval.embodied_wind_kg =
        embodied_.windAnnual(MegaWattHours(wind_attr));

    if (strategyUsesBattery(strategy) &&
        point.battery_mwh.value() > 0.0) {
        const double days = static_cast<double>(
            coverage_.dcPower().calendar().daysInYear());
        const double cycles_per_day = lane.battery_cycles / days;
        eval.embodied_battery_kg = embodied_.batteryAnnual(
            point.battery_mwh, config_.chemistry, cycles_per_day);
    }
    if (strategyUsesCas(strategy)) {
        eval.embodied_server_kg = embodied_.extraServersAnnual(
            peak_power_mw_, point.extra_capacity);
    }

    eval.battery_cycles = lane.battery_cycles;
    eval.deferred_mwh = lane.deferred_mwh;
    eval.renewable_excess_mwh = lane.renewable_excess_mwh;
    return eval;
}

SimulationResult
CarbonExplorer::simulate(const DesignPoint &point, Strategy strategy) const
{
    CARBONX_PROFILE("explorer/simulate");
    obs::counter("explorer.simulations").increment();
    const BatchLaneConfig lane = laneConfig(point, strategy);
    obs::FlightRecorder recording;
    SimulationResult out(coverage_.dcPower().year());
    static_cast<BatchLaneResult &>(out) = runLane(lane, &recording);
    const double capacity = lane.battery_capacity_mwh.value();
    for (size_t h = 0; h < recording.hours(); ++h) {
        out.served_power[h] = recording.served_mw[h];
        out.grid_power[h] = recording.grid_mw[h];
        out.battery_flow[h] = recording.battery_charge_mw[h] -
            recording.battery_discharge_mw[h];
        out.battery_soc[h] = capacity > 0.0
            ? recording.battery_energy_mwh[h] / capacity
            : 0.0;
    }
    return out;
}

Evaluation
CarbonExplorer::evaluate(const DesignPoint &point, Strategy strategy) const
{
    CARBONX_PROFILE("explorer/evaluate");
    obs::counter("explorer.evaluations").increment();
    return evaluationFrom(point, strategy,
                          runLane(laneConfig(point, strategy)));
}

ExplainResult
CarbonExplorer::explain(const DesignPoint &point, Strategy strategy) const
{
    CARBONX_PROFILE("explorer/explain");
    obs::counter("explorer.explains").increment();

    ExplainResult out;
    const BatchLaneConfig lane = laneConfig(point, strategy);
    out.simulation = runLane(lane, &out.recording);
    out.evaluation = evaluationFrom(point, strategy, out.simulation);
    out.capacity_cap_mw = lane.capacity_cap_mw;
    out.battery_capacity_mwh = lane.battery_capacity_mwh;
    out.grid_only_kg = OperationalCarbonModel::gridEmissions(
        coverage_.dcPower(), intensity_);
    return out;
}

OptimizationResult
CarbonExplorer::optimize(const DesignSpace &space, Strategy strategy,
                         int refine_rounds) const
{
    return zoomRefine(space, refine_rounds,
                      [&](const DesignSpace &pass_space, int pass) {
                          return optimizePass(pass_space, strategy, pass);
                      });
}

namespace
{

/**
 * Per-worker batch capacity: the most lanes one batched engine pass
 * takes. Large enough to amortize one traversal of the hourly trace
 * (and its cache traffic) over many design points, small enough that
 * a call's misses still split into several waves for the pool.
 */
constexpr size_t kSweepBatchLanes = 64;

/** Journal point id of @p point (same bytes as the cache key). */
uint64_t
journalPointId(const DesignPoint &point)
{
    return obs::decisionPointId(
        {point.solar_mw.value(), point.wind_mw.value(),
         point.battery_mwh.value(), point.extra_capacity.value()});
}

constexpr double kJournalNan = std::numeric_limits<double>::quiet_NaN();

/**
 * Per-worker scratch for the design-space sweep: one simulation
 * batch, reused across every wave the worker evaluates. Its backlog
 * rings are sized by its first wave that is not plain (DESIGN.md
 * section 13) and reused after that, so later waves allocate
 * nothing.
 */
struct SweepWorkspace
{
    SimulationBatch batch{kSweepBatchLanes};
};

} // namespace

struct SweepBatchEvaluator::Workspaces
{
    BatchedSimulationEngine engine;
    std::vector<SweepWorkspace> per_worker;

    Workspaces(const TimeSeries &dc_power, const TimeSeries &solar_shape,
               const TimeSeries &wind_shape,
               const TimeSeries *grid_intensity, size_t worker_ids)
        : engine(dc_power, solar_shape, wind_shape, grid_intensity)
    {
        per_worker.resize(worker_ids);
    }
};

SweepBatchEvaluator::SweepBatchEvaluator(const CarbonExplorer &explorer,
                                         Strategy strategy)
    : explorer_(explorer), strategy_(strategy),
      worker_ids_(std::max<size_t>(threadCount(), 1))
{
}

SweepBatchEvaluator::~SweepBatchEvaluator() = default;

void
SweepBatchEvaluator::evaluate(const DesignPoint *points, size_t count,
                              Evaluation *out, obs::RunStatus *status)
{
    CARBONX_PROFILE("sweep/batch");
    static auto &c_points = obs::counter("explorer.points_evaluated");
    static auto &c_hits = obs::counter("sweep.cache_hits");

    SweepResultCache *cache = explorer_.sweep_cache_;
    obs::DecisionJournal *journal = explorer_.journal_;
    if (journal != nullptr)
        journal->ensureSinks(worker_ids_);

    // Serial cache pass on the coordinating thread; the cache needs
    // no locking because workers never touch it. Cache replays are
    // journaled here (worker 0, no wave of their own): the cached
    // total is the "actual", there was never a prediction. A revived
    // point keeps the margin that revived it, so its replay still
    // cancels its skip row (obs::isRevival).
    std::vector<size_t> misses;
    misses.reserve(count);
    {
        CARBONX_PROFILE("sweep/cache_lookup");
        const uint64_t ts =
            journal != nullptr ? journal->nowUs() : 0;
        double hits_best_kg = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < count; ++i) {
            if (cache != nullptr &&
                cache->find(points[i], strategy_, &out[i])) {
                ++cache_hits_;
                if (journal != nullptr) {
                    obs::DecisionRow row;
                    row.point_id = journalPointId(points[i]);
                    row.wave = journal->nextWave();
                    row.verdict = obs::DecisionVerdict::CacheHit;
                    row.predicted_kg = kJournalNan;
                    row.actual_kg = out[i].totalKg().value();
                    row.margin_kg = annotations_ != nullptr &&
                            annotations_[i].verdict ==
                                obs::DecisionVerdict::ReArmed
                        ? annotations_[i].margin_kg
                        : kJournalNan;
                    row.ts_us = ts;
                    journal->sink(0).record(row);
                }
                hits_best_kg =
                    std::min(hits_best_kg, out[i].totalKg().value());
            } else {
                misses.push_back(i);
            }
        }
        if (cache != nullptr)
            c_hits.increment(count - misses.size());
        if (status != nullptr)
            status->addPoints(count - misses.size(), hits_best_kg);
    }

    // Misses shard into balanced lane waves: each worker fills its
    // whole wave into its SoA batch and one batched engine pass
    // advances every lane through the hourly trace together. Per-lane
    // supply is evaluated inline from the shared shapes inside the
    // kernel, so no supply series is ever expanded. The wave count is
    // the 64-lane wave count rounded up to a multiple of the workers
    // (at most one wave per miss), so a call of 64 or fewer misses
    // still occupies every worker; wave w covers misses
    // [w*n/waves, (w+1)*n/waves), which never exceeds 64 lanes. Lanes
    // are independent and out-slots are fixed, so the merged results
    // are bit-identical at any thread count.
    static auto &g_batch = obs::gauge("sweep.batch_size");
    static auto &g_threads = obs::gauge("sweep.threads");

    const CarbonExplorer &ex = explorer_;
    const size_t n = misses.size();
    // One workspace per possible worker id (the caller is id 0, pool
    // workers are 1..N-1), so no two workers ever share scratch. The
    // engine itself is shared: run() is const and only touches the
    // worker's own batch. The intensity series is always attached so
    // the kernel accumulates per-lane operational carbon inline. All
    // of it is built on the first miss, so an all-hit replay never
    // pays for it.
    if (n > 0 && workspaces_ == nullptr) {
        workspaces_ = std::make_unique<Workspaces>(
            ex.coverage_.dcPower(), ex.coverage_.solarShape(),
            ex.coverage_.windShape(), &ex.intensity_,
            worker_ids_);
    }
    const size_t workers = std::max<size_t>(threadCount(), 1);
    const size_t full_waves =
        (n + kSweepBatchLanes - 1) / kSweepBatchLanes;
    const size_t waves = std::min(
        n, (full_waves + workers - 1) / workers * workers);
    if (waves > 0) {
        g_batch.set(static_cast<double>((n + waves - 1) / waves));
        g_threads.set(static_cast<double>(std::min(workers, waves)));
    }
    // Wave ids are claimed from the journal before the parallel
    // region launches: the journal's counter spans the whole run, so
    // ids stay unique even though every optimize pass constructs a
    // fresh evaluator.
    const uint32_t wave_base = journal != nullptr
        ? journal->claimWaves(static_cast<uint32_t>(waves))
        : 0;
    parallelFor(0, waves, 1, [&](size_t wave, size_t worker) {
        CARBONX_PROFILE("sweep/run_group");
        SweepWorkspace &ws = workspaces_->per_worker[worker];
        const size_t i0 = wave * n / waves;
        const size_t i1 = (wave + 1) * n / waves;
        {
            CARBONX_PROFILE("sweep/batch_fill");
            ws.batch.clear();
            for (size_t i = i0; i < i1; ++i)
                ws.batch.addLane(
                    ex.laneConfig(points[misses[i]], strategy_));
        }
        workspaces_->engine.run(ws.batch);
        // One timestamp per wave keeps journaling off the per-point
        // path; rows go into this worker's private sink, so no other
        // worker ever touches the same buffer.
        const uint64_t wave_ts =
            journal != nullptr ? journal->nowUs() : 0;
        double wave_best_kg = std::numeric_limits<double>::infinity();
        for (size_t i = i0; i < i1; ++i) {
            const size_t idx = misses[i];
            out[idx] = ex.evaluationFrom(points[idx], strategy_,
                                         ws.batch.result(i - i0));
            wave_best_kg =
                std::min(wave_best_kg, out[idx].totalKg().value());
            if (journal != nullptr) {
                const PointAnnotation *ann = annotations_ != nullptr
                    ? &annotations_[idx]
                    : nullptr;
                obs::DecisionRow row;
                row.point_id = journalPointId(points[idx]);
                row.wave =
                    wave_base + static_cast<uint32_t>(wave);
                row.worker = static_cast<uint16_t>(worker);
                row.lane = static_cast<uint16_t>(i - i0);
                row.verdict = ann != nullptr
                    ? ann->verdict
                    : obs::DecisionVerdict::Evaluated;
                row.predicted_kg =
                    ann != nullptr ? ann->predicted_kg : kJournalNan;
                row.actual_kg = out[idx].totalKg().value();
                row.margin_kg =
                    ann != nullptr ? ann->margin_kg : kJournalNan;
                row.ts_us = wave_ts;
                journal->sink(worker).record(row);
            }
        }
        if (status != nullptr)
            status->addWave(worker, i1 - i0, wave_best_kg);
        c_points.increment(i1 - i0);
    });

    // Annotations cover exactly one evaluate() call.
    annotations_ = nullptr;

    simulated_points_ += misses.size();
    ex.fresh_simulated_points_ += misses.size();
    if (cache != nullptr) {
        for (const size_t idx : misses)
            cache->insert(out[idx]);
    }
    checkpoint();
}

void
SweepBatchEvaluator::checkpoint()
{
    SweepResultCache *cache = explorer_.sweep_cache_;
    if (cache != nullptr)
        cache->flush();
    if (explorer_.journal_ != nullptr)
        explorer_.journal_->flush();
    // The abort hook fires only after the flush above, so everything
    // this sweep simulated is already durable when the exception
    // unwinds — the contract the resume tests rely on.
    if (explorer_.abort_after_points_ > 0 &&
        explorer_.fresh_simulated_points_ >=
            explorer_.abort_after_points_) {
        throw SweepAborted(explorer_.fresh_simulated_points_,
                           cache != nullptr ? cache->path()
                                            : std::string());
    }
}

OptimizationResult
CarbonExplorer::optimizePass(const DesignSpace &space, Strategy strategy,
                             int pass) const
{
    CARBONX_PROFILE("sweep/pass");
    static auto &c_passes = obs::counter("explorer.optimize_passes");
    static auto &g_pps = obs::gauge("sweep.points_per_sec");
    c_passes.increment();

    const std::vector<double> solars = space.solar_mw.samples();
    const std::vector<double> winds = space.wind_mw.samples();
    const std::vector<double> batteries = strategyUsesBattery(strategy)
        ? space.battery_mwh.samples()
        : std::vector<double>{0.0};
    const std::vector<double> extras = strategyUsesCas(strategy)
        ? space.extra_capacity.samples()
        : std::vector<double>{0.0};

    // The (solar, wind) outer product shards across the thread pool;
    // each worker sweeps the battery/extra axes of its pairs locally.
    // Workers write into pre-sized slots (pair index x inner size), so
    // the merged `evaluated` ordering matches the serial quadruple
    // loop exactly regardless of scheduling.
    const size_t pairs = solars.size() * winds.size();
    const size_t inner = batteries.size() * extras.size();
    const size_t total = pairs * inner;
    ensure(total > 0, "optimization evaluated no design points");

    OptimizationResult result;
    result.evaluated.resize(total);

    std::vector<DesignPoint> points;
    points.reserve(total);
    for (const double s : solars) {
        for (const double w : winds) {
            for (const double b : batteries) {
                for (const double x : extras) {
                    points.push_back(DesignPoint{
                        MegaWatts(s), MegaWatts(w), MegaWattHours(b),
                        Fraction(x)});
                }
            }
        }
    }

    // Pair-run batches bound the checkpoint interval: a kill loses at
    // most one batch of fresh simulations, and the cache sees one
    // flush per batch instead of one per sweep. Each batch hands the
    // evaluator whole waves of points, which it shards into SoA lane
    // batches for the batched engine. A batch covers at least four
    // full waves per worker, so thin lattices (one inner point per
    // pair, as in RenewablesOnly) still occupy every worker; wide
    // ones (CAS, 45 inner points) keep the 64-pair floor.
    const size_t worker_ids = std::max<size_t>(threadCount(), 1);
    const size_t batch_pairs = std::max<size_t>(
        {64, 8 * worker_ids,
         (4 * kSweepBatchLanes * worker_ids + inner - 1) / inner});

    if (run_status_ != nullptr) {
        run_status_->setPhase("exhaustive sweep");
        run_status_->beginPass(pass, total);
    }
    const auto sweep_start = std::chrono::steady_clock::now();

    SweepBatchEvaluator evaluator(*this, strategy);
    size_t points_done = 0;
    try {
        for (size_t p0 = 0; p0 < pairs; p0 += batch_pairs) {
            const size_t p1 = std::min(pairs, p0 + batch_pairs);
            // Counted up front: checkpoint() only aborts after the
            // whole batch has been evaluated and flushed.
            points_done = p1 * inner;
            evaluator.evaluate(points.data() + p0 * inner,
                               (p1 - p0) * inner,
                               result.evaluated.data() + p0 * inner,
                               run_status_);
        }
    } catch (const SweepAborted &) {
        // The aborting batch finished evaluating before checkpoint()
        // threw, so the partial throughput is still meaningful; record
        // it instead of leaving sweep.points_per_sec at zero on the
        // abort path.
        const std::chrono::duration<double> aborted_s =
            std::chrono::steady_clock::now() - sweep_start;
        if (aborted_s.count() > 0.0 && points_done > 0) {
            g_pps.set(static_cast<double>(points_done) /
                      aborted_s.count());
        }
        throw;
    }
    if (run_status_ != nullptr)
        run_status_->finishPass();

    // In-order scan with strict < reproduces the serial tie-break:
    // among equal totals the first-evaluated point wins.
    result.best = result.evaluated.front();
    for (const Evaluation &eval : result.evaluated) {
        if (eval.totalKg() < result.best.totalKg())
            result.best = eval;
    }

    const std::chrono::duration<double> sweep_s =
        std::chrono::steady_clock::now() - sweep_start;
    if (sweep_s.count() > 0.0) {
        g_pps.set(static_cast<double>(total) / sweep_s.count());
    }
    return result;
}

std::vector<Evaluation>
OptimizationResult::paretoSet() const
{
    std::vector<ParetoPoint> points;
    points.reserve(evaluated.size());
    for (size_t i = 0; i < evaluated.size(); ++i) {
        points.push_back(
            ParetoPoint{evaluated[i].embodiedKg(),
                        evaluated[i].operational_kg, i});
    }
    std::vector<Evaluation> out;
    for (const auto &p : paretoFrontier(points))
        out.push_back(evaluated[p.tag]);
    return out;
}

namespace
{

/**
 * Zoom each axis of @p cur onto [best - step, best + step] (one
 * current step in every direction), clamped to @p orig's bounds,
 * keeping the sample counts.
 */
DesignSpace
zoomedSpace(const DesignSpace &orig, const DesignSpace &cur,
            const DesignPoint &best)
{
    auto zoom = [](const AxisSpec &o, const AxisSpec &c, double b) {
        AxisSpec next = c;
        const double step = c.steps > 1
            ? (c.max - c.min) / static_cast<double>(c.steps - 1)
            : 0.0;
        next.min = std::max(o.min, b - step);
        next.max = std::min(o.max, b + step);
        if (next.max <= next.min)
            next.steps = 1;
        return next;
    };
    DesignSpace out = cur;
    out.solar_mw =
        zoom(orig.solar_mw, cur.solar_mw, best.solar_mw.value());
    out.wind_mw = zoom(orig.wind_mw, cur.wind_mw, best.wind_mw.value());
    out.battery_mwh = zoom(orig.battery_mwh, cur.battery_mwh,
                           best.battery_mwh.value());
    out.extra_capacity = zoom(orig.extra_capacity, cur.extra_capacity,
                              best.extra_capacity.value());
    return out;
}

} // namespace

OptimizationResult
zoomRefine(const DesignSpace &space, int rounds, const SweepPass &pass)
{
    require(rounds >= 0, "refinement rounds must be >= 0");
    OptimizationResult result = pass(space, 0);

    DesignSpace current = space;
    for (int round = 0; round < rounds; ++round) {
        current = zoomedSpace(space, current, result.best.point);

        OptimizationResult zoomed = pass(current, round + 1);
        obs::counter("explorer.refine_rounds").increment();
        if (zoomed.best.totalKg() < result.best.totalKg()) {
            inform("refinement round " + std::to_string(round + 1) +
                   " improved best total carbon to " +
                   formatFixed(zoomed.best.totalKg().value(), 0) +
                   " kg");
            result.best = zoomed.best;
        }
        for (auto &e : zoomed.evaluated)
            result.evaluated.push_back(std::move(e));
    }
    return result;
}

namespace
{

/**
 * The smallest x in [0, @p max_x] whose coverage reaches @p target_pct,
 * by 50 bisection steps over @p coverage_at; -1 (with a warning naming
 * @p limit, e.g. "batteries up to 500 MWh") when even @p max_x falls
 * short.
 */
double
bisectForCoverage(const std::function<double(double)> &coverage_at,
                  double target_pct, double max_x, const std::string &limit)
{
    if (coverage_at(max_x) < target_pct) {
        warn("coverage target " + formatFixed(target_pct, 3) +
             "% unreachable with " + limit + "; returning -1");
        return -1.0;
    }
    double lo = 0.0;
    double hi = max_x;
    for (int iter = 0; iter < 50; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (coverage_at(mid) >= target_pct)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

} // namespace

MegaWattHours
CarbonExplorer::minimumBatteryForCoverage(MegaWatts solar_mw,
                                          MegaWatts wind_mw,
                                          double target_pct,
                                          MegaWattHours max_mwh) const
{
    CARBONX_PROFILE("explorer/min_battery_bisect");
    if (max_mwh.value() < 0.0)
        max_mwh = MegaWattHours(100.0 * config_.avg_dc_power_mw.value());

    const auto coverage_at = [&](double mwh) {
        BatchLaneConfig lane = laneConfig(
            DesignPoint{solar_mw, wind_mw, MegaWattHours(mwh),
                        Fraction(0.0)},
            Strategy::RenewableBattery);
        // Sizing answers how much storage renewables alone need, so
        // the battery never charges from the grid here.
        lane.grid_charge_policy = GridChargePolicy::Never;
        return runLane(lane).coverage_pct;
    };
    return MegaWattHours(bisectForCoverage(
        coverage_at, target_pct, max_mwh.value(),
        "batteries up to " + formatFixed(max_mwh.value(), 0) + " MWh"));
}

Fraction
CarbonExplorer::minimumExtraCapacityForCoverage(MegaWatts solar_mw,
                                                MegaWatts wind_mw,
                                                double target_pct,
                                                Fraction max_extra) const
{
    CARBONX_PROFILE("explorer/min_extra_capacity_bisect");
    const auto coverage_at = [&](double extra) {
        return runLane(laneConfig(DesignPoint{solar_mw, wind_mw,
                                              MegaWattHours(0.0),
                                              Fraction(extra)},
                                  Strategy::RenewableCas))
            .coverage_pct;
    };
    return Fraction(bisectForCoverage(
        coverage_at, target_pct, max_extra.value(),
        "extra capacity up to " + formatFixed(max_extra.percent(), 0) +
            "%"));
}

} // namespace carbonx

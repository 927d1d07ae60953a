/**
 * @file
 * Per-layer probes, run only with --trace 1, after the timed loop.
 *
 * Each probe calls one layer directly on the workload's own generated
 * inputs (its explorer pool, its lattice, its design points) and
 * reports that layer's rate in the layer's own unit. Kernel probes run
 * single-threaded on 64-lane waves, the sweep's wave width. Counts
 * read from library counters repeat exactly for a given seed; times
 * are medians over a few repetitions.
 */

#include <algorithm>
#include <filesystem>

#include "bench.h"
#include "carbon/operational.h"
#include "common/parallel.h"
#include "core/adaptive_sweep.h"
#include "datacenter/load_model.h"
#include "grid/balancing_authority.h"
#include "grid/grid_synthesizer.h"
#include "obs/audit.h"
#include "obs/journal.h"
#include "scheduler/batched_engine.h"

namespace cxbench
{

using namespace carbonx;

namespace
{

/** Lanes per kernel probe wave: the sweep's wave width. */
constexpr size_t kLanes = 64;

double
nsSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e9;
}

/** Up to @p n points spread evenly over @p all. */
std::vector<DesignPoint>
spread(const std::vector<DesignPoint> &all, size_t n)
{
    std::vector<DesignPoint> out;
    const size_t take = std::min(n, all.size());
    for (size_t i = 0; i < take; ++i)
        out.push_back(all[i * all.size() / take]);
    return out;
}

/**
 * The batch lane of @p point, mapped the way the explorer maps a
 * sweep point (CarbonExplorer::laneConfig is private).
 */
BatchLaneConfig
laneFor(const CarbonExplorer &explorer, const DesignPoint &point,
        Strategy strategy)
{
    const ExplorerConfig &config = explorer.config();
    const bool cas = strategyUsesCas(strategy);
    BatchLaneConfig lane;
    lane.solar_mw = point.solar_mw;
    lane.wind_mw = point.wind_mw;
    lane.capacity_cap_mw =
        MegaWatts(explorer.dcPeakPowerMw().value() *
                  (1.0 + (cas ? point.extra_capacity.value() : 0.0)));
    lane.flexible_ratio = cas ? config.flexible_ratio : Fraction(0.0);
    lane.slo_window_hours = config.slo_window_hours;
    if (strategyUsesBattery(strategy) && point.battery_mwh.value() > 0.0) {
        lane.battery_capacity_mwh = point.battery_mwh;
        lane.chemistry = &config.chemistry;
        lane.grid_charge_policy = config.grid_charge_policy;
        lane.grid_charge_threshold_gkwh = config.grid_charge_threshold_gkwh;
    }
    return lane;
}

class Prober
{
  public:
    Prober(Workload &workload, Tracer &tracer, TempDir &tmp)
        : w_(workload), tracer_(tracer), tmp_(tmp),
          reps_(workload.options().smoke ? 1 : 5),
          explorer_(workload.explorer(0)),
          hours_(static_cast<double>(explorer_.dcPower().size()))
    {
    }

    std::map<std::string, double> run()
    {
        setupLayers();
        kernel(Strategy::RenewableBatteryCas, "sweep_cas", "cas");
        kernel(Strategy::RenewablesOnly, "sweep_renewables", "renewables");
        coverage();
        sweepDriver();
        scaling();
        adaptiveCacheJournal();
        explainPath();
        return std::move(out_);
    }

  private:
    /** grid / datacenter / core: what every explorer construction pays. */
    void setupLayers()
    {
        auto span = tracer_.span("probe.setup_layers");
        std::vector<double> synth, load, construct;
        for (const ExplorerConfig &config : w_.configs()) {
            auto t0 = Clock::now();
            {
                auto s = tracer_.span("grid.synthesize");
                const GridSynthesizer synthesizer(
                    BalancingAuthorityRegistry::instance().lookup(
                        config.ba_code),
                    config.seed);
                synthesizer.synthesize(config.year);
            }
            synth.push_back(secondsSince(t0) * 1e3);
            t0 = Clock::now();
            {
                auto s = tracer_.span("datacenter.load_generate");
                LoadModelParams params = config.load_params;
                params.avg_power_mw = config.avg_dc_power_mw.value();
                DatacenterLoadModel(params).generate(config.year,
                                                     config.seed);
            }
            load.push_back(secondsSince(t0) * 1e3);
            t0 = Clock::now();
            {
                auto s = tracer_.span("core.explorer_construct");
                const CarbonExplorer explorer(config);
            }
            construct.push_back(secondsSince(t0) * 1e3);
        }
        out_["grid.synthesize_ms"] = median(synth);
        out_["datacenter.load_generate_ms"] = median(load);
        out_["core.explorer_construct_ms"] = median(construct);
    }

    /** The lattice of workload @p name for the probed explorer. */
    DesignSpace lattice(const std::string &name) const
    {
        return studySpace(name, explorer_.config().avg_dc_power_mw.value(),
                          w_.options().smoke);
    }

    /**
     * One 64-lane wave through the batched kernel, single-threaded,
     * with lanes spread over the lattice of workload @p name.
     */
    void kernel(Strategy strategy, const std::string &name,
                const std::string &tag)
    {
        auto span = tracer_.span("probe.kernel." + tag);
        const std::vector<DesignPoint> points =
            spread(lattice(name).enumerate(strategy), kLanes);
        const BatchedSimulationEngine engine(
            explorer_.dcPower(), explorer_.coverageAnalyzer().solarShape(),
            explorer_.coverageAnalyzer().windShape(),
            &explorer_.gridIntensity());
        SimulationBatch batch(kLanes);
        const uint64_t ops0 = batteryOps();
        std::vector<double> fill_ns, run_ns;
        // Repetition 0 grows the batch's backlog queues; it is counted
        // but not timed.
        for (size_t r = 0; r <= reps_; ++r) {
            auto t0 = Clock::now();
            {
                auto s = tracer_.span("scheduler.batch_fill");
                batch.clear();
                for (const DesignPoint &p : points)
                    batch.addLane(laneFor(explorer_, p, strategy));
            }
            const double fill = nsSince(t0);
            t0 = Clock::now();
            {
                auto s = tracer_.span("scheduler.batch_run");
                engine.run(batch);
            }
            if (r > 0) {
                fill_ns.push_back(fill);
                run_ns.push_back(nsSince(t0));
            }
        }
        const double lanes = static_cast<double>(points.size());
        out_["scheduler.batch_ns_per_lane_hour." + tag] =
            median(run_ns) / (lanes * hours_);
        if (strategy == Strategy::RenewableBatteryCas) {
            out_["scheduler.batch_fill_ns_per_lane"] =
                median(fill_ns) / lanes;
            out_["battery.ops_per_lane_hour"] =
                static_cast<double>(batteryOps() - ops0) /
                (static_cast<double>(reps_ + 1) * lanes * hours_);
        }
    }

    static uint64_t batteryOps()
    {
        return counterValue("battery.charge_calls") +
            counterValue("battery.discharge_calls");
    }

    /** Hourly renewable supply expansion, as explain() and evaluate() do it. */
    void coverage()
    {
        auto span = tracer_.span("probe.coverage");
        const CoverageAnalyzer &analyzer = explorer_.coverageAnalyzer();
        const std::vector<DesignPoint> points = spread(
            lattice("sweep_renewables").enumerate(Strategy::RenewablesOnly),
            kLanes);
        TimeSeries supply(explorer_.dcPower().year());
        std::vector<double> ns;
        for (size_t r = 0; r < reps_; ++r) {
            const auto t0 = Clock::now();
            auto s = tracer_.span("coverage.supply_for");
            for (const DesignPoint &p : points)
                analyzer.supplyFor(p.solar_mw, p.wind_mw, supply);
            ns.push_back(nsSince(t0));
        }
        out_["coverage.supply_ns_per_hour"] =
            median(ns) / (static_cast<double>(points.size()) * hours_);
    }

    /**
     * The sweep driver around the kernel: optimize() against a bare
     * SweepBatchEvaluator pass over the same lattice, at the pinned
     * thread count.
     */
    void sweepDriver()
    {
        auto span = tracer_.span("probe.sweep_driver");
        const Strategy strategy = w_.spec().strategy;
        const DesignSpace space = w_.space(0);
        const std::vector<DesignPoint> points = space.enumerate(strategy);
        std::vector<Evaluation> evals(points.size());
        std::vector<double> eval_s, opt_s;
        const size_t reps = std::min<size_t>(reps_, 2);
        const uint64_t hours0 = counterValue("sim.hours_simulated");
        for (size_t r = 0; r < reps; ++r) {
            auto t0 = Clock::now();
            {
                auto s = tracer_.span("core.evaluator_evaluate");
                SweepBatchEvaluator evaluator(explorer_, strategy);
                evaluator.evaluate(points.data(), points.size(),
                                   evals.data(), nullptr);
            }
            eval_s.push_back(secondsSince(t0));
            t0 = Clock::now();
            {
                auto s = tracer_.span("core.optimize");
                explorer_.optimize(space, strategy);
            }
            opt_s.push_back(secondsSince(t0));
        }
        // Both passes simulate every lattice point once per repetition.
        out_["scheduler.lane_hours"] =
            static_cast<double>(counterValue("sim.hours_simulated") -
                                hours0) /
            static_cast<double>(2 * reps);
        out_["core.evaluator_points_per_s"] =
            static_cast<double>(points.size()) / median(eval_s);
        out_["core.driver_overhead_frac"] =
            1.0 - median(eval_s) / median(opt_s);
    }

    /** common.parallel: pinned-thread throughput over the 1-thread baseline. */
    void scaling()
    {
        auto span = tracer_.span("probe.parallel_scaling");
        const size_t threads = threadCount();
        const size_t studies = std::min<size_t>(2, w_.poolSize());
        const auto timeStudies = [&](size_t n_threads) {
            setThreadCount(n_threads);
            const auto t0 = Clock::now();
            for (size_t e = 0; e < studies; ++e) {
                auto s = tracer_.span("core.optimize");
                w_.explorer(e).optimize(
                    studySpace("sweep_cas",
                               w_.configs()[e].avg_dc_power_mw.value(),
                               w_.options().smoke),
                    Strategy::RenewableBatteryCas);
            }
            return secondsSince(t0);
        };
        // Alternate the two thread counts and keep each one's fastest
        // pass, so a slow spell of the machine cannot land on one side.
        double one = 1e300;
        double many = 1e300;
        for (size_t r = 0; r < std::min<size_t>(reps_, 2); ++r) {
            one = std::min(one, timeStudies(1));
            many = std::min(many, timeStudies(threads));
        }
        out_["parallel.scaling_eff"] =
            one / (static_cast<double>(threads) * many);
    }

    /**
     * core (adaptive), common.result_cache and obs.journal: one cold
     * adaptive sweep writing a cache and a journal, one replay reading
     * the cache back, and direct calls into each store.
     */
    void adaptiveCacheJournal()
    {
        auto span = tracer_.span("probe.adaptive_cache_journal");
        const Strategy strategy = Strategy::RenewableBatteryCas;
        const DesignSpace space = lattice("adaptive_cached");
        const uint64_t digest = explorer_.configDigest(strategy);
        const std::string dir = tmp_.freshSubdir("probe");
        const std::string cache_path = dir + "/sweep.cxrc";
        const std::string journal_path = dir + "/decisions.cxjn";

        AdaptiveSweepResult cold;
        {
            SweepResultCache cache(cache_path, digest);
            obs::DecisionJournal journal(journal_path, digest);
            const Attachment attach(explorer_, &cache, &journal);
            auto s = tracer_.span("core.adaptive_sweep");
            cold = AdaptiveSweeper(explorer_).sweep(space, strategy);
        }
        const double lattice_points =
            static_cast<double>(cold.stats.lattice_points);
        out_["core.adaptive_simulated_frac"] =
            static_cast<double>(cold.stats.simulated_points) /
            lattice_points;
        out_["core.adaptive_margin_inflations"] =
            static_cast<double>(cold.stats.margin_inflations);

        // Result cache: open, lookups, replay.
        std::vector<double> open_ms;
        for (size_t r = 0; r < reps_; ++r) {
            const auto t0 = Clock::now();
            auto s = tracer_.span("cache.open");
            const SweepResultCache reopened(cache_path, digest);
            open_ms.push_back(secondsSince(t0) * 1e3);
        }
        out_["cache.open_ms"] = median(open_ms);
        SweepResultCache cache(cache_path, digest);
        const std::vector<DesignPoint> points = space.enumerate(strategy);
        {
            auto s = tracer_.span("cache.find");
            Evaluation found;
            const auto t0 = Clock::now();
            for (const DesignPoint &p : points)
                cache.find(p, strategy, &found);
            out_["cache.find_ns"] =
                nsSince(t0) / static_cast<double>(points.size());
        }
        {
            const Attachment attach(explorer_, &cache, nullptr);
            auto s = tracer_.span("core.adaptive_sweep");
            const AdaptiveSweepResult warm =
                AdaptiveSweeper(explorer_).sweep(space, strategy);
            const double answered = static_cast<double>(
                warm.stats.cache_hits + warm.stats.simulated_points);
            out_["cache.replay_hit_ratio"] = answered > 0.0
                ? static_cast<double>(warm.stats.cache_hits) / answered
                : 0.0;
        }
        {
            const std::string path = dir + "/insert.cxrc";
            SweepResultCache fresh(path, digest);
            const std::vector<Evaluation> &records = cold.result.evaluated;
            const double n = static_cast<double>(records.size());
            auto t0 = Clock::now();
            {
                auto s = tracer_.span("cache.insert");
                for (const Evaluation &e : records)
                    fresh.insert(e);
            }
            out_["cache.insert_ns_per_record"] = nsSince(t0) / n;
            t0 = Clock::now();
            {
                auto s = tracer_.span("cache.flush");
                fresh.flush();
            }
            out_["cache.flush_ns_per_record"] = nsSince(t0) / n;
            out_["cache.bytes_per_record"] =
                static_cast<double>(std::filesystem::file_size(path)) / n;
        }

        // Decision journal: rows the cold sweep wrote, then a timed
        // flush of the same rows into a fresh journal.
        const obs::JournalData data = obs::readJournal(journal_path);
        const double rows = static_cast<double>(data.rows.size());
        out_["journal.rows_per_lattice_point"] = rows / lattice_points;
        out_["journal.bytes_per_row"] =
            static_cast<double>(std::filesystem::file_size(journal_path)) /
            rows;
        {
            obs::DecisionJournal journal(dir + "/flush.cxjn", digest);
            journal.ensureSinks(1);
            for (const obs::DecisionRow &row : data.rows)
                journal.sink(0).record(row);
            const auto t0 = Clock::now();
            auto s = tracer_.span("journal.flush");
            journal.flush();
            out_["journal.flush_ns_per_row"] = nsSince(t0) / rows;
        }
        std::filesystem::remove_all(dir);
    }

    /** The explain path: scalar evaluate, recorded explain, audit, carbon. */
    void explainPath()
    {
        auto span = tracer_.span("probe.explain_path");
        const Strategy strategy = w_.spec().strategy;
        std::vector<PointRef> points = w_.probePoints();
        if (w_.options().smoke && points.size() > 2)
            points.resize(2);
        std::vector<double> evaluate_ns, explain_ns, audit_ns;
        for (const PointRef &ref : points) {
            const CarbonExplorer &explorer = w_.explorer(ref.entry);
            auto t0 = Clock::now();
            {
                auto s = tracer_.span("core.evaluate");
                explorer.evaluate(ref.point, strategy);
            }
            evaluate_ns.push_back(nsSince(t0));
            t0 = Clock::now();
            const ExplainResult explained = [&] {
                auto s = tracer_.span("core.explain");
                return explorer.explain(ref.point, strategy);
            }();
            explain_ns.push_back(nsSince(t0));
            t0 = Clock::now();
            {
                auto s = tracer_.span("obs.audit");
                obs::auditRecording(explained.recording,
                                    explained.auditContext());
            }
            audit_ns.push_back(nsSince(t0));
        }
        out_["core.evaluate_ns_per_hour"] = median(evaluate_ns) / hours_;
        out_["core.explain_ns_per_hour"] = median(explain_ns) / hours_;
        out_["audit.ns_per_hour"] = median(audit_ns) / hours_;

        std::vector<double> carbon_ns;
        for (size_t r = 0; r < 4 * reps_; ++r) {
            const auto t0 = Clock::now();
            auto s = tracer_.span("carbon.grid_emissions");
            OperationalCarbonModel::gridEmissions(explorer_.dcPower(),
                                                  explorer_.gridIntensity());
            carbon_ns.push_back(nsSince(t0));
        }
        out_["carbon.grid_emissions_ns_per_hour"] =
            median(carbon_ns) / hours_;
    }

    Workload &w_;
    Tracer &tracer_;
    TempDir &tmp_;
    const size_t reps_;
    CarbonExplorer &explorer_;
    const double hours_;
    std::map<std::string, double> out_;
};

} // namespace

std::map<std::string, double>
runProbes(Workload &workload, Tracer &tracer, TempDir &tmp)
{
    auto span = tracer.span("probes");
    return Prober(workload, tracer, tmp).run();
}

} // namespace cxbench

/**
 * @file
 * The four workloads: seeded study pools, the client request of each,
 * and the checks that every answer is right.
 *
 * Why these four (details in README.md):
 *  - sweep_cas: exhaustive RenewableBatteryCas studies; battery and
 *    deferral are active on every lane, so the batched kernel's stage
 *    2 and the thread pool carry the time.
 *  - sweep_renewables: the Fig. 7 RenewablesOnly surface; no battery
 *    and no backlog, so it bypasses stage-2, battery and CAS changes.
 *  - adaptive_cached: cold adaptive sweeps that write a result cache
 *    and a decision journal, then warm replays that only read them.
 *  - explain_drilldown: one flight-recorded explain plus an invariant
 *    audit per request; the scalar engine, recorder and auditor carry
 *    the time and the pool sits idle.
 */

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <utility>

#include "bench.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/adaptive_sweep.h"
#include "obs/audit.h"
#include "obs/journal.h"

namespace cxbench
{

using namespace carbonx;

namespace
{

/** Studies in the pool; the client cycles through them. */
constexpr size_t kPoolSize = 8;

/** Hybrid, hybrid, solar-heavy, wind-heavy. */
constexpr const char *kSites[] = {"PACE", "ERCO", "DUK", "BPAT"};

constexpr double kSloHours[] = {12.0, 24.0, 48.0};

/** Renewable reach of every study lattice, x average DC power. */
constexpr double kRenewableReach = 10.0;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** One line on a dirty audit: the count and the first violation. */
std::string
violations(const obs::AuditReport &audit)
{
    return "audit found " + std::to_string(audit.violations.size()) +
        " violations, first: " + audit.violations.front().format();
}

/** A seeded permutation of 0..n-1 (Fisher-Yates). */
std::vector<size_t>
shuffled(size_t n, Rng &rng)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.uniformInt(i)]);
    return order;
}

/**
 * A workload whose request answers a whole study: it keeps the best
 * design of each pool entry, and every repeat of a study must return
 * the same best bit for bit. At the end each best point is re-run
 * through explain(), which must reproduce the total with a clean audit.
 */
class StudyWorkload : public Workload
{
  public:
    using Workload::Workload;

    void verify() override
    {
        for (size_t e = 0; e < poolSize(); ++e) {
            if (!std::isnan(best_[e]))
                checkByExplain(e, best_points_[e], best_[e], study(e));
        }
    }

    std::vector<double> answers() const override { return best_; }

    std::vector<PointRef> probePoints() const override
    {
        std::vector<PointRef> out;
        for (size_t e = 0; e < poolSize(); ++e) {
            if (!std::isnan(best_[e]))
                out.push_back({e, best_points_[e]});
        }
        return out;
    }

  protected:
    static std::string study(size_t entry)
    {
        return "study " + std::to_string(entry);
    }

    void noteBest(size_t entry, const Evaluation &best)
    {
        if (std::isnan(best_[entry]))
            best_points_[entry] = best.point;
        agree(best_, entry, best.totalKg().value(), study(entry));
    }

  private:
    std::vector<double> best_ = std::vector<double>(kPoolSize, kNan);
    std::vector<DesignPoint> best_points_ =
        std::vector<DesignPoint>(kPoolSize);
};

/** sweep_cas and sweep_renewables: one exhaustive optimize() per request. */
class SweepWorkload : public StudyWorkload
{
  public:
    using StudyWorkload::StudyWorkload;

  protected:
    void run(size_t index, std::vector<Sample> &out) override
    {
        const size_t entry = index % poolSize();
        const auto t0 = Clock::now();
        const OptimizationResult result = [&] {
            auto span = tracer_.span("core.optimize");
            return pool_[entry]->optimize(space(entry), spec_.strategy);
        }();
        out.push_back(
            {secondsSince(t0) * 1e3, result.evaluated.size(), entry});
        noteBest(entry, result.best);
    }
};

/**
 * adaptive_cached: per request, one cold adaptive sweep that writes a
 * fresh result cache and decision journal, then kReplays warm replays
 * that each reopen the cache file and must simulate nothing.
 */
class AdaptiveWorkload : public StudyWorkload
{
  public:
    using StudyWorkload::StudyWorkload;

    /** Warm replays per cold sweep. */
    static constexpr size_t kReplays = 40;

  protected:
    void run(size_t index, std::vector<Sample> &out) override
    {
        const size_t entry = index % poolSize();
        CarbonExplorer &explorer = *pool_[entry];
        const DesignSpace lattice = space(entry);
        const Strategy strategy = spec_.strategy;
        const uint64_t digest = explorer.configDigest(strategy);
        const std::string dir = tmp_.freshSubdir("study");
        const std::string cache_path = dir + "/sweep.cxrc";
        const std::string journal_path = dir + "/decisions.cxjn";
        const std::string what = study(entry);

        AdaptiveSweepResult cold;
        {
            const auto t0 = Clock::now();
            std::unique_ptr<SweepResultCache> cache;
            std::unique_ptr<obs::DecisionJournal> journal;
            {
                auto span = tracer_.span("cache.open");
                cache = std::make_unique<SweepResultCache>(cache_path,
                                                           digest);
            }
            {
                auto span = tracer_.span("journal.open");
                journal = std::make_unique<obs::DecisionJournal>(
                    journal_path, digest);
            }
            {
                const Attachment attach(explorer, cache.get(),
                                        journal.get());
                auto span = tracer_.span("core.adaptive_sweep");
                cold = AdaptiveSweeper(explorer).sweep(lattice, strategy);
            }
            {
                auto span = tracer_.span("journal.close");
                journal.reset();
            }
            cache.reset();
            out.push_back({secondsSince(t0) * 1e3,
                           cold.stats.lattice_points, entry});
        }
        const double cold_best = cold.result.best.totalKg().value();
        noteBest(entry, cold.result.best);

        for (size_t r = 0; r < kReplays; ++r) {
            const auto t0 = Clock::now();
            std::unique_ptr<SweepResultCache> cache;
            {
                auto span = tracer_.span("cache.open");
                cache = std::make_unique<SweepResultCache>(cache_path,
                                                           digest);
            }
            AdaptiveSweepResult warm;
            {
                const Attachment attach(explorer, cache.get(), nullptr);
                auto span = tracer_.span("core.adaptive_sweep");
                warm = AdaptiveSweeper(explorer).sweep(lattice, strategy);
            }
            cache.reset();
            out.push_back({secondsSince(t0) * 1e3, 0, entry});
            if (warm.stats.simulated_points != 0) {
                fail(what + ": replay simulated " +
                     std::to_string(warm.stats.simulated_points) +
                     " points instead of 0");
            }
            if (!sameBits(warm.result.best.totalKg().value(), cold_best)) {
                fail(what + ": replay best " +
                     exactNumber(warm.result.best.totalKg().value()) +
                     " differs from the cold best " +
                     exactNumber(cold_best));
            }
        }
        std::filesystem::remove_all(dir);
    }
};

/**
 * explain_drilldown: explain() plus auditRecording() per request over
 * kPoints distinct seeded design points spread across the pool.
 */
class DrilldownWorkload : public Workload
{
  public:
    static constexpr size_t kPoints = 250;

    DrilldownWorkload(const WorkloadSpec &spec, const Options &options,
                      Tracer &tracer, TempDir &tmp)
        : Workload(spec, options, tracer, tmp)
    {
        Rng rng(options.seed, "carbonx-benchmark-points");
        for (size_t i = 0; i < kPoints; ++i) {
            const size_t entry = i % poolSize();
            const double p = configs_[entry].avg_dc_power_mw.value();
            const double reach = kRenewableReach * p;
            points_.push_back(
                {entry,
                 DesignPoint{MegaWatts(rng.uniform(0.0, reach)),
                             MegaWatts(rng.uniform(0.0, reach)),
                             MegaWattHours(rng.uniform(0.0, 24.0 * p)),
                             Fraction(rng.uniform(0.0, 1.0))}});
        }
    }

    /** Every audit was checked inside its request. */
    void verify() override {}

    std::vector<double> answers() const override { return totals_; }

    std::vector<PointRef> probePoints() const override
    {
        return {points_.begin(),
                points_.begin() + static_cast<std::ptrdiff_t>(poolSize())};
    }

  protected:
    void run(size_t index, std::vector<Sample> &out) override
    {
        const size_t slot = index % kPoints;
        const PointRef &ref = points_[slot];
        const std::string what = "design point " + std::to_string(slot);
        const auto t0 = Clock::now();
        const auto [explained, audit] = explainAudited(ref.entry, ref.point);
        out.push_back({secondsSince(t0) * 1e3, 1, ref.entry});
        if (!audit.clean())
            fail(what + ": " + violations(audit));
        agree(totals_, slot, explained.evaluation.totalKg().value(),
              what);
    }

  private:
    std::vector<PointRef> points_;
    std::vector<double> totals_ = std::vector<double>(kPoints, kNan);
};

} // namespace

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        {"sweep_cas", Strategy::RenewableBatteryCas, {11, 9, 5}, {4, 3, 2}},
        {"sweep_renewables", Strategy::RenewablesOnly, {101, 1, 1},
         {11, 1, 1}},
        {"adaptive_cached", Strategy::RenewableBatteryCas, {13, 9, 5},
         {5, 3, 2}},
        {"explain_drilldown", Strategy::RenewableBatteryCas, {11, 9, 5},
         {4, 3, 2}},
    };
    return specs;
}

DesignSpace
studySpace(const std::string &name, double avg_mw, bool smoke)
{
    for (const WorkloadSpec &spec : workloadSpecs()) {
        if (name != spec.name)
            continue;
        const size_t *steps = smoke ? spec.smoke_steps : spec.steps;
        return DesignSpace::forDatacenter(avg_mw, kRenewableReach, steps[0],
                                          steps[1], steps[2]);
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

Workload::Workload(const WorkloadSpec &spec, const Options &options,
                   Tracer &tracer, TempDir &tmp)
    : spec_(spec), options_(options), tracer_(tracer), tmp_(tmp)
{
    // The seed draws the datacenters; each site keeps its one synthetic
    // grid year (ExplorerConfig's default trace seed), as an operator's
    // region data would. Drawing the weather too made the adaptive
    // pool's simulated points vary by a CV of ~7% between seeds, ~1.5%
    // without. Each study gets its own stratum of the power and
    // flexibility ranges, in seeded order, so every seed spans both
    // ranges evenly and the pool's total cost barely moves.
    Rng rng(options.seed, "carbonx-benchmark-pool");
    const std::vector<size_t> power_rank = shuffled(kPoolSize, rng);
    const std::vector<size_t> flex_rank = shuffled(kPoolSize, rng);
    const std::vector<size_t> slo_rank = shuffled(kPoolSize, rng);
    const double strata = static_cast<double>(kPoolSize);
    for (size_t k = 0; k < kPoolSize; ++k) {
        ExplorerConfig config;
        config.ba_code = kSites[k % std::size(kSites)];
        config.avg_dc_power_mw = MegaWatts(
            10.0 + 30.0 * (static_cast<double>(power_rank[k]) +
                           rng.uniform()) / strata);
        config.flexible_ratio = Fraction(
            0.2 + 0.4 * (static_cast<double>(flex_rank[k]) +
                         rng.uniform()) / strata);
        config.slo_window_hours =
            Hours(kSloHours[slo_rank[k] % std::size(kSloHours)]);
        configs_.push_back(config);
    }
}

void
Workload::buildPool()
{
    pool_.clear();
    for (const ExplorerConfig &config : configs_) {
        auto span = tracer_.span("core.explorer_construct");
        pool_.push_back(std::make_unique<CarbonExplorer>(config));
    }
}

void
Workload::request(size_t index, std::vector<Sample> &out)
{
    const size_t before = out.size();
    try {
        auto span = tracer_.span("request");
        run(index, out);
    } catch (const std::exception &e) {
        // The request that threw left no sample but was attempted.
        fail("request " + std::to_string(index) + " threw: " + e.what());
        ++attempted_;
    }
    attempted_ += out.size() - before;
}

void
Workload::fail(const std::string &what)
{
    ++failed_;
    std::cerr << "carbonx_benchmark: " << spec_.name << ": CHECK FAILED: "
              << what << '\n';
}

void
Workload::agree(std::vector<double> &refs, size_t slot, double total,
                const std::string &what)
{
    if (!std::isfinite(total)) {
        fail(what + ": total is not finite");
    } else if (std::isnan(refs[slot])) {
        refs[slot] = total;
    } else if (!sameBits(refs[slot], total)) {
        fail(what + ": total " + exactNumber(total) +
             " differs from its first answer " + exactNumber(refs[slot]));
    }
}

std::pair<ExplainResult, obs::AuditReport>
Workload::explainAudited(size_t entry, const DesignPoint &point)
{
    ExplainResult explained = [&] {
        auto span = tracer_.span("core.explain");
        return pool_[entry]->explain(point, spec_.strategy);
    }();
    auto span = tracer_.span("obs.audit");
    obs::AuditReport audit = obs::auditRecording(explained.recording,
                                                 explained.auditContext());
    return {std::move(explained), std::move(audit)};
}

void
Workload::checkByExplain(size_t entry, const DesignPoint &point,
                         double total, const std::string &what)
{
    ++attempted_;
    try {
        const auto [explained, audit] = explainAudited(entry, point);
        const double explained_total =
            explained.evaluation.totalKg().value();
        if (!sameBits(explained_total, total)) {
            fail(what + ": explain() of the best point gives " +
                 exactNumber(explained_total) + ", the sweep gave " +
                 exactNumber(total));
        } else if (!audit.clean()) {
            fail(what + ": best point: " + violations(audit));
        }
    } catch (const std::exception &e) {
        fail(what + ": explain threw: " + e.what());
    }
}

void
Workload::checkExpected()
{
    const std::string path = std::string(kExpectedDir) + "/seed" +
        std::to_string(options_.seed) + "/" + spec_.name + ".json";
    const std::vector<double> mine = answers();

    if (options_.write_expected) {
        for (const double v : mine) {
            if (std::isnan(v))
                throw std::runtime_error(
                    "--write-expected needs every answer; run longer");
        }
        std::filesystem::create_directories(
            std::filesystem::path(path).parent_path());
        std::ofstream out(path);
        out << "{\n  \"workload\": \"" << spec_.name
            << "\",\n  \"seed\": " << options_.seed
            << ",\n  \"total_kg\": [";
        for (size_t i = 0; i < mine.size(); ++i)
            out << (i == 0 ? "\n    " : ",\n    ") << exactNumber(mine[i]);
        out << "\n  ]\n}\n";
        if (!out.good())
            throw std::runtime_error("cannot write " + path);
        std::cerr << "carbonx_benchmark: wrote " << path << '\n';
        return;
    }
    // The committed answers hold for the default seed at full scale;
    // other seeds and the smoke scale rely on the self-checks alone.
    if (options_.smoke || options_.seed != kDefaultSeed)
        return;
    try {
        const JsonValue doc = JsonValue::parseFile(path);
        const std::vector<JsonValue> &expected =
            doc.at("total_kg", path).items();
        if (expected.size() != mine.size()) {
            fail(path + " holds " + std::to_string(expected.size()) +
                 " answers, the workload has " +
                 std::to_string(mine.size()));
            return;
        }
        for (size_t i = 0; i < mine.size(); ++i) {
            const double want = expected[i].asNumber();
            if (!std::isnan(mine[i]) && !sameBits(mine[i], want)) {
                fail("answer " + std::to_string(i) + " is " +
                     exactNumber(mine[i]) + ", " + path + " expects " +
                     exactNumber(want));
            }
        }
    } catch (const std::exception &e) {
        fail(std::string("cannot check expected answers: ") + e.what());
    }
}

std::unique_ptr<Workload>
makeWorkload(const Options &options, Tracer &tracer, TempDir &tmp)
{
    for (const WorkloadSpec &spec : workloadSpecs()) {
        if (options.workload != spec.name)
            continue;
        if (spec.name == std::string("adaptive_cached"))
            return std::make_unique<AdaptiveWorkload>(spec, options, tracer,
                                                      tmp);
        if (spec.name == std::string("explain_drilldown"))
            return std::make_unique<DrilldownWorkload>(spec, options,
                                                       tracer, tmp);
        return std::make_unique<SweepWorkload>(spec, options, tracer, tmp);
    }
    throw std::invalid_argument("unknown workload '" + options.workload +
                                "'");
}

} // namespace cxbench

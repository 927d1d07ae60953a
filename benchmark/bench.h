/**
 * @file
 * Shared declarations of carbonx_benchmark, the benchmark program.
 *
 * carbonx_benchmark runs one workload per process: it generates every input
 * from --seed, builds a pool of CarbonExplorer studies (the set-up),
 * runs one untimed warm-up request, then a closed loop with one client
 * for --seconds, checks every answer, and prints the metrics. With
 * --trace 1 it records benchmark-side spans around each call into a
 * library layer, runs the per-layer probes on the workload's own
 * inputs, and writes a Chrome trace_event file.
 *
 * Only the library's public headers are used, so the benchmark
 * measures the library from the outside, as a caller would.
 */

#ifndef CARBONX_BENCHMARK_BENCH_H
#define CARBONX_BENCHMARK_BENCH_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/explorer.h"

namespace cxbench
{

using Clock = std::chrono::steady_clock;

/** Wall seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Seed whose reference answers are committed under kExpectedDir. */
inline constexpr uint64_t kDefaultSeed = 1;

/** Results, traces and temporary files, relative to the working directory. */
inline constexpr const char *kOutDir = ".bench_build";

/** The committed reference answers, relative to the repository root. */
inline constexpr const char *kExpectedDir = "benchmark/expected";

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 25.0;
    bool trace = false;
    /** Tiny lattices and one request: the self-test's scale. */
    bool smoke = false;
    /** Write the reference answers instead of checking them. */
    bool write_expected = false;
};

/**
 * Benchmark-side span recorder. Spans live in memory and are written
 * as one Chrome trace_event file when the run ends. All spans come
 * from the benchmark's single client thread, so a child span always
 * lies inside its parent's interval and the viewer nests them.
 */
class Tracer
{
  public:
    /** RAII span; records nothing when the tracer is disabled. */
    class Span
    {
      public:
        Span(Tracer *tracer, std::string name);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tracer_;
        size_t index_ = 0;
    };

    Tracer();

    Span span(std::string name)
    {
        return Span(enabled_ ? this : nullptr, std::move(name));
    }

    void setEnabled(bool on) { enabled_ = on; }

    /** Write every recorded span; @p metadata is a JSON object. */
    void writeChrome(const std::string &path,
                     const std::string &metadata) const;

  private:
    struct Event
    {
        std::string name;
        int64_t start_us = 0;
        int64_t dur_us = -1; ///< -1 while the span is open.
        int64_t parent = -1;
    };

    bool enabled_ = false;
    Clock::time_point epoch_;
    std::vector<Event> events_;
    std::vector<size_t> open_;
};

/** One timed client request. */
struct Sample
{
    double ms = 0.0;
    /** Design points the request answered; 0 keeps it out of points_per_s. */
    size_t points = 0;
    /** The pool entry whose explorer served the request. */
    size_t entry = 0;
};

/** A request's design point, bound to the pool entry that owns it. */
struct PointRef
{
    size_t entry = 0;
    carbonx::DesignPoint point;
};

/**
 * A mkdtemp directory, unique to the run, that is removed with
 * everything in it when the object goes away.
 */
class TempDir
{
  public:
    explicit TempDir(const std::string &parent);
    ~TempDir();
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    /** A fresh, empty subdirectory; @p tag makes its name readable. */
    std::string freshSubdir(const std::string &tag);

  private:
    std::string path_;
    size_t next_ = 0;
};

/** Fixed description of one workload. */
struct WorkloadSpec
{
    const char *name;
    carbonx::Strategy strategy;
    /** DesignSpace::forDatacenter steps: renewable, battery, extra. */
    size_t steps[3];
    size_t smoke_steps[3];
};

/** The four workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloadSpecs();

/**
 * The study lattice of workload @p name for a datacenter of average
 * power @p avg_mw, at full or smoke scale.
 */
carbonx::DesignSpace studySpace(const std::string &name, double avg_mw,
                                bool smoke);

/**
 * Keeps a sweep cache and a decision journal (either may be null)
 * attached to an explorer for one scope, detaching both even when the
 * sweep throws.
 */
class Attachment
{
  public:
    Attachment(carbonx::CarbonExplorer &explorer,
               carbonx::SweepResultCache *cache,
               carbonx::obs::DecisionJournal *journal)
        : explorer_(explorer)
    {
        explorer_.setSweepCache(cache);
        explorer_.setJournal(journal);
    }
    ~Attachment()
    {
        explorer_.setSweepCache(nullptr);
        explorer_.setJournal(nullptr);
    }
    Attachment(const Attachment &) = delete;
    Attachment &operator=(const Attachment &) = delete;

  private:
    carbonx::CarbonExplorer &explorer_;
};

/**
 * One workload: the explorer pool it sets up, the requests its client
 * sends, and the checks on every answer. Subclasses implement the
 * request and its verification; this base owns the seeded inputs.
 */
class Workload
{
  public:
    Workload(const WorkloadSpec &spec, const Options &options,
             Tracer &tracer, TempDir &tmp);
    virtual ~Workload() = default;

    /** Construct the explorer pool once (the timed set-up). */
    void buildPool();

    /**
     * Run request @p index of the closed loop, appending one sample
     * per client request it issued. Failed checks are counted, never
     * thrown.
     */
    void request(size_t index, std::vector<Sample> &out);

    /** Untimed end-of-run checks; adds to failed(). */
    virtual void verify() = 0;

    /**
     * The answers compared against expected/: one per pool entry for
     * the studies, one per design point for the drill-down. NaN marks
     * an answer the run never reached.
     */
    virtual std::vector<double> answers() const = 0;

    /** Points the explain-path probe re-runs. */
    virtual std::vector<PointRef> probePoints() const = 0;

    /** Compare answers() with the committed file, or write it. */
    void checkExpected();

    const WorkloadSpec &spec() const { return spec_; }
    const Options &options() const { return options_; }
    const std::vector<carbonx::ExplorerConfig> &configs() const
    {
        return configs_;
    }
    carbonx::CarbonExplorer &explorer(size_t entry) const
    {
        return *pool_[entry];
    }
    size_t poolSize() const { return configs_.size(); }

    /** The study lattice of pool entry @p entry. */
    carbonx::DesignSpace space(size_t entry) const
    {
        return studySpace(spec_.name,
                          configs_[entry].avg_dc_power_mw.value(),
                          options_.smoke);
    }

    size_t attempted() const { return attempted_; }
    size_t failed() const { return failed_; }

  protected:
    virtual void run(size_t index, std::vector<Sample> &out) = 0;

    /** Record a failed check with a message on stderr. */
    void fail(const std::string &what);

    /**
     * Hold @p total as the reference answer of slot @p slot, or check
     * that it equals the held one bit for bit.
     */
    void agree(std::vector<double> &refs, size_t slot, double total,
               const std::string &what);

    /** explain() of @p point on entry @p entry, then its audit. */
    std::pair<carbonx::ExplainResult, carbonx::obs::AuditReport>
    explainAudited(size_t entry, const carbonx::DesignPoint &point);

    /** Explain @p point and check it reproduces @p total with a clean audit. */
    void checkByExplain(size_t entry, const carbonx::DesignPoint &point,
                        double total, const std::string &what);

    const WorkloadSpec &spec_;
    const Options &options_;
    Tracer &tracer_;
    TempDir &tmp_;
    std::vector<carbonx::ExplorerConfig> configs_;
    std::vector<std::unique_ptr<carbonx::CarbonExplorer>> pool_;
    size_t attempted_ = 0;
    size_t failed_ = 0;
};

/** Build the workload named @p options.workload (throws if unknown). */
std::unique_ptr<Workload> makeWorkload(const Options &options,
                                       Tracer &tracer, TempDir &tmp);

/** Run every per-layer probe on @p workload's inputs. */
std::map<std::string, double> runProbes(Workload &workload,
                                        Tracer &tracer, TempDir &tmp);

/** Quantile @p q of @p values, linearly interpolated (0 when empty). */
double quantile(std::vector<double> values, double q);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Current value of a library counter, 0 when unregistered. */
uint64_t counterValue(const std::string &name);

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** Shortest decimal form that reads back to the same double. */
std::string exactNumber(double value);

} // namespace cxbench

#endif // CARBONX_BENCHMARK_BENCH_H

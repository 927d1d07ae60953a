/**
 * @file
 * The one scoped timer: CARBONX_PROFILE, and the hierarchical phase
 * profiler behind it.
 *
 * Usage:
 *
 *     void GridSynthesizer::synthesize(...) {
 *         static auto &h_synth = obs::latency("grid.synthesize_us");
 *         CARBONX_PROFILE("grid/synthesize", &h_synth);
 *         ...
 *     }
 *
 * One scope takes one start and one end instant and feeds every sink
 * that was on when it opened: the profile tree (PhaseProfiler), one
 * Chrome "X" event (SpanTracer), and the optional latency histogram,
 * which is always recorded.
 *
 * Phases nest lexically per thread into a call tree; every node
 * accumulates count, total wall time, and min/max per entry. Each
 * thread owns its tree (no locking on the hot path), and merged()
 * folds all per-thread trees into one aggregate keyed by phase name,
 * with self time (total minus children) computed on export.
 *
 * The profiler and the tracer are disabled by default; with both off
 * and no histogram, a CARBONX_PROFILE costs two relaxed atomic loads
 * and reads no clock, so the macro stays in release hot paths.
 * Enabling only reads clocks — it never alters simulation arithmetic,
 * so sweeps stay bit-identical at any thread count with profiling or
 * tracing on.
 *
 * Phase names must be unique string literals tree-wide (enforced by
 * carbonx-lint rule profile-phase): literals give stable pointers for
 * the fast child lookup, and uniqueness keeps the merged tree
 * unambiguous when the same phase runs on many threads.
 *
 * reset() and merged() require quiescence: no thread may be inside a
 * phase while they run. The bench harness snapshots between
 * scenarios, after parallelFor has joined its workers.
 */

#ifndef CARBONX_OBS_PROFILER_H
#define CARBONX_OBS_PROFILER_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace carbonx::obs
{

class LatencyHistogram;

/** One node of the merged (cross-thread) phase tree. */
struct ProfileNode
{
    std::string name;
    uint64_t count = 0;    ///< Times the phase was entered.
    uint64_t total_ns = 0; ///< Wall time inside the phase, children included.
    uint64_t self_ns = 0;  ///< total_ns minus the children's total_ns.
    uint64_t min_ns = 0;   ///< Shortest single entry.
    uint64_t max_ns = 0;   ///< Longest single entry.
    std::vector<ProfileNode> children; ///< First-seen order, then merged.

    /** Depth-first lookup of a descendant by name; nullptr if absent. */
    const ProfileNode *find(const std::string &child_name) const;
};

/** Process-wide phase-timer registry. */
class PhaseProfiler
{
  public:
    static PhaseProfiler &instance();

    /** Enable/disable collection; disabling keeps recorded phases. */
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Zero every node in every thread's tree (structure is kept, like
     * MetricsRegistry::reset). Requires quiescence.
     */
    void reset();

    /**
     * Fold all per-thread trees into one aggregate tree. The root is
     * a synthetic "root" node; phases that ran at the top of a worker
     * thread appear as its direct children even when the same phase
     * is nested deeper on the coordinating thread (the two paths are
     * distinct call-tree locations). Requires quiescence.
     */
    ProfileNode merged() const;

    /** Indented fixed-width table of merged(), one row per node. */
    void writeText(std::ostream &os) const;

    /** merged() as a JSON tree (the BENCH_*.json "profile" field). */
    void writeJson(std::ostream &os) const;

    /** Number of threads that have recorded at least one phase. */
    size_t threadCount() const;

    // Implementation details of ScopedPhase; not for direct use.
    struct Node;
    struct ThreadTree;
    Node *beginPhase(const char *name);
    void endPhase(Node *node, uint64_t elapsed_ns);

  private:
    PhaseProfiler() = default;

    ThreadTree &threadTree();

    std::atomic<bool> enabled_{false};
    mutable std::mutex registry_mutex_;
    std::vector<std::unique_ptr<ThreadTree>> threads_;
};

/** Serialize a ProfileNode subtree as JSON (used by the bench report). */
void writeProfileJson(std::ostream &os, const ProfileNode &node,
                      const std::string &indent);

/**
 * RAII timer behind CARBONX_PROFILE. Reads the profiler and tracer
 * flags once, at construction, so toggling either mid-scope cannot
 * unbalance the profile tree or drop a span already opened.
 */
class ScopedPhase
{
  public:
    /**
     * @param name Phase label; a string literal (the profile tree
     *        keeps the pointer).
     * @param histogram Optional latency histogram, recorded in
     *        microseconds whether or not profiling or tracing is on.
     */
    explicit ScopedPhase(const char *name,
                         LatencyHistogram *histogram = nullptr)
        : name_(name),
          node_(PhaseProfiler::instance().enabled()
                    ? PhaseProfiler::instance().beginPhase(name)
                    : nullptr),
          histogram_(histogram),
          traced_(SpanTracer::instance().enabled())
    {
        if (timed())
            start_ = std::chrono::steady_clock::now();
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

    ~ScopedPhase()
    {
        if (timed())
            finish();
    }

  private:
    bool timed() const
    {
        return node_ != nullptr || traced_ || histogram_ != nullptr;
    }

    /** Take the end instant and feed every sink captured at entry. */
    void finish();

    const char *name_;
    PhaseProfiler::Node *node_;
    LatencyHistogram *histogram_;
    bool traced_;
    std::chrono::steady_clock::time_point start_;
};

#define CARBONX_PROFILE_CONCAT2(a, b) a##b
#define CARBONX_PROFILE_CONCAT(a, b) CARBONX_PROFILE_CONCAT2(a, b)

/**
 * Time the enclosing scope as one phase named by a literal, optionally
 * also into a latency histogram: CARBONX_PROFILE("a/b") or
 * CARBONX_PROFILE("a/b", &histogram).
 */
#define CARBONX_PROFILE(...)                                          \
    ::carbonx::obs::ScopedPhase CARBONX_PROFILE_CONCAT(               \
        carbonx_phase_, __LINE__)(__VA_ARGS__)

} // namespace carbonx::obs

#endif // CARBONX_OBS_PROFILER_H

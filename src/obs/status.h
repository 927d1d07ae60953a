/**
 * @file
 * Live run status for long sweeps: the one progress aggregate of the
 * design-space search. The sweep drivers open and close passes, the
 * batched evaluator adds each finished wave, and everything that
 * shows progress reads from here: the periodically rewritten
 * single-page status file (--status-out, written tmp-then-rename so
 * readers never see a torn page), the SIGUSR1 dump to stderr, and an
 * optional milestone callback for front ends (the CLI's --progress
 * lines, notebooks, dashboards) that render progress without the
 * library choosing a presentation.
 *
 * Every counter is an atomic with relaxed ordering — the page is an
 * operator's situational-awareness tool, not a synchronization
 * point, so a snapshot may mix values from adjacent waves; it is
 * never torn within one field. Elapsed time, the ETA and the rate
 * are derived from the pass start when read, never stored.
 *
 * The SIGUSR1 path is split in two because almost nothing is
 * async-signal-safe: the handler only sets a flag, and the
 * coordinating thread polls consumeStatusSignal() at its progress
 * milestones and does the actual formatting and I/O.
 */

#ifndef CARBONX_OBS_STATUS_H
#define CARBONX_OBS_STATUS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace carbonx::obs
{

/** State of one sweep pass, as sent on each milestone. */
struct SweepProgress
{
    /** Refinement pass: 0 is the initial coarse sweep. */
    int pass = 0;

    /** Design points evaluated so far in this pass. */
    size_t points_done = 0;

    /**
     * Design points this pass will evaluate in total, as currently
     * known. An adaptive sweep discovers work as it refines, so the
     * total may grow between milestones; it never shrinks, and
     * points_done never exceeds it.
     */
    size_t points_total = 0;

    /** Lowest total (operational + embodied) carbon so far (kg). */
    double best_total_kg = 0.0;

    /** Wall time since the pass started (seconds). */
    double elapsed_seconds = 0.0;

    /**
     * Remaining wall time extrapolated from the mean per-point cost;
     * negative while unknown (no point finished yet).
     */
    double eta_seconds = -1.0;

    double fractionDone() const
    {
        return points_total > 0
            ? static_cast<double>(points_done) /
                  static_cast<double>(points_total)
            : 0.0;
    }

    double pointsPerSecond() const
    {
        return elapsed_seconds > 0.0
            ? static_cast<double>(points_done) / elapsed_seconds
            : 0.0;
    }
};

/**
 * Invoked on throttled sweep milestones (at most
 * RunStatus::kMilestonesPerPass per pass, plus the terminal one);
 * must not throw. The sweep runs on a thread pool, so the callback
 * can fire from any worker thread; calls are serialized and
 * points_done is strictly increasing across them within a pass.
 */
using ProgressCallback = std::function<void(const SweepProgress &)>;

class RunStatus
{
  public:
    /**
     * Fixed worker-slot count: indexable without allocation from any
     * worker. Workers beyond the array fold into the last slot
     * (never expected — the thread pool is far smaller).
     */
    static constexpr size_t kMaxWorkers = 64;

    /**
     * Milestone budget per pass: the callback fires each time
     * points_done crosses another 1/kMilestonesPerPass of the pass's
     * initial total, plus once when the pass completes. A pass whose
     * total grows reports proportionally more milestones.
     */
    static constexpr size_t kMilestonesPerPass = 10;

    struct WorkerState
    {
        uint64_t waves = 0;  ///< Evaluation waves this worker ran.
        uint64_t points = 0; ///< Design points it simulated.
    };

    /** One coherent-enough copy of every published field. */
    struct Snapshot
    {
        const char *phase = "idle";
        SweepProgress progress;
        uint64_t waves_done = 0;
        /** Slots that saw work, in worker-id order (id = index). */
        std::vector<std::pair<size_t, WorkerState>> workers;
    };

    /** @p phase must have static storage duration (string literal). */
    void setPhase(const char *phase)
    {
        phase_.store(phase, std::memory_order_relaxed);
    }

    /**
     * Observe sweep milestones (empty detaches). Install before a
     * sweep starts, not during one.
     */
    void setMilestoneCallback(ProgressCallback callback)
    {
        callback_ = std::move(callback);
    }

    /**
     * Open pass @p pass over @p points_total points: resets the done
     * count, the best total, the clock and the milestone series.
     * Call from the coordinating thread before any worker reports.
     */
    void beginPass(int pass, uint64_t points_total);

    /**
     * Announce @p delta additional points this pass will evaluate.
     * Adaptive refinement discovers work mid-pass; growing the total
     * before the new points are added keeps points_done <=
     * points_total in every snapshot.
     */
    void growTotal(uint64_t delta)
    {
        total_.fetch_add(delta, std::memory_order_relaxed);
    }

    /**
     * @p points more points of this pass are done (e.g. cache
     * replays); @p best_kg is the lowest total among them. Fires the
     * milestone callback when the count crosses a milestone or
     * reaches the total.
     */
    void addPoints(uint64_t points, double best_kg);

    /**
     * Worker @p worker simulated one wave of @p points points whose
     * lowest total is @p best_kg: bumps its slot, then addPoints().
     */
    void addWave(size_t worker, uint64_t points, double best_kg);

    /**
     * Close the pass: freeze its elapsed time and emit the terminal
     * milestone unless it already fired, so a pass that stops short
     * of its total still ends its series at the points actually done.
     * Idempotent; call after the sweep's workers have joined.
     */
    void finishPass();

    Snapshot snapshot() const;

    /** Render the single status page (text). */
    void writeText(std::ostream &os) const;

    /**
     * Rewrite the status file at @p path atomically: the page is
     * written to path + ".tmp" and renamed over @p path, so a
     * concurrent reader sees either the old page or the new one.
     * Failures warn and return false (status must never kill a run).
     */
    bool writeFile(const std::string &path) const;

  private:
    struct Slot
    {
        std::atomic<uint64_t> waves{0};
        std::atomic<uint64_t> points{0};
    };

    /** The pass's state with @p done points finished. */
    SweepProgress progressAt(uint64_t done) const;

    /** Fire the callback for @p done unless it already reported. */
    void emit(uint64_t done);

    std::atomic<const char *> phase_{"idle"};
    std::atomic<int> pass_{0};
    std::atomic<uint64_t> done_{0};
    std::atomic<uint64_t> total_{0};
    std::atomic<uint64_t> stride_{1};
    std::atomic<double> best_kg_{std::numeric_limits<double>::infinity()};
    /** Steady-clock ns of the pass start and end; -1 while unset. */
    std::atomic<int64_t> start_ns_{-1};
    std::atomic<int64_t> end_ns_{-1};
    std::atomic<uint64_t> waves_{0};
    std::array<Slot, kMaxWorkers> workers_{};

    ProgressCallback callback_;
    std::mutex emit_mutex_;
    uint64_t last_emitted_ = 0; ///< Guarded by emit_mutex_.
};

/**
 * Install the SIGUSR1 handler (idempotent; no-op on platforms
 * without SIGUSR1). The handler only sets an internal flag.
 */
void installStatusSignalHandler();

/**
 * True when SIGUSR1 arrived since the last call; clears the flag.
 * Poll from the coordinating thread (e.g. each progress milestone)
 * and render the status page when it fires.
 */
bool consumeStatusSignal();

} // namespace carbonx::obs

#endif // CARBONX_OBS_STATUS_H

#include "status.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/logging.h"
#include "common/table.h"

namespace carbonx::obs
{

namespace
{

int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

void
RunStatus::beginPass(int pass, uint64_t points_total)
{
    const std::lock_guard<std::mutex> lock(emit_mutex_);
    last_emitted_ = 0;
    pass_.store(pass, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    total_.store(points_total, std::memory_order_relaxed);
    // Ceiling division: floor would emit more than kMilestonesPerPass
    // milestones whenever the budget does not divide the total.
    stride_.store(std::max<uint64_t>(
                      (points_total + kMilestonesPerPass - 1) /
                          kMilestonesPerPass,
                      1),
                  std::memory_order_relaxed);
    best_kg_.store(std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
    end_ns_.store(-1, std::memory_order_relaxed);
    start_ns_.store(steadyNowNs(), std::memory_order_relaxed);
}

void
RunStatus::addPoints(uint64_t points, double best_kg)
{
    if (points == 0)
        return;
    double best = best_kg_.load(std::memory_order_relaxed);
    while (best_kg < best &&
           !best_kg_.compare_exchange_weak(best, best_kg,
                                           std::memory_order_relaxed)) {
    }
    const uint64_t done =
        done_.fetch_add(points, std::memory_order_relaxed) + points;
    if (!callback_)
        return;
    // A wave adds many points at once, so milestones are crossings
    // of the stride, not exact multiples of it.
    const uint64_t stride = stride_.load(std::memory_order_relaxed);
    if (done / stride != (done - points) / stride ||
        done >= total_.load(std::memory_order_relaxed))
        emit(done);
}

void
RunStatus::addWave(size_t worker, uint64_t points, double best_kg)
{
    Slot &slot = workers_[std::min(worker, kMaxWorkers - 1)];
    slot.waves.fetch_add(1, std::memory_order_relaxed);
    slot.points.fetch_add(points, std::memory_order_relaxed);
    waves_.fetch_add(1, std::memory_order_relaxed);
    addPoints(points, best_kg);
}

void
RunStatus::finishPass()
{
    int64_t unset = -1;
    end_ns_.compare_exchange_strong(unset, steadyNowNs(),
                                    std::memory_order_relaxed);
    const uint64_t done = done_.load(std::memory_order_relaxed);
    if (callback_ && done > 0)
        emit(done);
}

void
RunStatus::emit(uint64_t done)
{
    // The callback runs under the lock: serialized calls and a
    // strictly increasing series are its contract. Workers can cross
    // distinct milestones out of order, so stale ones are dropped.
    const std::lock_guard<std::mutex> lock(emit_mutex_);
    if (done <= last_emitted_)
        return;
    last_emitted_ = done;
    callback_(progressAt(done));
}

SweepProgress
RunStatus::progressAt(uint64_t done) const
{
    SweepProgress p;
    p.pass = pass_.load(std::memory_order_relaxed);
    p.points_done = done;
    p.points_total = total_.load(std::memory_order_relaxed);
    const double best = best_kg_.load(std::memory_order_relaxed);
    p.best_total_kg = std::isfinite(best) ? best : 0.0;
    const int64_t start = start_ns_.load(std::memory_order_relaxed);
    if (start < 0)
        return p;
    const int64_t end = end_ns_.load(std::memory_order_relaxed);
    p.elapsed_seconds =
        static_cast<double>((end >= 0 ? end : steadyNowNs()) - start) *
        1e-9;
    if (done > 0) {
        const double mean_s =
            p.elapsed_seconds / static_cast<double>(done);
        p.eta_seconds = mean_s *
            static_cast<double>(p.points_total > done
                                    ? p.points_total - done
                                    : 0);
    }
    return p;
}

RunStatus::Snapshot
RunStatus::snapshot() const
{
    Snapshot snap;
    snap.phase = phase_.load(std::memory_order_relaxed);
    snap.progress = progressAt(done_.load(std::memory_order_relaxed));
    snap.waves_done = waves_.load(std::memory_order_relaxed);
    for (size_t w = 0; w < kMaxWorkers; ++w) {
        const uint64_t waves =
            workers_[w].waves.load(std::memory_order_relaxed);
        const uint64_t points =
            workers_[w].points.load(std::memory_order_relaxed);
        if (waves == 0 && points == 0)
            continue;
        snap.workers.emplace_back(w, WorkerState{waves, points});
    }
    return snap;
}

void
RunStatus::writeText(std::ostream &os) const
{
    const Snapshot snap = snapshot();
    const SweepProgress &p = snap.progress;
    os << "carbonx run status\n"
       << "  phase:        " << snap.phase << "\n"
       << "  pass:         " << p.pass << "\n"
       << "  points:       " << p.points_done << " / " << p.points_total
       << "\n"
       << "  best total:   " << formatFixed(p.best_total_kg, 1)
       << " kg\n"
       << "  elapsed:      " << formatFixed(p.elapsed_seconds, 1)
       << " s\n"
       << "  eta:          "
       << (p.eta_seconds >= 0.0 ? formatFixed(p.eta_seconds, 1) + " s"
                                : std::string("unknown"))
       << "\n"
       << "  points/s:     " << formatFixed(p.pointsPerSecond(), 1)
       << "\n"
       << "  waves:        " << snap.waves_done << "\n";
    if (!snap.workers.empty()) {
        os << "  workers:\n";
        for (const auto &[id, state] : snap.workers) {
            os << "    worker " << id << ": " << state.waves
               << " waves, " << state.points << " points\n";
        }
    }
}

bool
RunStatus::writeFile(const std::string &path) const
{
    std::ostringstream page;
    writeText(page);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os.is_open()) {
            warn("cannot write status file " + tmp);
            return false;
        }
        os << page.str();
        os.flush();
        if (!os.good()) {
            warn("status file write failed: " + tmp);
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("cannot rename status file " + tmp + " -> " + path +
             " (" + ec.message() + ")");
        return false;
    }
    return true;
}

namespace
{

volatile std::sig_atomic_t g_status_requested = 0;

extern "C" void
statusSignalHandler(int)
{
    g_status_requested = 1;
}

} // namespace

void
installStatusSignalHandler()
{
#ifdef SIGUSR1
    std::signal(SIGUSR1, statusSignalHandler);
#endif
}

bool
consumeStatusSignal()
{
    if (g_status_requested == 0)
        return false;
    g_status_requested = 0;
    return true;
}

} // namespace carbonx::obs

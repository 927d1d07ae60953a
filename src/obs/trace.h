/**
 * @file
 * Span collection with Chrome trace_event JSON export.
 *
 * Spans come from CARBONX_PROFILE scopes (obs/profiler.h): while the
 * tracer is enabled, every such scope records one complete ("X")
 * event when it closes. Chrome infers the parent/child hierarchy from
 * time containment per thread; the exported file loads directly in
 * chrome://tracing or https://ui.perfetto.dev. The tracer is disabled
 * by default.
 */

#ifndef CARBONX_OBS_TRACE_H
#define CARBONX_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace carbonx::obs
{

/** Process-wide collector of completed spans. */
class SpanTracer
{
  public:
    static SpanTracer &instance();

    /** Enable/disable collection; disabling keeps recorded spans. */
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Record one completed span of the calling thread. Start and end
     * become whole microseconds since the tracer epoch, and the
     * duration is their difference, so a span that lies inside
     * another one on the same thread stays inside it in the trace.
     */
    void record(const char *name,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end);

    /**
     * Attach a counter track: one named series sampled once per
     * simulated hour, rendered by Chrome/Perfetto as a stacked area
     * lane alongside the spans ("C" phase events; the hour index maps
     * to microseconds on the trace clock). No-op while the tracer is
     * disabled. Adding a track with an existing name replaces it, so
     * re-running a command does not stack stale lanes.
     */
    void addCounterTrack(const std::string &name,
                         const std::vector<double> &values);

    /** Completed spans recorded so far. */
    size_t eventCount() const;

    /** Chrome trace_event JSON ("X" complete events). */
    void writeChromeTrace(std::ostream &os) const;

    /** Write the Chrome trace JSON to @p path. */
    void writeChromeTraceFile(const std::string &path) const;

    /** Drop all recorded spans. */
    void clear();

  private:
    struct Event
    {
        std::string name;
        uint64_t ts_us = 0;  ///< Start, relative to tracer epoch.
        uint64_t dur_us = 0; ///< Wall duration.
        uint32_t tid = 0;    ///< Small per-thread id.
    };

    SpanTracer();

    uint64_t sinceEpochUs(std::chrono::steady_clock::time_point t) const;

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::vector<std::pair<std::string, std::vector<double>>> counters_;
};

} // namespace carbonx::obs

#endif // CARBONX_OBS_TRACE_H

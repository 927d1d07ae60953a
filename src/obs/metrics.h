/**
 * @file
 * Process-wide metrics registry: named counters and gauges for the
 * Carbon Explorer pipeline. Instruments are registered on first use,
 * live for the process lifetime, and are safe to update from multiple
 * threads. Phase timing is not kept here: CARBONX_PROFILE (profiler.h)
 * is the one timer, read through the profile tree and the span trace.
 *
 * Hot paths should cache the returned instrument reference (e.g. in a
 * function-local static) instead of re-resolving the name per event;
 * references stay valid forever, including across reset().
 */

#ifndef CARBONX_OBS_METRICS_H
#define CARBONX_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/counters.h"

namespace carbonx::obs
{

/** Counters live in the common layer's store; these are its names. */
using ::carbonx::Counter;
using ::carbonx::counter;

/** Last-value-wins double, with an atomic accumulate for totals. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    void add(double delta)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed)) {
        }
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * The process-wide instrument registry. Lookup is mutex-protected;
 * updates on the returned instruments are lock-free.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** The common layer's counter(@p name). */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    /**
     * Snapshot of every counter, name -> value, sorted by name. The
     * bench reporter embeds this per scenario.
     */
    std::vector<std::pair<std::string, uint64_t>> counterValues() const;

    /** Human-readable fixed-width table of every instrument. */
    void writeText(std::ostream &os) const;

    /** Machine-readable JSON object (counters/gauges). */
    void writeJson(std::ostream &os) const;

    /** Flat kind,name,field,value CSV. */
    void writeCsv(std::ostream &os) const;

    /**
     * Write to @p path, picking the format from the extension:
     * .json, .csv, anything else gets the text table.
     */
    void writeFile(const std::string &path) const;

    /**
     * Zero every instrument in place, counters included. Previously
     * returned references stay valid; nothing is deregistered.
     */
    void reset();

  private:
    MetricsRegistry() = default;

    mutable std::mutex mutex_;
    std::map<std::string, Gauge> gauges_;
};

/** Shorthand for MetricsRegistry::instance().gauge(name). */
Gauge &gauge(const std::string &name);

} // namespace carbonx::obs

#endif // CARBONX_OBS_METRICS_H

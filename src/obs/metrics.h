/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and latency
 * histograms for the Carbon Explorer pipeline. Instruments are
 * registered on first use, live for the process lifetime, and are
 * safe to update from multiple threads, so the parallel-sweep work
 * that follows this layer does not need to retrofit locking.
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
#include "common/histogram.h"

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
 * Latency distribution in microseconds. Samples land in log10-spaced
 * bins (reusing the fixed-bin Histogram) spanning 1 us to ~10 s;
 * count/sum/min/max are tracked exactly.
 */
class LatencyHistogram
{
  public:
    LatencyHistogram();

    /** Record one sample of @p us microseconds. */
    void record(double us);

    uint64_t count() const;
    double totalUs() const;
    double minUs() const;
    double maxUs() const;
    double meanUs() const;

    /** One log-spaced bin with its edges converted back to us. */
    struct Bin
    {
        double lo_us = 0.0;
        double hi_us = 0.0;
        uint64_t count = 0;
    };

    /** Non-empty bins, in ascending latency order. */
    std::vector<Bin> bins() const;

    void reset();

  private:
    mutable std::mutex mutex_;
    Histogram log_bins_;
    uint64_t count_ = 0;
    double sum_us_ = 0.0;
    double min_us_ = 0.0;
    double max_us_ = 0.0;
};

/**
 * The process-wide instrument registry. Lookup is mutex-protected;
 * updates on the returned instruments are lock-free (counters/gauges)
 * or take the instrument's own mutex (latency histograms).
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** The common layer's counter(@p name). */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    LatencyHistogram &latency(const std::string &name);

    /**
     * Snapshot of every counter, name -> value, sorted by name. The
     * bench reporter embeds this per scenario.
     */
    std::vector<std::pair<std::string, uint64_t>> counterValues() const;

    /** Human-readable fixed-width table of every instrument. */
    void writeText(std::ostream &os) const;

    /** Machine-readable JSON object (counters/gauges/latencies). */
    void writeJson(std::ostream &os) const;

    /** Flat kind,name,field,value CSV. */
    void writeCsv(std::ostream &os) const;

    /**
     * Prometheus text exposition format (version 0.0.4): one `# HELP`
     * + `# TYPE` pair per metric, counters suffixed `_total`,
     * histograms as cumulative `_bucket{le=...}` series plus `_sum`
     * and `_count`. Metric names are sanitized to the Prometheus
     * charset and prefixed `carbonx_` (`sweep.cache_hits` becomes
     * `carbonx_sweep_cache_hits_total`). Groundwork for the
     * `carbonx serve` roadmap item.
     */
    void dumpPrometheus(std::ostream &os) const;

    /**
     * Write to @p path, picking the format from the extension:
     * .json, .csv, .prom (Prometheus exposition), anything else gets
     * the text table.
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
    std::map<std::string, LatencyHistogram> latencies_;
};

/** Shorthand for MetricsRegistry::instance().gauge(name). */
Gauge &gauge(const std::string &name);

/** Shorthand for MetricsRegistry::instance().latency(name). */
LatencyHistogram &latency(const std::string &name);

} // namespace carbonx::obs

#endif // CARBONX_OBS_METRICS_H

/**
 * @file
 * The process-wide store of named event counters.
 *
 * It lives in the common layer so the thread pool and the result
 * cache (both in common, which cannot see src/obs) count through the
 * same store as every other layer; obs::counter is this counter(), and
 * every MetricsRegistry dump reads and resets this one store.
 *
 * Register once (cache the reference in a function-local static on hot
 * paths); references stay valid for the process lifetime, including
 * across resetCounters(), and updates are lock-free relaxed atomics.
 */

#ifndef CARBONX_COMMON_COUNTERS_H
#define CARBONX_COMMON_COUNTERS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace carbonx
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void increment(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** The named counter, registered on first use. */
Counter &counter(const std::string &name);

/** Name/value snapshot of every counter, sorted by name. */
std::vector<std::pair<std::string, uint64_t>> counterSnapshot();

/** Zero every counter in place; references stay valid. */
void resetCounters();

} // namespace carbonx

#endif // CARBONX_COMMON_COUNTERS_H

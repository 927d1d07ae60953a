#include "greedy_scheduler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/tolerances.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace carbonx
{

GreedyCarbonScheduler::GreedyCarbonScheduler(SchedulerConfig config)
    : config_(config)
{
    require(config_.capacity_cap_mw.value() > 0.0,
            "scheduler capacity cap must be positive");
    require(config_.flexible_ratio.value() >= 0.0 &&
                config_.flexible_ratio.value() <= 1.0,
            "flexible ratio must be in [0, 1]");
    require(config_.slo_window_hours.value() >= 1.0,
            "SLO window must be at least one hour");
}

ScheduleResult
GreedyCarbonScheduler::schedule(const TimeSeries &dc_power,
                                const TimeSeries &cost_signal) const
{
    require(dc_power.year() == cost_signal.year(),
            "power and cost series must cover the same year");
    require(dc_power.max() <=
                config_.capacity_cap_mw.value() + kCapacityCapSlackMw,
            "existing load already exceeds the capacity cap");

    static auto &c_runs = obs::counter("scheduler.greedy_runs");
    static auto &g_moved = obs::gauge("scheduler.moved_mwh_total");
    static auto &h_run = obs::latency("scheduler.greedy_us");
    CARBONX_PROFILE("scheduler/greedy", &h_run);
    c_runs.increment();

    ScheduleResult result = config_.slo_window_hours.value() >= 24.0
        ? scheduleDaily(dc_power, cost_signal)
        : scheduleWindowed(dc_power, cost_signal);
    g_moved.add(result.moved_mwh.value());
    return result;
}

ScheduleResult
GreedyCarbonScheduler::scheduleDaily(const TimeSeries &dc_power,
                                     const TimeSeries &cost_signal) const
{
    ScheduleResult result(dc_power.year());
    const size_t days = dc_power.calendar().daysInYear();
    const double cap = config_.capacity_cap_mw.value();
    const double fwr = config_.flexible_ratio.value();

    for (size_t day = 0; day < days; ++day) {
        const size_t base = day * kHoursPerDay;

        // Pool the day's flexible energy; the rest stays in place.
        double movable = 0.0;
        for (size_t i = 0; i < 24; ++i) {
            const double p = dc_power[base + i];
            result.reshaped_power[base + i] = p * (1.0 - fwr);
            movable += p * fwr;
        }

        // Place pooled energy into the day's hours in ascending cost
        // order, filling each hour to the capacity cap before moving
        // to the next ("until all flexible workloads have been moved
        // or all datacenter servers have been used for the hour").
        std::vector<size_t> order(24);
        std::iota(order.begin(), order.end(), size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return cost_signal[base + a] <
                                    cost_signal[base + b];
                         });

        double remaining = movable;
        for (size_t i : order) {
            if (remaining <= 0.0)
                break;
            double &slot = result.reshaped_power[base + i];
            const double take = std::min(remaining, cap - slot);
            if (take > 0.0) {
                slot += take;
                remaining -= take;
            }
        }
        require(remaining <= 1e-6 * std::max(movable, 1.0),
                "capacity cap too small to hold the day's flexible load");
    }

    double moved = 0.0;
    for (size_t h = 0; h < dc_power.size(); ++h)
        moved += std::abs(result.reshaped_power[h] - dc_power[h]);
    result.moved_mwh = MegaWattHours(0.5 * moved);
    result.peak_power_mw = MegaWatts(result.reshaped_power.max());
    return result;
}

ScheduleResult
GreedyCarbonScheduler::scheduleWindowed(const TimeSeries &dc_power,
                                        const TimeSeries &cost_signal) const
{
    ScheduleResult result(dc_power.year());
    const size_t n = dc_power.size();
    const double cap = config_.capacity_cap_mw.value();
    const double fwr = config_.flexible_ratio.value();
    const long window =
        static_cast<long>(config_.slo_window_hours.value());

    // Pull model: each destination hour, visited in ascending cost
    // order, attracts flexible load from strictly more expensive
    // origins within the SLO window. Flexible load that is never
    // pulled runs at its origin; headroom accounting reserves space
    // for it so the cap is respected by construction.
    std::vector<double> fixed(n), flex(n), placed(n, 0.0);
    for (size_t h = 0; h < n; ++h) {
        fixed[h] = dc_power[h] * (1.0 - fwr);
        flex[h] = dc_power[h] * fwr;
    }

    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return cost_signal[a] < cost_signal[b];
    });

    for (size_t dest : order) {
        // Headroom reserves this hour's own still-unmoved flex.
        double headroom = cap - fixed[dest] - placed[dest] - flex[dest];
        if (headroom <= 0.0)
            continue;

        const long lo =
            std::max<long>(0, static_cast<long>(dest) - window);
        const long hi = std::min<long>(static_cast<long>(n) - 1,
                                       static_cast<long>(dest) + window);

        // Gather in-window origins that are more expensive, costliest
        // first, and pull their flexible load here.
        std::vector<size_t> origins;
        for (long o = lo; o <= hi; ++o) {
            const auto idx = static_cast<size_t>(o);
            if (idx != dest && cost_signal[idx] > cost_signal[dest] &&
                flex[idx] > 0.0) {
                origins.push_back(idx);
            }
        }
        std::stable_sort(origins.begin(), origins.end(),
                         [&](size_t a, size_t b) {
                             return cost_signal[a] > cost_signal[b];
                         });

        for (size_t o : origins) {
            if (headroom <= 0.0)
                break;
            const double pull = std::min(flex[o], headroom);
            flex[o] -= pull;
            placed[dest] += pull;
            headroom -= pull;
            result.moved_mwh += MegaWattHours(pull);
        }
    }

    for (size_t h = 0; h < n; ++h)
        result.reshaped_power[h] = fixed[h] + flex[h] + placed[h];
    result.peak_power_mw = MegaWatts(result.reshaped_power.max());
    return result;
}

} // namespace carbonx

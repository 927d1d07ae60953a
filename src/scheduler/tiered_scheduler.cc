#include "tiered_scheduler.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "common/tolerances.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace carbonx
{

TieredScheduler::TieredScheduler(WorkloadMix mix, MegaWatts capacity_cap)
    : mix_(std::move(mix)), capacity_cap_mw_(capacity_cap)
{
    require(capacity_cap.value() > 0.0, "capacity cap must be positive");
}

TieredScheduleResult
TieredScheduler::schedule(const TimeSeries &dc_power,
                          const TimeSeries &cost_signal) const
{
    require(dc_power.year() == cost_signal.year(),
            "power and cost series must cover the same year");
    require(dc_power.max() <=
                capacity_cap_mw_.value() + kCapacityCapSlackMw,
            "existing load already exceeds the capacity cap");

    CARBONX_PROFILE("scheduler/tiered");
    obs::counter("scheduler.tiered_runs").increment();

    const size_t n = dc_power.size();
    const double cap = capacity_cap_mw_.value();
    TieredScheduleResult result(dc_power.year());

    // Tiers sorted by window ascending: the most constrained tiers
    // pick destinations first.
    std::vector<WorkloadTier> tiers = mix_.tiers();
    std::stable_sort(tiers.begin(), tiers.end(),
                     [](const WorkloadTier &a, const WorkloadTier &b) {
                         return a.slo_window_hours < b.slo_window_hours;
                     });

    // occupancy[h]: load already committed to hour h (pinned tiers +
    // placements of processed tiers + their unmoved remainder).
    // pending[h]: flexible load of not-yet-processed tiers that will
    // eventually land at h if never pulled; reserved in headroom.
    std::vector<double> occupancy(n, 0.0);
    std::vector<double> pending(n, 0.0);
    for (const WorkloadTier &tier : tiers) {
        for (size_t h = 0; h < n; ++h) {
            const double load = dc_power[h] * tier.share;
            if (tier.slo_window_hours <= 0.0)
                occupancy[h] += load;
            else
                pending[h] += load;
        }
    }

    // Cost-ascending destination order, shared by every tier.
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return cost_signal[a] < cost_signal[b];
    });

    for (const WorkloadTier &tier : tiers) {
        TierOutcome outcome;
        outcome.tier_name = tier.name;
        outcome.slo_window_hours = Hours(tier.slo_window_hours);
        outcome.share = Fraction(tier.share);
        if (tier.slo_window_hours <= 0.0 || tier.share <= 0.0) {
            result.tiers.push_back(outcome);
            continue;
        }

        const long window = static_cast<long>(tier.slo_window_hours);
        std::vector<double> flex(n);
        for (size_t h = 0; h < n; ++h) {
            flex[h] = dc_power[h] * tier.share;
            pending[h] -= flex[h]; // Now handled by this pass.
        }
        std::vector<double> placed(n, 0.0);

        for (size_t dest : order) {
            // Reserve room for this hour's own unmoved flex and for
            // all later tiers' flex.
            double headroom = cap - occupancy[dest] - placed[dest] -
                              flex[dest] - pending[dest];
            if (headroom <= 0.0)
                continue;

            const long lo =
                std::max<long>(0, static_cast<long>(dest) - window);
            const long hi =
                std::min<long>(static_cast<long>(n) - 1,
                               static_cast<long>(dest) + window);

            std::vector<size_t> origins;
            for (long o = lo; o <= hi; ++o) {
                const auto idx = static_cast<size_t>(o);
                if (idx != dest &&
                    cost_signal[idx] > cost_signal[dest] &&
                    flex[idx] > 0.0) {
                    origins.push_back(idx);
                }
            }
            std::stable_sort(origins.begin(), origins.end(),
                             [&](size_t a, size_t b) {
                                 return cost_signal[a] >
                                        cost_signal[b];
                             });
            for (size_t o : origins) {
                if (headroom <= 0.0)
                    break;
                const double pull = std::min(flex[o], headroom);
                flex[o] -= pull;
                placed[dest] += pull;
                headroom -= pull;
                outcome.moved_mwh += MegaWattHours(pull);
            }
        }

        for (size_t h = 0; h < n; ++h)
            occupancy[h] += flex[h] + placed[h];
        result.moved_mwh += outcome.moved_mwh;
        result.tiers.push_back(outcome);
    }

    for (size_t h = 0; h < n; ++h)
        result.reshaped_power[h] = occupancy[h];
    result.peak_power_mw = MegaWatts(result.reshaped_power.max());
    ensure(std::abs(result.reshaped_power.total() - dc_power.total()) <
               1e-5 * std::max(dc_power.total(), 1.0),
           "tiered scheduling failed to conserve energy");
    return result;
}

} // namespace carbonx

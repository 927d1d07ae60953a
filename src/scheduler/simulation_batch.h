/**
 * @file
 * Structure-of-arrays batch of co-simulation lanes.
 *
 * A SimulationBatch holds up to `capacity` independent design points
 * ("lanes") in parallel arrays: per-lane configuration (renewable
 * investment, capacity cap, flexible ratio, SLO window, battery
 * parameters, grid-charging policy), per-lane mutable state (battery
 * content, deferred-work backlog), and per-lane result accumulators.
 * BatchedSimulationEngine advances every lane through the hourly
 * trace in one pass, so the trace (and its cache traffic) is paid
 * once per batch instead of once per design point. A single design
 * point is simply a one-lane batch.
 *
 * The batch owns no time series: lanes store only the solar/wind
 * nameplate scales, and the engine evaluates per-lane supply inline
 * from the shared shapes (the same expression CoverageAnalyzer::
 * supplyFor uses, so the values round identically — no per-lane
 * supply expansion).
 *
 * All validation happens in addLane (cheap, once per lane); the
 * hourly loop itself never allocates or throws. Battery parameters
 * are pre-derived here (rate caps, DoD floor, usable capacity) so the
 * kernel's C/L/C charge/discharge steps are straight-line arithmetic.
 */

#ifndef CARBONX_SCHEDULER_SIMULATION_BATCH_H
#define CARBONX_SCHEDULER_SIMULATION_BATCH_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "battery/chemistry.h"
#include "common/units.h"

namespace carbonx
{

/**
 * When the battery may charge from the grid rather than only from
 * surplus renewables (an extension beyond the paper's renewable-only
 * charging): Never reproduces the paper; BelowIntensityThreshold
 * charges from the grid whenever its carbon intensity is at or below
 * a threshold, enabling carbon arbitrage (store clean-ish grid energy,
 * displace dirty hours).
 */
enum class GridChargePolicy
{
    Never,
    BelowIntensityThreshold,
};

/**
 * Reusable deferred-work queue of one lane. A plain vector with a head
 * index stands in for std::deque: popFront is an index bump, pushFront
 * reuses the popped prefix (growing a fresh gap in one amortized-O(1)
 * move when none is left), and clear() keeps the capacity, so a batch
 * does no queue allocation once its queues have warmed up.
 */
struct SimulationScratch
{
    /** One chunk of deferred work with its completion deadline. */
    struct Entry
    {
        size_t deadline_hour;
        MegaWattHours mwh;
    };

    std::vector<Entry> entries;
    size_t head = 0;

    void clear()
    {
        entries.clear();
        head = 0;
    }
    bool empty() const { return head == entries.size(); }
    Entry &front() { return entries[head]; }
    const Entry &front() const { return entries[head]; }
    void popFront()
    {
        if (++head == entries.size())
            clear();
    }
    void pushBack(const Entry &e) { entries.push_back(e); }
    void pushFront(const Entry &e)
    {
        if (head == 0) {
            // Out of front headroom: open a gap proportional to the
            // queue length in one move, so a worst-case sequence of
            // front pushes stays amortized O(1) instead of shifting
            // the whole queue on every push.
            const size_t grow = std::max<size_t>(entries.size(), 4);
            entries.insert(entries.begin(), grow, Entry{});
            head = grow;
        }
        entries[--head] = e;
    }
};

/**
 * Configuration of one batch lane: the renewable investment, the
 * datacenter's capacity cap and scheduling knobs, and the battery
 * parameters of one design point.
 */
struct BatchLaneConfig
{
    /** Solar nameplate; per-lane supply is shape * nameplate. */
    MegaWatts solar_mw{0.0};

    /** Wind nameplate. */
    MegaWatts wind_mw{0.0};

    /** Datacenter capacity cap; must be at least the load peak. */
    MegaWatts capacity_cap_mw{0.0};

    /** Flexible workload ratio; 0 disables deferral. */
    Fraction flexible_ratio{0.0};

    /** Completion SLO for deferred work. */
    Hours slo_window_hours{24.0};

    /** Battery nameplate capacity; meaningful only with a chemistry. */
    MegaWattHours battery_capacity_mwh{0.0};

    /** Battery chemistry; null means "no battery attached". Non-owning. */
    const BatteryChemistry *chemistry = nullptr;

    /** Initial SoC; negative picks the DoD floor. */
    double initial_soc = -1.0;

    /** Grid-charging policy; Never reproduces the paper. */
    GridChargePolicy grid_charge_policy = GridChargePolicy::Never;

    /** Intensity threshold for BelowIntensityThreshold. */
    GramsPerKwh grid_charge_threshold_gkwh{0.0};
};

/**
 * Aggregated outcome of one lane. Hourly detail is deliberately
 * absent — the sweep never reads it, and materializing year-long
 * series per lane would erase the batching win; a one-lane run can
 * stream it into a flight recorder instead.
 */
struct BatchLaneResult
{
    MegaWattHours load_energy_mwh;      ///< Original demand energy.
    MegaWattHours served_energy_mwh;    ///< Energy actually served.
    MegaWattHours grid_energy_mwh;      ///< Energy drawn from the grid.
    MegaWattHours renewable_used_mwh;   ///< Renewable energy consumed.
    MegaWattHours renewable_excess_mwh; ///< Renewable supply left unused.
    MegaWattHours deferred_mwh;         ///< Total energy ever deferred.
    MegaWattHours max_backlog_mwh;      ///< Peak deferred-work backlog.
    MegaWattHours residual_backlog_mwh; ///< Backlog left at year end.
    MegaWattHours slo_violation_mwh;    ///< Deadline work beyond the cap.
    MegaWatts peak_power_mw;            ///< Max served power.
    double battery_cycles = 0.0;        ///< Full-equivalent cycles used.
    MegaWattHours grid_charge_mwh;      ///< Grid energy into the battery.
    double coverage_pct = 0.0;          ///< Renewable coverage share.

    /**
     * Operational carbon: sum over hours of grid draw times grid
     * intensity, accumulated in hour order with the exact expression
     * OperationalCarbonModel::gridEmissions() uses, so it equals that
     * model applied to the lane's hourly grid draw bit for bit. Zero
     * when the engine has no intensity series.
     */
    KilogramsCo2 operational_kg;
};

/**
 * Up-to-capacity lanes in SoA layout. Fill with addLane, run with
 * BatchedSimulationEngine::run, read with result(). clear() keeps all
 * storage (including each lane's backlog-queue capacity), so a sweep
 * worker that owns one batch stops allocating once its queues have
 * grown to the working-set high-water mark.
 */
class SimulationBatch
{
  public:
    /** Reserves every per-lane array for @p capacity lanes. */
    explicit SimulationBatch(size_t capacity);

    /** Validate @p lane and append it. Throws UserError on bad knobs. */
    void addLane(const BatchLaneConfig &lane);

    /** Drop all lanes, keeping storage. */
    void clear();

    size_t size() const { return size_; }
    size_t capacity() const { return capacity_; }

    /** Result of lane @p lane; valid after the engine ran the batch. */
    const BatchLaneResult &result(size_t lane) const
    {
        return results_[lane];
    }

  private:
    friend class BatchedSimulationEngine;

    size_t capacity_ = 0;
    size_t size_ = 0;

    // Per-lane configuration, unwrapped to raw doubles once at
    // addLane time (the PR-3 discipline: unit types are a single
    // double, so the kernel runs on plain contiguous arrays).
    std::vector<double> solar_;
    std::vector<double> wind_;
    std::vector<double> cap_;
    std::vector<double> fwr_;
    std::vector<size_t> window_;
    std::vector<unsigned char> grid_charging_;
    std::vector<double> grid_threshold_;

    // Battery parameters, pre-derived from the chemistry once per
    // lane (single deterministic products, so the kernel never
    // recomputes them per hour).
    std::vector<unsigned char> has_battery_;
    std::vector<double> bat_capacity_;      ///< Nameplate (MWh).
    std::vector<double> bat_initial_;       ///< Initial content (MWh).
    std::vector<double> bat_rate_charge_;   ///< C-rate power cap (MW).
    std::vector<double> bat_rate_discharge_;
    std::vector<double> bat_eff_charge_;
    std::vector<double> bat_eff_discharge_;
    std::vector<double> bat_min_content_;   ///< DoD floor (MWh).
    std::vector<double> bat_usable_;        ///< Nameplate * DoD (MWh).

    // Per-lane mutable state, reset by the engine at run start.
    std::vector<double> bat_content_;
    std::vector<double> bat_charged_;
    std::vector<double> bat_discharged_;
    std::vector<SimulationScratch> backlog_;
    std::vector<double> backlog_total_;

    // Hourly staging arrays written by the vectorizable lane loop.
    std::vector<double> ren_;
    std::vector<double> fixed_;
    std::vector<double> flex_;

    // Per-lane accumulators; one slot per lane, added in hour order,
    // so a lane's sums never depend on the batch it shares.
    std::vector<double> acc_load_;
    std::vector<double> acc_served_;
    std::vector<double> acc_grid_;
    std::vector<double> acc_ren_used_;
    std::vector<double> acc_ren_excess_;
    std::vector<double> acc_deferred_;
    std::vector<double> acc_max_backlog_;
    std::vector<double> acc_violation_;
    std::vector<double> acc_grid_charge_;
    std::vector<double> acc_peak_;
    std::vector<double> acc_carbon_;

    std::vector<BatchLaneResult> results_;
};

} // namespace carbonx

#endif // CARBONX_SCHEDULER_SIMULATION_BATCH_H

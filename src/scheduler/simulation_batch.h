/**
 * @file
 * Batch of co-simulation lanes.
 *
 * A SimulationBatch holds up to `capacity` independent design points
 * ("lanes"). Each lane has one record holding its configuration
 * (capacity cap, flexible ratio, SLO window, battery parameters,
 * grid-charging policy), its mutable state (battery content,
 * deferred-work backlog) and its result accumulators; the inputs and
 * outputs of the vectorized lane loops (nameplate scales, flexible
 * ratio, hourly staging, the plain loop's accumulators) are parallel
 * arrays. Each lane's backlog is a fixed ring in storage the batch
 * owns. BatchedSimulationEngine advances every lane through the hourly
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

#include <cstddef>
#include <cstdint>
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
 * Up-to-capacity lanes. Fill with addLane, run with
 * BatchedSimulationEngine::run, read with result(). clear() keeps all
 * storage, including the backlog rings, so a sweep worker that owns
 * one batch stops allocating after its first run.
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

    /** One chunk of deferred work and the hour it must run by. */
    struct BacklogEntry
    {
        size_t deadline_hour;
        double mwh;
    };

    /**
     * Everything the scheduling/battery step reads and writes for one
     * lane, so the step reaches all of it at fixed offsets from one
     * pointer. Values are raw doubles, unwrapped from their unit
     * types once in addLane.
     */
    struct Lane
    {
        // Configuration, set by addLane. Battery parameters are
        // pre-derived from the chemistry there (single deterministic
        // products, never recomputed per hour).
        double cap = 0.0;
        double fwr = 0.0;
        double window_hours = 1.0; ///< Finite and >= 1.
        double grid_threshold = 0.0;
        bool grid_charging = false;
        bool has_battery = false;
        double bat_capacity = 0.0;       ///< Nameplate (MWh).
        double bat_initial = 0.0;        ///< Initial content (MWh).
        double bat_rate_charge = 0.0;    ///< C-rate power cap (MW).
        double bat_rate_discharge = 0.0;
        double bat_eff_charge = 1.0;
        double bat_eff_discharge = 1.0;
        double bat_min_content = 0.0;    ///< DoD floor (MWh).
        double bat_usable = 0.0;         ///< Nameplate * DoD (MWh).

        // Run state, reset by the engine at run start.
        size_t window = 0; ///< SLO window, clamped to the trace.
        double bat_content = 0.0;
        double bat_charged = 0.0;
        double bat_discharged = 0.0;
        uint64_t charge_calls = 0;
        uint64_t discharge_calls = 0;

        // The deferred-work backlog: a ring of ring_depth entries in
        // the batch's ring storage, oldest entry at ring[head].
        BacklogEntry *ring = nullptr;
        size_t ring_depth = 0;
        size_t head = 0;
        size_t count = 0;
        double backlog_total = 0.0;

        // Accumulators, added in hour order, so a lane's sums never
        // depend on the batch it shares.
        double served = 0.0;
        double grid = 0.0;
        double ren_used = 0.0;
        double ren_excess = 0.0;
        double deferred = 0.0;
        double max_backlog = 0.0;
        double violation = 0.0;
        double grid_charge = 0.0;
        double peak = 0.0;
        double carbon = 0.0;

        bool backlogEmpty() const { return count == 0; }
        BacklogEntry &front() { return ring[head]; }
        void popFront()
        {
            head = head + 1 == ring_depth ? 0 : head + 1;
            --count;
        }
        void pushFront(const BacklogEntry &e)
        {
            head = head == 0 ? ring_depth - 1 : head - 1;
            ring[head] = e;
            ++count;
        }
        void pushBack(const BacklogEntry &e)
        {
            const size_t tail = head + count;
            ring[tail < ring_depth ? tail : tail - ring_depth] = e;
            ++count;
        }
    };

    size_t capacity_ = 0;
    size_t size_ = 0;

    std::vector<Lane> lanes_;

    // Stage-1 inputs and the plain stage 2's inputs, one column each,
    // so those lane loops vectorize.
    std::vector<double> solar_;
    std::vector<double> wind_;
    std::vector<double> fwr_;

    // Hourly staging arrays written by the stage-1 lane loop.
    std::vector<double> ren_;
    std::vector<double> fixed_;
    std::vector<double> flex_;

    // The plain stage 2's lane-dependent accumulators.
    std::vector<double> acc_grid_;
    std::vector<double> acc_ren_used_;
    std::vector<double> acc_ren_excess_;
    std::vector<double> acc_carbon_;

    // Backlog rings: ring_depth_ entries per lane slot, allocated by
    // the first run that needs them (never by a plain batch) and
    // regrown only for a deeper lane.
    std::vector<BacklogEntry> ring_;
    size_t ring_depth_ = 0;

    std::vector<BatchLaneResult> results_;
};

} // namespace carbonx

#endif // CARBONX_SCHEDULER_SIMULATION_BATCH_H

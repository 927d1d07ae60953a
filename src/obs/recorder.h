/**
 * @file
 * Simulation flight recorder: an opt-in, caller-owned columnar buffer
 * that the co-simulation kernel (BatchedSimulationEngine::run) fills
 * with one row per simulated hour of a one-lane batch.
 *
 * The sweep treats every lane as a black box — it keeps only the
 * aggregates in BatchLaneResult. The recorder opens the box: when a
 * FlightRecorder is handed to the kernel with a one-lane batch, the
 * kernel streams the lane's full hourly state (load, served power,
 * renewable use, grid draw, battery charge/discharge/energy content,
 * curtailment, CAS-shifted energy, backlog, hourly operational
 * carbon) into the recorder's column vectors.
 *
 * Zero-overhead contract: the kernel's general hour loop is one body
 * compiled twice (BatchedSimulationEngine::runGeneral<bool Record>).
 * Sweeps run the `false` instantiation, or the plain loop, and neither
 * contains recording code — no checks, no branches, no extra stores —
 * so the parallel sweep stays bit-identical and its throughput
 * unchanged. Only a run handed a recorder takes the `true` one (its
 * cost is what BM_SimulateRecorded in bench_perf_micro measures).
 *
 * Storage is columnar (structure-of-arrays): the invariant auditor
 * and the timeline exporters scan one field across all hours far more
 * often than all fields of one hour, and column vectors memcmp
 * cheaply in the determinism tests. HourlyRecord is the row view used
 * to fill and read single hours.
 *
 * Writing discipline: only src/scheduler (the kernel) and src/obs
 * (the auditor's test fixtures) may assign HourlyRecord fields
 * directly; everyone else consumes recordings read-only. carbonx-lint
 * enforces this (rule recorder-field-write).
 */

#ifndef CARBONX_OBS_RECORDER_H
#define CARBONX_OBS_RECORDER_H

#include <cstddef>
#include <vector>

namespace carbonx::obs
{

/**
 * One simulated hour, in the kernel's native raw doubles. Units are
 * fixed per field (MW, MWh, kg CO2) and named in the suffix; the
 * strong unit types stop at the kernel boundary because the recorder
 * is a bulk byte sink, not an arithmetic participant.
 */
struct HourlyRecord
{
    double load_mw = 0.0;        ///< Original demand this hour.
    double served_mw = 0.0;      ///< Power actually consumed.
    double renewable_mw = 0.0;   ///< Renewable supply available.
    double renewable_used_mw = 0.0; ///< Renewable supply consumed.
    double grid_mw = 0.0;        ///< Carbon-intensive grid draw.
    double battery_charge_mw = 0.0;    ///< AC power into storage.
    double battery_discharge_mw = 0.0; ///< AC power out of storage.
    double battery_energy_mwh = 0.0;   ///< Stored energy at hour end.
    double curtailed_mw = 0.0;   ///< Renewable supply left unused.
    double shifted_mwh = 0.0;    ///< Work newly deferred by CAS.
    double backlog_mwh = 0.0;    ///< Deferred-work backlog at hour end.
    double slo_violation_mwh = 0.0; ///< Deadline work beyond the cap.
    double grid_charge_mwh = 0.0;   ///< Grid energy stored (arbitrage).
    double carbon_kg = 0.0;      ///< Operational carbon of grid draw.
};

/**
 * Caller-owned recording target. Construct once, pass to
 * BatchedSimulationEngine::run with a one-lane batch, and read the
 * columns after the run. A recorder may be reused across runs:
 * begin() resets it while keeping the columns' capacity, so a reused
 * recorder allocates only on its first year.
 */
class FlightRecorder
{
  public:
    /**
     * Start a recording of @p hours rows for calendar @p year.
     * @p with_carbon marks whether the kernel has an intensity series
     * and will fill the carbon column (hasCarbon() lets consumers
     * distinguish "no grid draw" from "intensity unknown").
     */
    void begin(int year, size_t hours, bool with_carbon);

    /** Append the record for hour @p hour (must arrive in order). */
    void record(size_t hour, const HourlyRecord &row);

    /** Hours recorded so far. */
    size_t hours() const { return load_mw.size(); }

    /** Calendar year of the recording (0 before the first begin()). */
    int year() const { return year_; }

    /** True when the carbon column was filled from a real intensity. */
    bool hasCarbon() const { return has_carbon_; }

    /** Row view of hour @p hour. */
    HourlyRecord row(size_t hour) const;

    /** Sum of the hourly carbon column (kg CO2). */
    double totalCarbonKg() const;

    /** @name Columns, one value per recorded hour. */
    /// @{
    std::vector<double> load_mw;
    std::vector<double> served_mw;
    std::vector<double> renewable_mw;
    std::vector<double> renewable_used_mw;
    std::vector<double> grid_mw;
    std::vector<double> battery_charge_mw;
    std::vector<double> battery_discharge_mw;
    std::vector<double> battery_energy_mwh;
    std::vector<double> curtailed_mw;
    std::vector<double> shifted_mwh;
    std::vector<double> backlog_mwh;
    std::vector<double> slo_violation_mwh;
    std::vector<double> grid_charge_mwh;
    std::vector<double> carbon_kg;
    /// @}

    /** Column names in declaration order, for exporters. */
    static const std::vector<const char *> &columnNames();

    /** Column vectors in the same order as columnNames(). */
    std::vector<const std::vector<double> *> columns() const;

  private:
    std::vector<std::vector<double> *> mutableColumns();

    int year_ = 0;
    bool has_carbon_ = false;
};

/** True when every column of @p a equals @p b bit for bit. */
bool bitIdentical(const FlightRecorder &a, const FlightRecorder &b);

} // namespace carbonx::obs

#endif // CARBONX_OBS_RECORDER_H

/**
 * @file
 * The co-simulation kernel: one pass over the hourly trace advances
 * every lane of a SimulationBatch together, each lane running the
 * paper's combined heuristic (section 5.2):
 *
 *   "Whenever there is lack of renewable supply, the energy stored in
 *    the battery is used first and workload shifting happens only if
 *    the energy stored in the batteries are not sufficient. Whenever
 *    there is extra renewable supply, all available workloads are
 *    executed to use the available power first and batteries are
 *    charged with the remaining supply."
 *
 * A lane generalizes all four strategies of the evaluation: renewables
 * only (no battery, FWR = 0), renewables + battery, renewables + CAS,
 * and renewables + battery + CAS. Sweeps run full batches; every
 * single-point path (evaluate, simulate, explain, the sizing
 * bisections) runs a one-lane batch, so this is the only copy of the
 * heuristic. The hourly loop is two stages:
 *
 *  1. A branch-free lane loop computing per-lane renewable supply and
 *     the fixed/flexible load split into contiguous staging arrays —
 *     the auto-vectorizable part (each lane is independent, so SIMD
 *     lanes never mix operands across design points and the values
 *     are bit-identical to one-lane evaluation order).
 *  2. A per-lane scheduling/battery step. The battery step is the
 *     C/L/C model (battery/chemistry.h) on the batch's SoA state;
 *     this is the library's only copy of the battery physics.
 *
 * A plain batch (no recorder; every lane without battery, deferral or
 * grid charging, with its cap at or above the load peak) replaces
 * both stages with one fused, branch-free lane loop: the general step
 * with its always-zero dispatch terms removed, bit-identical to it
 * (DESIGN.md section 13 gives the argument).
 *
 * Lane independence: a lane's aggregates do not depend on the batch
 * it shares or its position in it, on whether a flight recorder is
 * attached, or on profiling. tests/scheduler_batched_engine_test.cc
 * pins this, and pins the aggregates of a randomized lane set against
 * a table frozen from the scalar engine this kernel replaced.
 */

#ifndef CARBONX_SCHEDULER_BATCHED_ENGINE_H
#define CARBONX_SCHEDULER_BATCHED_ENGINE_H

#include "scheduler/simulation_batch.h"
#include "timeseries/timeseries.h"

namespace carbonx
{

namespace obs
{
class FlightRecorder;
} // namespace obs

/**
 * Construct once per (load, shapes, intensity) trace set and run many
 * batches against it. All series are borrowed and must outlive the
 * engine. Thread-safe: run() only mutates the batch it is handed, so
 * parallel sweep workers share one engine with per-worker batches.
 */
class BatchedSimulationEngine
{
  public:
    /**
     * @param dc_power Hourly datacenter demand (MW).
     * @param solar_shape Per-unit solar shape (lane supply is
     *        shape * nameplate, evaluated inline per hour).
     * @param wind_shape Per-unit wind shape.
     * @param grid_intensity Optional hourly grid intensity (g/kWh);
     *        enables the per-lane operational-carbon accumulator and
     *        grid-charging policies.
     */
    BatchedSimulationEngine(const TimeSeries &dc_power,
                            const TimeSeries &solar_shape,
                            const TimeSeries &wind_shape,
                            const TimeSeries *grid_intensity = nullptr);

    /**
     * Simulate one year for every lane of @p batch, filling each
     * lane's BatchLaneResult. Resets all lane run state first, so a
     * batch may be re-run or refilled (clear + addLane) freely; after
     * the first run of a given working set, run() performs no heap
     * allocation.
     *
     * @p recorder (optional, one-lane batches only — UserError
     * otherwise) receives the lane's full hourly state (see
     * obs/recorder.h); the engine begin()s it, and fills its carbon
     * column when the engine has an intensity series. Null costs one
     * pointer check per lane-hour and leaves every output unchanged.
     */
    void run(SimulationBatch &batch,
             obs::FlightRecorder *recorder = nullptr) const;

    const TimeSeries &dcPower() const { return dc_power_; }

  private:
    /**
     * The hourly loop of a plain batch (see the file comment), for
     * run() to call after it has validated and reset the batch.
     */
    void runPlain(SimulationBatch &batch) const;

    const TimeSeries &dc_power_;
    const TimeSeries &solar_shape_;
    const TimeSeries &wind_shape_;
    const TimeSeries *grid_intensity_;
    double peak_mw_;
};

} // namespace carbonx

#endif // CARBONX_SCHEDULER_BATCHED_ENGINE_H

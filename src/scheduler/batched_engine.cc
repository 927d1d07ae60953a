#include "batched_engine.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/error.h"
#include "common/tolerances.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"

namespace carbonx
{

BatchedSimulationEngine::BatchedSimulationEngine(
    const TimeSeries &dc_power, const TimeSeries &solar_shape,
    const TimeSeries &wind_shape, const TimeSeries *grid_intensity)
    : dc_power_(dc_power), solar_shape_(solar_shape),
      wind_shape_(wind_shape), grid_intensity_(grid_intensity),
      peak_mw_(dc_power.max())
{
    require(dc_power.year() == solar_shape.year() &&
                dc_power.year() == wind_shape.year(),
            "load and shape series must cover the same year");
    require(dc_power.min() >= 0.0, "datacenter power must be >= 0");
    require(solar_shape.min() >= 0.0 && wind_shape.min() >= 0.0,
            "renewable shapes must be >= 0");
    if (grid_intensity != nullptr) {
        require(grid_intensity->year() == dc_power.year(),
                "intensity series must cover the simulated year");
    }
}

namespace
{

constexpr double dt = 1.0; // Hourly steps.

// The C/L/C battery step on a lane record (battery/chemistry.h); the
// record type is private to SimulationBatch, hence `auto`.
// Charging accepts the offer up to the rate cap (C-rate x capacity,
// pre-derived in addLane) and the headroom cap
// (headroom / (eta_c * dt)); content grows by accepted * dt * eta_c,
// clamped at capacity.
double
chargeLane(auto &lane, double offered)
{
    ++lane.charge_calls;
    if (lane.bat_capacity <= 0.0 || offered <= 0.0)
        return 0.0;
    const double headroom =
        std::max(lane.bat_capacity - lane.bat_content, 0.0);
    const double headroom_cap = headroom / (lane.bat_eff_charge * dt);
    const double accepted =
        std::min(std::min(offered, lane.bat_rate_charge), headroom_cap);
    lane.bat_content += accepted * dt * lane.bat_eff_charge;
    lane.bat_content = std::min(lane.bat_content, lane.bat_capacity);
    lane.bat_charged += accepted * dt;
    return accepted;
}

// Discharging delivers the request up to the rate cap and what lies
// above the DoD floor ((1 - DoD) x capacity, pre-derived) after
// losses; content shrinks by delivered * dt / eta_d, clamped at the
// floor.
double
dischargeLane(auto &lane, double requested)
{
    ++lane.discharge_calls;
    if (lane.bat_capacity <= 0.0 || requested <= 0.0)
        return 0.0;
    const double available =
        std::max(lane.bat_content - lane.bat_min_content, 0.0);
    const double content_cap = available * lane.bat_eff_discharge / dt;
    const double delivered = std::min(
        std::min(requested, lane.bat_rate_discharge), content_cap);
    lane.bat_content -= delivered * dt / lane.bat_eff_discharge;
    lane.bat_content = std::max(lane.bat_content, lane.bat_min_content);
    lane.bat_discharged += delivered * dt;
    return delivered;
}

} // namespace

// The plain stage 2. With fwr == 0, no battery and cap >= peak, the
// general step reduces to served = fixed + forced = load + 0.0 on
// every lane (the backlog never fills), and every dispatch term
// (battery_in/out, defer, grid_charge) is +0.0. What is left are the
// general step's exact operations, in the same order, minus those
// that add or subtract a zero:
//  - served, its energy and its peak do not depend on the lane, so
//    they are summed once per batch and copied to every lane after
//    the loop (same sums, same order);
//  - the + 0.0 in served is kept: it turns a -0.0 load hour into
//    +0.0, as the general step's + forced does;
//  - max(shortfall, 0.0) + grid_charge folds into one select: the
//    + 0.0 only turns a -0.0 shortfall into +0.0, which "<= 0.0 ? 0.0"
//    does too, and NaN passes through both.
// Each std::min/std::max is written as a value select with the
// library's operand order (b < a ? b : a), so ties and signed zeros
// pick the same operand. A function of its own, so the general
// loop's code is the same with or without this path.
double
BatchedSimulationEngine::runPlain(SimulationBatch &batch) const
{
    CARBONX_PROFILE("sim/batch_step_plain");
    const size_t m = batch.size_;
    const size_t n = dc_power_.size();
    const double *dc = dc_power_.values().data();
    const double *sshape = solar_shape_.values().data();
    const double *wshape = wind_shape_.values().data();
    const double *inten = grid_intensity_ != nullptr
        ? grid_intensity_->values().data()
        : nullptr;
    // assign never allocates: every array was reserved for the batch
    // capacity.
    batch.acc_grid_.assign(m, 0.0);
    batch.acc_ren_used_.assign(m, 0.0);
    batch.acc_ren_excess_.assign(m, 0.0);
    batch.acc_carbon_.assign(m, 0.0);
    const double *__restrict solar = batch.solar_.data();
    const double *__restrict wind = batch.wind_.data();
    double *__restrict acc_grid = batch.acc_grid_.data();
    double *__restrict acc_ren_used = batch.acc_ren_used_.data();
    double *__restrict acc_ren_excess = batch.acc_ren_excess_.data();
    double *__restrict acc_carbon = batch.acc_carbon_.data();

    double load_sum = 0.0;
    double served_sum = 0.0;
    double peak = 0.0;
    for (size_t h = 0; h < n; ++h) {
        const double load = dc[h];
        const double sh = sshape[h];
        const double wh = wshape[h];
        const double inten_h = inten != nullptr ? inten[h] : 0.0;
        const double served = load + 0.0;
        load_sum += load * dt;
        served_sum += served * dt;
        peak = std::max(peak, served);

        // Stage 2, plain lanes: supply, grid draw, renewable use and
        // carbon fused into one branch-free lane loop. The CI
        // vectorization smoke check requires this loop to stay
        // vectorized; GCC needs the select form of grid to if-convert
        // it under the default -ftrapping-math.
#pragma GCC ivdep
        for (size_t l = 0; l < m; ++l) {
            const double lane_ren = sh * solar[l] + wh * wind[l];
            const double green_used =
                served < lane_ren ? served : lane_ren;
            const double shortfall = served - lane_ren;
            const double grid = shortfall <= 0.0 ? 0.0 : shortfall;
            const double excess = lane_ren - green_used;
            acc_grid[l] += grid * dt;
            acc_ren_used[l] += green_used * dt;
            acc_ren_excess[l] += (excess < 0.0 ? 0.0 : excess) * dt;
            acc_carbon[l] += grid * inten_h;
        }
    }
    for (size_t l = 0; l < m; ++l) {
        SimulationBatch::Lane &lane = batch.lanes_[l];
        lane.served = served_sum;
        lane.peak = peak;
        lane.grid = acc_grid[l];
        lane.ren_used = acc_ren_used[l];
        lane.ren_excess = acc_ren_excess[l];
        lane.carbon = acc_carbon[l];
    }
    return load_sum;
}

template <bool Record>
double
BatchedSimulationEngine::runGeneral(SimulationBatch &batch,
                                    obs::FlightRecorder *recorder) const
{
    CARBONX_PROFILE("sim/batch_step");
    const size_t m = batch.size_;
    const size_t n = dc_power_.size();
    SimulationBatch::Lane *lanes = batch.lanes_.data();

    // Backlog rings. A lane's live entries never exceed
    // min(window, n) + 1 (DESIGN.md section 13 proves it), so a ring
    // of that depth per lane slot never overwrites a live entry. The
    // window is finite and >= 1 (addLane); clamping it to the trace
    // first keeps the cast defined and changes nothing, since a
    // deadline past the last hour never matures either way.
    size_t depth = 0;
    for (size_t l = 0; l < m; ++l) {
        lanes[l].window = static_cast<size_t>(
            std::min(lanes[l].window_hours, static_cast<double>(n)));
        depth = std::max(depth, lanes[l].window + 1);
    }
    if (depth > batch.ring_depth_) {
        batch.ring_.resize(batch.capacity_ * depth);
        batch.ring_depth_ = depth;
    }
    for (size_t l = 0; l < m; ++l) {
        lanes[l].ring = batch.ring_.data() + l * batch.ring_depth_;
        lanes[l].ring_depth = batch.ring_depth_;
    }

    // resize never allocates: every array was reserved for the batch
    // capacity. The staging arrays carry __restrict so the stage-1
    // loop needs no runtime alias checks to vectorize; every pointer
    // addresses a distinct vector.
    batch.ren_.resize(m);
    batch.fixed_.resize(m);
    batch.flex_.resize(m);
    const double *dc = dc_power_.values().data();
    const double *sshape = solar_shape_.values().data();
    const double *wshape = wind_shape_.values().data();
    const double *inten = grid_intensity_ != nullptr
        ? grid_intensity_->values().data()
        : nullptr;
    double *__restrict ren = batch.ren_.data();
    double *__restrict fixedv = batch.fixed_.data();
    double *__restrict flexv = batch.flex_.data();
    const double *__restrict solar = batch.solar_.data();
    const double *__restrict wind = batch.wind_.data();
    const double *__restrict fwr = batch.fwr_.data();

    if constexpr (Record)
        recorder->begin(dc_power_.year(), n, inten != nullptr);
    // Previous-hour snapshots of the two monotone accumulators, used
    // to derive per-hour deltas for the recording.
    double prev_deferred = 0.0;
    double prev_violation = 0.0;

    // Load energy does not depend on the lane: one sum per batch, in
    // hour order, is the sum each lane would make.
    double load_sum = 0.0;
    for (size_t h = 0; h < n; ++h) {
        const double load = dc[h];
        const double sh = sshape[h];
        const double wh = wshape[h];

        // Stage 1, the vector kernel: per-lane supply (the exact
        // CoverageAnalyzer::supplyFor expression) and load split.
        // Branch-free and lane-independent — the CI vectorization
        // smoke check requires this loop to stay vectorized. The
        // ivdep pragma is load-bearing: the six arrays are distinct
        // SimulationBatch members so they cannot alias, but GCC
        // loses the restrict tags on locals here and would need more
        // runtime alias checks than its limit
        // (vect-max-version-for-alias-checks) allows.
#pragma GCC ivdep
        for (size_t l = 0; l < m; ++l) {
            ren[l] = sh * solar[l] + wh * wind[l];
            fixedv[l] = load * (1.0 - fwr[l]);
            flexv[l] = load * fwr[l];
        }

        const double inten_h = inten != nullptr ? inten[h] : 0.0;
        load_sum += load * dt;

        // Stage 2: the scheduling/battery step, lane by lane.
        for (size_t l = 0; l < m; ++l) {
            SimulationBatch::Lane &lane = lanes[l];
            const double cap = lane.cap;
            const double flex = flexv[l];
            const double lane_ren = ren[l];

            // Deadline-forced backlog must run now.
            double forced = 0.0;
            while (!lane.backlogEmpty() &&
                   lane.front().deadline_hour <= h) {
                forced += lane.front().mwh;
                lane.backlog_total -= lane.front().mwh;
                lane.popFront();
            }

            // Mandatory work: inflexible load plus deadline-forced
            // backlog, truncated at the physical capacity cap.
            // Truncated deadline work is an SLO violation; it still
            // runs, one cap-sized slice per hour, until drained.
            double mandatory = fixedv[l] + forced;
            if (mandatory > cap) {
                const double overflow = mandatory - cap;
                lane.violation += overflow * dt;
                lane.pushFront({h + 1, overflow});
                lane.backlog_total += overflow;
                mandatory = cap;
            }

            double served = mandatory;
            double battery_out = 0.0;
            double battery_in = 0.0;

            if (lane_ren >= served) {
                // Surplus relative to mandatory work. Run everything
                // available — current flexible work first, then
                // backlog — on renewable power within the capacity
                // cap, and charge the battery with what remains
                // (section 5.2).
                double surplus = lane_ren - served;

                const double flex_green =
                    std::min({flex, surplus, cap - served});
                served += flex_green;
                surplus -= flex_green;

                // Flexible work that surplus could not cover competes
                // for the battery like any other deficit.
                const double flex_rest = flex - flex_green;

                // Drain backlog, oldest first, on leftover surplus.
                while (surplus > kNegligibleDispatch && served < cap &&
                       !lane.backlogEmpty()) {
                    SimulationBatch::BacklogEntry &entry = lane.front();
                    const double runnable = std::min(
                        {entry.mwh / dt, surplus, cap - served});
                    if (runnable <= kNegligibleDispatch)
                        break;
                    entry.mwh -= runnable * dt;
                    lane.backlog_total -= runnable * dt;
                    served += runnable;
                    surplus -= runnable;
                    if (entry.mwh <= kNegligibleDispatch)
                        lane.popFront();
                }

                if (flex_rest > 0.0) {
                    // No surplus left for this flexible remainder:
                    // battery first, defer only what storage cannot
                    // cover. Work that does not fit under the
                    // capacity cap must defer regardless.
                    const double fits = std::min(flex_rest, cap - served);
                    double deficit = fits;
                    if (lane.has_battery && deficit > 0.0) {
                        battery_out = dischargeLane(lane, deficit);
                        deficit -= battery_out;
                    }
                    const double defer = (flex_rest - fits) + deficit;
                    if (defer > 0.0) {
                        lane.pushBack({h + lane.window, defer * dt});
                        lane.backlog_total += defer * dt;
                        lane.deferred += defer * dt;
                    }
                    served += flex_rest - defer;
                }

                if (lane.has_battery && surplus > kNegligibleDispatch)
                    battery_in = chargeLane(lane, surplus);
            } else {
                // Deficit: renewables cannot even cover mandatory
                // work. Battery first, then defer flexible work, then
                // the grid. Flexible work beyond the capacity cap
                // must defer.
                const double flex_fits = std::min(flex, cap - served);
                double deficit = served + flex_fits - lane_ren;
                if (lane.has_battery) {
                    battery_out = dischargeLane(lane, deficit);
                    deficit -= battery_out;
                }
                const double defer = (flex - flex_fits) +
                    (lane.fwr > 0.0 ? std::min(flex_fits, deficit) : 0.0);
                if (defer > 0.0) {
                    lane.pushBack({h + lane.window, defer * dt});
                    lane.backlog_total += defer * dt;
                    lane.deferred += defer * dt;
                }
                served += flex - defer;
            }

            // Carbon-arbitrage extension: top the battery up from the
            // grid whenever the grid is clean enough. This energy
            // counts as grid draw (it is not carbon-free), so it
            // trades coverage for lower operational carbon.
            double grid_charge = 0.0;
            if (lane.grid_charging && lane.has_battery &&
                inten_h <= lane.grid_threshold) {
                grid_charge =
                    chargeLane(lane, std::numeric_limits<double>::max());
                battery_in += grid_charge;
                lane.grid_charge += grid_charge * dt;
            }

            const double green_used =
                std::min(lane_ren, served + (battery_in - grid_charge));
            const double grid =
                std::max(served - lane_ren - battery_out, 0.0) +
                grid_charge;

            lane.served += served * dt;
            lane.grid += grid * dt;
            lane.ren_used += green_used * dt;
            lane.ren_excess += std::max(lane_ren - green_used, 0.0) * dt;
            lane.max_backlog = std::max(lane.max_backlog, lane.backlog_total);
            lane.peak = std::max(lane.peak, served);
            // Same expression, same hour order as gridEmissions() sums
            // an hourly grid series (g/kWh == kg/MWh), so the lane's
            // operational carbon reconciles exactly.
            lane.carbon += grid * inten_h;

            if constexpr (Record) {
                obs::HourlyRecord row;
                row.load_mw = load;
                row.served_mw = served;
                row.renewable_mw = lane_ren;
                row.renewable_used_mw = green_used;
                row.grid_mw = grid;
                row.battery_charge_mw = battery_in;
                row.battery_discharge_mw = battery_out;
                row.battery_energy_mwh = lane.bat_content;
                row.curtailed_mw = std::max(lane_ren - green_used, 0.0);
                row.shifted_mwh = lane.deferred - prev_deferred;
                row.backlog_mwh = lane.backlog_total;
                row.slo_violation_mwh = lane.violation - prev_violation;
                row.grid_charge_mwh = grid_charge * dt;
                // The lane's own carbon operand, so the recorded
                // column reconciles exactly with operational_kg.
                row.carbon_kg = grid * inten_h;
                recorder->record(h, row);
                prev_deferred = lane.deferred;
                prev_violation = lane.violation;
            }
        }
    }
    return load_sum;
}

void
BatchedSimulationEngine::run(SimulationBatch &batch,
                             obs::FlightRecorder *recorder) const
{
    CARBONX_PROFILE("sim/batch_run");
    static auto &c_batches = obs::counter("sim.batch_runs");
    static auto &c_plain = obs::counter("sim.plain_batch_runs");
    static auto &c_lanes = obs::counter("sim.batch_lanes");
    static auto &c_hours = obs::counter("sim.hours_simulated");
    static auto &c_charge = obs::counter("battery.charge_calls");
    static auto &c_discharge = obs::counter("battery.discharge_calls");
    static auto &g_charged = obs::gauge("battery.charged_mwh_total");
    static auto &g_discharged =
        obs::gauge("battery.discharged_mwh_total");
    // Fill factor of this batch relative to its reserved capacity:
    // the sweep's journal/status tooling reads this alongside wave
    // counts to tell "few full waves" from "many ragged ones".
    static auto &g_fill = obs::gauge("sim.batch_fill_lanes");

    const size_t m = batch.size_;
    if (recorder != nullptr && m != 1)
        throw UserError("a flight recorder needs a one-lane batch");
    if (m == 0)
        return;
    g_fill.set(static_cast<double>(m));
    const size_t n = dc_power_.size();

    // Engine-side lane validation (the batch validated everything it
    // could without trace context in addLane). Branch-then-throw:
    // run() sits on the sweep's per-wave path and must not allocate
    // on the success path. The same pass decides whether the batch is
    // plain: no battery, no deferral, no grid charging and a cap at
    // or above the peak on every lane, so no dispatch term can ever
    // become nonzero (see runPlain). It also resets each lane's run
    // state; the battery restarts from its initial content.
    bool plain = recorder == nullptr;
    for (size_t l = 0; l < m; ++l) {
        SimulationBatch::Lane &lane = batch.lanes_[l];
        // Written so that a NaN cap fails it too.
        if (!(lane.cap >= peak_mw_ - kCapacityCapSlackMw))
            throw UserError("capacity_cap_mw below the load peak");
        if (lane.grid_charging && grid_intensity_ == nullptr)
            throw UserError(
                "grid-charging policy requires an intensity series");
        plain = plain && !lane.has_battery && lane.fwr == 0.0 &&
            !lane.grid_charging && lane.cap >= peak_mw_;
        lane.bat_content = lane.bat_initial;
        lane.bat_charged = lane.bat_discharged = 0.0;
        lane.charge_calls = lane.discharge_calls = 0;
        lane.head = lane.count = 0;
        lane.backlog_total = 0.0;
        lane.served = lane.grid = lane.ren_used = lane.ren_excess = 0.0;
        lane.deferred = lane.max_backlog = lane.violation = 0.0;
        lane.grid_charge = lane.peak = lane.carbon = 0.0;
    }

    double load_energy = 0.0;
    if (recorder != nullptr) {
        load_energy = runGeneral<true>(batch, recorder);
    } else if (plain) {
        load_energy = runPlain(batch);
        c_plain.increment();
    } else {
        load_energy = runGeneral<false>(batch, nullptr);
    }

    uint64_t charge_calls = 0;
    uint64_t discharge_calls = 0;
    double charged = 0.0;
    double discharged = 0.0;
    {
        CARBONX_PROFILE("sim/batch_drain");
        batch.results_.resize(m);
        for (size_t l = 0; l < m; ++l) {
            const SimulationBatch::Lane &lane = batch.lanes_[l];
            BatchLaneResult &r = batch.results_[l];
            r.load_energy_mwh = MegaWattHours(load_energy);
            r.served_energy_mwh = MegaWattHours(lane.served);
            r.grid_energy_mwh = MegaWattHours(lane.grid);
            r.renewable_used_mwh = MegaWattHours(lane.ren_used);
            r.renewable_excess_mwh = MegaWattHours(lane.ren_excess);
            r.deferred_mwh = MegaWattHours(lane.deferred);
            r.max_backlog_mwh = MegaWattHours(lane.max_backlog);
            r.residual_backlog_mwh = MegaWattHours(lane.backlog_total);
            r.slo_violation_mwh = MegaWattHours(lane.violation);
            r.peak_power_mw = MegaWatts(lane.peak);
            r.battery_cycles = lane.bat_usable > 0.0
                ? lane.bat_discharged / lane.bat_usable
                : 0.0;
            r.grid_charge_mwh = MegaWattHours(lane.grid_charge);
            // Clamped at zero: with grid charging, battery round-trip
            // losses can push grid draw past demand, and a negative
            // "renewable coverage" is meaningless. Without grid
            // charging grid draw never exceeds load and the clamp is
            // inert.
            r.coverage_pct = load_energy > 0.0
                ? std::max(0.0, (1.0 - lane.grid / load_energy) * 100.0)
                : 100.0;
            r.operational_kg = KilogramsCo2(lane.carbon);
            charge_calls += lane.charge_calls;
            discharge_calls += lane.discharge_calls;
            charged += lane.bat_charged;
            discharged += lane.bat_discharged;
        }
    }

    c_batches.increment();
    c_lanes.increment(m);
    c_hours.increment(m * n);
    if (charge_calls > 0 || discharge_calls > 0) {
        c_charge.increment(charge_calls);
        c_discharge.increment(discharge_calls);
        g_charged.add(charged);
        g_discharged.add(discharged);
    }
}

} // namespace carbonx

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

// The plain stage 2. With fwr == 0, no battery and cap >= peak, the
// general step in run() reduces to served = fixed + forced =
// load + 0.0 on every lane (the backlog never fills), and every
// dispatch term (battery_in/out, defer, grid_charge) is +0.0. What is
// left are the general step's exact operations, in the same order,
// minus those that add or subtract a zero:
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
void
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
    const double *__restrict solar = batch.solar_.data();
    const double *__restrict wind = batch.wind_.data();
    double *__restrict acc_grid = batch.acc_grid_.data();
    double *__restrict acc_ren_used = batch.acc_ren_used_.data();
    double *__restrict acc_ren_excess = batch.acc_ren_excess_.data();
    double *__restrict acc_carbon = batch.acc_carbon_.data();
    const double dt = 1.0; // Hourly steps.

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
    std::fill_n(batch.acc_load_.data(), m, load_sum);
    std::fill_n(batch.acc_served_.data(), m, served_sum);
    std::fill_n(batch.acc_peak_.data(), m, peak);
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
    // become nonzero (see runPlain).
    bool plain = recorder == nullptr;
    for (size_t l = 0; l < m; ++l) {
        if (batch.cap_[l] < peak_mw_ - kCapacityCapSlackMw)
            throw UserError("capacity cap below the load peak");
        if (batch.grid_charging_[l] != 0 && grid_intensity_ == nullptr)
            throw UserError(
                "grid-charging policy requires an intensity series");
        plain = plain && batch.has_battery_[l] == 0 &&
            batch.fwr_[l] == 0.0 && batch.grid_charging_[l] == 0 &&
            batch.cap_[l] >= peak_mw_;
    }

    // Reset per-lane run state; assign/resize never allocate here
    // because every array was reserved for the batch capacity.
    batch.bat_content_.assign(batch.bat_initial_.begin(),
                              batch.bat_initial_.end());
    batch.bat_charged_.assign(m, 0.0);
    batch.bat_discharged_.assign(m, 0.0);
    batch.backlog_total_.assign(m, 0.0);
    batch.ren_.resize(m);
    batch.fixed_.resize(m);
    batch.flex_.resize(m);
    batch.acc_load_.assign(m, 0.0);
    batch.acc_served_.assign(m, 0.0);
    batch.acc_grid_.assign(m, 0.0);
    batch.acc_ren_used_.assign(m, 0.0);
    batch.acc_ren_excess_.assign(m, 0.0);
    batch.acc_deferred_.assign(m, 0.0);
    batch.acc_max_backlog_.assign(m, 0.0);
    batch.acc_violation_.assign(m, 0.0);
    batch.acc_grid_charge_.assign(m, 0.0);
    batch.acc_peak_.assign(m, 0.0);
    batch.acc_carbon_.assign(m, 0.0);
    batch.results_.resize(m);
    for (size_t l = 0; l < m; ++l)
        batch.backlog_[l].clear();

    // Raw SoA pointers hoisted once. The staging arrays carry
    // __restrict so the stage-1 loop needs no runtime alias checks to
    // vectorize; every pointer addresses a distinct vector.
    const std::span<const double> dc = dc_power_.values();
    const std::span<const double> sshape = solar_shape_.values();
    const std::span<const double> wshape = wind_shape_.values();
    const double *inten = grid_intensity_ != nullptr
        ? grid_intensity_->values().data()
        : nullptr;

    double *__restrict ren = batch.ren_.data();
    double *__restrict fixedv = batch.fixed_.data();
    double *__restrict flexv = batch.flex_.data();
    const double *__restrict solar = batch.solar_.data();
    const double *__restrict wind = batch.wind_.data();
    const double *__restrict fwr = batch.fwr_.data();

    const double *capv = batch.cap_.data();
    const size_t *windowv = batch.window_.data();
    const unsigned char *grid_ch = batch.grid_charging_.data();
    const double *grid_thr = batch.grid_threshold_.data();
    const unsigned char *has_b = batch.has_battery_.data();
    const double *b_cap = batch.bat_capacity_.data();
    const double *b_rate_c = batch.bat_rate_charge_.data();
    const double *b_rate_d = batch.bat_rate_discharge_.data();
    const double *b_eff_c = batch.bat_eff_charge_.data();
    const double *b_eff_d = batch.bat_eff_discharge_.data();
    const double *b_min = batch.bat_min_content_.data();
    double *b_content = batch.bat_content_.data();
    double *b_charged = batch.bat_charged_.data();
    double *b_discharged = batch.bat_discharged_.data();
    double *backlog_total = batch.backlog_total_.data();
    SimulationScratch *backlogs = batch.backlog_.data();
    double *acc_load = batch.acc_load_.data();
    double *acc_served = batch.acc_served_.data();
    double *acc_grid = batch.acc_grid_.data();
    double *acc_ren_used = batch.acc_ren_used_.data();
    double *acc_ren_excess = batch.acc_ren_excess_.data();
    double *acc_deferred = batch.acc_deferred_.data();
    double *acc_max_backlog = batch.acc_max_backlog_.data();
    double *acc_violation = batch.acc_violation_.data();
    double *acc_grid_charge = batch.acc_grid_charge_.data();
    double *acc_peak = batch.acc_peak_.data();
    double *acc_carbon = batch.acc_carbon_.data();

    if (recorder != nullptr)
        recorder->begin(dc_power_.year(), n, inten != nullptr);
    // Previous-hour snapshots of the two monotone accumulators, used
    // to derive per-hour deltas for the recording.
    double prev_deferred = 0.0;
    double prev_violation = 0.0;

    const double dt = 1.0; // Hourly steps.
    uint64_t charge_calls = 0;
    uint64_t discharge_calls = 0;

    // The C/L/C battery step on lane state (battery/chemistry.h).
    // Charging accepts the offer up to the rate cap (C-rate x
    // capacity, pre-derived in addLane) and the headroom cap
    // (headroom / (eta_c * dt)); content grows by accepted * dt *
    // eta_c, clamped at capacity.
    const auto chargeLane = [&](size_t l, double offered) {
        ++charge_calls;
        if (b_cap[l] <= 0.0 || offered <= 0.0)
            return 0.0;
        const double headroom = std::max(b_cap[l] - b_content[l], 0.0);
        const double headroom_cap = headroom / (b_eff_c[l] * dt);
        const double accepted =
            std::min(std::min(offered, b_rate_c[l]), headroom_cap);
        b_content[l] += accepted * dt * b_eff_c[l];
        b_content[l] = std::min(b_content[l], b_cap[l]);
        b_charged[l] += accepted * dt;
        return accepted;
    };

    // Discharging delivers the request up to the rate cap and what
    // lies above the DoD floor ((1 - DoD) x capacity, pre-derived)
    // after losses; content shrinks by delivered * dt / eta_d,
    // clamped at the floor.
    const auto dischargeLane = [&](size_t l, double requested) {
        ++discharge_calls;
        if (b_cap[l] <= 0.0 || requested <= 0.0)
            return 0.0;
        const double available = std::max(b_content[l] - b_min[l], 0.0);
        const double content_cap = available * b_eff_d[l] / dt;
        const double delivered =
            std::min(std::min(requested, b_rate_d[l]), content_cap);
        b_content[l] -= delivered * dt / b_eff_d[l];
        b_content[l] = std::max(b_content[l], b_min[l]);
        b_discharged[l] += delivered * dt;
        return delivered;
    };

    if (plain) {
        runPlain(batch);
        c_plain.increment();
    } else {
        CARBONX_PROFILE("sim/batch_step");
        for (size_t h = 0; h < n; ++h) {
            const double load = dc[h];
            const double sh = sshape[h];
            const double wh = wshape[h];

            // Stage 1, the vector kernel: per-lane supply (the exact
            // CoverageAnalyzer::supplyFor expression) and load split.
            // Branch-free and lane-independent — the CI vectorization
            // smoke check requires this loop to stay vectorized. The
            // ivdep pragma is load-bearing: the six arrays are
            // distinct SimulationBatch members so they cannot alias,
            // but GCC loses the restrict tags on locals here and
            // would need more runtime alias checks than its limit
            // (vect-max-version-for-alias-checks) allows.
#pragma GCC ivdep
            for (size_t l = 0; l < m; ++l) {
                ren[l] = sh * solar[l] + wh * wind[l];
                fixedv[l] = load * (1.0 - fwr[l]);
                flexv[l] = load * fwr[l];
            }

            const double inten_h = inten != nullptr ? inten[h] : 0.0;

            // Stage 2: the scheduling/battery step, lane by lane.
            for (size_t l = 0; l < m; ++l) {
                SimulationScratch &backlog = backlogs[l];
                const double cap = capv[l];
                const double flex = flexv[l];
                const double lane_ren = ren[l];

                // Deadline-forced backlog must run now.
                double forced = 0.0;
                while (!backlog.empty() &&
                       backlog.front().deadline_hour <= h) {
                    forced += backlog.front().mwh.value();
                    backlog_total[l] -= backlog.front().mwh.value();
                    backlog.popFront();
                }

                // Mandatory work: inflexible load plus deadline-forced
                // backlog, truncated at the physical capacity cap.
                // Truncated deadline work is an SLO violation; it
                // still runs, one cap-sized slice per hour, until
                // drained.
                double mandatory = fixedv[l] + forced;
                if (mandatory > cap) {
                    const double overflow = mandatory - cap;
                    acc_violation[l] += overflow * dt;
                    backlog.pushFront({h + 1, MegaWattHours(overflow)});
                    backlog_total[l] += overflow;
                    mandatory = cap;
                }

                double served = mandatory;
                double battery_out = 0.0;
                double battery_in = 0.0;

                if (lane_ren >= served) {
                    // Surplus relative to mandatory work. Run
                    // everything available — current flexible work
                    // first, then backlog — on renewable power within
                    // the capacity cap, and charge the battery with
                    // what remains (section 5.2).
                    double surplus = lane_ren - served;

                    const double flex_green =
                        std::min({flex, surplus, cap - served});
                    served += flex_green;
                    surplus -= flex_green;

                    // Flexible work that surplus could not cover
                    // competes for the battery like any other deficit.
                    const double flex_rest = flex - flex_green;

                    // Drain backlog, oldest first, on leftover surplus.
                    while (surplus > kNegligibleDispatch &&
                           served < cap && !backlog.empty()) {
                        auto &entry = backlog.front();
                        const double runnable = std::min(
                            {entry.mwh.value() / dt, surplus,
                             cap - served});
                        if (runnable <= kNegligibleDispatch)
                            break;
                        entry.mwh -= MegaWattHours(runnable * dt);
                        backlog_total[l] -= runnable * dt;
                        served += runnable;
                        surplus -= runnable;
                        if (entry.mwh.value() <= kNegligibleDispatch)
                            backlog.popFront();
                    }

                    if (flex_rest > 0.0) {
                        // No surplus left for this flexible remainder:
                        // battery first, defer only what storage
                        // cannot cover. Work that does not fit under
                        // the capacity cap must defer regardless.
                        const double fits =
                            std::min(flex_rest, cap - served);
                        double deficit = fits;
                        if (has_b[l] != 0 && deficit > 0.0) {
                            battery_out = dischargeLane(l, deficit);
                            deficit -= battery_out;
                        }
                        const double defer =
                            (flex_rest - fits) + deficit;
                        if (defer > 0.0) {
                            backlog.pushBack(
                                {h + windowv[l],
                                 MegaWattHours(defer * dt)});
                            backlog_total[l] += defer * dt;
                            acc_deferred[l] += defer * dt;
                        }
                        served += flex_rest - defer;
                    }

                    if (has_b[l] != 0 && surplus > kNegligibleDispatch)
                        battery_in = chargeLane(l, surplus);
                } else {
                    // Deficit: renewables cannot even cover mandatory
                    // work. Battery first, then defer flexible work,
                    // then the grid. Flexible work beyond the capacity
                    // cap must defer.
                    const double flex_fits =
                        std::min(flex, cap - served);
                    double deficit = served + flex_fits - lane_ren;
                    if (has_b[l] != 0) {
                        battery_out = dischargeLane(l, deficit);
                        deficit -= battery_out;
                    }
                    const double defer = (flex - flex_fits) +
                        (fwr[l] > 0.0 ? std::min(flex_fits, deficit)
                                      : 0.0);
                    if (defer > 0.0) {
                        backlog.pushBack(
                            {h + windowv[l],
                             MegaWattHours(defer * dt)});
                        backlog_total[l] += defer * dt;
                        acc_deferred[l] += defer * dt;
                    }
                    served += flex - defer;
                }

                // Carbon-arbitrage extension: top the battery up from
                // the grid whenever the grid is clean enough. This
                // energy counts as grid draw (it is not carbon-free),
                // so it trades coverage for lower operational carbon.
                double grid_charge = 0.0;
                if (grid_ch[l] != 0 && has_b[l] != 0 &&
                    inten_h <= grid_thr[l]) {
                    grid_charge = chargeLane(
                        l, std::numeric_limits<double>::max());
                    battery_in += grid_charge;
                    acc_grid_charge[l] += grid_charge * dt;
                }

                const double green_used = std::min(
                    lane_ren, served + (battery_in - grid_charge));
                const double grid =
                    std::max(served - lane_ren - battery_out, 0.0) +
                    grid_charge;

                acc_load[l] += load * dt;
                acc_served[l] += served * dt;
                acc_grid[l] += grid * dt;
                acc_ren_used[l] += green_used * dt;
                acc_ren_excess[l] +=
                    std::max(lane_ren - green_used, 0.0) * dt;
                acc_max_backlog[l] =
                    std::max(acc_max_backlog[l], backlog_total[l]);
                acc_peak[l] = std::max(acc_peak[l], served);
                // Same expression, same hour order as gridEmissions()
                // sums an hourly grid series (g/kWh == kg/MWh), so the
                // lane's operational carbon reconciles exactly.
                acc_carbon[l] += grid * inten_h;

                if (recorder != nullptr) {
                    obs::HourlyRecord row;
                    row.load_mw = load;
                    row.served_mw = served;
                    row.renewable_mw = lane_ren;
                    row.renewable_used_mw = green_used;
                    row.grid_mw = grid;
                    row.battery_charge_mw = battery_in;
                    row.battery_discharge_mw = battery_out;
                    row.battery_energy_mwh = b_content[l];
                    row.curtailed_mw =
                        std::max(lane_ren - green_used, 0.0);
                    row.shifted_mwh = acc_deferred[l] - prev_deferred;
                    row.backlog_mwh = backlog_total[l];
                    row.slo_violation_mwh =
                        acc_violation[l] - prev_violation;
                    row.grid_charge_mwh = grid_charge * dt;
                    // The lane's own carbon operand, so the recorded
                    // column reconciles exactly with operational_kg.
                    row.carbon_kg = grid * inten_h;
                    recorder->record(h, row);
                    prev_deferred = acc_deferred[l];
                    prev_violation = acc_violation[l];
                }
            }
        }
    }

    {
        CARBONX_PROFILE("sim/batch_drain");
        const double *b_usable = batch.bat_usable_.data();
        for (size_t l = 0; l < m; ++l) {
            BatchLaneResult &r = batch.results_[l];
            r.load_energy_mwh = MegaWattHours(acc_load[l]);
            r.served_energy_mwh = MegaWattHours(acc_served[l]);
            r.grid_energy_mwh = MegaWattHours(acc_grid[l]);
            r.renewable_used_mwh = MegaWattHours(acc_ren_used[l]);
            r.renewable_excess_mwh = MegaWattHours(acc_ren_excess[l]);
            r.deferred_mwh = MegaWattHours(acc_deferred[l]);
            r.max_backlog_mwh = MegaWattHours(acc_max_backlog[l]);
            r.residual_backlog_mwh = MegaWattHours(backlog_total[l]);
            r.slo_violation_mwh = MegaWattHours(acc_violation[l]);
            r.peak_power_mw = MegaWatts(acc_peak[l]);
            r.battery_cycles = b_usable[l] > 0.0
                ? b_discharged[l] / b_usable[l]
                : 0.0;
            r.grid_charge_mwh = MegaWattHours(acc_grid_charge[l]);
            // Clamped at zero: with grid charging, battery round-trip
            // losses can push grid draw past demand, and a negative
            // "renewable coverage" is meaningless. Without grid
            // charging grid draw never exceeds load and the clamp is
            // inert.
            r.coverage_pct = acc_load[l] > 0.0
                ? std::max(0.0,
                           (1.0 - acc_grid[l] / acc_load[l]) * 100.0)
                : 100.0;
            r.operational_kg = KilogramsCo2(acc_carbon[l]);
        }
    }

    c_batches.increment();
    c_lanes.increment(m);
    c_hours.increment(m * n);
    if (charge_calls > 0 || discharge_calls > 0) {
        c_charge.increment(charge_calls);
        c_discharge.increment(discharge_calls);
        double charged = 0.0;
        double discharged = 0.0;
        for (size_t l = 0; l < m; ++l) {
            charged += b_charged[l];
            discharged += b_discharged[l];
        }
        g_charged.add(charged);
        g_discharged.add(discharged);
    }
}

} // namespace carbonx

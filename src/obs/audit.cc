#include "audit.h"

#include <cmath>
#include <cstdint>
#include <ostream>
#include <sstream>

#include "common/tolerances.h"

namespace carbonx::obs
{

namespace
{

/** Tag for whole-year checks in InvariantViolation::hour. */
constexpr size_t kYearTotal = SIZE_MAX;

/** Count one check; true when it failed and must be reported. */
inline bool
failed(AuditReport &report, bool ok)
{
    ++report.checks;
    return !ok;
}

/**
 * Failure path of every check: build the message and record the
 * violation. Each '%' in @p text is replaced by the next of @p a, @p b,
 * @p c, printed at precision 6. Kept out of line and cold so that a
 * passing check costs one comparison: the audit loop branches first
 * and never builds a string itself.
 */
[[gnu::cold, gnu::noinline]] void
violate(AuditReport &report, size_t hour, const char *invariant,
        double excess, const char *text, double a = 0.0, double b = 0.0,
        double c = 0.0)
{
    const double values[] = {a, b, c};
    size_t next = 0;
    std::ostringstream os;
    os.precision(6);
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p == '%')
            os << values[next++];
        else
            os << *p;
    }
    report.violations.push_back(
        InvariantViolation{hour, invariant, os.str(), excess});
}

} // namespace

std::string
InvariantViolation::format() const
{
    std::ostringstream os;
    if (hour == kYearTotal)
        os << "year-total";
    else
        os << "hour " << hour;
    os << ": [" << invariant << "] " << message;
    return os.str();
}

void
AuditReport::write(std::ostream &os) const
{
    for (const InvariantViolation &v : violations)
        os << v.format() << '\n';
    os << "audit: " << violations.size() << " violation"
       << (violations.size() == 1 ? "" : "s") << " across " << checks
       << " checks over " << hours << " hours\n";
}

AuditReport
auditRecording(const FlightRecorder &recording,
               const AuditContext &context)
{
    AuditReport report;
    const size_t n = recording.hours();
    report.hours = n;

    double prev_backlog = 0.0;
    double carbon_sum = 0.0;
    // carbonx-hot: a passing check is a comparison and a count.
    for (size_t h = 0; h < n; ++h) {
        const HourlyRecord r = recording.row(h);

        // Source-side energy balance: what the hour consumed (served
        // load plus battery charging) must equal what supplied it
        // (renewables used, grid draw, battery discharge).
        const double supplied =
            r.renewable_used_mw + r.grid_mw + r.battery_discharge_mw;
        const double consumed = r.served_mw + r.battery_charge_mw;
        const double imbalance = std::fabs(supplied - consumed);
        if (failed(report, imbalance <= kAuditEnergyBalanceSlackMw))
            violate(report, h, "energy-balance",
                    imbalance - kAuditEnergyBalanceSlackMw,
                    "supplied % MW != consumed % MW", supplied, consumed);

        // Storage bounds: stored energy within [0, capacity].
        if (failed(report, r.battery_energy_mwh >= -kAuditEnergySlackMwh))
            violate(report, h, "soc-bounds", -r.battery_energy_mwh,
                    "battery content % MWh below zero",
                    r.battery_energy_mwh);
        if (failed(report, r.battery_energy_mwh <=
                               context.battery_capacity_mwh +
                                   kAuditEnergySlackMwh))
            violate(report, h, "soc-bounds",
                    r.battery_energy_mwh - context.battery_capacity_mwh,
                    "battery content % MWh exceeds capacity % MWh",
                    r.battery_energy_mwh, context.battery_capacity_mwh);

        // Physical capacity cap on served power.
        if (failed(report, r.served_mw <= context.capacity_cap_mw +
                                              kCapacityCapSlackMw))
            violate(report, h, "capacity-cap",
                    r.served_mw - context.capacity_cap_mw,
                    "served % MW exceeds cap % MW", r.served_mw,
                    context.capacity_cap_mw);

        // Curtailment accounting: what was not used was curtailed.
        const double curtail_gap = std::fabs(
            r.curtailed_mw - (r.renewable_mw - r.renewable_used_mw));
        if (failed(report,
                   curtail_gap <= kAuditEnergyBalanceSlackMw &&
                       r.curtailed_mw >= -kAuditEnergyBalanceSlackMw))
            violate(report, h, "curtailment",
                    curtail_gap - kAuditEnergyBalanceSlackMw,
                    "curtailed % MW != renewable % - used %",
                    r.curtailed_mw, r.renewable_mw, r.renewable_used_mw);

        // Backlog conservation: the deferred-work queue can only grow
        // by what was shifted in this hour and can only shrink by
        // work actually served; it can never go negative. Drained
        // work is implicit (backlog decrease), so the two-sided check
        // is: -served-capacity <= delta - shifted <= 0 is too strong
        // (drain is bounded by the backlog itself); the conservation
        // law is delta <= shifted (nothing appears from nowhere) and
        // backlog >= 0.
        const double delta = r.backlog_mwh - prev_backlog;
        const double shifted_in = r.shifted_mwh + r.slo_violation_mwh;
        if (failed(report, r.backlog_mwh >= -kAuditEnergySlackMwh))
            violate(report, h, "backlog-conservation", -r.backlog_mwh,
                    "backlog % MWh negative", r.backlog_mwh);
        if (failed(report, delta <= shifted_in + kAuditEnergySlackMwh))
            violate(report, h, "backlog-conservation",
                    delta - r.shifted_mwh - r.slo_violation_mwh,
                    "backlog grew % MWh but only % MWh was shifted in",
                    delta, shifted_in);
        prev_backlog = r.backlog_mwh;

        // Column sanity: flows are non-negative by construction.
        const bool nonneg =
            r.load_mw >= 0.0 && r.served_mw >= 0.0 &&
            r.renewable_mw >= 0.0 && r.renewable_used_mw >= 0.0 &&
            r.grid_mw >= 0.0 && r.battery_charge_mw >= 0.0 &&
            r.battery_discharge_mw >= 0.0 && r.shifted_mwh >= 0.0 &&
            r.slo_violation_mwh >= 0.0 && r.grid_charge_mwh >= 0.0;
        if (failed(report, nonneg))
            violate(report, h, "non-negative-flows", 0.0,
                    "a flow column is negative");

        carbon_sum += r.carbon_kg;
    }
    report.recorded_carbon_kg = carbon_sum;

    // Year totals. Residual backlog must match what the engine
    // reported, closing the shifted-work ledger.
    if (n > 0) {
        const double residual_gap =
            std::fabs(prev_backlog - context.residual_backlog_mwh);
        if (failed(report, residual_gap <= kAuditEnergySlackMwh))
            violate(report, kYearTotal, "backlog-conservation",
                    residual_gap - kAuditEnergySlackMwh,
                    "recorded year-end backlog % MWh != reported "
                    "residual % MWh",
                    prev_backlog, context.residual_backlog_mwh);
    }

    // Carbon reconciliation: every kilogram in the reported total
    // must be attributable to a specific hour of the recording.
    if (recording.hasCarbon()) {
        const double carbon_gap =
            std::fabs(carbon_sum - context.reported_operational_kg);
        if (failed(report, carbon_gap <= kAuditCarbonSlackKg))
            violate(report, kYearTotal, "carbon-reconciliation",
                    carbon_gap - kAuditCarbonSlackKg,
                    "cumulative hourly carbon % kg != reported "
                    "operational total % kg",
                    carbon_sum, context.reported_operational_kg);
    }

    return report;
}

} // namespace carbonx::obs

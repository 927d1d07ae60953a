/**
 * @file
 * Named numeric slacks shared across the framework.
 *
 * Feasibility checks on floating-point aggregates (a load peak vs a
 * capacity cap, a state of charge vs the DoD window) need a small
 * tolerance to absorb rounding in the upstream arithmetic. Every such
 * tolerance lives here under one name so the magnitude is chosen once,
 * the intent is documented once, and carbonx-lint can ban stray
 * tolerance literals everywhere else.
 */

#ifndef CARBONX_COMMON_TOLERANCES_H
#define CARBONX_COMMON_TOLERANCES_H

namespace carbonx
{

/**
 * Slack (in MW) when checking that a load peak fits under a capacity
 * cap. Caps are typically derived from the very peak being checked
 * (peak x headroom factors), so the comparison must tolerate one ULP
 * of drift from that multiply.
 */
inline constexpr double kCapacityCapSlackMw = 1e-9;

/**
 * Slack for [0, 1]-bounded quantities (states of charge, per-unit
 * generation shapes) and other normalized comparisons that arrive
 * through floating-point division.
 */
inline constexpr double kUnitIntervalSlack = 1e-9;

/**
 * Dispatch quantum of the co-simulation kernel: a leftover surplus
 * (MW), a backlog slice that could run this hour (MW), or a backlog
 * entry (MWh over the one-hour step) at or below this is treated as
 * zero. The surplus and backlog arithmetic subtracts megawatt-scale
 * operands, so exact zeros come back as ULP-sized residues (~1e-14 at
 * 100 MW); without a cut-off the drain loop would chase those crumbs
 * slice by slice and the battery would be offered vanishing surpluses.
 * 1e-12 MW (a microwatt) sits well above that residue and far below
 * any physical flow.
 */
inline constexpr double kNegligibleDispatch = 1e-12;

/**
 * Slack (in years) when comparing asset-replacement schedules against
 * year boundaries in the horizon planner.
 */
inline constexpr double kScheduleSlackYears = 1e-9;

/**
 * Slack (in MW) for the flight-recorder audit's hourly energy-balance
 * and curtailment checks. The engine derives each hour's flows from a
 * handful of adds and min/max clamps, so the residual is a few ULPs of
 * the megawatt-scale operands; 1e-6 MW (one watt) absorbs that while
 * still catching any real accounting bug.
 */
inline constexpr double kAuditEnergyBalanceSlackMw = 1e-6;

/**
 * Slack (in MWh) for the audit's stored-energy bounds and
 * backlog-conservation checks, where values accumulate over up to a
 * year of hourly adds and subtracts.
 */
inline constexpr double kAuditEnergySlackMwh = 1e-6;

/**
 * Slack (in kg CO2) for the audit's carbon reconciliation. The
 * recorder stores the engine's own per-hour product, so the in-order
 * sum is bit-identical to the reported total and the gap should be
 * exactly zero; the slack exists only to keep the check's shape
 * uniform with the others.
 */
inline constexpr double kAuditCarbonSlackKg = 1e-9;

} // namespace carbonx

#endif // CARBONX_COMMON_TOLERANCES_H

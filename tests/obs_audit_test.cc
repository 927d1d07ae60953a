/**
 * @file
 * Invariant auditor tests: a real explain() recording must audit
 * clean under every strategy with exact carbon reconciliation, and a
 * deliberately corrupted recording must trip exactly the invariant
 * that guards the tampered column. Tampering happens here (tests are
 * outside the carbonx-lint recorder-field-write fence by design — the
 * rule protects src/ and tools/ consumers, not the auditor's own
 * adversarial fixtures). A counting operator new proves the audit
 * of a clean recording allocation free.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/tolerances.h"
#include "core/explorer.h"
#include "obs/audit.h"

#include "counting_new.h"

namespace carbonx
{
namespace
{

ExplorerConfig
utahConfig()
{
    ExplorerConfig cfg;
    cfg.ba_code = "PACE";
    cfg.avg_dc_power_mw = MegaWatts(19.0);
    cfg.flexible_ratio = Fraction(0.4);
    return cfg;
}

const CarbonExplorer &
utahExplorer()
{
    static const CarbonExplorer explorer(utahConfig());
    return explorer;
}

/** One explained run reused by every tampering test. */
const ExplainResult &
holisticExplain()
{
    static const ExplainResult result = utahExplorer().explain(
        DesignPoint{MegaWatts(80.0), MegaWatts(80.0),
                    MegaWattHours(150.0), Fraction(0.0)},
        Strategy::RenewableBatteryCas);
    return result;
}

size_t
countInvariant(const obs::AuditReport &report, const std::string &name)
{
    return static_cast<size_t>(std::count_if(
        report.violations.begin(), report.violations.end(),
        [&](const obs::InvariantViolation &v) {
            return v.invariant == name;
        }));
}

TEST(InvariantAuditor, RealRunAuditsCleanUnderEveryStrategy)
{
    const CarbonExplorer &ex = utahExplorer();
    const DesignPoint point{MegaWatts(80.0), MegaWatts(80.0),
                            MegaWattHours(150.0), Fraction(0.5)};
    for (const Strategy strategy :
         {Strategy::RenewablesOnly, Strategy::RenewableBattery,
          Strategy::RenewableCas, Strategy::RenewableBatteryCas}) {
        SCOPED_TRACE(strategyName(strategy));
        const ExplainResult res = ex.explain(point, strategy);
        const obs::AuditReport report =
            obs::auditRecording(res.recording, res.auditContext());
        EXPECT_TRUE(report.clean()) << [&] {
            std::ostringstream os;
            report.write(os);
            return os.str();
        }();
        EXPECT_EQ(report.hours, res.recording.hours());
        EXPECT_GT(report.checks, report.hours * 7);
        // Exact reconciliation, not approximate: zero float gap.
        EXPECT_EQ(report.recorded_carbon_kg,
                  res.evaluation.operational_kg.value());
    }
}

TEST(InvariantAuditor, EnergyBalanceTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.grid_mw[10] += 5.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    EXPECT_FALSE(report.clean());
    EXPECT_GE(countInvariant(report, "energy-balance"), 1u);
    const auto hit = std::find_if(
        report.violations.begin(), report.violations.end(),
        [](const obs::InvariantViolation &v) {
            return v.invariant == "energy-balance";
        });
    ASSERT_NE(hit, report.violations.end());
    EXPECT_EQ(hit->hour, 10u);
    EXPECT_GT(hit->excess, 4.0);
    EXPECT_NE(hit->format().find("hour 10"), std::string::npos);
    EXPECT_NE(hit->format().find("[energy-balance]"),
              std::string::npos);
}

TEST(InvariantAuditor, SocBoundsTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.battery_energy_mwh[3] = -1.0;
    rec.battery_energy_mwh[4] =
        base.battery_capacity_mwh.value() + 2.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    EXPECT_EQ(countInvariant(report, "soc-bounds"), 2u);
}

TEST(InvariantAuditor, CapacityCapTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.served_mw[7] = base.capacity_cap_mw.value() + 1.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    EXPECT_GE(countInvariant(report, "capacity-cap"), 1u);
}

TEST(InvariantAuditor, CurtailmentTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.curtailed_mw[12] += 3.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    EXPECT_GE(countInvariant(report, "curtailment"), 1u);
}

TEST(InvariantAuditor, BacklogTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();

    // A backlog jump with nothing shifted in: work from nowhere.
    obs::FlightRecorder grown = base.recording;
    grown.backlog_mwh[20] += 100.0;
    const obs::AuditReport grown_report =
        obs::auditRecording(grown, base.auditContext());
    EXPECT_GE(countInvariant(grown_report, "backlog-conservation"), 1u);

    // A negative backlog: more work drained than ever existed.
    obs::FlightRecorder negative = base.recording;
    negative.backlog_mwh[20] = -0.5;
    const obs::AuditReport negative_report =
        obs::auditRecording(negative, base.auditContext());
    EXPECT_GE(countInvariant(negative_report, "backlog-conservation"),
              1u);

    // A tampered final hour: ledger no longer closes at the reported
    // residual (year-total check, reported at hour == SIZE_MAX).
    obs::FlightRecorder tail = base.recording;
    tail.backlog_mwh.back() += 1.0;
    const obs::AuditReport tail_report =
        obs::auditRecording(tail, base.auditContext());
    EXPECT_GE(countInvariant(tail_report, "backlog-conservation"), 1u);
    const auto year_total = std::find_if(
        tail_report.violations.begin(), tail_report.violations.end(),
        [](const obs::InvariantViolation &v) {
            return v.hour == SIZE_MAX;
        });
    ASSERT_NE(year_total, tail_report.violations.end());
    EXPECT_NE(year_total->format().find("year-total"),
              std::string::npos);
}

TEST(InvariantAuditor, NegativeFlowTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.battery_charge_mw[5] = -1.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    EXPECT_GE(countInvariant(report, "non-negative-flows"), 1u);
}

TEST(InvariantAuditor, CarbonTampersAreCaught)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.carbon_kg[100] += 1.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    EXPECT_GE(countInvariant(report, "carbon-reconciliation"), 1u);
}

TEST(InvariantAuditor, CarbonCheckSkippedWithoutIntensity)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec;
    rec.begin(base.recording.year(), 1, false);
    obs::HourlyRecord row;
    row.carbon_kg = 12345.0; // Wrong on purpose; must not be checked.
    rec.record(0, row);
    obs::AuditContext ctx;
    ctx.reported_operational_kg = 0.0;
    const obs::AuditReport report = obs::auditRecording(rec, ctx);
    EXPECT_EQ(countInvariant(report, "carbon-reconciliation"), 0u);
}

/**
 * One check site, tampered: the recording edit that trips it, the
 * exact text of every violation the audit then reports (in order),
 * and the excess the tripped check must report, recomputed here from
 * the tampered columns with the auditor's own formula.
 */
struct PinnedViolation
{
    const char *site;
    std::function<void(obs::FlightRecorder &)> tamper;
    std::vector<std::string> texts;
    /** Index into texts of the violation this site reports. */
    size_t index;
    std::function<double(const obs::FlightRecorder &,
                         const obs::AuditContext &)>
        excess;
};

std::vector<PinnedViolation>
pinnedViolations()
{
    using obs::AuditContext;
    using obs::FlightRecorder;
    return {
        {"energy-balance",
         [](FlightRecorder &r) { r.grid_mw[10] += 5.0; },
         {"hour 10: [energy-balance] "
          "supplied 39.1178 MW != consumed 34.1178 MW"},
         0,
         [](const FlightRecorder &r, const AuditContext &) {
             const size_t h = 10;
             return std::fabs(r.renewable_used_mw[h] + r.grid_mw[h] +
                              r.battery_discharge_mw[h] -
                              (r.served_mw[h] +
                               r.battery_charge_mw[h])) -
                    kAuditEnergyBalanceSlackMw;
         }},
        {"soc-bounds below zero",
         [](FlightRecorder &r) { r.battery_energy_mwh[3] = -1.0; },
         {"hour 3: [soc-bounds] battery content -1 MWh below zero"},
         0,
         [](const FlightRecorder &r, const AuditContext &) {
             return -r.battery_energy_mwh[3];
         }},
        {"soc-bounds above capacity",
         [](FlightRecorder &r) { r.battery_energy_mwh[4] = 152.0; },
         {"hour 4: [soc-bounds] "
          "battery content 152 MWh exceeds capacity 150 MWh"},
         0,
         [](const FlightRecorder &r, const AuditContext &c) {
             return r.battery_energy_mwh[4] - c.battery_capacity_mwh;
         }},
        {"capacity-cap",
         [](FlightRecorder &r) {
             // Move the grid with the served power so only the cap
             // check trips, not the energy balance.
             const double bump = 1000.0;
             r.served_mw[7] += bump;
             r.grid_mw[7] += bump;
         },
         {"hour 7: [capacity-cap] "
          "served 1018.51 MW exceeds cap 19.6082 MW"},
         0,
         [](const FlightRecorder &r, const AuditContext &c) {
             return r.served_mw[7] - c.capacity_cap_mw;
         }},
        {"curtailment",
         [](FlightRecorder &r) { r.curtailed_mw[12] += 3.0; },
         {"hour 12: [curtailment] "
          "curtailed 3 MW != renewable 29.0816 - used 29.0816"},
         0,
         [](const FlightRecorder &r, const AuditContext &) {
             const size_t h = 12;
             return std::fabs(r.curtailed_mw[h] -
                              (r.renewable_mw[h] -
                               r.renewable_used_mw[h])) -
                    kAuditEnergyBalanceSlackMw;
         }},
        {"backlog negative",
         [](FlightRecorder &r) { r.backlog_mwh[20] = -0.5; },
         {"hour 20: [backlog-conservation] backlog -0.5 MWh negative",
          "hour 21: [backlog-conservation] "
          "backlog grew 0.5 MWh but only 0 MWh was shifted in"},
         0,
         [](const FlightRecorder &r, const AuditContext &) {
             return -r.backlog_mwh[20];
         }},
        {"backlog grew",
         [](FlightRecorder &r) { r.backlog_mwh[20] += 100.0; },
         {"hour 20: [backlog-conservation] "
          "backlog grew 100 MWh but only 0 MWh was shifted in"},
         0,
         [](const FlightRecorder &r, const AuditContext &) {
             const size_t h = 20;
             const double delta = r.backlog_mwh[h] - r.backlog_mwh[h - 1];
             return delta - r.shifted_mwh[h] - r.slo_violation_mwh[h];
         }},
        {"non-negative-flows",
         [](FlightRecorder &r) { r.load_mw[5] = -1.0; },
         {"hour 5: [non-negative-flows] a flow column is negative"},
         0,
         [](const FlightRecorder &, const AuditContext &) {
             return 0.0;
         }},
        {"year-end residual backlog",
         [](FlightRecorder &r) { r.backlog_mwh.back() += 1.0; },
         {"hour 8783: [backlog-conservation] "
          "backlog grew 1 MWh but only 0 MWh was shifted in",
          "year-total: [backlog-conservation] "
          "recorded year-end backlog 1 MWh"
          " != reported residual -5.06262e-14 MWh"},
         1,
         [](const FlightRecorder &r, const AuditContext &c) {
             return std::fabs(r.backlog_mwh.back() -
                              c.residual_backlog_mwh) -
                    kAuditEnergySlackMwh;
         }},
        {"carbon-reconciliation",
         [](FlightRecorder &r) { r.carbon_kg[100] += 1.0; },
         {"year-total: [carbon-reconciliation] "
          "cumulative hourly carbon 1.61612e+06 kg"
          " != reported operational total 1.61612e+06 kg"},
         0,
         [](const FlightRecorder &r, const AuditContext &c) {
             double sum = 0.0;
             for (const double kg : r.carbon_kg)
                 sum += kg;
             return std::fabs(sum - c.reported_operational_kg) -
                    kAuditCarbonSlackKg;
         }},
    };
}

TEST(InvariantAuditor, ViolationTextAndExcessArePinnedAtEveryCheckSite)
{
    const ExplainResult &base = holisticExplain();
    const obs::AuditContext context = base.auditContext();
    for (const PinnedViolation &pin : pinnedViolations()) {
        SCOPED_TRACE(pin.site);
        obs::FlightRecorder rec = base.recording;
        pin.tamper(rec);
        const obs::AuditReport report =
            obs::auditRecording(rec, context);
        std::vector<std::string> texts;
        for (const obs::InvariantViolation &v : report.violations)
            texts.push_back(v.format());
        EXPECT_EQ(texts, pin.texts);
        ASSERT_LT(pin.index, report.violations.size());
        EXPECT_EQ(report.violations[pin.index].excess,
                  pin.excess(rec, context));
        EXPECT_EQ(report.checks, 8 * rec.hours() + 2);
    }
}

TEST(InvariantAuditor, CleanRecordingRunsEightChecksPerHourPlusTwo)
{
    const ExplainResult &base = holisticExplain();
    ASSERT_TRUE(base.recording.hasCarbon());
    const obs::AuditReport report =
        obs::auditRecording(base.recording, base.auditContext());
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.hours, base.recording.hours());
    EXPECT_EQ(report.checks, 8 * base.recording.hours() + 2);
}

/** Heap allocations made by one audit of @p recording. */
uint64_t
auditAllocations(const obs::FlightRecorder &recording,
                 const obs::AuditContext &context, size_t &violations)
{
    g_allocation_count.store(0);
    g_count_allocations.store(true);
    const obs::AuditReport report =
        obs::auditRecording(recording, context);
    g_count_allocations.store(false);
    violations = report.violations.size();
    return g_allocation_count.load();
}

TEST(InvariantAuditor, CleanAuditIsAllocationFree)
{
    const ExplainResult &base = holisticExplain();
    const obs::AuditContext context = base.auditContext();
    ASSERT_EQ(base.recording.hours(), 8784u);
    size_t violations = 0;
    EXPECT_EQ(auditAllocations(base.recording, context, violations), 0u)
        << "a passing check must not build its message";
    EXPECT_EQ(violations, 0u);

    // k tampered hours allocate only for their k violations: at most
    // what one violation costs, k times over (the violation vector's
    // geometric growth stays within that).
    obs::FlightRecorder one = base.recording;
    one.grid_mw[10] += 5.0;
    const uint64_t per_violation =
        auditAllocations(one, context, violations);
    ASSERT_EQ(violations, 1u);
    EXPECT_GT(per_violation, 0u);
    for (const size_t k : {4u, 16u, 64u}) {
        SCOPED_TRACE(k);
        obs::FlightRecorder tampered = base.recording;
        for (size_t i = 0; i < k; ++i)
            tampered.grid_mw[10 + 100 * i] += 5.0;
        const uint64_t allocations =
            auditAllocations(tampered, context, violations);
        ASSERT_EQ(violations, k);
        EXPECT_GE(allocations, k);
        EXPECT_LE(allocations, k * per_violation);
    }
}

TEST(InvariantAuditor, ReportWriteSummarizesViolations)
{
    const ExplainResult &base = holisticExplain();
    obs::FlightRecorder rec = base.recording;
    rec.grid_mw[10] += 5.0;
    const obs::AuditReport report =
        obs::auditRecording(rec, base.auditContext());
    std::ostringstream os;
    report.write(os);
    EXPECT_NE(os.str().find("audit: "), std::string::npos);
    EXPECT_NE(os.str().find("violation"), std::string::npos);
    EXPECT_NE(os.str().find("[energy-balance]"), std::string::npos);

    const obs::AuditReport clean = obs::auditRecording(
        base.recording, base.auditContext());
    std::ostringstream clean_os;
    clean.write(clean_os);
    EXPECT_NE(clean_os.str().find("0 violations"), std::string::npos);
}

} // namespace
} // namespace carbonx

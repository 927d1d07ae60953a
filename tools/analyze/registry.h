/**
 * @file
 * The carbonx-analyze rule registry: every rule in one table.
 *
 * Each entry names a rule, tags its default severity, carries a
 * one-line rationale (surfaced by `carbonx_lint --list-rules` and as
 * the SARIF rule shortDescription), and points at its checker. A new
 * rule is one header plus one row here; the driver, the text and
 * SARIF emitters, the baseline filter, and the waiver machinery all
 * pick it up from the table.
 *
 * Severity policy: Error findings gate CI (exit 1 unless baselined);
 * Warning findings are printed but never fail the build — reserved
 * for heuristics whose positives need human judgment (today only the
 * unordered-iteration determinism check).
 */

#ifndef CARBONX_TOOLS_ANALYZE_REGISTRY_H
#define CARBONX_TOOLS_ANALYZE_REGISTRY_H

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/context.h"
#include "analyze/rules_concurrency.h"
#include "analyze/rules_determinism.h"
#include "analyze/rules_hotpath.h"
#include "analyze/rules_layering.h"
#include "analyze/rules_structure.h"
#include "analyze/rules_units.h"

namespace carbonx
{
namespace lint
{

/** One registered rule. */
struct RuleInfo
{
    const char *name;
    Severity severity; ///< Default; a check may emit lower.
    const char *summary;
    void (*check)(const FileContext &, std::vector<Diagnostic> &);
};

/** Every rule, in the order checks run per file. */
inline const std::vector<RuleInfo> &
ruleTable()
{
    static const std::vector<RuleInfo> table = {
        {kRuleRawUnitDouble, Severity::Error,
         "raw double declarations that smuggle a unit in their "
         "identifier suffix; use the strong types in common/units.h",
         &rules::checkRawUnitDouble},
        {kRuleSuffixMismatch, Severity::Error,
         "assignments between identifiers whose unit suffixes "
         "disagree (mw vs mwh vs gkwh vs kgco2)",
         &rules::checkSuffixMismatch},
        {kRuleMagicConversion, Severity::Error,
         "bare 24 / 1000 / 1e3 unit-conversion factors outside "
         "units.h and the calendar",
         &rules::checkMagicConversion},
        {kRuleHeaderGuard, Severity::Error,
         "headers must open with the repo's CARBONX_*_H "
         "#ifndef/#define include-guard pair",
         &rules::checkHeaderGuard},
        {kRuleRecorderWrite, Severity::Error,
         "HourlyRecord flight-recording fields are written only by "
         "src/scheduler and src/obs; consumers read",
         &rules::checkRecorderWrite},
        {kRuleProfilePhase, Severity::Error,
         "CARBONX_PROFILE phase names must be single same-line string "
         "literals, non-empty and unique",
         &rules::checkProfilePhase},
        {kRuleHotPathAlloc, Severity::Error,
         "no new / std::string construction / un-reserved growth "
         "inside carbonx-hot or batch/sim-profiled hot regions",
         &rules::checkHotPathAlloc},
        {kRuleDeterminism, Severity::Error,
         "no rand/random_device/wall-clock reads outside common/rng "
         "and obs; unordered iteration is flagged as a warning",
         &rules::checkDeterminism},
        {kRuleConcurrency, Severity::Error,
         "no naked mutex .lock(), no detached threads, no default "
         "seq_cst atomics where relaxed is the convention",
         &rules::checkConcurrency},
        {kRuleLayering, Severity::Error,
         "quoted #includes must follow the src/ layer DAG (common "
         "at the bottom, core at the top)",
         &rules::checkLayering},
    };
    return table;
}

/** Look up a rule row by name; nullptr when unknown. */
inline const RuleInfo *
findRule(const std::string &name)
{
    for (const RuleInfo &rule : ruleTable())
        if (name == rule.name)
            return &rule;
    return nullptr;
}

/**
 * Lint one translation unit: build the shared context once, run
 * every registered rule, and return the findings sorted by line
 * (stable within a line in registration order).
 *
 * @param path   Path reported in diagnostics and used by classify().
 * @param source Full file contents.
 * @param kind   Policy, normally classify(path).
 */
inline std::vector<Diagnostic>
lintSource(const std::string &path, const std::string &source,
           const FileKind &kind)
{
    const FileContext ctx = makeContext(path, source, kind);
    std::vector<Diagnostic> diags;
    for (const RuleInfo &rule : ruleTable())
        rule.check(ctx, diags);
    std::stable_sort(diags.begin(), diags.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         return a.line < b.line;
                     });
    return diags;
}

/** Convenience overload: classify from the path. */
inline std::vector<Diagnostic>
lintSource(const std::string &path, const std::string &source)
{
    return lintSource(path, source, classify(path));
}

} // namespace lint
} // namespace carbonx

#endif // CARBONX_TOOLS_ANALYZE_REGISTRY_H

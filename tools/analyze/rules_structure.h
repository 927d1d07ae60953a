/**
 * @file
 * Structural rules ported onto the analyze/lexer.h token stream:
 *
 *   header-guard          headers must open with the repo's
 *                         CARBONX_*_H #ifndef/#define pair;
 *   recorder-field-write  HourlyRecord flight-recording fields are
 *                         written only by src/scheduler + src/obs;
 *   profile-phase         CARBONX_PROFILE phase names must be single
 *                         same-line string literals (the first
 *                         argument, optionally followed by a
 *                         histogram), non-empty, and unique (in-file
 *                         here; tree-wide via crossFilePhaseDuplicates
 *                         in the driver).
 */

#ifndef CARBONX_TOOLS_ANALYZE_RULES_STRUCTURE_H
#define CARBONX_TOOLS_ANALYZE_RULES_STRUCTURE_H

#include <map>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyze/context.h"

namespace carbonx
{
namespace lint
{

/** One CARBONX_PROFILE(...) call site found in a source file. */
struct PhaseUse
{
    /** Literal contents; only meaningful when is_literal is set. */
    std::string name;
    size_t line = 0; ///< 1-based.
    /**
     * True when the first argument is a single same-line string
     * literal, followed by `)` or by `,` and a histogram argument.
     */
    bool is_literal = false;
};

/**
 * Collect every CARBONX_PROFILE call site in @p source. The macro's
 * own #define lives in a preprocessor directive and is never
 * tokenized; comments and strings likewise. Sites waived with
 * `carbonx-lint: allow(profile-phase)` are invisible to both the
 * in-file and the cross-file uniqueness checks. Also used standalone
 * by the carbonx_lint driver to check name uniqueness across files.
 */
inline std::vector<PhaseUse>
collectProfilePhases(const std::string &source)
{
    const lex::TokenStream ts = lex::lexSource(source);
    const auto allows =
        detail::collectSuppressions(detail::splitLines(source));

    std::vector<PhaseUse> uses;
    const std::vector<lex::Token> &toks = ts.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != lex::TokKind::Ident ||
            toks[i].text != "CARBONX_PROFILE")
            continue;
        if (toks[i + 1].kind != lex::TokKind::Punct ||
            toks[i + 1].text != "(")
            continue;
        if (detail::isSuppressed(allows, toks[i].line,
                                 kRuleProfilePhase))
            continue;
        PhaseUse use;
        use.line = toks[i].line;
        if (i + 3 < toks.size() &&
            toks[i + 2].kind == lex::TokKind::String &&
            toks[i + 2].line == use.line &&
            toks[i + 3].kind == lex::TokKind::Punct &&
            (toks[i + 3].text == ")" || toks[i + 3].text == ",")) {
            use.is_literal = true;
            use.name = toks[i + 2].text;
        }
        uses.push_back(use);
    }
    return uses;
}

/**
 * Cross-file phase-name uniqueness for the carbonx_lint driver. Feed
 * one entry per linted file (path + its collectProfilePhases result),
 * in the order the files were scanned. Duplicates *within* one file
 * are the profile-phase per-file rule's job and are not re-reported
 * here; a name reused across files is reported at the later site,
 * pointing at the first.
 */
inline std::vector<Diagnostic>
crossFilePhaseDuplicates(
    const std::vector<std::pair<std::string, std::vector<PhaseUse>>>
        &per_file)
{
    std::vector<Diagnostic> diags;
    // name -> (file, line) of first use
    std::map<std::string, std::pair<std::string, size_t>> first;
    for (const auto &[file, uses] : per_file) {
        for (const PhaseUse &use : uses) {
            if (!use.is_literal || use.name.empty())
                continue;
            const auto [it, inserted] = first.emplace(
                use.name, std::make_pair(file, use.line));
            if (!inserted && it->second.first != file) {
                diags.push_back(Diagnostic{
                    file, use.line, kRuleProfilePhase,
                    "phase name \"" + use.name +
                        "\" already used at " + it->second.first +
                        ":" + std::to_string(it->second.second) +
                        "; CARBONX_PROFILE names must be unique "
                        "across the tree",
                    Severity::Error});
            }
        }
    }
    return diags;
}

namespace rules
{

/** header-guard: CARBONX_*_H #ifndef/#define pair up top. */
inline void
checkHeaderGuard(const FileContext &ctx, std::vector<Diagnostic> &out)
{
    if (!ctx.kind.is_header)
        return;
    static const std::regex ifndef(
        R"(^\s*#\s*ifndef\s+(CARBONX_\w+)\b)");
    static const std::regex define(
        R"(^\s*#\s*define\s+(CARBONX_\w+)\b)");
    bool guarded = false;
    std::string macro;
    for (const std::string &line : ctx.stripped_lines) {
        std::smatch m;
        if (macro.empty()) {
            if (std::regex_search(line, m, ifndef))
                macro = m[1].str();
        } else if (std::regex_search(line, m, define)) {
            guarded = m[1].str() == macro;
            break;
        } else if (line.find_first_not_of(" \t") !=
                   std::string::npos) {
            break; // something between #ifndef and #define
        }
    }
    if (!guarded) {
        ctx.report(out, 1, kRuleHeaderGuard, Severity::Error,
                   "header lacks a CARBONX_*_H include guard "
                   "(#ifndef/#define pair)");
    }
}

/** recorder-field-write: flight-recorder columns assigned outside
 *  the writer layers (scheduler, obs). */
inline void
checkRecorderWrite(const FileContext &ctx,
                   std::vector<Diagnostic> &out)
{
    if (ctx.kind.recorder_writer)
        return;
    static const std::set<std::string> fields = {
        "load_mw",           "served_mw",
        "renewable_mw",      "renewable_used_mw",
        "grid_mw",           "battery_charge_mw",
        "battery_discharge_mw", "battery_energy_mwh",
        "curtailed_mw",      "shifted_mwh",
        "backlog_mwh",       "slo_violation_mwh",
        "grid_charge_mwh",   "carbon_kg"};
    static const std::set<std::string> assigns = {"=", "+=", "-=",
                                                  "*=", "/="};
    const std::vector<lex::Token> &toks = ctx.ts.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != lex::TokKind::Punct ||
            (toks[i].text != "." && toks[i].text != "->"))
            continue;
        const lex::Token &field = toks[i + 1];
        if (field.kind != lex::TokKind::Ident ||
            fields.count(field.text) == 0)
            continue;
        // Skip an optional [index] between the field and the '='.
        size_t j = i + 2;
        if (j < toks.size() && toks[j].kind == lex::TokKind::Punct &&
            toks[j].text == "[") {
            int depth = 1;
            ++j;
            while (j < toks.size() && depth > 0) {
                if (toks[j].kind == lex::TokKind::Punct) {
                    if (toks[j].text == "[")
                        ++depth;
                    else if (toks[j].text == "]")
                        --depth;
                }
                ++j;
            }
        }
        if (j >= toks.size() ||
            toks[j].kind != lex::TokKind::Punct ||
            assigns.count(toks[j].text) == 0)
            continue;
        ctx.report(out, field.line, kRuleRecorderWrite,
                   Severity::Error,
                   "HourlyRecord field '" + field.text +
                       "' written outside src/scheduler + "
                       "src/obs; recordings are read-only to "
                       "consumers");
    }
}

/** profile-phase: literal, non-empty, in-file-unique phase names. */
inline void
checkProfilePhase(const FileContext &ctx,
                  std::vector<Diagnostic> &out)
{
    std::map<std::string, size_t> first_use;
    for (const PhaseUse &use : collectProfilePhases(ctx.source)) {
        if (!use.is_literal) {
            ctx.report(out, use.line, kRuleProfilePhase,
                       Severity::Error,
                       "CARBONX_PROFILE name must be a single string "
                       "literal on the call line, followed by ')' or "
                       "', &histogram'");
            continue;
        }
        if (use.name.empty()) {
            ctx.report(out, use.line, kRuleProfilePhase,
                       Severity::Error,
                       "CARBONX_PROFILE phase name must not be empty");
            continue;
        }
        const auto [it, inserted] =
            first_use.emplace(use.name, use.line);
        if (!inserted) {
            ctx.report(out, use.line, kRuleProfilePhase,
                       Severity::Error,
                       "duplicate phase name \"" + use.name +
                           "\" (first used at line " +
                           std::to_string(it->second) +
                           "); CARBONX_PROFILE names must be unique");
        }
    }
}

} // namespace rules
} // namespace lint
} // namespace carbonx

#endif // CARBONX_TOOLS_ANALYZE_RULES_STRUCTURE_H

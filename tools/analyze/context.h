/**
 * @file
 * Shared analysis context for carbonx-analyze rules.
 *
 * One FileContext is built per linted file: the raw source, its
 * lexed token stream (analyze/lexer.h), the per-line waiver map from
 * `// carbonx-lint: allow(rule)` comments, the path-derived policy
 * (FileKind), and the file's *hot regions* — token ranges inside
 * functions annotated `// carbonx-hot` or containing a
 * CARBONX_PROFILE phase from the batch/sim hot set. Every rule in
 * analyze/registry.h receives the same context, so the file is lexed
 * exactly once no matter how many rules run.
 */

#ifndef CARBONX_TOOLS_ANALYZE_CONTEXT_H
#define CARBONX_TOOLS_ANALYZE_CONTEXT_H

#include <cstddef>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/lexer.h"

namespace carbonx
{
namespace lint
{

/** Finding severity; only Error findings gate CI. */
enum class Severity
{
    Warning,
    Error
};

inline const char *
severityName(Severity s)
{
    return s == Severity::Error ? "error" : "warning";
}

/** One finding, addressed for editor/CI consumption. */
struct Diagnostic
{
    std::string file;
    size_t line = 0; ///< 1-based.
    std::string rule;
    std::string message;
    Severity severity = Severity::Error;
    /** Set by the driver when a baseline entry matched. */
    bool baselined = false;

    std::string format() const
    {
        std::ostringstream os;
        os << file << ':' << line << ": [" << rule << "] " << message;
        return os.str();
    }
};

/** Rule names, shared by checks and suppression comments. */
inline const char *kRuleRawUnitDouble = "raw-unit-double";
inline const char *kRuleSuffixMismatch = "unit-suffix-mismatch";
inline const char *kRuleMagicConversion = "magic-conversion";
inline const char *kRuleHeaderGuard = "header-guard";
inline const char *kRuleRecorderWrite = "recorder-field-write";
inline const char *kRuleProfilePhase = "profile-phase";
inline const char *kRuleHotPathAlloc = "hot-path-alloc";
inline const char *kRuleDeterminism = "determinism";
inline const char *kRuleConcurrency = "concurrency";
inline const char *kRuleLayering = "layering";

/** Per-file policy derived from its path. */
struct FileKind
{
    /**
     * Boundary layers (CSV ingest, grid/datacenter/fleet/forecast
     * data structs, CLI parsing) exchange raw doubles with the
     * outside world by design; unit-suffixed doubles are allowed.
     */
    bool unit_boundary = false;
    /** units.h and the calendar own the conversion constants. */
    bool conversion_home = false;
    /** Header files must carry a CARBONX_*_H include guard. */
    bool is_header = false;
    /**
     * Only the simulation engine (src/scheduler) and the obs layer
     * itself may assign HourlyRecord flight-recording fields; all
     * other code consumes recordings read-only.
     */
    bool recorder_writer = false;
    /**
     * common/rng.* owns seeded randomness; src/obs may read wall
     * clocks for provenance stamps and traces. Everywhere else,
     * entropy and wall-clock reads break sweep reproducibility.
     */
    bool entropy_home = false;
    /**
     * The perf substrate (src/common, src/obs) uses relaxed atomics
     * by convention; a bare seq_cst operation there is almost always
     * an accident that costs a fence on the hot path.
     */
    bool relaxed_atomics = false;
    /**
     * src/<layer>/ name for include-DAG enforcement; empty when the
     * file is outside the layered tree (tools, tests, umbrella).
     */
    std::string layer;
};

namespace detail
{

inline bool
contains(const std::string &haystack, const char *needle)
{
    return haystack.find(needle) != std::string::npos;
}

inline bool
endsWith(const std::string &s, const char *suffix)
{
    const std::string suf(suffix);
    return s.size() >= suf.size() &&
           s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

/** The layered subtrees of src/, for layering & classification. */
inline const std::vector<std::string> &
layerNames()
{
    static const std::vector<std::string> layers = {
        "common",    "obs",       "timeseries", "grid",
        "datacenter", "battery",  "carbon",     "forecast",
        "scheduler", "fleet",     "core",       "scenario"};
    return layers;
}

} // namespace detail

/** Derive the lint policy for @p path (substring-based, / separators). */
inline FileKind
classify(const std::string &path)
{
    FileKind kind;
    kind.is_header = detail::endsWith(path, ".h");
    kind.unit_boundary = detail::contains(path, "src/grid/") ||
                         detail::contains(path, "src/datacenter/") ||
                         detail::contains(path, "src/fleet/") ||
                         detail::contains(path, "src/forecast/") ||
                         detail::contains(path, "src/common/csv") ||
                         // The flight recorder and its auditor are a
                         // deliberate bulk raw-double export boundary
                         // (unit-per-column, named in the suffix).
                         detail::contains(path, "src/obs/recorder") ||
                         detail::contains(path, "src/obs/audit") ||
                         // Scenario files are JSON: every number
                         // crosses the parse/report boundary as a
                         // raw double named by its key suffix.
                         detail::contains(path, "src/scenario/") ||
                         detail::contains(path, "tools/carbonx_cli") ||
                         detail::contains(path, "tools/run_suite") ||
                         detail::contains(path, "tools/arg_parser");
    kind.conversion_home =
        detail::contains(path, "common/units.h") ||
        detail::contains(path, "timeseries/calendar.");
    kind.recorder_writer = detail::contains(path, "src/scheduler/") ||
                           detail::contains(path, "src/obs/");
    kind.entropy_home = detail::contains(path, "common/rng.") ||
                        detail::contains(path, "src/obs/");
    kind.relaxed_atomics = detail::contains(path, "src/common/") ||
                           detail::contains(path, "src/obs/");
    for (const std::string &layer : detail::layerNames()) {
        if (detail::contains(path, ("src/" + layer + "/").c_str())) {
            kind.layer = layer;
            break;
        }
    }
    return kind;
}

namespace detail
{

inline std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string current;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    lines.push_back(current);
    return lines;
}

/**
 * Suppressions from `carbonx-lint: allow(...)` comments, scanned on
 * the RAW source (the marker lives inside a comment). Maps 1-based
 * line number -> set of rule names ("all" matches every rule).
 */
inline std::map<size_t, std::set<std::string>>
collectSuppressions(const std::vector<std::string> &raw_lines)
{
    static const std::regex marker(
        R"(carbonx-lint:\s*allow\(([^)]*)\))");
    std::map<size_t, std::set<std::string>> out;
    for (size_t i = 0; i < raw_lines.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(raw_lines[i], m, marker))
            continue;
        std::set<std::string> rules;
        std::string item;
        std::istringstream list(m[1].str());
        while (std::getline(list, item, ',')) {
            const size_t a = item.find_first_not_of(" \t");
            const size_t b = item.find_last_not_of(" \t");
            if (a != std::string::npos)
                rules.insert(item.substr(a, b - a + 1));
        }
        out[i + 1] = rules;
    }
    return out;
}

inline bool
isSuppressed(const std::map<size_t, std::set<std::string>> &allows,
             size_t line, const std::string &rule)
{
    // A marker covers its own line and the line directly below it.
    for (const size_t at : {line, line > 1 ? line - 1 : line}) {
        const auto it = allows.find(at);
        if (it == allows.end())
            continue;
        if (it->second.count("all") || it->second.count(rule))
            return true;
    }
    return false;
}

/** Longest recognized unit suffix of an identifier, or "". */
inline std::string
unitSuffix(const std::string &identifier)
{
    // Last component of a member chain: a.b->c_mwh scans as c_mwh.
    size_t start = identifier.find_last_of(".>");
    const std::string leaf = start == std::string::npos
                                 ? identifier
                                 : identifier.substr(start + 1);
    static const std::vector<const char *> suffixes = {
        "_mwh", "_mw", "_gkwh", "_kgco2"};
    for (const char *s : suffixes)
        if (endsWith(leaf, s))
            return s;
    return "";
}

} // namespace detail

/** A [first, last] token-index range that is a hot-path function. */
struct HotRegion
{
    size_t first_token = 0;
    size_t last_token = 0;
    std::string why; ///< "carbonx-hot" or the triggering phase name.
};

/** Everything a rule needs to analyze one file. */
struct FileContext
{
    std::string path;
    FileKind kind;
    std::string source;
    std::vector<std::string> raw_lines;
    std::vector<std::string> stripped_lines;
    lex::TokenStream ts;
    std::map<size_t, std::set<std::string>> allows;
    std::vector<HotRegion> hot_regions;

    bool suppressed(size_t line, const std::string &rule) const
    {
        return detail::isSuppressed(allows, line, rule);
    }

    /** Append a diagnostic unless a waiver covers it. */
    void report(std::vector<Diagnostic> &out, size_t line,
                const char *rule, Severity severity,
                const std::string &message) const
    {
        if (!suppressed(line, rule))
            out.push_back(
                Diagnostic{path, line, rule, message, severity});
    }

    bool inHotRegion(size_t token_index) const
    {
        for (const HotRegion &r : hot_regions)
            if (token_index >= r.first_token &&
                token_index <= r.last_token)
                return true;
        return false;
    }
};

namespace detail
{

/** Is @p phase one of the warm hot-path profiler phases? */
inline bool
isHotPhaseName(const std::string &phase)
{
    return contains(phase, "batch") ||
           phase.compare(0, 4, "sim/") == 0;
}

/**
 * Hot regions: for every `// carbonx-hot` comment, the next brace
 * block; for every CARBONX_PROFILE("<hot phase>") call, the
 * innermost enclosing brace block (the exact scope the profiler
 * measures). Regions are token-index ranges into ctx.ts.tokens.
 */
inline std::vector<HotRegion>
findHotRegions(const lex::TokenStream &ts)
{
    const std::vector<lex::Token> &toks = ts.tokens;

    // Brace matching: enclosing_open[i] = token index of the nearest
    // '{' containing token i (npos at file scope); match[j] = index
    // of the '}' closing the '{' at j.
    const size_t npos = static_cast<size_t>(-1);
    std::vector<size_t> enclosing_open(toks.size(), npos);
    std::map<size_t, size_t> close_of;
    {
        std::vector<size_t> stack;
        for (size_t i = 0; i < toks.size(); ++i) {
            enclosing_open[i] = stack.empty() ? npos : stack.back();
            if (toks[i].kind == lex::TokKind::Punct) {
                if (toks[i].text == "{") {
                    stack.push_back(i);
                } else if (toks[i].text == "}" && !stack.empty()) {
                    close_of[stack.back()] = i;
                    stack.pop_back();
                }
            }
        }
        // Unclosed blocks run to EOF.
        for (const size_t open : stack)
            close_of[open] = toks.empty() ? 0 : toks.size() - 1;
    }

    std::vector<HotRegion> regions;
    const auto addRegion = [&](size_t open, std::string why) {
        const auto it = close_of.find(open);
        if (it == close_of.end())
            return;
        regions.push_back(HotRegion{open, it->second, std::move(why)});
    };

    // CARBONX_PROFILE("<hot phase>") -> enclosing block.
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].kind != lex::TokKind::Ident ||
            toks[i].text != "CARBONX_PROFILE")
            continue;
        if (toks[i + 1].text != "(" ||
            toks[i + 2].kind != lex::TokKind::String)
            continue;
        if (!isHotPhaseName(toks[i + 2].text))
            continue;
        if (enclosing_open[i] != npos)
            addRegion(enclosing_open[i], toks[i + 2].text);
    }

    // `// carbonx-hot` comment -> next '{' at or after its end line:
    // a function body or a loop body. The marker must LEAD the
    // comment: prose that merely mentions carbonx-hot (docs, this
    // very file) is not an annotation.
    for (const lex::Comment &comment : ts.comments) {
        const size_t at = comment.text.find_first_not_of(" \t");
        if (at == std::string::npos ||
            comment.text.compare(at, 11, "carbonx-hot") != 0)
            continue;
        int paren_depth = 0; // A for-header's ';' is not a statement end.
        for (size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].line < comment.end_line)
                continue;
            if (toks[i].kind != lex::TokKind::Punct)
                continue;
            if (toks[i].text == "{") {
                addRegion(i, "carbonx-hot");
                break;
            }
            if (toks[i].text == "(")
                ++paren_depth;
            else if (toks[i].text == ")")
                --paren_depth;
            if ((toks[i].text == "}" ||
                 (toks[i].text == ";" && paren_depth == 0)) &&
                toks[i].line > comment.end_line) {
                break; // Annotation does not precede a definition.
            }
        }
    }

    return regions;
}

} // namespace detail

/** Build the shared context for one file (lexes exactly once). */
inline FileContext
makeContext(const std::string &path, const std::string &source,
            const FileKind &kind)
{
    FileContext ctx;
    ctx.path = path;
    ctx.kind = kind;
    ctx.source = source;
    ctx.raw_lines = detail::splitLines(source);
    ctx.ts = lex::lexSource(source);
    ctx.stripped_lines = detail::splitLines(ctx.ts.stripped);
    ctx.allows = detail::collectSuppressions(ctx.raw_lines);
    ctx.hot_regions = detail::findHotRegions(ctx.ts);
    return ctx;
}

} // namespace lint
} // namespace carbonx

#endif // CARBONX_TOOLS_ANALYZE_CONTEXT_H

/**
 * @file
 * hot-path-alloc: the static twin of the counting-operator-new tests.
 *
 * The warm sweep hot path (the batched SoA kernel and the per-wave
 * batch fill) is engineered to be allocation free: every vector is
 * reserved up front and reused, and a single
 * stray allocation per design point multiplies into millions per
 * sweep. The runtime tests catch that after the fact; this rule
 * rejects the patterns at lint time, inside *hot regions* only — a
 * function annotated `// carbonx-hot` or containing a
 * CARBONX_PROFILE batch/sim phase (see context.h).
 *
 * Flagged inside a hot region:
 *   - `new` (any form; the hot path owns no allocations);
 *   - construction of a std::string (always allocates for non-SSO
 *     contents and may throw bad_alloc mid-simulation);
 *   - construction of a std::vector variable that is never
 *     reserve()d or resize()d anywhere in the file;
 *   - push_back/emplace_back on a container that is never
 *     reserve()d or resize()d anywhere in the file (an un-reserved
 *     push in a warm loop reallocates geometrically).
 *
 * References and pointers to std::string/std::vector are fine —
 * only constructions are flagged. Waive a deliberate cold-start
 * allocation with `// carbonx-lint: allow(hot-path-alloc)`.
 */

#ifndef CARBONX_TOOLS_ANALYZE_RULES_HOTPATH_H
#define CARBONX_TOOLS_ANALYZE_RULES_HOTPATH_H

#include <set>
#include <string>
#include <vector>

#include "analyze/context.h"

namespace carbonx
{
namespace lint
{
namespace rules
{

namespace hotdetail
{

using lex::TokKind;
using lex::Token;

inline bool
isPunct(const Token &t, const char *text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

inline bool
isIdent(const Token &t, const char *text)
{
    return t.kind == TokKind::Ident && t.text == text;
}

/**
 * Identifiers that are reserve()d or resize()d somewhere in the
 * file, in either spelling: `v.reserve(..)` / `v->resize(..)` or the
 * helper-lambda form `reserve(v)`.
 */
inline std::set<std::string>
reservedIdents(const std::vector<Token> &toks)
{
    std::set<std::string> reserved;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        const bool grower = isIdent(toks[i], "reserve") ||
                            isIdent(toks[i], "resize");
        if (!grower)
            continue;
        // v.reserve( / v->reserve(
        if (i >= 2 && toks[i - 2].kind == TokKind::Ident &&
            (isPunct(toks[i - 1], ".") ||
             isPunct(toks[i - 1], "->")) &&
            isPunct(toks[i + 1], "(")) {
            reserved.insert(toks[i - 2].text);
        }
        // reserve(v) helper-lambda form.
        if (isPunct(toks[i + 1], "(") && i + 2 < toks.size() &&
            toks[i + 2].kind == TokKind::Ident) {
            reserved.insert(toks[i + 2].text);
        }
    }
    return reserved;
}

/** Skip a balanced <...> template argument list starting at '<'. */
inline size_t
skipTemplateArgs(const std::vector<Token> &toks, size_t i)
{
    if (i >= toks.size() || !isPunct(toks[i], "<"))
        return i;
    int depth = 0;
    while (i < toks.size()) {
        if (isPunct(toks[i], "<"))
            ++depth;
        else if (isPunct(toks[i], ">"))
            --depth;
        else if (isPunct(toks[i], ">>"))
            depth -= 2;
        ++i;
        if (depth <= 0)
            break;
    }
    return i;
}

} // namespace hotdetail

inline void
checkHotPathAlloc(const FileContext &ctx, std::vector<Diagnostic> &out)
{
    using namespace hotdetail;
    if (ctx.hot_regions.empty())
        return;
    const std::vector<Token> &toks = ctx.ts.tokens;
    const std::set<std::string> reserved = reservedIdents(toks);

    for (size_t i = 0; i < toks.size(); ++i) {
        if (!ctx.inHotRegion(i))
            continue;

        // `new` anywhere in a hot region.
        if (isIdent(toks[i], "new")) {
            ctx.report(out, toks[i].line, kRuleHotPathAlloc,
                       Severity::Error,
                       "`new` in a hot path; hot regions must be "
                       "allocation-free (preallocate in setup)");
            continue;
        }

        // push_back / emplace_back on an un-reserved container.
        if ((isIdent(toks[i], "push_back") ||
             isIdent(toks[i], "emplace_back")) &&
            i >= 2 && i + 1 < toks.size() &&
            (isPunct(toks[i - 1], ".") ||
             isPunct(toks[i - 1], "->")) &&
            toks[i - 2].kind == TokKind::Ident &&
            isPunct(toks[i + 1], "(")) {
            if (reserved.count(toks[i - 2].text) == 0) {
                ctx.report(out, toks[i].line, kRuleHotPathAlloc,
                           Severity::Error,
                           "'" + toks[i - 2].text + "." +
                               toks[i].text +
                               "' in a hot path without a reserve()/"
                               "resize() in this file; growth "
                               "reallocates in the warm loop");
            }
            continue;
        }

        // std::string / std::vector construction.
        if (!isIdent(toks[i], "std") || i + 2 >= toks.size() ||
            !isPunct(toks[i + 1], "::"))
            continue;
        const Token &type = toks[i + 2];
        const bool is_string = isIdent(type, "string");
        const bool is_vector = isIdent(type, "vector");
        if (!is_string && !is_vector)
            continue;
        size_t j = i + 3;
        if (is_vector)
            j = skipTemplateArgs(toks, j);
        if (j >= toks.size())
            continue;
        const Token &next = toks[j];
        // References, pointers and nested type uses do not construct.
        const bool constructs =
            next.kind == TokKind::Ident || isPunct(next, "(") ||
            isPunct(next, "{");
        if (!constructs)
            continue;
        if (is_string) {
            ctx.report(out, type.line, kRuleHotPathAlloc,
                       Severity::Error,
                       "std::string constructed in a hot path; "
                       "strings allocate and can throw mid-"
                       "simulation");
        } else {
            const std::string var =
                next.kind == TokKind::Ident ? next.text
                                            : std::string();
            if (!var.empty() && reserved.count(var) != 0)
                continue; // Reserved right after construction.
            ctx.report(out, type.line, kRuleHotPathAlloc,
                       Severity::Error,
                       "std::vector constructed in a hot path "
                       "without a reserve()/resize(); preallocate "
                       "in setup and reuse");
        }
    }
}

} // namespace rules
} // namespace lint
} // namespace carbonx

#endif // CARBONX_TOOLS_ANALYZE_RULES_HOTPATH_H

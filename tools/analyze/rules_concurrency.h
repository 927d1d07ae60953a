/**
 * @file
 * concurrency: hygiene rules for the thread-pool era.
 *
 *   - naked mutex .lock(): locking a std::mutex (or friends) without
 *     an RAII guard leaks the lock on any exception path; the repo
 *     convention is lock_guard/unique_lock everywhere. Re-acquiring
 *     through a unique_lock variable is fine — only identifiers
 *     declared as mutex types in the file are checked.
 *   - detached threads: a .detach()ed thread outlives scope tracking,
 *     races process teardown, and is invisible to TSan's happens-
 *     before on join; the pool in common/parallel.h is the only
 *     sanctioned thread owner.
 *   - default seq_cst atomics: in the perf substrate (src/common,
 *     src/obs) and in hot regions, every atomic op spells its memory
 *     order explicitly — the counters convention is relaxed, and an
 *     accidental seq_cst fetch_add puts a full fence in the sweep's
 *     warm loop. Ops on atomics declared in the same file are
 *     checked; an explicit std::memory_order_* argument satisfies
 *     the rule.
 */

#ifndef CARBONX_TOOLS_ANALYZE_RULES_CONCURRENCY_H
#define CARBONX_TOOLS_ANALYZE_RULES_CONCURRENCY_H

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

namespace condetail
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

inline bool
isMutexType(const std::string &text)
{
    return text == "mutex" || text == "recursive_mutex" ||
           text == "shared_mutex" || text == "timed_mutex" ||
           text == "recursive_timed_mutex";
}

/** Identifiers declared in this file with a mutex type. */
inline std::set<std::string>
mutexIdents(const std::vector<Token> &toks)
{
    std::set<std::string> names;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident ||
            !isMutexType(toks[i].text))
            continue;
        size_t j = i + 1;
        if (isPunct(toks[j], "&") && j + 1 < toks.size())
            ++j; // Reference parameter: std::mutex &m.
        if (toks[j].kind == TokKind::Ident)
            names.insert(toks[j].text);
    }
    return names;
}

/** Identifiers declared in this file as std::atomic<...>. */
inline std::set<std::string>
atomicIdents(const std::vector<Token> &toks)
{
    std::set<std::string> names;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "atomic") ||
            !isPunct(toks[i + 1], "<"))
            continue;
        size_t j = i + 1;
        int depth = 0;
        while (j < toks.size()) {
            if (isPunct(toks[j], "<"))
                ++depth;
            else if (isPunct(toks[j], ">"))
                --depth;
            else if (isPunct(toks[j], ">>"))
                depth -= 2;
            ++j;
            if (depth <= 0)
                break;
        }
        // atomic<T> name  /  atomic<T> &name.
        if (j < toks.size() && isPunct(toks[j], "&"))
            ++j;
        if (j < toks.size() && toks[j].kind == TokKind::Ident)
            names.insert(toks[j].text);
    }
    return names;
}

inline bool
isAtomicOp(const std::string &text)
{
    return text == "load" || text == "store" ||
           text == "exchange" || text == "fetch_add" ||
           text == "fetch_sub" || text == "fetch_and" ||
           text == "fetch_or" || text == "fetch_xor" ||
           text == "compare_exchange_weak" ||
           text == "compare_exchange_strong";
}

} // namespace condetail

inline void
checkConcurrency(const FileContext &ctx, std::vector<Diagnostic> &out)
{
    using namespace condetail;
    const std::vector<Token> &toks = ctx.ts.tokens;
    const std::set<std::string> mutexes = mutexIdents(toks);
    const std::set<std::string> atomics = atomicIdents(toks);

    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Ident)
            continue;
        const bool member_call =
            i >= 2 &&
            (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->")) &&
            toks[i - 2].kind == TokKind::Ident &&
            isPunct(toks[i + 1], "(");
        if (!member_call)
            continue;
        const std::string &recv = toks[i - 2].text;

        // Naked mutex lock: m.lock() where m is a mutex type (or is
        // transparently named one).
        if (t.text == "lock" &&
            (mutexes.count(recv) != 0 ||
             recv.find("mutex") != std::string::npos)) {
            ctx.report(out, t.line, kRuleConcurrency,
                       Severity::Error,
                       "naked '" + recv +
                           ".lock()'; use std::lock_guard or "
                           "std::unique_lock so exception paths "
                           "release the mutex");
            continue;
        }

        // Detached threads.
        if (t.text == "detach" && i + 2 < toks.size() &&
            isPunct(toks[i + 2], ")")) {
            ctx.report(out, t.line, kRuleConcurrency,
                       Severity::Error,
                       "'" + recv +
                           ".detach()' leaks a thread past scope "
                           "tracking; join it, or hand the work to "
                           "the pool in common/parallel.h");
            continue;
        }

        // Atomic ops that default to seq_cst, where relaxed is the
        // convention: perf substrate files and hot regions.
        if (!isAtomicOp(t.text) || atomics.count(recv) == 0)
            continue;
        if (!ctx.kind.relaxed_atomics && !ctx.inHotRegion(i))
            continue;
        // Scan the argument list for an explicit memory_order.
        size_t j = i + 1;
        int depth = 0;
        bool has_order = false;
        while (j < toks.size()) {
            if (isPunct(toks[j], "("))
                ++depth;
            else if (isPunct(toks[j], ")")) {
                --depth;
                if (depth == 0)
                    break;
            } else if (toks[j].kind == TokKind::Ident &&
                       toks[j].text.compare(0, 13, "memory_order_") ==
                           0) {
                has_order = true;
            }
            ++j;
        }
        if (!has_order) {
            ctx.report(out, t.line, kRuleConcurrency,
                       Severity::Error,
                       "'" + recv + "." + t.text +
                           "' defaults to seq_cst; the counter "
                           "convention is an explicit memory order "
                           "(usually memory_order_relaxed)");
        }
    }
}

} // namespace rules
} // namespace lint
} // namespace carbonx

#endif // CARBONX_TOOLS_ANALYZE_RULES_CONCURRENCY_H

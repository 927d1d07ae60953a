/**
 * @file
 * layering: enforce the src/ include DAG at lint time.
 *
 * The library's layering has so far been folklore plus link errors:
 * common depends on nothing internal (it must stay usable from every
 * layer without cycles — the counter store lives there precisely
 * because common cannot see obs), obs sees only common, the domain
 * layers sit in the middle, and core — the explorer — may see
 * everything. This rule reads the quoted #include directives from
 * the token stream's directive table and rejects any edge the DAG
 * below does not contain, naming the offending edge so the fix (or
 * the deliberate architecture change) is explicit.
 *
 * Allowed internal edges (a layer always sees itself):
 *
 *   common     -> (nothing)
 *   obs        -> common
 *   timeseries -> common
 *   datacenter -> common timeseries
 *   forecast   -> common timeseries
 *   grid       -> common obs timeseries
 *   battery    -> common
 *   carbon     -> common timeseries datacenter battery
 *   scheduler  -> common obs timeseries datacenter battery
 *   fleet      -> common timeseries datacenter grid
 *   core       -> everything below it
 *   scenario   -> everything (it binds declarative configs onto the
 *                 core explorer, so it sits above core)
 *
 * Same-directory includes ("coverage.h") carry no layer prefix and
 * are always fine. Files outside src/<layer>/ (tools, tests, the
 * umbrella header) are exempt: they are the public rim, not layers.
 */

#ifndef CARBONX_TOOLS_ANALYZE_RULES_LAYERING_H
#define CARBONX_TOOLS_ANALYZE_RULES_LAYERING_H

#include <map>
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

namespace layerdetail
{

/** layer -> internal layers it may include (besides itself). */
inline const std::map<std::string, std::set<std::string>> &
allowedEdges()
{
    static const std::map<std::string, std::set<std::string>> dag = {
        {"common", {}},
        {"obs", {"common"}},
        {"timeseries", {"common"}},
        {"datacenter", {"common", "timeseries"}},
        {"forecast", {"common", "timeseries"}},
        {"grid", {"common", "obs", "timeseries"}},
        {"battery", {"common"}},
        {"carbon", {"common", "timeseries", "datacenter", "battery"}},
        {"scheduler",
         {"common", "obs", "timeseries", "datacenter", "battery"}},
        {"fleet", {"common", "timeseries", "datacenter", "grid"}},
        {"core",
         {"common", "obs", "timeseries", "datacenter", "forecast",
          "grid", "battery", "carbon", "scheduler", "fleet"}},
        {"scenario",
         {"common", "obs", "timeseries", "datacenter", "forecast",
          "grid", "battery", "carbon", "scheduler", "fleet",
          "core"}},
    };
    return dag;
}

/** The quoted path of an #include directive, or "" if not one. */
inline std::string
includedPath(const std::string &directive_text)
{
    // Directive text looks like `#include "grid/fuels.h"` or
    // `#  include <vector>`; only quoted includes are internal.
    size_t i = directive_text.find_first_not_of(" \t", 1);
    if (i == std::string::npos)
        return "";
    if (directive_text.compare(i, 7, "include") != 0)
        return "";
    const size_t open = directive_text.find('"', i + 7);
    if (open == std::string::npos)
        return "";
    const size_t close = directive_text.find('"', open + 1);
    if (close == std::string::npos)
        return "";
    return directive_text.substr(open + 1, close - open - 1);
}

/** Leading src-layer of an include path ("grid/fuels.h" -> grid). */
inline std::string
includeLayer(const std::string &path)
{
    const size_t slash = path.find('/');
    if (slash == std::string::npos)
        return ""; // Same-directory include.
    const std::string head = path.substr(0, slash);
    for (const std::string &layer : detail::layerNames())
        if (head == layer)
            return layer;
    return "";
}

} // namespace layerdetail

inline void
checkLayering(const FileContext &ctx, std::vector<Diagnostic> &out)
{
    using namespace layerdetail;
    const std::string &layer = ctx.kind.layer;
    if (layer.empty())
        return;
    const auto &dag = allowedEdges();
    const auto allowed_it = dag.find(layer);
    if (allowed_it == dag.end())
        return;
    const std::set<std::string> &allowed = allowed_it->second;

    for (const lex::Directive &dir : ctx.ts.directives) {
        const std::string inc = includedPath(dir.text);
        if (inc.empty())
            continue;
        const std::string target = includeLayer(inc);
        if (target.empty() || target == layer ||
            allowed.count(target) != 0)
            continue;
        ctx.report(out, dir.line, kRuleLayering, Severity::Error,
                   "layering violation: src/" + layer +
                       " must not include \"" + inc + "\" (edge " +
                       layer + " -> " + target +
                       " is not in the include DAG; see "
                       "tools/analyze/rules_layering.h)");
    }
}

} // namespace rules
} // namespace lint
} // namespace carbonx

#endif // CARBONX_TOOLS_ANALYZE_RULES_LAYERING_H

#include "scenario.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/error.h"
#include "common/fnv.h"
#include "grid/balancing_authority.h"

namespace carbonx::scenario
{

namespace
{

/** Diagnostic contract: every parse/validation error names the file
 * and the dotted field path, so a typo'd scenario is a one-line fix. */
[[noreturn]] void
fail(const std::string &file, const std::string &field,
     const std::string &msg)
{
    throw UserError("scenario " + file + ": field '" + field +
                    "': " + msg);
}

const char *
typeName(JsonValue::Type t)
{
    switch (t) {
    case JsonValue::Type::Null:
        return "null";
    case JsonValue::Type::Bool:
        return "bool";
    case JsonValue::Type::Number:
        return "number";
    case JsonValue::Type::String:
        return "string";
    case JsonValue::Type::Array:
        return "array";
    case JsonValue::Type::Object:
        return "object";
    }
    return "?";
}

std::string
asStr(const JsonValue &v, const std::string &file,
      const std::string &field)
{
    if (!v.isString())
        fail(file, field,
             std::string("expected string, got ") + typeName(v.type()));
    return v.asString();
}

double
asNum(const JsonValue &v, const std::string &file,
      const std::string &field)
{
    if (!v.isNumber())
        fail(file, field,
             std::string("expected number, got ") + typeName(v.type()));
    const double d = v.asNumber();
    if (!std::isfinite(d))
        fail(file, field, "expected a finite number");
    return d;
}

bool
asBool(const JsonValue &v, const std::string &file,
       const std::string &field)
{
    if (!v.isBool())
        fail(file, field,
             std::string("expected bool, got ") + typeName(v.type()));
    return v.asBool();
}

long long
asInt(const JsonValue &v, const std::string &file,
      const std::string &field)
{
    const double d = asNum(v, file, field);
    if (d != std::floor(d))
        fail(file, field, "expected an integer");
    return static_cast<long long>(d);
}

const JsonValue &
asObj(const JsonValue &v, const std::string &file,
      const std::string &field)
{
    if (!v.isObject())
        fail(file, field,
             std::string("expected object, got ") + typeName(v.type()));
    return v;
}

/**
 * Reject unknown keys, listing what is allowed — the strictness that
 * turns "my ablation silently ran the default" into a load error.
 */
void
checkKeys(const JsonValue &obj, const std::string &file,
          const std::string &path,
          std::initializer_list<const char *> allowed)
{
    for (const auto &[key, value] : obj.members()) {
        (void)value;
        bool known = false;
        for (const char *a : allowed)
            if (key == a)
                known = true;
        if (known)
            continue;
        std::string list;
        for (const char *a : allowed) {
            if (!list.empty())
                list += ", ";
            list += a;
        }
        fail(file, path.empty() ? key : path + "." + key,
             "unknown key (allowed: " + list + ")");
    }
}

void
applyAxis(AxisOverride &out, const JsonValue &v,
          const std::string &file, const std::string &path)
{
    asObj(v, file, path);
    checkKeys(v, file, path, {"min", "max", "steps"});
    if (const JsonValue *m = v.find("min"))
        out.min = asNum(*m, file, path + ".min");
    if (const JsonValue *m = v.find("max"))
        out.max = asNum(*m, file, path + ".max");
    if (const JsonValue *s = v.find("steps")) {
        const long long n = asInt(*s, file, path + ".steps");
        if (n < 1)
            fail(file, path + ".steps", "must be >= 1");
        out.steps = static_cast<size_t>(n);
    }
}

/** Directory part of @p path ("" when it has none). */
std::string
dirName(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return "";
    return path.substr(0, slash + 1);
}

void
applyOverride(AxisSpec &axis, const AxisOverride &o)
{
    if (o.min)
        axis.min = *o.min;
    if (o.max)
        axis.max = *o.max;
    if (o.steps)
        axis.steps = *o.steps;
}

void
validateAxis(const Scenario &s, const char *name, const AxisSpec &axis)
{
    const std::string field = std::string("components.") + name;
    if (axis.min < 0.0)
        fail(s.source_path, field + ".min", "must be >= 0");
    if (axis.max < axis.min)
        fail(s.source_path, field + ".max", "must be >= min");
    if (axis.steps < 1 || axis.steps > 10000)
        fail(s.source_path, field + ".steps",
             "must be in [1, 10000]");
    if (axis.steps > 1 && axis.max == axis.min)
        fail(s.source_path, field + ".steps",
             "multiple steps over a zero-width range");
}

} // namespace

bool
Scenario::hasTag(const std::string &tag) const
{
    return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

DesignSpace
Scenario::designSpace() const
{
    // Scenario lattices default deliberately coarser than the CLI's
    // (7x7 renewables, 7 battery, 3 extra): the conformance suite
    // sweeps every committed scenario, so the default study must stay
    // a sub-second sweep. Files that need finer grids say so per axis.
    DesignSpace space = DesignSpace::forDatacenter(
        dc_avg_mw.value(), renewable_reach, 7, 7, 3);
    applyOverride(space.solar_mw, solar);
    applyOverride(space.wind_mw, wind);
    applyOverride(space.battery_mwh, battery);
    applyOverride(space.extra_capacity, extra);
    return space;
}

uint64_t
Scenario::digest() const
{
    uint64_t h = kFnvOffsetBasis;
    const auto str = [&h](const std::string &s) {
        h = fnv1a64String(s, h);
        h = fnv1a64Bytes("\x1f", 1, h); // Field separator.
    };
    const auto raw = [&h](const auto &v) {
        h = fnv1a64Bytes(&v, sizeof(v), h);
    };
    const auto axis = [&](const AxisOverride &a) {
        const auto opt = [&](const auto &o) {
            const bool present = o.has_value();
            raw(present);
            if (present)
                raw(*o);
        };
        opt(a.min);
        opt(a.max);
        opt(a.steps);
    };

    // Version tag: part of the digest format. Bump when the semantic
    // field set changes so stale stamps never match by accident.
    str("carbonx-scenario-v1");
    str(ba_code);
    raw(dc_avg_mw.value());
    raw(year);
    raw(seed);
    str(traces_csv);
    raw(flexible_ratio.value());
    raw(slo_hours.value());
    raw(renewable_reach);
    axis(solar);
    axis(wind);
    axis(battery);
    axis(extra);
    str(chemistry);
    str(grid_charge_policy);
    raw(grid_charge_threshold_gkwh.value());
    raw(static_cast<int32_t>(strategy));
    raw(static_cast<int32_t>(attribution));
    raw(static_cast<int32_t>(mode));
    raw(refine_rounds);
    return h;
}

std::string
Scenario::digestHex() const
{
    return fnvHex(digest());
}

void
applyScenarioJson(Scenario &out, const JsonValue &doc,
                  const std::string &file, bool meta)
{
    if (!doc.isObject())
        fail(file, "(document)",
             std::string("expected a JSON object, got ") +
                 typeName(doc.type()));
    checkKeys(doc, file, "",
              {"id", "extends", "abstract", "name", "description",
               "tags", "site", "workload", "components", "objective",
               "sweep", "expect"});

    // Identity fields are type-checked even on ancestor overlays so a
    // broken parent fails regardless of inheritance order, but only
    // the scenario's own file may assign them.
    if (const JsonValue *v = doc.find("id")) {
        const std::string id = asStr(*v, file, "id");
        if (meta)
            out.id = id;
    }
    if (const JsonValue *v = doc.find("extends")) {
        const std::string parent = asStr(*v, file, "extends");
        if (meta)
            out.extends = parent;
    }
    if (const JsonValue *v = doc.find("abstract")) {
        const bool abstract = asBool(*v, file, "abstract");
        if (meta)
            out.abstract_base = abstract;
    }

    if (const JsonValue *v = doc.find("name"))
        out.name = asStr(*v, file, "name");
    if (const JsonValue *v = doc.find("description"))
        out.description = asStr(*v, file, "description");
    if (const JsonValue *v = doc.find("tags")) {
        if (!v->isArray())
            fail(file, "tags",
                 std::string("expected array, got ") +
                     typeName(v->type()));
        out.tags.clear();
        size_t i = 0;
        for (const JsonValue &item : v->items())
            out.tags.push_back(asStr(
                item, file, "tags[" + std::to_string(i++) + "]"));
    }

    if (const JsonValue *v = doc.find("site")) {
        asObj(*v, file, "site");
        checkKeys(*v, file, "site",
                  {"ba", "dc_avg_mw", "year", "seed", "traces_csv"});
        if (const JsonValue *f = v->find("ba"))
            out.ba_code = asStr(*f, file, "site.ba");
        if (const JsonValue *f = v->find("dc_avg_mw"))
            out.dc_avg_mw =
                MegaWatts(asNum(*f, file, "site.dc_avg_mw"));
        if (const JsonValue *f = v->find("year"))
            out.year =
                static_cast<int>(asInt(*f, file, "site.year"));
        if (const JsonValue *f = v->find("seed")) {
            const long long seed = asInt(*f, file, "site.seed");
            if (seed < 0)
                fail(file, "site.seed", "must be >= 0");
            out.seed = static_cast<uint64_t>(seed);
        }
        if (const JsonValue *f = v->find("traces_csv")) {
            const std::string rel =
                asStr(*f, file, "site.traces_csv");
            // Resolve against the scenario file's directory so the
            // corpus is relocatable as a unit.
            out.traces_csv = (rel.empty() || rel.front() == '/')
                                 ? rel
                                 : dirName(file) + rel;
        }
    }

    if (const JsonValue *v = doc.find("workload")) {
        asObj(*v, file, "workload");
        checkKeys(*v, file, "workload",
                  {"flexible_ratio", "slo_hours"});
        if (const JsonValue *f = v->find("flexible_ratio"))
            out.flexible_ratio = Fraction(
                asNum(*f, file, "workload.flexible_ratio"));
        if (const JsonValue *f = v->find("slo_hours"))
            out.slo_hours =
                Hours(asNum(*f, file, "workload.slo_hours"));
    }

    if (const JsonValue *v = doc.find("components")) {
        asObj(*v, file, "components");
        checkKeys(*v, file, "components",
                  {"renewable_reach", "solar", "wind", "battery",
                   "extra", "chemistry", "grid_charge_policy",
                   "grid_charge_threshold_gkwh"});
        if (const JsonValue *f = v->find("renewable_reach"))
            out.renewable_reach =
                asNum(*f, file, "components.renewable_reach");
        if (const JsonValue *f = v->find("solar"))
            applyAxis(out.solar, *f, file, "components.solar");
        if (const JsonValue *f = v->find("wind"))
            applyAxis(out.wind, *f, file, "components.wind");
        if (const JsonValue *f = v->find("battery"))
            applyAxis(out.battery, *f, file, "components.battery");
        if (const JsonValue *f = v->find("extra"))
            applyAxis(out.extra, *f, file, "components.extra");
        if (const JsonValue *f = v->find("chemistry"))
            out.chemistry =
                asStr(*f, file, "components.chemistry");
        if (const JsonValue *f = v->find("grid_charge_policy"))
            out.grid_charge_policy =
                asStr(*f, file, "components.grid_charge_policy");
        if (const JsonValue *f =
                v->find("grid_charge_threshold_gkwh"))
            out.grid_charge_threshold_gkwh = GramsPerKwh(asNum(
                *f, file, "components.grid_charge_threshold_gkwh"));
    }

    if (const JsonValue *v = doc.find("objective")) {
        asObj(*v, file, "objective");
        checkKeys(*v, file, "objective", {"strategy", "attribution"});
        if (const JsonValue *f = v->find("strategy")) {
            const std::string s =
                asStr(*f, file, "objective.strategy");
            if (s == "ren")
                out.strategy = Strategy::RenewablesOnly;
            else if (s == "batt")
                out.strategy = Strategy::RenewableBattery;
            else if (s == "cas")
                out.strategy = Strategy::RenewableCas;
            else if (s == "combined")
                out.strategy = Strategy::RenewableBatteryCas;
            else
                fail(file, "objective.strategy",
                     "'" + s +
                         "' is not one of ren, batt, cas, combined");
        }
        if (const JsonValue *f = v->find("attribution")) {
            const std::string a =
                asStr(*f, file, "objective.attribution");
            if (a == "consumed")
                out.attribution = RenewableAttribution::ConsumedEnergy;
            else if (a == "whole_farm")
                out.attribution = RenewableAttribution::WholeFarm;
            else
                fail(file, "objective.attribution",
                     "'" + a +
                         "' is not one of consumed, whole_farm");
        }
    }

    if (const JsonValue *v = doc.find("sweep")) {
        asObj(*v, file, "sweep");
        checkKeys(*v, file, "sweep", {"mode", "refine_rounds"});
        if (const JsonValue *f = v->find("mode")) {
            const std::string m = asStr(*f, file, "sweep.mode");
            if (m == "exhaustive")
                out.mode = SweepMode::Exhaustive;
            else if (m == "adaptive")
                out.mode = SweepMode::Adaptive;
            else
                fail(file, "sweep.mode",
                     "'" + m +
                         "' is not one of exhaustive, adaptive");
        }
        if (const JsonValue *f = v->find("refine_rounds"))
            out.refine_rounds = static_cast<int>(
                asInt(*f, file, "sweep.refine_rounds"));
    }

    if (const JsonValue *v = doc.find("expect")) {
        asObj(*v, file, "expect");
        checkKeys(*v, file, "expect",
                  {"best_total_kg", "tolerance_pct",
                   "min_coverage_pct", "max_coverage_pct"});
        if (const JsonValue *f = v->find("best_total_kg")) {
            out.expect.has_best_total_kg = true;
            out.expect.best_total_kg =
                asNum(*f, file, "expect.best_total_kg");
        }
        if (const JsonValue *f = v->find("tolerance_pct"))
            out.expect.tolerance_pct =
                asNum(*f, file, "expect.tolerance_pct");
        if (const JsonValue *f = v->find("min_coverage_pct"))
            out.expect.min_coverage_pct =
                asNum(*f, file, "expect.min_coverage_pct");
        if (const JsonValue *f = v->find("max_coverage_pct"))
            out.expect.max_coverage_pct =
                asNum(*f, file, "expect.max_coverage_pct");
    }
}

void
validateScenario(const Scenario &s)
{
    const std::string &file = s.source_path;

    if (s.id.empty())
        fail(file, "id", "required");
    for (const char c : s.id)
        if ((c < 'a' || c > 'z') && (c < '0' || c > '9') &&
            c != '-' && c != '_' && c != '.')
            fail(file, "id",
                 "'" + s.id +
                     "' may only contain [a-z0-9._-] (it names "
                     "report files and ctest cases)");

    if (s.traces_csv.empty()) {
        // Throws UserError with the code on unknown BAs; wrap it so
        // the diagnostic still names the file and field.
        try {
            BalancingAuthorityRegistry::instance().lookup(s.ba_code);
        } catch (const UserError &) {
            std::string codes;
            for (const std::string &c :
                 BalancingAuthorityRegistry::instance().codes())
                codes += codes.empty() ? c : ", " + c;
            fail(file, "site.ba",
                 "unknown balancing authority '" + s.ba_code +
                     "' (known: " + codes + ")");
        }
    } else {
        std::ifstream in(s.traces_csv);
        if (!in.good())
            fail(file, "site.traces_csv",
                 "cannot open '" + s.traces_csv + "'");
    }

    if (!(s.dc_avg_mw.value() > 0.0) || s.dc_avg_mw.value() > 10000.0)
        fail(file, "site.dc_avg_mw", "must be in (0, 10000]");
    if (s.year < 1990 || s.year > 2100)
        fail(file, "site.year", "must be in [1990, 2100]");

    if (s.flexible_ratio.value() < 0.0 ||
        s.flexible_ratio.value() > 1.0)
        fail(file, "workload.flexible_ratio", "must be in [0, 1]");
    if (!(s.slo_hours.value() > 0.0) || s.slo_hours.value() > 8760.0)
        fail(file, "workload.slo_hours", "must be in (0, 8760]");

    if (!(s.renewable_reach > 0.0) || s.renewable_reach > 100.0)
        fail(file, "components.renewable_reach",
             "must be in (0, 100]");
    try {
        chemistryByName(s.chemistry);
    } catch (const UserError &) {
        fail(file, "components.chemistry",
             "'" + s.chemistry +
                 "' is not one of lfp, nmc, sodium-ion");
    }
    if (s.grid_charge_policy != "never" &&
        s.grid_charge_policy != "below_intensity")
        fail(file, "components.grid_charge_policy",
             "'" + s.grid_charge_policy +
                 "' is not one of never, below_intensity");
    if (s.grid_charge_threshold_gkwh.value() < 0.0 ||
        s.grid_charge_threshold_gkwh.value() > 5000.0)
        fail(file, "components.grid_charge_threshold_gkwh",
             "must be in [0, 5000]");

    if (s.refine_rounds < 0 || s.refine_rounds > 8)
        fail(file, "sweep.refine_rounds", "must be in [0, 8]");

    const ScenarioExpectations &e = s.expect;
    if (!(e.tolerance_pct > 0.0) || e.tolerance_pct > 100.0)
        fail(file, "expect.tolerance_pct", "must be in (0, 100]");
    if (e.has_best_total_kg && !(e.best_total_kg > 0.0))
        fail(file, "expect.best_total_kg", "must be > 0");
    if (e.min_coverage_pct < 0.0 || e.max_coverage_pct > 100.0 ||
        e.min_coverage_pct > e.max_coverage_pct)
        fail(file, "expect.min_coverage_pct",
             "coverage band must satisfy 0 <= min <= max <= 100");

    const DesignSpace space = s.designSpace();
    validateAxis(s, "solar", space.solar_mw);
    validateAxis(s, "wind", space.wind_mw);
    validateAxis(s, "battery", space.battery_mwh);
    validateAxis(s, "extra", space.extra_capacity);

    // Out-of-range backstop: a fat-fingered steps count must not turn
    // `carbonx run` or the conformance suite into an hour-long sweep.
    constexpr size_t kMaxLatticePoints = 200000;
    const size_t lattice = space.sizeFor(s.strategy);
    if (lattice > kMaxLatticePoints)
        fail(file, "components",
             "design lattice has " + std::to_string(lattice) +
                 " points; the cap is " +
                 std::to_string(kMaxLatticePoints) +
                 " (reduce axis steps)");
}

BatteryChemistry
chemistryByName(const std::string &name)
{
    if (name == "lfp")
        return BatteryChemistry::lithiumIronPhosphate();
    if (name == "nmc")
        return BatteryChemistry::nickelManganeseCobalt();
    if (name == "sodium-ion")
        return BatteryChemistry::sodiumIon();
    throw UserError("unknown battery chemistry: " + name);
}

} // namespace carbonx::scenario

/**
 * @file
 * Declarative scenario definitions: one JSON file per study.
 *
 * The paper evaluates Carbon Explorer across 13 geographies, several
 * renewable mixes, battery chemistries, and ablations (grid charging,
 * embodied-carbon attribution). Until now every such configuration
 * was a hand-rolled CLI flag combination or a hard-coded bench
 * binary. A Scenario captures the full study declaratively — site,
 * trace sources, component bounds, objective, sweep mode, expected
 * results — so `carbonx run <id>` and the data-driven conformance
 * suite can enumerate studies from files instead of code (the
 * tests-as-data pattern of gnome-battery-bench).
 *
 * Format contract: parsing is strict. Unknown keys, type-confused
 * fields, and out-of-range values are UserErrors whose message names
 * the file and the dotted field path — a typo'd scenario fails loudly
 * at load time, never silently changes the study.
 */

#ifndef CARBONX_SCENARIO_SCENARIO_H
#define CARBONX_SCENARIO_SCENARIO_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/units.h"
#include "core/adaptive_sweep.h"
#include "core/design_space.h"
#include "core/explorer.h"

namespace carbonx::scenario
{

/** Optional golden expectations a scenario declares about its best. */
struct ScenarioExpectations
{
    /** Expected best total carbon; checked when has_best_total_kg. */
    bool has_best_total_kg = false;
    double best_total_kg = 0.0;

    /** Relative tolerance (percent) for best_total_kg. */
    double tolerance_pct = 0.01;

    /** Coverage band the best design must land in. */
    double min_coverage_pct = 0.0;
    double max_coverage_pct = 100.0;
};

/**
 * Partial override of one design-space axis; unset fields fall back
 * to the DesignSpace::forDatacenter default derived from the site.
 */
struct AxisOverride
{
    std::optional<double> min;
    std::optional<double> max;
    std::optional<size_t> steps;
};

/** One fully resolved, validated scenario. */
struct Scenario
{
    // --- Identity (file-local; never inherited via extends). ---
    std::string id;
    std::string source_path; ///< File this scenario came from.
    std::string extends;     ///< Parent scenario id ("" = none).
    /** Base of an ablation family: validated but never run/listed. */
    bool abstract_base = false;

    // --- Descriptive. ---
    std::string name;
    std::string description;
    std::vector<std::string> tags;

    // --- Site / geography. ---
    std::string ba_code = "PACE";
    MegaWatts dc_avg_mw{19.0};
    int year = 2020;
    uint64_t seed = 2020;
    /**
     * External hourly traces CSV (ExternalTraces::fromCsv columns);
     * resolved relative to the scenario file at parse time. Empty
     * means synthesize from the balancing-authority models.
     */
    std::string traces_csv;

    // --- Workload. ---
    Fraction flexible_ratio{0.4};
    Hours slo_hours{24.0};

    // --- Component set / design-space bounds. ---
    /** Renewable axis reach as a multiple of average DC power. */
    double renewable_reach = 8.0;
    AxisOverride solar;
    AxisOverride wind;
    AxisOverride battery;
    AxisOverride extra;
    /** Battery chemistry: "lfp", "nmc", or "sodium-ion". */
    std::string chemistry = "lfp";
    /** Grid-charging ablation: "never" or "below_intensity". */
    std::string grid_charge_policy = "never";
    GramsPerKwh grid_charge_threshold_gkwh{0.0};

    // --- Objective. ---
    Strategy strategy = Strategy::RenewableBatteryCas;
    RenewableAttribution attribution =
        RenewableAttribution::ConsumedEnergy;

    // --- Sweep. ---
    SweepMode mode = SweepMode::Exhaustive;
    /** Zoom-refinement rounds (0 = single pass). */
    int refine_rounds = 0;

    ScenarioExpectations expect;

    /** True when @p tag appears in tags. */
    bool hasTag(const std::string &tag) const;

    /**
     * The bounded design space: DesignSpace::forDatacenter defaults
     * for this site, with any per-axis overrides applied.
     */
    DesignSpace designSpace() const;

    /**
     * Stable FNV-1a digest over every semantic field (site, traces
     * path, workload, components, objective, sweep — not the name or
     * description). Stamped into reports so an artifact names the
     * exact study that produced it.
     */
    uint64_t digest() const;
    std::string digestHex() const;
};

/**
 * Overlay the fields present in @p doc onto @p out. Strict: every key
 * must be known and well-typed, or a UserError names @p file and the
 * dotted field path. When @p meta is false the identity fields (id,
 * extends, abstract) are type-checked but not assigned — that is how
 * extends-inheritance applies ancestor documents without the parent
 * hijacking the child's identity.
 */
void applyScenarioJson(Scenario &out, const JsonValue &doc,
                       const std::string &file, bool meta);

/**
 * Validate a fully resolved scenario: id charset, known balancing
 * authority (or existing traces file), positive site power, ranges of
 * every knob, well-formed design-space axes, and a total-lattice cap.
 * @throws UserError naming the source file and field.
 */
void validateScenario(const Scenario &s);

/** Map the scenario chemistry name onto its chemistry preset. */
BatteryChemistry chemistryByName(const std::string &name);

} // namespace carbonx::scenario

#endif // CARBONX_SCENARIO_SCENARIO_H

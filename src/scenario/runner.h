/**
 * @file
 * Bind a Scenario onto the explorer stack and run it.
 *
 * The runner is the one place that translates the declarative format
 * into live objects: ExplorerConfig (or ExternalTraces), the bounded
 * DesignSpace, the SweepRequest that runSweep (core/adaptive_sweep.h)
 * executes with its driver and optional result cache, and the
 * provenance-stamped report. `carbonx run` and the conformance suite
 * both go through these functions, so a scenario behaves identically
 * under the CLI and under ctest.
 */

#ifndef CARBONX_SCENARIO_RUNNER_H
#define CARBONX_SCENARIO_RUNNER_H

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/adaptive_sweep.h"
#include "core/explorer.h"
#include "scenario/scenario.h"

namespace carbonx::scenario
{

/** Per-invocation knobs layered over what the scenario declares. */
struct ScenarioRunOptions
{
    /**
     * Override the scenario's sweep mode (CLI --refine /
     * --exhaustive). The contract that makes the override safe:
     * best/total/Pareto are bit-identical either way.
     */
    std::optional<SweepMode> mode_override;

    /**
     * Directory for the persistent sweep result cache ("" = none).
     * The cache file is keyed by the scenario id; staleness is
     * handled by the explorer config digest baked into the file.
     */
    std::string cache_dir;

    /**
     * Write a decision journal of the sweep here ("" = none). The
     * journal is keyed by the explorer config digest and readable
     * with obs::readJournal / `carbonx inspect`.
     */
    std::string journal_path;
};

/** Outcome of one scenario run. */
struct ScenarioRunResult
{
    std::string scenario_id;
    SweepMode mode = SweepMode::Exhaustive;
    OptimizationResult result;
    /** Zeroed under the exhaustive driver except lattice_points. */
    AdaptiveSweepStats stats;
    uint64_t scenario_digest = 0;
    uint64_t config_digest = 0;
    size_t lattice_points = 0;
};

/**
 * Construct the explorer a scenario describes: synthetic BA traces,
 * or ExternalTraces::fromCsv when the scenario names a traces file.
 * unique_ptr because CarbonExplorer holds internal cross-references.
 */
std::unique_ptr<CarbonExplorer>
makeScenarioExplorer(const Scenario &s);

/** Run the scenario's sweep. @throws UserError / SweepAborted. */
ScenarioRunResult runScenario(const Scenario &s,
                              const ScenarioRunOptions &opts = {});

/**
 * Write the provenance-stamped report. Byte-stable: same scenario +
 * same library ⇒ identical bytes, run to run — no wall time, no
 * thread count. Lines beginning "# sweep" describe the driver that
 * ran and are the only mode-dependent content; filtering them yields
 * identical reports for exhaustive and adaptive runs.
 */
void writeScenarioReport(std::ostream &os, const Scenario &s,
                         const ScenarioRunResult &run);

/**
 * Check the scenario's declared expectations against the best
 * evaluation. Returns one human-readable violation per failed check;
 * empty means the run met every expectation.
 */
std::vector<std::string>
checkExpectations(const Scenario &s, const Evaluation &best);

} // namespace carbonx::scenario

#endif // CARBONX_SCENARIO_RUNNER_H

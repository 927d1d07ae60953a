/**
 * @file
 * `carbonx run` — execute declarative scenarios from the registry.
 *
 * The registry (src/scenario) loads scenarios/ at startup; this suite
 * is the CLI face of it and the one scenario command: listing,
 * validation, and provenance-stamped scenario runs, each swept
 * through scenario::runScenario. An unknown id, an abstract base or
 * an empty registry prints a one-line diagnostic (with the closest
 * committed ids) and exits with kExitNoScenario — distinct from exit
 * 1 so scripts can tell "you typo'd the study name" from "the study
 * failed".
 */

#ifndef CARBONX_TOOLS_RUN_SUITE_H
#define CARBONX_TOOLS_RUN_SUITE_H

#include "arg_parser.h"

namespace carbonx::tools
{

/** Exit code for an unknown scenario id or an empty registry. */
inline constexpr int kExitNoScenario = 5;

/**
 * Entry point for the `run` subcommand. Usage:
 *   carbonx run <scenario-id> [--refine|--exhaustive]
 *               [--report-out PATH] [--cache-dir DIR]
 *               [--journal-out PATH] [--scenario-dir DIR]
 *   carbonx run --list [--tag TAG]
 *   carbonx run --check
 *
 * @return 0 success; 1 run/expectation failure; 2 usage;
 *         kExitNoScenario unknown id or empty registry.
 */
int cmdRun(const ArgParser &args);

} // namespace carbonx::tools

#endif // CARBONX_TOOLS_RUN_SUITE_H

/**
 * @file
 * `carbonx bench` — the performance observatory's macro benchmark
 * suite and regression gate.
 *
 * Running the suite executes a fixed set of end-to-end scenarios
 * (explorer construction, exhaustive and batched sweeps, adaptive sweep cold/warm, recorded
 * simulation, explain, and greedy_schedule: a daily and an 8 h
 * windowed scheduler year, counted in scheduled hours) under the
 * phase profiler and writes a provenance-stamped
 * BENCH_<tag>.json report: per scenario the median wall time over
 * --reps repetitions, a deterministic work_points count, the derived
 * points_per_sec throughput, the hot-path counters, and the merged
 * phase-profile call tree.
 *
 * `--compare BASELINE` turns the run into a regression gate: each
 * scenario's throughput is compared against the baseline report and
 * the command exits with code 4 when any scenario regressed by more
 * than --threshold percent. `--input CANDIDATE` compares two existing
 * report files without running anything — the deterministic path the
 * integration tests and CI use.
 *
 * A full run then holds two overhead fences on the suite's explorer:
 * the fastest full-factorial sweep with the phase profiler on stays
 * within 10% of the fastest with it off, and with a decision journal
 * attached within 5% (up to 3 attempts of 8 alternating off/on
 * pairs). Each prints an "overhead check" line to stderr; a breach
 * exits 4, like the gate.
 *
 * Smoke mode (--smoke) runs the same workloads with reps=1 and no
 * fences, so a smoke report remains comparable (same work_points)
 * against a full baseline.
 */

#ifndef CARBONX_TOOLS_BENCH_SUITE_H
#define CARBONX_TOOLS_BENCH_SUITE_H

#include "arg_parser.h"

namespace carbonx::tools
{

/**
 * Entry point for the `bench` subcommand. Flags:
 *   --tag NAME        report name suffix (BENCH_<tag>.json, default
 *                     "local")
 *   --out PATH        explicit report path (overrides --tag)
 *   --reps N          timed repetitions per scenario (default 3)
 *   --smoke           shorthand for --reps 1
 *   --compare BASE    gate against a baseline report; exit 4 on a
 *                     breach
 *   --input CAND      with --compare: compare two report files, run
 *                     nothing
 *   --threshold PCT   tolerated throughput drop percent (default 5)
 *
 * @return 0 on success, 4 when --compare found a regression or an
 *         overhead fence breached.
 * @throws carbonx::Error on unreadable/malformed reports.
 */
int cmdBench(const ArgParser &args);

} // namespace carbonx::tools

#endif // CARBONX_TOOLS_BENCH_SUITE_H

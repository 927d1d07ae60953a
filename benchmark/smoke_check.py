#!/usr/bin/env python3
"""Self-test of the benchmark: run.sh --smoke calls this after building.

Runs every workload named in BENCHMARK.json at smoke scale (tiny
lattices, one request), once untraced and once traced, and checks that
  - every "name value unit" line names a metric BENCHMARK.json declares,
    and the final JSON line carries exactly the declared metrics;
  - the result JSON and the Chrome trace parse, and every span nests
    under its workload's root span;
  - no check failed (failed == 0, so the error rate is 0).

Usage (from the repository root): smoke_check.py PATH_TO_carbonx_benchmark
"""

import json
import subprocess
import sys
import time

SEED = 1


def check_trace(path, workload):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    roots = [e for e in events if e["args"]["parent"] == -1]
    if len(roots) != 1 or roots[0]["name"] != "workload " + workload:
        return ["trace %s: expected one root span 'workload %s'" % (path, workload)]
    errors = []
    for e in events:
        parent = e["args"]["parent"]
        if parent == -1:
            continue
        p = events[parent]
        if e["ts"] < p["ts"] or e["ts"] + e["dur"] > p["ts"] + p["dur"] + 1:
            errors.append("trace %s: span %s lies outside its parent %s"
                          % (path, e["name"], p["name"]))
    return errors


def run_one(program, workload, trace, declared):
    cmd = [program, "--workload", workload, "--smoke", "--seconds", "0",
           "--seed", str(SEED), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    tag = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit code %d" % (tag, proc.returncode)]
    lines = proc.stdout.strip().splitlines()
    errors = []
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] not in declared:
            errors.append("%s: printed metric %s is not declared" % (tag, parts[0]))
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return errors + ["%s: last line is not JSON: %s" % (tag, e)]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (tag, sorted(result)))
    if set(result.get("metrics", {})) != set(declared):
        errors.append("%s: metrics %s differ from the declared %s"
                      % (tag, sorted(result.get("metrics", {})), sorted(declared)))
    if result.get("failed") != 0 or result.get("correct") is not True:
        errors.append("%s: %s of %s requests failed"
                      % (tag, result.get("failed"), result.get("attempted")))
    if trace:
        path = ".bench_build/traces/%s-seed%d.json" % (workload, SEED)
        try:
            errors += check_trace(path, workload)
        except (OSError, ValueError, KeyError) as e:
            errors.append("%s: trace %s does not parse: %s" % (tag, path, e))
    return errors


def main():
    program = sys.argv[1]
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    start = time.monotonic()
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            errors += run_one(program, workload, trace, declared[trace])
    elapsed = time.monotonic() - start
    for e in errors:
        print("smoke: FAIL: " + e)
    print("smoke: %s, %d workloads in %.1f s"
          % ("FAILED" if errors else "ok", len(spec["workloads"]), elapsed))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

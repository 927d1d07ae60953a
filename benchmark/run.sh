#!/usr/bin/env bash
# Build carbonx_benchmark in Release and run it.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one workload in one process; the last stdout line is its JSON result
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       every workload, each in its own process, one after another
#   benchmark/run.sh --smoke
#       self-test: one small study per workload, traced and untraced,
#       checked by benchmark/smoke_check.py
#
# Run from anywhere; everything is built and written under .bench_build/
# at the repository root. Build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [[ ! -f src/CMakeLists.txt ]]; then
    echo "run.sh: carbonx sources (src/) not found under $root" >&2
    exit 2
fi

out=.bench_build
build="$out/cmake"
# Keep the compiler's scratch files inside the checkout as well.
mkdir -p "$out/tmp"
export TMPDIR="$root/$out/tmp"
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4

if [[ ! -f "$build/CMakeCache.txt" ]]; then
    generator=()
    command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
    cmake -S benchmark -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target carbonx_benchmark -j "$jobs" >&2
bench="$build/carbonx_benchmark"

if [[ -z "${CARBONX_BENCH_COMMIT:-}" ]]; then
    CARBONX_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export CARBONX_BENCH_COMMIT

for arg in "$@"; do
    if [[ "$arg" == --smoke ]]; then
        exec python3 benchmark/smoke_check.py "$bench"
    fi
    if [[ "$arg" == --workload ]]; then
        exec "$bench" "$@"
    fi
done

for workload in $("$bench" --list); do
    "$bench" --workload "$workload" "$@"
done

#!/usr/bin/env bash
# Builds bench_suite from this checkout (into .bench_build/, with the
# top-level build's flags) and runs it with the given flags; see
# bench_suite/README.md. Build output
# goes to stderr, so the last line of standard output stays the
# benchmark's JSON result. Run from anywhere; paths resolve from the
# location of this script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/bench_suite"
jobs="$(nproc)"
if [ "$jobs" -gt 4 ]; then
  jobs=4
fi

mkdir -p "$build"
# One build at a time when several invocations share a checkout.
exec 9>"$build/.lock"
flock 9
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$root/bench_suite" -B "$build" >&2
fi
cmake --build "$build" --target bench_suite -j "$jobs" >&2
exec 9>&-

exec "$build/bench_suite" --workdir="$build" --benchmark-file="$root/BENCHMARK.json" "$@"

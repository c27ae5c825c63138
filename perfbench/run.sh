#!/usr/bin/env bash
# Entry point of the repo benchmark (perfbench/README.md). Builds the
# benchmark, with the library sources under src/ it links, into
# .bench_build/ at the checkout root, then runs it from the root:
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 40 --trace 0
#
# Build output goes to stderr. Stdout carries only the benchmark's report,
# whose last line is the JSON result; a failed build prints no result and
# exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
if [[ ! -f "${build}/Makefile" ]]; then
  cmake -S "${root}/perfbench" -B "${build}" -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
cmake --build "${build}" --target perfbench -j "${jobs}" >&2
cd "${root}"
exec "${build}/perfbench" "$@"

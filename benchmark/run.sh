#!/usr/bin/env bash
# Builds and runs the repository benchmark (see benchmark/README.md).
#
# Usage:
#   benchmark/run.sh --seed S [--workload W] [--trace [0|1]] [--smoke]
#
# Without --workload every workload runs in turn, each in its own process.
# Each run ends with one JSON line on standard output: {"correct",
# "attempted", "failed", "metrics"}. The exit status is non-zero when a
# correctness check fails. `--seconds 12` is accepted for harnesses that
# pass BENCHMARK.json's run_seconds back; the run length is fixed.
#
# The program is built from this checkout into benchmark/.bench_build/:
# first the repository's own Release build (only the targets the
# benchmark needs), then the benchmark program, which links that build's
# libraries. Build output goes to benchmark/.bench_build/build.log.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${root}"

# Refuse to run without the program under test: the benchmark measures
# this repository and cannot stand in for it. The committed LM fixture is
# required too — without it the daemon would silently pre-train an LM for
# minutes and set-up time would measure that instead.
for required in CMakeLists.txt src/CMakeLists.txt tools/promptem_serve.cpp \
                tests/data/promptem_integration_lm.ckpt \
                tests/data/promptem_integration_lm.vocab \
                tests/data/promptem_integration_lm.config; do
  if [[ ! -f "${required}" ]]; then
    echo "run.sh: ${required} is missing; run from a full checkout" >&2
    exit 2
  fi
done

build="${root}/benchmark/.bench_build"
# Everything the benchmark writes stays in the checkout, compiler
# temporaries included.
export TMPDIR="${build}/tmp"
mkdir -p "${TMPDIR}"
log="${build}/build.log"
: > "${log}"
jobs="$(nproc)"
generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi

build_step() {
  if ! "$@" >>"${log}" 2>&1; then
    echo "run.sh: build step failed: $*" >&2
    tail -n 40 "${log}" >&2
    exit 3
  fi
}

if [[ ! -f "${build}/main/CMakeCache.txt" ]]; then
  build_step cmake -S "${root}" -B "${build}/main" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release
fi
build_step cmake --build "${build}/main" -j "${jobs}" --target promptem_serve
if [[ ! -f "${build}/bench/CMakeCache.txt" ]]; then
  build_step cmake -S "${root}/benchmark" -B "${build}/bench" \
    "${generator[@]}" -DCMAKE_BUILD_TYPE=Release \
    -DPROMPTEM_ROOT="${root}" -DPROMPTEM_BUILD_DIR="${build}/main"
fi
build_step cmake --build "${build}/bench" -j "${jobs}"

# One pool lane per core for the in-process workloads; the daemon under
# test gets one fewer (see serve_workloads.cc).
export PROMPTEM_NUM_THREADS="${jobs}"
bench=("${build}/bench/promptem_bench" --root "${root}"
       --serve-bin "${build}/main/tools/promptem_serve"
       --work-dir "${build}/runs")

for arg in "$@"; do
  if [[ "${arg}" == "--workload" ]]; then exec "${bench[@]}" "$@"; fi
done

# A fresh process per workload: peak_rss_mb of an in-process workload is
# the process's high-water mark, which must not hold an earlier
# workload's peak.
status=0
for workload in serve_uniform serve_hot table_match incremental_delta; do
  code=0
  "${bench[@]}" --workload "${workload}" "$@" || code=$?
  if (( code == 2 )); then exit 2; fi
  if (( code > status )); then status=${code}; fi
done
exit "${status}"

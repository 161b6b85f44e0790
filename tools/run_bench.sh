#!/usr/bin/env bash
# Re-records BENCH_micro.json from a Release build.
#
# Usage: tools/run_bench.sh [build-dir] [extra benchmark flags...]
#
# Configures (or reuses) a Release build directory — build-bench by
# default — verifies it really is a plain Release configuration (no
# sanitizer), builds bench_micro_kernels, and runs it from the repo root
# so it rewrites the checked-in BENCH_micro.json. The binary itself also
# refuses to record from a non-Release build, so a mis-configured cache
# fails twice. Extra flags (e.g. --benchmark_filter=Attention) are passed
# through; a --benchmark_out flag would redirect the report and skip the
# re-record, so don't pass one when refreshing BENCH_micro.json.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

build_dir="${1:-build-bench}"
if [[ $# -gt 0 ]]; then shift; fi

cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null

cache="${build_dir}/CMakeCache.txt"
build_type="$(grep -E '^CMAKE_BUILD_TYPE:' "${cache}" | cut -d= -f2-)"
sanitize="$(grep -E '^PROMPTEM_SANITIZE:' "${cache}" | cut -d= -f2- || true)"
if [[ "${build_type}" != "Release" ]]; then
  echo "run_bench.sh: ${build_dir} is configured as '${build_type}'," \
       "not Release; refusing to record. Use a fresh build dir." >&2
  exit 1
fi
if [[ -n "${sanitize}" ]]; then
  echo "run_bench.sh: ${build_dir} is a sanitizer build" \
       "(PROMPTEM_SANITIZE=${sanitize}); refusing to record." >&2
  exit 1
fi

cmake --build "${build_dir}" -j "$(nproc)" --target bench_micro_kernels

# Run from the repo root: without an explicit --benchmark_out the binary
# writes BENCH_micro.json into the working directory.
"${build_dir}/bench/bench_micro_kernels" "$@"
echo "run_bench.sh: recorded $(pwd)/BENCH_micro.json"

# A --benchmark_filter pass records only part of the baseline: warn
# about every registered benchmark the refreshed file lacks.
if ! tools/check_bench_ledger.sh "${build_dir}"; then
  echo "run_bench.sh: warning: BENCH_micro.json lacks the benchmarks" \
       "above (filtered run? re-run without --benchmark_filter to record" \
       "the full baseline)" >&2
fi

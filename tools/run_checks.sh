#!/usr/bin/env bash
# Runs the full check matrix: the plain Release test suite with the
# micro-bench ledger check, the same suite again with the portable
# kernels pinned (PROMPTEM_FORCE_SCALAR=1), the ASan-labeled suite (which
# includes the fault-injection sweeps), and the TSan-labeled suite.
#
# Usage: tools/run_checks.sh [extra ctest flags...]
#
# Build directories: build-checks (Release), build-asan, build-tsan.
# Existing directories are reused; delete them for a from-scratch run.
# Extra flags (e.g. -R Checkpoint) are passed to every ctest invocation.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc)"

run_suite() {
  local build_dir="$1"
  local label="$2"
  shift 2
  echo "=== ${build_dir} ($*) ==="
  cmake -B "${build_dir}" -S . "$@" >/dev/null
  cmake --build "${build_dir}" -j "${jobs}" >/dev/null
  if [[ -n "${label}" ]]; then
    ctest --test-dir "${build_dir}" --output-on-failure -L "${label}" \
          -j "${jobs}" "${extra_flags[@]}"
  else
    ctest --test-dir "${build_dir}" --output-on-failure \
          -j "${jobs}" "${extra_flags[@]}"
  fi
}

extra_flags=("$@")

# 0. One level of parallelism: tensor kernels and nn modules run on the
#    calling thread, so nothing under src/tensor or src/nn may include the
#    pool or call ParallelFor (as CI's tier1 job checks).
if grep -rnE 'ParallelFor|thread_pool\.h' src/tensor src/nn; then
  echo "run_checks.sh: src/tensor and src/nn must not use the pool;" \
       "parallelize across samples (DESIGN.md section 5)" >&2
  exit 1
fi

# 1. The whole suite under a plain Release build, then the check that the
#    committed BENCH_micro.json records every micro bench (as CI's tier1
#    job does).
run_suite build-checks "" -DCMAKE_BUILD_TYPE=Release
tools/check_bench_ledger.sh build-checks

# 2. The same Release build with the scalar kernel table pinned, as CI's
#    scalar job runs it (on an AVX2 host step 1 runs the AVX2 table).
echo "=== build-checks (PROMPTEM_FORCE_SCALAR=1) ==="
PROMPTEM_FORCE_SCALAR=1 ctest --test-dir build-checks --output-on-failure \
  -j "${jobs}" "${extra_flags[@]}"

# 3. The memory-safety set (every "asan" label in tests/CMakeLists.txt:
#    pool determinism, the training runtime, execution engine, fused
#    attention, SIMD kernels, streaming pipeline, caches, hash index,
#    serving, fault injection, and the JSON/CSV/JSONL parsers and loaders)
#    under AddressSanitizer.
run_suite build-asan asan -DPROMPTEM_SANITIZE=address

# 4. The concurrency set (every "tsan" label: pool determinism, the
#    training runtime's data-parallel TrainLoop, the execution engine and
#    its sweep-shared prompt rows, fused attention, SIMD kernels,
#    streaming pipeline, caches, hash index, serving) under
#    ThreadSanitizer. Every "cache" suite also carries "tsan", so this
#    matches CI's -L "tsan|cache".
run_suite build-tsan tsan -DPROMPTEM_SANITIZE=thread

echo "run_checks.sh: all suites passed"

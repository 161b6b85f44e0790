#!/usr/bin/env bash
# Checks that the committed BENCH_micro.json records every benchmark that
# bench_micro_kernels registers (its --benchmark_list_tests output). Prints
# each missing name and exits 1 when any is missing.
#
# Usage: tools/check_bench_ledger.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

build_dir="${1:-build}"
bench="${build_dir}/bench/bench_micro_kernels"
if [[ ! -x "${bench}" ]]; then
  echo "check_bench_ledger: missing ${bench} (build it first)" >&2
  exit 1
fi

# Listing from the repo root also checks that listing leaves the ledger
# alone: a truncated BENCH_micro.json fails every name below. A run with
# --benchmark_repetitions may keep only aggregates, whose "name" carries
# a suffix (_mean, ...) but whose "run_name" is the listed name.
names="$("${bench}" --benchmark_list_tests)"
missing=0
while IFS= read -r name; do
  if ! grep -qF "\"name\": \"${name}\"," BENCH_micro.json &&
     ! grep -qF "\"run_name\": \"${name}\"," BENCH_micro.json; then
    echo "check_bench_ledger: ${name} missing from BENCH_micro.json" >&2
    missing=1
  fi
done <<< "${names}"
exit "${missing}"

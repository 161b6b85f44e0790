#!/usr/bin/env bash
# Re-records BENCH_micro.json from a Release build.
#
# Usage: tools/run_bench.sh [build-dir] [extra benchmark flags...]
#
# Configures (or reuses) a Release build directory — build-bench by
# default — verifies it really is a plain Release configuration (no
# sanitizer), builds bench_micro_kernels, and runs it from the repo root.
# Extra flags are passed through to the binary.
#
# Without --benchmark_filter the run rewrites the whole BENCH_micro.json.
# With --benchmark_filter=REGEX the run is a partial re-record: it writes
# to a temporary report, and the entries it ran replace the ledger's
# entries of the same name in place (names the ledger lacks are
# appended). Every other entry and the context block are kept, and the
# context's "promptem_partial_rerecord" key gains "<UTC date> <REGEX>".
# Splicing needs jq. Do not pass --benchmark_out: the report path is
# this script's to choose.
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

bench="${build_dir}/bench/bench_micro_kernels"
filter=""
for arg in "$@"; do
  if [[ "${arg}" == --benchmark_filter=* ]]; then
    filter="${arg#--benchmark_filter=}"
  fi
done

if [[ -z "${filter}" ]]; then
  # Run from the repo root: without an explicit --benchmark_out the
  # binary writes BENCH_micro.json into the working directory.
  "${bench}" "$@"
  echo "run_bench.sh: recorded $(pwd)/BENCH_micro.json"
else
  if ! command -v jq >/dev/null 2>&1; then
    echo "run_bench.sh: a --benchmark_filter run splices into" \
         "BENCH_micro.json with jq, which is not installed" >&2
    exit 1
  fi
  run="$(mktemp "${build_dir}/partial_run.XXXXXX")"
  ledger="$(mktemp "${build_dir}/partial_ledger.XXXXXX")"
  trap 'rm -f "${run}" "${ledger}"' EXIT
  "${bench}" "$@" --benchmark_out="${run}" --benchmark_out_format=json
  stamp="$(date -u +%Y-%m-%dT%H:%M:%S+00:00) ${filter}"
  # Entries are keyed by run_name when present, so a run with
  # --benchmark_repetitions replaces a name's repetitions and aggregates
  # together.
  jq --slurpfile run "${run}" --arg stamp "${stamp}" '
    def key: .run_name // .name;
    ($run[0].benchmarks) as $new
    | ([$new[] | key]) as $new_keys
    | ([.benchmarks[] | key]) as $old_keys
    | .context.promptem_partial_rerecord =
        ([.context.promptem_partial_rerecord // empty, $stamp] | join("; "))
    | .benchmarks = (
        (reduce .benchmarks[] as $b ({out: [], done: []};
           ($b | key) as $k
           | if ($new_keys | any(. == $k) | not) then .out += [$b]
             elif (.done | any(. == $k)) then .
             else .out += [$new[] | select(key == $k)] | .done += [$k]
             end)
         | .out)
        + [$new[] | key as $k | select($old_keys | any(. == $k) | not)])
  ' BENCH_micro.json > "${ledger}"
  mv "${ledger}" BENCH_micro.json
  echo "run_bench.sh: spliced the entries matching ${filter} into" \
       "$(pwd)/BENCH_micro.json"
fi

# Every registered benchmark must still have a ledger entry.
tools/check_bench_ledger.sh "${build_dir}"

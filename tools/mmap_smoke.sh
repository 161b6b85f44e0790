#!/usr/bin/env bash
# Constrained-memory smoke of the storage-backed blocking index: run the
# 1M-row synthetic blocking report under a heap ceiling sized so the
# in-RAM band tables cannot fit but the mmap-backed ones can. The RAM
# run must die (bad_alloc under the rlimit); the --index-dir run must
# finish and report its band bytes on disk with zero in RAM. This is
# the one place CI proves the mmap backend actually changes the memory
# envelope rather than just passing the same tests twice. Before that,
# it checks that an unusable --index-dir is refused with exit 2.
#
# The ceiling is RLIMIT_DATA (`ulimit -d`), not RLIMIT_AS (`ulimit -v`):
# since Linux 4.7 RLIMIT_DATA charges brk plus private anonymous
# mappings — i.e. the heap — but NOT file-backed shared mappings, so the
# mmap-attached band indexes stay free while the RAM backend's 800M+ of
# postings count. RLIMIT_AS would charge the file mappings too and
# defeat the point of the comparison.
#
# Usage: tools/mmap_smoke.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

build_dir="${1:-build}"
cli="${build_dir}/tools/promptem_cli"
if [[ ! -x "${cli}" ]]; then
  echo "mmap_smoke: missing ${cli} (build the 'tools' targets first)" >&2
  exit 1
fi

rows="${MMAP_SMOKE_ROWS:-1000000}"
# Measured at 1M rows (nproc=1): both backends need ~1.8G of heap for
# the tables + signatures; the RAM backend adds ~830M of band postings
# on top (peak RSS 2.6G) while the mmap backend stages one band at a
# time and keeps the sealed images on disk. 2200M sits between the two
# with a few hundred MB of margin on each side.
limit_kb="${MMAP_SMOKE_LIMIT_KB:-$((2200 * 1024))}"

# glibc can reserve a 64M arena per contending thread; those private
# anonymous maps charge RLIMIT_DATA even when barely touched, so cap
# them to keep the margin about real heap demand, not reservations.
export MALLOC_ARENA_MAX=2

scratch="$(mktemp -d)"
trap 'rm -rf "${scratch}"' EXIT

# A --index-dir the blocker cannot write its band files into must be
# refused up front with exit 2 and the path named, not abort mid-build.
expect_bad_index_dir() {
  local dir="$1"
  local log="${scratch}/bad_dir.log"
  local code=0
  "${cli}" --blocking-report --synthetic 200 --blocker minhash \
    --index-dir "${dir}" >"${log}" 2>&1 || code=$?
  if (( code != 2 )) || ! grep -qF -- "--index-dir ${dir}:" "${log}"; then
    echo "mmap_smoke: FAIL — --index-dir ${dir} gave exit ${code}," \
         "expected 2 with the path named" >&2
    cat "${log}" >&2
    exit 1
  fi
}
: > "${scratch}/not_a_dir"
expect_bad_index_dir "${scratch}/not_a_dir"
expect_bad_index_dir "${scratch}/missing_parent/bands"
echo "mmap_smoke: unusable --index-dir paths exit 2"

run_limited() {
  local log="$1"
  shift
  # Subshell so the rlimit dies with the run; exec so the limit applies
  # to the CLI itself rather than an intermediate shell.
  (
    ulimit -S -d "${limit_kb}"
    exec "${cli}" "$@"
  ) >"${log}" 2>&1
}

echo "mmap_smoke: ${rows}-row blocking report under ulimit -d ${limit_kb}K"

ram_log="${scratch}/ram.log"
if run_limited "${ram_log}" --blocking-report --synthetic "${rows}" \
    --blocker minhash; then
  echo "mmap_smoke: FAIL — RAM-backed band tables survived the rlimit;" \
       "the limit no longer constrains anything" >&2
  tail -5 "${ram_log}" >&2
  exit 1
fi
echo "mmap_smoke: RAM backend died under the limit, as intended"

mmap_log="${scratch}/mmap.log"
if ! run_limited "${mmap_log}" --blocking-report --synthetic "${rows}" \
    --blocker minhash --index-dir "${scratch}/bands"; then
  echo "mmap_smoke: FAIL — mmap-backed run died under the same limit" >&2
  tail -20 "${mmap_log}" >&2
  exit 1
fi

# The run finishing is not enough: assert it really kept the postings
# on disk and still produced a usable candidate stream.
if ! grep -q "0B in RAM" "${mmap_log}"; then
  echo "mmap_smoke: FAIL — mmap run reports band bytes in RAM" >&2
  grep "minhash index" "${mmap_log}" >&2 || true
  exit 1
fi
if ! grep -q "on disk" "${mmap_log}"; then
  echo "mmap_smoke: FAIL — mmap run reports no on-disk index bytes" >&2
  exit 1
fi
if ! grep -Eq "^\| minhash" "${mmap_log}"; then
  echo "mmap_smoke: FAIL — no blocking-report row in mmap output" >&2
  cat "${mmap_log}" >&2
  exit 1
fi

echo "mmap_smoke: mmap backend passed under the same limit:"
grep -E "^\| (blocker|minhash)|peak RSS|minhash index" "${mmap_log}"
echo "mmap_smoke: OK"

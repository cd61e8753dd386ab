#!/usr/bin/env bash
# Run every experiment bench and merge their JSON results into one
# machine-readable file at the repo root (BENCH_streams.json), which CI
# archives as an artifact and gates on (see .github/workflows/ci.yml).
#
#   bench/run_all.sh [--quick] [--build-dir DIR] [--out FILE]
#
# Extra arguments after `--` are passed through to every bench
# (e.g. `bench/run_all.sh -- --runs 5 --messages 300`).
#
# Failure discipline: `set -e` alone is not enough — a bench invocation
# that ever grows a `| tee`-style consumer, or runs inside a context that
# disables errexit (command substitution, `if` guards), would swallow the
# bench's exit code.  So every bench run below also carries an explicit
# `|| { ...; exit 1; }` wrapper, and `pipefail` is set so any future
# pipeline stage failing is fatal too.  (Audit 2026-08: the merge step's
# `tr -d '\n' < file` redirections are not pipelines; the only pipelines
# this script could grow are around the bench invocations, which the
# explicit wrappers already cover.)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"
out_file="${repo_root}/BENCH_streams.json"
bench_args=()
passthrough=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) bench_args+=(--quick); shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --out) out_file="$2"; shift 2 ;;
    --) shift; passthrough=("$@"); break ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

# Top-level merged-file schema.  Distinct from the per-bench
# schema_version (bench/support.hpp): this one covers the envelope below.
suite_schema_version=2

# New benches go at the end so existing entries keep their positions in
# the merged file.  micro_simulator stays out: it measures wall-clock time.
benches=(fig09_throughput_outstanding fig12_message_size ext_coalescing
         ext_batching ext_striping ext_manystream ext_openloop
         fig10_cpu_usage fig11_outstanding_sends fig13_wan_delay
         table3_mode_switches ext_latency ext_jitter ext_bursty ext_mux
         ext_busy_poll ext_rendezvous abl_buffer_size abl_ack_threshold
         abl_credits abl_wwi_emulation)
# Benches that also emit a per-stage latency provenance document
# (--latency-json, see docs/OBSERVABILITY.md "Latency provenance"), in
# their order in the merged file.
latency_benches=(ext_latency ext_manystream)

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

require_bin() {
  if [[ ! -x "$1" ]]; then
    echo "missing bench binary: $1 (build the exs_benches target first)" >&2
    exit 1
  fi
}

# A bench that exits 0 but writes no (or an empty) results document would
# otherwise surface only as a cryptic redirect error — or an empty entry —
# at merge time; fail at the offending bench instead.
require_json() {
  if [[ ! -s "$2" ]]; then
    echo "bench $1 emitted no results JSON at $2" >&2
    exit 1
  fi
}

json_files=()
for bench in "${benches[@]}"; do
  bin="${build_dir}/bench/${bench}"
  require_bin "${bin}"
  json="${tmp_dir}/${bench}.json"
  extra=()
  # Latency benches collect their span breakdown in the same invocation.
  for lb in "${latency_benches[@]}"; do
    if [[ "${lb}" == "${bench}" ]]; then
      extra+=(--latency-json "${tmp_dir}/${bench}.latency.json")
    fi
  done
  echo "== ${bench} =="
  "${bin}" "${bench_args[@]}" "${passthrough[@]}" --json "${json}" \
    "${extra[@]}" || { echo "bench ${bench} failed (exit $?)" >&2; exit 1; }
  require_json "${bench}" "${json}"
  json_files+=("${json}")
done

latency_files=()
for bench in "${latency_benches[@]}"; do
  require_json "${bench}" "${tmp_dir}/${bench}.latency.json"
  latency_files+=("${tmp_dir}/${bench}.latency.json")
done

# Merge: one top-level object keyed by bench name.  Each bench emitted a
# single-line JSON object with a "bench" discriminator; stitching them
# preserves every byte of the per-bench payloads.
join_json() {
  local sep=''
  for json in "$@"; do
    printf '%s' "${sep}"
    sep=','
    tr -d '\n' < "${json}"
  done
}
{
  printf '{"suite":"exs-stream-benches","schema_version":%s,"benches":[' \
    "${suite_schema_version}"
  join_json "${json_files[@]}"
  printf '],"latency":['
  join_json "${latency_files[@]}"
  printf ']}\n'
} > "${out_file}"

echo "merged results written to ${out_file}"

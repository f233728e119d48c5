#!/usr/bin/env bash
# Runs the full bench suite and collects machine-readable results: each
# binary writes BENCH_<name>.json (wall time, events/sec, peak RSS,
# convergence summaries) into the output directory. Compare JSON files
# across commits to track the perf trajectory (docs/performance.md).
#
# Usage: bench/run_suite.sh [build_dir] [out_dir] [extra bench flags...]
#   build_dir  defaults to ./build
#   out_dir    defaults to ./bench-results
# Extra flags are passed to every binary, e.g. --threads 8 or --full=true.
#
# Flags only some binaries understand must not go through the shared extra
# flags (an unknown flag is a per-bench usage error, exit 2). Per-bench
# extras come from BSVC_<NAME>_FLAGS environment variables instead, e.g.
#   BSVC_SCALE_FLAGS="--shards 8 --xl --max-cycles 10" bench/run_suite.sh
# appends those flags to the scale invocation only.
set -euo pipefail

build_dir="${1:-build}"
out_dir="${2:-bench-results}"
shift $(( $# >= 2 ? 2 : $# )) || true

benches=(
  fig4_message_drop
  churn
  param_sweep
  ablation_feedback
  chord_on_demand
  baseline_join
  proximity_k
  massive_join
  merge_split
  partition_heal
  newscast_service
  adversary
  scale
  workload
  degradation
)

# Benches that support per-replica JSONL event traces (--trace); the suite
# archives those next to the JSON reports for offline analysis. `scale`
# traces only its repeats (rep >= 1), so its timed tiers stay comparable
# with CI's untraced command and the committed baseline.
traced=(scale fig4_message_drop churn)

# Benches that carry an allocation census (the counting allocator +
# per-tier "alloc" report section). These always emit the census, so a
# report without it means the bench silently lost the instrumentation.
census=(scale)

mkdir -p "${out_dir}"

# A failing bench must not abort the suite: run everything, record which
# benches failed, and exit nonzero at the end with a summary.
failed=()

for bench in "${benches[@]}"; do
  bin="${build_dir}/bench/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "skip ${bench}: ${bin} not built" >&2
    continue
  fi
  trace_flags=()
  for t in "${traced[@]}"; do
    if [[ "${bench}" == "${t}" ]]; then
      trace_flags=(--trace "${out_dir}/TRACE_${bench}")
    fi
  done
  # Per-bench extra flags from BSVC_<NAME>_FLAGS (word-split on purpose).
  extra_var="BSVC_$(echo "${bench}" | tr '[:lower:]' '[:upper:]')_FLAGS"
  read -r -a extra_flags <<< "${!extra_var:-}"
  echo "=== ${bench} ===" >&2
  status=0
  "${bin}" --json "${out_dir}/BENCH_${bench}.json" "${trace_flags[@]}" "$@" \
    ${extra_flags[@]+"${extra_flags[@]}"} \
    > "${out_dir}/${bench}.out" || status=$?
  if (( status != 0 )); then
    echo "FAIL ${bench} (exit ${status})" >&2
    failed+=("${bench}")
    continue
  fi
  # A --spans run must surface the span aggregate: a report missing its
  # "spans" section means the bench silently dropped the observability the
  # caller asked for, and the suite's summary should say so.
  all_flags=" $* ${extra_flags[*]+${extra_flags[*]}} "
  if [[ "${all_flags}" == *" --spans "* || "${all_flags}" == *" --spans=true "* ]] \
     && ! grep -q '"spans"' "${out_dir}/BENCH_${bench}.json" 2>/dev/null; then
    echo "FAIL ${bench}: --spans was passed but the report has no \"spans\" section" >&2
    failed+=("${bench}")
  fi
  # Census-capable benches must emit their "alloc" section unconditionally;
  # a report without it previously passed silently, hiding a lost census.
  for c in "${census[@]}"; do
    if [[ "${bench}" == "${c}" ]] \
       && ! grep -q '"alloc"' "${out_dir}/BENCH_${bench}.json" 2>/dev/null; then
      echo "FAIL ${bench}: census bench report has no \"alloc\" section" >&2
      failed+=("${bench}")
    fi
  done
done

# Micro benchmarks use google-benchmark's native JSON reporter.
micro="${build_dir}/bench/micro_ops"
if [[ -x "${micro}" ]]; then
  echo "=== micro_ops ===" >&2
  status=0
  "${micro}" --benchmark_format=json > "${out_dir}/BENCH_micro_ops.json" || status=$?
  if (( status != 0 )); then
    echo "FAIL micro_ops (exit ${status})" >&2
    failed+=(micro_ops)
  fi
fi

echo "results in ${out_dir}/" >&2
if (( ${#failed[@]} > 0 )); then
  echo "FAILED benches (${#failed[@]}): ${failed[*]}" >&2
  exit 1
fi

#!/usr/bin/env bash
# Benchmark driver: regenerates the tracked BENCH_*.json documents at the
# repo root and validates each emitted document.
#
#   ./scripts/bench.sh                 full run of every bench:
#                                      BENCH_hotpath.json (Agnews,
#                                      5 iterations/kernel, docs/perf.md),
#                                      BENCH_obs.json (observer overhead,
#                                      docs/observability.md), and
#                                      BENCH_serve.json (serve traffic,
#                                      docs/serving.md)
#   ./scripts/bench.sh hotpath [...]   just the hot-path kernels
#   ./scripts/bench.sh obs [...]       just the observer-overhead bench
#   ./scripts/bench.sh serve [...]     just the serve traffic simulation
#                                      (BENCH_serve.json, docs/serving.md)
#   ./scripts/bench.sh e2e             the end-to-end benchmark: every
#                                      BENCHMARK.json workload once at
#                                      --seed 1 --seconds 15 --trace 0,
#                                      final JSON lines to BENCH_e2e.json
#                                      (not part of the full run)
#   ./scripts/bench.sh --check         smoke mode: one short iteration of
#                                      every bench into temp files, schema
#                                      check only, no timing thresholds
#                                      (wired into scripts/check.sh)
#   ./scripts/bench.sh --check e2e     the end-to-end benchmark's --smoke
#                                      run: every output check passes and
#                                      every end-to-end metric is reported
#
# Extra arguments after a bench name are passed through to that binary
# (e.g. ./scripts/bench.sh hotpath --dataset youtube --scale 0.5).
set -euo pipefail
cd "$(dirname "$0")/.."

mode="full"
if [ "${1:-}" = "--check" ]; then
  mode="check"
  shift
fi

bench="${1:-all}"
if [ $# -gt 0 ]; then shift; fi

fail() { echo "FAIL: $1 (in $2)" >&2; exit 1; }

# Schema validation: the v1 document marker, the RSS field, and one entry
# per required kernel (columnar kernels, their row-major baselines, the
# end-model fit and the simulated LLM's label-only annotation).
validate_hotpath() {
  local out="$1"
  grep -q '"schema": "datasculpt-bench-hotpath/v1"' "$out" \
    || fail "missing schema marker datasculpt-bench-hotpath/v1" "$out"
  grep -q '"peak_rss_kb": [0-9]' "$out" || fail "missing peak_rss_kb" "$out"
  for kernel in index-build lf-apply lf-apply-rowscan-baseline \
                metal-e-step metal-e-step-rowmajor-baseline tfidf \
                endmodel-fit llm-annotate; do
    grep -q "\"name\": \"$kernel\", \"median_ns_per_op\": [0-9]" "$out" \
      || fail "missing kernel entry $kernel" "$out"
  done
  echo "bench.sh: $out valid (schema datasculpt-bench-hotpath/v1)"
}

# Schema validation: one entry per observer stack, each with a derived
# per-event cost.
validate_obs() {
  local out="$1"
  grep -q '"schema": "datasculpt-bench-obs/v1"' "$out" \
    || fail "missing schema marker datasculpt-bench-obs/v1" "$out"
  grep -q '"events": [0-9]' "$out" || fail "missing events" "$out"
  for kernel in noop tracer-metrics tracer-jsonl tracer-full; do
    grep -q "\"name\": \"$kernel\", \"median_ns_per_op\": [0-9]" "$out" \
      || fail "missing kernel entry $kernel" "$out"
  done
  grep -q '"ns_per_event": [0-9]' "$out" || fail "missing ns_per_event" "$out"
  echo "bench.sh: $out valid (schema datasculpt-bench-obs/v1)"
}

# Schema validation: the traffic/latency figures and the budget audit.
validate_serve() {
  local out="$1"
  grep -q '"schema": "datasculpt-bench-serve/v1"' "$out" \
    || fail "missing schema marker datasculpt-bench-serve/v1" "$out"
  grep -q '"tenants": [0-9]' "$out" || fail "missing tenants" "$out"
  for field in completed rejected paused rounds round_p50_ns round_p95_ns \
               jobs_per_sec_milli budget_violation_tenants \
               max_overdraft_nanousd total_cost_nanousd; do
    grep -q "\"$field\": [0-9]" "$out" || fail "missing $field" "$out"
  done
  grep -q '"peak_rss_kb": [0-9]' "$out" || fail "missing peak_rss_kb" "$out"
  echo "bench.sh: $out valid (schema datasculpt-bench-serve/v1)"
}

# The end-to-end benchmark's command and workloads, as BENCHMARK.json
# declares them (one per line).
benchmark_field() {
  python3 -c 'import json, sys
for item in json.load(open("BENCHMARK.json"))[sys.argv[1]]:
    print(item if isinstance(item, str) else item["name"])' "$1"
}

# Output validation: every JSON result line is correct with no failed
# operation, and names every end-to-end metric.
validate_e2e() {
  local out="$1" metric
  grep -q '^{"correct": true' "$out" || fail "no result line" "$out"
  if grep '^{"correct"' "$out" | grep -qv '^{"correct": true'; then
    fail "a run reported incorrect output" "$out"
  fi
  if grep '^{"correct"' "$out" | grep -qv '"failed": 0,'; then
    fail "a run reported failed operations" "$out"
  fi
  while read -r metric; do
    grep -q "\"$metric\": {\"value\": " "$out" || fail "missing metric $metric" "$out"
  done < <(benchmark_field end_to_end)
  echo "bench.sh: $out valid (e2ebench results)"
}

run_e2e() {
  local cmd=() workload line raw tagged
  mapfile -t cmd < <(benchmark_field command)
  raw="$(mktemp /tmp/ds-bench-e2e.XXXXXX.txt)"
  if [ "$mode" = "check" ]; then
    "${cmd[@]}" --smoke "$@" > "$raw" || fail "e2ebench --smoke failed" "$raw"
    validate_e2e "$raw"
    rm -f "$raw"
    return
  fi
  tagged="$(mktemp /tmp/ds-bench-e2e-tagged.XXXXXX.txt)"
  while read -r workload; do
    line="$("${cmd[@]}" --workload "$workload" --seed 1 --seconds 15 --trace 0 "$@" | tail -n 1)"
    echo "$line" >> "$raw"
    echo "{\"workload\": \"$workload\", \"seed\": 1, \"result\": $line}" >> "$tagged"
  done < <(benchmark_field workloads)
  # Validate before writing, so a failed run never replaces the file.
  validate_e2e "$raw"
  {
    echo '{'
    echo '  "schema": "datasculpt-bench-e2e/v1",'
    echo '  "runs": ['
    sed -e 's/^/    /' -e '$!s/$/,/' "$tagged"
    echo '  ]'
    echo '}'
  } > BENCH_e2e.json
  rm -f "$raw" "$tagged"
  echo "bench.sh: wrote BENCH_e2e.json"
}

run_hotpath() {
  if [ "$mode" = "check" ]; then
    local out
    out="$(mktemp /tmp/ds-bench-hotpath.XXXXXX.json)"
    cargo run -q --release -p datasculpt-bench --bin hotpath -- \
      --check --out "$out" "$@"
    validate_hotpath "$out"
    rm -f "$out"
  else
    cargo run -q --release -p datasculpt-bench --bin hotpath -- \
      --out BENCH_hotpath.json "$@"
    validate_hotpath BENCH_hotpath.json
  fi
}

run_obs() {
  if [ "$mode" = "check" ]; then
    local out
    out="$(mktemp /tmp/ds-bench-obs.XXXXXX.json)"
    cargo run -q --release -p datasculpt-bench --bin obsbench -- \
      --check --out "$out" "$@"
    validate_obs "$out"
    rm -f "$out"
  else
    cargo run -q --release -p datasculpt-bench --bin obsbench -- \
      --out BENCH_obs.json "$@"
    validate_obs BENCH_obs.json
  fi
}

run_serve() {
  if [ "$mode" = "check" ]; then
    local out
    out="$(mktemp /tmp/ds-bench-serve.XXXXXX.json)"
    cargo run -q --release -p datasculpt-bench --bin servebench -- \
      --check --out "$out" "$@"
    validate_serve "$out"
    rm -f "$out"
  else
    cargo run -q --release -p datasculpt-bench --bin servebench -- \
      --out BENCH_serve.json "$@"
    validate_serve BENCH_serve.json
  fi
}

case "$bench" in
  all)     run_hotpath; run_obs; run_serve ;;
  hotpath) run_hotpath "$@" ;;
  obs)     run_obs "$@" ;;
  serve)   run_serve "$@" ;;
  e2e)     run_e2e "$@" ;;
  *)       echo "unknown bench '$bench' (all|hotpath|obs|serve|e2e)" >&2; exit 2 ;;
esac

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
#   ./scripts/bench.sh --check         smoke mode: one short iteration of
#                                      every bench into temp files, schema
#                                      check only, no timing thresholds
#                                      (wired into scripts/check.sh)
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
# per required kernel (columnar kernels, their row-major baselines, and
# the end-model fit).
validate_hotpath() {
  local out="$1"
  grep -q '"schema": "datasculpt-bench-hotpath/v1"' "$out" \
    || fail "missing schema marker datasculpt-bench-hotpath/v1" "$out"
  grep -q '"peak_rss_kb": [0-9]' "$out" || fail "missing peak_rss_kb" "$out"
  for kernel in index-build lf-apply lf-apply-rowscan-baseline \
                metal-e-step metal-e-step-rowmajor-baseline tfidf \
                endmodel-fit; do
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
  *)       echo "unknown bench '$bench' (all|hotpath|obs|serve)" >&2; exit 2 ;;
esac

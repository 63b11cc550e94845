#!/usr/bin/env bash
# Repo gate: formatting, lints, and the full test suite.
# Run from the repo root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> committed result CSVs cover all six datasets"
# ablation_design.csv covers three datasets by design and is exempt.
for csv in results/table2.csv results/table3.csv results/table4.csv \
           results/table5.csv results/fig3_tokens.csv results/fig4_cost.csv; do
  header="$(head -n 1 "$csv")"
  for dataset in youtube sms imdb yelp agnews spouse; do
    case ",$header," in
      *",$dataset,"*) ;;
      *) echo "FAIL: $csv has no $dataset column (header: $header)" >&2; exit 1 ;;
    esac
  done
done

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ds-lint (panic-freedom / determinism / ledger integrity)"
mkdir -p results
if ! cargo run -q -p datasculpt-xtask -- lint --json > results/lint.json; then
  echo "FAIL: ds-lint reported findings (see results/lint.json)" >&2
  exit 1
fi

echo "==> ds-lint --fix-dry-run (a clean tree must propose zero edits)"
if ! cargo run -q -p datasculpt-xtask -- lint --fix-dry-run; then
  echo "FAIL: ds-lint --fix-dry-run proposed edits on a clean tree" >&2
  exit 1
fi

echo "==> one hash module (FNV-1a and SplitMix64 constants only in crates/obs/src/hash.rs)"
# The FNV-1a-64 and FNV-1a-128 offset bases and the SplitMix64 multiplier,
# matched in any case and with `_` anywhere between digits. Test oracles
# under tests/ are outside crates/*/src and stay independent.
hash_pattern="$(printf '%s\n' cbf29ce484222325 6c62272e07bb014262b821756295c58d bf58476d1ce4e5b9 \
  | sed 's/./&_*/g' | paste -sd '|')"
if grep -rniE "$hash_pattern" crates/*/src | grep -v '^crates/obs/src/hash\.rs:'; then
  echo "FAIL: a hash constant outside crates/obs/src/hash.rs (use datasculpt_obs::hash)" >&2
  exit 1
fi

echo "==> cargo test"
cargo test -q --workspace

echo "==> trace smoke test (emit a JSONL trace, validate it against the schema)"
trace_file="$(mktemp /tmp/ds-trace.XXXXXX.jsonl)"
trace_file_b="$(mktemp /tmp/ds-trace-b.XXXXXX.jsonl)"
store_a="$(mktemp -d /tmp/ds-store-a.XXXXXX)"
store_b="$(mktemp -d /tmp/ds-store-b.XXXXXX)"
trap 'rm -f "$trace_file" "$trace_file_b"; rm -rf "$store_a" "$store_b" "${serve_dir:-}"; [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
cargo run -q -p datasculpt --bin datasculpt -- \
  run youtube --scale 0.05 --queries 5 --revise --cache 256 \
  --trace "$trace_file" --metrics > /dev/null
cargo run -q -p datasculpt --bin datasculpt -- trace check "$trace_file"
# trace-check is the pre-PR-9 spelling, kept as an alias; exercise it too.
cargo run -q -p datasculpt --bin datasculpt -- trace-check "$trace_file" > /dev/null

echo "==> trace diff smoke test (same-seed runs at --threads 1 vs 8 diff empty)"
cargo run -q -p datasculpt --bin datasculpt -- \
  run youtube --scale 0.05 --queries 5 --revise --cache 256 --threads 8 \
  --trace "$trace_file_b" > /dev/null
if ! cargo run -q -p datasculpt --bin datasculpt -- \
    trace diff "$trace_file" "$trace_file_b"; then
  echo "FAIL: trace diff of same-seed runs is non-empty" >&2
  exit 1
fi

echo "==> trace analyze golden fixture (CLI output matches tests/fixtures/)"
analyze_out="$(mktemp /tmp/ds-analyze.XXXXXX.json)"
cargo run -q -p datasculpt --bin datasculpt -- \
  trace analyze tests/fixtures/trace_small.jsonl --json > "$analyze_out"
if ! diff -u tests/fixtures/trace_small_analyze.json "$analyze_out"; then
  echo "FAIL: trace analyze --json drifted from the golden fixture" >&2
  echo "  (intentional change? DS_REGEN_FIXTURES=1 cargo test --test trace_analytics)" >&2
  rm -f "$analyze_out"
  exit 1
fi
rm -f "$analyze_out"

echo "==> trace check/analyze/flame/expo fixtures (CLI output matches tests/fixtures/)"
for report in check analyze flame expo; do
  report_out="$(mktemp /tmp/ds-trace-report.XXXXXX.txt)"
  cargo run -q -p datasculpt --bin datasculpt -- \
    trace "$report" tests/fixtures/trace_small.jsonl > "$report_out"
  if ! diff -u "tests/fixtures/trace_small_$report.txt" "$report_out"; then
    echo "FAIL: trace $report drifted from tests/fixtures/trace_small_$report.txt" >&2
    echo "  (intentional change? DS_REGEN_FIXTURES=1 cargo test --test trace_analytics)" >&2
    rm -f "$report_out"
    exit 1
  fi
  rm -f "$report_out"
done

echo "==> hot-path bench smoke test (one iteration per kernel + JSON schema)"
./scripts/bench.sh --check

echo "==> end-to-end benchmark smoke test (e2ebench builds against the public API and passes its checks)"
./scripts/bench.sh --check e2e

echo "==> parallel determinism smoke test (serial vs 8-thread run digest)"
digest_at() {
  cargo run -q -p datasculpt --bin datasculpt -- \
    run youtube --scale 0.1 --queries 8 --threads "$1" --show-lfs 0 \
    | sed -n 's/^run digest: *//p'
}
serial_digest="$(digest_at 1)"
parallel_digest="$(digest_at 8)"
if [ -z "$serial_digest" ] || [ "$serial_digest" != "$parallel_digest" ]; then
  echo "FAIL: run digest differs across thread counts" >&2
  echo "  --threads 1: ${serial_digest:-<missing>}" >&2
  echo "  --threads 8: ${parallel_digest:-<missing>}" >&2
  exit 1
fi
echo "    digest ${serial_digest} identical at --threads 1 and 8"

echo "==> durable run smoke test (run, crash via injection, resume, compare digests)"
durable_run() { # durable_run <flag> <dir> [extra args...]
  local flag="$1" dir="$2"
  shift 2
  cargo run -q -p datasculpt --bin datasculpt -- \
    run youtube --scale 0.1 --queries 8 --show-lfs 0 "$flag" "$dir" "$@" \
    | sed -n 's/^run digest: *//p'
}
baseline_digest="$(durable_run --store "$store_a")"
# The same run, killed mid-flight by the injected abort; the directory it
# leaves behind must resume to the exact baseline digest.
durable_run --store "$store_b" --inject-crash-after 3 > /dev/null 2>&1 || true
resumed_digest="$(durable_run --resume "$store_b")"
if [ -z "$baseline_digest" ] || [ "$baseline_digest" != "$resumed_digest" ]; then
  echo "FAIL: resumed run digest differs from the uninterrupted run" >&2
  echo "  uninterrupted: ${baseline_digest:-<missing>}" >&2
  echo "  crash+resume:  ${resumed_digest:-<missing>}" >&2
  exit 1
fi
echo "    digest ${baseline_digest} identical for uninterrupted and crash+resume"

echo "==> serve smoke test (daemon over a unix socket: submit, budget reject, drain)"
serve_dir="$(mktemp -d /tmp/ds-serve.XXXXXX)"
serve_sock="$serve_dir/serve.sock"
serve_cli() { cargo run -q -p datasculpt --bin datasculpt -- serve "$@"; }
serve_cli start --socket "$serve_sock" --state "$serve_dir/state" --slots 2 &
serve_pid=$!
for _ in $(seq 1 50); do
  if serve_cli ping --socket "$serve_sock" > /dev/null 2>&1; then break; fi
  sleep 0.2
done
serve_cli submit youtube --socket "$serve_sock" --tenant acme \
  --budget 1000000000000 --scale 0.05 --queries 2 --seed 7 > /dev/null
serve_cli submit youtube --socket "$serve_sock" --tenant freeloader \
  --budget 0 --scale 0.05 --queries 2 --seed 8 > /dev/null
# The background scheduler runs the jobs on its own; poll the per-job
# states until both reach their verdicts, then drain (which also shuts
# the daemon down).
serve_status=""
for _ in $(seq 1 100); do
  serve_status="$(serve_cli status --socket "$serve_sock")"
  if echo "$serve_status" | grep -q '"tenant":"acme".*"state":"completed"' \
     && echo "$serve_status" | grep -q '"tenant":"freeloader".*"state":"rejected"'; then
    break
  fi
  sleep 0.2
done
echo "$serve_status" | grep -q '"tenant":"acme".*"state":"completed"' \
  || { echo "FAIL: funded serve job did not complete: $serve_status" >&2; exit 1; }
echo "$serve_status" | grep -q '"tenant":"freeloader".*"state":"rejected"' \
  || { echo "FAIL: zero-budget serve job was not rejected: $serve_status" >&2; exit 1; }
serve_cli drain --socket "$serve_sock" | grep -q '"drained":true' \
  || { echo "FAIL: serve drain did not ack" >&2; exit 1; }
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
echo "    daemon completed the funded job and rejected the unfunded one"

echo "==> all checks passed"

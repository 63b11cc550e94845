//! Trace-analytics contract (PR 9): the span-tree attribution must sum
//! exactly (integer nano-USD) to the run's ledger, `trace diff` must be
//! empty across thread counts for a same-seed run, the live
//! [`SpanTreeBuilder`] sink must agree with post-hoc trace parsing, and
//! `SharedObserver` fan-in from exec-pool worker threads must preserve
//! counter totals exactly.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use datasculpt::obs::{render_prometheus, report, Record};
use datasculpt::prelude::*;
use std::sync::{Arc, Mutex};

fn config(threads: usize) -> DataSculptConfig {
    let mut config = DataSculptConfig::base(7);
    config.num_queries = 6;
    config.revise_rejected = true;
    config.threads = threads;
    config
}

fn dataset() -> TextDataset {
    DatasetName::Youtube.load_scaled(7, 0.05)
}

/// An in-memory `Write` target so a `JsonlTraceSink` boxed into a tracer
/// can still be read back afterwards.
#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Buf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A `TraceSink` adapter exposing a shared `SpanTreeBuilder` for the
/// live-vs-parsed comparison.
#[derive(Clone)]
struct LiveTree(Arc<Mutex<SpanTreeBuilder>>);

impl TraceSink for LiveTree {
    fn record(&mut self, record: &Record<'_>) {
        self.0.lock().unwrap().record(record);
    }
}

/// One observed same-seed run at `threads`: returns the trace text, the
/// live-built analysis, the run result, and a metrics recorder that saw
/// the same records.
fn traced_run(threads: usize) -> (String, TraceAnalysis, RunResult, MetricsRecorder) {
    let d = dataset();
    let buf = Buf::default();
    let live = LiveTree(Arc::new(Mutex::new(SpanTreeBuilder::new())));
    let metrics = MetricsRecorder::new();
    let mut tracer = Tracer::new(Box::new(ManualClock::new(100)));
    tracer.add_sink(Box::new(JsonlTraceSink::new(buf.clone())));
    tracer.add_sink(Box::new(live.clone()));
    tracer.add_sink(Box::new(metrics.clone()));
    let shared = SharedObserver::new(tracer);

    let sim = SimulatedLlm::new(ModelId::Gpt35Turbo, d.generative.clone(), 7)
        .with_pool(Pool::new(threads));
    let retry = RetryModel::new(sim, 2).with_observer(shared.clone());
    let mut llm = CachedModel::new(retry).with_observer(shared.clone());
    let mut obs = shared.clone();
    let run = DataSculpt::new(&d, config(threads))
        .run_observed(&mut llm, &mut obs)
        .unwrap();
    obs.finish().unwrap();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let analysis = live.0.lock().unwrap().clone().finish();
    (text, analysis, run, metrics)
}

fn fixtures_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures"))
}

/// The CLI `trace` reports pinned next to the trace they read: fixture
/// file name and the subcommand arguments that print it. Paths are
/// relative to the repo root, as `scripts/check.sh` runs them.
const CLI_FIXTURES: [(&str, &[&str]); 4] = [
    ("trace_small_check.txt", &["trace", "check"]),
    ("trace_small_analyze.txt", &["trace", "analyze"]),
    ("trace_small_flame.txt", &["trace", "flame"]),
    ("trace_small_expo.txt", &["trace", "expo"]),
];

/// Golden `trace analyze --json` fixture: a committed deterministic trace
/// (ManualClock, fixed seeds) plus the exact JSON report it must render,
/// and the CLI's `trace check`, `trace analyze`, `trace flame` and
/// `trace expo` output on that trace ([`CLI_FIXTURES`]).
/// `scripts/check.sh` re-checks the same files through the real CLI.
/// Regenerate after an *intentional* report or schema change with:
/// `DS_REGEN_FIXTURES=1 cargo test --test trace_analytics` (then update
/// `docs/trace-schema.md` if the wire format moved).
#[test]
fn golden_analyze_fixture_is_stable() {
    let dir = fixtures_dir();
    let trace_path = dir.join("trace_small.jsonl");
    let golden_path = dir.join("trace_small_analyze.json");
    let (text, _, _, _) = traced_run(1);
    let analysis = TraceAnalysis::from_trace(&text).unwrap();
    // Trailing newline matches what `trace analyze --json` prints.
    let rendered = format!("{}\n", report::render_analyze_json(&analysis));

    if std::env::var("DS_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&trace_path, &text).unwrap();
        std::fs::write(&golden_path, &rendered).unwrap();
    }
    let on_disk_trace = std::fs::read_to_string(&trace_path)
        .unwrap_or_else(|e| panic!("fixture trace_small.jsonl unreadable ({e}); see module docs"));
    assert_eq!(
        on_disk_trace, text,
        "committed trace drifted from what this build emits"
    );
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!("fixture trace_small_analyze.json unreadable ({e}); see module docs")
    });
    assert_eq!(
        rendered, golden,
        "analyze --json drifted from the golden fixture"
    );

    let repo_root = dir.join("../..");
    for (fixture, args) in CLI_FIXTURES {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_datasculpt"))
            .args(args)
            .arg("tests/fixtures/trace_small.jsonl")
            .current_dir(&repo_root)
            .output()
            .unwrap();
        assert!(out.status.success(), "{args:?} failed: {out:?}");
        let printed = String::from_utf8(out.stdout).unwrap();
        if std::env::var("DS_REGEN_FIXTURES").is_ok() {
            std::fs::write(dir.join(fixture), &printed).unwrap();
        }
        let pinned = std::fs::read_to_string(dir.join(fixture))
            .unwrap_or_else(|e| panic!("fixture {fixture} unreadable ({e}); see module docs"));
        assert_eq!(printed, pinned, "{args:?} drifted from {fixture}");
    }
}

#[test]
fn metrics_recorder_renders_what_the_parsed_trace_renders() {
    // `--metrics` (a live recorder) and `trace expo` (a stored trace) are
    // two routes to one snapshot: every rendering must agree byte for byte.
    let (text, _, _, metrics) = traced_run(1);
    let parsed = TraceAnalysis::from_trace(&text)
        .unwrap()
        .to_metrics_snapshot();
    let live = metrics.snapshot();
    assert!(live.events > 0 && !live.models.is_empty(), "vacuous run");
    assert_eq!(metrics.to_json(), parsed.to_json());
    assert_eq!(metrics.render_table(), parsed.render_table());
    assert_eq!(render_prometheus(&live), render_prometheus(&parsed));
}

#[test]
fn attribution_tree_sums_exactly_to_the_ledger() {
    let (text, live, run, _) = traced_run(1);
    let parsed = TraceAnalysis::from_trace(&text).unwrap();

    // Every usage event lands on exactly one tree node, so the subtree
    // cost equals the run's nano-USD ledger — integer equality, no
    // rounding, for both the parsed and the live-built tree.
    let ledger = run.ledger.total_cost_nanousd();
    assert!(ledger > 0, "run billed nothing; test is vacuous");
    assert_eq!(parsed.root.subtree_cost_nanousd(), ledger);
    assert_eq!(parsed.total_cost_nanousd(), ledger);
    assert_eq!(live.root.subtree_cost_nanousd(), ledger);
    assert_eq!(
        parsed.root.subtree_calls(),
        parsed.metrics.models.values().map(|m| m.calls).sum::<u64>()
    );

    // The live sink and the post-hoc parse agree on everything.
    assert_eq!(live, parsed);
}

#[test]
fn trace_diff_is_empty_across_thread_counts() {
    let (t1, _, r1, _) = traced_run(1);
    let (t2, _, r2, _) = traced_run(2);
    let (t8, _, r8, _) = traced_run(8);
    assert_eq!(r1.digest(), r2.digest());
    assert_eq!(r1.digest(), r8.digest());

    let a1 = TraceAnalysis::from_trace(&t1).unwrap();
    let a2 = TraceAnalysis::from_trace(&t2).unwrap();
    let a8 = TraceAnalysis::from_trace(&t8).unwrap();
    assert_eq!(a1.structural_digest, a2.structural_digest);
    assert_eq!(a1.structural_digest, a8.structural_digest);
    assert_eq!(
        report::diff(&a1, &a2, false),
        vec![],
        "1-thread vs 2-thread trace diff must be empty"
    );
    assert_eq!(
        report::diff(&a1, &a8, false),
        vec![],
        "1-thread vs 8-thread trace diff must be empty"
    );

    // The timing-free renderings are byte-identical across thread counts
    // (the ManualClock makes even durations equal here, but diff and
    // flame would already agree on structure alone).
    assert_eq!(report::folded_stacks(&a1), report::folded_stacks(&a8));
    assert_eq!(
        report::render_analyze_json(&a1),
        report::render_analyze_json(&a8)
    );
}

#[test]
fn shared_observer_fan_in_preserves_counter_totals_exactly() {
    // Emit counter deltas from exec-pool worker threads through clones of
    // one SharedObserver — the fan-in path the cache/retry middleware
    // uses — and require exact totals: no lost updates, no double counts.
    let metrics = MetricsRecorder::new();
    let mut tracer = Tracer::new(Box::new(ManualClock::new(1)));
    tracer.add_sink(Box::new(metrics.clone()));
    let mut shared = SharedObserver::new(tracer);

    let pool = Pool::new(8);
    let jobs = 512usize;
    pool.try_run(jobs, |i| {
        let mut obs = shared.clone();
        obs.on_event(&Event::Counter {
            counter: Counter::CacheHit,
            delta: 1,
        });
        obs.on_event(&Event::Counter {
            counter: Counter::Retry,
            delta: (i % 3) as u64,
        });
    })
    .unwrap();
    shared.finish().unwrap();

    let snap = metrics.snapshot();
    assert_eq!(snap.counters["cache_hit"], jobs as u64);
    let expected_retries: u64 = (0..jobs).map(|i| (i % 3) as u64).sum();
    assert_eq!(snap.counters["retry"], expected_retries);
    assert_eq!(snap.events, 2 * jobs as u64);
}

#[test]
fn concurrent_middleware_runs_keep_cache_retry_counters_exact() {
    // Same-seed runs with cache+retry middleware at 1 and 8 threads must
    // agree on every counter total — middleware events fan into the
    // shared trace identically regardless of the worker pool.
    let snap_at = |threads: usize| {
        let d = dataset();
        let metrics = MetricsRecorder::new();
        let mut tracer = Tracer::new(Box::new(ManualClock::new(100)));
        tracer.add_sink(Box::new(metrics.clone()));
        let shared = SharedObserver::new(tracer);
        let sim = SimulatedLlm::new(ModelId::Gpt35Turbo, d.generative.clone(), 7)
            .with_pool(Pool::new(threads));
        let retry = RetryModel::new(sim, 2).with_observer(shared.clone());
        let mut llm = CachedModel::new(retry).with_observer(shared.clone());
        let mut obs = shared.clone();
        DataSculpt::new(&d, config(threads))
            .run_observed(&mut llm, &mut obs)
            .unwrap();
        obs.finish().unwrap();
        metrics.snapshot()
    };
    let serial = snap_at(1);
    let parallel = snap_at(8);
    assert_eq!(serial.counters, parallel.counters);
    assert!(serial.counters.contains_key("cache_miss"));
    assert_eq!(serial.total_cost_nanousd(), parallel.total_cost_nanousd());
    assert_eq!(serial.events, parallel.events);
}

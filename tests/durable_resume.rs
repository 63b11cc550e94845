//! The durable-run contract, proven by crash injection: a run killed at
//! *any* backend call can be resumed in the same directory and produce a
//! bit-identical `RunResult` — same digest, same ledger, same trace — with
//! zero nano-USD re-billed for any response the dead process had already
//! paid for.
//!
//! Format and determinism contract: `docs/persistence.md`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use datasculpt::obs::Record;
use datasculpt::prelude::*;
use datasculpt::store::tear_tail;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A fresh per-test directory (`run_durable` creates it on first use).
fn tempdir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ds_durable_{}_{tag}_{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ))
}

fn corpus() -> Corpus {
    Corpus::build(DatasetName::Youtube.load_scaled(21, 0.1))
}

fn config() -> DataSculptConfig {
    let mut cfg = DataSculptConfig::cot(9);
    cfg.num_queries = 8;
    cfg
}

fn fingerprint() -> RunFingerprint {
    RunFingerprint {
        dataset: "youtube".into(),
        dataset_seed: 21,
        scale_bits: 0.1f64.to_bits(),
        model: ModelId::Gpt35Turbo.api_name().into(),
        llm_seed: 13,
        config: config(),
    }
}

fn backend(d: &Corpus) -> SimulatedLlm {
    SimulatedLlm::new(ModelId::Gpt35Turbo, d.dataset().generative.clone(), 13)
}

/// Exact nano-USD the dead process paid for: the cost of every response it
/// persisted. (Each stored response was billed exactly once, when it was
/// first answered.)
fn stored_cost_nanousd(dir: &std::path::Path) -> u128 {
    let store = ResponseStore::open(&dir.join("responses.log")).unwrap();
    store
        .iter()
        .map(|(_, r)| {
            PricingTable::cost_nanousd(r.model, r.usage.prompt_tokens, r.usage.completion_tokens)
        })
        .sum()
}

/// Kill the run after every possible number of backend calls (0 = before
/// the first response is stored, total-1 = mid final iteration), resume,
/// and require bit-identical results and exact billing arithmetic.
#[test]
fn killed_at_every_backend_call_a_run_resumes_bit_identically() {
    let d = corpus();
    let fp = fingerprint();

    let dir = tempdir("baseline");
    let baseline =
        run_durable(&d, &fp, backend(&d), &dir, &DurableOptions::default(), None).unwrap();
    let total_calls = baseline.store_stats.misses;
    assert!(total_calls >= 4, "config too small to exercise kill points");
    std::fs::remove_dir_all(&dir).ok();

    for kill_at in 0..total_calls {
        let dir = tempdir("kill");
        let doomed = KillAfter::new(backend(&d), kill_at, KillSwitch::new());
        let switch = doomed.switch();
        // The doomed run either aborts (enough failures left to trip the
        // consecutive-failure limit) or limps to completion with failed
        // iterations; either way the disk state is exactly what a SIGKILL
        // at call `kill_at` would have left, because the tripped switch
        // stops the checkpointer from writing.
        let _ = run_durable(
            &d,
            &fp,
            doomed,
            &dir,
            &DurableOptions {
                kill: Some(switch.clone()),
                ..DurableOptions::default()
            },
            None,
        );
        assert!(switch.is_dead(), "kill point {kill_at} never tripped");

        let crashed_paid = stored_cost_nanousd(&dir);
        let resumed = run_durable(
            &d,
            &fp,
            backend(&d),
            &dir,
            &DurableOptions {
                require_existing: true,
                ..DurableOptions::default()
            },
            None,
        )
        .unwrap();

        // Bit-identical outcome.
        assert_eq!(
            resumed.result.digest(),
            baseline.result.digest(),
            "digest diverged after kill at call {kill_at}"
        );
        assert_eq!(
            resumed.result.ledger.total_cost_nanousd(),
            baseline.result.ledger.total_cost_nanousd(),
            "ledger diverged after kill at call {kill_at}"
        );
        assert_eq!(
            resumed.result.ledger.calls(),
            baseline.result.ledger.calls()
        );

        // Zero re-billing: every stored response replayed from disk
        // (hits == stored), and the two processes together paid exactly
        // what the uninterrupted run did — nothing billed twice.
        assert_eq!(resumed.store_stats.hits, kill_at, "kill at {kill_at}");
        assert_eq!(resumed.store_stats.misses, total_calls - kill_at);
        assert_eq!(
            crashed_paid + resumed.billed_nanousd,
            baseline.billed_nanousd,
            "billing not partitioned at kill point {kill_at}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Events that must replay identically: the run/iteration/pipeline-stage
/// spans and the usage stream. Store and checkpoint bookkeeping (counter
/// events, `checkpoint`/`restore` spans) legitimately differs between an
/// uninterrupted run and a resume.
fn replay_invariant_events(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .filter(|e| match e {
            Event::Counter { .. } | Event::Message { .. } => false,
            Event::StageBegin { stage, .. } | Event::StageEnd { stage, .. } => {
                !matches!(stage, Stage::Checkpoint | Stage::Restore)
            }
            _ => true,
        })
        .cloned()
        .collect()
}

#[derive(Clone, Default)]
struct CaptureSink(Arc<Mutex<Vec<Event>>>);

impl TraceSink for CaptureSink {
    fn record(&mut self, record: &Record<'_>) {
        self.0.lock().unwrap().push(record.event.clone());
    }
}

fn observed(events: &CaptureSink) -> SharedObserver {
    let tracer = Tracer::new(Box::new(ManualClock::new(1))).with_sink(Box::new(events.clone()));
    SharedObserver::new(tracer)
}

/// A resumed run's trace is event-for-event identical to the
/// uninterrupted run's, once store/checkpoint bookkeeping is set aside.
#[test]
fn resumed_trace_replays_the_uninterrupted_trace() {
    let d = corpus();
    let fp = fingerprint();

    let baseline_events = CaptureSink::default();
    let dir_a = tempdir("trace_base");
    let baseline = run_durable(
        &d,
        &fp,
        backend(&d),
        &dir_a,
        &DurableOptions::default(),
        Some(observed(&baseline_events)),
    )
    .unwrap();

    let dir_b = tempdir("trace_kill");
    let doomed = KillAfter::new(backend(&d), 3, KillSwitch::new());
    let switch = doomed.switch();
    let crashed = run_durable(
        &d,
        &fp,
        doomed,
        &dir_b,
        &DurableOptions {
            kill: Some(switch),
            ..DurableOptions::default()
        },
        None,
    );
    assert!(matches!(crashed, Err(DurableError::Pipeline(_))));

    let resumed_events = CaptureSink::default();
    let resumed = run_durable(
        &d,
        &fp,
        backend(&d),
        &dir_b,
        &DurableOptions {
            require_existing: true,
            ..DurableOptions::default()
        },
        Some(observed(&resumed_events)),
    )
    .unwrap();
    assert_eq!(resumed.result.digest(), baseline.result.digest());
    assert!(resumed.replayed_iterations > 0, "resume actually replayed");

    let base = replay_invariant_events(&baseline_events.0.lock().unwrap());
    let replay = replay_invariant_events(&resumed_events.0.lock().unwrap());
    assert!(!base.is_empty());
    assert_eq!(base, replay, "replay-invariant event streams diverged");
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Tearing the response log mid-record after the crash (a crash inside
/// `write(2)` itself) still resumes bit-identically: the torn record is
/// truncated away and its response re-billed exactly once.
#[test]
fn torn_response_tail_resumes_bit_identically() {
    let d = corpus();
    let fp = fingerprint();

    let dir_a = tempdir("torn_base");
    let baseline = run_durable(
        &d,
        &fp,
        backend(&d),
        &dir_a,
        &DurableOptions::default(),
        None,
    )
    .unwrap();

    let dir_b = tempdir("torn_kill");
    let doomed = KillAfter::new(backend(&d), 4, KillSwitch::new());
    let switch = doomed.switch();
    let _ = run_durable(
        &d,
        &fp,
        doomed,
        &dir_b,
        &DurableOptions {
            kill: Some(switch),
            ..DurableOptions::default()
        },
        None,
    );

    // Chop into the last stored record, leaving a torn tail.
    let log = dir_b.join("responses.log");
    tear_tail(&log, 5).unwrap();

    let crashed_paid = stored_cost_nanousd(&dir_b); // post-tear survivors
    let resumed = run_durable(
        &d,
        &fp,
        backend(&d),
        &dir_b,
        &DurableOptions {
            require_existing: true,
            ..DurableOptions::default()
        },
        None,
    )
    .unwrap();
    assert_eq!(resumed.result.digest(), baseline.result.digest());
    assert_eq!(
        resumed.result.ledger.total_cost_nanousd(),
        baseline.result.ledger.total_cost_nanousd()
    );
    // The torn record's response was re-billed (once); the survivors were
    // not.
    assert_eq!(
        crashed_paid + resumed.billed_nanousd,
        baseline.billed_nanousd
    );
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

fn counter_total(events: &[Event], want: Counter) -> u64 {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Counter { counter, delta } if *counter == want => Some(*delta),
            _ => None,
        })
        .sum()
}

/// The disk store's observability counters agree exactly with
/// `cache_stats()` on both sides of a crash: one `store_miss` per billed
/// backend call, one `store_hit` per replayed response — never
/// double-counted while the resume replays iterations.
#[test]
fn store_counters_match_cache_stats_across_a_resume() {
    let d = corpus();
    let fp = fingerprint();

    let baseline_events = CaptureSink::default();
    let dir = tempdir("counters");
    let doomed = KillAfter::new(backend(&d), 3, KillSwitch::new());
    let switch = doomed.switch();
    let _ = run_durable(
        &d,
        &fp,
        doomed,
        &dir,
        &DurableOptions {
            kill: Some(switch.clone()),
            ..DurableOptions::default()
        },
        Some(observed(&baseline_events)),
    );
    assert!(switch.is_dead());
    {
        let events = baseline_events.0.lock().unwrap();
        // A miss counts every forwarded attempt — the 3 answered calls
        // plus the failed post-kill attempts that tripped the
        // consecutive-failure limit. Nothing replays on a fresh dir.
        assert!(
            counter_total(&events, Counter::StoreMiss) >= 3,
            "at least the 3 answered calls were misses"
        );
        assert_eq!(counter_total(&events, Counter::StoreHit), 0);
    }

    let resumed_events = CaptureSink::default();
    let resumed = run_durable(
        &d,
        &fp,
        backend(&d),
        &dir,
        &DurableOptions {
            require_existing: true,
            ..DurableOptions::default()
        },
        Some(observed(&resumed_events)),
    )
    .unwrap();

    let events = resumed_events.0.lock().unwrap();
    let hits = counter_total(&events, Counter::StoreHit);
    let misses = counter_total(&events, Counter::StoreMiss);
    // Counter events == cache_stats(), exactly: replaying checkpointed
    // iterations serves each stored response once and counts it once.
    assert_eq!(hits, resumed.store_stats.hits, "store_hit double-counted");
    assert_eq!(
        misses, resumed.store_stats.misses,
        "store_miss double-counted"
    );
    assert_eq!(hits, 3, "every pre-crash response replayed exactly once");
    std::fs::remove_dir_all(&dir).ok();
}

/// A sparser checkpoint cadence changes how much is replayed, never what
/// the run produces.
#[test]
fn sparse_checkpoint_cadence_resumes_bit_identically() {
    let d = corpus();
    let fp = fingerprint();

    let dir_a = tempdir("cadence_base");
    let baseline = run_durable(
        &d,
        &fp,
        backend(&d),
        &dir_a,
        &DurableOptions::default(),
        None,
    )
    .unwrap();

    let every = DurableOptions {
        checkpoint_every: 3,
        ..DurableOptions::default()
    };
    let dir_b = tempdir("cadence_kill");
    let doomed = KillAfter::new(backend(&d), 5, KillSwitch::new());
    let switch = doomed.switch();
    let _ = run_durable(
        &d,
        &fp,
        doomed,
        &dir_b,
        &DurableOptions {
            kill: Some(switch),
            ..every.clone()
        },
        None,
    );

    let resumed = run_durable(
        &d,
        &fp,
        backend(&d),
        &dir_b,
        &DurableOptions {
            require_existing: true,
            ..every
        },
        None,
    )
    .unwrap();
    assert_eq!(resumed.result.digest(), baseline.result.digest());
    // Iterations 0..5 were checkpointed only at iteration 2 (cadence 3,
    // anchored at 0: (iter + 1) % 3 == 0), so exactly one record replays.
    assert_eq!(resumed.replayed_iterations, 1);
    // The full resumed run checkpoints iterations 2 and 5: one was loaded,
    // one written live.
    assert_eq!(resumed.checkpoints_written, 1);
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// In-memory `CachedModel` stats surface through `cache_stats()` — and a
/// fully-complete durable directory replays everything for free.
#[test]
fn complete_directory_replays_for_free() {
    let d = corpus();
    let fp = fingerprint();
    let dir = tempdir("free");
    let first = run_durable(&d, &fp, backend(&d), &dir, &DurableOptions::default(), None).unwrap();
    assert!(first.billed_nanousd > 0);

    let again = run_durable(&d, &fp, backend(&d), &dir, &DurableOptions::default(), None).unwrap();
    assert_eq!(again.result.digest(), first.result.digest());
    assert_eq!(again.billed_nanousd, 0, "zero nano-USD re-billed");
    assert_eq!(again.store_stats.misses, 0);
    assert_eq!(again.store_stats.hits, first.store_stats.misses);

    // The in-memory cache reports its stats the same way (satellite of the
    // same contract: middlewares are inspectable).
    let mut cached = CachedModel::new(backend(&d));
    let request = ChatRequest::new(vec![datasculpt::llm::ChatMessage::user("hi")]);
    cached.complete(&request).unwrap();
    cached.complete(&request).unwrap();
    assert_eq!(cached.cache_stats().hits, 1);
    assert_eq!(cached.cache_stats().misses, 1);
    std::fs::remove_dir_all(&dir).ok();
}

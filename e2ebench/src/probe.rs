//! Probes the traced run attaches from outside the program: a
//! [`ChatModel`] wrapper that times every backend call, and a
//! [`RunObserver`] that times the pipeline's stage spans.

use datasculpt::core::parse_response;
use datasculpt::llm::{ChatModel, ChatRequest, ChatResponse, LlmError, ModelId, PricingTable};
use datasculpt::obs::{Counter, Event, RunObserver, Stage};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Totals over every [`TimedModel`] sharing it. Relaxed atomics: these are
/// statistics and publish no other data.
#[derive(Debug, Default)]
pub struct LlmTally {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    prompt_tokens: AtomicU64,
    completion_tokens: AtomicU64,
    choices: AtomicU64,
    unusable: AtomicU64,
    errors: AtomicU64,
    replayed: AtomicU64,
}

impl LlmTally {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
    pub fn prompt_tokens(&self) -> u64 {
        self.prompt_tokens.load(Ordering::Relaxed)
    }
    pub fn completion_tokens(&self) -> u64 {
        self.completion_tokens.load(Ordering::Relaxed)
    }
    pub fn choices(&self) -> u64 {
        self.choices.load(Ordering::Relaxed)
    }
    /// Choices the wrapper itself parsed as unusable (only when built with
    /// a class count).
    pub fn unusable(&self) -> u64 {
        self.unusable.load(Ordering::Relaxed)
    }
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
    /// Calls a durable store answered from disk instead (reported through
    /// [`ChatModel::advance_replayed`]).
    pub fn replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }
}

/// The life of one wrapped backend, recorded when it is dropped.
#[derive(Debug, Clone)]
pub struct ModelSpan {
    /// Caller-chosen id (the serve job id).
    pub id: u64,
    pub created: Instant,
    pub first_call: Option<Instant>,
    pub dropped: Instant,
    /// Largest single-call cost seen, exact nano-USD.
    pub max_call_nanousd: u128,
}

/// A [`ChatModel`] wrapper that times each call into the inner model and
/// tallies its tokens. It forwards every method, so the run it wraps
/// produces the same digest as an unwrapped one.
pub struct TimedModel<M> {
    inner: M,
    tally: Arc<LlmTally>,
    /// Parse each returned choice for `n` classes and count the unusable
    /// ones (for runs whose parse-failure counter is not observable).
    parse_classes: Option<usize>,
    span: ModelSpan,
    sink: Option<Arc<Mutex<Vec<ModelSpan>>>>,
}

impl<M: ChatModel> TimedModel<M> {
    pub fn new(inner: M, tally: Arc<LlmTally>) -> Self {
        let now = Instant::now();
        TimedModel {
            inner,
            tally,
            parse_classes: None,
            span: ModelSpan {
                id: 0,
                created: now,
                first_call: None,
                dropped: now,
                max_call_nanousd: 0,
            },
            sink: None,
        }
    }

    /// Also parse every choice for `n_classes` classes.
    pub fn parsing(mut self, n_classes: usize) -> Self {
        self.parse_classes = Some(n_classes);
        self
    }

    /// Push this model's [`ModelSpan`] (tagged `id`) into `sink` on drop.
    pub fn spanned(mut self, id: u64, sink: Arc<Mutex<Vec<ModelSpan>>>) -> Self {
        self.span.id = id;
        self.sink = Some(sink);
        self
    }

    fn record(&mut self, t0: Instant, results: &[Result<ChatResponse, LlmError>]) {
        let took = t0.elapsed();
        self.span.first_call.get_or_insert(t0);
        let t = &self.tally;
        t.busy_ns
            .fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
        t.calls.fetch_add(results.len() as u64, Ordering::Relaxed);
        for result in results {
            let resp = match result {
                Ok(resp) => resp,
                Err(_) => {
                    t.errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            let usage = resp.usage;
            t.prompt_tokens
                .fetch_add(usage.prompt_tokens, Ordering::Relaxed);
            t.completion_tokens
                .fetch_add(usage.completion_tokens, Ordering::Relaxed);
            t.choices
                .fetch_add(resp.choices.len() as u64, Ordering::Relaxed);
            let cost = PricingTable::cost_nanousd(
                resp.model,
                usage.prompt_tokens,
                usage.completion_tokens,
            );
            self.span.max_call_nanousd = self.span.max_call_nanousd.max(cost);
            if let Some(n) = self.parse_classes {
                let unusable = resp
                    .choices
                    .iter()
                    .filter(|c| !parse_response(&c.content, n).is_usable())
                    .count();
                t.unusable.fetch_add(unusable as u64, Ordering::Relaxed);
            }
        }
    }
}

impl<M: ChatModel> ChatModel for TimedModel<M> {
    fn complete(&mut self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let t0 = Instant::now();
        let result = self.inner.complete(request);
        self.record(t0, std::slice::from_ref(&result));
        result
    }

    fn complete_batch(&mut self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse, LlmError>> {
        let t0 = Instant::now();
        let results = self.inner.complete_batch(requests);
        self.record(t0, &results);
        results
    }

    fn model_id(&self) -> ModelId {
        self.inner.model_id()
    }

    fn advance_replayed(&mut self, calls: u64) {
        self.tally.replayed.fetch_add(calls, Ordering::Relaxed);
        self.inner.advance_replayed(calls);
    }
}

impl<M> Drop for TimedModel<M> {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            self.span.dropped = Instant::now();
            // A poisoned sink only loses this span; never panic in drop.
            if let Ok(mut spans) = sink.lock() {
                spans.push(self.span.clone());
            }
        }
    }
}

/// Times the stage spans and sums the counters of every run it observes.
///
/// `context` is the time from each `run_begin` to that run's first
/// `select` span: the context build (two n-gram indexes, sampler and
/// in-context-example set-up).
#[derive(Debug, Default)]
pub struct StageTimer {
    run_begin: Option<Instant>,
    context: Duration,
    open: BTreeMap<Stage, Instant>,
    totals: BTreeMap<Stage, Duration>,
    counters: BTreeMap<Counter, u64>,
    job_ends: Vec<(u64, Instant)>,
}

impl StageTimer {
    /// When each `job` span (a served job reaching its final state) ended.
    pub fn job_ends(&self) -> &[(u64, Instant)] {
        &self.job_ends
    }

    pub fn context_s(&self) -> f64 {
        self.context.as_secs_f64()
    }

    pub fn stage_s(&self, stage: Stage) -> f64 {
        self.totals.get(&stage).map_or(0.0, Duration::as_secs_f64)
    }

    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(&counter).copied().unwrap_or(0)
    }
}

impl RunObserver for StageTimer {
    fn on_event(&mut self, event: &Event) {
        let now = Instant::now();
        match event {
            Event::RunBegin { .. } => self.run_begin = Some(now),
            Event::StageBegin { stage, .. } => {
                if *stage == Stage::Select {
                    if let Some(t0) = self.run_begin.take() {
                        self.context += now - t0;
                    }
                }
                self.open.insert(*stage, now);
            }
            Event::StageEnd { stage, iter } => {
                if *stage == Stage::Job {
                    self.job_ends.push((*iter, now));
                }
                if let Some(t0) = self.open.remove(stage) {
                    *self.totals.entry(*stage).or_default() += now - t0;
                }
            }
            Event::Counter { counter, delta } => {
                *self.counters.entry(*counter).or_default() += delta;
            }
            _ => {}
        }
    }
}

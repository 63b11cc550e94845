//! In-memory metrics aggregation: per-stage latency/count, counters,
//! per-model token/cost totals.
//!
//! `MetricsAggregate` is the one per-record update behind `--metrics`,
//! `trace analyze` and `trace expo`: [`MetricsRecorder`] wraps it, and
//! [`SpanTreeBuilder`](crate::SpanTreeBuilder) embeds it next to the span
//! tree. [`MetricsRecorder`] is a cheaply-cloneable handle (all clones
//! share one accumulator), so a composition root can attach it to a
//! [`Tracer`](crate::Tracer) as a sink *and* keep a handle to render the
//! summary after the run.

use crate::cost::{format_ns, format_usd};
use crate::event::{Event, SpanEdge, SpanKey};
use crate::hist::LatencyHistogram;
use crate::tracer::{Record, TraceSink};
use crate::TRACE_SCHEMA_VERSION;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Aggregates for one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageMetrics {
    /// Completed spans.
    pub count: u64,
    /// Total duration across spans, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

impl StageMetrics {
    /// Mean span duration in nanoseconds (0 when no spans completed).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Aggregates for one model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelMetrics {
    /// Usage events recorded.
    pub calls: u64,
    /// Prompt tokens billed.
    pub prompt_tokens: u64,
    /// Completion tokens billed.
    pub completion_tokens: u64,
    /// Exact cost in nano-USD.
    pub cost_nanousd: u128,
}

/// A point-in-time copy of everything a [`MetricsRecorder`] has seen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Per-stage span aggregates, keyed by stage wire name.
    pub stages: BTreeMap<&'static str, StageMetrics>,
    /// Counter totals, keyed by counter wire name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Per-model usage, keyed by model API name.
    pub models: BTreeMap<String, ModelMetrics>,
    /// Iterations completed (`iter_end` events).
    pub iterations: u64,
    /// Iterations that failed.
    pub failed_iterations: u64,
    /// Total events recorded.
    pub events: u64,
    /// Latency histogram per span kind (`run`, `iteration`, stage names).
    pub span_hists: BTreeMap<String, LatencyHistogram>,
    /// Latency histogram per model: the duration of the innermost span
    /// enclosing each billed call.
    pub model_call_hists: BTreeMap<String, LatencyHistogram>,
}

impl MetricsSnapshot {
    /// Total cost across models, exact nano-USD.
    pub fn total_cost_nanousd(&self) -> u128 {
        self.models.values().map(|m| m.cost_nanousd).sum()
    }

    /// Total tokens across models.
    pub fn total_tokens(&self) -> u64 {
        self.models
            .values()
            .map(|m| m.prompt_tokens + m.completion_tokens)
            .sum()
    }

    /// Render the per-stage / counter / usage summary as an aligned text
    /// table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>7} {:>10} {:>10} {:>10}\n",
            "stage", "count", "total", "mean", "max"
        ));
        for (name, s) in &self.stages {
            out.push_str(&format!(
                "{:<12} {:>7} {:>10} {:>10} {:>10}\n",
                name,
                s.count,
                format_ns(s.total_ns),
                format_ns(s.mean_ns()),
                format_ns(s.max_ns)
            ));
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<24} {:>10}\n", "counter", "value"));
            for (name, v) in &self.counters {
                out.push_str(&format!("{name:<24} {v:>10}\n"));
            }
        }
        if !self.models.is_empty() {
            out.push_str(&format!(
                "{:<24} {:>7} {:>10} {:>11} {:>10}\n",
                "model", "calls", "prompt", "completion", "cost"
            ));
            for (name, m) in &self.models {
                out.push_str(&format!(
                    "{:<24} {:>7} {:>10} {:>11} {:>10}\n",
                    name,
                    m.calls,
                    m.prompt_tokens,
                    m.completion_tokens,
                    format_usd(m.cost_nanousd)
                ));
            }
        }
        out.push_str(&format!(
            "iterations: {} ({} failed), events: {}\n",
            self.iterations, self.failed_iterations, self.events
        ));
        out
    }

    /// Render the snapshot as one stable-ordered JSON object (the metrics
    /// file dropped by bench binaries).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"v\":{TRACE_SCHEMA_VERSION},\"stages\":{{");
        for (i, (name, s)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                s.count, s.total_ns, s.max_ns
            ));
        }
        out.push_str("},\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},\"models\":{");
        for (i, (name, m)) in self.models.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"calls\":{},\"prompt_tokens\":{},\"completion_tokens\":{},\"cost_nanousd\":{}}}",
                crate::jsonl::escape_json(name),
                m.calls,
                m.prompt_tokens,
                m.completion_tokens,
                m.cost_nanousd
            ));
        }
        out.push_str("},\"span_hists\":{");
        for (i, (name, h)) in self.span_hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{}",
                crate::jsonl::escape_json(name),
                h.to_json()
            ));
        }
        out.push_str("},\"model_call_hists\":{");
        for (i, (name, h)) in self.model_call_hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{}",
                crate::jsonl::escape_json(name),
                h.to_json()
            ));
        }
        out.push_str(&format!(
            "}},\"iterations\":{},\"failed_iterations\":{},\"events\":{}}}",
            self.iterations, self.failed_iterations, self.events
        ));
        out
    }
}

/// The running aggregate: the snapshot being built plus the span stack
/// used to attribute each `usage` event to the innermost open span (model
/// calls carry no span of their own in the v1 schema, so their latency is
/// the duration of the span they run under — typically `generate`).
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricsAggregate {
    pub(crate) snapshot: MetricsSnapshot,
    /// Usage-event models pending per open span, innermost last; drained
    /// into `model_call_hists` when the span closes.
    pending_models: Vec<Vec<String>>,
}

/// Sample `dur` into the histogram under `name`, allocating a key only
/// the first time the name is seen.
fn sample(hists: &mut BTreeMap<String, LatencyHistogram>, name: &str, dur: u64) {
    match hists.get_mut(name) {
        Some(h) => h.record(dur),
        None => hists.entry(name.to_string()).or_default().record(dur),
    }
}

impl MetricsAggregate {
    /// Fold one record in.
    pub(crate) fn record(&mut self, record: &Record<'_>) {
        let snap = &mut self.snapshot;
        snap.events += 1;
        match record.event.span_edge() {
            Some(SpanEdge::Open(_)) => self.pending_models.push(Vec::new()),
            Some(SpanEdge::Close(key)) => {
                let dur = record.dur_ns.unwrap_or(0);
                sample(&mut snap.span_hists, key.label(), dur);
                if let SpanKey::Stage(_, stage) = key {
                    let s = snap.stages.entry(stage.name()).or_default();
                    s.count += 1;
                    s.total_ns += dur;
                    s.max_ns = s.max_ns.max(dur);
                }
                for model in self.pending_models.pop().unwrap_or_default() {
                    sample(&mut snap.model_call_hists, &model, dur);
                }
            }
            None => {}
        }
        match record.event {
            Event::IterationEnd { failed, .. } => {
                snap.iterations += 1;
                if *failed {
                    snap.failed_iterations += 1;
                }
            }
            Event::Counter { counter, delta } => {
                *snap.counters.entry(counter.name()).or_default() += delta;
            }
            Event::Usage {
                model,
                prompt_tokens,
                completion_tokens,
                cost_nanousd,
            } => {
                let u = match snap.models.get_mut(model) {
                    Some(u) => u,
                    None => snap.models.entry(model.clone()).or_default(),
                };
                u.calls += 1;
                u.prompt_tokens += prompt_tokens;
                u.completion_tokens += completion_tokens;
                u.cost_nanousd += cost_nanousd;
                if let Some(pending) = self.pending_models.last_mut() {
                    pending.push(model.clone());
                }
            }
            _ => {}
        }
    }
}

/// A [`TraceSink`] that aggregates records in memory. Clones share the
/// accumulator, and the handle is `Send`, so one clone can sit inside a
/// worker-side tracer while another renders the summary afterwards.
#[derive(Clone, Default)]
pub struct MetricsRecorder {
    inner: Arc<Mutex<MetricsAggregate>>,
}

impl MetricsRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock().snapshot.clone()
    }

    /// Lock the shared accumulator, ignoring poisoning: a panicking
    /// recorder thread must not lose the metrics gathered so far.
    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsAggregate> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Shorthand: render the summary table of the current snapshot.
    pub fn render_table(&self) -> String {
        self.snapshot().render_table()
    }

    /// Shorthand: render the current snapshot as JSON.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

impl std::fmt::Debug for MetricsRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MetricsRecorder")
    }
}

impl TraceSink for MetricsRecorder {
    fn record(&mut self, record: &Record<'_>) {
        self.lock().record(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Counter, Stage};
    use crate::{ManualClock, RunObserver, Tracer};

    fn traced(events: &[Event]) -> MetricsRecorder {
        let metrics = MetricsRecorder::new();
        let mut tracer = Tracer::new(Box::new(ManualClock::new(1_000)));
        tracer.add_sink(Box::new(metrics.clone()));
        for e in events {
            tracer.on_event(e);
        }
        metrics
    }

    #[test]
    fn aggregates_stages_counters_and_usage() {
        let m = traced(&[
            Event::StageBegin {
                iter: 0,
                stage: Stage::Generate,
            },
            Event::StageEnd {
                iter: 0,
                stage: Stage::Generate,
            },
            Event::StageBegin {
                iter: 1,
                stage: Stage::Generate,
            },
            Event::Counter {
                counter: Counter::CacheHit,
                delta: 3,
            },
            Event::StageEnd {
                iter: 1,
                stage: Stage::Generate,
            },
            Event::Usage {
                model: "gpt-3.5-turbo-0613".into(),
                prompt_tokens: 100,
                completion_tokens: 20,
                cost_nanousd: 190_000,
            },
            Event::Usage {
                model: "gpt-3.5-turbo-0613".into(),
                prompt_tokens: 50,
                completion_tokens: 10,
                cost_nanousd: 95_000,
            },
            Event::IterationEnd {
                iter: 0,
                accepted: 2,
                rejected: 1,
                failed: false,
            },
        ]);
        let s = m.snapshot();
        let gen = s.stages["generate"];
        assert_eq!(gen.count, 2);
        assert_eq!(gen.total_ns, 1_000 + 2_000);
        assert_eq!(gen.max_ns, 2_000);
        assert_eq!(gen.mean_ns(), 1_500);
        assert_eq!(s.counters["cache_hit"], 3);
        let model = &s.models["gpt-3.5-turbo-0613"];
        assert_eq!(model.calls, 2);
        assert_eq!(model.prompt_tokens, 150);
        assert_eq!(s.total_cost_nanousd(), 285_000);
        assert_eq!(s.total_tokens(), 180);
        assert_eq!(s.iterations, 1);
        assert_eq!(s.failed_iterations, 0);
    }

    #[test]
    fn table_and_json_render_stably() {
        let m = traced(&[
            Event::StageBegin {
                iter: 0,
                stage: Stage::Select,
            },
            Event::StageEnd {
                iter: 0,
                stage: Stage::Select,
            },
            Event::Counter {
                counter: Counter::LfAccepted,
                delta: 4,
            },
        ]);
        let table = m.render_table();
        assert!(table.contains("select"));
        assert!(table.contains("lf_accepted"));
        let json = m.to_json();
        assert!(json.starts_with("{\"v\":1,\"stages\":{\"select\":{\"count\":1,"));
        assert!(json.contains("\"counters\":{\"lf_accepted\":4}"));
        assert!(json.ends_with("\"iterations\":0,\"failed_iterations\":0,\"events\":3}"));
    }

    #[test]
    fn clones_share_one_accumulator() {
        let a = MetricsRecorder::new();
        let mut b = a.clone();
        b.record(&Record {
            seq: 0,
            t_ns: 0,
            dur_ns: None,
            event: &Event::Counter {
                counter: Counter::Retry,
                delta: 1,
            },
        });
        assert_eq!(a.snapshot().counters["retry"], 1);
    }
}

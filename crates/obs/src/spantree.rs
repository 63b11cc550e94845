//! Span-tree reconstruction: from a v1 JSONL trace (or a live run) to a
//! hierarchical self/total-time and nano-USD attribution tree.
//!
//! The trace is a strictly-nested span stream (`docs/trace-schema.md`), so
//! replaying it against a stack rebuilds the call tree exactly. Spans with
//! the same label under the same parent aggregate into one node — the tree
//! answers "where did the time and money go per *kind* of work", not "what
//! did iteration 17 do". Every `usage` event is attributed to the
//! innermost open span at its position, so the tree's total cost equals
//! the run's nano-USD ledger by construction — integer equality, no
//! rounding (pinned by `tests/observability.rs`).
//!
//! Two wrinkles of the schema surface in the tree shape: the `select` span
//! closes before `iter_begin`, so `select` is a child of `run` while the
//! other pipeline stages sit under `iteration`; and a durable run's
//! `restore` span closes before `run_begin`, so `restore` hangs off the
//! synthetic `trace` root next to `run`.
//!
//! [`TraceAnalysis`] also carries per-span-kind and per-model-call latency
//! histograms, counter/usage rollups, and a timing-free structural digest
//! (FNV-1a over every event minus `seq`/`t_ns`/`dur_ns`) used by
//! `trace diff` — two same-seed runs produce the same digest at any thread
//! count and wall-clock speed.

use crate::event::{Counter, Event, Stage};
use crate::hash::Fnv64;
use crate::hist::LatencyHistogram;
use crate::metrics::{MetricsSnapshot, ModelMetrics, StageMetrics};
use crate::schema::{parse_object, validate_trace, JsonValue, ValidateError};
use crate::tracer::{Record, TraceSink};
use std::collections::BTreeMap;

/// Span-kind label for the run span in trees and histograms.
pub const RUN_LABEL: &str = "run";
/// Span-kind label for iteration spans in trees and histograms.
pub const ITERATION_LABEL: &str = "iteration";
/// Label of the synthetic root that holds `run` and any pre-run spans.
pub const ROOT_LABEL: &str = "trace";

/// One aggregated node of the span tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanNode {
    /// Span-kind label (`run`, `iteration`, or a stage name).
    pub label: String,
    /// Completed spans aggregated into this node.
    pub count: u64,
    /// Summed duration of those spans, nanoseconds.
    pub total_ns: u128,
    /// Nano-USD of `usage` events attributed to exactly this node
    /// (innermost-span attribution; children not included).
    pub cost_nanousd: u128,
    /// `usage` events attributed to exactly this node.
    pub calls: u64,
    /// Child nodes, in first-encounter order (deterministic per trace).
    pub children: Vec<SpanNode>,
}

/// One row of a flattened span tree (see [`SpanNode::flatten`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatSpan {
    /// `;`-joined path from the root, e.g. `trace;run;iteration;generate`.
    pub path: String,
    /// Completed spans aggregated at this path.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u128,
    /// Exclusive duration: total minus the children's totals.
    pub self_ns: u128,
    /// Nano-USD attributed to exactly this path.
    pub cost_nanousd: u128,
    /// Usage events attributed to exactly this path.
    pub calls: u64,
}

impl SpanNode {
    /// Exclusive time: this node's total minus its children's totals
    /// (saturating — an unmatched end span carries duration 0).
    pub fn self_ns(&self) -> u128 {
        let children: u128 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(children)
    }

    /// Total nano-USD in this subtree (this node plus all descendants).
    pub fn subtree_cost_nanousd(&self) -> u128 {
        self.cost_nanousd
            + self
                .children
                .iter()
                .map(SpanNode::subtree_cost_nanousd)
                .sum::<u128>()
    }

    /// Total usage events in this subtree.
    pub fn subtree_calls(&self) -> u64 {
        self.calls
            + self
                .children
                .iter()
                .map(SpanNode::subtree_calls)
                .sum::<u64>()
    }

    /// Depth-first flattening into `(path, …)` rows, parent before child.
    pub fn flatten(&self) -> Vec<FlatSpan> {
        let mut out = Vec::new();
        self.flatten_into("", &mut out);
        out
    }

    fn flatten_into(&self, prefix: &str, out: &mut Vec<FlatSpan>) {
        let path = if prefix.is_empty() {
            self.label.clone()
        } else {
            format!("{prefix};{}", self.label)
        };
        out.push(FlatSpan {
            path: path.clone(),
            count: self.count,
            total_ns: self.total_ns,
            self_ns: self.self_ns(),
            cost_nanousd: self.cost_nanousd,
            calls: self.calls,
        });
        for child in &self.children {
            child.flatten_into(&path, out);
        }
    }
}

/// Everything `trace analyze` / `trace diff` / `trace flame` work from:
/// the attribution tree, latency histograms, counter and usage rollups,
/// and a timing-free structural digest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceAnalysis {
    /// Run display label (from `run_begin`; empty if the trace has none).
    pub label: String,
    /// Dataset name (from `run_begin`).
    pub dataset: String,
    /// Backend model API name (from `run_begin`).
    pub model: String,
    /// Configured query budget (from `run_begin`).
    pub queries: u64,
    /// Run seed (from `run_begin`).
    pub seed: u64,
    /// Total events.
    pub events: u64,
    /// Events per kind.
    pub kinds: BTreeMap<String, u64>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Per-model usage rollup.
    pub models: BTreeMap<String, ModelMetrics>,
    /// Iterations completed.
    pub iterations: u64,
    /// Iterations that failed.
    pub failed_iterations: u64,
    /// The attribution tree, rooted at the synthetic [`ROOT_LABEL`] node.
    pub root: SpanNode,
    /// Latency histogram per span kind (`run`, `iteration`, stage names).
    pub span_hists: BTreeMap<String, LatencyHistogram>,
    /// Latency histogram per model: the duration of the innermost span
    /// enclosing each billed call (e.g. the `generate` span around a
    /// pipeline LLM call).
    pub model_call_hists: BTreeMap<String, LatencyHistogram>,
    /// FNV-1a 64 over every event's timing-free canonical form (everything
    /// except `seq`, `t_ns`, `dur_ns`). Identical for two runs whose event
    /// streams differ only in timing.
    pub structural_digest: u64,
}

impl TraceAnalysis {
    /// Validate `text` as a v1 JSONL trace and reconstruct its analysis.
    pub fn from_trace(text: &str) -> Result<TraceAnalysis, ValidateError> {
        validate_trace(text)?;
        let mut b = SpanTreeBuilder::new();
        for (idx, raw) in text.lines().enumerate() {
            let fields = parse_object(raw).map_err(|e| ValidateError {
                line: idx + 1,
                message: e,
            })?;
            b.apply_fields(&fields);
        }
        Ok(b.finish())
    }

    /// Total nano-USD across models (equals the tree's subtree cost).
    pub fn total_cost_nanousd(&self) -> u128 {
        self.models.values().map(|m| m.cost_nanousd).sum()
    }

    /// Project onto a [`MetricsSnapshot`] — the shape the Prometheus
    /// exposition ([`render_prometheus`](crate::render_prometheus))
    /// renders — so a stored trace can be served without replaying it.
    /// Stage aggregates are recovered from the span histograms (count,
    /// sum, max are exact histogram fields).
    pub fn to_metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            models: self.models.clone(),
            iterations: self.iterations,
            failed_iterations: self.failed_iterations,
            events: self.events,
            span_hists: self.span_hists.clone(),
            model_call_hists: self.model_call_hists.clone(),
            ..MetricsSnapshot::default()
        };
        for (name, h) in &self.span_hists {
            if let Some(stage) = Stage::parse(name) {
                snap.stages.insert(
                    stage.name(),
                    StageMetrics {
                        count: h.count(),
                        total_ns: u64::try_from(h.sum_ns()).unwrap_or(u64::MAX),
                        max_ns: h.max_ns().unwrap_or(0),
                    },
                );
            }
        }
        for (name, v) in &self.counters {
            if let Some(counter) = Counter::parse(name) {
                snap.counters.insert(counter.name(), *v);
            }
        }
        snap
    }
}

/// Builds a [`TraceAnalysis`] incrementally — either from parsed trace
/// lines ([`TraceAnalysis::from_trace`]) or live, as a [`TraceSink`] on a
/// [`Tracer`](crate::Tracer). The two paths produce identical analyses
/// for the same event stream (pinned by a test below).
#[derive(Debug, Clone)]
pub struct SpanTreeBuilder {
    analysis: TraceAnalysis,
    /// Arena of nodes being aggregated; index 0 is the synthetic root.
    nodes: Vec<ArenaNode>,
    /// Indices of currently open spans, outermost first.
    stack: Vec<usize>,
    /// Models of usage events attributed to each open span, parallel to
    /// `stack` — drained into the model-call histograms at span close.
    pending_models: Vec<Vec<String>>,
    digest: Fnv64,
}

#[derive(Debug, Clone, Default)]
struct ArenaNode {
    label: String,
    count: u64,
    total_ns: u128,
    cost_nanousd: u128,
    calls: u64,
    children: Vec<usize>,
}

impl Default for SpanTreeBuilder {
    fn default() -> Self {
        SpanTreeBuilder::new()
    }
}

impl SpanTreeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        SpanTreeBuilder {
            analysis: TraceAnalysis::default(),
            nodes: vec![ArenaNode {
                label: ROOT_LABEL.to_string(),
                ..ArenaNode::default()
            }],
            stack: Vec::new(),
            pending_models: Vec::new(),
            digest: Fnv64::default(),
        }
    }

    /// Finish: materialize the aggregated arena into the final tree.
    pub fn finish(mut self) -> TraceAnalysis {
        self.analysis.structural_digest = self.digest.finish();
        self.analysis.root = build_node(&self.nodes, 0);
        self.analysis.root.total_ns = self.analysis.root.children.iter().map(|c| c.total_ns).sum();
        self.analysis
    }

    /// Fold one event's timing-free canonical form into the digest. The
    /// canonical form is the kind followed by the kind's wire-field values
    /// in schema order — exactly what both the live and parsed paths see.
    fn hash_event(&mut self, canonical: &str) {
        self.digest.eat(canonical.as_bytes());
        self.digest.eat(b"\n");
    }

    fn note_kind(&mut self, kind: &str) {
        self.analysis.events += 1;
        *self.analysis.kinds.entry(kind.to_string()).or_default() += 1;
    }

    fn open(&mut self, label: &str) {
        let parent = self.stack.last().copied().unwrap_or(0);
        let existing = self
            .nodes
            .get(parent)
            .map(|p| p.children.clone())
            .unwrap_or_default()
            .into_iter()
            .find(|&c| self.nodes.get(c).is_some_and(|n| n.label == label));
        let idx = match existing {
            Some(idx) => idx,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(ArenaNode {
                    label: label.to_string(),
                    ..ArenaNode::default()
                });
                if let Some(p) = self.nodes.get_mut(parent) {
                    p.children.push(idx);
                }
                idx
            }
        };
        self.stack.push(idx);
        self.pending_models.push(Vec::new());
    }

    fn close(&mut self, label: &str, dur_ns: u64) {
        self.analysis
            .span_hists
            .entry(label.to_string())
            .or_default()
            .record(dur_ns);
        let (Some(idx), Some(pending)) = (self.stack.pop(), self.pending_models.pop()) else {
            return; // unmatched end: producer bug, nothing to attribute
        };
        if let Some(node) = self.nodes.get_mut(idx) {
            node.count += 1;
            node.total_ns += u128::from(dur_ns);
        }
        for model in pending {
            self.analysis
                .model_call_hists
                .entry(model)
                .or_default()
                .record(dur_ns);
        }
    }

    fn usage(&mut self, model: &str, prompt_tokens: u64, completion_tokens: u64, cost: u128) {
        let m = self.analysis.models.entry(model.to_string()).or_default();
        m.calls += 1;
        m.prompt_tokens += prompt_tokens;
        m.completion_tokens += completion_tokens;
        m.cost_nanousd += cost;
        let idx = self.stack.last().copied().unwrap_or(0);
        if let Some(node) = self.nodes.get_mut(idx) {
            node.cost_nanousd += cost;
            node.calls += 1;
        }
        if let Some(pending) = self.pending_models.last_mut() {
            pending.push(model.to_string());
        }
    }

    /// Apply one parsed trace line (key/value fields in wire order).
    fn apply_fields(&mut self, fields: &[(String, JsonValue)]) {
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let uint = |key: &str| match get(key) {
            Some(JsonValue::UInt(n)) => *n,
            _ => 0,
        };
        let u64of = |key: &str| u64::try_from(uint(key)).unwrap_or(u64::MAX);
        let s = |key: &str| match get(key) {
            Some(JsonValue::Str(v)) => v.as_str(),
            _ => "",
        };
        let kind = s("kind").to_string();

        // Canonical form: kind + non-header, non-dur values in wire order.
        let mut canonical = kind.clone();
        for (k, v) in fields {
            if matches!(k.as_str(), "v" | "seq" | "t_ns" | "kind" | "dur_ns") {
                continue;
            }
            canonical.push('|');
            match v {
                JsonValue::Str(x) => canonical.push_str(x),
                JsonValue::UInt(n) => canonical.push_str(&n.to_string()),
                JsonValue::Bool(b) => canonical.push_str(if *b { "true" } else { "false" }),
            }
        }
        self.hash_event(&canonical);
        self.note_kind(&kind);

        let dur = u64of("dur_ns");
        match kind.as_str() {
            "run_begin" => {
                self.analysis.label = s("label").to_string();
                self.analysis.dataset = s("dataset").to_string();
                self.analysis.model = s("model").to_string();
                self.analysis.queries = u64of("queries");
                self.analysis.seed = u64of("seed");
                self.open(RUN_LABEL);
            }
            "run_end" => self.close(RUN_LABEL, dur),
            "iter_begin" => self.open(ITERATION_LABEL),
            "iter_end" => {
                self.close(ITERATION_LABEL, dur);
                self.analysis.iterations += 1;
                if get("failed") == Some(&JsonValue::Bool(true)) {
                    self.analysis.failed_iterations += 1;
                }
            }
            "stage_begin" => self.open(s("stage")),
            "stage_end" => self.close(s("stage"), dur),
            "counter" => {
                *self
                    .analysis
                    .counters
                    .entry(s("counter").to_string())
                    .or_default() += u64of("delta");
            }
            "usage" => {
                self.usage(
                    s("model"),
                    u64of("prompt_tokens"),
                    u64of("completion_tokens"),
                    uint("cost_nanousd"),
                );
            }
            _ => {}
        }
    }

    /// Apply one live event (the [`TraceSink`] path). Must mirror
    /// [`apply_fields`](Self::apply_fields) exactly — the canonical digest
    /// strings use the same wire-field order as `jsonl::render_line`.
    fn apply_event(&mut self, event: &Event, dur_ns: Option<u64>) {
        let canonical = match event {
            Event::RunBegin {
                label,
                dataset,
                model,
                queries,
                seed,
            } => format!("run_begin|{label}|{dataset}|{model}|{queries}|{seed}"),
            Event::RunEnd {
                iterations,
                failed,
                lfs,
            } => format!("run_end|{iterations}|{failed}|{lfs}"),
            Event::IterationBegin { iter, instance } => {
                format!("iter_begin|{iter}|{instance}")
            }
            Event::IterationEnd {
                iter,
                accepted,
                rejected,
                failed,
            } => format!("iter_end|{iter}|{accepted}|{rejected}|{failed}"),
            Event::StageBegin { iter, stage } => format!("stage_begin|{iter}|{stage}"),
            Event::StageEnd { iter, stage } => format!("stage_end|{iter}|{stage}"),
            Event::Counter { counter, delta } => format!("counter|{counter}|{delta}"),
            Event::Usage {
                model,
                prompt_tokens,
                completion_tokens,
                cost_nanousd,
            } => format!("usage|{model}|{prompt_tokens}|{completion_tokens}|{cost_nanousd}"),
            Event::Message { text } => format!("message|{text}"),
        };
        self.hash_event(&canonical);
        self.note_kind(event.kind());

        let dur = dur_ns.unwrap_or(0);
        match event {
            Event::RunBegin {
                label,
                dataset,
                model,
                queries,
                seed,
            } => {
                self.analysis.label = label.clone();
                self.analysis.dataset = dataset.clone();
                self.analysis.model = model.clone();
                self.analysis.queries = *queries;
                self.analysis.seed = *seed;
                self.open(RUN_LABEL);
            }
            Event::RunEnd { .. } => self.close(RUN_LABEL, dur),
            Event::IterationBegin { .. } => self.open(ITERATION_LABEL),
            Event::IterationEnd { failed, .. } => {
                self.close(ITERATION_LABEL, dur);
                self.analysis.iterations += 1;
                if *failed {
                    self.analysis.failed_iterations += 1;
                }
            }
            Event::StageBegin { stage, .. } => self.open(stage.name()),
            Event::StageEnd { stage, .. } => self.close(stage.name(), dur),
            Event::Counter { counter, delta } => {
                *self
                    .analysis
                    .counters
                    .entry(counter.name().to_string())
                    .or_default() += delta;
            }
            Event::Usage {
                model,
                prompt_tokens,
                completion_tokens,
                cost_nanousd,
            } => self.usage(model, *prompt_tokens, *completion_tokens, *cost_nanousd),
            Event::Message { .. } => {}
        }
    }
}

impl TraceSink for SpanTreeBuilder {
    fn record(&mut self, record: &Record<'_>) {
        self.apply_event(record.event, record.dur_ns);
    }
}

fn build_node(nodes: &[ArenaNode], idx: usize) -> SpanNode {
    let Some(n) = nodes.get(idx) else {
        return SpanNode::default();
    };
    SpanNode {
        label: n.label.clone(),
        count: n.count,
        total_ns: n.total_ns,
        cost_nanousd: n.cost_nanousd,
        calls: n.calls,
        children: n.children.iter().map(|&c| build_node(nodes, c)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Counter, Stage};
    use crate::{ManualClock, RunObserver, Tracer};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::StageBegin {
                iter: 0,
                stage: Stage::Restore,
            },
            Event::StageEnd {
                iter: 0,
                stage: Stage::Restore,
            },
            Event::RunBegin {
                label: "DataSculpt-Base".into(),
                dataset: "youtube".into(),
                model: "sim".into(),
                queries: 2,
                seed: 7,
            },
            Event::StageBegin {
                iter: 0,
                stage: Stage::Select,
            },
            Event::StageEnd {
                iter: 0,
                stage: Stage::Select,
            },
            Event::IterationBegin {
                iter: 0,
                instance: 3,
            },
            Event::StageBegin {
                iter: 0,
                stage: Stage::Generate,
            },
            Event::Usage {
                model: "sim".into(),
                prompt_tokens: 100,
                completion_tokens: 10,
                cost_nanousd: 190_000,
            },
            Event::StageEnd {
                iter: 0,
                stage: Stage::Generate,
            },
            Event::Counter {
                counter: Counter::LfAccepted,
                delta: 2,
            },
            Event::IterationEnd {
                iter: 0,
                accepted: 2,
                rejected: 0,
                failed: false,
            },
            Event::RunEnd {
                iterations: 1,
                failed: 0,
                lfs: 2,
            },
        ]
    }

    fn trace_of(events: &[Event]) -> String {
        use std::sync::{Arc, Mutex};

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

        let buf = Buf::default();
        let mut tracer = Tracer::new(Box::new(ManualClock::new(100)));
        tracer.add_sink(Box::new(crate::JsonlTraceSink::new(buf.clone())));
        for e in events {
            tracer.on_event(e);
        }
        tracer.finish().unwrap();
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn reconstructs_the_documented_tree_shape() {
        let a = TraceAnalysis::from_trace(&trace_of(&sample_events())).unwrap();
        assert_eq!(a.root.label, ROOT_LABEL);
        // restore (pre-run) and run hang off the synthetic root; select is a
        // child of run (it closes before iter_begin); generate sits under
        // iteration.
        let top: Vec<&str> = a.root.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(top, vec!["restore", "run"]);
        let run = &a.root.children[1];
        let under_run: Vec<&str> = run.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(under_run, vec!["select", "iteration"]);
        let iteration = &run.children[1];
        assert_eq!(iteration.children[0].label, "generate");
        assert_eq!(iteration.count, 1);
        assert_eq!(a.iterations, 1);
        assert_eq!(a.dataset, "youtube");
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn cost_attributes_to_the_innermost_span_and_sums_exactly() {
        let a = TraceAnalysis::from_trace(&trace_of(&sample_events())).unwrap();
        let flat = a.root.flatten();
        let generate = flat.iter().find(|f| f.path.ends_with(";generate")).unwrap();
        assert_eq!(generate.cost_nanousd, 190_000);
        assert_eq!(generate.calls, 1);
        assert_eq!(a.root.subtree_cost_nanousd(), a.total_cost_nanousd());
        assert_eq!(a.total_cost_nanousd(), 190_000);
        // The model-call histogram sampled the generate span's duration.
        assert_eq!(a.model_call_hists["sim"].count(), 1);
        assert_eq!(a.model_call_hists["sim"].sum_ns(), generate.total_ns);
    }

    #[test]
    fn self_time_excludes_children() {
        let a = TraceAnalysis::from_trace(&trace_of(&sample_events())).unwrap();
        let flat = a.root.flatten();
        let run = flat.iter().find(|f| f.path == "trace;run").unwrap();
        let iteration = flat
            .iter()
            .find(|f| f.path == "trace;run;iteration")
            .unwrap();
        let select = flat.iter().find(|f| f.path == "trace;run;select").unwrap();
        assert_eq!(
            run.self_ns,
            run.total_ns - iteration.total_ns - select.total_ns
        );
        assert!(iteration.self_ns < iteration.total_ns);
    }

    #[test]
    fn live_sink_and_trace_parse_agree_exactly() {
        let events = sample_events();
        let parsed = TraceAnalysis::from_trace(&trace_of(&events)).unwrap();

        // Rebuild live through a tracer with the same clock so the records
        // carry identical durations to the serialized trace.
        let probe = LiveProbe(std::sync::Arc::new(std::sync::Mutex::new(
            SpanTreeBuilder::new(),
        )));
        let mut tracer = Tracer::new(Box::new(ManualClock::new(100)));
        tracer.add_sink(Box::new(probe.clone()));
        for e in &events {
            tracer.on_event(e);
        }
        let live = probe.0.lock().unwrap().clone().finish();
        assert_eq!(live, parsed);
        assert_eq!(live.structural_digest, parsed.structural_digest);
    }

    #[derive(Clone)]
    struct LiveProbe(std::sync::Arc<std::sync::Mutex<SpanTreeBuilder>>);

    impl TraceSink for LiveProbe {
        fn record(&mut self, record: &Record<'_>) {
            self.0.lock().unwrap().record(record);
        }
    }

    #[test]
    fn structural_digest_ignores_timing_but_not_structure() {
        let events = sample_events();
        let fast = trace_of(&events); // tick 100
        let a = TraceAnalysis::from_trace(&fast).unwrap();

        // Same events, different clock tick: digest identical.
        let slow = {
            use std::sync::{Arc, Mutex};
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
            let buf = Buf::default();
            let mut tracer = Tracer::new(Box::new(ManualClock::new(7_777)));
            tracer.add_sink(Box::new(crate::JsonlTraceSink::new(buf.clone())));
            for e in &events {
                tracer.on_event(e);
            }
            let bytes = buf.0.lock().unwrap().clone();
            String::from_utf8(bytes).unwrap()
        };
        let b = TraceAnalysis::from_trace(&slow).unwrap();
        assert_eq!(a.structural_digest, b.structural_digest);

        // A different counter delta changes the digest.
        let mut changed = sample_events();
        changed[9] = Event::Counter {
            counter: Counter::LfAccepted,
            delta: 3,
        };
        let c = TraceAnalysis::from_trace(&trace_of(&changed)).unwrap();
        assert_ne!(a.structural_digest, c.structural_digest);
    }
}

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
//! [`TraceAnalysis`] also carries the run's [`MetricsSnapshot`] (the
//! same aggregate a live [`MetricsRecorder`](crate::MetricsRecorder)
//! builds: per-span-kind and per-model-call latency histograms, counter
//! and usage rollups), and a timing-free structural digest (FNV-1a over
//! every event's codec fields, `Event::for_each_field`, which leave out
//! `seq`/`t_ns`/`dur_ns`) used by `trace diff` — two same-seed runs
//! produce the same digest at any thread count and wall-clock speed.

use crate::event::{Event, FieldValue, SpanEdge};
use crate::hash::Fnv64;
use crate::metrics::{MetricsAggregate, MetricsSnapshot};
use crate::schema::{replay_trace, ValidateError};
use crate::tracer::{Record, TraceSink};
use std::collections::BTreeMap;

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

/// Everything `trace analyze` / `trace diff` / `trace flame` / `trace
/// expo` work from: the run header, the attribution tree, the metrics
/// aggregate, the kind counts, and a timing-free structural digest.
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
    /// Events per kind.
    pub kinds: BTreeMap<&'static str, u64>,
    /// Per-model usage, counters, span and model-call latency histograms,
    /// and iteration and event counts: what a live
    /// [`MetricsRecorder`](crate::MetricsRecorder) on the same run holds.
    pub metrics: MetricsSnapshot,
    /// The attribution tree, rooted at the synthetic [`ROOT_LABEL`] node.
    pub root: SpanNode,
    /// FNV-1a 64 over every event's timing-free canonical form (the kind
    /// and its codec fields, so everything except `seq`, `t_ns`,
    /// `dur_ns`). Identical for two runs whose event streams differ only
    /// in timing.
    pub structural_digest: u64,
}

impl TraceAnalysis {
    /// Validate `text` as a v1 JSONL trace and reconstruct its analysis,
    /// replaying each decoded line through [`SpanTreeBuilder`].
    pub fn from_trace(text: &str) -> Result<TraceAnalysis, ValidateError> {
        let mut builder = SpanTreeBuilder::new();
        replay_trace(text, |record| builder.record(record))?;
        Ok(builder.finish())
    }

    /// Total nano-USD across models (equals the tree's subtree cost).
    pub fn total_cost_nanousd(&self) -> u128 {
        self.metrics.total_cost_nanousd()
    }

    /// The [`MetricsSnapshot`] the Prometheus exposition
    /// ([`render_prometheus`](crate::render_prometheus)) renders, so a
    /// stored trace can be served without replaying it.
    pub fn to_metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.clone()
    }
}

/// Builds a [`TraceAnalysis`] incrementally — either from parsed trace
/// lines ([`TraceAnalysis::from_trace`]) or live, as a [`TraceSink`] on a
/// [`Tracer`](crate::Tracer). Both paths feed it the same records, so
/// they produce identical analyses for the same event stream (pinned by a
/// test below).
#[derive(Debug, Clone)]
pub struct SpanTreeBuilder {
    /// Run header and kind counts; the rest is filled in by `finish`.
    analysis: TraceAnalysis,
    metrics: MetricsAggregate,
    /// Arena of nodes being aggregated; index 0 is the synthetic root.
    nodes: Vec<ArenaNode>,
    /// Indices of currently open spans, outermost first.
    stack: Vec<usize>,
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
            metrics: MetricsAggregate::default(),
            nodes: vec![ArenaNode {
                label: ROOT_LABEL.to_string(),
                ..ArenaNode::default()
            }],
            stack: Vec::new(),
            digest: Fnv64::default(),
        }
    }

    /// Finish: materialize the aggregated arena into the final tree.
    pub fn finish(mut self) -> TraceAnalysis {
        self.analysis.metrics = self.metrics.snapshot;
        self.analysis.structural_digest = self.digest.finish();
        self.analysis.root = build_node(&self.nodes, 0);
        self.analysis.root.total_ns = self.analysis.root.children.iter().map(|c| c.total_ns).sum();
        self.analysis
    }

    /// Fold one event's timing-free canonical form into the digest: the
    /// kind, then each codec field's value (strings raw, integers in
    /// decimal) after a `|`, then a newline.
    fn hash_event(&mut self, event: &Event) {
        let digest = &mut self.digest;
        digest.eat(event.kind().as_bytes());
        event.for_each_field(|_, value| {
            digest.eat(b"|");
            match value {
                FieldValue::Str(s) => digest.eat(s.as_bytes()),
                FieldValue::UInt(n) => digest.eat(n.to_string().as_bytes()),
                FieldValue::Bool(b) => digest.eat(if b { "true" } else { "false" }.as_bytes()),
            }
        });
        digest.eat(b"\n");
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
    }

    fn close(&mut self, dur_ns: u64) {
        // An unmatched end (producer bug) has nothing to attribute.
        if let Some(node) = self.stack.pop().and_then(|idx| self.nodes.get_mut(idx)) {
            node.count += 1;
            node.total_ns += u128::from(dur_ns);
        }
    }
}

impl TraceSink for SpanTreeBuilder {
    fn record(&mut self, record: &Record<'_>) {
        let event = record.event;
        self.metrics.record(record);
        self.hash_event(event);
        *self.analysis.kinds.entry(event.kind()).or_default() += 1;
        match event.span_edge() {
            Some(SpanEdge::Open(key)) => self.open(key.label()),
            Some(SpanEdge::Close(_)) => self.close(record.dur_ns.unwrap_or(0)),
            None => {}
        }
        match event {
            Event::RunBegin {
                label,
                dataset,
                model,
                queries,
                seed,
            } => {
                let a = &mut self.analysis;
                a.label.clone_from(label);
                a.dataset.clone_from(dataset);
                a.model.clone_from(model);
                a.queries = *queries;
                a.seed = *seed;
            }
            Event::Usage { cost_nanousd, .. } => {
                // Attributed to the innermost open span (the root if none).
                let idx = self.stack.last().copied().unwrap_or(0);
                if let Some(node) = self.nodes.get_mut(idx) {
                    node.cost_nanousd += cost_nanousd;
                    node.calls += 1;
                }
            }
            _ => {}
        }
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
        assert_eq!(a.metrics.iterations, 1);
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
        assert_eq!(a.metrics.model_call_hists["sim"].count(), 1);
        assert_eq!(
            a.metrics.model_call_hists["sim"].sum_ns(),
            generate.total_ns
        );
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

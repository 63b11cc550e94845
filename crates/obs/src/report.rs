//! Rendering and diffing of [`TraceAnalysis`] results: the human-readable
//! `trace analyze` report, its stable `--json` form (golden-fixture
//! tested), the folded-stacks flamegraph export, and the structural
//! `trace diff`.
//!
//! Everything here is deterministic: maps are `BTreeMap`-ordered, tree
//! children keep first-encounter order, and the diff compares only
//! timing-free fields unless explicitly asked (`timing: true`) — so two
//! same-seed runs diff empty at any thread count or machine speed.

use crate::cost::{format_ns, format_usd};
use crate::hist::LatencyHistogram;
use crate::jsonl::escape_json;
use crate::spantree::{FlatSpan, SpanNode, TraceAnalysis};
use crate::TRACE_SCHEMA_VERSION;
use std::collections::BTreeMap;

fn ns_u64(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Hot paths: flattened spans sorted by exclusive (self) time, heaviest
/// first, ties broken by path so the order is total.
pub fn hot_paths(analysis: &TraceAnalysis, top_n: usize) -> Vec<FlatSpan> {
    let mut flat = analysis.root.flatten();
    flat.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    flat.truncate(top_n);
    flat
}

/// Folded-stacks export: one `path;to;node <self_ns>` line per span-tree
/// node, depth-first — the format `flamegraph.pl` and speedscope ingest
/// directly (sample weight = exclusive nanoseconds).
pub fn folded_stacks(analysis: &TraceAnalysis) -> String {
    let mut out = String::new();
    for f in analysis.root.flatten() {
        out.push_str(&format!("{} {}\n", f.path, ns_u64(f.self_ns)));
    }
    out
}

fn render_tree_into(node: &SpanNode, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    out.push_str(&format!(
        "{:<40} {:>6} {:>10} {:>10} {:>6} {:>12}\n",
        format!("{indent}{}", node.label),
        node.count,
        format_ns(ns_u64(node.total_ns)),
        format_ns(ns_u64(node.self_ns())),
        node.calls,
        format_usd(node.cost_nanousd)
    ));
    for child in &node.children {
        render_tree_into(child, depth + 1, out);
    }
}

fn render_hists(hists: &BTreeMap<String, LatencyHistogram>, out: &mut String) {
    for (name, h) in hists {
        out.push_str(&format!(
            "  {name}: count={} mean={} p50<={} p99<={} max={}\n",
            h.count(),
            format_ns(ns_u64(h.mean_ns())),
            format_ns(h.quantile_upper_ns(50).unwrap_or(0)),
            format_ns(h.quantile_upper_ns(99).unwrap_or(0)),
            format_ns(h.max_ns().unwrap_or(0)),
        ));
        out.push_str(&h.render_rows("    "));
    }
}

/// The full human-readable `trace analyze` report.
pub fn render_analyze(analysis: &TraceAnalysis) -> String {
    let snap = &analysis.metrics;
    let mut out = String::new();
    out.push_str(&format!(
        "trace: label={:?} dataset={:?} model={:?} queries={} seed={}\n",
        analysis.label, analysis.dataset, analysis.model, analysis.queries, analysis.seed
    ));
    out.push_str(&format!(
        "events: {}  iterations: {} ({} failed)  structural digest: {:016x}\n",
        snap.events, snap.iterations, snap.failed_iterations, analysis.structural_digest
    ));
    out.push_str(&format!(
        "total cost: {} ({} nano-USD, tree-attributed exactly)\n\n",
        format_usd(analysis.total_cost_nanousd()),
        analysis.total_cost_nanousd()
    ));

    out.push_str(&format!(
        "{:<40} {:>6} {:>10} {:>10} {:>6} {:>12}\n",
        "span tree", "count", "total", "self", "calls", "cost"
    ));
    render_tree_into(&analysis.root, 0, &mut out);

    out.push_str("\nhot paths (by self time):\n");
    for f in hot_paths(analysis, 10) {
        out.push_str(&format!(
            "  {:<46} {:>10} {:>12}\n",
            f.path,
            format_ns(ns_u64(f.self_ns)),
            format_usd(f.cost_nanousd)
        ));
    }

    if !snap.span_hists.is_empty() {
        out.push_str("\nspan latency histograms:\n");
        render_hists(&snap.span_hists, &mut out);
    }
    if !snap.model_call_hists.is_empty() {
        out.push_str("\nmodel call latency histograms (innermost enclosing span):\n");
        render_hists(&snap.model_call_hists, &mut out);
    }

    if !snap.counters.is_empty() {
        out.push_str("\ncounters:\n");
        for (name, v) in &snap.counters {
            out.push_str(&format!("  {name:<24} {v:>10}\n"));
        }
    }
    if !snap.models.is_empty() {
        out.push_str("\nmodels:\n");
        for (name, m) in &snap.models {
            out.push_str(&format!(
                "  {:<24} calls={} prompt={} completion={} cost={}\n",
                name,
                m.calls,
                m.prompt_tokens,
                m.completion_tokens,
                format_usd(m.cost_nanousd)
            ));
        }
    }
    out
}

fn node_json(node: &SpanNode) -> String {
    let mut out = format!(
        "{{\"label\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"calls\":{},\"cost_nanousd\":{},\"children\":[",
        escape_json(&node.label),
        node.count,
        node.total_ns,
        node.self_ns(),
        node.calls,
        node.cost_nanousd
    );
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&node_json(child));
    }
    out.push_str("]}");
    out
}

fn map_json<K: AsRef<str>, V>(map: &BTreeMap<K, V>, render: impl Fn(&V) -> String) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", escape_json(k.as_ref()), render(v)));
    }
    out.push('}');
    out
}

/// The stable JSON form of the analysis (`trace analyze --json`): one
/// object, fixed field order, `BTreeMap` key order — byte-identical for
/// identical traces, which is what the golden-fixture smoke in
/// `scripts/check.sh` pins.
pub fn render_analyze_json(analysis: &TraceAnalysis) -> String {
    let snap = &analysis.metrics;
    let mut out = format!(
        "{{\"v\":{TRACE_SCHEMA_VERSION},\"label\":\"{}\",\"dataset\":\"{}\",\"model\":\"{}\",\"queries\":{},\"seed\":{}",
        escape_json(&analysis.label),
        escape_json(&analysis.dataset),
        escape_json(&analysis.model),
        analysis.queries,
        analysis.seed
    );
    out.push_str(&format!(
        ",\"events\":{},\"iterations\":{},\"failed_iterations\":{},\"structural_digest\":\"{:016x}\",\"total_cost_nanousd\":{}",
        snap.events,
        snap.iterations,
        snap.failed_iterations,
        analysis.structural_digest,
        analysis.total_cost_nanousd()
    ));
    out.push_str(&format!(
        ",\"kinds\":{}",
        map_json(&analysis.kinds, u64::to_string)
    ));
    out.push_str(&format!(
        ",\"counters\":{}",
        map_json(&snap.counters, u64::to_string)
    ));
    out.push_str(&format!(
        ",\"models\":{}",
        map_json(&snap.models, |m| format!(
            "{{\"calls\":{},\"prompt_tokens\":{},\"completion_tokens\":{},\"cost_nanousd\":{}}}",
            m.calls, m.prompt_tokens, m.completion_tokens, m.cost_nanousd
        ))
    ));
    out.push_str(&format!(",\"tree\":{}", node_json(&analysis.root)));
    out.push_str(&format!(
        ",\"span_hists\":{}",
        map_json(&snap.span_hists, LatencyHistogram::to_json)
    ));
    out.push_str(&format!(
        ",\"model_call_hists\":{}",
        map_json(&snap.model_call_hists, LatencyHistogram::to_json)
    ));
    out.push('}');
    out
}

/// One difference found by [`diff`], as a rendered line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffEntry {
    /// What differs, e.g. `counter lf_accepted` or `span trace;run cost`.
    pub field: String,
    /// Value in the first trace.
    pub a: String,
    /// Value in the second trace.
    pub b: String,
}

impl std::fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} != {}", self.field, self.a, self.b)
    }
}

fn diff_maps<K: Ord + AsRef<str>, V: PartialEq>(
    out: &mut Vec<DiffEntry>,
    prefix: &str,
    a: &BTreeMap<K, V>,
    b: &BTreeMap<K, V>,
    render: impl Fn(&V) -> String,
) {
    let keys: std::collections::BTreeSet<&K> = a.keys().chain(b.keys()).collect();
    for key in keys {
        let (va, vb) = (a.get(key), b.get(key));
        if va != vb {
            out.push(DiffEntry {
                field: format!("{prefix} {}", key.as_ref()),
                a: va.map_or_else(|| "absent".into(), &render),
                b: vb.map_or_else(|| "absent".into(), &render),
            });
        }
    }
}

fn push_if_ne<T: PartialEq + std::fmt::Display>(out: &mut Vec<DiffEntry>, field: &str, a: T, b: T) {
    if a != b {
        out.push(DiffEntry {
            field: field.to_string(),
            a: a.to_string(),
            b: b.to_string(),
        });
    }
}

/// Structural diff of two analyses. Timing-free by default: compares the
/// structural digest, event/kind/counter totals, per-model usage and
/// exact costs, and the span tree's shape/counts/cost attribution — all
/// fields that are deterministic for a same-seed run at any thread count.
/// With `timing: true` it also compares span durations and histograms
/// (only meaningful for replayed or manual-clock traces).
pub fn diff(a: &TraceAnalysis, b: &TraceAnalysis, timing: bool) -> Vec<DiffEntry> {
    let (ma, mb) = (&a.metrics, &b.metrics);
    let mut out = Vec::new();
    push_if_ne(
        &mut out,
        "structural_digest",
        format!("{:016x}", a.structural_digest),
        format!("{:016x}", b.structural_digest),
    );
    push_if_ne(&mut out, "label", &a.label, &b.label);
    push_if_ne(&mut out, "dataset", &a.dataset, &b.dataset);
    push_if_ne(&mut out, "model", &a.model, &b.model);
    push_if_ne(&mut out, "queries", a.queries, b.queries);
    push_if_ne(&mut out, "seed", a.seed, b.seed);
    push_if_ne(&mut out, "events", ma.events, mb.events);
    push_if_ne(&mut out, "iterations", ma.iterations, mb.iterations);
    push_if_ne(
        &mut out,
        "failed_iterations",
        ma.failed_iterations,
        mb.failed_iterations,
    );
    push_if_ne(
        &mut out,
        "total_cost_nanousd",
        a.total_cost_nanousd(),
        b.total_cost_nanousd(),
    );
    diff_maps(&mut out, "kind", &a.kinds, &b.kinds, u64::to_string);
    diff_maps(
        &mut out,
        "counter",
        &ma.counters,
        &mb.counters,
        u64::to_string,
    );
    diff_maps(&mut out, "model", &ma.models, &mb.models, |m| {
        format!(
            "calls={} prompt={} completion={} cost={}",
            m.calls, m.prompt_tokens, m.completion_tokens, m.cost_nanousd
        )
    });

    // Tree comparison over flattened paths: structure (the paths
    // themselves), span counts, and cost attribution are timing-free;
    // durations only under `timing`.
    let index = |root: &SpanNode| -> BTreeMap<String, FlatSpan> {
        root.flatten()
            .into_iter()
            .map(|f| (f.path.clone(), f))
            .collect()
    };
    let (fa, fb) = (index(&a.root), index(&b.root));
    let keys: std::collections::BTreeSet<&String> = fa.keys().chain(fb.keys()).collect();
    for key in keys {
        match (fa.get(key.as_str()), fb.get(key.as_str())) {
            (Some(x), Some(y)) => {
                push_if_ne(&mut out, &format!("span {key} count"), x.count, y.count);
                push_if_ne(&mut out, &format!("span {key} calls"), x.calls, y.calls);
                push_if_ne(
                    &mut out,
                    &format!("span {key} cost_nanousd"),
                    x.cost_nanousd,
                    y.cost_nanousd,
                );
                if timing {
                    push_if_ne(
                        &mut out,
                        &format!("span {key} total_ns"),
                        x.total_ns,
                        y.total_ns,
                    );
                    push_if_ne(
                        &mut out,
                        &format!("span {key} self_ns"),
                        x.self_ns,
                        y.self_ns,
                    );
                }
            }
            (x, y) => out.push(DiffEntry {
                field: format!("span {key}"),
                a: if x.is_some() { "present" } else { "absent" }.into(),
                b: if y.is_some() { "present" } else { "absent" }.into(),
            }),
        }
    }

    if timing {
        diff_maps(
            &mut out,
            "span_hist",
            &ma.span_hists,
            &mb.span_hists,
            LatencyHistogram::to_json,
        );
        diff_maps(
            &mut out,
            "model_call_hist",
            &ma.model_call_hists,
            &mb.model_call_hists,
            LatencyHistogram::to_json,
        );
    }
    out
}

/// Render a diff result: `identical` marker or one line per difference.
pub fn render_diff(entries: &[DiffEntry]) -> String {
    if entries.is_empty() {
        return "traces are structurally identical\n".to_string();
    }
    let mut out = format!("{} difference(s):\n", entries.len());
    for e in entries {
        out.push_str(&format!("  {e}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Counter, Event, Stage};
    use crate::{ManualClock, RunObserver, Tracer};
    use std::sync::{Arc, Mutex};

    fn trace_with(tick: u64, counter_delta: u64) -> String {
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
        let mut tracer = Tracer::new(Box::new(ManualClock::new(tick)));
        tracer.add_sink(Box::new(crate::JsonlTraceSink::new(buf.clone())));
        let events = [
            Event::RunBegin {
                label: "base".into(),
                dataset: "youtube".into(),
                model: "sim".into(),
                queries: 1,
                seed: 42,
            },
            Event::IterationBegin {
                iter: 0,
                instance: 0,
            },
            Event::StageBegin {
                iter: 0,
                stage: Stage::Generate,
            },
            Event::Usage {
                model: "sim".into(),
                prompt_tokens: 10,
                completion_tokens: 2,
                cost_nanousd: 5_000,
            },
            Event::StageEnd {
                iter: 0,
                stage: Stage::Generate,
            },
            Event::Counter {
                counter: Counter::LfAccepted,
                delta: counter_delta,
            },
            Event::IterationEnd {
                iter: 0,
                accepted: 1,
                rejected: 0,
                failed: false,
            },
            Event::RunEnd {
                iterations: 1,
                failed: 0,
                lfs: 1,
            },
        ];
        for e in &events {
            tracer.on_event(e);
        }
        tracer.finish().unwrap();
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn same_structure_different_timing_diffs_empty() {
        let a = TraceAnalysis::from_trace(&trace_with(100, 2)).unwrap();
        let b = TraceAnalysis::from_trace(&trace_with(9_999, 2)).unwrap();
        assert_eq!(diff(&a, &b, false), vec![]);
        assert!(render_diff(&diff(&a, &b, false)).contains("identical"));
        // Under --timing the clock difference shows up.
        assert!(!diff(&a, &b, true).is_empty());
    }

    #[test]
    fn structural_change_is_reported() {
        let a = TraceAnalysis::from_trace(&trace_with(100, 2)).unwrap();
        let b = TraceAnalysis::from_trace(&trace_with(100, 3)).unwrap();
        let d = diff(&a, &b, false);
        assert!(d.iter().any(|e| e.field == "counter lf_accepted"));
        assert!(d.iter().any(|e| e.field == "structural_digest"));
        assert!(render_diff(&d).contains("counter lf_accepted: 2 != 3"));
    }

    #[test]
    fn analyze_json_is_stable_and_flame_covers_all_paths() {
        let a = TraceAnalysis::from_trace(&trace_with(100, 2)).unwrap();
        let b = TraceAnalysis::from_trace(&trace_with(100, 2)).unwrap();
        assert_eq!(render_analyze_json(&a), render_analyze_json(&b));
        let json = render_analyze_json(&a);
        assert!(json.starts_with("{\"v\":1,\"label\":\"base\",\"dataset\":\"youtube\""));
        assert!(json.contains("\"total_cost_nanousd\":5000"));
        assert!(json.contains("\"tree\":{\"label\":\"trace\""));

        let flame = folded_stacks(&a);
        assert!(flame.contains("trace;run;iteration;generate "));
        for line in flame.lines() {
            let (path, value) = line.rsplit_once(' ').unwrap();
            assert!(!path.is_empty());
            value.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn report_renders_tree_hot_paths_and_hists() {
        let a = TraceAnalysis::from_trace(&trace_with(100, 2)).unwrap();
        let text = render_analyze(&a);
        assert!(text.contains("span tree"));
        assert!(text.contains("generate"));
        assert!(text.contains("hot paths"));
        assert!(text.contains("model call latency histograms"));
        assert!(text.contains("lf_accepted"));
        assert!(text.contains(&format!("{} nano-USD", 5_000)));
    }
}

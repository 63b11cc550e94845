//! The typed event taxonomy and its codec (trace schema v1).
//!
//! Every observable thing that happens during a run is one [`Event`].
//! Producers (the pipeline, the LLM middleware, the baselines, the bench
//! drivers) emit events through a [`RunObserver`](crate::RunObserver);
//! sinks serialize or aggregate them.
//!
//! This module is the one place the schema is written down:
//! `Event::for_each_field` is the encoder's field list (what
//! [`render_line`](crate::jsonl::render_line) writes after the record
//! header and what the structural digest hashes), `Event::decode` is
//! its strict inverse (what [`validate_trace`](crate::schema::validate_trace)
//! and [`TraceAnalysis::from_trace`](crate::TraceAnalysis::from_trace)
//! read), and `SpanKey` is how span ends find their begins. A new kind
//! or field is one edit here, a `TRACE_SCHEMA_VERSION` bump and
//! regenerated fixtures. The JSONL wire form of each variant is
//! documented in `docs/trace-schema.md` and pinned by a golden-file test
//! and a round-trip test below.

use crate::schema::Fields;
use std::fmt;

/// A pipeline stage, used to label span begin/end pairs.
///
/// The five DataSculpt stages of one query iteration (`select` → `prompt`
/// → `generate` → `integrate` → `revise`) plus the spans emitted by other
/// producers: `annotate` (one PromptedLF template pass), `fit` (a
/// label-model fit), and `bench` (one dataset cell of a bench driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Stage 1: pick the next query instance (§3.4).
    Select,
    /// Stage 2: choose in-context examples and render the prompt (§3.3).
    Prompt,
    /// Stage 3: chat completion + parsing + self-consistency (§4.1).
    Generate,
    /// Stage 4: candidate LFs through the filters (§3.5).
    Integrate,
    /// Stage 5: re-prompt for accuracy-rejected candidates (§5).
    Revise,
    /// One PromptedLF template annotated over the whole train split.
    Annotate,
    /// One label-model fit.
    Fit,
    /// One dataset cell of a bench driver.
    Bench,
    /// One durable-run checkpoint written to disk.
    Checkpoint,
    /// Restoring durable-run state from disk (store open + checkpoint
    /// load + verified replay).
    Restore,
    /// One tenant job processed by the serving daemon (submit → terminal
    /// state); usage events inside the span attribute the job's exact
    /// nano-USD cost to it.
    Job,
}

impl Stage {
    /// Every stage, in reporting order.
    pub const ALL: [Stage; 11] = [
        Stage::Select,
        Stage::Prompt,
        Stage::Generate,
        Stage::Integrate,
        Stage::Revise,
        Stage::Annotate,
        Stage::Fit,
        Stage::Bench,
        Stage::Checkpoint,
        Stage::Restore,
        Stage::Job,
    ];

    /// Stable wire name (the JSONL `stage` field).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Select => "select",
            Stage::Prompt => "prompt",
            Stage::Generate => "generate",
            Stage::Integrate => "integrate",
            Stage::Revise => "revise",
            Stage::Annotate => "annotate",
            Stage::Fit => "fit",
            Stage::Bench => "bench",
            Stage::Checkpoint => "checkpoint",
            Stage::Restore => "restore",
            Stage::Job => "job",
        }
    }

    /// Parse a wire name back into a stage.
    pub fn parse(name: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A named monotone counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    /// Candidate LF accepted into the set.
    LfAccepted,
    /// Candidate was an exact duplicate of an accepted LF.
    LfDuplicate,
    /// Candidate rejected by the validity filter.
    LfRejectedValidity,
    /// Candidate rejected by the accuracy filter.
    LfRejectedAccuracy,
    /// Candidate rejected by the redundancy filter.
    LfRejectedRedundancy,
    /// An LLM response sample that yielded no usable `(label, keywords)`.
    ParseFailure,
    /// One §5 revision round-trip issued.
    Revision,
    /// Request served from the response cache.
    CacheHit,
    /// Request forwarded to the backend by the cache.
    CacheMiss,
    /// Cache entry dropped to respect the capacity bound.
    CacheEviction,
    /// A failed call re-issued by the retry middleware.
    Retry,
    /// An LLM call that failed with an error.
    LlmError,
    /// Request served from the on-disk response store.
    StoreHit,
    /// Request forwarded to the backend by the disk store.
    StoreMiss,
    /// One checkpoint record appended to the checkpoint log.
    CheckpointWrite,
    /// One already-checkpointed iteration verified during a resume replay.
    RestoreReplay,
    /// A tenant job admitted (scheduled onto the pool) by the serving
    /// daemon's budget admission control.
    JobAdmit,
    /// A tenant job rejected at admission: the tenant's remaining budget
    /// cannot cover the job's projected cost.
    JobRejectBudget,
    /// A running job paused mid-run: its next iteration's projected cost
    /// would overdraw the tenant's budget. State is checkpointed; a
    /// budget top-up resumes it bit-identically.
    JobPause,
    /// A tenant job that ran to completion.
    JobComplete,
}

impl Counter {
    /// Every counter, in reporting order.
    pub const ALL: [Counter; 20] = [
        Counter::LfAccepted,
        Counter::LfDuplicate,
        Counter::LfRejectedValidity,
        Counter::LfRejectedAccuracy,
        Counter::LfRejectedRedundancy,
        Counter::ParseFailure,
        Counter::Revision,
        Counter::CacheHit,
        Counter::CacheMiss,
        Counter::CacheEviction,
        Counter::Retry,
        Counter::LlmError,
        Counter::StoreHit,
        Counter::StoreMiss,
        Counter::CheckpointWrite,
        Counter::RestoreReplay,
        Counter::JobAdmit,
        Counter::JobRejectBudget,
        Counter::JobPause,
        Counter::JobComplete,
    ];

    /// Stable wire name (the JSONL `counter` field).
    pub fn name(&self) -> &'static str {
        match self {
            Counter::LfAccepted => "lf_accepted",
            Counter::LfDuplicate => "lf_duplicate",
            Counter::LfRejectedValidity => "lf_rejected_validity",
            Counter::LfRejectedAccuracy => "lf_rejected_accuracy",
            Counter::LfRejectedRedundancy => "lf_rejected_redundancy",
            Counter::ParseFailure => "parse_failure",
            Counter::Revision => "revision",
            Counter::CacheHit => "cache_hit",
            Counter::CacheMiss => "cache_miss",
            Counter::CacheEviction => "cache_eviction",
            Counter::Retry => "retry",
            Counter::LlmError => "llm_error",
            Counter::StoreHit => "store_hit",
            Counter::StoreMiss => "store_miss",
            Counter::CheckpointWrite => "checkpoint_write",
            Counter::RestoreReplay => "restore_replay",
            Counter::JobAdmit => "job_admit",
            Counter::JobRejectBudget => "job_reject_budget",
            Counter::JobPause => "job_pause",
            Counter::JobComplete => "job_complete",
        }
    }

    /// Parse a wire name back into a counter.
    pub fn parse(name: &str) -> Option<Counter> {
        Counter::ALL.iter().copied().find(|c| c.name() == name)
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One observable occurrence during a run.
///
/// `iter` fields are 0-based query-iteration indices. Token counts are
/// exact `u64`s and costs are exact integer nano-USD, mirroring the
/// [`UsageLedger`](../../llm) accounting invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A run started.
    RunBegin {
        /// Method display label (e.g. `DataSculpt-SC`, `PromptedLF`).
        label: String,
        /// Dataset name.
        dataset: String,
        /// Backend model API name.
        model: String,
        /// Configured query-iteration budget (or template count).
        queries: u64,
        /// Run seed.
        seed: u64,
    },
    /// The run finished (also emitted when a run aborts with an error).
    RunEnd {
        /// Iterations actually executed.
        iterations: u64,
        /// Iterations that failed with an LLM error.
        failed: u64,
        /// Accepted LFs (or weak-label columns) at the end.
        lfs: u64,
    },
    /// A query iteration started (its instance is known after `select`).
    IterationBegin {
        /// 0-based iteration index.
        iter: u64,
        /// Train-split index of the queried instance.
        instance: u64,
    },
    /// A query iteration finished.
    IterationEnd {
        /// 0-based iteration index.
        iter: u64,
        /// Candidate LFs accepted this iteration.
        accepted: u64,
        /// Candidate LFs rejected this iteration.
        rejected: u64,
        /// Whether the iteration was cut short by an LLM error.
        failed: bool,
    },
    /// A stage span opened.
    StageBegin {
        /// Iteration the stage belongs to.
        iter: u64,
        /// The stage.
        stage: Stage,
    },
    /// A stage span closed. The [`Tracer`](crate::Tracer) stamps the
    /// duration from its clock when forwarding to sinks.
    StageEnd {
        /// Iteration the stage belongs to.
        iter: u64,
        /// The stage.
        stage: Stage,
    },
    /// A counter increment.
    Counter {
        /// Which counter.
        counter: Counter,
        /// Increment (≥ 1).
        delta: u64,
    },
    /// Token/cost delta for one recorded LLM call (or a merged batch).
    Usage {
        /// Model API name.
        model: String,
        /// Prompt tokens billed.
        prompt_tokens: u64,
        /// Completion tokens billed.
        completion_tokens: u64,
        /// Exact cost in nano-USD at the pricing-table rates.
        cost_nanousd: u128,
    },
    /// A human-readable progress line (free text).
    Message {
        /// The text.
        text: String,
    },
}

impl Event {
    /// Stable wire name (the JSONL `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunBegin { .. } => "run_begin",
            Event::RunEnd { .. } => "run_end",
            Event::IterationBegin { .. } => "iter_begin",
            Event::IterationEnd { .. } => "iter_end",
            Event::StageBegin { .. } => "stage_begin",
            Event::StageEnd { .. } => "stage_end",
            Event::Counter { .. } => "counter",
            Event::Usage { .. } => "usage",
            Event::Message { .. } => "message",
        }
    }

    /// Every wire kind, in schema order.
    pub const KINDS: [&'static str; 9] = [
        "run_begin",
        "run_end",
        "iter_begin",
        "iter_end",
        "stage_begin",
        "stage_end",
        "counter",
        "usage",
        "message",
    ];

    /// Whether this event opens or closes a span, and which.
    pub(crate) fn span_edge(&self) -> Option<SpanEdge> {
        match *self {
            Event::RunBegin { .. } => Some(SpanEdge::Open(SpanKey::Run)),
            Event::IterationBegin { iter, .. } => Some(SpanEdge::Open(SpanKey::Iteration(iter))),
            Event::StageBegin { iter, stage } => Some(SpanEdge::Open(SpanKey::Stage(iter, stage))),
            Event::RunEnd { .. } => Some(SpanEdge::Close(SpanKey::Run)),
            Event::IterationEnd { iter, .. } => Some(SpanEdge::Close(SpanKey::Iteration(iter))),
            Event::StageEnd { iter, stage } => Some(SpanEdge::Close(SpanKey::Stage(iter, stage))),
            Event::Counter { .. } | Event::Usage { .. } | Event::Message { .. } => None,
        }
    }

    /// The encoder: call `f` with each kind-specific wire field, in schema
    /// order. The record header (`v`, `seq`, `t_ns`, `kind`, `dur_ns`) is
    /// not part of it, so the list is timing-free.
    pub(crate) fn for_each_field(&self, mut f: impl FnMut(&'static str, FieldValue<'_>)) {
        use FieldValue::{Bool, Str, UInt};
        match self {
            Event::RunBegin {
                label,
                dataset,
                model,
                queries,
                seed,
            } => {
                f("label", Str(label));
                f("dataset", Str(dataset));
                f("model", Str(model));
                f("queries", UInt((*queries).into()));
                f("seed", UInt((*seed).into()));
            }
            Event::RunEnd {
                iterations,
                failed,
                lfs,
            } => {
                f("iterations", UInt((*iterations).into()));
                f("failed", UInt((*failed).into()));
                f("lfs", UInt((*lfs).into()));
            }
            Event::IterationBegin { iter, instance } => {
                f("iter", UInt((*iter).into()));
                f("instance", UInt((*instance).into()));
            }
            Event::IterationEnd {
                iter,
                accepted,
                rejected,
                failed,
            } => {
                f("iter", UInt((*iter).into()));
                f("accepted", UInt((*accepted).into()));
                f("rejected", UInt((*rejected).into()));
                f("failed", Bool(*failed));
            }
            Event::StageBegin { iter, stage } | Event::StageEnd { iter, stage } => {
                f("iter", UInt((*iter).into()));
                f("stage", Str(stage.name()));
            }
            Event::Counter { counter, delta } => {
                f("counter", Str(counter.name()));
                f("delta", UInt((*delta).into()));
            }
            Event::Usage {
                model,
                prompt_tokens,
                completion_tokens,
                cost_nanousd,
            } => {
                f("model", Str(model));
                f("prompt_tokens", UInt((*prompt_tokens).into()));
                f("completion_tokens", UInt((*completion_tokens).into()));
                f("cost_nanousd", UInt(*cost_nanousd));
            }
            Event::Message { text } => f("text", Str(text)),
        }
    }

    /// The decoder, inverse of [`for_each_field`](Self::for_each_field):
    /// rebuild the event of wire kind `kind` from a parsed line. Strict:
    /// an unknown kind, stage or counter name, a missing field, a wrong
    /// type or an integer too large for its field is an error.
    pub(crate) fn decode(kind: &str, fields: &Fields) -> Result<Event, String> {
        let stage = || {
            let name = fields.str("stage")?;
            Stage::parse(name).ok_or_else(|| format!("unknown stage '{name}'"))
        };
        Ok(match kind {
            "run_begin" => Event::RunBegin {
                label: fields.str("label")?.to_string(),
                dataset: fields.str("dataset")?.to_string(),
                model: fields.str("model")?.to_string(),
                queries: fields.u64("queries")?,
                seed: fields.u64("seed")?,
            },
            "run_end" => Event::RunEnd {
                iterations: fields.u64("iterations")?,
                failed: fields.u64("failed")?,
                lfs: fields.u64("lfs")?,
            },
            "iter_begin" => Event::IterationBegin {
                iter: fields.u64("iter")?,
                instance: fields.u64("instance")?,
            },
            "iter_end" => Event::IterationEnd {
                iter: fields.u64("iter")?,
                accepted: fields.u64("accepted")?,
                rejected: fields.u64("rejected")?,
                failed: fields.bool("failed")?,
            },
            "stage_begin" => Event::StageBegin {
                iter: fields.u64("iter")?,
                stage: stage()?,
            },
            "stage_end" => Event::StageEnd {
                iter: fields.u64("iter")?,
                stage: stage()?,
            },
            "counter" => {
                let name = fields.str("counter")?;
                Event::Counter {
                    counter: Counter::parse(name)
                        .ok_or_else(|| format!("unknown counter '{name}'"))?,
                    delta: fields.u64("delta")?,
                }
            }
            "usage" => Event::Usage {
                model: fields.str("model")?.to_string(),
                prompt_tokens: fields.u64("prompt_tokens")?,
                completion_tokens: fields.u64("completion_tokens")?,
                cost_nanousd: fields.uint("cost_nanousd")?,
            },
            "message" => Event::Message {
                text: fields.str("text")?.to_string(),
            },
            other => return Err(format!("unknown event kind '{other}'")),
        })
    }
}

/// One wire field value, borrowed from its [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FieldValue<'a> {
    /// A string (JSON-escaped on the wire, raw in the digest).
    Str(&'a str),
    /// An unsigned integer (`u128` covers `cost_nanousd`).
    UInt(u128),
    /// A boolean.
    Bool(bool),
}

/// Identity of a span: what a begin event opens and its end event must
/// close. The [`Tracer`](crate::Tracer) matches durations by it and the
/// validator checks strict nesting by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpanKey {
    /// The run span (`run_begin` … `run_end`).
    Run,
    /// One query iteration.
    Iteration(u64),
    /// One stage of an iteration.
    Stage(u64, Stage),
}

impl SpanKey {
    /// Span-kind label in trees and histograms: `run`, `iteration`, or
    /// the stage's wire name.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            SpanKey::Run => "run",
            SpanKey::Iteration(_) => "iteration",
            SpanKey::Stage(_, stage) => stage.name(),
        }
    }
}

impl fmt::Display for SpanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanKey::Run => f.write_str("run"),
            SpanKey::Iteration(i) => write!(f, "iteration {i}"),
            SpanKey::Stage(i, s) => write!(f, "stage {s} (iter {i})"),
        }
    }
}

/// Which side of a span an event is (see `Event::span_edge`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpanEdge {
    /// A begin event.
    Open(SpanKey),
    /// An end event; it carries `dur_ns` on the wire.
    Close(SpanKey),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::{decode_line, render_line, DecodedLine};
    use crate::{
        JsonlTraceSink, ManualClock, Record, RunObserver, SpanTreeBuilder, TraceAnalysis,
        TraceSink, Tracer,
    };
    use std::sync::{Arc, Mutex};

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.name()), Some(s));
        }
        assert_eq!(Stage::parse("nope"), None);
    }

    #[test]
    fn counter_names_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::parse(c.name()), Some(c));
        }
        assert_eq!(Counter::parse("nope"), None);
    }

    #[test]
    fn kinds_cover_every_variant() {
        let samples = [
            Event::RunBegin {
                label: String::new(),
                dataset: String::new(),
                model: String::new(),
                queries: 0,
                seed: 0,
            },
            Event::RunEnd {
                iterations: 0,
                failed: 0,
                lfs: 0,
            },
            Event::IterationBegin {
                iter: 0,
                instance: 0,
            },
            Event::IterationEnd {
                iter: 0,
                accepted: 0,
                rejected: 0,
                failed: false,
            },
            Event::StageBegin {
                iter: 0,
                stage: Stage::Select,
            },
            Event::StageEnd {
                iter: 0,
                stage: Stage::Select,
            },
            Event::Counter {
                counter: Counter::CacheHit,
                delta: 1,
            },
            Event::Usage {
                model: String::new(),
                prompt_tokens: 0,
                completion_tokens: 0,
                cost_nanousd: 0,
            },
            Event::Message {
                text: String::new(),
            },
        ];
        for (e, kind) in samples.iter().zip(Event::KINDS) {
            assert_eq!(e.kind(), kind);
        }
    }

    // Round trip of the codec: every variant, with strings that need
    // escaping or are not ASCII and integers at their extremes, decodes
    // back to itself from its encoded line, and a stream digested live
    // analyzes (structural digest included) exactly like the same stream
    // re-read from its text.

    const TEXTS: [&str; 5] = [
        "",
        "plain",
        "quote \" backslash \\ slash /",
        "controls \u{0}\u{1}\u{8}\u{c}\u{1f}\n\r\t end",
        "non-ASCII: naïve Zürich 数据 🦀",
    ];
    const INTS: [u64; 3] = [0, 1, u64::MAX];
    const COSTS: [u128; 3] = [0, u64::MAX as u128, u128::MAX];

    /// Every variant for one string and one integer.
    fn variants(text: &str, n: u64, cost: u128) -> Vec<Event> {
        let stage = Stage::ALL[(n % Stage::ALL.len() as u64) as usize];
        let counter = Counter::ALL[(n % Counter::ALL.len() as u64) as usize];
        vec![
            Event::RunBegin {
                label: text.into(),
                dataset: format!("{text}-d"),
                model: format!("m-{text}"),
                queries: n,
                seed: n,
            },
            Event::RunEnd {
                iterations: n,
                failed: n,
                lfs: n,
            },
            Event::IterationBegin {
                iter: n,
                instance: n,
            },
            Event::IterationEnd {
                iter: n,
                accepted: n,
                rejected: n,
                failed: n % 2 == 1,
            },
            Event::StageBegin { iter: n, stage },
            Event::StageEnd { iter: n, stage },
            Event::Counter { counter, delta: n },
            Event::Usage {
                model: text.into(),
                prompt_tokens: n,
                completion_tokens: n,
                cost_nanousd: cost,
            },
            Event::Message { text: text.into() },
        ]
    }

    fn table() -> Vec<Event> {
        let mut events = Vec::new();
        for text in TEXTS {
            for (n, cost) in INTS.into_iter().zip(COSTS) {
                events.extend(variants(text, n, cost));
            }
        }
        events
    }

    #[test]
    fn every_event_decodes_back_from_its_line() {
        for event in table() {
            let is_end = matches!(event.span_edge(), Some(SpanEdge::Close(_)));
            for stamp in INTS {
                let dur_ns = is_end.then_some(stamp);
                let line = render_line(&Record {
                    seq: stamp,
                    t_ns: stamp,
                    dur_ns,
                    event: &event,
                });
                assert_eq!(
                    decode_line(&line),
                    Ok(DecodedLine {
                        seq: stamp,
                        t_ns: stamp,
                        dur_ns,
                        event: event.clone(),
                    }),
                    "{line}"
                );
            }
        }
    }

    /// A writer whose buffer stays readable after the sink is boxed.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[derive(Clone, Default)]
    struct LiveTree(Arc<Mutex<SpanTreeBuilder>>);

    impl TraceSink for LiveTree {
        fn record(&mut self, record: &Record<'_>) {
            self.0.lock().unwrap().record(record);
        }
    }

    /// The strings and extreme integers as two validly nested runs. Each
    /// string gets its own counter, model and stage, so no counter, token,
    /// cost or span total overflows when the analysis sums them.
    fn nested_stream() -> Vec<Event> {
        let mut stream = Vec::new();
        for (n, cost) in [(u64::MAX, u128::MAX), (0, 0)] {
            stream.push(Event::RunBegin {
                label: TEXTS[3].into(),
                dataset: TEXTS[2].into(),
                model: TEXTS[4].into(),
                queries: n,
                seed: n,
            });
            for (k, text) in TEXTS.into_iter().enumerate() {
                let stage = Stage::ALL[k];
                stream.extend([
                    Event::IterationBegin {
                        iter: n,
                        instance: n,
                    },
                    Event::StageBegin { iter: n, stage },
                    Event::Message { text: text.into() },
                    Event::Counter {
                        counter: Counter::ALL[k],
                        delta: n,
                    },
                    Event::Usage {
                        model: text.into(),
                        prompt_tokens: n,
                        completion_tokens: n,
                        cost_nanousd: if k == 0 { cost } else { 0 },
                    },
                    Event::StageEnd { iter: n, stage },
                    Event::IterationEnd {
                        iter: n,
                        accepted: n,
                        rejected: n,
                        failed: n > 0,
                    },
                ]);
            }
            stream.push(Event::RunEnd {
                iterations: n,
                failed: n,
                lfs: n,
            });
        }
        stream
    }

    #[test]
    fn live_and_reparsed_analyses_agree_digest_included() {
        let buf = SharedBuf::default();
        let live = LiveTree::default();
        let mut tracer = Tracer::new(Box::new(ManualClock::new(7)))
            .with_sink(Box::new(JsonlTraceSink::new(buf.clone())))
            .with_sink(Box::new(live.clone()));
        for event in nested_stream() {
            tracer.on_event(&event);
        }
        tracer.finish().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();

        let parsed = TraceAnalysis::from_trace(&text).unwrap();
        let live = live.0.lock().unwrap().clone().finish();
        assert_eq!(live.structural_digest, parsed.structural_digest);
        assert_eq!(live, parsed);
        assert_eq!(parsed.metrics.events, text.lines().count() as u64);
    }
}

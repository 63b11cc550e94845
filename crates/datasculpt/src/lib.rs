//! DataSculpt — cost-efficient label-function design via prompting LLMs.
//!
//! A complete Rust reproduction of *DataSculpt* (Guan, Chen & Koudas,
//! EDBT 2025): an iterative programmatic-weak-supervision framework that
//! prompts an LLM with few-shot examples to synthesize keyword label
//! functions, filters them, and trains a downstream model on the
//! aggregated weak labels.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `datasculpt-core` | the DataSculpt pipeline, LF space, filters, samplers, prompts, evaluation |
//! | [`data`] | `datasculpt-data` | the six synthetic WRENCH-style datasets of Table 1 |
//! | [`llm`] | `datasculpt-llm` | chat-model surface, token/cost accounting, the simulated LLM |
//! | [`labelmodel`] | `datasculpt-labelmodel` | majority vote, MeTaL-style EM model, triplet method |
//! | [`endmodel`] | `datasculpt-endmodel` | softmax regression on soft targets, metrics |
//! | [`baselines`] | `datasculpt-baselines` | WRENCH experts, ScriptoriumWS, PromptedLF |
//! | [`obs`] | `datasculpt-obs` | run tracing: observers, span timing, JSONL trace sink, metrics |
//! | [`store`] | `datasculpt-store` | durable runs: disk response store, checkpoint/resume, crash injection |
//! | [`serve`] | `datasculpt-serve` | multi-tenant labeling service: fair scheduling, exact budget admission control |
//!
//! # Quickstart
//!
//! ```
//! use datasculpt::prelude::*;
//!
//! // A down-scaled Youtube spam dataset (full sizes: Table 1).
//! let dataset = DatasetName::Youtube.load_scaled(42, 0.1);
//!
//! // The simulated GPT-3.5 with knowledge of this corpus's domain.
//! let mut llm = SimulatedLlm::new(ModelId::Gpt35Turbo, dataset.generative.clone(), 7);
//!
//! // Run 10 iterations of DataSculpt-Base and evaluate end-to-end.
//! // `run` is fallible: a real backend can error out mid-run.
//! let mut config = DataSculptConfig::base(1);
//! config.num_queries = 10;
//! let run = DataSculpt::new(&dataset, config).run(&mut llm).expect("simulated LLM");
//! let eval = evaluate_lf_set(&dataset, &run.lf_set, &EvalConfig::default());
//!
//! assert!(run.lf_set.len() > 0);
//! assert!(eval.end_metric > 0.0);
//! println!("{} LFs, test accuracy {:.3}, cost ${:.4}",
//!          run.lf_set.len(), eval.end_metric, run.ledger.total_cost_usd());
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub use datasculpt_baselines as baselines;
pub use datasculpt_core as core;
pub use datasculpt_data as data;
pub use datasculpt_endmodel as endmodel;
pub use datasculpt_exec as exec;
pub use datasculpt_labelmodel as labelmodel;
pub use datasculpt_llm as llm;
pub use datasculpt_obs as obs;
pub use datasculpt_serve as serve;
pub use datasculpt_store as store;
pub use datasculpt_text as text;

/// The names most programs need, in one import.
pub mod prelude {
    pub use datasculpt_baselines::{
        promptedlf_run, promptedlf_run_observed, promptedlf_templates, scriptorium_run,
        wrench_expert_lfs, wrench_lf_count,
    };
    pub use datasculpt_core::{
        evaluate_lf_set, AddOutcome, Corpus, DataSculpt, DataSculptConfig, EndModelKind,
        EvalConfig, FilterConfig, IclStrategy, KeywordLf, LabelModelKind, LfSet, LfStats,
        PipelineError, PromptStyle, PwsEvaluation, RunResult, SamplerKind,
    };
    pub use datasculpt_data::{DatasetName, Instance, Metric, Split, TextDataset};
    pub use datasculpt_endmodel::{SoftmaxRegression, TrainConfig};
    pub use datasculpt_exec::Pool;
    pub use datasculpt_labelmodel::{
        LabelMatrix, LabelModel, MajorityVote, MetalConfig, MetalModel, ProbLabels, TripletModel,
        ABSTAIN,
    };
    pub use datasculpt_llm::{
        CacheStats, CachedModel, ChatModel, ChatRequest, FailingModel, LlmError, ModelId,
        PricingTable, RetryModel, SimulatedLlm, TokenUsage, UsageLedger,
    };
    pub use datasculpt_obs::{
        render_prometheus, Clock, Counter, Event, JsonlTraceSink, LatencyHistogram, ManualClock,
        MetricsRecorder, MetricsSnapshot, Multi, NoopObserver, RunObserver, SharedObserver,
        SpanNode, SpanTreeBuilder, Stage, StderrProgressSink, SystemClock, TraceAnalysis,
        TraceSink, Tracer,
    };
    pub use datasculpt_serve::{
        run_daemon, BudgetGate, Endpoint, JobRequest, JobSpec, JobState, JobStatus, RoundReport,
        ServeConfig, ServeError, Service, TenantBook,
    };
    pub use datasculpt_store::{
        run_durable, CheckpointError, CheckpointLog, DiskCachedModel, DiskCheckpointer,
        DurableError, DurableOptions, DurableOutcome, KillAfter, KillSwitch, ResponseStore,
        RunFingerprint, StoreError,
    };
}

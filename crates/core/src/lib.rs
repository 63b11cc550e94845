//! DataSculpt: cost-efficient label-function design via prompting LLMs.
//!
//! This crate is the paper's primary contribution (Guan, Chen & Koudas,
//! EDBT 2025): an iterative programmatic-weak-supervision framework that
//! prompts an LLM to synthesize keyword label functions (Figure 1).
//!
//! One iteration of [`pipeline::DataSculpt::run`]:
//!
//! 1. a [`sampler`] picks a query instance from the unlabeled train split
//!    (random / uncertainty / SEU — §3.4),
//! 2. [`prompt`] builds the few-shot prompt of Figure 2 with in-context
//!    examples chosen by [`icl`] (class-balanced or KATE — §3.3),
//! 3. the [`datasculpt_llm::ChatModel`] returns one or more samples, which
//!    [`parse`] turns into `(keywords, label)` and [`consistency`]
//!    aggregates by majority vote (self-consistency — §4.1),
//! 4. each keyword becomes a [`lf::KeywordLf`] and must pass the
//!    validity / accuracy / redundancy [`filter`]s (§3.5) before joining
//!    the [`lfset::LfSet`].
//!
//! [`eval`] then runs the standard PWS tail: label model → probabilistic
//! labels (+ the default-class rule of §3.6) → end model → the metrics of
//! Tables 2–5.
//!
//! A [`corpus::Corpus`] bundles a dataset with the [`index`]es of its
//! train and valid splits, so that many runs over one dataset build them
//! once ([`DataSculpt::over`](pipeline::DataSculpt::over)).

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod consistency;
pub mod corpus;
pub mod eval;
pub mod filter;
pub mod icl;
pub mod index;
pub mod lf;
pub mod lfset;
pub mod observe;
pub mod parse;
pub mod pipeline;
pub mod prompt;
pub mod sampler;

pub use consistency::aggregate_consistency;
pub use corpus::Corpus;
pub use eval::{evaluate_lf_set, EndModelKind, EvalConfig, LabelModelKind, LfStats, PwsEvaluation};
pub use filter::{AddOutcome, FilterConfig};
pub use icl::{Exemplar, IclStrategy};
pub use index::NgramIndex;
pub use lf::KeywordLf;
pub use lfset::LfSet;
pub use parse::{parse_response, ParsedResponse};
pub use pipeline::{
    run_state_digest, CheckpointSink, DataSculpt, DataSculptConfig, IterationCheckpoint,
    IterationLog, PipelineError, PromptStyle, RunResult,
};
pub use sampler::SamplerKind;

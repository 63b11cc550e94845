//! The iterative DataSculpt loop (Figure 1), decomposed into stages.
//!
//! One query iteration runs five explicit stages over a shared
//! [`RunContext`]:
//!
//! 1. [`RunContext::select_query`] — pick the next unlabeled instance
//!    (§3.4),
//! 2. [`RunContext::build_prompt`] — choose in-context examples and render
//!    the Figure 2 prompt (§3.3),
//! 3. [`RunContext::generate`] — query the LLM, parse every sample, and
//!    aggregate by self-consistency (§4.1),
//! 4. [`RunContext::integrate`] — convert keywords to candidate LFs and
//!    run the validity / accuracy / redundancy filters (§3.5),
//! 5. [`RunContext::revise`] — optionally re-prompt for accuracy-rejected
//!    candidates (§5).
//!
//! LLM calls are fallible: an iteration that hits an [`LlmError`] is
//! recorded in its [`IterationLog`] and skipped, and the run aborts with
//! [`PipelineError::TooManyFailures`] only after
//! [`DataSculptConfig::max_consecutive_failures`] failed iterations in a
//! row.

use crate::consistency::aggregate_consistency;
use crate::corpus::Corpus;
use crate::filter::FilterConfig;
use crate::icl::{IclSelector, IclStrategy};
use crate::lf::KeywordLf;
use crate::lfset::LfSet;
use crate::observe::{self, Counter, Event, NoopObserver, OutcomeTally, RunObserver, Stage};
use crate::parse::parse_response;
use crate::prompt;
pub use crate::prompt::PromptStyle;
use crate::sampler::{make_sampler, QuerySampler, SamplerKind};
use datasculpt_data::TextDataset;
use datasculpt_llm::{ChatMessage, ChatModel, LlmError, UsageLedger};
use std::collections::BTreeSet;

/// Why a DataSculpt run aborted instead of producing a [`RunResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// `limit` consecutive query iterations failed with LLM errors.
    TooManyFailures {
        /// The configured consecutive-failure limit.
        limit: usize,
        /// The error that tripped the limit.
        last: LlmError,
    },
    /// The attached [`CheckpointSink`] rejected an iteration snapshot
    /// (a persistence failure, or a resume-verification divergence).
    Checkpoint {
        /// 0-based iteration whose snapshot was rejected.
        iter: u64,
        /// The sink's error description.
        message: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::TooManyFailures { limit, last } => {
                write!(
                    f,
                    "{limit} consecutive iterations failed; last error: {last}"
                )
            }
            PipelineError::Checkpoint { iter, message } => {
                write!(f, "checkpoint sink failed at iteration {iter}: {message}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::TooManyFailures { last, .. } => Some(last),
            PipelineError::Checkpoint { .. } => None,
        }
    }
}

/// Configuration of one DataSculpt run (§4.1 defaults).
#[derive(Debug, Clone, Copy)]
pub struct DataSculptConfig {
    /// Number of query iterations (the paper uses 50).
    pub num_queries: usize,
    /// LLM samples per query (1, or 10 for self-consistency).
    pub samples_per_query: usize,
    /// Prompt template style.
    pub style: PromptStyle,
    /// In-context example selection strategy.
    pub icl_strategy: IclStrategy,
    /// Number of in-context examples (the paper uses 10).
    pub n_icl: usize,
    /// Sampling temperature (the paper uses 0.7).
    pub temperature: f64,
    /// LF filters.
    pub filters: FilterConfig,
    /// Query-instance sampler.
    pub sampler: SamplerKind,
    /// LF revision (§5 future work, off by default): when a candidate LF
    /// fails the accuracy filter, re-prompt the LLM once for a more
    /// specific phrase from the same passage and offer the revision to the
    /// filters.
    pub revise_rejected: bool,
    /// Abort the run after this many consecutive iterations fail with LLM
    /// errors. Failed iterations below the limit are logged and skipped.
    pub max_consecutive_failures: usize,
    /// Run seed (drives the sampler and exemplar choice; the LLM has its
    /// own seed).
    pub seed: u64,
    /// Worker threads for the LF-set vote-column loops (1 = serial). Any
    /// value produces the same digest — parallelism never changes results.
    pub threads: usize,
}

impl DataSculptConfig {
    /// DataSculpt-Base: plain few-shot prompt, one sample per query.
    pub fn base(seed: u64) -> Self {
        Self {
            num_queries: 50,
            samples_per_query: 1,
            style: PromptStyle::Base,
            icl_strategy: IclStrategy::ClassBalanced,
            n_icl: 10,
            temperature: 0.7,
            filters: FilterConfig::all(),
            sampler: SamplerKind::Random,
            revise_rejected: false,
            max_consecutive_failures: 3,
            seed,
            threads: 1,
        }
    }

    /// DataSculpt-CoT: chain-of-thought prompt.
    pub fn cot(seed: u64) -> Self {
        Self {
            style: PromptStyle::CoT,
            ..Self::base(seed)
        }
    }

    /// DataSculpt-SC: CoT + self-consistency over 10 samples.
    pub fn sc(seed: u64) -> Self {
        Self {
            samples_per_query: 10,
            ..Self::cot(seed)
        }
    }

    /// DataSculpt-KATE: SC + KATE in-context example selection.
    pub fn kate(seed: u64) -> Self {
        Self {
            icl_strategy: IclStrategy::Kate,
            ..Self::sc(seed)
        }
    }

    /// Display label used in Table 2.
    pub fn label(&self) -> &'static str {
        match (self.icl_strategy, self.samples_per_query, self.style) {
            (IclStrategy::Kate, _, _) => "DataSculpt-KATE",
            (_, n, _) if n > 1 => "DataSculpt-SC",
            (_, _, PromptStyle::CoT) => "DataSculpt-CoT",
            _ => "DataSculpt-Base",
        }
    }
}

/// What happened in one query iteration (diagnostics).
#[derive(Debug, Clone)]
pub struct IterationLog {
    /// Train-split index of the queried instance.
    pub instance_id: usize,
    /// Aggregated predicted label (`None` when every sample was unusable).
    pub label: Option<usize>,
    /// Aggregated keywords.
    pub keywords: Vec<String>,
    /// Candidate LFs accepted this iteration.
    pub accepted: usize,
    /// Candidate LFs rejected this iteration.
    pub rejected: usize,
    /// The LLM error that cut this iteration short, if any. LFs accepted
    /// before the error (e.g. when only the revision call failed) stay in
    /// the set; `accepted`/`rejected` count them.
    pub error: Option<LlmError>,
}

impl IterationLog {
    fn failed(instance_id: usize, error: LlmError) -> Self {
        IterationLog {
            instance_id,
            label: None,
            keywords: Vec::new(),
            accepted: 0,
            rejected: 0,
            error: Some(error),
        }
    }
}

/// The outcome of a DataSculpt run.
#[derive(Debug)]
pub struct RunResult {
    /// The accumulated, filtered LF set.
    pub lf_set: LfSet,
    /// Token usage across all LLM calls (LF generation + KATE annotation).
    pub ledger: UsageLedger,
    /// Per-iteration diagnostics.
    pub iterations: Vec<IterationLog>,
}

impl RunResult {
    /// Iterations that hit an LLM error and were skipped.
    pub fn failed_iterations(&self) -> usize {
        self.iterations
            .iter()
            .filter(|it| it.error.is_some())
            .count()
    }

    /// Order-stable FNV-1a digest of everything the determinism contract
    /// promises: the accepted LF set, the per-model token ledger, and every
    /// iteration's outcome. Two runs with the same dataset, config, and
    /// seeds must produce equal digests — any divergence is a
    /// reproducibility bug (see `lint.toml`, rule `hash-order`).
    pub fn digest(&self) -> u64 {
        run_state_digest(&self.lf_set, &self.ledger, &self.iterations)
    }
}

/// The [`RunResult::digest`] function applied to mid-run state: the digest
/// of the run as it stands after some prefix of its iterations. Durable
/// runs checkpoint this per iteration, so a resume can verify — iteration
/// by iteration — that its replay reproduces the crashed run exactly.
pub fn run_state_digest(lf_set: &LfSet, ledger: &UsageLedger, iterations: &[IterationLog]) -> u64 {
    let mut d = Fnv::new();
    d.eat_usize(lf_set.len());
    for lf in lf_set.lfs() {
        d.eat(lf.keyword.as_bytes());
        d.eat_usize(lf.label);
        d.eat(&[u8::from(lf.anchored)]);
    }
    d.eat_usize(ledger.calls() as usize);
    for (model, usage) in ledger.per_model() {
        d.eat(model.api_name().as_bytes());
        d.eat(&usage.prompt_tokens.to_le_bytes());
        d.eat(&usage.completion_tokens.to_le_bytes());
    }
    d.eat_usize(iterations.len());
    for it in iterations {
        d.eat_usize(it.instance_id);
        d.eat_usize(it.label.map_or(usize::MAX, |l| l));
        for kw in &it.keywords {
            d.eat(kw.as_bytes());
        }
        d.eat_usize(it.accepted);
        d.eat_usize(it.rejected);
        d.eat(&[u8::from(it.error.is_some())]);
    }
    d.finish()
}

/// One iteration's durable snapshot, handed to a [`CheckpointSink`] after
/// the iteration completes (successfully or not).
///
/// The snapshot is a *verifiable summary*, not a serialized `RunContext`:
/// resume replays the run from iteration 0 against the durable response
/// store (so sampler/ICL/LLM state never needs serializing) and checks
/// each replayed iteration against `state_digest`. See
/// `docs/persistence.md` for the full contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationCheckpoint {
    /// 0-based iteration index.
    pub iter: u64,
    /// [`run_state_digest`] over the run state after this iteration.
    pub state_digest: u64,
    /// Accepted LFs so far.
    pub lfs: u64,
    /// Recorded LLM calls so far.
    pub calls: u64,
    /// Exact cumulative cost so far, in nano-USD.
    pub cost_nanousd: u128,
    /// Whether this iteration failed with an LLM error.
    pub failed: bool,
}

/// Receives one [`IterationCheckpoint`] per completed iteration of a
/// durable run ([`DataSculpt::run_durable`]).
///
/// Returning `Err` aborts the run with [`PipelineError::Checkpoint`]: a
/// sink that cannot persist (or that detects a resume divergence) must
/// stop the run rather than let it continue un-checkpointed.
pub trait CheckpointSink {
    /// Persist or verify one iteration snapshot.
    fn on_iteration(&mut self, snapshot: &IterationCheckpoint) -> Result<(), String>;
}

/// Incremental FNV-1a hasher for [`RunResult::digest`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn eat_usize(&mut self, v: usize) {
        self.eat(&(v as u64).to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Outcome of the LF-integration stage for one iteration.
struct Integration {
    accepted: usize,
    rejected: usize,
    /// Candidates that failed the accuracy filter (revision targets).
    accuracy_rejected: Vec<KeywordLf>,
}

/// Mutable state shared by the pipeline stages of one run.
struct RunContext<'d, 'o> {
    dataset: &'d TextDataset,
    cfg: DataSculptConfig,
    lf_set: LfSet,
    ledger: UsageLedger,
    icl: IclSelector,
    sampler: Box<dyn QuerySampler>,
    queried: BTreeSet<usize>,
    iterations: Vec<IterationLog>,
    /// Write-only event stream; nothing observed here may feed back into
    /// the run (the digest tests enforce this).
    obs: &'o mut dyn RunObserver,
}

impl<'d, 'o> RunContext<'d, 'o> {
    fn new(
        dataset: &'d TextDataset,
        corpus: Option<&Corpus>,
        cfg: DataSculptConfig,
        obs: &'o mut dyn RunObserver,
    ) -> Self {
        let lf_set = match corpus {
            Some(corpus) => LfSet::over(corpus, cfg.filters),
            None => LfSet::new(dataset, cfg.filters),
        };
        RunContext {
            dataset,
            cfg,
            lf_set: lf_set.with_pool(datasculpt_exec::Pool::new(cfg.threads)),
            ledger: UsageLedger::new(),
            icl: IclSelector::new(dataset, cfg.icl_strategy, cfg.n_icl, cfg.seed),
            sampler: make_sampler(cfg.sampler, dataset, cfg.seed),
            queried: BTreeSet::new(),
            iterations: Vec::with_capacity(cfg.num_queries),
            obs,
        }
    }

    fn stage_begin(&mut self, iter: u64, stage: Stage) {
        self.obs.on_event(&Event::StageBegin { iter, stage });
    }

    fn stage_end(&mut self, iter: u64, stage: Stage) {
        self.obs.on_event(&Event::StageEnd { iter, stage });
    }

    /// Stage 1 (§3.4): pick the next query instance, or `None` when the
    /// unlabeled pool is exhausted. The instance counts as queried even if
    /// a later stage fails.
    fn select_query(&mut self) -> Option<usize> {
        let idx = self
            .sampler
            .select(self.dataset, &self.lf_set, &self.queried)?;
        self.queried.insert(idx);
        Some(idx)
    }

    /// Stage 2 (§3.3, Figure 2): choose in-context examples (KATE may call
    /// the LLM) and render the prompt for instance `idx`.
    fn build_prompt<M: ChatModel>(
        &mut self,
        llm: &mut M,
        idx: usize,
    ) -> Result<Vec<ChatMessage>, LlmError> {
        let Some(instance) = self.dataset.train.instances.get(idx) else {
            return Err(LlmError::EmptyResponse);
        };
        let exemplars = self
            .icl
            .select(self.dataset, instance, llm, &mut self.ledger, self.obs)?;
        Ok(prompt::build_messages(
            &self.dataset.spec,
            self.cfg.style,
            &exemplars,
            &instance.prompt_text(),
        ))
    }

    /// Stage 3 (§4.1): run the chat completion, parse every sample, and
    /// aggregate by self-consistency majority vote. `Ok(None)` means every
    /// sample was unusable.
    fn generate<M: ChatModel>(
        &mut self,
        llm: &mut M,
        messages: Vec<ChatMessage>,
    ) -> Result<Option<(usize, Vec<String>)>, LlmError> {
        let response = llm.complete(&prompt::request(
            messages,
            self.cfg.temperature,
            self.cfg.samples_per_query,
        ))?;
        observe::record_usage(&mut self.ledger, self.obs, response.model, response.usage);
        let n_classes = self.dataset.n_classes();
        let parsed: Vec<_> = response
            .choices
            .iter()
            .map(|c| parse_response(&c.content, n_classes))
            .collect();
        let unusable = parsed.iter().filter(|p| !p.is_usable()).count();
        observe::count(self.obs, Counter::ParseFailure, unusable as u64);
        Ok(aggregate_consistency(&parsed, n_classes))
    }

    /// Stage 4 (§3.5): turn the aggregated keywords into candidate LFs
    /// (entity-anchored variants for relation tasks, §3.1) and offer each
    /// to the filters.
    fn integrate(&mut self, label: usize, keywords: &[String]) -> Integration {
        let relation = self.dataset.spec.relation;
        let mut out = Integration {
            accepted: 0,
            rejected: 0,
            accuracy_rejected: Vec::new(),
        };
        let mut tally = OutcomeTally::default();
        for kw in keywords {
            let mut candidates = vec![KeywordLf::new(kw.clone(), label)];
            if relation {
                candidates.push(KeywordLf::anchored(kw.clone(), label));
            }
            for lf in candidates {
                let outcome = self.lf_set.try_add(lf.clone());
                tally.note(outcome);
                match outcome {
                    outcome if outcome.accepted() => out.accepted += 1,
                    crate::filter::AddOutcome::RejectedAccuracy => {
                        out.rejected += 1;
                        out.accuracy_rejected.push(lf);
                    }
                    _ => out.rejected += 1,
                }
            }
        }
        tally.emit(self.obs);
        out
    }

    /// Stage 5 (§5 future work): one more round-trip per accuracy-rejected
    /// candidate, asking for a more specific phrase from the same passage.
    /// Updates the accepted/rejected counts in place.
    fn revise<M: ChatModel>(
        &mut self,
        llm: &mut M,
        idx: usize,
        integration: &mut Integration,
    ) -> Result<(), LlmError> {
        let relation = self.dataset.spec.relation;
        let n_classes = self.dataset.n_classes();
        let Some(instance) = self.dataset.train.instances.get(idx) else {
            return Ok(());
        };
        let mut tally = OutcomeTally::default();
        for lf in std::mem::take(&mut integration.accuracy_rejected)
            .into_iter()
            .take(3)
        {
            let messages = prompt::revision_messages(
                &self.dataset.spec,
                &instance.prompt_text(),
                &lf.keyword,
                lf.label,
            );
            let result = llm.complete(&prompt::request(messages, self.cfg.temperature, 1));
            let resp = match result {
                Ok(resp) => resp,
                Err(e) => {
                    // Flush outcome counters for the revisions that did
                    // complete before surfacing the error.
                    tally.emit(self.obs);
                    return Err(e);
                }
            };
            observe::count(self.obs, Counter::Revision, 1);
            observe::record_usage(&mut self.ledger, self.obs, resp.model, resp.usage);
            let content = match resp.choices.first().map(|c| c.content.as_str()) {
                Some(c) => c,
                None => {
                    tally.emit(self.obs);
                    return Err(LlmError::EmptyResponse);
                }
            };
            let parsed = parse_response(content, n_classes);
            for kw in parsed.keywords {
                let mut candidates = vec![KeywordLf::new(kw.clone(), lf.label)];
                if relation {
                    candidates.push(KeywordLf::anchored(kw, lf.label));
                }
                for revised in candidates {
                    let outcome = self.lf_set.try_add(revised);
                    tally.note(outcome);
                    if outcome.accepted() {
                        integration.accepted += 1;
                    } else {
                        integration.rejected += 1;
                    }
                }
            }
        }
        tally.emit(self.obs);
        Ok(())
    }

    /// Run stages 2–5 for instance `idx` as iteration `iter`, bracketing
    /// each stage with span events (ends fire on error paths too). A
    /// returned log with `error` set marks the iteration as failed.
    fn run_iteration<M: ChatModel>(&mut self, llm: &mut M, iter: u64, idx: usize) -> IterationLog {
        self.stage_begin(iter, Stage::Prompt);
        let messages = self.build_prompt(llm, idx);
        self.stage_end(iter, Stage::Prompt);
        let messages = match messages {
            Ok(m) => m,
            Err(e) => return IterationLog::failed(idx, e),
        };
        self.stage_begin(iter, Stage::Generate);
        let aggregated = self.generate(llm, messages);
        self.stage_end(iter, Stage::Generate);
        let aggregated = match aggregated {
            Ok(a) => a,
            Err(e) => return IterationLog::failed(idx, e),
        };
        let Some((label, keywords)) = aggregated else {
            return IterationLog {
                instance_id: idx,
                label: None,
                keywords: Vec::new(),
                accepted: 0,
                rejected: 0,
                error: None,
            };
        };
        self.stage_begin(iter, Stage::Integrate);
        let mut integration = self.integrate(label, &keywords);
        self.stage_end(iter, Stage::Integrate);
        let mut error = None;
        if self.cfg.revise_rejected {
            // A failed revision keeps the LFs accepted so far but marks
            // the iteration as failed.
            self.stage_begin(iter, Stage::Revise);
            error = self.revise(llm, idx, &mut integration).err();
            self.stage_end(iter, Stage::Revise);
        }
        IterationLog {
            instance_id: idx,
            label: Some(label),
            keywords,
            accepted: integration.accepted,
            rejected: integration.rejected,
            error,
        }
    }

    /// Close the run span (fires on both the success and abort paths).
    fn emit_run_end(&mut self) {
        let failed = self
            .iterations
            .iter()
            .filter(|it| it.error.is_some())
            .count();
        self.obs.on_event(&Event::RunEnd {
            iterations: self.iterations.len() as u64,
            failed: failed as u64,
            lfs: self.lf_set.len() as u64,
        });
    }

    fn finish(self) -> RunResult {
        RunResult {
            lf_set: self.lf_set,
            ledger: self.ledger,
            iterations: self.iterations,
        }
    }
}

/// The DataSculpt framework: ties the sampler, prompt builder, LLM, parser,
/// self-consistency aggregation, and LF filters into the iterative loop of
/// Figure 1.
pub struct DataSculpt<'a> {
    dataset: &'a TextDataset,
    /// Where the LF set's indexes come from; `None` builds private ones
    /// when the run starts.
    corpus: Option<&'a Corpus>,
    config: DataSculptConfig,
}

impl<'a> DataSculpt<'a> {
    /// Set up a run over a dataset. The run indexes the train and valid
    /// splits itself when it starts.
    pub fn new(dataset: &'a TextDataset, config: DataSculptConfig) -> Self {
        assert!(config.num_queries > 0, "need at least one query");
        assert!(config.samples_per_query > 0, "need at least one sample");
        assert!(
            config.max_consecutive_failures > 0,
            "need a nonzero failure limit"
        );
        Self {
            dataset,
            corpus: None,
            config,
        }
    }

    /// Set up a run over a corpus, sharing its indexes. The run's digest
    /// equals that of [`DataSculpt::new`] over the corpus's dataset.
    pub fn over(corpus: &'a Corpus, config: DataSculptConfig) -> Self {
        Self {
            corpus: Some(corpus),
            ..Self::new(corpus.dataset(), config)
        }
    }

    /// Execute the full run against a chat model, unobserved.
    ///
    /// Iterations that fail with an [`LlmError`] are logged and skipped;
    /// the run only aborts after
    /// [`DataSculptConfig::max_consecutive_failures`] failures in a row.
    pub fn run<M: ChatModel>(&self, llm: &mut M) -> Result<RunResult, PipelineError> {
        self.run_observed(llm, &mut NoopObserver)
    }

    /// Execute the full run, streaming typed events into `obs`.
    ///
    /// Observation is strictly write-only: an observed run produces a
    /// [`RunResult`] with a digest identical to the same-seed unobserved
    /// run. Every iteration emits a `select` stage span, then (for a
    /// non-exhausted pool) an iteration span wrapping the `prompt`,
    /// `generate`, `integrate`, and (when enabled) `revise` stage spans,
    /// plus counter and usage events. A `run_end` event fires on both the
    /// success and the [`PipelineError::TooManyFailures`] abort path.
    pub fn run_observed<M: ChatModel>(
        &self,
        llm: &mut M,
        obs: &mut dyn RunObserver,
    ) -> Result<RunResult, PipelineError> {
        self.run_inner(llm, obs, None)
    }

    /// Execute the full run, streaming one [`IterationCheckpoint`] per
    /// completed iteration into `sink` (in addition to the event stream).
    ///
    /// The sink is called after the iteration's `iter_end` event, with the
    /// cumulative [`run_state_digest`] — the hook a durable store uses to
    /// persist resumable state. A sink error aborts the run with
    /// [`PipelineError::Checkpoint`]. The sink is write-only with respect
    /// to the run: a sinked run produces a digest identical to the
    /// same-seed plain run.
    pub fn run_durable<M: ChatModel>(
        &self,
        llm: &mut M,
        obs: &mut dyn RunObserver,
        sink: &mut dyn CheckpointSink,
    ) -> Result<RunResult, PipelineError> {
        self.run_inner(llm, obs, Some(sink))
    }

    fn run_inner<M: ChatModel>(
        &self,
        llm: &mut M,
        obs: &mut dyn RunObserver,
        mut sink: Option<&mut dyn CheckpointSink>,
    ) -> Result<RunResult, PipelineError> {
        obs.on_event(&Event::RunBegin {
            label: self.config.label().to_string(),
            dataset: self.dataset.spec.name.to_string(),
            model: llm.model_id().api_name().to_string(),
            queries: self.config.num_queries as u64,
            seed: self.config.seed,
        });
        let mut ctx = RunContext::new(self.dataset, self.corpus, self.config, obs);
        let mut consecutive_failures = 0usize;
        for _ in 0..self.config.num_queries {
            let iter = ctx.iterations.len() as u64;
            ctx.stage_begin(iter, Stage::Select);
            let selected = ctx.select_query();
            ctx.stage_end(iter, Stage::Select);
            let Some(idx) = selected else {
                break; // unlabeled pool exhausted
            };
            ctx.obs.on_event(&Event::IterationBegin {
                iter,
                instance: idx as u64,
            });
            let log = ctx.run_iteration(llm, iter, idx);
            let error = log.error.clone();
            if error.is_some() {
                observe::count(ctx.obs, Counter::LlmError, 1);
            }
            ctx.obs.on_event(&Event::IterationEnd {
                iter,
                accepted: log.accepted as u64,
                rejected: log.rejected as u64,
                failed: error.is_some(),
            });
            ctx.iterations.push(log);
            if let Some(sink) = sink.as_deref_mut() {
                let snapshot = IterationCheckpoint {
                    iter,
                    state_digest: run_state_digest(&ctx.lf_set, &ctx.ledger, &ctx.iterations),
                    lfs: ctx.lf_set.len() as u64,
                    calls: ctx.ledger.calls(),
                    cost_nanousd: ctx.ledger.total_cost_nanousd(),
                    failed: error.is_some(),
                };
                if let Err(message) = sink.on_iteration(&snapshot) {
                    ctx.emit_run_end();
                    return Err(PipelineError::Checkpoint { iter, message });
                }
            }
            match error {
                Some(last) => {
                    consecutive_failures += 1;
                    if consecutive_failures >= self.config.max_consecutive_failures {
                        ctx.emit_run_end();
                        return Err(PipelineError::TooManyFailures {
                            limit: self.config.max_consecutive_failures,
                            last,
                        });
                    }
                }
                None => consecutive_failures = 0,
            }
        }
        ctx.emit_run_end();
        Ok(ctx.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasculpt_data::DatasetName;
    use datasculpt_llm::{FailingModel, ModelId, SimulatedLlm};

    fn run_config(dataset: &TextDataset, cfg: DataSculptConfig) -> RunResult {
        let mut llm = SimulatedLlm::new(ModelId::Gpt35Turbo, dataset.generative.clone(), 13);
        DataSculpt::new(dataset, cfg).run(&mut llm).expect("run")
    }

    #[test]
    fn base_run_generates_filtered_lfs() {
        let d = DatasetName::Youtube.load_scaled(21, 0.1);
        let mut cfg = DataSculptConfig::base(5);
        cfg.num_queries = 25;
        let result = run_config(&d, cfg);
        assert!(
            result.lf_set.len() >= 10,
            "expected a nontrivial LF set, got {}",
            result.lf_set.len()
        );
        assert_eq!(result.iterations.len(), 25);
        assert!(result.ledger.calls() >= 25);
        assert!(result.ledger.total_usage().total() > 0);
        assert_eq!(result.failed_iterations(), 0);
        // No duplicate LFs in the accepted set.
        let mut seen = std::collections::HashSet::new();
        for lf in result.lf_set.lfs() {
            assert!(seen.insert((lf.keyword.clone(), lf.label, lf.anchored)));
        }
    }

    #[test]
    fn sc_produces_larger_set_than_base() {
        let d = DatasetName::Imdb.load_scaled(22, 0.02);
        let mut base_cfg = DataSculptConfig::base(5);
        base_cfg.num_queries = 20;
        let mut sc_cfg = DataSculptConfig::sc(5);
        sc_cfg.num_queries = 20;
        let base = run_config(&d, base_cfg);
        let sc = run_config(&d, sc_cfg);
        assert!(
            sc.lf_set.len() > base.lf_set.len(),
            "SC {} should beat Base {} (Table 2 shape)",
            sc.lf_set.len(),
            base.lf_set.len()
        );
        // And costs proportionally more completion tokens.
        assert!(
            sc.ledger.total_usage().completion_tokens
                > base.ledger.total_usage().completion_tokens * 3
        );
    }

    #[test]
    fn runs_are_deterministic_under_seed() {
        let d = DatasetName::Youtube.load_scaled(21, 0.1);
        let mut cfg = DataSculptConfig::cot(9);
        cfg.num_queries = 10;
        let a = run_config(&d, cfg);
        let b = run_config(&d, cfg);
        assert_eq!(a.lf_set.len(), b.lf_set.len());
        let names_a: Vec<_> = a.lf_set.lfs().iter().map(|l| l.name()).collect();
        let names_b: Vec<_> = b.lf_set.lfs().iter().map(|l| l.name()).collect();
        assert_eq!(names_a, names_b);
        assert_eq!(
            a.ledger.total_usage().prompt_tokens,
            b.ledger.total_usage().prompt_tokens
        );
    }

    #[test]
    fn same_seed_runs_have_identical_digests() {
        let d = DatasetName::Youtube.load_scaled(21, 0.1);
        let mut cfg = DataSculptConfig::sc(9);
        cfg.num_queries = 8;
        let a = run_config(&d, cfg);
        let b = run_config(&d, cfg);
        assert_eq!(
            a.digest(),
            b.digest(),
            "same seed must reproduce the run bit-for-bit"
        );
        // A different run seed must perturb the digest.
        let mut other = cfg;
        other.seed = 10;
        let c = run_config(&d, other);
        assert_ne!(a.digest(), c.digest(), "different seed, different run");
    }

    #[test]
    fn cached_model_is_transparent_to_a_run() {
        // The acceptance bar for the cache middleware: wrapping the LLM in
        // `CachedModel` must leave a run byte-identical — same LF names,
        // same token ledger.
        use datasculpt_llm::CachedModel;
        let d = DatasetName::Youtube.load_scaled(21, 0.1);
        let mut cfg = DataSculptConfig::cot(9);
        cfg.num_queries = 10;
        let plain = run_config(&d, cfg);
        let mut cached_llm = CachedModel::new(SimulatedLlm::new(
            ModelId::Gpt35Turbo,
            d.generative.clone(),
            13,
        ));
        let cached = DataSculpt::new(&d, cfg).run(&mut cached_llm).expect("run");
        let names_plain: Vec<_> = plain.lf_set.lfs().iter().map(|l| l.name()).collect();
        let names_cached: Vec<_> = cached.lf_set.lfs().iter().map(|l| l.name()).collect();
        assert_eq!(names_plain, names_cached);
        assert_eq!(
            plain.ledger.total_usage(),
            cached.ledger.total_usage(),
            "ledgers must match with the cache enabled"
        );
        assert_eq!(plain.ledger.calls(), cached.ledger.calls());
    }

    #[test]
    fn repeated_run_hits_the_cache() {
        use datasculpt_llm::CachedModel;
        let d = DatasetName::Youtube.load_scaled(21, 0.1);
        let mut cfg = DataSculptConfig::cot(9);
        cfg.num_queries = 10;
        let mut llm = CachedModel::new(SimulatedLlm::new(
            ModelId::Gpt35Turbo,
            d.generative.clone(),
            13,
        ));
        let first = DataSculpt::new(&d, cfg).run(&mut llm).expect("run");
        let misses_after_first = llm.stats().misses;
        let second = DataSculpt::new(&d, cfg).run(&mut llm).expect("run");
        assert!(
            llm.stats().hits > 0,
            "re-running an identical config should hit the cache"
        );
        assert_eq!(
            llm.stats().misses,
            misses_after_first,
            "no new backend calls on the second run"
        );
        // And the cached second run reproduces the first exactly.
        let names_a: Vec<_> = first.lf_set.lfs().iter().map(|l| l.name()).collect();
        let names_b: Vec<_> = second.lf_set.lfs().iter().map(|l| l.name()).collect();
        assert_eq!(names_a, names_b);
        assert_eq!(first.ledger.total_usage(), second.ledger.total_usage());
    }

    #[test]
    fn failed_iterations_are_logged_and_skipped() {
        let d = DatasetName::Youtube.load_scaled(21, 0.1);
        let mut cfg = DataSculptConfig::base(5);
        cfg.num_queries = 12;
        // Every 4th call fails: never two in a row, so the run completes.
        let mut llm = FailingModel::fail_every(
            SimulatedLlm::new(ModelId::Gpt35Turbo, d.generative.clone(), 13),
            4,
        );
        let result = DataSculpt::new(&d, cfg)
            .run(&mut llm)
            .expect("run completes");
        assert_eq!(result.iterations.len(), 12);
        let failed = result.failed_iterations();
        assert!(failed > 0, "some iterations should have failed");
        assert!(failed < 12, "some iterations should have succeeded");
        for it in result.iterations.iter().filter(|it| it.error.is_some()) {
            assert_eq!(it.label, None);
            assert_eq!(it.accepted, 0);
        }
        // Failed calls are never recorded in the ledger.
        assert_eq!(result.ledger.calls() as usize, 12 - failed);
    }

    #[test]
    fn consecutive_failures_abort_the_run() {
        let d = DatasetName::Youtube.load_scaled(21, 0.1);
        let mut cfg = DataSculptConfig::base(5);
        cfg.num_queries = 10;
        cfg.max_consecutive_failures = 3;
        // Every call fails: the run must abort after exactly 3 iterations.
        let mut llm = FailingModel::fail_every(
            SimulatedLlm::new(ModelId::Gpt35Turbo, d.generative.clone(), 13),
            1,
        );
        let err = DataSculpt::new(&d, cfg).run(&mut llm).unwrap_err();
        let PipelineError::TooManyFailures { limit, last } = err else {
            panic!("expected TooManyFailures, got {err}");
        };
        assert_eq!(limit, 3);
        assert!(matches!(last, LlmError::Transport(_)));
        assert_eq!(llm.calls_attempted(), 3);
    }

    #[test]
    fn checkpoint_sink_sees_every_iteration_and_prefix_digests() {
        struct Capture(Vec<IterationCheckpoint>);
        impl CheckpointSink for Capture {
            fn on_iteration(&mut self, snapshot: &IterationCheckpoint) -> Result<(), String> {
                self.0.push(*snapshot);
                Ok(())
            }
        }
        let d = DatasetName::Youtube.load_scaled(21, 0.1);
        let mut cfg = DataSculptConfig::cot(9);
        cfg.num_queries = 6;
        let mut llm = SimulatedLlm::new(ModelId::Gpt35Turbo, d.generative.clone(), 13);
        let mut sink = Capture(Vec::new());
        let result = DataSculpt::new(&d, cfg)
            .run_durable(&mut llm, &mut NoopObserver, &mut sink)
            .expect("run");
        assert_eq!(sink.0.len(), result.iterations.len());
        let last = sink.0.last().expect("at least one iteration");
        assert_eq!(last.state_digest, result.digest(), "final prefix = run");
        assert_eq!(last.calls, result.ledger.calls());
        assert_eq!(last.cost_nanousd, result.ledger.total_cost_nanousd());
        for (i, snap) in sink.0.iter().enumerate() {
            assert_eq!(snap.iter, i as u64);
            assert!(!snap.failed);
        }
        // The sinked run is byte-identical to the plain run.
        assert_eq!(result.digest(), run_config(&d, cfg).digest());
    }

    #[test]
    fn checkpoint_sink_error_aborts_with_typed_error() {
        struct FailAt(u64);
        impl CheckpointSink for FailAt {
            fn on_iteration(&mut self, snapshot: &IterationCheckpoint) -> Result<(), String> {
                if snapshot.iter == self.0 {
                    Err("disk full".into())
                } else {
                    Ok(())
                }
            }
        }
        let d = DatasetName::Youtube.load_scaled(21, 0.1);
        let mut cfg = DataSculptConfig::base(5);
        cfg.num_queries = 8;
        let mut llm = SimulatedLlm::new(ModelId::Gpt35Turbo, d.generative.clone(), 13);
        let err = DataSculpt::new(&d, cfg)
            .run_durable(&mut llm, &mut NoopObserver, &mut FailAt(2))
            .unwrap_err();
        assert_eq!(
            err,
            PipelineError::Checkpoint {
                iter: 2,
                message: "disk full".into()
            }
        );
        assert!(err.to_string().contains("iteration 2"), "{err}");
    }

    #[test]
    fn relation_task_emits_anchored_lfs() {
        let d = DatasetName::Spouse.load_scaled(8, 0.02);
        let mut cfg = DataSculptConfig::sc(3);
        cfg.num_queries = 20;
        let result = run_config(&d, cfg);
        // At least some accepted LFs should exist; anchored variants are
        // offered for every keyword.
        let total_offered: usize = result
            .iterations
            .iter()
            .map(|it| it.accepted + it.rejected)
            .sum();
        assert!(total_offered > 0, "no candidates at all");
        assert!(
            result.lf_set.lfs().iter().any(|l| !l.keyword.is_empty()),
            "no LFs accepted"
        );
    }

    #[test]
    fn revision_recovers_extra_lfs() {
        // With a weak model (lots of accuracy rejections) and revision on,
        // the revised phrases should win back some LFs — and cost extra
        // tokens.
        let d = DatasetName::Imdb.load_scaled(27, 0.03);
        let run_with = |revise: bool| {
            let mut llm = SimulatedLlm::new(ModelId::Llama2Chat13b, d.generative.clone(), 17);
            let mut cfg = DataSculptConfig::base(4);
            cfg.num_queries = 25;
            cfg.revise_rejected = revise;
            DataSculpt::new(&d, cfg).run(&mut llm).expect("run")
        };
        let plain = run_with(false);
        let revised = run_with(true);
        assert!(
            revised.lf_set.len() >= plain.lf_set.len(),
            "revision should not shrink the set: {} vs {}",
            revised.lf_set.len(),
            plain.lf_set.len()
        );
        assert!(
            revised.ledger.total_usage().total() > plain.ledger.total_usage().total(),
            "revision consumes extra tokens"
        );
    }

    #[test]
    fn preset_labels() {
        assert_eq!(DataSculptConfig::base(0).label(), "DataSculpt-Base");
        assert_eq!(DataSculptConfig::cot(0).label(), "DataSculpt-CoT");
        assert_eq!(DataSculptConfig::sc(0).label(), "DataSculpt-SC");
        assert_eq!(DataSculptConfig::kate(0).label(), "DataSculpt-KATE");
    }

    #[test]
    fn exhausted_pool_stops_early() {
        let d = DatasetName::Youtube.load_scaled(21, 0.011); // ~17 train docs
        let mut cfg = DataSculptConfig::base(1);
        cfg.num_queries = 100;
        let result = run_config(&d, cfg);
        assert!(result.iterations.len() <= d.train.len());
    }
}

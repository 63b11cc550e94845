//! The multi-tenant labeling service: job table, fair scheduler, and the
//! durable execution loop the daemon (or a test) drives round by round.
//!
//! One **round** = plan → execute → commit:
//!
//! 1. **Plan** (single-threaded, deterministic): walk tenants in
//!    remaining-budget-descending order (ties broken by tenant name),
//!    round-robin one runnable job per tenant per pass (FIFO by job id
//!    within a tenant) until the round's slots are full. Fresh jobs from
//!    a tenant with zero remaining budget are *rejected* at admission;
//!    paused jobs whose tenant still cannot cover their recorded need
//!    stay paused without consuming a slot.
//! 2. **Execute**: admitted jobs run concurrently on the
//!    [`datasculpt_exec::Pool`], each as a durable run in its own
//!    directory (`<state>/jobs/<id>/`) behind a [`BudgetGate`], over the
//!    [`Corpus`] of its (dataset, seed, scale) key. The first worker that
//!    needs a key builds its corpus; jobs sharing the key wait on that one
//!    build and then share it. The pool collects results in plan order, so
//!    commit order is deterministic.
//! 3. **Commit** (single-threaded, in plan order): classify each
//!    outcome (completed / paused / cancelled / failed), append the
//!    durable registry transition, and emit the job's trace events —
//!    a `job` stage span wrapping the job's exact per-model usage, plus
//!    the `job_admit` / `job_reject_budget` / `job_pause` /
//!    `job_complete` counters. Cached corpora that no queued, running or
//!    paused job refers to any more are then dropped.
//!
//! A daemon crash at any point loses nothing: submits and transitions
//! are in the synced registry, every job's LLM responses and iteration
//! checkpoints are in its durable directory, and [`Service::open`]
//! re-queues in-flight jobs, whose resumed runs are bit-identical
//! (`docs/persistence.md`, proven again at the service level by
//! `tests/serve.rs`).

use crate::budget::{BudgetGate, TenantAccount, TenantBook, CANCEL_PREFIX, PAUSE_PREFIX};
use crate::job::{JobSpec, JobState, JobStatus};
use crate::registry::{JobRegistry, RegistryRecord};
use datasculpt_core::{CheckpointSink, Corpus, IterationCheckpoint};
use datasculpt_data::TextDataset;
use datasculpt_exec::Pool;
use datasculpt_llm::{ChatModel, ModelId, PricingTable, SimulatedLlm, UsageLedger};
use datasculpt_obs::{Counter, Event, RunObserver, SharedObserver, Stage};
use datasculpt_store::{
    run_durable, DurableError, DurableOptions, DurableOutcome, KillSwitch, StoreError,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Subdirectory of the state dir holding one durable run dir per job.
pub const JOBS_DIR: &str = "jobs";

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum jobs executed concurrently per round (also the pool's
    /// worker-thread budget).
    pub slots: usize,
    /// Durable checkpoint cadence for job runs (1 = every iteration; the
    /// budget gate only sees checkpointed iterations, so 1 gives the
    /// tightest admission control).
    pub checkpoint_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            slots: 4,
            checkpoint_every: 1,
        }
    }
}

/// Why a service operation failed.
#[derive(Debug)]
pub enum ServeError {
    /// Durable state (registry or job directory) could not be written.
    Store(StoreError),
    /// The request was malformed or referenced a missing/terminal job.
    Invalid(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Store(e) => write!(f, "{e}"),
            ServeError::Invalid(m) => write!(f, "invalid request: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// A job submission: a [`JobSpec`] without the daemon-assigned id, plus
/// the tenant budget top-up riding along.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Owning tenant.
    pub tenant: String,
    /// Dataset name.
    pub dataset: String,
    /// Config preset (`base`, `cot`, `sc`, `kate`).
    pub config: String,
    /// Model short name (`gpt-3.5`, …).
    pub model: String,
    /// Seed (dataset subsample + config + backend).
    pub seed: u64,
    /// Dataset scale factor as `f64` bits.
    pub scale_bits: u64,
    /// Query-iteration budget.
    pub queries: u64,
    /// Exact nano-USD added to the tenant's budget by this submit.
    pub budget_nanousd: u128,
}

/// What one scheduler round (or a whole drain) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundReport {
    /// Jobs admitted onto the pool.
    pub admitted: u64,
    /// Fresh jobs rejected at admission (zero remaining tenant budget).
    pub rejected: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs paused by the budget gate.
    pub paused: u64,
    /// Jobs cancelled mid-run.
    pub cancelled: u64,
    /// Jobs aborted by a backend/pipeline failure.
    pub failed: u64,
}

impl RoundReport {
    fn absorb(&mut self, other: RoundReport) {
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.paused += other.paused;
        self.cancelled += other.cancelled;
        self.failed += other.failed;
    }
}

/// Builds one backend per job execution. The factory runs *inside* the
/// pool worker, after the job's corpus is ready, so a crash-injection
/// wrapper (sharing a [`KillSwitch`]) can be threaded in by tests without
/// the service knowing.
pub type BackendFactory =
    Arc<dyn Fn(&JobSpec, &TextDataset) -> Box<dyn ChatModel + Send> + Send + Sync>;

/// A job's corpus cache key: dataset name, seed, and scale as `f64` bits.
type CorpusKey = (String, u64, u64);

/// One corpus cache slot. The first pool worker that needs it runs the
/// build; workers of the same round with the same key block until that
/// build is done. A failed build keeps its error, which fails the jobs
/// that asked for it and no others.
type CorpusCell = Arc<OnceLock<Result<Corpus, String>>>;

/// Everything a pool worker needs to run one admitted job.
struct ExecEntry {
    spec: JobSpec,
    corpus: CorpusCell,
    dir: PathBuf,
    cancel: Arc<AtomicBool>,
    progress: Arc<Mutex<JobProgress>>,
}

/// Live per-job figures the gate records for the commit phase.
#[derive(Debug, Clone, Copy, Default)]
struct JobProgress {
    iterations: u64,
    cost_nanousd: u128,
    needed_nanousd: u128,
}

/// Delegates budget decisions to [`BudgetGate`] while mirroring the
/// latest snapshot into the entry's [`JobProgress`] for the commit phase.
struct TrackedGate {
    inner: BudgetGate,
    progress: Arc<Mutex<JobProgress>>,
}

impl CheckpointSink for TrackedGate {
    fn on_iteration(&mut self, snapshot: &IterationCheckpoint) -> Result<(), String> {
        let decision = self.inner.on_iteration(snapshot);
        let mut p = match self.progress.lock() {
            Ok(p) => p,
            Err(poisoned) => poisoned.into_inner(),
        };
        let done = snapshot.iter.saturating_add(1);
        p.iterations = p.iterations.max(done);
        p.cost_nanousd = p.cost_nanousd.max(snapshot.cost_nanousd);
        p.needed_nanousd = BudgetGate::projected_next_iteration(snapshot.cost_nanousd, done);
        decision
    }
}

/// A durable-run error classified by gate-message prefix.
enum JobError {
    Pause(String),
    Cancel(String),
    Other(String),
}

fn classify(error: &DurableError) -> JobError {
    if let DurableError::Pipeline(datasculpt_core::PipelineError::Checkpoint { message, .. }) =
        error
    {
        if message.starts_with(PAUSE_PREFIX) {
            return JobError::Pause(message.clone());
        }
        if message.starts_with(CANCEL_PREFIX) {
            return JobError::Cancel(message.clone());
        }
    }
    JobError::Other(error.to_string())
}

/// The service: job table + tenant book + scheduler, all behind one
/// value the daemon wraps in a mutex.
pub struct Service {
    state_dir: PathBuf,
    config: ServeConfig,
    registry: JobRegistry,
    jobs: BTreeMap<u64, JobStatus>,
    ledgers: BTreeMap<u64, UsageLedger>,
    /// Minimum tenant remaining budget a paused job needs to be
    /// re-admitted (its projected next-iteration cost at pause time).
    needed: BTreeMap<u64, u128>,
    cancels: BTreeMap<u64, Arc<AtomicBool>>,
    book: Arc<Mutex<TenantBook>>,
    /// One corpus per key of a queued, running or paused job that has
    /// been scheduled; see [`Service::cached_corpora`].
    corpora: BTreeMap<CorpusKey, CorpusCell>,
    corpus_builds: Arc<AtomicU64>,
    factory: BackendFactory,
    observer: Option<SharedObserver>,
    kill: Option<KillSwitch>,
    pool: Pool,
    next_id: u64,
    recovered: u64,
}

impl Service {
    /// Open (or create) a service over `state_dir`, replaying the job
    /// registry: terminal jobs are restored as-is, paused jobs stay
    /// paused, and jobs that were queued or in flight when the previous
    /// daemon died are re-queued (their durable run directories resume
    /// bit-identically).
    pub fn open(state_dir: &Path, config: ServeConfig) -> Result<Service, ServeError> {
        std::fs::create_dir_all(state_dir)
            .map_err(|e| ServeError::Store(StoreError::io(state_dir, "create-dir", &e)))?;
        let (registry, records, _torn) = JobRegistry::open(state_dir)?;
        let mut jobs: BTreeMap<u64, JobStatus> = BTreeMap::new();
        let mut needed: BTreeMap<u64, u128> = BTreeMap::new();
        let mut book = TenantBook::new();
        let mut next_id = 1u64;
        for record in records {
            match record {
                RegistryRecord::Submit {
                    spec,
                    budget_nanousd,
                } => {
                    book.top_up(&spec.tenant, budget_nanousd);
                    next_id = next_id.max(spec.id.saturating_add(1));
                    jobs.insert(
                        spec.id,
                        JobStatus {
                            spec,
                            state: JobState::Queued,
                            cost_nanousd: 0,
                            iterations: 0,
                            digest: 0,
                            message: String::new(),
                        },
                    );
                }
                RegistryRecord::State {
                    id,
                    state,
                    cost_nanousd,
                    iterations,
                    digest,
                    message,
                } => {
                    if let Some(status) = jobs.get_mut(&id) {
                        book.commit(&status.spec.tenant, id, cost_nanousd);
                        status.state = state;
                        status.cost_nanousd = cost_nanousd;
                        status.iterations = iterations;
                        status.digest = digest;
                        status.message = message;
                        if state == JobState::Paused {
                            // Re-derive the pause's projection from its
                            // durable figures.
                            needed.insert(
                                id,
                                BudgetGate::projected_next_iteration(cost_nanousd, iterations),
                            );
                        } else {
                            needed.remove(&id);
                        }
                    }
                }
            }
        }
        let mut recovered = 0u64;
        for status in jobs.values_mut() {
            if status.state == JobState::Running {
                status.state = JobState::Queued;
                status.message = "re-queued after daemon restart".into();
                recovered += 1;
            }
        }
        let pool = Pool::new(config.slots.max(1));
        Ok(Service {
            state_dir: state_dir.to_path_buf(),
            config,
            registry,
            jobs,
            ledgers: BTreeMap::new(),
            needed,
            cancels: BTreeMap::new(),
            book: Arc::new(Mutex::new(book)),
            corpora: BTreeMap::new(),
            corpus_builds: Arc::new(AtomicU64::new(0)),
            factory: Arc::new(|spec, dataset| {
                // Specs are validated at submit, so the model parse
                // cannot fail here; fall back defensively anyway.
                let model = spec.model_id().unwrap_or(ModelId::Gpt35Turbo);
                Box::new(SimulatedLlm::new(
                    model,
                    dataset.generative.clone(),
                    spec.seed,
                ))
            }),
            observer: None,
            kill: None,
            pool,
            next_id,
            recovered,
        })
    }

    /// Replace the backend factory (tests inject scripted or
    /// crash-wrapped backends).
    pub fn with_backend_factory(mut self, factory: BackendFactory) -> Self {
        self.factory = factory;
        self
    }

    /// Attach an observer: job lifecycle counters, per-job `job` spans
    /// with exact usage, and progress messages are emitted through it
    /// (from the single-threaded commit phase, so span nesting stays
    /// strict).
    pub fn with_observer(mut self, observer: SharedObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attach a crash-injection switch: once tripped, the registry and
    /// every job checkpointer silently drop writes, leaving disk exactly
    /// as a SIGKILL of the daemon would.
    pub fn with_kill_switch(mut self, kill: KillSwitch) -> Self {
        self.registry.set_kill_switch(kill.clone());
        self.kill = Some(kill);
        self
    }

    /// Jobs re-queued by crash recovery on open.
    pub fn recovered_jobs(&self) -> u64 {
        self.recovered
    }

    /// The state directory this service persists under.
    pub fn state_dir(&self) -> &Path {
        &self.state_dir
    }

    /// Corpora held in memory right now. Between rounds this is at most
    /// the number of distinct (dataset, seed, scale) keys among queued,
    /// running and paused jobs.
    pub fn cached_corpora(&self) -> usize {
        self.corpora.len()
    }

    /// Corpus builds this service has run since it was opened.
    pub fn corpus_builds(&self) -> u64 {
        self.corpus_builds.load(Ordering::Relaxed)
    }

    /// Submit a job: validate, durably record, top up the tenant budget,
    /// and queue. Budget admission happens at scheduling time.
    pub fn submit(&mut self, request: JobRequest) -> Result<JobStatus, ServeError> {
        let spec = JobSpec {
            id: self.next_id,
            tenant: request.tenant,
            dataset: request.dataset,
            config: request.config,
            model: request.model,
            seed: request.seed,
            scale_bits: request.scale_bits,
            queries: request.queries,
        };
        spec.validate().map_err(ServeError::Invalid)?;
        self.registry.append_submit(&spec, request.budget_nanousd)?;
        self.next_id = self.next_id.saturating_add(1);
        self.lock_book()
            .top_up(&spec.tenant, request.budget_nanousd);
        let status = JobStatus {
            spec,
            state: JobState::Queued,
            cost_nanousd: 0,
            iterations: 0,
            digest: 0,
            message: String::new(),
        };
        self.jobs.insert(status.spec.id, status.clone());
        Ok(status)
    }

    /// Cancel a job. Queued/paused jobs cancel immediately; a running
    /// job is flagged and stops (durably) at its next iteration gate.
    pub fn cancel(&mut self, id: u64) -> Result<JobStatus, ServeError> {
        let state = self
            .jobs
            .get(&id)
            .map(|s| s.state)
            .ok_or_else(|| ServeError::Invalid(format!("no such job {id}")))?;
        if state.is_terminal() {
            return Err(ServeError::Invalid(format!("job {id} is already {state}")));
        }
        if state == JobState::Running {
            if let Some(flag) = self.cancels.get(&id) {
                flag.store(true, Ordering::SeqCst);
            }
            if let Some(s) = self.jobs.get_mut(&id) {
                s.message = "cancel requested".into();
            }
        } else {
            self.transition(id, JobState::Cancelled, "cancelled before running")?;
            self.evict_idle_corpora();
        }
        self.jobs
            .get(&id)
            .cloned()
            .ok_or_else(|| ServeError::Invalid(format!("no such job {id}")))
    }

    /// One job's status.
    pub fn status(&self, id: u64) -> Option<&JobStatus> {
        self.jobs.get(&id)
    }

    /// Every job, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobStatus> {
        self.jobs.values()
    }

    /// A completed job's exact per-model ledger.
    pub fn job_ledger(&self, id: u64) -> Option<&UsageLedger> {
        self.ledgers.get(&id)
    }

    /// Per-tenant merged ledgers over completed jobs, in tenant order.
    pub fn tenant_ledgers(&self) -> BTreeMap<String, UsageLedger> {
        let mut out: BTreeMap<String, UsageLedger> = BTreeMap::new();
        for (id, ledger) in &self.ledgers {
            if let Some(status) = self.jobs.get(id) {
                out.entry(status.spec.tenant.clone())
                    .or_default()
                    .merge(ledger);
            }
        }
        out
    }

    /// The global ledger: every completed job's ledger merged.
    pub fn global_ledger(&self) -> UsageLedger {
        let mut out = UsageLedger::new();
        for ledger in self.ledgers.values() {
            out.merge(ledger);
        }
        out
    }

    /// A tenant's account (budget/spent/remaining, exact nano-USD).
    pub fn tenant_account(&self, tenant: &str) -> TenantAccount {
        self.lock_book().account(tenant)
    }

    /// Tenant names with accounts, in deterministic order.
    pub fn tenants(&self) -> Vec<String> {
        self.lock_book()
            .accounts()
            .map(|(name, _)| name.to_string())
            .collect()
    }

    /// Whether any job could make progress in a round right now.
    pub fn has_runnable(&self) -> bool {
        let book = self.lock_book();
        self.jobs.values().any(|s| match s.state {
            JobState::Queued => true,
            JobState::Paused => {
                let needed = self.needed.get(&s.spec.id).copied().unwrap_or(0);
                book.account(&s.spec.tenant).remaining_nanousd() > needed
            }
            _ => false,
        })
    }

    /// Run rounds until nothing is runnable (queued work is done or
    /// rejected; paused jobs whose tenants stay underfunded remain
    /// paused). Returns the merged report.
    ///
    /// Termination: every round moves each selected job to a terminal
    /// state, a pause with a refreshed `needed` figure that
    /// [`has_runnable`](Self::has_runnable) checks against, or (fresh
    /// zero-budget jobs) an admission rejection — so the runnable set
    /// strictly shrinks unless real iterations were paid for.
    pub fn drain(&mut self) -> Result<RoundReport, ServeError> {
        let mut total = RoundReport::default();
        while self.has_runnable() {
            total.absorb(self.run_round()?);
        }
        Ok(total)
    }

    /// One scheduler round: plan → execute → commit. See the module docs
    /// for the exact policy.
    pub fn run_round(&mut self) -> Result<RoundReport, ServeError> {
        let mut report = RoundReport::default();
        let planned = self.plan_round(&mut report)?;
        if !planned.is_empty() {
            self.execute(&planned, &mut report)?;
        }
        self.evict_idle_corpora();
        Ok(report)
    }

    /// Execute and commit the planned jobs.
    fn execute(&mut self, planned: &[u64], report: &mut RoundReport) -> Result<(), ServeError> {
        let entries = self.prepare_entries(planned);
        let factory = self.factory.clone();
        let book = self.book.clone();
        let builds = self.corpus_builds.clone();
        let opts = DurableOptions {
            checkpoint_every: self.config.checkpoint_every,
            kill: self.kill.clone(),
            require_existing: false,
        };
        let outcomes = self
            .pool
            .try_run(entries.len(), |i| {
                // ds-lint: allow(unchecked-index): try_run passes i < entries.len()
                let entry = &entries[i];
                let corpus = entry.corpus.get_or_init(|| {
                    builds.fetch_add(1, Ordering::Relaxed);
                    entry.spec.load_dataset().map(Corpus::build)
                });
                let corpus = corpus.as_ref().map_err(|e| JobError::Other(e.clone()))?;
                let fingerprint = entry.spec.fingerprint().map_err(JobError::Other)?;
                let mut gate = TrackedGate {
                    inner: BudgetGate::new(
                        &entry.spec.tenant,
                        entry.spec.id,
                        book.clone(),
                        entry.cancel.clone(),
                    ),
                    progress: entry.progress.clone(),
                };
                let backend = factory(&entry.spec, corpus.dataset());
                run_durable(
                    corpus,
                    &fingerprint,
                    backend,
                    &entry.dir,
                    &opts,
                    None,
                    Some(&mut gate),
                )
                .map_err(|e| classify(&e))
            })
            .map_err(|p| ServeError::Invalid(format!("job worker panicked: {p}")))?;

        for (entry, outcome) in entries.into_iter().zip(outcomes) {
            self.commit_outcome(&entry, outcome, report)?;
        }
        Ok(())
    }

    /// Plan phase: admission control + fair selection. Returns admitted
    /// job ids in execution order.
    fn plan_round(&mut self, report: &mut RoundReport) -> Result<Vec<u64>, ServeError> {
        let slots = self.config.slots.max(1);
        // Tenants in remaining-budget-descending order, name-ascending on
        // ties: the "weighted by remaining budget" round-robin axis.
        let mut tenants: Vec<(u128, String)> = self
            .lock_book()
            .accounts()
            .map(|(name, acct)| (acct.remaining_nanousd(), name.to_string()))
            .collect();
        tenants.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

        // FIFO queues per tenant of candidate jobs (id order = submit
        // order, because ids are assigned monotonically).
        let mut queues: BTreeMap<String, std::collections::VecDeque<u64>> = BTreeMap::new();
        for status in self.jobs.values() {
            if matches!(status.state, JobState::Queued | JobState::Paused) {
                queues
                    .entry(status.spec.tenant.clone())
                    .or_default()
                    .push_back(status.spec.id);
            }
        }

        let mut admitted: Vec<u64> = Vec::new();
        let mut progressed = true;
        while progressed && admitted.len() < slots {
            progressed = false;
            for (_, tenant) in &tenants {
                if admitted.len() >= slots {
                    break;
                }
                let Some(mut queue) = queues.remove(tenant) else {
                    continue;
                };
                while let Some(id) = queue.pop_front() {
                    let Some(state) = self.jobs.get(&id).map(|s| s.state) else {
                        continue;
                    };
                    let remaining = self.lock_book().account(tenant).remaining_nanousd();
                    match state {
                        JobState::Queued if remaining == 0 => {
                            // Admission rejection: terminal, no slot used.
                            report.rejected += 1;
                            self.emit(&Event::Counter {
                                counter: Counter::JobRejectBudget,
                                delta: 1,
                            });
                            self.transition(
                                id,
                                JobState::Rejected,
                                "rejected at admission: tenant has zero remaining budget",
                            )?;
                            continue;
                        }
                        JobState::Paused => {
                            let needed = self.needed.get(&id).copied().unwrap_or(0);
                            if remaining <= needed {
                                // Still underfunded: stays paused, no
                                // slot, no event.
                                continue;
                            }
                        }
                        _ => {}
                    }
                    report.admitted += 1;
                    self.emit(&Event::Counter {
                        counter: Counter::JobAdmit,
                        delta: 1,
                    });
                    self.transition(id, JobState::Running, "")?;
                    admitted.push(id);
                    progressed = true;
                    break; // one job per tenant per pass
                }
                if !queue.is_empty() {
                    queues.insert(tenant.clone(), queue);
                }
            }
        }
        Ok(admitted)
    }

    /// Build the execution entries: each job's corpus cell (found in the
    /// cache or added to it empty, for a worker to fill), and the cancel
    /// flags and progress cells shared with the gates.
    fn prepare_entries(&mut self, planned: &[u64]) -> Vec<ExecEntry> {
        let mut entries = Vec::with_capacity(planned.len());
        for &id in planned {
            let Some(status) = self.jobs.get(&id) else {
                continue;
            };
            let spec = status.spec.clone();
            let corpus = self
                .corpora
                .entry((spec.dataset.clone(), spec.seed, spec.scale_bits))
                .or_default()
                .clone();
            let cancel = self
                .cancels
                .entry(id)
                .or_insert_with(|| Arc::new(AtomicBool::new(false)))
                .clone();
            entries.push(ExecEntry {
                dir: self
                    .state_dir
                    .join(JOBS_DIR)
                    .join(format!("{:08}", spec.id)),
                spec,
                corpus,
                cancel,
                progress: Arc::new(Mutex::new(JobProgress::default())),
            });
        }
        entries
    }

    /// Drop every cached corpus whose key no queued, running or paused
    /// job has, so memory tracks the live keys rather than every key seen.
    fn evict_idle_corpora(&mut self) {
        if self.corpora.is_empty() {
            return;
        }
        let live: BTreeSet<(&str, u64, u64)> = self
            .jobs
            .values()
            .filter(|s| !s.state.is_terminal())
            .map(|s| (s.spec.dataset.as_str(), s.spec.seed, s.spec.scale_bits))
            .collect();
        self.corpora
            .retain(|(dataset, seed, bits), _| live.contains(&(dataset.as_str(), *seed, *bits)));
    }

    /// Commit phase for one executed job (runs on the scheduler thread,
    /// in plan order).
    fn commit_outcome(
        &mut self,
        entry: &ExecEntry,
        outcome: Result<DurableOutcome, JobError>,
        report: &mut RoundReport,
    ) -> Result<(), ServeError> {
        let id = entry.spec.id;
        let progress = match entry.progress.lock() {
            Ok(p) => *p,
            Err(poisoned) => *poisoned.into_inner(),
        };
        match outcome {
            Ok(outcome) => {
                report.completed += 1;
                let digest = outcome.result.digest();
                let ledger = outcome.result.ledger.clone();
                let cost = ledger.total_cost_nanousd();
                let iterations = outcome.result.iterations.len() as u64;
                self.lock_book().commit(&entry.spec.tenant, id, cost);
                self.emit(&Event::StageBegin {
                    iter: id,
                    stage: Stage::Job,
                });
                for (model, usage) in ledger.per_model() {
                    self.emit(&Event::Usage {
                        model: model.api_name().to_string(),
                        prompt_tokens: usage.prompt_tokens,
                        completion_tokens: usage.completion_tokens,
                        cost_nanousd: PricingTable::cost_nanousd(
                            model,
                            usage.prompt_tokens,
                            usage.completion_tokens,
                        ),
                    });
                }
                self.emit(&Event::Counter {
                    counter: Counter::JobComplete,
                    delta: 1,
                });
                self.emit(&Event::Message {
                    text: format!(
                        "job {id} tenant {} completed: digest {digest:016x}, {cost} nanoUSD",
                        entry.spec.tenant
                    ),
                });
                self.emit(&Event::StageEnd {
                    iter: id,
                    stage: Stage::Job,
                });
                self.ledgers.insert(id, ledger);
                self.needed.remove(&id);
                self.record_state(id, JobState::Completed, cost, iterations, digest, "")?;
            }
            Err(JobError::Pause(message)) => {
                report.paused += 1;
                self.needed.insert(id, progress.needed_nanousd);
                self.emit(&Event::Counter {
                    counter: Counter::JobPause,
                    delta: 1,
                });
                self.emit(&Event::Message {
                    text: format!("job {id} tenant {} paused: {message}", entry.spec.tenant),
                });
                self.record_state(
                    id,
                    JobState::Paused,
                    progress.cost_nanousd,
                    progress.iterations,
                    0,
                    &message,
                )?;
            }
            Err(JobError::Cancel(message)) => {
                report.cancelled += 1;
                self.record_state(
                    id,
                    JobState::Cancelled,
                    progress.cost_nanousd,
                    progress.iterations,
                    0,
                    &message,
                )?;
            }
            Err(JobError::Other(message)) => {
                report.failed += 1;
                self.emit(&Event::Message {
                    text: format!("job {id} tenant {} failed: {message}", entry.spec.tenant),
                });
                self.record_state(
                    id,
                    JobState::Failed,
                    progress.cost_nanousd,
                    progress.iterations,
                    0,
                    &message,
                )?;
            }
        }
        Ok(())
    }

    /// Record a state transition in memory and the durable registry.
    fn record_state(
        &mut self,
        id: u64,
        state: JobState,
        cost_nanousd: u128,
        iterations: u64,
        digest: u64,
        message: &str,
    ) -> Result<(), ServeError> {
        if let Some(status) = self.jobs.get_mut(&id) {
            status.state = state;
            status.cost_nanousd = cost_nanousd;
            status.iterations = iterations;
            status.digest = digest;
            status.message = message.to_string();
        }
        self.registry
            .append_state(id, state, cost_nanousd, iterations, digest, message)?;
        Ok(())
    }

    /// In-memory transition + registry append, preserving recorded cost.
    fn transition(&mut self, id: u64, state: JobState, message: &str) -> Result<(), ServeError> {
        let (cost, iterations, digest) = self
            .jobs
            .get(&id)
            .map(|s| (s.cost_nanousd, s.iterations, s.digest))
            .unwrap_or_default();
        self.record_state(id, state, cost, iterations, digest, message)
    }

    fn emit(&mut self, event: &Event) {
        if let Some(obs) = &mut self.observer {
            obs.on_event(event);
        }
    }

    fn lock_book(&self) -> MutexGuard<'_, TenantBook> {
        match self.book.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

//! The durable-run orchestrator: open → (maybe) restore → run.
//!
//! [`run_durable`] is the one entry point a caller (the CLI, the tier-1
//! `durable_resume` test) needs: given a run directory it opens the
//! response store and checkpoint log, verifies any existing checkpoint
//! against the run's [`RunFingerprint`], assembles the
//! [`DiskCachedModel`] + [`DiskCheckpointer`] stack, and delegates to
//! [`DataSculpt::run_durable`](datasculpt_core::DataSculpt::run_durable).
//!
//! Resume is replay-based (see the crate docs): a resumed run re-executes
//! from iteration 0 with previously-answered prompts served from disk
//! (billing nothing) and each replayed iteration's state digest verified
//! against the checkpoint it wrote before dying.

use crate::checkpoint::{
    CheckpointError, CheckpointHeader, CheckpointLog, DiskCheckpointer, RunFingerprint,
    CHECKPOINT_VERSION,
};
use crate::disk_cache::DiskCachedModel;
use crate::inject::KillSwitch;
use crate::store::ResponseStore;
use crate::StoreError;
use datasculpt_core::{
    CheckpointSink, Corpus, DataSculpt, IterationCheckpoint, PipelineError, RunResult,
};
use datasculpt_llm::cache::CacheStats;
use datasculpt_llm::ChatModel;
use datasculpt_obs::{Event, NoopObserver, RunObserver, SharedObserver, Stage};
use std::path::Path;

/// File name of the response log inside a run directory.
pub const RESPONSES_FILE: &str = "responses.log";
/// File name of the checkpoint log inside a run directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.log";

/// Knobs for a durable run.
#[derive(Debug, Clone, Default)]
pub struct DurableOptions {
    /// Checkpoint every N iterations (0 is treated as 1). The cadence is
    /// anchored at iteration 0: iteration `i` is checkpointed when
    /// `(i + 1) % N == 0`.
    pub checkpoint_every: u64,
    /// Crash-injection switch shared with a
    /// [`KillAfter`](crate::KillAfter) wrapper around the backend: once
    /// tripped, the checkpointer silently drops writes so disk ends up in
    /// exactly the state a SIGKILL would have left.
    pub kill: Option<KillSwitch>,
    /// Refuse to start fresh: error with
    /// [`CheckpointError::NothingToResume`] unless the directory already
    /// holds a checkpoint (the CLI's `--resume` semantics).
    pub require_existing: bool,
}

/// What a completed durable run reports beyond the [`RunResult`].
#[derive(Debug)]
pub struct DurableOutcome {
    /// The run's result; its digest, ledger, and trace are bit-identical
    /// to an uninterrupted run's.
    pub result: RunResult,
    /// Disk-store hits/misses seen by this process.
    pub store_stats: CacheStats,
    /// Exact nano-USD billed to the backend *by this process*; replayed
    /// prompts bill nothing.
    pub billed_nanousd: u128,
    /// Checkpointed iterations verified against the replay.
    pub replayed_iterations: u64,
    /// Checkpoint records appended by this process.
    pub checkpoints_written: u64,
    /// Whether the directory held a prior run's checkpoint log.
    pub recovered: bool,
}

/// Why a durable run failed.
#[derive(Debug)]
pub enum DurableError {
    /// The pipeline itself failed (LLM errors past the consecutive-failure
    /// limit, or a checkpoint append/verification failure surfaced as
    /// [`PipelineError::Checkpoint`]).
    Pipeline(PipelineError),
    /// The response store could not be opened or written.
    Store(StoreError),
    /// The checkpoint log was unreadable, version-incompatible, from a
    /// different configuration, or absent when `--resume` required it.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Pipeline(e) => write!(f, "{e}"),
            DurableError::Store(e) => write!(f, "{e}"),
            DurableError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Pipeline(e) => Some(e),
            DurableError::Store(e) => Some(e),
            DurableError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<PipelineError> for DurableError {
    fn from(e: PipelineError) -> Self {
        DurableError::Pipeline(e)
    }
}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        DurableError::Store(e)
    }
}

impl From<CheckpointError> for DurableError {
    fn from(e: CheckpointError) -> Self {
        DurableError::Checkpoint(e)
    }
}

/// A per-iteration admission hook for gated durable runs
/// ([`run_durable_gated`]).
///
/// The gate is consulted *after* the iteration's snapshot has been
/// persisted (or verified, during a resume replay) by the
/// [`DiskCheckpointer`], so a gate that stops the run never loses state:
/// the aborted run resumes bit-identically from the iteration it was
/// stopped at. Returning `Err` surfaces as
/// [`PipelineError::Checkpoint`] with the gate's message — callers (the
/// serving daemon's budget admission control) encode pause/cancel
/// decisions in the message and classify the error on the way out.
pub trait IterationGate {
    /// Decide whether the run may proceed past this (already durable)
    /// iteration snapshot.
    fn after_checkpoint(&mut self, snapshot: &IterationCheckpoint) -> Result<(), String>;
}

/// [`CheckpointSink`] adapter: persist through the checkpointer first,
/// then consult the gate.
struct GatedSink<'c, 'g> {
    checkpointer: &'c mut DiskCheckpointer,
    gate: Option<&'g mut dyn IterationGate>,
}

impl CheckpointSink for GatedSink<'_, '_> {
    fn on_iteration(&mut self, snapshot: &IterationCheckpoint) -> Result<(), String> {
        self.checkpointer.on_iteration(snapshot)?;
        if let Some(gate) = self.gate.as_deref_mut() {
            gate.after_checkpoint(snapshot)?;
        }
        Ok(())
    }
}

/// Run DataSculpt durably in `dir` over `corpus` (sharing its indexes),
/// resuming from whatever state the directory already holds.
///
/// The configuration comes from `fingerprint.config`; the fingerprint's
/// identity fields must describe the corpus's dataset and `backend` (they
/// are what a later resume is checked against). `backend` is wrapped in a
/// [`DiskCachedModel`] — pass it *unwrapped* (retry middleware is fine;
/// an in-memory cache on top would change which calls reach the disk
/// layer between the original run and its resume).
pub fn run_durable<M: ChatModel>(
    corpus: &Corpus,
    fingerprint: &RunFingerprint,
    backend: M,
    dir: &Path,
    opts: &DurableOptions,
    observer: Option<SharedObserver>,
) -> Result<DurableOutcome, DurableError> {
    run_durable_gated(corpus, fingerprint, backend, dir, opts, observer, None)
}

/// [`run_durable`] with an optional [`IterationGate`] consulted after
/// every durable iteration snapshot — the serving daemon's budget
/// admission hook.
pub fn run_durable_gated<M: ChatModel>(
    corpus: &Corpus,
    fingerprint: &RunFingerprint,
    backend: M,
    dir: &Path,
    opts: &DurableOptions,
    observer: Option<SharedObserver>,
    gate: Option<&mut dyn IterationGate>,
) -> Result<DurableOutcome, DurableError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| DurableError::Store(StoreError::io(dir, "create-dir", &e)))?;

    let mut observer = observer;
    let mut noop = NoopObserver;

    // The restore span covers everything that happens before the first
    // live iteration: opening (and recovering) the store, loading and
    // verifying the checkpoint log.
    emit(
        &mut observer,
        &Event::StageBegin {
            iter: 0,
            stage: Stage::Restore,
        },
    );
    let restored = open_state(dir, fingerprint, opts);
    emit(
        &mut observer,
        &Event::StageEnd {
            iter: 0,
            stage: Stage::Restore,
        },
    );
    let (store, loaded) = restored?;
    let recovered = loaded.is_some();
    let resuming_from = loaded.map(|log| log.iterations).unwrap_or_default();

    let header = CheckpointHeader {
        version: CHECKPOINT_VERSION,
        fingerprint: fingerprint.digest(),
        dataset: fingerprint.dataset.clone(),
        model: fingerprint.model.clone(),
        queries: fingerprint.config.num_queries as u64,
    };
    let mut checkpointer = DiskCheckpointer::create(
        &dir.join(CHECKPOINT_FILE),
        &header,
        &resuming_from,
        opts.checkpoint_every,
    )?;
    if let Some(obs) = &observer {
        checkpointer = checkpointer.with_observer(obs.clone());
    }
    if let Some(kill) = &opts.kill {
        checkpointer = checkpointer.with_kill_switch(kill.clone());
    }

    let mut model = DiskCachedModel::new(backend, store);
    if let Some(obs) = &observer {
        model = model.with_observer(obs.clone());
    }

    let obs: &mut dyn RunObserver = match observer.as_mut() {
        Some(o) => o,
        None => &mut noop,
    };
    let mut sink = GatedSink {
        checkpointer: &mut checkpointer,
        gate,
    };
    let result =
        DataSculpt::over(corpus, fingerprint.config).run_durable(&mut model, obs, &mut sink)?;

    Ok(DurableOutcome {
        result,
        store_stats: model.cache_stats(),
        billed_nanousd: model.billed_nanousd(),
        replayed_iterations: checkpointer.replayed(),
        checkpoints_written: checkpointer.written(),
        recovered,
    })
}

/// Open the response store and load/verify the checkpoint log.
fn open_state(
    dir: &Path,
    fingerprint: &RunFingerprint,
    opts: &DurableOptions,
) -> Result<(ResponseStore, Option<CheckpointLog>), DurableError> {
    let store = ResponseStore::open(&dir.join(RESPONSES_FILE))?;
    let loaded = CheckpointLog::load(&dir.join(CHECKPOINT_FILE))?;
    match &loaded {
        Some(log) => log.verify(fingerprint)?,
        None => {
            if opts.require_existing {
                return Err(DurableError::Checkpoint(CheckpointError::NothingToResume));
            }
        }
    }
    Ok((store, loaded))
}

fn emit(observer: &mut Option<SharedObserver>, event: &Event) {
    if let Some(obs) = observer {
        obs.on_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::tests::tempdir;
    use crate::inject::KillAfter;
    use datasculpt_core::DataSculptConfig;
    use datasculpt_data::{DatasetName, TextDataset};
    use datasculpt_llm::{ModelId, SimulatedLlm};

    fn config() -> DataSculptConfig {
        let mut cfg = DataSculptConfig::cot(9);
        cfg.num_queries = 6;
        cfg
    }

    fn fingerprint(cfg: DataSculptConfig) -> RunFingerprint {
        RunFingerprint {
            dataset: "youtube".into(),
            dataset_seed: 21,
            scale_bits: 0.1f64.to_bits(),
            model: ModelId::Gpt35Turbo.api_name().into(),
            llm_seed: 13,
            config: cfg,
        }
    }

    fn backend(dataset: &TextDataset) -> SimulatedLlm {
        SimulatedLlm::new(ModelId::Gpt35Turbo, dataset.generative.clone(), 13)
    }

    #[test]
    fn fresh_durable_run_matches_a_plain_run() {
        let c = Corpus::build(DatasetName::Youtube.load_scaled(21, 0.1));
        let d = c.dataset();
        let cfg = config();
        let mut plain_llm = backend(d);
        let plain = DataSculpt::new(d, cfg).run(&mut plain_llm).unwrap();

        let dir = tempdir();
        let outcome = run_durable(
            &c,
            &fingerprint(cfg),
            backend(d),
            &dir,
            &DurableOptions::default(),
            None,
        )
        .unwrap();
        assert_eq!(outcome.result.digest(), plain.digest());
        assert!(!outcome.recovered);
        assert_eq!(outcome.replayed_iterations, 0);
        assert_eq!(outcome.checkpoints_written, cfg.num_queries as u64);
        assert_eq!(outcome.store_stats.hits, 0);
        assert!(outcome.billed_nanousd > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_and_resume_reproduces_the_uninterrupted_run() {
        let c = Corpus::build(DatasetName::Youtube.load_scaled(21, 0.1));
        let d = c.dataset();
        let cfg = config();
        let fp = fingerprint(cfg);

        let dir_a = tempdir();
        let baseline = run_durable(
            &c,
            &fp,
            backend(d),
            &dir_a,
            &DurableOptions::default(),
            None,
        )
        .unwrap();

        // Kill a second run mid-flight after 3 backend calls: every later
        // iteration fails, tripping the consecutive-failure limit.
        let dir_b = tempdir();
        let doomed = KillAfter::new(backend(d), 3, KillSwitch::new());
        let switch = doomed.switch();
        let crashed = run_durable(
            &c,
            &fp,
            doomed,
            &dir_b,
            &DurableOptions {
                kill: Some(switch),
                ..DurableOptions::default()
            },
            None,
        );
        assert!(
            matches!(crashed, Err(DurableError::Pipeline(_))),
            "expected a pipeline failure, got {crashed:?}"
        );

        // Resume with a fresh backend: bit-identical result, and the two
        // processes together billed exactly what the baseline did.
        let resumed = run_durable(
            &c,
            &fp,
            backend(d),
            &dir_b,
            &DurableOptions {
                require_existing: true,
                ..DurableOptions::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(resumed.result.digest(), baseline.result.digest());
        assert_eq!(
            resumed.result.ledger.total_cost_nanousd(),
            baseline.result.ledger.total_cost_nanousd()
        );
        assert!(resumed.recovered);
        assert!(resumed.replayed_iterations > 0);
        assert!(resumed.store_stats.hits > 0, "replay served from disk");
        assert!(
            resumed.billed_nanousd < baseline.billed_nanousd,
            "stored prompts were not re-billed"
        );

        // A second resume of the now-complete directory re-bills nothing.
        let replayed = run_durable(
            &c,
            &fp,
            backend(d),
            &dir_b,
            &DurableOptions {
                require_existing: true,
                ..DurableOptions::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(replayed.result.digest(), baseline.result.digest());
        assert_eq!(replayed.billed_nanousd, 0, "full replay is free");
        assert_eq!(replayed.store_stats.misses, 0);
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn require_existing_refuses_an_empty_directory() {
        let c = Corpus::build(DatasetName::Youtube.load_scaled(21, 0.1));
        let d = c.dataset();
        let cfg = config();
        let dir = tempdir();
        let err = run_durable(
            &c,
            &fingerprint(cfg),
            backend(d),
            &dir,
            &DurableOptions {
                require_existing: true,
                ..DurableOptions::default()
            },
            None,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DurableError::Checkpoint(CheckpointError::NothingToResume)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}

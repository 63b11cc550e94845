//! Versioned checkpoint log: per-iteration run-state snapshots.
//!
//! Schema v1 (see `docs/persistence.md`). The log is CRC-framed
//! ([`framing`](crate::framing)); payloads are tagged:
//!
//! * `0x01` **header** — `version u64, fingerprint u64, dataset str,
//!   model str, queries u64`. Written once, first, when a durable run
//!   starts fresh.
//! * `0x02` **iteration** — `iter u64, state_digest u64, lfs u64,
//!   calls u64, cost_nanousd u128, failed bool`. One per checkpointed
//!   iteration.
//!
//! Loading is strict where it must be and lenient where it may: an
//! unknown *version* or a mismatched *fingerprint* is a typed error (a
//! wrong-answer resume would be silent data corruption), while a torn
//! final record is recovered by truncation (replay re-covers the lost
//! iteration from the response store).

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::framing::FramedLog;
use crate::inject::KillSwitch;
use crate::StoreError;
use datasculpt_core::pipeline::PromptStyle;
use datasculpt_core::pipeline::{CheckpointSink, IterationCheckpoint};
use datasculpt_core::DataSculptConfig;
use datasculpt_core::{IclStrategy, SamplerKind};
use datasculpt_obs::hash::Fnv64;
use datasculpt_obs::{Counter, Event, RunObserver, SharedObserver, Stage};
use std::collections::VecDeque;
use std::path::Path;

/// The checkpoint schema version this build writes and understands.
pub const CHECKPOINT_VERSION: u64 = 1;

const TAG_HEADER: u8 = 0x01;
const TAG_ITERATION: u8 = 0x02;

/// Everything that must match for a checkpoint to be resumable: the
/// dataset identity, the backend identity, and the full run
/// configuration. Digested ([`digest`](Self::digest)) into the header —
/// resuming with so much as a different temperature is refused with
/// [`CheckpointError::ConfigMismatch`] instead of silently diverging.
#[derive(Debug, Clone)]
pub struct RunFingerprint {
    /// Dataset name.
    pub dataset: String,
    /// Dataset load seed.
    pub dataset_seed: u64,
    /// Bit pattern of the dataset scale fraction.
    pub scale_bits: u64,
    /// Backend model API name.
    pub model: String,
    /// The LLM's own seed (distinct from the run seed).
    pub llm_seed: u64,
    /// The full pipeline configuration.
    pub config: DataSculptConfig,
}

impl RunFingerprint {
    /// Order-stable FNV-1a digest over every resume-relevant field.
    ///
    /// `config.threads` is deliberately excluded: thread count is
    /// digest-invariant by the workspace determinism contract, so a run
    /// may be resumed with a different `--threads`.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::default();
        h.eat(self.dataset.as_bytes());
        h.eat_u64(self.dataset_seed);
        h.eat_u64(self.scale_bits);
        h.eat(self.model.as_bytes());
        h.eat_u64(self.llm_seed);
        let c = &self.config;
        h.eat_u64(c.num_queries as u64);
        h.eat_u64(c.samples_per_query as u64);
        h.eat(match c.style {
            PromptStyle::Base => b"base",
            PromptStyle::CoT => b"cot",
        });
        h.eat(match c.icl_strategy {
            IclStrategy::ClassBalanced => b"class-balanced",
            IclStrategy::Kate => b"kate",
        });
        h.eat_u64(c.n_icl as u64);
        h.eat_u64(c.temperature.to_bits());
        h.eat(&[
            u8::from(c.filters.validity),
            u8::from(c.filters.accuracy),
            u8::from(c.filters.redundancy),
        ]);
        h.eat_u64(c.filters.accuracy_threshold.to_bits());
        h.eat_u64(c.filters.redundancy_threshold.to_bits());
        h.eat(match c.sampler {
            SamplerKind::Random => b"random".as_slice(),
            SamplerKind::Uncertain => b"uncertain",
            SamplerKind::Seu => b"seu",
            SamplerKind::CoreSet => b"core-set",
        });
        h.eat(&[u8::from(c.revise_rejected)]);
        h.eat_u64(c.max_consecutive_failures as u64);
        h.eat_u64(c.seed);
        h.finish()
    }
}

/// The checkpoint log's header record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Schema version ([`CHECKPOINT_VERSION`] when written by this build).
    pub version: u64,
    /// [`RunFingerprint::digest`] of the run that owns this log.
    pub fingerprint: u64,
    /// Dataset name (informational, for `inspect`-style tooling).
    pub dataset: String,
    /// Backend model API name (informational).
    pub model: String,
    /// Configured query budget (informational).
    pub queries: u64,
}

/// Why a checkpoint log could not be loaded or resumed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The underlying store layer failed.
    Store(StoreError),
    /// A CRC-clean record failed to decode.
    Corrupt(String),
    /// The log was written by an unknown (newer) schema version.
    UnknownVersion {
        /// Version found in the header.
        found: u64,
        /// Version this build supports.
        supported: u64,
    },
    /// The log belongs to a different run configuration.
    ConfigMismatch {
        /// Fingerprint digest this run would write.
        expected: u64,
        /// Fingerprint digest found in the header.
        found: u64,
    },
    /// The log has records but no header (or a non-header first record).
    MissingHeader,
    /// A resume was requested but no checkpoint exists.
    NothingToResume,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Store(e) => write!(f, "{e}"),
            CheckpointError::Corrupt(msg) => write!(f, "checkpoint record corrupt: {msg}"),
            CheckpointError::UnknownVersion { found, supported } => write!(
                f,
                "checkpoint schema version {found} is not supported (this build reads v{supported}); \
                 refusing to guess at its layout"
            ),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different run configuration \
                 (fingerprint {found:016x}, this run is {expected:016x}); \
                 resuming it would silently produce a different answer"
            ),
            CheckpointError::MissingHeader => {
                write!(f, "checkpoint log has records but no header")
            }
            CheckpointError::NothingToResume => {
                write!(f, "--resume requested but the directory holds no checkpoint")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> Self {
        CheckpointError::Store(e)
    }
}

fn corrupt(e: CodecError) -> CheckpointError {
    CheckpointError::Corrupt(e.to_string())
}

/// Encode the header record payload.
pub fn encode_header(header: &CheckpointHeader) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(TAG_HEADER);
    w.put_u64(header.version);
    w.put_u64(header.fingerprint);
    w.put_str(&header.dataset);
    w.put_str(&header.model);
    w.put_u64(header.queries);
    w.into_bytes()
}

/// Encode one iteration record payload.
pub fn encode_iteration(snap: &IterationCheckpoint) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(TAG_ITERATION);
    w.put_u64(snap.iter);
    w.put_u64(snap.state_digest);
    w.put_u64(snap.lfs);
    w.put_u64(snap.calls);
    w.put_u128(snap.cost_nanousd);
    w.put_bool(snap.failed);
    w.into_bytes()
}

fn decode_header(payload: &[u8]) -> Result<CheckpointHeader, CheckpointError> {
    let mut r = ByteReader::new(payload);
    let tag = r.u8().map_err(corrupt)?;
    if tag != TAG_HEADER {
        return Err(CheckpointError::MissingHeader);
    }
    let version = r.u64().map_err(corrupt)?;
    if version != CHECKPOINT_VERSION {
        // Refuse before touching the rest of the payload: a newer schema
        // may have changed everything after the version field.
        return Err(CheckpointError::UnknownVersion {
            found: version,
            supported: CHECKPOINT_VERSION,
        });
    }
    let header = CheckpointHeader {
        version,
        fingerprint: r.u64().map_err(corrupt)?,
        dataset: r.str().map_err(corrupt)?,
        model: r.str().map_err(corrupt)?,
        queries: r.u64().map_err(corrupt)?,
    };
    r.finish().map_err(corrupt)?;
    Ok(header)
}

fn decode_iteration(payload: &[u8]) -> Result<IterationCheckpoint, CheckpointError> {
    let mut r = ByteReader::new(payload);
    let tag = r.u8().map_err(corrupt)?;
    if tag != TAG_ITERATION {
        return Err(CheckpointError::Corrupt(format!(
            "expected an iteration record (tag 0x02), found tag {tag:#04x}"
        )));
    }
    let snap = IterationCheckpoint {
        iter: r.u64().map_err(corrupt)?,
        state_digest: r.u64().map_err(corrupt)?,
        lfs: r.u64().map_err(corrupt)?,
        calls: r.u64().map_err(corrupt)?,
        cost_nanousd: r.u128().map_err(corrupt)?,
        failed: r.bool().map_err(corrupt)?,
    };
    r.finish().map_err(corrupt)?;
    Ok(snap)
}

/// A loaded checkpoint log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointLog {
    /// The header record.
    pub header: CheckpointHeader,
    /// Every checkpointed iteration, in order.
    pub iterations: Vec<IterationCheckpoint>,
}

impl CheckpointLog {
    /// Load the log at `path`. `Ok(None)` when the file does not exist or
    /// holds no records (a fresh start); typed errors for unknown
    /// versions and corrupt records.
    ///
    /// Loading does not truncate: recovery happens when the log is opened
    /// for writing ([`DiskCheckpointer::create`]).
    pub fn load(path: &Path) -> Result<Option<CheckpointLog>, CheckpointError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::io(path, "read", &e).into()),
        };
        let outcome = crate::framing::scan_records(&bytes);
        let mut records = outcome.records.iter();
        let Some(first) = records.next() else {
            return Ok(None);
        };
        let header = decode_header(first)?;
        let mut iterations = Vec::new();
        for payload in records {
            iterations.push(decode_iteration(payload)?);
        }
        Ok(Some(CheckpointLog { header, iterations }))
    }

    /// Check this log against the fingerprint of the run about to resume.
    pub fn verify(&self, fingerprint: &RunFingerprint) -> Result<(), CheckpointError> {
        let expected = fingerprint.digest();
        if self.header.fingerprint != expected {
            return Err(CheckpointError::ConfigMismatch {
                expected,
                found: self.header.fingerprint,
            });
        }
        Ok(())
    }
}

/// The durable [`CheckpointSink`]: verifies replayed iterations against
/// the loaded log, then appends new ones.
///
/// Phases:
///
/// 1. **Verify** — while loaded records remain, each incoming snapshot
///    whose `iter` matches the next record must reproduce its
///    `state_digest` exactly; a mismatch aborts the run (the replay
///    diverged, so continuing would overwrite good state with bad).
/// 2. **Append** — past the loaded records, every snapshot on the
///    checkpoint cadence is framed, appended, and synced.
///
/// A tripped [`KillSwitch`] silently drops everything (verification and
/// writes): the process is "dead", and a dead process writes nothing.
pub struct DiskCheckpointer {
    log: FramedLog,
    expected: VecDeque<IterationCheckpoint>,
    every: u64,
    observer: Option<SharedObserver>,
    kill: Option<KillSwitch>,
    written: u64,
    replayed: u64,
}

impl DiskCheckpointer {
    /// Open the checkpoint log at `path` for a durable run.
    ///
    /// `resuming_from` carries the records loaded (and verified) by
    /// [`CheckpointLog::load`]; pass an empty slice for a fresh run. A
    /// fresh log gets its header written (and synced) immediately, so
    /// even a run killed before its first iteration leaves a resumable
    /// directory.
    pub fn create(
        path: &Path,
        header: &CheckpointHeader,
        resuming_from: &[IterationCheckpoint],
        every: u64,
    ) -> Result<Self, StoreError> {
        let (mut log, outcome) = FramedLog::open(path)?;
        if outcome.records.is_empty() {
            log.append(&encode_header(header))?;
        }
        Ok(DiskCheckpointer {
            log,
            expected: resuming_from.iter().copied().collect(),
            every: every.max(1),
            observer: None,
            kill: None,
            written: 0,
            replayed: 0,
        })
    }

    /// Attach a trace observer: verified replays emit `restore_replay`
    /// counters, appended records emit `checkpoint` stage spans and
    /// `checkpoint_write` counters.
    pub fn with_observer(mut self, observer: SharedObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attach a crash-injection kill switch (tests / `check.sh` smoke).
    pub fn with_kill_switch(mut self, kill: KillSwitch) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Records appended by this process.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Loaded records verified against the replay so far.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Loaded records not yet re-reached by the replay.
    pub fn pending_replay(&self) -> u64 {
        self.expected.len() as u64
    }

    fn emit(&mut self, event: &Event) {
        if let Some(obs) = &mut self.observer {
            obs.on_event(event);
        }
    }
}

impl CheckpointSink for DiskCheckpointer {
    fn on_iteration(&mut self, snapshot: &IterationCheckpoint) -> Result<(), String> {
        if self.kill.as_ref().is_some_and(KillSwitch::is_dead) {
            // Emulated process death: a dead process neither verifies nor
            // persists. The run will abort on its own shortly.
            return Ok(());
        }
        if let Some(expected) = self.expected.front().copied() {
            if snapshot.iter < expected.iter {
                // Below the next checkpointed iteration (cadence gap):
                // nothing to verify, nothing to write.
                return Ok(());
            }
            if snapshot.iter > expected.iter {
                return Err(format!(
                    "replay skipped checkpointed iteration {} (reached {} first); \
                     the checkpoint log does not describe this run",
                    expected.iter, snapshot.iter
                ));
            }
            if snapshot.state_digest != expected.state_digest {
                return Err(format!(
                    "resume diverged at iteration {}: checkpoint digest {:016x}, \
                     replayed digest {:016x} — the store/config no longer reproduces \
                     the original run",
                    expected.iter, expected.state_digest, snapshot.state_digest
                ));
            }
            self.expected.pop_front();
            self.replayed += 1;
            self.emit(&Event::Counter {
                counter: Counter::RestoreReplay,
                delta: 1,
            });
            return Ok(());
        }
        // Live phase: persist on the cadence. Cadence is anchored at
        // iteration 0 so a resume with the same `--checkpoint-every`
        // lands on the same boundaries.
        if !(snapshot.iter + 1).is_multiple_of(self.every) {
            return Ok(());
        }
        self.emit(&Event::StageBegin {
            iter: snapshot.iter,
            stage: Stage::Checkpoint,
        });
        let result = self.log.append(&encode_iteration(snapshot));
        self.emit(&Event::StageEnd {
            iter: snapshot.iter,
            stage: Stage::Checkpoint,
        });
        result.map_err(|e| e.to_string())?;
        self.written += 1;
        self.emit(&Event::Counter {
            counter: Counter::CheckpointWrite,
            delta: 1,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::tests::tempdir;

    fn fingerprint() -> RunFingerprint {
        RunFingerprint {
            dataset: "youtube".into(),
            dataset_seed: 21,
            scale_bits: 0.1f64.to_bits(),
            model: "gpt-3.5-turbo-0613".into(),
            llm_seed: 13,
            config: DataSculptConfig::base(5),
        }
    }

    fn header(fp: &RunFingerprint) -> CheckpointHeader {
        CheckpointHeader {
            version: CHECKPOINT_VERSION,
            fingerprint: fp.digest(),
            dataset: fp.dataset.clone(),
            model: fp.model.clone(),
            queries: fp.config.num_queries as u64,
        }
    }

    fn snap(iter: u64, digest: u64) -> IterationCheckpoint {
        IterationCheckpoint {
            iter,
            state_digest: digest,
            lfs: iter + 1,
            calls: iter + 1,
            cost_nanousd: u128::from(iter) * 1000,
            failed: false,
        }
    }

    #[test]
    fn fresh_log_round_trips_header_and_iterations() {
        let dir = tempdir();
        let path = dir.join("checkpoint.log");
        let fp = fingerprint();
        let mut ck = DiskCheckpointer::create(&path, &header(&fp), &[], 1).unwrap();
        ck.on_iteration(&snap(0, 100)).unwrap();
        ck.on_iteration(&snap(1, 200)).unwrap();
        assert_eq!(ck.written(), 2);
        drop(ck);

        let log = CheckpointLog::load(&path).unwrap().unwrap();
        assert_eq!(log.header, header(&fp));
        assert_eq!(log.iterations, vec![snap(0, 100), snap(1, 200)]);
        log.verify(&fp).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absent_and_empty_logs_are_fresh_starts() {
        let dir = tempdir();
        let path = dir.join("checkpoint.log");
        assert_eq!(CheckpointLog::load(&path).unwrap(), None);
        std::fs::write(&path, b"").unwrap();
        assert_eq!(CheckpointLog::load(&path).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_is_sensitive_to_config_and_identity() {
        let fp = fingerprint();
        let base = fp.digest();
        let mut other = fp.clone();
        other.config.temperature = 0.0;
        assert_ne!(base, other.digest());
        let mut other = fp.clone();
        other.llm_seed = 14;
        assert_ne!(base, other.digest());
        let mut other = fp.clone();
        other.dataset = "imdb".into();
        assert_ne!(base, other.digest());
        // …but thread count is digest-invariant by contract.
        let mut other = fp.clone();
        other.config.threads = 8;
        assert_eq!(base, other.digest());
    }

    #[test]
    fn fingerprint_digest_is_pinned() {
        // Every checkpoint header on disk carries these bits; a moved bit
        // would refuse every existing run directory as a config mismatch.
        assert_eq!(fingerprint().digest(), 0x6b8d_da31_b446_0700);
    }

    #[test]
    fn verify_phase_accepts_matching_and_rejects_divergent_digests() {
        let dir = tempdir();
        let path = dir.join("checkpoint.log");
        let fp = fingerprint();
        let loaded = vec![snap(0, 100), snap(1, 200)];
        {
            let mut ck = DiskCheckpointer::create(&path, &header(&fp), &[], 1).unwrap();
            for s in &loaded {
                ck.on_iteration(s).unwrap();
            }
        }
        let mut ck = DiskCheckpointer::create(&path, &header(&fp), &loaded, 1).unwrap();
        ck.on_iteration(&snap(0, 100)).unwrap();
        assert_eq!(ck.replayed(), 1);
        let err = ck.on_iteration(&snap(1, 999)).unwrap_err();
        assert!(err.contains("diverged at iteration 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cadence_writes_every_kth_iteration() {
        let dir = tempdir();
        let path = dir.join("checkpoint.log");
        let fp = fingerprint();
        let mut ck = DiskCheckpointer::create(&path, &header(&fp), &[], 3).unwrap();
        for i in 0..7 {
            ck.on_iteration(&snap(i, 100 + i)).unwrap();
        }
        drop(ck);
        let log = CheckpointLog::load(&path).unwrap().unwrap();
        let iters: Vec<u64> = log.iterations.iter().map(|s| s.iter).collect();
        assert_eq!(iters, vec![2, 5], "every=3 lands on iterations 2 and 5");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_kill_switch_drops_writes_silently() {
        let dir = tempdir();
        let path = dir.join("checkpoint.log");
        let fp = fingerprint();
        let kill = KillSwitch::new();
        let mut ck = DiskCheckpointer::create(&path, &header(&fp), &[], 1)
            .unwrap()
            .with_kill_switch(kill.clone());
        ck.on_iteration(&snap(0, 100)).unwrap();
        kill.kill();
        ck.on_iteration(&snap(1, 200)).unwrap(); // dropped
        assert_eq!(ck.written(), 1);
        drop(ck);
        let log = CheckpointLog::load(&path).unwrap().unwrap();
        assert_eq!(log.iterations.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_version_is_a_typed_error() {
        let dir = tempdir();
        let path = dir.join("checkpoint.log");
        let fp = fingerprint();
        let mut h = header(&fp);
        h.version = 99;
        // Write the bad header directly.
        let (mut log, _) = FramedLog::open(&path).unwrap();
        log.append(&encode_header(&h)).unwrap();
        drop(log);
        let err = CheckpointLog::load(&path).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::UnknownVersion {
                found: 99,
                supported: CHECKPOINT_VERSION
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_mismatch_is_a_typed_error() {
        let dir = tempdir();
        let path = dir.join("checkpoint.log");
        let fp = fingerprint();
        {
            let _ck = DiskCheckpointer::create(&path, &header(&fp), &[], 1).unwrap();
        }
        let log = CheckpointLog::load(&path).unwrap().unwrap();
        let mut other = fp.clone();
        other.config.seed = 6;
        let err = log.verify(&other).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ConfigMismatch { .. }),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_header_is_a_typed_error() {
        let dir = tempdir();
        let path = dir.join("checkpoint.log");
        let (mut log, _) = FramedLog::open(&path).unwrap();
        log.append(&encode_iteration(&snap(0, 1))).unwrap();
        drop(log);
        assert_eq!(
            CheckpointLog::load(&path).unwrap_err(),
            CheckpointError::MissingHeader
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_iteration_record_loads_as_a_shorter_log() {
        let dir = tempdir();
        let path = dir.join("checkpoint.log");
        let fp = fingerprint();
        {
            let mut ck = DiskCheckpointer::create(&path, &header(&fp), &[], 1).unwrap();
            ck.on_iteration(&snap(0, 100)).unwrap();
            ck.on_iteration(&snap(1, 200)).unwrap();
        }
        crate::inject::tear_tail(&path, 5).unwrap();
        let log = CheckpointLog::load(&path).unwrap().unwrap();
        assert_eq!(log.iterations, vec![snap(0, 100)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

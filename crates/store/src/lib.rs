//! Durable runs: a disk-backed LLM response store and checkpoint/resume.
//!
//! A production labeling job dies mid-run; without durability every LLM
//! response it paid for is re-billed on restart. This crate makes a
//! DataSculpt run *resumable with zero re-billing* and *provably
//! bit-identical* to an uninterrupted run:
//!
//! * [`ResponseStore`] — an append-only, prompt-digest-keyed response log
//!   with CRC-checked records ([`framing`]), truncated-tail recovery, and
//!   a compacting rewrite.
//! * [`DiskCachedModel`] — [`ChatModel`](datasculpt_llm::ChatModel)
//!   middleware that serves previously-answered prompts from the store
//!   and persists every new backend response before acknowledging it.
//! * [`checkpoint`] — a versioned per-iteration snapshot log of the run
//!   state digest, with typed schema-evolution errors.
//! * [`run_durable`] — the orchestrator: open → (maybe) restore → run,
//!   verifying each replayed iteration against its checkpoint digest.
//! * [`inject`] — the crash-injection harness (a kill-switch model
//!   wrapper and a log-tearing helper) that the tier-1 `durable_resume`
//!   test drives.
//!
//! Resume is *replay-based*: rather than serializing sampler/ICL/LLM RNG
//! state, a resumed run re-executes from iteration 0 with every
//! previously-answered prompt served from disk (advancing the backend's
//! logical call index so post-crash calls line up), then continues live.
//! `docs/persistence.md` spells out the format and the determinism
//! contract.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod codec;
pub mod disk_cache;
pub mod framing;
pub mod inject;
pub mod response;
pub mod runner;
pub mod store;

pub use checkpoint::{
    CheckpointError, CheckpointHeader, CheckpointLog, DiskCheckpointer, RunFingerprint,
    CHECKPOINT_VERSION,
};
pub use codec::{ByteReader, ByteWriter, CodecError};
pub use disk_cache::DiskCachedModel;
pub use framing::{FramedLog, ScanOutcome, TornTail};
pub use inject::{tear_tail, KillAfter, KillSwitch};
pub use response::request_digest;
pub use runner::{run_durable, DurableError, DurableOptions, DurableOutcome};
pub use store::ResponseStore;

/// A durable-storage failure: an I/O error with its path and operation, or
/// a payload the codec rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The filesystem refused an operation.
    Io {
        /// The file involved.
        path: String,
        /// What was being attempted (`"open"`, `"append"`, `"sync"`, …).
        op: &'static str,
        /// The OS error text.
        message: String,
    },
    /// A record's payload failed to decode (CRC passed, content did not).
    Corrupt(String),
}

impl StoreError {
    /// An [`StoreError::Io`] from an OS error at `path` during `op`
    /// (public so sibling durable logs — e.g. the serve job registry —
    /// report in the same shape).
    pub fn io(path: &std::path::Path, op: &'static str, err: &std::io::Error) -> Self {
        StoreError::Io {
            path: path.display().to_string(),
            op,
            message: err.to_string(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, op, message } => {
                write!(f, "store I/O failure ({op} {path}): {message}")
            }
            StoreError::Corrupt(msg) => write!(f, "store record corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

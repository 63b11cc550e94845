//! The durable job registry: an append-only JSONL log of submits and
//! state transitions, replayed on daemon start so a crash loses nothing.
//!
//! Each line is a flat JSON object in the same dialect as the trace
//! schema (strings, unsigned integers, booleans — read through
//! [`datasculpt_obs::schema::Fields`]). Records are synced before
//! the daemon acknowledges the operation; a line torn by a crash inside
//! `write(2)` is detected on replay and dropped (the client never got an
//! ack for it), mirroring the response store's torn-tail recovery.

use crate::job::{JobSpec, JobState};
use datasculpt_obs::jsonl::escape_json;
use datasculpt_obs::schema::Fields;
use datasculpt_store::{KillSwitch, StoreError};
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the job registry inside a service state directory.
pub const REGISTRY_FILE: &str = "jobs.log";

/// One replayed registry record.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryRecord {
    /// A job submission, with the tenant budget top-up that rode along.
    Submit {
        /// The submitted job.
        spec: JobSpec,
        /// Nano-USD added to the tenant's budget by this submit.
        budget_nanousd: u128,
    },
    /// A job state transition.
    State {
        /// The job id.
        id: u64,
        /// The state entered.
        state: JobState,
        /// Cumulative job cost at the transition.
        cost_nanousd: u128,
        /// Durably completed iterations at the transition.
        iterations: u64,
        /// Run digest (0 unless completed).
        digest: u64,
        /// Detail message.
        message: String,
    },
}

/// Append-only, replayable job log.
#[derive(Debug)]
pub struct JobRegistry {
    path: PathBuf,
    file: std::fs::File,
    kill: Option<KillSwitch>,
}

impl JobRegistry {
    /// Open (or create) the registry in `state_dir`, replaying every
    /// intact record. A torn final line is dropped; `true` in the return
    /// marks that a tear was found.
    pub fn open(state_dir: &Path) -> Result<(JobRegistry, Vec<RegistryRecord>, bool), StoreError> {
        let path = state_dir.join(REGISTRY_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(StoreError::io(&path, "read", &e)),
        };
        let mut records = Vec::new();
        let mut torn = false;
        let mut clean_len = 0u64;
        for raw in text.split_inclusive('\n') {
            let line = raw.trim_end_matches('\n');
            if line.trim().is_empty() {
                clean_len += raw.len() as u64;
                continue;
            }
            match parse_record(line) {
                // A record is only clean if its terminating newline made
                // it to disk; a complete-looking line without one is a
                // torn write caught mid-record.
                Ok(r) if raw.ends_with('\n') => {
                    records.push(r);
                    clean_len += raw.len() as u64;
                }
                // Only the tail can be torn in an append-only,
                // synced-per-record log: stop replaying here.
                _ => {
                    torn = true;
                    break;
                }
            }
        }
        if torn {
            // Drop the torn bytes so later appends start on a clean line.
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| StoreError::io(&path, "open", &e))?;
            f.set_len(clean_len)
                .map_err(|e| StoreError::io(&path, "truncate", &e))?;
            f.sync_data()
                .map_err(|e| StoreError::io(&path, "sync", &e))?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| StoreError::io(&path, "open", &e))?;
        Ok((
            JobRegistry {
                path,
                file,
                kill: None,
            },
            records,
            torn,
        ))
    }

    /// Attach a crash-injection switch: once tripped, appends are
    /// silently dropped (the process is "dead"; nothing reaches disk),
    /// exactly like the durable checkpointer under the same switch.
    pub fn with_kill_switch(mut self, kill: KillSwitch) -> Self {
        self.set_kill_switch(kill);
        self
    }

    /// In-place form of [`with_kill_switch`](Self::with_kill_switch).
    pub fn set_kill_switch(&mut self, kill: KillSwitch) {
        self.kill = Some(kill);
    }

    /// Durably append a submit record.
    pub fn append_submit(
        &mut self,
        spec: &JobSpec,
        budget_nanousd: u128,
    ) -> Result<(), StoreError> {
        self.append_line(&render_submit(spec, budget_nanousd))
    }

    /// Durably append a state-transition record.
    pub fn append_state(
        &mut self,
        id: u64,
        state: JobState,
        cost_nanousd: u128,
        iterations: u64,
        digest: u64,
        message: &str,
    ) -> Result<(), StoreError> {
        self.append_line(&render_state(
            id,
            state,
            cost_nanousd,
            iterations,
            digest,
            message,
        ))
    }

    fn append_line(&mut self, line: &str) -> Result<(), StoreError> {
        if self.kill.as_ref().is_some_and(KillSwitch::is_dead) {
            return Ok(());
        }
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"))
            .map_err(|e| StoreError::io(&self.path, "append", &e))?;
        self.file
            .sync_data()
            .map_err(|e| StoreError::io(&self.path, "sync", &e))
    }
}

fn render_submit(spec: &JobSpec, budget_nanousd: u128) -> String {
    format!(
        concat!(
            "{{\"rec\":\"submit\",\"id\":{},\"tenant\":\"{}\",\"dataset\":\"{}\",",
            "\"config\":\"{}\",\"model\":\"{}\",\"seed\":{},\"scale_bits\":{},",
            "\"queries\":{},\"budget_nanousd\":{}}}"
        ),
        spec.id,
        escape_json(&spec.tenant),
        escape_json(&spec.dataset),
        escape_json(&spec.config),
        escape_json(&spec.model),
        spec.seed,
        spec.scale_bits,
        spec.queries,
        budget_nanousd,
    )
}

fn render_state(
    id: u64,
    state: JobState,
    cost_nanousd: u128,
    iterations: u64,
    digest: u64,
    message: &str,
) -> String {
    format!(
        concat!(
            "{{\"rec\":\"state\",\"id\":{},\"state\":\"{}\",\"cost_nanousd\":{},",
            "\"iterations\":{},\"digest\":{},\"message\":\"{}\"}}"
        ),
        id,
        state.name(),
        cost_nanousd,
        iterations,
        digest,
        escape_json(message),
    )
}

fn parse_record(line: &str) -> Result<RegistryRecord, String> {
    let f = Fields::parse(line)?;
    match f.str("rec")? {
        "submit" => Ok(RegistryRecord::Submit {
            spec: JobSpec {
                id: f.u64("id")?,
                tenant: f.str("tenant")?.to_string(),
                dataset: f.str("dataset")?.to_string(),
                config: f.str("config")?.to_string(),
                model: f.str("model")?.to_string(),
                seed: f.u64("seed")?,
                scale_bits: f.u64("scale_bits")?,
                queries: f.u64("queries")?,
            },
            budget_nanousd: f.uint("budget_nanousd")?,
        }),
        "state" => Ok(RegistryRecord::State {
            id: f.u64("id")?,
            state: JobState::parse(f.str("state")?)
                .ok_or_else(|| "unknown job state".to_string())?,
            cost_nanousd: f.uint("cost_nanousd")?,
            iterations: f.u64("iterations")?,
            digest: f.u64("digest")?,
            message: f.str("message")?.to_string(),
        }),
        other => Err(format!("unknown registry record kind '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ds_serve_registry_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    fn spec(id: u64) -> JobSpec {
        JobSpec {
            id,
            tenant: "acme \"quoted\"".into(),
            dataset: "youtube".into(),
            config: "cot".into(),
            model: "gpt-3.5".into(),
            seed: 13,
            scale_bits: 0.1f64.to_bits(),
            queries: 4,
        }
    }

    #[test]
    fn records_round_trip_through_reopen() {
        let dir = tempdir();
        let (mut reg, records, torn) = JobRegistry::open(&dir).expect("open");
        assert!(records.is_empty());
        assert!(!torn);
        reg.append_submit(&spec(1), 500).expect("submit");
        reg.append_state(1, JobState::Completed, 123, 4, 0xdead, "done")
            .expect("state");
        drop(reg);

        let (_reg, records, torn) = JobRegistry::open(&dir).expect("reopen");
        assert!(!torn);
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0],
            RegistryRecord::Submit {
                spec: spec(1),
                budget_nanousd: 500
            }
        );
        assert_eq!(
            records[1],
            RegistryRecord::State {
                id: 1,
                state: JobState::Completed,
                cost_nanousd: 123,
                iterations: 4,
                digest: 0xdead,
                message: "done".into(),
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_flagged() {
        let dir = tempdir();
        let (mut reg, _, _) = JobRegistry::open(&dir).expect("open");
        reg.append_submit(&spec(1), 10).expect("submit");
        reg.append_submit(&spec(2), 20).expect("submit");
        drop(reg);
        // Tear into the middle of the final record.
        datasculpt_store::tear_tail(&dir.join(REGISTRY_FILE), 7).expect("tear");

        let (_reg, records, torn) = JobRegistry::open(&dir).expect("reopen");
        assert!(torn);
        assert_eq!(records.len(), 1, "only the intact prefix replays");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tripped_kill_switch_drops_appends() {
        let dir = tempdir();
        let kill = KillSwitch::new();
        let (reg, _, _) = JobRegistry::open(&dir).expect("open");
        let mut reg = reg.with_kill_switch(kill.clone());
        reg.append_submit(&spec(1), 10).expect("live append");
        kill.kill();
        reg.append_submit(&spec(2), 20)
            .expect("dead append is a no-op");
        drop(reg);
        let (_reg, records, _) = JobRegistry::open(&dir).expect("reopen");
        assert_eq!(records.len(), 1, "nothing after the kill reached disk");
        std::fs::remove_dir_all(&dir).ok();
    }
}

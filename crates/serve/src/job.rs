//! Job identity and lifecycle: what a tenant submits, and the states the
//! scheduler moves it through.

use datasculpt_core::DataSculptConfig;
use datasculpt_data::{DatasetName, TextDataset};
use datasculpt_llm::ModelId;
use datasculpt_store::RunFingerprint;

/// Everything that identifies one labeling job: the run a tenant asked
/// for, pinned tightly enough that a daemon restart re-derives the *same*
/// [`RunFingerprint`] and resumes the job's durable directory
/// bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Daemon-assigned job id (1-based, monotonically increasing).
    pub id: u64,
    /// Owning tenant (budget account).
    pub tenant: String,
    /// Dataset name (`youtube`, `sms`, …).
    pub dataset: String,
    /// Config preset (`base`, `cot`, `sc`, `kate`).
    pub config: String,
    /// Model short name (`gpt-3.5`, `gpt-4`, `llama-7b`, …).
    pub model: String,
    /// Seed for the dataset subsample, the config preset, and the
    /// simulated backend (one knob, mirroring the CLI).
    pub seed: u64,
    /// Dataset scale factor as `f64` bits (1.0 = full size).
    pub scale_bits: u64,
    /// Query-iteration budget for the run.
    pub queries: u64,
}

impl JobSpec {
    /// Parse the dataset name, or explain which are valid.
    pub fn dataset_name(&self) -> Result<DatasetName, String> {
        DatasetName::parse(&self.dataset)
            .ok_or_else(|| format!("unknown dataset '{}'", self.dataset))
    }

    /// Parse the model short name (the CLI's `--model` vocabulary).
    pub fn model_id(&self) -> Result<ModelId, String> {
        ModelId::from_short_name(&self.model)
    }

    /// Build the pipeline configuration this job runs with.
    pub fn pipeline_config(&self) -> Result<DataSculptConfig, String> {
        let mut config = DataSculptConfig::preset(&self.config, self.seed)?;
        config.num_queries = self.queries as usize;
        config.threads = 1; // parallelism lives in the scheduler pool
        Ok(config)
    }

    /// The durable-run fingerprint a resume is verified against.
    pub fn fingerprint(&self) -> Result<RunFingerprint, String> {
        Ok(RunFingerprint {
            dataset: self.dataset_name()?.to_string(),
            dataset_seed: self.seed,
            scale_bits: self.scale_bits,
            model: self.model_id()?.api_name().to_string(),
            llm_seed: self.seed,
            config: self.pipeline_config()?,
        })
    }

    /// Load this job's dataset split.
    pub fn load_dataset(&self) -> Result<TextDataset, String> {
        let name = self.dataset_name()?;
        let scale = f64::from_bits(self.scale_bits);
        Ok(if (scale - 1.0).abs() < 1e-12 {
            name.load(self.seed)
        } else {
            name.load_scaled(self.seed, scale)
        })
    }

    /// Validate every derivable field at admission time.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenant.is_empty() {
            return Err("tenant must be non-empty".into());
        }
        if self.queries == 0 {
            return Err("queries must be >= 1".into());
        }
        let scale = f64::from_bits(self.scale_bits);
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(format!("scale {scale} out of range (0, 1]"));
        }
        self.fingerprint().map(|_| ())
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobState {
    /// Accepted and waiting for a scheduler slot.
    Queued,
    /// Currently executing on the pool (or in-flight when the daemon
    /// died — re-queued on restart).
    Running,
    /// Stopped by admission control: the next iteration's projected cost
    /// would overdraw the tenant's budget. State is durably checkpointed;
    /// a budget top-up makes it runnable again.
    Paused,
    /// Ran to completion (terminal).
    Completed,
    /// Aborted by a backend/pipeline failure (terminal).
    Failed,
    /// Cancelled by request (terminal).
    Cancelled,
    /// Refused at admission: zero remaining tenant budget (terminal).
    Rejected,
}

impl JobState {
    /// Every state, in reporting order.
    pub const ALL: [JobState; 7] = [
        JobState::Queued,
        JobState::Running,
        JobState::Paused,
        JobState::Completed,
        JobState::Failed,
        JobState::Cancelled,
        JobState::Rejected,
    ];

    /// Stable wire name (protocol + registry field).
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Rejected => "rejected",
        }
    }

    /// Parse a wire name back into a state.
    pub fn parse(name: &str) -> Option<JobState> {
        JobState::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// Whether the job can never run again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled | JobState::Rejected
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One job's full current status, as the service reports it.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Cumulative exact nano-USD this job has billed (from its latest
    /// durable iteration snapshot; bit-identical across crash/resume).
    pub cost_nanousd: u128,
    /// Iterations durably completed so far.
    pub iterations: u64,
    /// `RunResult::digest()` once completed (0 until then).
    pub digest: u64,
    /// Human-readable detail for paused/failed/rejected states.
    pub message: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            id: 1,
            tenant: "acme".into(),
            dataset: "youtube".into(),
            config: "cot".into(),
            model: "gpt-3.5".into(),
            seed: 13,
            scale_bits: 0.1f64.to_bits(),
            queries: 4,
        }
    }

    #[test]
    fn job_state_names_round_trip() {
        for s in JobState::ALL {
            assert_eq!(JobState::parse(s.name()), Some(s));
        }
        assert_eq!(JobState::parse("nope"), None);
    }

    #[test]
    fn valid_spec_builds_a_fingerprint() {
        let s = spec();
        s.validate().expect("valid");
        let fp = s.fingerprint().expect("fingerprint");
        assert_eq!(fp.dataset, "youtube");
        assert_eq!(fp.config.num_queries, 4);
        assert_eq!(fp.config.threads, 1);
    }

    #[test]
    fn invalid_fields_are_rejected_with_reasons() {
        let mut s = spec();
        s.dataset = "nope".into();
        assert!(s.validate().unwrap_err().contains("unknown dataset"));
        let mut s = spec();
        s.model = "gpt-9".into();
        assert!(s.validate().unwrap_err().contains("unknown model"));
        let mut s = spec();
        s.config = "zen".into();
        assert!(s.validate().unwrap_err().contains("unknown config"));
        let mut s = spec();
        s.queries = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.scale_bits = 7.5f64.to_bits();
        assert!(s.validate().unwrap_err().contains("out of range"));
        let mut s = spec();
        s.tenant = String::new();
        assert!(s.validate().is_err());
    }

    #[test]
    fn same_spec_same_fingerprint_digest() {
        let a = spec().fingerprint().expect("fp").digest();
        let b = spec().fingerprint().expect("fp").digest();
        assert_eq!(a, b, "restart re-derives the identical fingerprint");
    }
}

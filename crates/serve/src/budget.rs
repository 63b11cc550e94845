//! Exact budget admission control.
//!
//! Every tenant has a nano-USD budget account (topped up by submits) and
//! a per-job committed-spend map. All arithmetic is exact integer
//! nano-USD on the same [`UsageLedger`](datasculpt_llm::UsageLedger)
//! figures the pipeline bills with — there is no float anywhere in an
//! admission decision.
//!
//! The control loop has two gates:
//!
//! * **Admission** (job start): a job is scheduled only while its tenant
//!   has remaining budget (`spent < budget`). A tenant at or over budget
//!   gets `job_reject_budget` for fresh submits and keeps paused jobs
//!   paused.
//! * **Continuation** ([`BudgetGate`], after every durably checkpointed
//!   iteration): the next iteration's projected cost — the job's exact
//!   running mean cost per iteration, rounded up — must fit in the
//!   tenant's remaining budget, or the job pauses. The pause happens
//!   *after* the iteration's checkpoint is on disk, so a paused job
//!   resumes bit-identically once the tenant is topped up.
//!
//! Overdraft bound: a tenant can exceed its budget by at most the cost
//! of one iteration per job beyond the last gate decision (the first
//! iteration of a fresh job has no history to project from). The bench
//! measures this bound empirically; `docs/serving.md` derives it.

use datasculpt_core::{CheckpointSink, IterationCheckpoint};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Gate-message prefix for a budget pause (classified out of
/// `PipelineError::Checkpoint` by the scheduler).
pub const PAUSE_PREFIX: &str = "budget-pause";
/// Gate-message prefix for a cancellation.
pub const CANCEL_PREFIX: &str = "cancelled";

/// One tenant's account.
#[derive(Debug, Clone, Default)]
pub struct TenantAccount {
    /// Total budget granted, exact nano-USD.
    pub budget_nanousd: u128,
    /// Committed cumulative spend per job (each entry is the job's latest
    /// durable snapshot cost, so crash-replay never double-counts: a
    /// replayed iteration re-commits the same cumulative figure).
    committed: BTreeMap<u64, u128>,
}

impl TenantAccount {
    /// Exact nano-USD spent across this tenant's jobs.
    pub fn spent_nanousd(&self) -> u128 {
        self.committed.values().sum()
    }

    /// Remaining budget (0 when overdrawn).
    pub fn remaining_nanousd(&self) -> u128 {
        self.budget_nanousd.saturating_sub(self.spent_nanousd())
    }

    /// One job's committed spend.
    pub fn job_spent_nanousd(&self, job: u64) -> u128 {
        self.committed.get(&job).copied().unwrap_or(0)
    }
}

/// All tenant accounts, keyed by tenant name (deterministic order).
#[derive(Debug, Clone, Default)]
pub struct TenantBook {
    accounts: BTreeMap<String, TenantAccount>,
}

impl TenantBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add budget to a tenant (creating the account at 0 spend).
    pub fn top_up(&mut self, tenant: &str, nanousd: u128) {
        let account = self.accounts.entry(tenant.to_string()).or_default();
        account.budget_nanousd = account.budget_nanousd.saturating_add(nanousd);
    }

    /// Commit a job's cumulative spend (monotone per job: a replayed
    /// snapshot can only re-state or extend what was already committed).
    pub fn commit(&mut self, tenant: &str, job: u64, cumulative_nanousd: u128) {
        let account = self.accounts.entry(tenant.to_string()).or_default();
        let entry = account.committed.entry(job).or_insert(0);
        *entry = (*entry).max(cumulative_nanousd);
    }

    /// A tenant's account (default-zero if never seen).
    pub fn account(&self, tenant: &str) -> TenantAccount {
        self.accounts.get(tenant).cloned().unwrap_or_default()
    }

    /// Every account, in deterministic tenant-name order.
    pub fn accounts(&self) -> impl Iterator<Item = (&str, &TenantAccount)> {
        self.accounts.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// Integer ceiling division (exact, no float).
fn ceil_div(num: u128, den: u128) -> u128 {
    if den == 0 {
        return num;
    }
    num / den + u128::from(!num.is_multiple_of(den))
}

/// The per-job continuation gate: a [`CheckpointSink`] the durable runner
/// consults after every checkpointed iteration (the `gate` of
/// [`datasculpt_store::run_durable`]).
#[derive(Debug, Clone)]
pub struct BudgetGate {
    tenant: String,
    job: u64,
    book: Arc<Mutex<TenantBook>>,
    cancel: Arc<AtomicBool>,
}

impl BudgetGate {
    /// Gate `job` (owned by `tenant`) against the shared book; `cancel`
    /// set from outside stops the job at its next durable iteration.
    pub fn new(
        tenant: &str,
        job: u64,
        book: Arc<Mutex<TenantBook>>,
        cancel: Arc<AtomicBool>,
    ) -> Self {
        BudgetGate {
            tenant: tenant.to_string(),
            job,
            book,
            cancel,
        }
    }

    /// Projected exact nano-USD for the next iteration, given the job's
    /// cumulative spend after `iterations` completed iterations: the
    /// running mean, rounded up. 0 iterations projects 0 (no history).
    pub fn projected_next_iteration(cumulative_nanousd: u128, iterations: u64) -> u128 {
        if iterations == 0 {
            return 0;
        }
        ceil_div(cumulative_nanousd, u128::from(iterations))
    }
}

impl CheckpointSink for BudgetGate {
    fn on_iteration(&mut self, snapshot: &IterationCheckpoint) -> Result<(), String> {
        let mut book = match self.book.lock() {
            Ok(b) => b,
            Err(poisoned) => poisoned.into_inner(),
        };
        book.commit(&self.tenant, self.job, snapshot.cost_nanousd);
        if self.cancel.load(Ordering::SeqCst) {
            return Err(format!("{CANCEL_PREFIX}: by request"));
        }
        let account = book.account(&self.tenant);
        let projected =
            Self::projected_next_iteration(snapshot.cost_nanousd, snapshot.iter.saturating_add(1));
        if projected > account.remaining_nanousd() {
            return Err(format!(
                "{PAUSE_PREFIX}: projected next-iteration cost {projected} nanoUSD exceeds \
                 tenant '{}' remaining budget {} (spent {} of {})",
                self.tenant,
                account.remaining_nanousd(),
                account.spent_nanousd(),
                account.budget_nanousd,
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(iter: u64, cost: u128) -> IterationCheckpoint {
        IterationCheckpoint {
            iter,
            state_digest: 0,
            lfs: 0,
            calls: 0,
            cost_nanousd: cost,
            failed: false,
        }
    }

    #[test]
    fn commit_is_monotone_and_replay_safe() {
        let mut book = TenantBook::new();
        book.top_up("a", 1000);
        book.commit("a", 1, 300);
        book.commit("a", 1, 100); // a crash-replay re-commits an earlier prefix
        assert_eq!(book.account("a").spent_nanousd(), 300, "never regresses");
        book.commit("a", 1, 450);
        book.commit("a", 2, 50);
        assert_eq!(book.account("a").spent_nanousd(), 500);
        assert_eq!(book.account("a").remaining_nanousd(), 500);
        assert_eq!(book.account("a").job_spent_nanousd(1), 450);
    }

    #[test]
    fn projection_is_exact_ceil_mean() {
        assert_eq!(BudgetGate::projected_next_iteration(0, 0), 0);
        assert_eq!(BudgetGate::projected_next_iteration(10, 3), 4); // ceil(10/3)
        assert_eq!(BudgetGate::projected_next_iteration(9, 3), 3);
        assert_eq!(
            BudgetGate::projected_next_iteration(u128::MAX, 1),
            u128::MAX
        );
    }

    #[test]
    fn gate_pauses_when_projection_overdraws() {
        let book = Arc::new(Mutex::new(TenantBook::new()));
        book.lock().unwrap().top_up("a", 250);
        let mut gate = BudgetGate::new("a", 1, book.clone(), Arc::new(AtomicBool::new(false)));

        // Iteration 0 cost 100: projection 100 <= remaining 150 → continue.
        gate.on_iteration(&snapshot(0, 100)).expect("continue");
        // Iteration 1 cumulative 200: projection 100 > remaining 50 → pause.
        let err = gate.on_iteration(&snapshot(1, 200)).unwrap_err();
        assert!(err.starts_with(PAUSE_PREFIX), "{err}");
        // Spend was committed before pausing: the book knows the 200.
        assert_eq!(book.lock().unwrap().account("a").spent_nanousd(), 200);

        // A top-up makes the same snapshot pass again (resume path).
        book.lock().unwrap().top_up("a", 1000);
        gate.on_iteration(&snapshot(1, 200)).expect("resumed");
    }

    #[test]
    fn gate_cancels_on_the_shared_flag() {
        let book = Arc::new(Mutex::new(TenantBook::new()));
        book.lock().unwrap().top_up("a", u128::MAX);
        let cancel = Arc::new(AtomicBool::new(false));
        let mut gate = BudgetGate::new("a", 1, book, cancel.clone());
        gate.on_iteration(&snapshot(0, 1)).expect("live");
        cancel.store(true, Ordering::SeqCst);
        let err = gate.on_iteration(&snapshot(1, 2)).unwrap_err();
        assert!(err.starts_with(CANCEL_PREFIX), "{err}");
    }
}

//! Traffic simulation for the multi-tenant labeling service, behind
//! `BENCH_serve.json` (schema `datasculpt-bench-serve/v1`).
//!
//! The workload models a fleet of tenants hitting one [`Service`]: each
//! tenant submits one job whose size (query count) is drawn from a
//! Zipfian distribution — most jobs are small, a few are large — against
//! the scripted simulated backend. Budgets are mixed on purpose:
//!
//! * a slice of tenants has **zero** budget (rejected at admission),
//! * a slice has a **shoestring** budget (admitted, then paused by the
//!   gate after its first billed iteration),
//! * the rest are amply funded and run to completion.
//!
//! The drain loop times every scheduling round through the obs
//! [`SystemClock`], yielding completed-job throughput and round-latency
//! percentiles; the budget audit then counts tenants whose committed
//! spend exceeds their submitted budget (the overdraft is bounded by one
//! iteration's cost per job — `docs/serving.md`) and the worst overdraft
//! in nano-USD.
//!
//! Consumers:
//!
//! * `src/bin/servebench.rs` — emits `BENCH_serve.json`.
//! * `scripts/bench.sh serve` — wraps it; `--check` mode runs a small
//!   fleet and validates the schema.

use crate::hotpath::peak_rss_kb;
use datasculpt::obs::hash::SplitMix64;
use datasculpt::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Plenty for any scaled-down job in this bench (one thousand dollars).
const AMPLE: u128 = 1_000_000_000_000;

/// Too little for even one iteration: admits, bills once, pauses.
const SHOESTRING: u128 = 1_000;

/// Dataset scale every job runs at (small on purpose: the bench measures
/// the service, not the pipeline).
const JOB_SCALE: f64 = 0.05;

/// Zipf support: job sizes in queries. `ZIPF_WEIGHTS[k]` ∝ 1/(k+1).
const JOB_QUERIES: [u64; 5] = [1, 2, 3, 4, 5];

/// Draw a Zipfian (s = 1) job size from [`JOB_QUERIES`]. SplitMix64 is
/// the bench's only randomness, fully determined by `seed`.
fn zipf_queries(rng: &mut SplitMix64) -> u64 {
    // Cumulative 1/(k+1) weights over the 5 sizes, scaled to integers:
    // 60/30/20/15/12 → cumulative 60, 90, 110, 125, 137.
    const CUM: [u64; 5] = [60, 90, 110, 125, 137];
    let draw = rng.next_u64() % 137;
    for (i, &edge) in CUM.iter().enumerate() {
        if draw < edge {
            return JOB_QUERIES.get(i).copied().unwrap_or(1);
        }
    }
    1
}

/// The budget a simulated tenant submits with. One tenant in 16 has no
/// budget at all, one in 16 has a shoestring budget; the rest are ample.
fn tenant_budget(index: usize) -> u128 {
    match index % 16 {
        0 => 0,
        1 => SHOESTRING,
        _ => AMPLE,
    }
}

/// The full serve-traffic report written as `BENCH_serve.json`.
#[derive(Debug)]
pub struct ServeReport {
    /// Simulated tenants (= submitted jobs).
    pub tenants: usize,
    /// Concurrent execution slots the service scheduled onto.
    pub slots: usize,
    /// Workload seed.
    pub seed: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs rejected at admission (zero remaining budget).
    pub rejected: u64,
    /// Jobs left paused by the budget gate (no top-up arrives).
    pub paused: u64,
    /// Scheduling rounds the drain loop ran.
    pub rounds: u64,
    /// Wall-clock nanoseconds for the whole drain.
    pub total_ns: u128,
    /// Median scheduling-round latency in nanoseconds.
    pub round_p50_ns: u128,
    /// 95th-percentile scheduling-round latency in nanoseconds.
    pub round_p95_ns: u128,
    /// Completed jobs per second, in milli-jobs (integer: 1500 = 1.5/s).
    pub jobs_per_sec_milli: u128,
    /// Tenants whose committed spend exceeds their submitted budget.
    pub budget_violation_tenants: u64,
    /// Worst per-tenant overdraft in nano-USD (bounded by one iteration's
    /// cost per job — the documented admission-control bound).
    pub max_overdraft_nanousd: u128,
    /// Exact global spend across the fleet in nano-USD.
    pub total_cost_nanousd: u128,
    /// Peak RSS of the benchmarking process in kB.
    pub peak_rss_kb: u64,
}

/// Run the traffic simulation: `tenants` one-job tenants over a fresh
/// service with `slots` slots, everything derived from `seed`.
pub fn run_report(tenants: usize, slots: usize, seed: u64) -> ServeReport {
    let tenants = tenants.max(1);
    let state = bench_state_dir(seed);
    let mut service = Service::open(
        &state,
        ServeConfig {
            slots: slots.max(1),
            checkpoint_every: 1,
        },
    )
    .expect("open bench service");

    // Submit the whole fleet up front: one job per tenant, Zipfian size.
    let mut rng = SplitMix64::new(seed ^ 0x00da_7a5c_u64);
    let mut budgets: BTreeMap<String, u128> = BTreeMap::new();
    for i in 0..tenants {
        let tenant = format!("tenant-{i:05}");
        let budget = tenant_budget(i);
        budgets.insert(tenant.clone(), budget);
        service
            .submit(JobRequest {
                tenant,
                dataset: "youtube".to_string(),
                config: "base".to_string(),
                model: "gpt-3.5".to_string(),
                seed: seed.wrapping_add(i as u64),
                scale_bits: JOB_SCALE.to_bits(),
                queries: zipf_queries(&mut rng),
                budget_nanousd: budget,
            })
            .expect("submit bench job");
    }

    // Drain round by round, timing each scheduling round.
    let mut clock = SystemClock::new();
    let t0 = clock.now_ns();
    let mut round_ns: Vec<u128> = Vec::new();
    let mut totals = RoundReport::default();
    while service.has_runnable() {
        let r0 = clock.now_ns();
        let round = service.run_round().expect("bench round");
        round_ns.push(u128::from(clock.now_ns().saturating_sub(r0)));
        totals.admitted += round.admitted;
        totals.rejected += round.rejected;
        totals.completed += round.completed;
        totals.paused += round.paused;
        totals.cancelled += round.cancelled;
        totals.failed += round.failed;
    }
    let total_ns = u128::from(clock.now_ns().saturating_sub(t0));

    // Budget audit: committed spend vs submitted budget, per tenant.
    let mut violations = 0u64;
    let mut max_overdraft = 0u128;
    for (tenant, &budget) in &budgets {
        let spent = service.tenant_account(tenant).spent_nanousd();
        if spent > budget {
            violations += 1;
            max_overdraft = max_overdraft.max(spent - budget);
        }
    }
    let total_cost_nanousd = service.global_ledger().total_cost_nanousd();

    round_ns.sort_unstable();
    let pct = |p: usize| -> u128 {
        if round_ns.is_empty() {
            return 0;
        }
        let idx = (round_ns.len() - 1) * p / 100;
        round_ns.get(idx).copied().unwrap_or(0)
    };
    let jobs_per_sec_milli = (u128::from(totals.completed) * 1_000 * 1_000_000_000)
        .checked_div(total_ns)
        .unwrap_or(0);

    std::fs::remove_dir_all(&state).ok();
    ServeReport {
        tenants,
        slots: slots.max(1),
        seed,
        completed: totals.completed,
        rejected: totals.rejected,
        // Without top-ups a job pauses at most once and never resumes, so
        // the per-round pause tally is the final paused population.
        paused: totals.paused,
        rounds: round_ns.len() as u64,
        total_ns,
        round_p50_ns: pct(50),
        round_p95_ns: pct(95),
        jobs_per_sec_milli,
        budget_violation_tenants: violations,
        max_overdraft_nanousd: max_overdraft,
        total_cost_nanousd,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// A fresh per-process state dir under the system temp dir.
fn bench_state_dir(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ds_servebench_{}_{seed}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

impl ServeReport {
    /// Render the report as the `datasculpt-bench-serve/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"datasculpt-bench-serve/v1\",\n");
        out.push_str(&format!("  \"tenants\": {},\n", self.tenants));
        out.push_str(&format!("  \"slots\": {},\n", self.slots));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"completed\": {},\n", self.completed));
        out.push_str(&format!("  \"rejected\": {},\n", self.rejected));
        out.push_str(&format!("  \"paused\": {},\n", self.paused));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        out.push_str(&format!("  \"total_ns\": {},\n", self.total_ns));
        out.push_str(&format!("  \"round_p50_ns\": {},\n", self.round_p50_ns));
        out.push_str(&format!("  \"round_p95_ns\": {},\n", self.round_p95_ns));
        out.push_str(&format!(
            "  \"jobs_per_sec_milli\": {},\n",
            self.jobs_per_sec_milli
        ));
        out.push_str(&format!(
            "  \"budget_violation_tenants\": {},\n",
            self.budget_violation_tenants
        ));
        out.push_str(&format!(
            "  \"max_overdraft_nanousd\": {},\n",
            self.max_overdraft_nanousd
        ));
        out.push_str(&format!(
            "  \"total_cost_nanousd\": {},\n",
            self.total_cost_nanousd
        ));
        out.push_str(&format!("  \"peak_rss_kb\": {}\n", self.peak_rss_kb));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draw_stays_in_support_and_skews_small() {
        let mut rng = SplitMix64::new(7);
        let mut counts = [0u64; 6];
        for _ in 0..1_000 {
            let q = zipf_queries(&mut rng) as usize;
            assert!((1..=5).contains(&q));
            if let Some(c) = counts.get_mut(q) {
                *c += 1;
            }
        }
        assert!(counts[1] > counts[5], "size 1 dominates size 5: {counts:?}");
    }

    #[test]
    fn first_draws_are_pinned() {
        // Every job size is a function of these draws, so a moved bit
        // silently changes what BENCH_serve measures.
        let mut rng = SplitMix64::new(1 ^ 0x00da_7a5c);
        let draws: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0x2c88_c654_9091_fea2,
                0x3d5f_8f20_9bc0_9a1f,
                0xa209_fc7c_77f8_aa7c,
                0x9dce_13ff_5b88_ff85
            ]
        );
    }

    #[test]
    fn small_fleet_report_partitions_jobs_and_flags_overdrafts() {
        let report = run_report(32, 4, 9);
        assert_eq!(
            report.completed + report.rejected + report.paused,
            report.tenants as u64,
            "{report:?}"
        );
        // 32 tenants → indices 0 and 16 unfunded, 1 and 17 shoestring.
        assert_eq!(report.rejected, 2, "{report:?}");
        assert_eq!(report.paused, 2, "{report:?}");
        // Only shoestring tenants can overdraw, by under one iteration.
        assert_eq!(report.budget_violation_tenants, 2, "{report:?}");
        assert!(report.max_overdraft_nanousd > 0);
        assert!(report.total_cost_nanousd > 0);
        assert!(report.rounds >= 1);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"datasculpt-bench-serve/v1\""));
        assert!(json.contains("\"jobs_per_sec_milli\""));
        assert!(json.contains("\"budget_violation_tenants\""));
        assert!(json.contains("\"peak_rss_kb\""));
    }
}

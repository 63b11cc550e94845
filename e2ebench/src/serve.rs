//! `serve-backlog`: an in-process [`Service`] (the daemon's engine, no
//! socket) draining a queued backlog of tenant jobs, then a top-up wave
//! that lets the paused shoestring jobs resume.
//!
//! The backlog is a closed loop: every job is queued before the first
//! round, and each round starts when the previous one returns. Its shape
//! is fixed and only its order and dataset seeds come from the workload
//! seed: job sizes follow an exact Zipf split over 1..=`MAX_QUERIES`
//! queries, three jobs in four land on four popular (dataset, seed,
//! scale) keys (themselves Zipf-weighted) and the rest on unique keys,
//! and tenant `i` has a zero budget when `i % 16 == 0`, a shoestring one
//! when `i % 16 == 1`, and an ample one otherwise.

use crate::probe::{LlmTally, ModelSpan, StageTimer, TimedModel};
use crate::pws::{dominant, fill_llm, fill_trace, ratio};
use crate::report::{median, quantile, repeat_for, secs, timed_setup, Report};
use crate::{work_dir, Opts};
use datasculpt::obs::{Counter, Event, RunObserver, SharedObserver};
use datasculpt::prelude::*;
use datasculpt::serve::{
    BackendFactory, JobRequest, JobState, RoundReport, ServeConfig, ServeError, Service,
};
use datasculpt::text::rng::derive_seed;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Concurrent job slots (and pool threads).
const SLOTS: usize = 2;
/// Dataset scale every job runs at. Smaller jobs sync to disk more often
/// per second of work, and on a virtual disk that cost comes back as
/// stolen CPU time and a wall time that swings by tens of percent.
const JOB_SCALE: f64 = 0.5;
/// Wave-one jobs per pass (one per tenant).
const JOBS: usize = 1000;
/// Wave-one jobs in smoke mode.
const SMOKE_JOBS: usize = 48;
/// Job sizes are Zipf over 1..=MAX_QUERIES query iterations.
const MAX_QUERIES: usize = 8;
/// Popular keys; three jobs in four use one of them.
const POPULAR_KEYS: usize = 4;
/// Plenty for any job here (one thousand dollars).
const AMPLE: u128 = 1_000_000_000_000;
/// Less than any single iteration: admitted, billed once, paused.
const SHOESTRING: u128 = 1_000;
/// `Service::open` + backlog generation per run; `setup_s` is the median.
const SETUP_REPS: usize = 25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Budget {
    Zero,
    Shoestring,
    Ample,
}

impl Budget {
    fn of_tenant(i: usize) -> Budget {
        match i % 16 {
            0 => Budget::Zero,
            1 => Budget::Shoestring,
            _ => Budget::Ample,
        }
    }

    fn nanousd(self) -> u128 {
        match self {
            Budget::Zero => 0,
            Budget::Shoestring => SHOESTRING,
            Budget::Ample => AMPLE,
        }
    }
}

/// Fisher–Yates shuffle driven by `derive_seed`: the order is a pure
/// function of `(seed, stream)`.
fn shuffle<T>(items: &mut [T], seed: u64, stream: u64) {
    let base = derive_seed(seed, stream);
    for i in (1..items.len()).rev() {
        let j = (derive_seed(base, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// `total` split over `support` values by weights 1/k, exactly.
fn zipf_counts(total: usize, support: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=support).map(|k| 1.0 / k as f64).collect();
    let sum: f64 = weights.iter().sum();
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|w| (total as f64 * w / sum).floor() as usize)
        .collect();
    let left = total - counts.iter().sum::<usize>();
    for k in 0..left {
        counts[k % support] += 1;
    }
    counts
}

/// The generated inputs: the wave-one requests and the top-up wave.
struct Backlog {
    wave1: Vec<JobRequest>,
    classes: Vec<Budget>,
    topups: Vec<JobRequest>,
}

impl Backlog {
    fn new(seed: u64, jobs: usize) -> Backlog {
        let key_seed = |k: u64| seed.wrapping_mul(1_000_000).wrapping_add(k);
        let dataset = |k: usize| {
            if k.is_multiple_of(2) {
                "youtube"
            } else {
                "sms"
            }
        };

        let mut sizes: Vec<u64> = zipf_counts(jobs, MAX_QUERIES)
            .iter()
            .enumerate()
            .flat_map(|(k, &n)| std::iter::repeat_n(k as u64 + 1, n))
            .collect();
        let popular = jobs * 3 / 4;
        // Key k < POPULAR_KEYS is popular; the tail gets one key per job.
        let mut keys: Vec<usize> = zipf_counts(popular, POPULAR_KEYS)
            .iter()
            .enumerate()
            .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
            .chain(POPULAR_KEYS..POPULAR_KEYS + jobs - popular)
            .collect();
        shuffle(&mut sizes, seed, 1);
        shuffle(&mut keys, seed, 2);

        let request = |tenant: String, key: usize, queries: u64, budget: u128| JobRequest {
            tenant,
            dataset: dataset(key).to_string(),
            config: "base".to_string(),
            model: "gpt-3.5".to_string(),
            seed: key_seed(key as u64),
            scale_bits: JOB_SCALE.to_bits(),
            queries,
            budget_nanousd: budget,
        };
        let mut wave1 = Vec::with_capacity(jobs);
        let mut classes = Vec::with_capacity(jobs);
        let mut topups = Vec::new();
        for (i, (&queries, &key)) in sizes.iter().zip(&keys).enumerate() {
            let class = Budget::of_tenant(i);
            let tenant = format!("tenant-{i:05}");
            if class == Budget::Shoestring {
                topups.push(request(tenant.clone(), 0, 1, AMPLE));
            }
            wave1.push(request(tenant, key, queries, class.nanousd()));
            classes.push(class);
        }
        Backlog {
            wave1,
            classes,
            topups,
        }
    }

    fn requests(&self) -> impl Iterator<Item = &JobRequest> {
        self.wave1.iter().chain(&self.topups)
    }

    /// Share of jobs whose (dataset, seed, scale) key appeared earlier.
    fn key_share(&self) -> f64 {
        let mut seen = BTreeSet::new();
        let mut repeats = 0u64;
        let mut total = 0u64;
        for req in self.requests() {
            total += 1;
            if !seen.insert((req.dataset.clone(), req.seed, req.scale_bits)) {
                repeats += 1;
            }
        }
        ratio(repeats, total)
    }
}

/// A service over a fresh state directory under the work directory. The
/// directories stay until the process exits and the work directory is
/// removed, so no pass pays for deleting an earlier pass's files.
fn open_service() -> Result<Service, ServeError> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let config = ServeConfig {
        slots: SLOTS,
        checkpoint_every: 1,
    };
    Service::open(&work_dir().join(format!("serve-{n}")), config)
}

/// What the traced unit attaches: the backend wrapper's tallies and spans,
/// and the service's event stream.
struct Tracing {
    tally: Arc<LlmTally>,
    spans: Arc<Mutex<Vec<ModelSpan>>>,
    events: Arc<Mutex<StageTimer>>,
}

struct SharedTimer(Arc<Mutex<StageTimer>>);

impl RunObserver for SharedTimer {
    fn on_event(&mut self, event: &Event) {
        if let Ok(mut t) = self.0.lock() {
            t.on_event(event);
        }
    }
}

impl Tracing {
    fn new() -> Tracing {
        Tracing {
            tally: Arc::new(LlmTally::default()),
            spans: Arc::new(Mutex::new(Vec::new())),
            events: Arc::new(Mutex::new(StageTimer::default())),
        }
    }

    /// The backend `Service::open` installs by default (the simulated
    /// model, seeded by the job) behind a [`TimedModel`], plus the event
    /// listener. Comparing job digests with the untraced pass checks that
    /// the two backends agree.
    fn attach(&self, service: Service) -> Service {
        let tally = self.tally.clone();
        let spans = self.spans.clone();
        let factory: BackendFactory = Arc::new(move |spec, dataset| {
            let model = spec.model_id().unwrap_or(ModelId::Gpt35Turbo);
            let llm = SimulatedLlm::new(model, dataset.generative.clone(), spec.seed);
            Box::new(
                TimedModel::new(llm, tally.clone())
                    .parsing(dataset.n_classes())
                    .spanned(spec.id, spans.clone()),
            )
        });
        service
            .with_backend_factory(factory)
            .with_observer(SharedObserver::new(SharedTimer(self.events.clone())))
    }
}

/// What one drained backlog produced.
struct Unit {
    wall_s: f64,
    submit_s: f64,
    rounds: Vec<(Instant, Instant)>,
    totals: RoundReport,
    /// When each job was submitted, by job id.
    submitted: BTreeMap<u64, Instant>,
    /// After wave one, one entry per shoestring tenant.
    overdrafts: Vec<Overdraft>,
    paused_after_wave1: BTreeSet<u64>,
    error: Option<String>,
}

/// A shoestring tenant after wave one: spend above budget, and its one
/// job's state, cost and iterations at that moment.
struct Overdraft {
    tenant: String,
    nanousd: u128,
    job: u64,
    state: Option<JobState>,
    job_cost: u128,
    job_iterations: u64,
}

fn absorb(total: &mut RoundReport, r: RoundReport) {
    total.admitted += r.admitted;
    total.rejected += r.rejected;
    total.completed += r.completed;
    total.paused += r.paused;
    total.cancelled += r.cancelled;
    total.failed += r.failed;
}

/// Submit a wave, then run rounds until nothing is runnable.
fn wave(service: &mut Service, requests: &[JobRequest], u: &mut Unit) -> Result<(), ServeError> {
    for req in requests {
        let t = Instant::now();
        let status = service.submit(req.clone())?;
        u.submit_s += secs(t);
        u.submitted.insert(status.spec.id, t);
    }
    while service.has_runnable() {
        let r0 = Instant::now();
        let report = service.run_round()?;
        u.rounds.push((r0, Instant::now()));
        absorb(&mut u.totals, report);
    }
    Ok(())
}

fn run_unit(service: &mut Service, backlog: &Backlog) -> Unit {
    let mut u = Unit {
        wall_s: 0.0,
        submit_s: 0.0,
        rounds: Vec::new(),
        totals: RoundReport::default(),
        submitted: BTreeMap::new(),
        overdrafts: Vec::new(),
        paused_after_wave1: BTreeSet::new(),
        error: None,
    };
    let t0 = Instant::now();
    let mut result = wave(service, &backlog.wave1, &mut u);
    if result.is_ok() {
        for (i, req) in backlog.wave1.iter().enumerate() {
            if backlog.classes[i] != Budget::Shoestring {
                continue;
            }
            let acct = service.tenant_account(&req.tenant);
            let job = i as u64 + 1;
            let status = service.status(job);
            u.overdrafts.push(Overdraft {
                tenant: req.tenant.clone(),
                nanousd: acct.spent_nanousd().saturating_sub(acct.budget_nanousd),
                job,
                state: status.map(|s| s.state),
                job_cost: status.map_or(0, |s| s.cost_nanousd),
                job_iterations: status.map_or(0, |s| s.iterations),
            });
        }
        u.paused_after_wave1 = service
            .jobs()
            .filter(|s| s.state == JobState::Paused)
            .map(|s| s.spec.id)
            .collect();
        result = wave(service, &backlog.topups, &mut u);
    }
    u.wall_s = secs(t0);
    u.error = result.err().map(|e| e.to_string());
    u
}

/// Output checks for one drained backlog; returns whether each job (in id
/// order) passed, and whether the backlog-wide checks passed.
fn check_unit(r: &mut Report, service: &Service, backlog: &Backlog, u: &Unit) -> (Vec<bool>, bool) {
    let mut global = r.check(
        u.error.is_none(),
        format!("serve-backlog: no service error ({:?})", u.error),
    );
    let jobs: Vec<_> = service.jobs().collect();
    let submitted = backlog.wave1.len() + backlog.topups.len();
    global &= r.check(
        jobs.len() == submitted,
        format!("serve-backlog: {} of {submitted} jobs recorded", jobs.len()),
    );
    let count = |s: JobState| jobs.iter().filter(|j| j.state == s).count();
    let (completed, rejected, paused) = (
        count(JobState::Completed),
        count(JobState::Rejected),
        count(JobState::Paused),
    );
    global &= r.check(
        completed + rejected + paused == submitted,
        format!("serve-backlog: completed {completed} + rejected {rejected} + paused {paused} = submitted {submitted}"),
    );
    global &= r.check(
        count(JobState::Queued) + count(JobState::Running) == 0,
        "serve-backlog: no job left queued or running",
    );

    let global_ledger = service.global_ledger();
    let tenant_ledgers = service.tenant_ledgers();
    let tenant_cost: u128 = tenant_ledgers
        .values()
        .map(|l| l.total_cost_nanousd())
        .sum();
    let tenant_calls: u64 = tenant_ledgers.values().map(|l| l.calls()).sum();
    global &= r.check(
        tenant_cost == global_ledger.total_cost_nanousd() && tenant_calls == global_ledger.calls(),
        format!(
            "serve-backlog: tenant ledgers sum to the global ledger ({tenant_cost} vs {} nano-USD)",
            global_ledger.total_cost_nanousd()
        ),
    );

    // After wave one every shoestring tenant's only job is paused after
    // exactly one billed iteration, and the tenant is overdrawn by less
    // than that iteration's cost.
    for o in &u.overdrafts {
        global &= r.check(
            o.state == Some(JobState::Paused)
                && o.job_iterations == 1
                && o.nanousd > 0
                && o.nanousd <= o.job_cost,
            format!(
                "serve-backlog: {} overdrew {} nano-USD; its job {} is {:?} after {} iteration(s) costing {}",
                o.tenant, o.nanousd, o.job, o.state, o.job_iterations, o.job_cost
            ),
        );
    }

    let mut per_job = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let id = job.spec.id as usize;
        let zero = id <= backlog.wave1.len() && backlog.classes[id - 1] == Budget::Zero;
        let ok = if zero {
            job.state == JobState::Rejected && job.cost_nanousd == 0
        } else {
            job.state == JobState::Completed
                && job.iterations == job.spec.queries
                && service
                    .job_ledger(job.spec.id)
                    .is_some_and(|l| l.total_cost_nanousd() == job.cost_nanousd)
        };
        per_job.push(ok);
    }
    let bad = per_job.iter().filter(|ok| !**ok).count();
    r.check(
        bad == 0,
        format!("serve-backlog: {bad} jobs ended in the wrong state or with a mismatched ledger"),
    );
    (per_job, global)
}

/// One drained backlog with its checks done.
struct Drained {
    unit: Unit,
    jobs: Vec<(u64, JobState, u64, u128)>,
    per_job: Vec<bool>,
    global: bool,
    cost_nanousd: u128,
    calls: u64,
}

fn drain_backlog(
    r: &mut Report,
    service: Service,
    backlog: &Backlog,
    tracing: Option<&Tracing>,
) -> Drained {
    let mut service = match tracing {
        Some(t) => t.attach(service),
        None => service,
    };
    let unit = run_unit(&mut service, backlog);
    let (per_job, global) = check_unit(r, &service, backlog, &unit);
    let ledger = service.global_ledger();
    let jobs = service
        .jobs()
        .map(|s| (s.spec.id, s.state, s.digest, s.cost_nanousd))
        .collect();
    Drained {
        unit,
        jobs,
        per_job,
        global,
        cost_nanousd: ledger.total_cost_nanousd(),
        calls: ledger.calls(),
    }
}

fn count_operations(r: &mut Report, d: &Drained, same: bool) {
    for ok in &d.per_job {
        r.operation(*ok && d.global && same);
    }
}

pub fn serve_backlog(opts: &Opts) -> Report {
    let mut r = Report::default();
    let jobs = if opts.smoke { SMOKE_JOBS } else { JOBS };
    let (first, setup_s) = timed_setup(SETUP_REPS, || {
        Ok::<_, ServeError>((Backlog::new(opts.seed, jobs), open_service()?))
    });
    r.real("setup_s", "s", setup_s);
    let (backlog, mut opened) = match first {
        Ok((backlog, opened)) => (backlog, Some(opened)),
        Err(e) => {
            r.check(false, format!("serve-backlog: Service::open failed: {e}"));
            r.operation(false);
            return r;
        }
    };
    r.note(format!(
        "serve-backlog: {} wave-one jobs + {} top-ups, {SLOTS} slots, scale {JOB_SCALE}, seed {}",
        backlog.wave1.len(),
        backlog.topups.len(),
        opts.seed
    ));
    // The first drain uses the service set up above; later ones open their
    // own (untimed) before their clock starts.
    let mut drain = |r: &mut Report, tracing: Option<&Tracing>| -> Option<Drained> {
        match opened.take().map_or_else(open_service, Ok) {
            Ok(o) => Some(drain_backlog(r, o, &backlog, tracing)),
            Err(e) => {
                r.check(false, format!("serve-backlog: Service::open failed: {e}"));
                r.operation(false);
                None
            }
        }
    };

    if !opts.trace {
        let drained: Vec<Drained> = repeat_for(opts.seconds, || drain(&mut r, None))
            .into_iter()
            .flatten()
            .collect();
        let Some(first) = drained.first() else {
            return r;
        };
        let first_jobs = first.jobs.clone();
        for d in &drained {
            let same = r.check(
                d.jobs == first_jobs,
                "serve-backlog: repeated passes are identical",
            );
            count_operations(&mut r, d, same);
        }
        let walls: Vec<f64> = drained.iter().map(|d| d.unit.wall_s).collect();
        r.note(format!(
            "serve-backlog: {} timed pass(es), wall times {walls:?} s",
            walls.len()
        ));
        let overdraft = drained[0]
            .unit
            .overdrafts
            .iter()
            .map(|o| o.nanousd)
            .max()
            .unwrap_or(0);
        r.note(format!(
            "serve-backlog: overdraft_nanousd {overdraft} (job latencies: run with --trace 1)"
        ));
        r.real("wall_s", "s", median(&walls));
        r.exact("llm_cost_nanousd", "nanousd", drained[0].cost_nanousd);
        return r;
    }

    let plain = drain(&mut r, None);
    let tracing = Tracing::new();
    let traced = drain(&mut r, Some(&tracing));
    let (Some(plain), Some(traced)) = (plain, traced) else {
        return r;
    };
    let same = r.check(
        plain.jobs == traced.jobs,
        "serve-backlog: untraced and traced passes give every job the same state, digest and cost",
    );
    let probes_agree = traced_metrics(&mut r, &backlog, plain.unit.wall_s, &traced, &tracing);
    count_operations(&mut r, &plain, true);
    count_operations(&mut r, &traced, same && probes_agree);
    r
}

/// Job latency (submit → `job` span end, completed jobs only) and
/// overdraft figures of the traced pass.
fn note_jobs(r: &mut Report, u: &Unit, events: &StageTimer, completed: &BTreeSet<u64>) {
    let latencies: Vec<f64> = events
        .job_ends()
        .iter()
        .filter(|(id, _)| completed.contains(id))
        .filter_map(|(id, end)| u.submitted.get(id).map(|t| (*end - *t).as_secs_f64()))
        .collect();
    let overdraft = u.overdrafts.iter().map(|o| o.nanousd).max().unwrap_or(0);
    r.note(format!(
        "serve-backlog: job_p50_s {:.4} s, job_p99_s {:.4} s over {} completed jobs; overdraft_nanousd {overdraft}",
        median(&latencies),
        quantile(&latencies, 0.99),
        latencies.len()
    ));
    r.real("serve.job_p50_s", "s", median(&latencies));
    r.real("serve.job_p99_s", "s", quantile(&latencies, 0.99));
    r.exact("serve.job_samples", "count", latencies.len() as u128);
    r.exact("serve.overdraft_nanousd", "nanousd", overdraft);
}

/// Sum, over rounds, of the span from the first job's backend creation to
/// the last job's backend drop: the time the pool ran jobs.
fn exec_span_s(rounds: &[(Instant, Instant)], spans: &[ModelSpan]) -> f64 {
    let mut total = 0.0;
    for (r0, r1) in rounds {
        let inside = spans
            .iter()
            .filter(|s| s.created >= *r0 && s.created <= *r1);
        let first = inside.clone().map(|s| s.created).min();
        let last = inside.map(|s| s.dropped).max();
        if let (Some(a), Some(b)) = (first, last) {
            total += (b - a).as_secs_f64();
        }
    }
    total
}

/// Per-layer metrics of the traced pass; returns whether the checks that
/// only the probes make possible passed.
fn traced_metrics(
    r: &mut Report,
    backlog: &Backlog,
    plain_wall_s: f64,
    traced: &Drained,
    tracing: &Tracing,
) -> bool {
    let mut ok = true;
    let u = &traced.unit;
    let spans: Vec<ModelSpan> = tracing.spans.lock().map(|s| s.clone()).unwrap_or_default();
    let tally = &tracing.tally;

    // Data: the dataset generations the service's cache misses ran,
    // replayed once per distinct key.
    let keys: BTreeSet<(String, u64, u64)> = backlog
        .requests()
        .map(|q| (q.dataset.clone(), q.seed, q.scale_bits))
        .collect();
    let t = Instant::now();
    for (name, seed, bits) in &keys {
        if let Some(d) = DatasetName::parse(name) {
            std::hint::black_box(d.load_scaled(*seed, f64::from_bits(*bits)));
        }
    }
    r.real("data.generate_s", "s", secs(t));

    // Worker time inside jobs: backend creation → first call (store open,
    // replay, context build, first select and prompt), the calls, and the
    // rest (iterations, store appends and checkpoints).
    let job_s: f64 = spans
        .iter()
        .map(|s| (s.dropped - s.created).as_secs_f64())
        .sum();
    let context_s: f64 = spans
        .iter()
        .filter_map(|s| s.first_call.map(|f| (f - s.created).as_secs_f64()))
        .sum();
    let busy = tally.busy_s();
    r.real("core.context_s", "s", context_s);
    fill_llm(r, tally, tally.unusable());
    r.real("serve.job_s", "s", job_s);
    r.real("serve.job_rest_s", "s", job_s - context_s - busy);

    // The traced backend saw every overdrawn job's calls: the overdraft
    // is within that job's largest single call.
    for o in &u.overdrafts {
        let largest = spans
            .iter()
            .filter(|s| s.id == o.job)
            .map(|s| s.max_call_nanousd)
            .max()
            .unwrap_or(0);
        ok &= r.check(
            o.nanousd <= largest,
            format!(
                "serve-backlog: {} overdraft {} <= largest call of job {} ({largest})",
                o.tenant, o.nanousd, o.job
            ),
        );
    }
    // Each billed call reached the backend once (and was appended once);
    // resumed jobs read their earlier iterations back from disk.
    let appends = tally.calls();
    let replays = tally.replayed();
    ok &= r.check(
        appends == traced.calls,
        format!(
            "serve-backlog: {appends} backend calls = {} billed calls (none billed twice)",
            traced.calls
        ),
    );
    r.exact("store.appends", "count", appends.into());
    r.exact("store.replays", "count", replays.into());
    r.real("store.replay_ratio", "ratio", ratio(replays, traced.calls));

    let round_times: Vec<f64> = u
        .rounds
        .iter()
        .map(|(a, b)| (*b - *a).as_secs_f64())
        .collect();
    let round_s: f64 = round_times.iter().sum();
    let exec_s = exec_span_s(&u.rounds, &spans);
    r.real("serve.submit_s", "s", u.submit_s);
    r.real("serve.round_s", "s", round_s);
    r.real("serve.round_p50_s", "s", median(&round_times));
    r.real("serve.round_p90_s", "s", quantile(&round_times, 0.9));
    r.exact("serve.rounds", "count", round_times.len() as u128);
    r.real("serve.exec_s", "s", exec_s);
    r.real("serve.sched_s", "s", round_s - exec_s);
    let t = u.totals;
    r.exact("serve.admitted", "count", t.admitted.into());
    r.exact("serve.rejected", "count", t.rejected.into());
    r.exact("serve.paused", "count", t.paused.into());
    r.exact("serve.completed", "count", t.completed.into());
    let resumed = traced
        .jobs
        .iter()
        .filter(|j| j.1 == JobState::Completed && u.paused_after_wave1.contains(&j.0))
        .count();
    r.exact("serve.resumed", "count", resumed as u128);
    r.real("serve.key_share", "ratio", backlog.key_share());
    let completed: BTreeSet<u64> = traced
        .jobs
        .iter()
        .filter(|j| j.1 == JobState::Completed)
        .map(|j| j.0)
        .collect();
    if let Ok(events) = tracing.events.lock() {
        let agree = events.counter(Counter::JobAdmit) == t.admitted
            && events.counter(Counter::JobRejectBudget) == t.rejected
            && events.counter(Counter::JobPause) == t.paused
            && events.counter(Counter::JobComplete) == t.completed;
        ok &= r.check(
            agree,
            "serve-backlog: job_* counters agree with the round reports",
        );
        note_jobs(r, u, &events, &completed);
    }
    r.exact("exec.threads", "count", SLOTS as u128);

    fill_trace(
        r,
        plain_wall_s,
        u.wall_s,
        &["serve.submit_s", "serve.round_s"],
    );
    // Wall-time shares of the pool's job execution, split by worker time.
    let share = |x: f64| if job_s > 0.0 { exec_s * x / job_s } else { 0.0 };
    dominant(
        r,
        u.wall_s,
        &["serve.sched_s", "serve.job_rest_s"],
        vec![
            ("serve.submit_s", u.submit_s),
            ("serve.sched_s", round_s - exec_s),
            ("serve.job_rest_s", share(job_s - context_s - busy)),
            ("core.context_s", share(context_s)),
            ("llm.busy_s", share(busy)),
        ],
    );
    ok
}

//! End-to-end benchmark of the DataSculpt workspace.
//!
//! Runs one workload through the public API, checks its outputs, and
//! prints every metric by name with its unit, then (last line of
//! standard output) one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload agnews-sc|promptedlf|serve-backlog \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- --smoke
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no probe attached.
//! `--trace 1` runs the workload untraced, then again with the probes of
//! `probe.rs` attached, and reports the per-layer metrics. `--smoke` runs
//! all three workloads at small scale in both modes and checks that every
//! metric is printed with its unit and every output check passes. See
//! `README.md` for the workloads, metrics and steadiness record.

mod probe;
mod pws;
mod report;
mod serve;

use report::{peak_rss_mb, Report};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics (`--trace 0`), as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("llm_cost_nanousd", "nanousd"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics (`--trace 1`), as listed in `BENCHMARK.json`. A
/// layer a workload does not run reports 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("data.generate_s", "s"),
    ("core.context_s", "s"),
    ("core.select_s", "s"),
    ("core.prompt_s", "s"),
    ("core.generate_s", "s"),
    ("core.integrate_s", "s"),
    ("core.lf_offered", "count"),
    ("core.lf_accepted", "count"),
    ("core.accept_ratio", "ratio"),
    ("core.eval_s", "s"),
    ("core.eval_rest_s", "s"),
    ("labelmodel.fit_s", "s"),
    ("labelmodel.cols", "count"),
    ("labelmodel.votes", "count"),
    ("text.tfidf_s", "s"),
    ("endmodel.fit_s", "s"),
    ("endmodel.rows", "count"),
    ("endmodel.test_metric", "ratio"),
    ("llm.calls", "count"),
    ("llm.busy_s", "s"),
    ("llm.us_per_call", "us"),
    ("llm.prompt_tokens", "count"),
    ("llm.completion_tokens", "count"),
    ("llm.parse_fail_ratio", "ratio"),
    ("baselines.annotate_s", "s"),
    ("store.appends", "count"),
    ("store.replays", "count"),
    ("store.replay_ratio", "ratio"),
    ("serve.submit_s", "s"),
    ("serve.round_s", "s"),
    ("serve.round_p50_s", "s"),
    ("serve.round_p90_s", "s"),
    ("serve.rounds", "count"),
    ("serve.sched_s", "s"),
    ("serve.exec_s", "s"),
    ("serve.job_s", "s"),
    ("serve.job_rest_s", "s"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.paused", "count"),
    ("serve.resumed", "count"),
    ("serve.completed", "count"),
    ("serve.key_share", "ratio"),
    ("serve.job_p50_s", "s"),
    ("serve.job_p99_s", "s"),
    ("serve.job_samples", "count"),
    ("serve.overdraft_nanousd", "nanousd"),
    ("exec.threads", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.other_s", "s"),
];

const WORKLOADS: [&str; 3] = ["agnews-sc", "promptedlf", "serve-backlog"];

/// How one workload runs.
pub struct Opts {
    pub seed: u64,
    /// Repeat the timed part until this many seconds have passed.
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs, for the smoke mode.
    pub smoke: bool,
}

/// Scratch space for this process (service state directories), inside
/// the benchmark's own directory; removed when the run ends.
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(std::process::id().to_string())
}

struct WorkDirGuard;

impl Drop for WorkDirGuard {
    fn drop(&mut self) {
        let dir = work_dir();
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(parent) = dir.parent() {
            // Only succeeds when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run_workload(name: &str, opts: &Opts) -> Report {
    let mut r = match name {
        "agnews-sc" => pws::agnews_sc(opts),
        "promptedlf" => pws::promptedlf(opts),
        _ => serve::serve_backlog(opts),
    };
    r.real("peak_rss_mb", "MB", peak_rss_mb());
    let share = r.ok_share();
    r.real("ok_share", "ratio", share);
    let wanted: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for &(metric, unit) in wanted {
        match r.metrics.iter().find(|m| m.name == metric) {
            Some(m) => {
                let same = m.unit == unit;
                r.check(
                    same,
                    format!("{metric} is reported in {unit}, not {}", m.unit),
                );
            }
            None if opts.trace => r.real(metric, unit, 0.0),
            None => {
                r.check(false, format!("{metric} was not measured"));
            }
        }
    }
    r
}

fn names(list: &[(&'static str, &'static str)]) -> Vec<&'static str> {
    list.iter().map(|(n, _)| *n).collect()
}

/// The `"name": …, "unit": …` pairs listed in `BENCHMARK.json`.
fn benchmark_json_metrics() -> Option<Vec<(String, String)>> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).ok()?;
    let field = |s: &str, key: &str| -> Option<String> {
        let at = s.find(&format!("\"{key}\""))?;
        let rest = &s[at + key.len() + 2..];
        let open = rest.find('"')?;
        let rest = &rest[open + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    Some(
        text.lines()
            .filter(|l| l.contains("\"unit\""))
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect(),
    )
}

/// All three workloads, small, in both modes: every metric printed with
/// its unit, every check passed, and `BENCHMARK.json` naming the same
/// metrics.
fn smoke(seed: u64) -> ExitCode {
    let mut failures = Vec::new();
    for name in WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                seed,
                seconds: 0.0,
                trace,
                smoke: true,
            };
            let r = run_workload(name, &opts);
            r.print_table(&format!("{name} (smoke, trace {})", u8::from(trace)));
            let wanted = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            println!("{}", r.json_line(&names(wanted)));
            if !r.correct() {
                failures.push(format!("{name} trace {}: checks failed", u8::from(trace)));
            }
        }
    }
    let listed = benchmark_json_metrics().unwrap_or_default();
    let expected: Vec<(String, String)> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    if listed != expected {
        failures.push(format!(
            "BENCHMARK.json lists {} metrics that differ from the {} this benchmark reports",
            listed.len(),
            expected.len()
        ));
    }
    if failures.is_empty() {
        println!("smoke: all workloads, metrics and checks ok");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            println!("smoke FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage: datasculpt-e2ebench --workload agnews-sc|promptedlf|serve-backlog \
[--seed N] [--seconds S] [--trace 0|1]\n       datasculpt-e2ebench --smoke [--seed N]";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        smoke: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--smoke" {
            opts.smoke = true;
            i += 1;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        let Some(value) = args.get(i + 1) else {
            return usage_error(&format!("{flag} needs a value"));
        };
        let parsed = match flag {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .map(|s| opts.seconds = s)
                .is_some(),
            "--trace" if value == "0" || value == "1" => {
                opts.trace = value == "1";
                true
            }
            _ => false,
        };
        if !parsed {
            return usage_error(&format!("bad argument {flag} {value}"));
        }
        i += 2;
    }

    let _cleanup = WorkDirGuard;
    if opts.smoke {
        return smoke(opts.seed);
    }
    let Some(name) = workload else {
        return usage_error("--workload is required");
    };
    let r = run_workload(&name, &opts);
    r.print_table(&format!(
        "{name} (seed {}, trace {})",
        opts.seed,
        u8::from(opts.trace)
    ));
    let wanted = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!("{}", r.json_line(&names(wanted)));
    ExitCode::SUCCESS
}

//! Hot-path kernel timing report: `BENCH_hotpath.json`.
//!
//! Times the columnar kernels (gram-index build, indexed LF apply, MeTaL
//! E-step, hashed TF-IDF) next to their pre-refactor row-major baselines,
//! plus the sparse end-model fit, and writes the
//! `datasculpt-bench-hotpath/v1` JSON document (schema: `docs/perf.md`).
//! Run through `scripts/bench.sh`, which also validates the output;
//! `--check` is the one-iteration smoke mode wired into `scripts/check.sh`.
//!
//! Flags:
//!
//! * `--check` — quick mode: small dataset slice, one iteration per
//!   kernel (schema smoke test, timings meaningless).
//! * `--out <path>` — output path (default `BENCH_hotpath.json`).
//! * `--dataset <name>` — dataset (default `agnews`, the largest).
//! * `--scale <f>` — dataset scale factor (default 1.0).
//! * `--iters <n>` — timed iterations per kernel (default 5).

// Experiment driver, not a library: aborting on a malformed spec is correct.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use datasculpt::prelude::DatasetName;
use datasculpt_bench::hotpath::run_report;

fn main() {
    let mut out = "BENCH_hotpath.json".to_string();
    let mut dataset = DatasetName::Agnews;
    let mut scale = 1.0f64;
    let mut iters = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {
                // One short iteration per kernel: exercises every kernel
                // and the JSON schema without a multi-minute timing run.
                scale = 0.05;
                iters = 1;
            }
            "--out" => out = args.next().expect("--out needs a path"),
            "--dataset" => {
                let name = args.next().expect("--dataset needs a name");
                dataset =
                    DatasetName::parse(&name).unwrap_or_else(|| panic!("unknown dataset {name}"));
            }
            "--scale" => {
                scale = args
                    .next()
                    .expect("--scale needs a value")
                    .parse()
                    .expect("--scale must be a float");
            }
            "--iters" => {
                iters = args
                    .next()
                    .expect("--iters needs a value")
                    .parse()
                    .expect("--iters must be an integer");
            }
            other => panic!("unknown flag {other}"),
        }
    }

    eprintln!(
        "[hotpath] dataset={} scale={scale} iters={iters}",
        dataset.as_str()
    );
    let report = run_report(dataset, scale, iters);
    for k in &report.kernels {
        eprintln!(
            "[hotpath] {:<32} {:>12} ns/op (median of {})",
            k.name, k.median_ns_per_op, k.iters
        );
    }
    for (columnar, baseline) in [
        ("lf-apply", "lf-apply-rowscan-baseline"),
        ("metal-e-step", "metal-e-step-rowmajor-baseline"),
    ] {
        let c = report.median_of(columnar).expect("required kernel");
        let b = report.median_of(baseline).expect("required kernel");
        eprintln!(
            "[hotpath] {columnar}: {:.2}x vs row-major baseline",
            b as f64 / c as f64
        );
    }
    eprintln!("[hotpath] peak RSS {} kB", report.peak_rss_kb);
    std::fs::write(&out, report.to_json()).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("[hotpath] wrote {out}");
}

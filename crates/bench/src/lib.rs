//! Experiment harness shared by the table/figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table2` | Table 2 — main comparison (LF stats + end model) |
//! | `table3` | Table 3 — LLM ablation on DataSculpt-SC |
//! | `table4` | Table 4 — query-sampler ablation |
//! | `table5` | Table 5 — LF-filter ablation |
//! | `fig3_tokens` | Figure 3 — token usage per method per dataset |
//! | `fig4_cost` | Figure 4 — API cost per method per dataset |
//! | `ablation_design` | design-choice ablations (not a paper table) |
//!
//! The binaries are thin: each declares *what* to run (methods, variants,
//! titles) and hands orchestration to one of the shared drivers here —
//! [`run_matrix`] for the tables, [`run_usage_figure`] for the figures,
//! and [`run_scalar_matrix`] for the design ablations.
//!
//! Environment knobs (all optional):
//!
//! * `DS_SCALE` — dataset scale factor (default `1.0` = Table 1 sizes).
//! * `DS_SEEDS` — number of repeated runs to average (default `5`, §4.1).
//! * `DS_DATASETS` — comma-separated subset, e.g. `youtube,sms`.
//! * `DS_THREADS` — worker threads for the drivers (default: all cores).
//!   Results are identical at every thread count; only wall-clock changes.
//! * `DS_TRACE` — write a JSONL trace of the driver run to this path
//!   (schema: `docs/trace-schema.md`; validate with `datasculpt
//!   trace-check`).
//!
//! Results are printed as aligned text tables and also written as CSV under
//! `results/`. Every driver also observes itself through a [`BenchTrace`]
//! — one `bench` stage span per dataset cell — and drops the aggregated
//! per-stage metrics as `results/<tag>.metrics.json` next to the CSV.

// Experiment driver, not a library: aborting on a malformed spec is correct.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use datasculpt::core::eval::evaluate_matrix;
use datasculpt::prelude::*;
use std::io::Write as _;

pub mod hotpath;
pub mod obsbench;
pub mod servebench;

/// One method's averaged outcome on one dataset (a column of a table).
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Number of LFs.
    pub n_lfs: f64,
    /// Mean per-LF train accuracy (None when train GT unavailable).
    pub lf_acc: Option<f64>,
    /// Mean per-LF coverage.
    pub lf_cov: f64,
    /// Total coverage.
    pub total_cov: f64,
    /// End-model test metric.
    pub end_metric: f64,
    /// Prompt tokens consumed.
    pub prompt_tokens: f64,
    /// Completion tokens consumed.
    pub completion_tokens: f64,
    /// API cost in USD.
    pub cost_usd: f64,
}

impl Outcome {
    /// Total tokens.
    pub fn tokens(&self) -> f64 {
        self.prompt_tokens + self.completion_tokens
    }
}

/// Average a set of per-seed outcomes.
pub fn average(outcomes: &[Outcome]) -> Outcome {
    assert!(!outcomes.is_empty(), "no outcomes to average");
    let n = outcomes.len() as f64;
    let accs: Vec<f64> = outcomes.iter().filter_map(|o| o.lf_acc).collect();
    Outcome {
        n_lfs: outcomes.iter().map(|o| o.n_lfs).sum::<f64>() / n,
        lf_acc: if accs.is_empty() {
            None
        } else {
            Some(accs.iter().sum::<f64>() / accs.len() as f64)
        },
        lf_cov: outcomes.iter().map(|o| o.lf_cov).sum::<f64>() / n,
        total_cov: outcomes.iter().map(|o| o.total_cov).sum::<f64>() / n,
        end_metric: outcomes.iter().map(|o| o.end_metric).sum::<f64>() / n,
        prompt_tokens: outcomes.iter().map(|o| o.prompt_tokens).sum::<f64>() / n,
        completion_tokens: outcomes.iter().map(|o| o.completion_tokens).sum::<f64>() / n,
        cost_usd: outcomes.iter().map(|o| o.cost_usd).sum::<f64>() / n,
    }
}

/// Harness configuration from the environment.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Dataset scale factor.
    pub scale: f64,
    /// Seeds per cell.
    pub seeds: u64,
    /// Datasets to run.
    pub datasets: Vec<DatasetName>,
    /// Worker threads for the drivers (`DS_THREADS`, default all cores).
    pub threads: usize,
}

impl HarnessConfig {
    /// Read `DS_SCALE`, `DS_SEEDS`, `DS_DATASETS`, `DS_THREADS`.
    pub fn from_env() -> Self {
        let scale = std::env::var("DS_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1.0);
        let seeds = std::env::var("DS_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(5)
            .max(1);
        let datasets = std::env::var("DS_DATASETS")
            .ok()
            .map(|v| {
                v.split(',')
                    .filter_map(|s| DatasetName::parse(s.trim()))
                    .collect()
            })
            .filter(|v: &Vec<_>| !v.is_empty())
            .unwrap_or_else(|| DatasetName::ALL.to_vec());
        let threads = std::env::var("DS_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| Pool::auto().threads());
        Self {
            scale,
            seeds,
            datasets,
            threads,
        }
    }

    /// The worker pool the drivers fan out on.
    pub fn pool(&self) -> Pool {
        Pool::new(self.threads)
    }

    /// Load a dataset at the configured scale.
    pub fn load(&self, name: DatasetName, seed: u64) -> TextDataset {
        if (self.scale - 1.0).abs() < 1e-12 {
            name.load(seed)
        } else {
            name.load_scaled(seed, self.scale)
        }
    }
}

fn outcome_from_eval(eval: &PwsEvaluation, ledger: Option<&UsageLedger>) -> Outcome {
    let usage = ledger.map(|l| l.total_usage()).unwrap_or_default();
    Outcome {
        n_lfs: eval.lf_stats.n_lfs as f64,
        lf_acc: eval.lf_stats.lf_accuracy,
        lf_cov: eval.lf_stats.lf_coverage,
        total_cov: eval.lf_stats.total_coverage,
        end_metric: eval.end_metric,
        prompt_tokens: usage.prompt_tokens as f64,
        completion_tokens: usage.completion_tokens as f64,
        cost_usd: ledger.map(|l| l.total_cost_usd()).unwrap_or(0.0),
    }
}

/// One WRENCH-expert run.
pub fn run_wrench(dataset: &TextDataset) -> Outcome {
    let name = DatasetName::parse(dataset.spec.name).expect("known dataset");
    let mut set = LfSet::new(dataset, FilterConfig::validity_only());
    for lf in wrench_expert_lfs(dataset, wrench_lf_count(name)) {
        set.try_add(lf);
    }
    let eval = evaluate_lf_set(dataset, &set, &EvalConfig::default());
    outcome_from_eval(&eval, None)
}

/// One ScriptoriumWS run.
pub fn run_scriptorium(dataset: &TextDataset, model: ModelId, seed: u64) -> Outcome {
    let name = DatasetName::parse(dataset.spec.name).expect("known dataset");
    let mut llm = SimulatedLlm::new(model, dataset.generative.clone(), seed);
    let result = scriptorium_run(
        dataset,
        &mut llm,
        datasculpt::baselines::scriptorium::scriptorium_lf_count(name),
    )
    .expect("the simulated model does not fail");
    let mut set = LfSet::new(dataset, FilterConfig::validity_only());
    for lf in result.lfs {
        set.try_add(lf);
    }
    let eval = evaluate_lf_set(dataset, &set, &EvalConfig::default());
    outcome_from_eval(&eval, Some(&result.ledger))
}

/// One PromptedLF run.
pub fn run_promptedlf(dataset: &TextDataset, model: ModelId, seed: u64) -> Outcome {
    let mut llm = SimulatedLlm::new(model, dataset.generative.clone(), seed);
    let result = promptedlf_run(dataset, &mut llm);
    let eval = evaluate_matrix(dataset, &result.matrix, &EvalConfig::default());
    outcome_from_eval(&eval, Some(&result.ledger))
}

/// One DataSculpt run under an arbitrary configuration.
pub fn run_datasculpt(
    dataset: &TextDataset,
    mut config: DataSculptConfig,
    model: ModelId,
    seed: u64,
) -> Outcome {
    config.seed = seed;
    let mut llm = SimulatedLlm::new(model, dataset.generative.clone(), seed);
    let run = DataSculpt::new(dataset, config)
        .run(&mut llm)
        .expect("the simulated model does not fail");
    let eval = evaluate_lf_set(dataset, &run.lf_set, &EvalConfig::default());
    outcome_from_eval(&eval, Some(&run.ledger))
}

/// Self-observation for a bench driver: one `bench` stage span per dataset
/// cell feeds a [`MetricsRecorder`] (and, with `DS_TRACE=<path>`, a JSONL
/// file sink). [`finish`](Self::finish) drops the aggregated metrics as
/// `results/<tag>.metrics.json` next to the driver's CSV.
pub struct BenchTrace {
    tag: String,
    tracer: Tracer,
    metrics: MetricsRecorder,
    cells: u64,
}

impl BenchTrace {
    /// Start observing a driver run over `datasets` cells.
    pub fn begin(tag: &str, model: &str, datasets: &[DatasetName]) -> Self {
        let metrics = MetricsRecorder::new();
        let mut tracer = Tracer::new(Box::new(SystemClock::new()));
        tracer.add_sink(Box::new(metrics.clone()));
        if let Ok(path) = std::env::var("DS_TRACE") {
            match JsonlTraceSink::to_file(&path) {
                Ok(sink) => tracer.add_sink(Box::new(sink)),
                Err(e) => eprintln!("[{tag}] cannot open DS_TRACE file '{path}': {e}"),
            }
        }
        tracer.on_event(&Event::RunBegin {
            label: tag.to_string(),
            dataset: datasets
                .iter()
                .map(|d| d.as_str())
                .collect::<Vec<_>>()
                .join(","),
            model: model.to_string(),
            queries: datasets.len() as u64,
            seed: 0,
        });
        BenchTrace {
            tag: tag.to_string(),
            tracer,
            metrics,
            cells: 0,
        }
    }

    /// Open the `bench` span for dataset cell `di`.
    pub fn cell_begin(&mut self, di: usize) {
        self.tracer.on_event(&Event::StageBegin {
            iter: di as u64,
            stage: Stage::Bench,
        });
    }

    /// Close the `bench` span for dataset cell `di`.
    pub fn cell_end(&mut self, di: usize) {
        self.tracer.on_event(&Event::StageEnd {
            iter: di as u64,
            stage: Stage::Bench,
        });
        self.cells += 1;
    }

    /// Record a cell's merged ledger as per-model usage events.
    pub fn usage(&mut self, ledger: &UsageLedger) {
        for (model, usage) in ledger.per_model() {
            self.tracer.on_event(&Event::Usage {
                model: model.api_name().to_string(),
                prompt_tokens: usage.prompt_tokens,
                completion_tokens: usage.completion_tokens,
                cost_nanousd: PricingTable::cost_nanousd(
                    model,
                    usage.prompt_tokens,
                    usage.completion_tokens,
                ),
            });
        }
    }

    /// Close the run span, flush the sinks, and write
    /// `results/<tag>.metrics.json`.
    pub fn finish(mut self) {
        self.tracer.on_event(&Event::RunEnd {
            iterations: self.cells,
            failed: 0,
            lfs: 0,
        });
        if let Err(e) = self.tracer.finish() {
            eprintln!("[{}] trace sink failed: {e}", self.tag);
        }
        let path = format!("results/{}.metrics.json", self.tag);
        let write = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, self.metrics.to_json() + "\n"));
        match write {
            Ok(()) => eprintln!("[{}] wrote {path}", self.tag),
            Err(e) => eprintln!("[{}] cannot write {path}: {e}", self.tag),
        }
    }
}

/// LF generation only (no label-model / end-model evaluation): the exact
/// token and cost ledger needed by Figures 3–4.
pub fn generation_ledger(
    dataset: &TextDataset,
    method: &str,
    model: ModelId,
    seed: u64,
) -> UsageLedger {
    match method {
        "ScriptoriumWS" => {
            let name = DatasetName::parse(dataset.spec.name).expect("known dataset");
            let mut llm = SimulatedLlm::new(model, dataset.generative.clone(), seed);
            scriptorium_run(
                dataset,
                &mut llm,
                datasculpt::baselines::scriptorium::scriptorium_lf_count(name),
            )
            .expect("the simulated model does not fail")
            .ledger
        }
        "PromptedLF" => {
            let mut llm = SimulatedLlm::new(model, dataset.generative.clone(), seed);
            promptedlf_run(dataset, &mut llm).ledger
        }
        "DataSculpt-Base" | "DataSculpt-CoT" | "DataSculpt-SC" | "DataSculpt-KATE" => {
            let mut config = match method {
                "DataSculpt-Base" => DataSculptConfig::base(seed),
                "DataSculpt-CoT" => DataSculptConfig::cot(seed),
                "DataSculpt-SC" => DataSculptConfig::sc(seed),
                _ => DataSculptConfig::kate(seed),
            };
            config.seed = seed;
            let mut llm = SimulatedLlm::new(model, dataset.generative.clone(), seed);
            DataSculpt::new(dataset, config)
                .run(&mut llm)
                .expect("the simulated model does not fail")
                .ledger
        }
        other => panic!("unknown method {other}"),
    }
}

/// Token/cost [`Outcome`] for a ledger merged over `seeds` runs (per-seed
/// average; exact integer arithmetic until the final division).
fn outcome_from_ledger(ledger: &UsageLedger, seeds: u64) -> Outcome {
    let usage = ledger.total_usage();
    let n = seeds.max(1) as f64;
    Outcome {
        prompt_tokens: usage.prompt_tokens as f64 / n,
        completion_tokens: usage.completion_tokens as f64 / n,
        cost_usd: datasculpt::obs::cost::nanousd_to_usd(ledger.total_cost_nanousd()) / n,
        ..Default::default()
    }
}

/// The API-consuming methods of Figures 3–4 (WRENCH is manual, no tokens).
pub const USAGE_METHODS: [&str; 6] = [
    "ScriptoriumWS",
    "PromptedLF",
    "DataSculpt-Base",
    "DataSculpt-CoT",
    "DataSculpt-SC",
    "DataSculpt-KATE",
];

/// Render a log-scale horizontal bar for a positive value.
pub fn log_bar(value: f64, max_value: f64, width: usize) -> String {
    if value <= 0.0 || max_value <= 0.0 {
        return String::new();
    }
    let lo = 1.0f64; // one token / one micro-dollar floor
    let frac = ((value.max(lo)).ln() / (max_value.max(lo)).ln()).clamp(0.0, 1.0);
    "#".repeat(((width as f64) * frac).round() as usize)
}

/// The metric blocks of Tables 2–5, in paper order.
pub const METRIC_BLOCKS: [&str; 5] = ["#LFs", "LF Acc.", "LF Cov.", "Total Cov.", "EM Acc/F1"];

/// Extract metric block `b` from an outcome, rendered like the paper.
pub fn metric_cell(block: &str, o: &Outcome) -> String {
    match block {
        "#LFs" => format!("{:.0}", o.n_lfs),
        "LF Acc." => o.lf_acc.map_or("-".to_string(), |a| format!("{a:.3}")),
        "LF Cov." => format!("{:.3}", o.lf_cov),
        "Total Cov." => format!("{:.3}", o.total_cov),
        "EM Acc/F1" => format!("{:.3}", o.end_metric),
        other => panic!("unknown metric block {other}"),
    }
}

/// Numeric value of a metric block (for the AVG column).
pub fn metric_value(block: &str, o: &Outcome) -> Option<f64> {
    match block {
        "#LFs" => Some(o.n_lfs),
        "LF Acc." => o.lf_acc,
        "LF Cov." => Some(o.lf_cov),
        "Total Cov." => Some(o.total_cov),
        "EM Acc/F1" => Some(o.end_metric),
        _ => None,
    }
}

/// A fully-populated results grid: `results[method][dataset]`.
pub struct Grid {
    /// Method display names (row groups).
    pub methods: Vec<String>,
    /// Dataset column headers.
    pub datasets: Vec<DatasetName>,
    /// `results[method][dataset]`.
    pub results: Vec<Vec<Outcome>>,
}

impl Grid {
    /// Render the paper-style table: metric blocks × methods × datasets,
    /// with an AVG column.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{title}\n"));
        let header_width = 12 + self.methods.iter().map(|m| m.len()).max().unwrap_or(10);
        out.push_str(&format!("{:<w$}", "Metric/Method", w = header_width));
        for d in &self.datasets {
            let label = match d {
                DatasetName::Sms => "SMS(F1)".to_string(),
                DatasetName::Spouse => "Spouse(F1)".to_string(),
                other => {
                    let s = other.as_str();
                    let mut c = s.chars();
                    c.next()
                        .map(|f| f.to_uppercase().collect::<String>() + c.as_str())
                        .unwrap_or_default()
                }
            };
            out.push_str(&format!("{label:>12}"));
        }
        out.push_str(&format!("{:>12}\n", "AVG"));
        for block in METRIC_BLOCKS {
            out.push_str(&format!(
                "{}\n",
                "-".repeat(header_width + 12 * (self.datasets.len() + 1))
            ));
            for (mi, method) in self.methods.iter().enumerate() {
                out.push_str(&format!(
                    "{:<w$}",
                    format!("{block} {method}"),
                    w = header_width
                ));
                let mut vals = Vec::new();
                for (di, _) in self.datasets.iter().enumerate() {
                    let Some(o) = self.results.get(mi).and_then(|r| r.get(di)) else {
                        continue;
                    };
                    out.push_str(&format!("{:>12}", metric_cell(block, o)));
                    if let Some(v) = metric_value(block, o) {
                        vals.push(v);
                    }
                }
                let avg = if vals.is_empty() {
                    "-".to_string()
                } else {
                    let v = vals.iter().sum::<f64>() / vals.len() as f64;
                    if block == "#LFs" {
                        format!("{v:.1}")
                    } else {
                        format!("{v:.3}")
                    }
                };
                out.push_str(&format!("{avg:>12}\n"));
            }
        }
        out
    }

    /// Write the grid (all metric blocks) as CSV.
    pub fn write_csv(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        writeln!(
            f,
            "metric,method,{},avg",
            self.datasets
                .iter()
                .map(|d| d.as_str())
                .collect::<Vec<_>>()
                .join(",")
        )?;
        for block in METRIC_BLOCKS {
            for (mi, method) in self.methods.iter().enumerate() {
                let mut cells = Vec::new();
                let mut vals = Vec::new();
                for (di, _) in self.datasets.iter().enumerate() {
                    let Some(o) = self.results.get(mi).and_then(|r| r.get(di)) else {
                        continue;
                    };
                    cells.push(metric_cell(block, o));
                    if let Some(v) = metric_value(block, o) {
                        vals.push(v);
                    }
                }
                let avg = if vals.is_empty() {
                    "-".to_string()
                } else {
                    format!("{:.4}", vals.iter().sum::<f64>() / vals.len() as f64)
                };
                writeln!(f, "{block},{method},{},{avg}", cells.join(","))?;
            }
        }
        Ok(())
    }
}

/// A boxed per-cell runner: dataset + seed → averaged outcome.
type MethodFn<'a> = Box<dyn Fn(&TextDataset, u64) -> Outcome + Sync + 'a>;

/// One row of a Tables 2–5 style experiment: a display label plus the
/// runner for one cell.
pub struct MethodSpec<'a> {
    label: String,
    run: MethodFn<'a>,
    seeded: bool,
}

impl<'a> MethodSpec<'a> {
    /// A method whose cells are averaged over the harness's seeds.
    pub fn seeded(
        label: impl Into<String>,
        run: impl Fn(&TextDataset, u64) -> Outcome + Sync + 'a,
    ) -> Self {
        MethodSpec {
            label: label.into(),
            run: Box::new(run),
            seeded: true,
        }
    }

    /// A deterministic method, run once per dataset.
    pub fn deterministic(
        label: impl Into<String>,
        run: impl Fn(&TextDataset) -> Outcome + Sync + 'a,
    ) -> Self {
        MethodSpec {
            label: label.into(),
            run: Box::new(move |d, _| run(d)),
            seeded: false,
        }
    }

    /// The display label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// The shared run-matrix driver behind the `table*` binaries: run every
/// method on every configured dataset (seeded methods averaged over
/// `cfg.seeds` parallel runs), print the paper-style grid under `title`,
/// and write `results/<tag>.csv`.
pub fn run_matrix(
    tag: &str,
    title: &str,
    methods: Vec<MethodSpec<'_>>,
    cfg: &HarnessConfig,
) -> Grid {
    let pool = cfg.pool();
    // Wall time flows through the obs Clock (ds-lint wall-clock rule):
    // SystemClock is the workspace's single raw-clock site.
    let mut clock = SystemClock::new();
    let t0_ns = clock.now_ns();
    // Datasets are loaded up-front so the parallel region below is pure
    // compute over shared immutable state.
    let datasets: Vec<TextDataset> = cfg.datasets.iter().map(|&n| cfg.load(n, 0)).collect();
    // Flatten every (dataset, method, seed) run into one task list: whole
    // grid cells fan out, not just the seeds within a cell.
    let mut tasks: Vec<(usize, usize, u64)> = Vec::new();
    for di in 0..datasets.len() {
        for (mi, m) in methods.iter().enumerate() {
            let seeds = if m.seeded { cfg.seeds } else { 1 };
            for s in 0..seeds {
                tasks.push((di, mi, s));
            }
        }
    }
    let outcomes = pool
        .try_map(&tasks, |_, &(di, mi, s)| {
            match (datasets.get(di), methods.get(mi)) {
                (Some(d), Some(m)) => (m.run)(d, s),
                _ => Outcome::default(),
            }
        })
        .unwrap_or_else(|e| panic!("bench worker: {e}"));
    // Regroup the flat outcomes: tasks were emitted in (dataset, method,
    // seed) order and `try_map` preserves input order, so per-cell seed
    // lists come back in seed order and the averages match a serial run.
    let mut per_cell: Vec<Vec<Vec<Outcome>>> =
        vec![vec![Vec::new(); methods.len()]; datasets.len()];
    for (&(di, mi, _), o) in tasks.iter().zip(outcomes) {
        if let Some(cell) = per_cell.get_mut(di).and_then(|r| r.get_mut(mi)) {
            cell.push(o);
        }
    }
    let results: Vec<Vec<Outcome>> = (0..methods.len())
        .map(|mi| {
            (0..datasets.len())
                .map(|di| {
                    per_cell
                        .get(di)
                        .and_then(|r| r.get(mi))
                        .map(|c| average(c))
                        .unwrap_or_default()
                })
                .collect()
        })
        .collect();
    // Trace replay happens after the parallel region, in dataset order —
    // the documented merge order (docs/trace-schema.md). The event
    // sequence (and so every seq number) is identical at every thread
    // count, including serial.
    let mut trace = BenchTrace::begin(tag, "-", &cfg.datasets);
    for (di, &name) in cfg.datasets.iter().enumerate() {
        trace.cell_begin(di);
        trace.cell_end(di);
        eprintln!("[{tag}] {name} done");
    }
    eprintln!(
        "[{tag}] {} runs done in {:.1?} on {} thread(s)",
        tasks.len(),
        std::time::Duration::from_nanos(clock.now_ns().saturating_sub(t0_ns)),
        pool.threads()
    );
    let grid = Grid {
        methods: methods.into_iter().map(|m| m.label).collect(),
        datasets: cfg.datasets.clone(),
        results,
    };
    println!("{}", grid.render(title));
    let path = format!("results/{tag}.csv");
    grid.write_csv(&path)
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("[{tag}] wrote {path}");
    trace.finish();
    grid
}

/// How a figure binary labels and formats the usage matrix it collects
/// (Figures 3–4 differ only in the scalar plotted and its rendering).
pub struct FigureSpec {
    /// Log prefix, e.g. `fig3`.
    pub tag: &'static str,
    /// CSV stem: results land in `results/<csv_stem>.csv`.
    pub csv_stem: &'static str,
    /// Console title.
    pub title: String,
    /// The scalar plotted per (method, dataset) cell.
    pub value: fn(&Outcome) -> f64,
    /// Render one value on a bar-chart line.
    pub cell: fn(f64) -> String,
    /// Multiplier applied before the log-scale bar (micro-dollars for
    /// Figure 4 so $0.01 and $100 both render).
    pub bar_scale: f64,
    /// Render one value (and row total) in the CSV.
    pub csv_cell: fn(f64) -> String,
    /// Render one per-method total on the console.
    pub total_cell: fn(f64) -> String,
}

/// The shared driver behind the `fig*` binaries: collect the
/// [`USAGE_METHODS`] × datasets usage matrix, print log-scale bars and
/// per-method totals, write the CSV, and return each method's exact
/// merged [`UsageLedger`] for any epilogue (Figure 4 prints a per-model
/// cost breakdown and a cost ratio from it).
pub fn run_usage_figure(
    spec: &FigureSpec,
    cfg: &HarnessConfig,
    model: ModelId,
) -> Vec<UsageLedger> {
    let pool = cfg.pool();
    let datasets: Vec<TextDataset> = cfg.datasets.iter().map(|&n| cfg.load(n, 0)).collect();
    // Fan out every (dataset, method, seed) generation run, then merge
    // each cell's ledgers in seed order (exact integer arithmetic, same
    // totals as the serial loop).
    let mut tasks: Vec<(usize, usize, u64)> = Vec::new();
    for di in 0..datasets.len() {
        for mi in 0..USAGE_METHODS.len() {
            for s in 0..cfg.seeds {
                tasks.push((di, mi, s));
            }
        }
    }
    let run_ledgers = pool
        .try_map(&tasks, |_, &(di, mi, s)| {
            match (datasets.get(di), USAGE_METHODS.get(mi)) {
                (Some(d), Some(&m)) => generation_ledger(d, m, model, s),
                _ => UsageLedger::new(),
            }
        })
        .unwrap_or_else(|e| panic!("bench worker: {e}"));
    let mut merged_cells: Vec<Vec<UsageLedger>> =
        vec![vec![UsageLedger::new(); USAGE_METHODS.len()]; datasets.len()];
    for (&(di, mi, _), l) in tasks.iter().zip(&run_ledgers) {
        if let Some(cell) = merged_cells.get_mut(di).and_then(|r| r.get_mut(mi)) {
            cell.merge(l);
        }
    }
    // Post-parallel trace replay in dataset order (the documented merge
    // order, docs/trace-schema.md): usage events sit inside their cell
    // span exactly as in a serial run.
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); USAGE_METHODS.len()];
    let mut ledgers: Vec<UsageLedger> = vec![UsageLedger::new(); USAGE_METHODS.len()];
    let mut trace = BenchTrace::begin(spec.tag, model.api_name(), &cfg.datasets);
    for (di, &name) in cfg.datasets.iter().enumerate() {
        trace.cell_begin(di);
        let cell_row = merged_cells.get(di).map(Vec::as_slice).unwrap_or(&[]);
        for (mi, merged) in cell_row.iter().enumerate() {
            trace.usage(merged);
            if let Some(col) = values.get_mut(mi) {
                col.push((spec.value)(&outcome_from_ledger(merged, cfg.seeds)));
            }
            if let Some(l) = ledgers.get_mut(mi) {
                l.merge(merged);
            }
        }
        trace.cell_end(di);
        eprintln!("[{}] {name} done", spec.tag);
    }

    let max = values.iter().flatten().cloned().fold(0.0f64, f64::max) * spec.bar_scale;
    println!("{}\n", spec.title);
    for (di, name) in cfg.datasets.iter().enumerate() {
        println!("{name}:");
        for (mi, method) in USAGE_METHODS.iter().enumerate() {
            let v = values
                .get(mi)
                .and_then(|c| c.get(di))
                .copied()
                .unwrap_or(0.0);
            println!(
                "  {method:<16} {} |{}",
                (spec.cell)(v),
                log_bar(v * spec.bar_scale, max, 48)
            );
        }
    }
    let totals: Vec<f64> = values.iter().map(|row| row.iter().sum()).collect();
    println!("\ntotals across datasets:");
    for (method, total) in USAGE_METHODS.iter().zip(&totals) {
        println!("  {method:<16} {}", (spec.total_cell)(*total));
    }

    let path = format!("results/{}.csv", spec.csv_stem);
    std::fs::create_dir_all("results").expect("results dir");
    let mut f = std::fs::File::create(&path).expect("csv file");
    writeln!(
        f,
        "method,{},total",
        cfg.datasets
            .iter()
            .map(|d| d.as_str())
            .collect::<Vec<_>>()
            .join(",")
    )
    .expect("csv header");
    for (mi, method) in USAGE_METHODS.iter().enumerate() {
        writeln!(
            f,
            "{method},{},{}",
            values
                .get(mi)
                .map(Vec::as_slice)
                .unwrap_or(&[])
                .iter()
                .map(|v| (spec.csv_cell)(*v))
                .collect::<Vec<_>>()
                .join(","),
            (spec.csv_cell)(totals.get(mi).copied().unwrap_or(0.0))
        )
        .expect("csv row");
    }
    eprintln!("[{}] wrote {path}", spec.tag);
    trace.finish();
    ledgers
}

/// The shared driver behind `ablation_design`: a scalar-valued
/// rows × datasets matrix where per-dataset setup (an LF set, say) is
/// computed once and shared across all rows. Prints an aligned table and
/// writes `results/<tag>.csv`.
pub fn run_scalar_matrix<S>(
    tag: &str,
    title: &str,
    rows: &[String],
    datasets: &[DatasetName],
    cfg: &HarnessConfig,
    setup: impl Fn(&TextDataset) -> S + Sync,
    cell: impl Fn(&S, &TextDataset, usize) -> f64 + Sync,
) -> Vec<Vec<f64>> {
    let pool = cfg.pool();
    let loaded: Vec<TextDataset> = datasets.iter().map(|&n| cfg.load(n, 0)).collect();
    // One task per dataset: the shared per-dataset state never crosses a
    // thread, so `S` needs no Send/Sync bound.
    let columns = pool
        .try_map(&loaded, |_, dataset| {
            let state = setup(dataset);
            (0..rows.len())
                .map(|ri| cell(&state, dataset, ri))
                .collect::<Vec<f64>>()
        })
        .unwrap_or_else(|e| panic!("bench worker: {e}"));
    let mut results: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    for column in &columns {
        for (ri, v) in column.iter().enumerate() {
            if let Some(row) = results.get_mut(ri) {
                row.push(*v);
            }
        }
    }
    // Post-parallel trace replay in dataset order (docs/trace-schema.md).
    let mut trace = BenchTrace::begin(tag, "-", datasets);
    for (di, &name) in datasets.iter().enumerate() {
        trace.cell_begin(di);
        trace.cell_end(di);
        eprintln!("[{tag}] {name} done");
    }

    let w = rows.iter().map(|r| r.len()).max().unwrap_or(10).max(10) + 2;
    println!("{title}\n");
    print!("{:<w$}", "variant");
    for d in datasets {
        print!("{:>10}", d.as_str());
    }
    println!();
    for (label, rvals) in rows.iter().zip(&results) {
        print!("{label:<w$}");
        for v in rvals {
            print!("{v:>10.3}");
        }
        println!();
    }

    let path = format!("results/{tag}.csv");
    std::fs::create_dir_all("results").expect("results dir");
    let mut f = std::fs::File::create(&path).expect("csv file");
    writeln!(
        f,
        "variant,{}",
        datasets
            .iter()
            .map(|d| d.as_str())
            .collect::<Vec<_>>()
            .join(",")
    )
    .expect("csv header");
    for (label, rvals) in rows.iter().zip(&results) {
        writeln!(
            f,
            "{label},{}",
            rvals
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(",")
        )
        .expect("csv row");
    }
    eprintln!("[{tag}] wrote {path}");
    trace.finish();
    results
}

/// The evaluation-stack variants quantified by the `ablation_design`
/// binary (see DESIGN.md): label-model choices and EM stability guards,
/// end-model target/weight choices, and the feature order.
pub fn design_variants() -> Vec<(&'static str, EvalConfig)> {
    let base = EvalConfig::default();
    let metal = |f: fn(&mut MetalConfig)| {
        let mut mc = MetalConfig::default();
        f(&mut mc);
        EvalConfig {
            label_model: LabelModelKind::Metal(mc),
            ..base
        }
    };
    vec![
        ("default (EM, guards on)", base),
        (
            "EM: no accuracy-tilt prior",
            metal(|m| m.accuracy_tilt = 1.0),
        ),
        (
            "EM: full abstain evidence",
            metal(|m| m.abstain_evidence_scale = 1.0),
        ),
        ("EM: undamped updates", metal(|m| m.update_damping = 1.0)),
        (
            "label model: majority vote",
            EvalConfig {
                label_model: LabelModelKind::Majority,
                ..base
            },
        ),
        (
            "label model: triplet",
            EvalConfig {
                label_model: LabelModelKind::Triplet,
                ..base
            },
        ),
        (
            "end model: soft targets",
            EvalConfig {
                hard_targets: false,
                ..base
            },
        ),
        (
            "end model: unbalanced weights",
            EvalConfig {
                balanced_weights: false,
                ..base
            },
        ),
        (
            "features: bigrams",
            EvalConfig {
                feature_order: 2,
                ..base
            },
        ),
        (
            "end model: MLP (64 hidden)",
            EvalConfig {
                end_model: EndModelKind::Mlp { hidden: 64 },
                ..base
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_pools_and_skips_missing_acc() {
        let a = Outcome {
            n_lfs: 10.0,
            lf_acc: Some(0.8),
            end_metric: 0.9,
            ..Default::default()
        };
        let b = Outcome {
            n_lfs: 20.0,
            lf_acc: None,
            end_metric: 0.7,
            ..Default::default()
        };
        let avg = average(&[a, b]);
        assert_eq!(avg.n_lfs, 15.0);
        assert_eq!(avg.lf_acc, Some(0.8));
        assert!((avg.end_metric - 0.8).abs() < 1e-12);
    }

    #[test]
    fn metric_cells_render_like_the_paper() {
        let o = Outcome {
            n_lfs: 108.0,
            lf_acc: Some(0.735),
            lf_cov: 0.021,
            total_cov: 0.82,
            end_metric: 0.879,
            ..Default::default()
        };
        assert_eq!(metric_cell("#LFs", &o), "108");
        assert_eq!(metric_cell("LF Acc.", &o), "0.735");
        assert_eq!(metric_cell("LF Cov.", &o), "0.021");
        assert_eq!(metric_cell("Total Cov.", &o), "0.820");
        assert_eq!(metric_cell("EM Acc/F1", &o), "0.879");
        let none = Outcome::default();
        assert_eq!(metric_cell("LF Acc.", &none), "-");
    }

    #[test]
    fn grid_renders_and_writes_csv() {
        let grid = Grid {
            methods: vec!["A".into(), "B".into()],
            datasets: vec![DatasetName::Youtube, DatasetName::Sms],
            results: vec![
                vec![Outcome::default(), Outcome::default()],
                vec![Outcome::default(), Outcome::default()],
            ],
        };
        let rendered = grid.render("test table");
        assert!(rendered.contains("Youtube"));
        assert!(rendered.contains("SMS(F1)"));
        assert!(rendered.contains("#LFs A"));
        let path = std::env::temp_dir().join("ds_grid_test.csv");
        grid.write_csv(path.to_str().expect("utf8 path"))
            .expect("csv written");
        let content = std::fs::read_to_string(&path).expect("read back");
        assert!(content.starts_with("metric,method,youtube,sms,avg"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn harness_env_defaults() {
        // Only check defaults (env vars unset in tests).
        let cfg = HarnessConfig::from_env();
        assert!(cfg.seeds >= 1);
        assert!(cfg.scale > 0.0);
        assert!(!cfg.datasets.is_empty());
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.pool().threads(), cfg.threads);
    }
}

//! The `datasculpt` command-line interface.
//!
//! ```text
//! datasculpt inspect  <dataset> [--scale F] [--seed N]
//! datasculpt run      <dataset> [--config base|cot|sc|kate] [--model M]
//!                     [--queries N] [--sampler random|uncertain|seu|coreset]
//!                     [--scale F] [--seed N] [--revise] [--show-lfs N]
//!                     [--threads N] [--trace PATH] [--metrics] [--retries N]
//!                     [--cache N] [--verbose]
//!                     [--store DIR] [--resume DIR] [--checkpoint-every N]
//!                     [--inject-crash-after N]
//! datasculpt baseline <dataset> --system wrench|scriptorium|promptedlf
//!                     [--model M] [--scale F] [--seed N] [--trace PATH] [--metrics]
//! datasculpt trace analyze <path> [--json]
//! datasculpt trace diff <a> <b> [--timing]
//! datasculpt trace flame <path>
//! datasculpt trace expo <path>
//! datasculpt trace check <path>       (alias: datasculpt trace-check)
//! datasculpt serve start  --socket PATH|tcp:PORT --state DIR [--slots N]
//!                         [--checkpoint-every N] [--trace PATH]
//! datasculpt serve submit <dataset> --socket S --tenant T [--budget NANOUSD]
//!                         [--queries N] [--scale F] [--seed N]
//!                         [--config C] [--model M]
//! datasculpt serve status --socket S [--job N]
//! datasculpt serve cancel --socket S --job N
//! datasculpt serve drain  --socket S
//! datasculpt serve ping   --socket S
//! datasculpt models
//! ```
//!
//! Datasets: youtube, sms, imdb, yelp, agnews, spouse.
//! Models: gpt-3.5 (default), gpt-4, llama-7b, llama-13b, llama-70b.
//!
//! Every subcommand validates its full argument vector: unknown flags,
//! missing values, unparseable numbers, and invalid flag combinations
//! (e.g. `--store` with `--resume`, or `--checkpoint-every` without
//! either) are usage errors (exit 2), never silently ignored.
//!
//! Human-readable progress goes through [`StderrProgressSink`]; `--trace`
//! writes the machine-readable JSONL trace (schema: `docs/trace-schema.md`),
//! which the `trace` subcommand family analyzes (see
//! `docs/observability.md`).

use datasculpt::core::eval::evaluate_matrix;
use datasculpt::obs::schema::Fields;
use datasculpt::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("inspect") => inspect(args.get(1..).unwrap_or(&[])),
        Some("run") => run(args.get(1..).unwrap_or(&[])),
        Some("baseline") => baseline(args.get(1..).unwrap_or(&[])),
        Some("trace") => trace_family(args.get(1..).unwrap_or(&[])),
        // Pre-PR-9 spelling of `trace check`, kept as an alias.
        Some("trace-check") => trace_check(args.get(1..).unwrap_or(&[])),
        Some("serve") => serve_family(args.get(1..).unwrap_or(&[])),
        Some("models") => {
            for m in ModelId::ALL {
                let (inp, out) = PricingTable::rates(m);
                println!(
                    "{:<16} {:<22} ${inp:.2}/M in, ${out:.2}/M out",
                    m.label(),
                    m.api_name()
                );
            }
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | None => {
            print!("{}", HELP);
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n\n{HELP}");
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "\
datasculpt — cost-efficient LF design via prompting LLMs (EDBT 2025 reproduction)

USAGE:
  datasculpt inspect  <dataset> [--scale F] [--seed N]
  datasculpt run      <dataset> [--config base|cot|sc|kate] [--model M]
                      [--queries N] [--sampler random|uncertain|seu|coreset]
                      [--scale F] [--seed N] [--revise] [--show-lfs N]
                      [--threads N] [--trace PATH] [--metrics] [--retries N]
                      [--cache N] [--verbose]
                      [--store DIR] [--resume DIR] [--checkpoint-every N]
                      [--inject-crash-after N]
  datasculpt baseline <dataset> --system wrench|scriptorium|promptedlf
                      [--model M] [--scale F] [--seed N] [--trace PATH] [--metrics]
  datasculpt trace analyze <path> [--json]
  datasculpt trace diff <a> <b> [--timing]
  datasculpt trace flame <path>
  datasculpt trace expo <path>
  datasculpt trace check <path>
  datasculpt serve start  --socket PATH|tcp:PORT --state DIR [--slots N]
                      [--checkpoint-every N] [--trace PATH] [--metrics] [--verbose]
  datasculpt serve submit <dataset> --socket S --tenant T [--budget NANOUSD]
                      [--queries N] [--scale F] [--seed N] [--config C] [--model M]
  datasculpt serve status --socket S [--job N]
  datasculpt serve cancel --socket S --job N
  datasculpt serve drain  --socket S
  datasculpt serve ping   --socket S
  datasculpt models

Datasets: youtube sms imdb yelp agnews spouse.

Execution:
  --threads N    worker threads for vote columns, label model, and LLM
                 batches (default 1; any value yields the same run digest)

Observability:
  --trace PATH   write a JSONL trace of the run (schema: docs/trace-schema.md)
  --metrics      print a per-stage latency/count/cost table after the run
  --retries N    retry transient LLM errors up to N times per call
  --cache N      wrap the model in a response cache with capacity N
  --verbose      per-iteration progress lines on stderr

Trace analytics (docs/observability.md):
  trace analyze  attribution tree (self/total time + exact nano-USD per
                 span), hot paths, latency histograms, counter/usage
                 rollup; --json emits the stable machine-readable form
  trace diff     structural diff of two traces: counters, costs, span
                 tree, digests — empty (exit 0) for two same-seed runs at
                 any thread count; add --timing to also compare durations
  trace flame    folded-stacks export (flamegraph.pl / speedscope input)
  trace expo     Prometheus text exposition of the trace's metrics
  trace check    validate a trace file and print its summary
                 (alias: `datasculpt trace-check`, the pre-PR-9 spelling)

Durability (docs/persistence.md):
  --store DIR            run durably in DIR: every LLM response is persisted
                         before use and each iteration is checkpointed, so a
                         crashed run can be resumed with zero re-billing
                         (--cache is ignored; the disk store subsumes it)
  --resume DIR           like --store, but refuse to start fresh: DIR must
                         already hold a checkpoint from the same config
  --checkpoint-every N   checkpoint every N iterations (default 1)
  --inject-crash-after N crash-injection smoke knob: abort the process after
                         N backend LLM calls

Serving (docs/serving.md):
  serve start    run the multi-tenant labeling daemon: jobs live durably
                 under --state DIR, are scheduled fairly across tenants,
                 and are admission-controlled against exact per-tenant
                 nano-USD budgets; a killed daemon restarted on the same
                 DIR resumes every in-flight job bit-identically
  serve submit   queue a labeling job for --tenant; --budget NANOUSD tops
                 up the tenant's budget (nano-USD, 10^9 per dollar)
  serve status   one JSON line per job (or just --job N)
  serve cancel   request cancellation of a queued or running job
  serve drain    finish all runnable work, report, and shut the daemon down

Flag validation: unknown flags, missing/unparseable values, and invalid
combinations (--store with --resume; --checkpoint-every or
--inject-crash-after without --store/--resume) exit 2 with a usage error.
";

/// Minimal flag parser: `--key value` pairs plus boolean switches.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn get(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }

    /// Check the whole argument vector against this command's grammar:
    /// at most `max_positionals` bare arguments, every `--flag` either a
    /// known value flag (consuming the next token) or a known switch.
    /// Misspelled flags, stray arguments, and value flags missing their
    /// value all fail here instead of being silently ignored.
    fn validate(
        &self,
        max_positionals: usize,
        values: &[&str],
        switches: &[&str],
    ) -> Result<(), String> {
        let mut positionals = 0usize;
        let mut i = 0;
        while i < self.args.len() {
            let Some(arg) = self.args.get(i) else { break };
            if arg.starts_with("--") {
                if values.contains(&arg.as_str()) {
                    match self.args.get(i + 1) {
                        Some(v) if !v.starts_with("--") => i += 2,
                        _ => return Err(format!("flag {arg} expects a value")),
                    }
                } else if switches.contains(&arg.as_str()) {
                    i += 1;
                } else {
                    return Err(format!("unknown flag {arg}"));
                }
            } else {
                positionals += 1;
                if positionals > max_positionals {
                    return Err(format!("unexpected argument '{arg}'"));
                }
                i += 1;
            }
        }
        Ok(())
    }

    /// Strict numeric/typed flag: absent → `default`; present with an
    /// unparseable (or missing) value → an error, never a silent default.
    fn parse_strict<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        if !self.has(key) {
            return Ok(default);
        }
        let Some(value) = self.get(key) else {
            return Err(format!("flag {key} expects a value"));
        };
        value
            .parse()
            .map_err(|_| format!("flag {key} has unparseable value '{value}'"))
    }
}

/// A rejected command line: explain, point at --help, exit 2 (distinct
/// from runtime failures, which exit 1).
fn usage_error(message: &str) -> ExitCode {
    eprintln!("usage error: {message}");
    eprintln!("(see `datasculpt --help`)");
    ExitCode::from(2)
}

fn load_dataset(args: &[String]) -> Result<TextDataset, ExitCode> {
    let Some(name) = args.first().and_then(|a| DatasetName::parse(a)) else {
        eprintln!("expected a dataset name (youtube sms imdb yelp agnews spouse)");
        return Err(ExitCode::FAILURE);
    };
    let flags = Flags { args };
    let scale: f64 = match flags.parse_strict("--scale", 1.0) {
        Ok(v) => v,
        Err(m) => return Err(usage_error(&m)),
    };
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(usage_error(&format!("--scale {scale} out of range (0, 1]")));
    }
    let seed: u64 = match flags.parse_strict("--seed", 0) {
        Ok(v) => v,
        Err(m) => return Err(usage_error(&m)),
    };
    Ok(if (scale - 1.0).abs() < 1e-12 {
        name.load(seed)
    } else {
        name.load_scaled(seed, scale)
    })
}

fn parse_model(flags: &Flags) -> Result<ModelId, ExitCode> {
    ModelId::from_short_name(flags.get("--model").unwrap_or("gpt-3.5")).map_err(|m| usage_error(&m))
}

fn inspect(args: &[String]) -> ExitCode {
    let flags = Flags { args };
    if let Err(m) = flags.validate(1, &["--scale", "--seed"], &[]) {
        return usage_error(&m);
    }
    let dataset = match load_dataset(args) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let spec = &dataset.spec;
    println!("dataset:       {} ({})", spec.name, spec.domain);
    println!("task:          {}", spec.task_description);
    println!("classes:       {:?}", spec.class_names);
    println!(
        "splits:        {} train / {} valid / {} test",
        dataset.train.len(),
        dataset.valid.len(),
        dataset.test.len()
    );
    println!("metric:        {}", spec.metric);
    println!("relation task: {}", spec.relation);
    if let Some(dc) = spec.default_class {
        println!(
            "default class: {} ({})",
            dc,
            spec.class_names.get(dc).copied().unwrap_or("?")
        );
    }
    println!(
        "class balance (valid): {:?}",
        dataset
            .valid
            .class_distribution(spec.n_classes())
            .iter()
            .map(|p| (p * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    println!("\nsample instances:");
    for inst in dataset.train.iter().take(3) {
        let label = inst
            .label
            .and_then(|y| spec.class_names.get(y).copied())
            .unwrap_or("<hidden>");
        println!("  [{label:>9}] {}", inst.prompt_text());
    }
    ExitCode::SUCCESS
}

/// The observer stack behind one traced CLI run: human-readable progress
/// on stderr, an in-memory metrics aggregate, and (with `--trace`) a JSONL
/// file sink — all reachable through one shareable handle so the pipeline
/// and the LLM middleware emit into the same trace.
struct Observability {
    shared: SharedObserver,
    metrics: MetricsRecorder,
    want_metrics: bool,
}

impl Observability {
    fn from_flags(flags: &Flags) -> Result<Observability, ExitCode> {
        let metrics = MetricsRecorder::new();
        let mut tracer = Tracer::new(Box::new(SystemClock::new()));
        tracer.add_sink(Box::new(metrics.clone()));
        if let Some(path) = flags.get("--trace") {
            match JsonlTraceSink::to_file(path) {
                Ok(sink) => tracer.add_sink(Box::new(sink)),
                Err(e) => {
                    eprintln!("error: cannot open trace file '{path}': {e}");
                    return Err(ExitCode::FAILURE);
                }
            }
        }
        let multi = Multi::new()
            .with(StderrProgressSink::new().verbose(flags.has("--verbose")))
            .with(tracer);
        Ok(Observability {
            shared: SharedObserver::new(multi),
            metrics,
            want_metrics: flags.has("--metrics"),
        })
    }

    /// Flush the sinks and, with `--metrics`, print the summary table.
    /// Returns `false` if a sink failed to flush.
    fn close(&mut self) -> bool {
        let flushed = match self.shared.finish() {
            Ok(()) => true,
            Err(e) => {
                eprintln!("error: trace sink failed: {e}");
                false
            }
        };
        if self.want_metrics {
            println!("{}", self.metrics.render_table());
        }
        flushed
    }
}

/// Everything `datasculpt run` accepts; anything else is a usage error.
const RUN_VALUE_FLAGS: &[&str] = &[
    "--scale",
    "--seed",
    "--config",
    "--model",
    "--queries",
    "--sampler",
    "--show-lfs",
    "--threads",
    "--trace",
    "--retries",
    "--cache",
    "--store",
    "--resume",
    "--checkpoint-every",
    "--inject-crash-after",
];
const RUN_SWITCHES: &[&str] = &["--revise", "--metrics", "--verbose"];

fn run(args: &[String]) -> ExitCode {
    let flags = Flags { args };
    if let Err(m) = flags.validate(1, RUN_VALUE_FLAGS, RUN_SWITCHES) {
        return usage_error(&m);
    }
    if flags.has("--store") && flags.has("--resume") {
        return usage_error(
            "--store and --resume are mutually exclusive \
             (--store DIR may start fresh; --resume DIR must find an existing checkpoint)",
        );
    }
    let durable = flags.has("--store") || flags.has("--resume");
    if flags.has("--checkpoint-every") && !durable {
        return usage_error("--checkpoint-every requires --store DIR or --resume DIR");
    }
    if flags.has("--inject-crash-after") && !durable {
        return usage_error("--inject-crash-after requires --store DIR or --resume DIR");
    }
    let dataset = match load_dataset(args) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let seed: u64 = match flags.parse_strict("--seed", 0) {
        Ok(v) => v,
        Err(m) => return usage_error(&m),
    };
    let mut config = match DataSculptConfig::preset(flags.get("--config").unwrap_or("base"), seed) {
        Ok(config) => config,
        Err(m) => return usage_error(&m),
    };
    config.num_queries = match flags.parse_strict("--queries", config.num_queries) {
        Ok(v) => v,
        Err(m) => return usage_error(&m),
    };
    config.sampler = match flags.get("--sampler").unwrap_or("random") {
        "random" => SamplerKind::Random,
        "uncertain" => SamplerKind::Uncertain,
        "seu" => SamplerKind::Seu,
        "coreset" => SamplerKind::CoreSet,
        other => {
            return usage_error(&format!(
                "unknown sampler '{other}' (random|uncertain|seu|coreset)"
            ))
        }
    };
    config.revise_rejected = flags.has("--revise");
    config.threads = match flags.parse_strict("--threads", 1usize) {
        Ok(v) => v.max(1),
        Err(m) => return usage_error(&m),
    };
    let model = match parse_model(&flags) {
        Ok(m) => m,
        Err(code) => return code,
    };

    let mut obs = match Observability::from_flags(&flags) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let sim = SimulatedLlm::new(model, dataset.generative.clone(), seed)
        .with_pool(Pool::new(config.threads));
    let retries: u32 = match flags.parse_strict("--retries", 0) {
        Ok(v) => v,
        Err(m) => return usage_error(&m),
    };
    let retry = RetryModel::new(sim, retries).with_observer(obs.shared.clone());
    if durable {
        return run_durably(dataset, config, model, seed, retry, &mut obs, &flags);
    }
    let cache: usize = match flags.parse_strict("--cache", 0usize) {
        Ok(v) => v,
        Err(m) => return usage_error(&m),
    };
    if cache > 0 {
        let mut llm = CachedModel::with_capacity(retry, cache).with_observer(obs.shared.clone());
        execute_run(&dataset, config, &mut llm, &mut obs, &flags)
    } else {
        let mut llm = retry;
        execute_run(&dataset, config, &mut llm, &mut obs, &flags)
    }
}

/// The `--store`/`--resume` path: wrap the backend in the disk store and
/// checkpointer (`docs/persistence.md`) and run via the durable runner.
fn run_durably<M: ChatModel>(
    dataset: TextDataset,
    config: DataSculptConfig,
    model: ModelId,
    seed: u64,
    backend: M,
    obs: &mut Observability,
    flags: &Flags,
) -> ExitCode {
    let resume = flags.get("--resume");
    let dir = match resume.or(flags.get("--store")) {
        Some(dir) => std::path::PathBuf::from(dir),
        None => return ExitCode::FAILURE,
    };
    // Already validated by `run`; default is enough here.
    let scale: f64 = flags.parse_strict("--scale", 1.0).unwrap_or(1.0);
    let fingerprint = RunFingerprint {
        dataset: dataset.spec.name.to_string(),
        dataset_seed: seed,
        scale_bits: scale.to_bits(),
        model: model.api_name().to_string(),
        llm_seed: seed,
        config,
    };
    let checkpoint_every = match flags.parse_strict("--checkpoint-every", 1u64) {
        Ok(v) => v,
        Err(m) => return usage_error(&m),
    };
    let crash_after = match flags.parse_strict::<u64>("--inject-crash-after", 0) {
        Ok(v) => v,
        Err(m) => return usage_error(&m),
    };
    let opts = DurableOptions {
        checkpoint_every,
        kill: None,
        require_existing: resume.is_some(),
    };
    let observer = Some(obs.shared.clone());
    let corpus = Corpus::build(dataset);
    let outcome = if flags.has("--inject-crash-after") {
        let doomed = KillAfter::aborting_process(backend, crash_after);
        run_durable(&corpus, &fingerprint, doomed, &dir, &opts, observer, None)
    } else {
        run_durable(&corpus, &fingerprint, backend, &dir, &opts, observer, None)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            obs.close();
            eprintln!("run aborted: {e}");
            return ExitCode::FAILURE;
        }
    };
    if outcome.recovered {
        println!(
            "resumed:        {} checkpointed iterations verified against the replay",
            outcome.replayed_iterations
        );
    }
    println!(
        "store:          {} hits / {} misses, billed {} this process",
        outcome.store_stats.hits,
        outcome.store_stats.misses,
        datasculpt::obs::cost::format_usd(outcome.billed_nanousd)
    );
    report_run(corpus.dataset(), config, &outcome.result, obs, flags)
}

fn execute_run<M: ChatModel>(
    dataset: &TextDataset,
    config: DataSculptConfig,
    llm: &mut M,
    obs: &mut Observability,
    flags: &Flags,
) -> ExitCode {
    let mut observer = obs.shared.clone();
    let run = match DataSculpt::new(dataset, config).run_observed(llm, &mut observer) {
        Ok(run) => run,
        Err(e) => {
            obs.close();
            eprintln!("run aborted: {e}");
            return ExitCode::FAILURE;
        }
    };
    report_run(dataset, config, &run, obs, flags)
}

/// Evaluate and print one finished run (shared by the plain and durable
/// paths).
fn report_run(
    dataset: &TextDataset,
    config: DataSculptConfig,
    run: &RunResult,
    obs: &mut Observability,
    flags: &Flags,
) -> ExitCode {
    let eval_config = EvalConfig {
        threads: config.threads,
        ..EvalConfig::default()
    };
    let eval = evaluate_lf_set(dataset, &run.lf_set, &eval_config);

    // Validated up-front by `run`; default is enough here.
    let show: usize = flags.parse_strict("--show-lfs", 5).unwrap_or(5);
    if show > 0 {
        println!("sample LFs:");
        for lf in run.lf_set.lfs().iter().take(show) {
            println!("  {lf}");
        }
    }
    println!("run digest:     {:016x}", run.digest());
    print_eval(&eval, Some(&run.ledger));
    if obs.close() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn baseline(args: &[String]) -> ExitCode {
    let flags = Flags { args };
    if let Err(m) = flags.validate(
        1,
        &["--system", "--model", "--scale", "--seed", "--trace"],
        &["--metrics", "--verbose"],
    ) {
        return usage_error(&m);
    }
    let dataset = match load_dataset(args) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let seed: u64 = match flags.parse_strict("--seed", 0) {
        Ok(v) => v,
        Err(m) => return usage_error(&m),
    };
    let model = match parse_model(&flags) {
        Ok(m) => m,
        Err(code) => return code,
    };
    let Some(name) = DatasetName::parse(dataset.spec.name) else {
        eprintln!("error: unknown dataset '{}'", dataset.spec.name);
        return ExitCode::from(2);
    };
    match flags.get("--system").unwrap_or("wrench") {
        "wrench" => {
            let mut set = LfSet::new(&dataset, FilterConfig::validity_only());
            for lf in wrench_expert_lfs(&dataset, wrench_lf_count(name)) {
                set.try_add(lf);
            }
            print_eval(
                &evaluate_lf_set(&dataset, &set, &EvalConfig::default()),
                None,
            );
        }
        "scriptorium" => {
            let mut llm = SimulatedLlm::new(model, dataset.generative.clone(), seed);
            let result = match scriptorium_run(
                &dataset,
                &mut llm,
                datasculpt::baselines::scriptorium::scriptorium_lf_count(name),
            ) {
                Ok(result) => result,
                Err(e) => {
                    eprintln!("run aborted: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut set = LfSet::new(&dataset, FilterConfig::validity_only());
            for lf in result.lfs {
                set.try_add(lf);
            }
            print_eval(
                &evaluate_lf_set(&dataset, &set, &EvalConfig::default()),
                Some(&result.ledger),
            );
        }
        "promptedlf" => {
            let mut obs = match Observability::from_flags(&flags) {
                Ok(o) => o,
                Err(code) => return code,
            };
            let mut llm = SimulatedLlm::new(model, dataset.generative.clone(), seed);
            let mut observer = obs.shared.clone();
            let result = promptedlf_run_observed(&dataset, &mut llm, &mut observer);
            print_eval(
                &evaluate_matrix(&dataset, &result.matrix, &EvalConfig::default()),
                Some(&result.ledger),
            );
            if !obs.close() {
                return ExitCode::FAILURE;
            }
        }
        other => {
            return usage_error(&format!(
                "unknown baseline system '{other}' (wrench|scriptorium|promptedlf)"
            ));
        }
    }
    ExitCode::SUCCESS
}

/// Dispatch `datasculpt trace <analyze|diff|flame|expo|check>`.
fn trace_family(args: &[String]) -> ExitCode {
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("analyze") => trace_analyze(rest),
        Some("diff") => trace_diff(rest),
        Some("flame") => trace_flame(rest),
        Some("expo") => trace_expo(rest),
        Some("check") => trace_check(rest),
        other => {
            eprintln!(
                "unknown trace subcommand {:?} (analyze|diff|flame|expo|check)",
                other.unwrap_or("<none>")
            );
            ExitCode::FAILURE
        }
    }
}

/// Read and analyze one trace file, or print the error and fail.
fn load_analysis(path: &str) -> Result<datasculpt::obs::TraceAnalysis, ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read '{path}': {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    match datasculpt::obs::TraceAnalysis::from_trace(&text) {
        Ok(analysis) => Ok(analysis),
        Err(e) => {
            eprintln!("{path}: invalid trace: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn trace_analyze(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: datasculpt trace analyze <path> [--json]");
        return ExitCode::FAILURE;
    };
    let analysis = match load_analysis(path) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let flags = Flags { args };
    if flags.has("--json") {
        println!(
            "{}",
            datasculpt::obs::report::render_analyze_json(&analysis)
        );
    } else {
        print!("{}", datasculpt::obs::report::render_analyze(&analysis));
    }
    ExitCode::SUCCESS
}

fn trace_diff(args: &[String]) -> ExitCode {
    let (Some(path_a), Some(path_b)) = (args.first(), args.get(1)) else {
        eprintln!("usage: datasculpt trace diff <a> <b> [--timing]");
        return ExitCode::FAILURE;
    };
    let (a, b) = match (load_analysis(path_a), load_analysis(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let flags = Flags { args };
    let entries = datasculpt::obs::report::diff(&a, &b, flags.has("--timing"));
    print!("{}", datasculpt::obs::report::render_diff(&entries));
    if entries.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn trace_flame(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: datasculpt trace flame <path>");
        return ExitCode::FAILURE;
    };
    match load_analysis(path) {
        Ok(analysis) => {
            print!("{}", datasculpt::obs::report::folded_stacks(&analysis));
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

fn trace_expo(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: datasculpt trace expo <path>");
        return ExitCode::FAILURE;
    };
    match load_analysis(path) {
        Ok(analysis) => {
            print!(
                "{}",
                datasculpt::obs::render_prometheus(&analysis.to_metrics_snapshot())
            );
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

fn trace_check(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("expected a trace file path");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read '{path}': {e}");
            return ExitCode::FAILURE;
        }
    };
    match datasculpt::obs::schema::validate_trace(&text) {
        Ok(summary) => {
            println!("{path}: valid trace (schema v1)");
            println!("events:     {}", summary.events);
            println!("iterations: {}", summary.iterations);
            println!("stages:     {}", summary.stages.join(" "));
            for (counter, total) in &summary.counters {
                println!("counter:    {counter} = {total}");
            }
            println!(
                "cost:       {}",
                datasculpt::obs::cost::format_usd(summary.cost_nanousd)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: invalid trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Dispatch `datasculpt serve <start|submit|status|cancel|drain|ping>`
/// (docs/serving.md). `start` runs the daemon in the foreground; the rest
/// are one-shot clients of a running daemon's socket.
fn serve_family(args: &[String]) -> ExitCode {
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("start") => serve_start(rest),
        Some("submit") => serve_submit(rest),
        Some("status") => serve_status(rest),
        Some("cancel") => serve_cancel(rest),
        Some("drain") => serve_drain(rest),
        Some("ping") => serve_ping(rest),
        other => usage_error(&format!(
            "unknown serve subcommand {:?} (start|submit|status|cancel|drain|ping)",
            other.unwrap_or("<none>")
        )),
    }
}

fn serve_start(args: &[String]) -> ExitCode {
    let flags = Flags { args };
    if let Err(m) = flags.validate(
        0,
        &[
            "--socket",
            "--state",
            "--slots",
            "--checkpoint-every",
            "--trace",
        ],
        &["--metrics", "--verbose"],
    ) {
        return usage_error(&m);
    }
    let Some(socket) = flags.get("--socket") else {
        return usage_error("serve start requires --socket PATH (or tcp:PORT)");
    };
    let Some(state) = flags.get("--state") else {
        return usage_error("serve start requires --state DIR");
    };
    let endpoint = match Endpoint::parse(socket) {
        Ok(e) => e,
        Err(m) => return usage_error(&m),
    };
    let slots: usize = match flags.parse_strict("--slots", 4usize) {
        Ok(0) => return usage_error("--slots must be at least 1"),
        Ok(v) => v,
        Err(m) => return usage_error(&m),
    };
    let checkpoint_every: u64 = match flags.parse_strict("--checkpoint-every", 1u64) {
        Ok(v) => v,
        Err(m) => return usage_error(&m),
    };
    let mut obs = match Observability::from_flags(&flags) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let config = ServeConfig {
        slots,
        checkpoint_every,
    };
    let service = match Service::open(std::path::Path::new(state), config) {
        Ok(s) => s.with_observer(obs.shared.clone()),
        Err(e) => {
            eprintln!("error: cannot open state dir '{state}': {e}");
            return ExitCode::FAILURE;
        }
    };
    if service.recovered_jobs() > 0 {
        eprintln!(
            "recovered {} in-flight job(s) from {state}",
            service.recovered_jobs()
        );
    }
    eprintln!("datasculpt-serve listening on {endpoint} (state: {state})");
    let code = match run_daemon(service, &endpoint) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("daemon failed: {e}");
            ExitCode::FAILURE
        }
    };
    if obs.close() {
        code
    } else {
        ExitCode::FAILURE
    }
}

fn serve_submit(args: &[String]) -> ExitCode {
    let flags = Flags { args };
    if let Err(m) = flags.validate(
        1,
        &[
            "--socket",
            "--tenant",
            "--budget",
            "--queries",
            "--scale",
            "--seed",
            "--config",
            "--model",
        ],
        &[],
    ) {
        return usage_error(&m);
    }
    let Some(dataset) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage_error(
            "serve submit expects the dataset name first (youtube sms imdb yelp agnews spouse)",
        );
    };
    let Some(tenant) = flags.get("--tenant") else {
        return usage_error("serve submit requires --tenant NAME");
    };
    let budget: u128 = match flags.parse_strict("--budget", 0u128) {
        Ok(v) => v,
        Err(m) => return usage_error(&m),
    };
    let queries: u64 = match flags.parse_strict("--queries", 8u64) {
        Ok(v) => v,
        Err(m) => return usage_error(&m),
    };
    let seed: u64 = match flags.parse_strict("--seed", 1u64) {
        Ok(v) => v,
        Err(m) => return usage_error(&m),
    };
    // Scale travels as a string on the (float-free) wire; check it parses
    // here so the daemon never sees a bad one.
    let scale = flags.get("--scale").unwrap_or("1");
    if scale.parse::<f64>().is_err() {
        return usage_error(&format!("flag --scale has unparseable value '{scale}'"));
    }
    let config = flags.get("--config").unwrap_or("base");
    let model = flags.get("--model").unwrap_or("gpt-3.5");
    use datasculpt::obs::jsonl::escape_json;
    let line = format!(
        "{{\"op\":\"submit\",\"tenant\":\"{}\",\"dataset\":\"{}\",\"config\":\"{}\",\
         \"model\":\"{}\",\"seed\":{seed},\"scale\":\"{}\",\"queries\":{queries},\
         \"budget_nanousd\":{budget}}}",
        escape_json(tenant),
        escape_json(dataset),
        escape_json(config),
        escape_json(model),
        escape_json(scale),
    );
    match serve_request(&flags, &line) {
        Ok(lines) => finish_reply(&lines),
        Err(code) => code,
    }
}

fn serve_status(args: &[String]) -> ExitCode {
    let flags = Flags { args };
    if let Err(m) = flags.validate(0, &["--socket", "--job"], &[]) {
        return usage_error(&m);
    }
    let line = match flags.parse_strict::<u64>("--job", 0) {
        Ok(_) if flags.has("--job") => {
            format!(
                "{{\"op\":\"status\",\"job\":{}}}",
                flags.get("--job").unwrap_or("0")
            )
        }
        Ok(_) => "{\"op\":\"status\"}".to_string(),
        Err(m) => return usage_error(&m),
    };
    match serve_request(&flags, &line) {
        Ok(lines) => finish_reply(&lines),
        Err(code) => code,
    }
}

fn serve_cancel(args: &[String]) -> ExitCode {
    let flags = Flags { args };
    if let Err(m) = flags.validate(0, &["--socket", "--job"], &[]) {
        return usage_error(&m);
    }
    if !flags.has("--job") {
        return usage_error("serve cancel requires --job N");
    }
    let job: u64 = match flags.parse_strict("--job", 0) {
        Ok(v) => v,
        Err(m) => return usage_error(&m),
    };
    match serve_request(&flags, &format!("{{\"op\":\"cancel\",\"job\":{job}}}")) {
        Ok(lines) => finish_reply(&lines),
        Err(code) => code,
    }
}

fn serve_drain(args: &[String]) -> ExitCode {
    let flags = Flags { args };
    if let Err(m) = flags.validate(0, &["--socket"], &[]) {
        return usage_error(&m);
    }
    match serve_request(&flags, "{\"op\":\"drain\"}") {
        Ok(lines) => finish_reply(&lines),
        Err(code) => code,
    }
}

fn serve_ping(args: &[String]) -> ExitCode {
    let flags = Flags { args };
    if let Err(m) = flags.validate(0, &["--socket"], &[]) {
        return usage_error(&m);
    }
    match serve_request(&flags, "{\"op\":\"ping\"}") {
        Ok(lines) => finish_reply(&lines),
        Err(code) => code,
    }
}

/// A client connection to the daemon (Unix socket or localhost TCP).
trait ServeStream: std::io::Read + std::io::Write {}
impl ServeStream for std::os::unix::net::UnixStream {}
impl ServeStream for std::net::TcpStream {}

/// Send one request line to a running daemon and collect its reply lines
/// (a status header announces how many job lines follow it).
fn serve_request(flags: &Flags, line: &str) -> Result<Vec<String>, ExitCode> {
    use std::io::{BufRead, BufReader, Write};
    let Some(socket) = flags.get("--socket") else {
        return Err(usage_error(
            "requires --socket PATH (or tcp:PORT) of a running daemon",
        ));
    };
    let endpoint = match Endpoint::parse(socket) {
        Ok(e) => e,
        Err(m) => return Err(usage_error(&m)),
    };
    let mut stream: Box<dyn ServeStream> = match &endpoint {
        Endpoint::Unix(path) => match std::os::unix::net::UnixStream::connect(path) {
            Ok(s) => Box::new(s),
            Err(e) => {
                eprintln!("error: cannot connect to {endpoint}: {e}");
                return Err(ExitCode::FAILURE);
            }
        },
        Endpoint::Tcp(port) => match std::net::TcpStream::connect(("127.0.0.1", *port)) {
            Ok(s) => Box::new(s),
            Err(e) => {
                eprintln!("error: cannot connect to {endpoint}: {e}");
                return Err(ExitCode::FAILURE);
            }
        },
    };
    let sent = stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush());
    if let Err(e) = sent {
        eprintln!("error: cannot send request to {endpoint}: {e}");
        return Err(ExitCode::FAILURE);
    }
    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    match reader.read_line(&mut first) {
        Ok(0) => {
            eprintln!("error: daemon closed the connection without answering");
            return Err(ExitCode::FAILURE);
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("error: cannot read reply: {e}");
            return Err(ExitCode::FAILURE);
        }
    }
    let header = first.trim_end().to_string();
    let mut follow = reply_job_count(&header);
    let mut lines = vec![header];
    while follow > 0 {
        let mut next = String::new();
        match reader.read_line(&mut next) {
            Ok(0) | Err(_) => break,
            Ok(_) => lines.push(next.trim_end().to_string()),
        }
        follow -= 1;
    }
    Ok(lines)
}

/// How many job lines follow a `{"ok":true,"jobs":N}` status header.
fn reply_job_count(header: &str) -> u128 {
    Fields::parse(header)
        .and_then(|f| f.uint("jobs"))
        .unwrap_or(0)
}

/// True when a reply line carries `"ok":true`.
fn reply_ok(line: &str) -> bool {
    Fields::parse(line)
        .and_then(|f| f.bool("ok"))
        .unwrap_or(false)
}

/// Print all reply lines; exit success iff the first line says `"ok":true`.
fn finish_reply(lines: &[String]) -> ExitCode {
    for line in lines {
        println!("{line}");
    }
    match lines.first() {
        Some(first) if reply_ok(first) => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    }
}

fn print_eval(eval: &PwsEvaluation, ledger: Option<&UsageLedger>) {
    println!("#LFs:           {}", eval.lf_stats.n_lfs);
    match eval.lf_stats.lf_accuracy {
        Some(acc) => println!("LF accuracy:    {acc:.3}"),
        None => println!("LF accuracy:    - (train ground truth unavailable)"),
    }
    println!("LF coverage:    {:.4}", eval.lf_stats.lf_coverage);
    println!("total coverage: {:.3}", eval.lf_stats.total_coverage);
    println!("end model {}:  {:.3}", eval.metric, eval.end_metric);
    if let Some(l) = ledger {
        let u = l.total_usage();
        println!(
            "tokens:         {} ({} prompt + {} completion)",
            u.total(),
            u.prompt_tokens,
            u.completion_tokens
        );
        println!("API cost:       ${:.4}", l.total_cost_usd());
    }
}

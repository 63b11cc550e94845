//! The two labeling-pipeline workloads: one full-scale DataSculpt-SC run
//! on Agnews (`agnews-sc`) and the PromptedLF baseline on its three
//! template-bearing tasks (`promptedlf`), each followed by the standard
//! label-model → end-model evaluation.

use crate::probe::{LlmTally, StageTimer, TimedModel};
use crate::report::{median, repeat_for, secs, timed_setup, Report};
use crate::Opts;
use datasculpt::baselines::promptedlf::promptedlf_template_count;
use datasculpt::core::eval::evaluate_matrix;
use datasculpt::endmodel::logreg::SparseRow;
use datasculpt::obs::{Counter, Stage};
use datasculpt::prelude::*;
use datasculpt::text::rng::derive_seed;
use datasculpt::text::HashedTfIdf;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Worker threads for `agnews-sc` (pipeline, evaluation and simulated LLM).
const AGNEWS_THREADS: usize = 2;
/// Dataset loads per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The simulated model every workload prompts.
const MODEL: ModelId = ModelId::Gpt35Turbo;
/// The PromptedLF tasks: the datasets that have its original templates.
const PROMPTED_TASKS: [DatasetName; 3] =
    [DatasetName::Youtube, DatasetName::Sms, DatasetName::Spouse];

fn scale(opts: &Opts) -> f64 {
    if opts.smoke {
        0.02
    } else {
        1.0
    }
}

/// What one untraced or traced pass over a workload produced.
struct Pass {
    wall_s: f64,
    digests: Vec<u64>,
    end_metrics: Vec<f64>,
    cost_nanousd: u128,
    ok: Vec<bool>,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            wall_s: 0.0,
            digests: Vec::new(),
            end_metrics: Vec::new(),
            cost_nanousd: 0,
            ok: Vec::new(),
        }
    }
}

/// What a traced pass attaches and collects.
#[derive(Default)]
struct Probes {
    tally: Arc<LlmTally>,
    timer: StageTimer,
    /// Time inside the evaluation calls.
    eval_s: f64,
    /// Each run's weak-label matrix, for [`replay_eval`].
    matrices: Vec<LabelMatrix>,
}

// ---------------------------------------------------------------- agnews-sc

struct Agnews<'a> {
    dataset: &'a TextDataset,
    seed: u64,
    config: DataSculptConfig,
    eval: EvalConfig,
}

impl Agnews<'_> {
    /// One run + evaluation. With `probes`, the model is wrapped and the
    /// stage spans and the evaluation call are timed.
    fn pass(&self, r: &mut Report, mut probes: Option<&mut Probes>) -> Pass {
        let llm = SimulatedLlm::new(MODEL, self.dataset.generative.clone(), self.seed)
            .with_pool(Pool::new(AGNEWS_THREADS));
        let pipeline = DataSculpt::new(self.dataset, self.config);
        let t0 = Instant::now();
        let run = match probes.as_deref_mut() {
            None => pipeline.run(&mut { llm }),
            Some(p) => {
                pipeline.run_observed(&mut TimedModel::new(llm, p.tally.clone()), &mut p.timer)
            }
        };
        let te = Instant::now();
        let mut pass = Pass::new();
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                r.check(false, format!("agnews-sc: run failed: {e}"));
                pass.ok.push(false);
                return pass;
            }
        };
        let eval = evaluate_lf_set(self.dataset, &run.lf_set, &self.eval);
        pass.wall_s = secs(t0);
        if let Some(p) = probes {
            p.eval_s += pass.wall_s - (te - t0).as_secs_f64();
            p.matrices.push(run.lf_set.train_matrix().clone());
        }
        let a = r.check(
            run.failed_iterations() == 0,
            "agnews-sc: no failed iterations",
        );
        let b = r.check(!run.lf_set.is_empty(), "agnews-sc: the LF set is non-empty");
        let c = r.check(
            eval.end_metric.is_finite(),
            "agnews-sc: end_metric is finite",
        );
        let d = r.check(
            run.ledger.total_cost_nanousd() > 0,
            "agnews-sc: the run was billed",
        );
        pass.ok.push(a && b && c && d);
        pass.digests.push(run.digest());
        pass.end_metrics.push(eval.end_metric);
        pass.cost_nanousd = run.ledger.total_cost_nanousd();
        pass
    }
}

pub fn agnews_sc(opts: &Opts) -> Report {
    let mut r = Report::default();
    let (dataset, setup_s) = timed_setup(SETUP_REPS, || {
        DatasetName::Agnews.load_scaled(opts.seed, scale(opts))
    });
    r.real("setup_s", "s", setup_s);
    let w = Agnews {
        dataset: &dataset,
        seed: opts.seed,
        config: DataSculptConfig {
            threads: AGNEWS_THREADS,
            ..DataSculptConfig::sc(opts.seed)
        },
        eval: EvalConfig {
            threads: AGNEWS_THREADS,
            ..EvalConfig::default()
        },
    };
    r.note(format!(
        "agnews-sc: DataSculpt-SC, {} queries x {} samples, {} train rows, {} threads, seed {}",
        w.config.num_queries,
        w.config.samples_per_query,
        dataset.train.len(),
        AGNEWS_THREADS,
        opts.seed
    ));

    if !opts.trace {
        let passes = repeat_for(opts.seconds, || w.pass(&mut r, None));
        return finish_untraced(r, &passes, "agnews-sc");
    }

    let plain = w.pass(&mut r, None);
    let mut p = Probes::default();
    let traced = w.pass(&mut r, Some(&mut p));
    let same = compare_passes(&mut r, &plain, &traced, "agnews-sc");
    count_operations(&mut r, &plain, &traced, same);
    r.real("data.generate_s", "s", setup_s);
    fill_core(&mut r, &p);
    for matrix in &p.matrices {
        replay_eval(&mut r, &dataset, matrix, &w.eval);
    }
    fill_llm(&mut r, &p.tally, p.timer.counter(Counter::ParseFailure));
    r.exact("exec.threads", "count", AGNEWS_THREADS as u128);
    r.real("endmodel.test_metric", "ratio", mean(&traced.end_metrics));
    fill_trace(
        &mut r,
        plain.wall_s,
        traced.wall_s,
        &[
            "core.context_s",
            "core.select_s",
            "core.prompt_s",
            "core.generate_s",
            "llm.busy_s",
            "core.integrate_s",
            "core.eval_s",
        ],
    );
    let measured = leaves(
        &r,
        &[
            "core.context_s",
            "core.select_s",
            "core.prompt_s",
            "core.generate_s",
            "llm.busy_s",
            "core.integrate_s",
            "labelmodel.fit_s",
            "text.tfidf_s",
            "endmodel.fit_s",
            "core.eval_rest_s",
        ],
    );
    dominant(
        &mut r,
        traced.wall_s,
        &["endmodel.fit_s", "core.integrate_s", "core.context_s"],
        measured,
    );
    r
}

// --------------------------------------------------------------- promptedlf

struct Task {
    name: DatasetName,
    dataset: TextDataset,
}

/// The three tasks in order, each a PromptedLF run + evaluation at one
/// thread. With `probes`, the model is wrapped and the annotate spans and
/// the evaluation calls are timed.
fn prompted_pass(
    r: &mut Report,
    tasks: &[Task],
    seed: u64,
    mut probes: Option<&mut Probes>,
) -> Pass {
    let eval_cfg = EvalConfig::default();
    let mut pass = Pass::new();
    for task in tasks {
        let llm = SimulatedLlm::new(MODEL, task.dataset.generative.clone(), seed);
        let t0 = Instant::now();
        let result = match probes.as_deref_mut() {
            None => promptedlf_run(&task.dataset, &mut { llm }),
            Some(p) => promptedlf_run_observed(
                &task.dataset,
                &mut TimedModel::new(llm, p.tally.clone()),
                &mut p.timer,
            ),
        };
        let te = Instant::now();
        let eval = evaluate_matrix(&task.dataset, &result.matrix, &eval_cfg);
        let took = secs(t0);
        pass.wall_s += took;
        if let Some(p) = probes.as_deref_mut() {
            p.eval_s += took - (te - t0).as_secs_f64();
            p.matrices.push(result.matrix.clone());
        }
        let expected = (task.dataset.train.len() * promptedlf_template_count(task.name)) as u64;
        let name = task.name.as_str();
        let a = r.check(
            result.ledger.calls() == expected,
            format!(
                "promptedlf/{name}: {} calls billed, |train| x templates = {expected}",
                result.ledger.calls()
            ),
        );
        let b = r.check(
            result.failed_calls == 0,
            format!("promptedlf/{name}: {} failed calls", result.failed_calls),
        );
        let c = r.check(
            eval.end_metric.is_finite(),
            format!("promptedlf/{name}: end_metric is finite"),
        );
        pass.ok.push(a && b && c);
        pass.digests.push(matrix_digest(&result.matrix));
        pass.end_metrics.push(eval.end_metric);
        pass.cost_nanousd += result.ledger.total_cost_nanousd();
    }
    pass
}

pub fn promptedlf(opts: &Opts) -> Report {
    let mut r = Report::default();
    let (tasks, setup_s) = timed_setup(SETUP_REPS, || {
        PROMPTED_TASKS
            .iter()
            .map(|&name| Task {
                name,
                dataset: name.load_scaled(opts.seed, scale(opts)),
            })
            .collect::<Vec<_>>()
    });
    r.real("setup_s", "s", setup_s);
    let expected_calls: usize = tasks
        .iter()
        .map(|t| t.dataset.train.len() * promptedlf_template_count(t.name))
        .sum();
    r.note(format!(
        "promptedlf: youtube/sms/spouse, {expected_calls} simulated-LLM calls, 1 thread, seed {}",
        opts.seed
    ));

    if !opts.trace {
        let passes = repeat_for(opts.seconds, || {
            prompted_pass(&mut r, &tasks, opts.seed, None)
        });
        return finish_untraced(r, &passes, "promptedlf");
    }

    let plain = prompted_pass(&mut r, &tasks, opts.seed, None);
    let mut p = Probes::default();
    let traced = prompted_pass(&mut r, &tasks, opts.seed, Some(&mut p));
    let same = compare_passes(&mut r, &plain, &traced, "promptedlf");
    let calls_ok = r.check(
        p.tally.calls() == expected_calls as u64,
        format!(
            "promptedlf: llm.calls {} = sum of |train| x templates {expected_calls}",
            p.tally.calls()
        ),
    );
    count_operations(&mut r, &plain, &traced, same && calls_ok);
    r.real("data.generate_s", "s", setup_s);
    fill_core(&mut r, &p);
    // Annotate spans minus the model calls inside them: prompt rendering
    // and label parsing.
    r.real(
        "baselines.annotate_s",
        "s",
        p.timer.stage_s(Stage::Annotate) - p.tally.busy_s(),
    );
    for (task, matrix) in tasks.iter().zip(&p.matrices) {
        replay_eval(&mut r, &task.dataset, matrix, &EvalConfig::default());
    }
    fill_llm(&mut r, &p.tally, p.timer.counter(Counter::ParseFailure));
    r.exact("exec.threads", "count", 1);
    r.real("endmodel.test_metric", "ratio", mean(&traced.end_metrics));
    fill_trace(
        &mut r,
        plain.wall_s,
        traced.wall_s,
        &["baselines.annotate_s", "llm.busy_s", "core.eval_s"],
    );
    let measured = leaves(
        &r,
        &[
            "baselines.annotate_s",
            "llm.busy_s",
            "labelmodel.fit_s",
            "text.tfidf_s",
            "endmodel.fit_s",
            "core.eval_rest_s",
        ],
    );
    dominant(&mut r, traced.wall_s, &["llm.busy_s"], measured);
    r
}

// ------------------------------------------------------------------ shared

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// A digest of a weak-label matrix, so the untraced and traced PromptedLF
/// passes can be compared vote for vote.
fn matrix_digest(m: &LabelMatrix) -> u64 {
    let shape = derive_seed(m.rows() as u64, m.cols() as u64);
    m.columns()
        .flatten()
        .fold(shape, |h, &vote| derive_seed(h, vote as u64))
}

/// End-to-end metrics of the untraced passes: the median wall time, and
/// the exact cost and quality of the (identical) passes.
fn finish_untraced(mut r: Report, passes: &[Pass], what: &str) -> Report {
    let first = &passes[0];
    for p in passes {
        let same = p.digests == first.digests && p.cost_nanousd == first.cost_nanousd;
        let same = r.check(same, format!("{what}: repeated passes are identical"));
        for ok in &p.ok {
            r.operation(*ok && same);
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    r.note(format!(
        "{what}: {} timed pass(es), wall times {walls:?} s",
        passes.len()
    ));
    r.note(format!(
        "{what}: end_metric {:.6} (ratio)",
        mean(&first.end_metrics)
    ));
    r.real("wall_s", "s", median(&walls));
    r.exact("llm_cost_nanousd", "nanousd", first.cost_nanousd);
    r
}

/// Observation is write-only: the traced pass must reproduce the untraced
/// one exactly. Returns whether it did.
fn compare_passes(r: &mut Report, plain: &Pass, traced: &Pass, what: &str) -> bool {
    let digests = r.check(
        plain.digests == traced.digests,
        format!(
            "{what}: untraced and traced digests agree ({:x?} vs {:x?})",
            plain.digests, traced.digests
        ),
    );
    let same_metric = plain
        .end_metrics
        .iter()
        .zip(&traced.end_metrics)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let metrics = r.check(
        same_metric,
        format!("{what}: untraced and traced end metrics agree"),
    );
    let costs = r.check(
        plain.cost_nanousd == traced.cost_nanousd,
        format!("{what}: untraced and traced costs agree"),
    );
    digests && metrics && costs
}

/// Each untraced operation counts on its own checks; each traced one also
/// on the cross-pass checks in `same`.
fn count_operations(r: &mut Report, plain: &Pass, traced: &Pass, same: bool) {
    for ok in &plain.ok {
        r.operation(*ok);
    }
    for ok in &traced.ok {
        r.operation(*ok && same);
    }
}

fn fill_core(r: &mut Report, p: &Probes) {
    let (timer, tally) = (&p.timer, &p.tally);
    r.real("core.context_s", "s", timer.context_s());
    r.real("core.select_s", "s", timer.stage_s(Stage::Select));
    r.real("core.prompt_s", "s", timer.stage_s(Stage::Prompt));
    let generate = timer.stage_s(Stage::Generate);
    r.real(
        "core.generate_s",
        "s",
        if generate > 0.0 {
            generate - tally.busy_s()
        } else {
            0.0
        },
    );
    r.real("core.integrate_s", "s", timer.stage_s(Stage::Integrate));
    let accepted = timer.counter(Counter::LfAccepted);
    let offered = accepted
        + timer.counter(Counter::LfDuplicate)
        + timer.counter(Counter::LfRejectedValidity)
        + timer.counter(Counter::LfRejectedAccuracy)
        + timer.counter(Counter::LfRejectedRedundancy);
    r.exact("core.lf_offered", "count", offered.into());
    r.exact("core.lf_accepted", "count", accepted.into());
    r.real("core.accept_ratio", "ratio", ratio(accepted, offered));
    r.real("core.eval_s", "s", p.eval_s);
}

pub fn fill_llm(r: &mut Report, tally: &LlmTally, parse_failures: u64) {
    r.check(
        tally.errors() == 0,
        format!("llm: {} backend calls failed", tally.errors()),
    );
    r.exact("llm.calls", "count", tally.calls().into());
    r.real("llm.busy_s", "s", tally.busy_s());
    r.real(
        "llm.us_per_call",
        "us",
        1e6 * tally.busy_s() / tally.calls().max(1) as f64,
    );
    r.exact("llm.prompt_tokens", "count", tally.prompt_tokens().into());
    r.exact(
        "llm.completion_tokens",
        "count",
        tally.completion_tokens().into(),
    );
    r.real(
        "llm.parse_fail_ratio",
        "ratio",
        ratio(parse_failures, tally.choices()),
    );
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Time the evaluation's layers by calling them directly, with the
/// evaluation's own settings, on the run's own weak-label matrix: the
/// label model (fit + posteriors), the TF-IDF featurizer (fit on train,
/// transform of the covered train rows and the test rows) and the end
/// model (fit on the covered rows). Adds to the per-layer totals, and sets
/// `core.eval_rest_s` to what the evaluation spent outside these layers.
/// The relation task's anchor-window features (a few extra nonzeros per
/// row) are left out of the replay.
pub fn replay_eval(r: &mut Report, dataset: &TextDataset, matrix: &LabelMatrix, cfg: &EvalConfig) {
    let n_classes = dataset.n_classes();
    let add = |r: &mut Report, name: &'static str, unit: &'static str, v: f64| {
        let prev = r.get(name).unwrap_or(0.0);
        r.real(name, unit, prev + v);
    };
    let votes: u64 = matrix.active_counts().iter().map(|&c| u64::from(c)).sum();
    add(r, "labelmodel.cols", "count", matrix.cols() as f64);
    add(r, "labelmodel.votes", "count", votes as f64);
    if matrix.cols() == 0 || matrix.total_coverage() == 0.0 {
        return;
    }
    let metal = match cfg.label_model {
        LabelModelKind::Metal(c) => c,
        _ => MetalConfig::default(),
    };
    let t = Instant::now();
    let mut lm = MetalModel::new()
        .with_config(metal)
        .with_class_balance(dataset.valid.class_distribution(n_classes))
        .with_max_iter(cfg.label_model_iters)
        .with_pool(Pool::new(cfg.threads));
    lm.fit(matrix, n_classes);
    let mut probs = lm.predict_proba(matrix);
    add(r, "labelmodel.fit_s", "s", secs(t));
    if let Some(dc) = dataset.spec.default_class {
        probs.apply_default_class(dc);
    }
    let covered = probs.covered_indices();

    let t = Instant::now();
    let mut tfidf = HashedTfIdf::new(cfg.feature_dim, cfg.feature_order);
    tfidf.fit(dataset.train.iter().map(|i| i.tokens.as_slice()));
    let row = |tokens: &[String]| -> SparseRow {
        tfidf
            .transform_sparse(tokens)
            .into_iter()
            .map(|(d, v)| (d as u32, v))
            .collect()
    };
    let x_train: Vec<SparseRow> = covered
        .iter()
        .filter_map(|&i| dataset.train.instances.get(i))
        .map(|inst| row(&inst.tokens))
        .collect();
    let x_test: Vec<SparseRow> = dataset.test.iter().map(|inst| row(&inst.tokens)).collect();
    add(r, "text.tfidf_s", "s", secs(t));

    // Hard targets and balanced weights, as the evaluation trains with.
    let hard: Vec<usize> = covered
        .iter()
        .map(|&i| {
            let p = probs.row(i);
            (0..p.len()).fold(0, |best, c| if p[c] > p[best] { c } else { best })
        })
        .collect();
    let mut counts = vec![0usize; n_classes];
    for &h in &hard {
        counts[h] += 1;
    }
    let targets: Vec<Vec<f64>> = hard
        .iter()
        .map(|&h| {
            (0..n_classes)
                .map(|c| f64::from(u8::from(c == h)))
                .collect()
        })
        .collect();
    let n_cov = covered.len().max(1) as f64;
    let weights: Vec<f64> = hard
        .iter()
        .map(|&h| n_cov / (n_classes as f64 * counts[h].max(1) as f64))
        .collect();
    let t = Instant::now();
    let mut end = SoftmaxRegression::new(cfg.feature_dim, n_classes);
    end.fit_sparse(&x_train, &targets, Some(&weights), &cfg.train);
    add(r, "endmodel.fit_s", "s", secs(t));
    add(r, "endmodel.rows", "count", covered.len() as f64);
    black_box(end.predict_sparse(&x_test));

    let layers: f64 = ["labelmodel.fit_s", "text.tfidf_s", "endmodel.fit_s"]
        .iter()
        .filter_map(|n| r.get(n))
        .sum();
    let eval = r.get("core.eval_s").unwrap_or(0.0);
    r.real("core.eval_rest_s", "s", eval - layers);
}

/// Traced-run bookkeeping: traced wall, overhead against the untraced
/// pass, and the remainder after the disjoint layer times in `parts`.
pub fn fill_trace(r: &mut Report, plain_wall: f64, traced_wall: f64, parts: &[&str]) {
    let layers: f64 = parts.iter().filter_map(|n| r.get(n)).sum();
    r.real("trace.wall_s", "s", traced_wall);
    r.real("trace.overhead_s", "s", traced_wall - plain_wall);
    r.real("trace.other_s", "s", traced_wall - layers);
    let shown: Vec<String> = parts
        .iter()
        .map(|n| format!("{n} {:.3}", r.get(n).unwrap_or(0.0)))
        .collect();
    r.note(format!(
        "reconcile: traced wall {traced_wall:.3} s = {} + trace.other_s {:.3}",
        shown.join(" + "),
        traced_wall - layers
    ));
}

/// The named metrics' values, as leaves for [`dominant`].
fn leaves(r: &Report, names: &[&'static str]) -> Vec<(&'static str, f64)> {
    names
        .iter()
        .map(|n| (*n, r.get(n).unwrap_or(0.0)))
        .collect()
}

/// Print the predicted dominant layers next to the measured ranking of
/// the disjoint leaf layers, and whether they match.
pub fn dominant(r: &mut Report, wall: f64, predicted: &[&str], leaves: Vec<(&'static str, f64)>) {
    let mut ranked = leaves;
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<&str> = ranked
        .iter()
        .take(predicted.len())
        .map(|(n, _)| *n)
        .collect();
    let shown: Vec<String> = ranked
        .iter()
        .map(|(n, v)| format!("{n} {:.1}%", 100.0 * v / wall.max(1e-9)))
        .collect();
    r.note(format!(
        "dominant layers predicted: {}",
        predicted.join(" + ")
    ));
    r.note(format!("dominant layers measured:  {}", shown.join(", ")));
    let matched = predicted.iter().all(|p| top.contains(p));
    r.note(if matched {
        "dominant layers: match the prediction".to_string()
    } else {
        format!(
            "dominant layers: MISMATCH, the top {} are {}",
            top.len(),
            top.join(" + ")
        )
    });
}

//! Hot-path kernel benchmarks behind `BENCH_hotpath.json`.
//!
//! The columnar refactor (PR 6) moved the vote matrix to an LF-major
//! layout and the gram index onto an interned-symbol CSR. This module
//! keeps the *pre-refactor* kernels alive as explicit baselines — a
//! row-major MeTaL EM fit ([`RowMajorMetal`], a direct port of the old
//! `posterior_row` code over [`RowMajorMatrix`]) and the per-document
//! token-scan LF apply — and times both sides of each comparison with a
//! median-of-iterations wall-clock harness. The same harness times the
//! end-model fit (`endmodel-fit`), the largest layer of a full run, and
//! the simulated LLM answering PromptedLF's label-only requests
//! (`llm-annotate`), the largest layer of the PromptedLF baseline.
//!
//! Consumers:
//!
//! * `src/bin/hotpath.rs` — emits `BENCH_hotpath.json` (schema:
//!   `docs/perf.md`); `scripts/bench.sh` wraps it and `scripts/check.sh`
//!   runs the one-iteration `--check` mode as a schema smoke test. It is
//!   the workspace's only kernel-timing harness.

use datasculpt::core::index::NgramIndex;
use datasculpt::core::prompt::label_only_messages;
use datasculpt::endmodel::logreg::SparseRow;
use datasculpt::exec::{shard_ranges, DEFAULT_SHARDS};
use datasculpt::labelmodel::{LabelMatrix, RowMajorMatrix, ABSTAIN};
use datasculpt::prelude::*;
use datasculpt::text::HashedTfIdf;
use std::hint::black_box;

/// EM hyper-parameters mirrored from `MetalConfig::default()` so the
/// baseline fit does the same numerical work as the columnar model.
const SMOOTH_STRENGTH: f64 = 5.0;
const ACCURACY_TILT: f64 = 1.9;
const ABSTAIN_EVIDENCE_SCALE: f64 = 0.25;
const UPDATE_DAMPING: f64 = 0.5;

/// Serial, row-major MeTaL EM fit: a faithful port of the pre-refactor
/// implementation (per-row `posterior_row`, row-major vote-mass scatter).
/// Exists only as a benchmark baseline for the columnar [`MetalModel`].
pub struct RowMajorMetal {
    n_classes: usize,
    theta: Vec<f64>,
    prior: Vec<f64>,
    max_iter: usize,
    tol: f64,
}

impl RowMajorMetal {
    /// A baseline model capped at `max_iter` EM iterations.
    pub fn new(max_iter: usize) -> Self {
        Self {
            n_classes: 0,
            theta: Vec::new(),
            prior: Vec::new(),
            max_iter: max_iter.max(1),
            tol: 1e-5,
        }
    }

    fn posterior_row(
        &self,
        votes: &[i32],
        prior: &[f64],
        base: &[f64],
        ltheta: &[f64],
    ) -> Vec<f64> {
        let c = self.n_classes;
        let mut logp: Vec<f64> = prior
            .iter()
            .zip(base)
            .map(|(&p, &b)| p.max(1e-12).ln() + b)
            .collect();
        for (j, &v) in votes.iter().enumerate() {
            if v == ABSTAIN {
                continue;
            }
            let v = v as usize;
            let off = j * c * (c + 1);
            let lt_j = ltheta.get(off..off + c * (c + 1)).unwrap_or(&[]);
            for (lp, row) in logp.iter_mut().zip(lt_j.chunks_exact(c + 1)) {
                let Some((&labst, active)) = row.split_last() else {
                    continue;
                };
                *lp += active.get(v).copied().unwrap_or(0.0) - ABSTAIN_EVIDENCE_SCALE * labst;
            }
        }
        let m = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut probs: Vec<f64> = logp.iter().map(|lp| (lp - m).exp()).collect();
        let z: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= z;
        }
        probs
    }

    /// The pre-refactor fit loop: row-major E-step, damped M-step.
    pub fn fit(&mut self, matrix: &RowMajorMatrix, n_classes: usize) {
        assert!(n_classes >= 2, "need at least two classes");
        self.n_classes = n_classes;
        let c = n_classes;
        let m = matrix.cols();
        let n = matrix.rows();
        self.theta = vec![0.0; m * c * (c + 1)];
        self.prior = vec![1.0 / c as f64; c];
        if m == 0 || n == 0 {
            return;
        }
        let mut marginal = vec![0.0f64; m * (c + 1)];
        for i in 0..n {
            for (j, &v) in matrix.row(i).iter().enumerate() {
                let v = if v == ABSTAIN { c } else { v as usize };
                if let Some(slot) = marginal.get_mut(j * (c + 1) + v) {
                    *slot += 1.0;
                }
            }
        }
        for e in marginal.iter_mut() {
            *e = (*e + 0.5) / (n as f64 + 0.5 * (c + 1) as f64);
        }
        let mut pseudo = vec![0.0f64; m * c * (c + 1)];
        for j in 0..m {
            for y in 0..c {
                for v in 0..=c {
                    let tilt = if v == y {
                        ACCURACY_TILT
                    } else if v < c {
                        ((c as f64 - ACCURACY_TILT) / (c as f64 - 1.0)).max(0.2)
                    } else {
                        1.0
                    };
                    let mrg = marginal.get(j * (c + 1) + v).copied().unwrap_or(0.0);
                    if let Some(slot) = pseudo.get_mut(j * c * (c + 1) + y * (c + 1) + v) {
                        *slot = SMOOTH_STRENGTH * mrg * tilt;
                    }
                }
            }
        }
        for j in 0..m {
            for y in 0..c {
                let off = j * c * (c + 1) + y * (c + 1);
                let prow = pseudo.get(off..off + c + 1).unwrap_or(&[]);
                let z: f64 = prow.iter().sum();
                if let Some(trow) = self.theta.get_mut(off..off + c + 1) {
                    for (t, p) in trow.iter_mut().zip(prow) {
                        *t = p / z;
                    }
                }
            }
        }
        let fit_prior = self.prior.clone();
        let mut prior_estimate = fit_prior.clone();
        for _ in 0..self.max_iter {
            let ltheta: Vec<f64> = self.theta.iter().map(|t| t.max(1e-12).ln()).collect();
            let base: Vec<f64> = (0..c)
                .map(|y| {
                    ABSTAIN_EVIDENCE_SCALE
                        * (0..m)
                            .map(|j| {
                                ltheta
                                    .get(j * c * (c + 1) + y * (c + 1) + c)
                                    .copied()
                                    .unwrap_or(0.0)
                            })
                            .sum::<f64>()
                })
                .collect();
            // Per-shard partial accumulators merged left-to-right, exactly
            // like the sharded production E-step (same shard count, same
            // merge order), so the accumulated floats are bit-identical.
            let mut vote_mass = vec![0.0f64; m * c * (c + 1)];
            let mut total_mass = vec![0.0f64; c];
            for range in shard_ranges(n, DEFAULT_SHARDS) {
                let mut vm = vec![0.0f64; m * c * (c + 1)];
                let mut tm = vec![0.0f64; c];
                for i in range {
                    let votes = matrix.row(i);
                    let post = self.posterior_row(votes, &fit_prior, &base, &ltheta);
                    for (t, p) in tm.iter_mut().zip(&post) {
                        *t += p;
                    }
                    for (j, &v) in votes.iter().enumerate() {
                        if v == ABSTAIN {
                            continue;
                        }
                        for (y, p) in post.iter().enumerate() {
                            let off = j * c * (c + 1) + y * (c + 1) + v as usize;
                            if let Some(slot) = vm.get_mut(off) {
                                *slot += p;
                            }
                        }
                    }
                }
                for (acc, p) in vote_mass.iter_mut().zip(&vm) {
                    *acc += p;
                }
                for (acc, p) in total_mass.iter_mut().zip(&tm) {
                    *acc += p;
                }
            }
            let mut delta = 0.0f64;
            for j in 0..m {
                for (y, &tmass) in total_mass.iter().enumerate() {
                    let off = j * c * (c + 1) + y * (c + 1);
                    let vrow = vote_mass.get(off..off + c + 1).unwrap_or(&[]);
                    let prow = pseudo.get(off..off + c + 1).unwrap_or(&[]);
                    let votes_v = vrow.get(..c).unwrap_or(&[]);
                    let active_mass: f64 = votes_v.iter().sum();
                    let abst = (tmass - active_mass).max(0.0);
                    let mut counts: Vec<f64> = votes_v
                        .iter()
                        .zip(prow.get(..c).unwrap_or(&[]))
                        .map(|(v, p)| v + p)
                        .collect();
                    counts.push(abst + prow.get(c).copied().unwrap_or(0.0));
                    let z: f64 = counts.iter().sum();
                    if let Some(trow) = self.theta.get_mut(off..off + c + 1) {
                        for (cnt, t) in counts.iter().zip(trow.iter_mut()) {
                            let hat = cnt / z;
                            let new = (1.0 - UPDATE_DAMPING) * *t + UPDATE_DAMPING * hat;
                            delta += (new - *t).abs();
                            *t = new;
                        }
                    }
                }
            }
            let z: f64 = total_mass.iter().sum();
            prior_estimate = total_mass.iter().map(|t| t / z).collect();
            if delta / (m as f64 * c as f64) < self.tol {
                break;
            }
        }
        self.prior = prior_estimate;
    }

    /// The pre-refactor prediction loop: per-row posterior, uniform on
    /// uncovered rows.
    pub fn predict_proba(&self, matrix: &RowMajorMatrix) -> Vec<Vec<f64>> {
        let c = self.n_classes;
        let ltheta: Vec<f64> = self.theta.iter().map(|t| t.max(1e-12).ln()).collect();
        let base: Vec<f64> = (0..c)
            .map(|y| {
                ABSTAIN_EVIDENCE_SCALE
                    * (0..matrix.cols())
                        .map(|j| {
                            ltheta
                                .get(j * c * (c + 1) + y * (c + 1) + c)
                                .copied()
                                .unwrap_or(0.0)
                        })
                        .sum::<f64>()
            })
            .collect();
        (0..matrix.rows())
            .map(|i| {
                let votes = matrix.row(i);
                if votes.iter().all(|&v| v == ABSTAIN) {
                    vec![1.0 / c as f64; c]
                } else {
                    self.posterior_row(votes, &self.prior, &base, &ltheta)
                }
            })
            .collect()
    }

    /// The fitted θ table (for sanity checks against the columnar model).
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }
}

/// Everything a kernel needs, loaded once per report.
pub struct HotpathFixture {
    /// Dataset under measurement.
    pub dataset: TextDataset,
    /// Built gram index over the train split.
    pub index: NgramIndex,
    /// The LFs applied in the apply kernels.
    pub lfs: Vec<KeywordLf>,
    /// Columnar vote matrix of `lfs` over the train split.
    pub matrix: LabelMatrix,
    /// Row-major copy of `matrix` for the baseline kernels.
    pub row_major: RowMajorMatrix,
    /// Number of classes.
    pub n_classes: usize,
    /// Labeled train rows as 32 768-dim hashed TF-IDF features.
    pub end_rows: Vec<SparseRow>,
    /// Ground-truth one-hot targets for `end_rows`.
    pub end_targets: Vec<Vec<f64>>,
    /// PromptedLF's label-only request for every train instance under
    /// its first template.
    pub annotate_requests: Vec<ChatRequest>,
}

/// EM iteration cap shared by both E-step kernels.
pub const ESTEP_ITERS: usize = 10;
/// LF pool size for the fixture.
pub const FIXTURE_LFS: usize = 40;
/// Epoch count of the end-model kernel (the eval trains 150).
pub const ENDMODEL_EPOCHS: usize = 10;
/// Feature dimensionality of the end-model kernel (the eval's default).
const ENDMODEL_DIM: usize = 32_768;

impl HotpathFixture {
    /// Load `name` at `scale` and precompute the shared kernel inputs.
    pub fn load(name: DatasetName, scale: f64) -> Self {
        let dataset = if (scale - 1.0).abs() < 1e-12 {
            name.load(1)
        } else {
            name.load_scaled(1, scale)
        };
        let index = NgramIndex::build(&dataset.train);
        let mut set = LfSet::new(&dataset, FilterConfig::validity_only());
        for lf in wrench_expert_lfs(&dataset, FIXTURE_LFS) {
            set.try_add(lf);
        }
        let lfs = set.lfs().to_vec();
        let matrix = set.train_matrix().clone();
        let columns: Vec<Vec<i32>> = (0..matrix.cols())
            .map(|j| matrix.column(j).to_vec())
            .collect();
        let row_major = RowMajorMatrix::from_columns(&columns, matrix.rows());
        let n_classes = dataset.n_classes();
        let mut tfidf = HashedTfIdf::new(ENDMODEL_DIM, 1);
        tfidf.fit(dataset.train.iter().map(|i| i.tokens.as_slice()));
        let (end_rows, end_targets) = dataset
            .train
            .iter()
            .filter_map(|inst| {
                let y = inst.label?;
                let row: SparseRow = tfidf
                    .transform_sparse(&inst.tokens)
                    .into_iter()
                    .map(|(d, v)| (d as u32, v))
                    .collect();
                let mut target = vec![0.0; n_classes];
                *target.get_mut(y)? = 1.0;
                Some((row, target))
            })
            .unzip();
        let template = promptedlf_templates(&dataset)
            .into_iter()
            .next()
            .unwrap_or_default();
        let annotate_requests = dataset
            .train
            .iter()
            .map(|inst| {
                let messages = label_only_messages(&dataset.spec, &template, &inst.prompt_text());
                ChatRequest::new(messages).with_temperature(0.7)
            })
            .collect();
        Self {
            dataset,
            index,
            lfs,
            matrix,
            row_major,
            n_classes,
            end_rows,
            end_targets,
            annotate_requests,
        }
    }

    /// Kernel: build the gram index (arena + CSR) from the train split.
    pub fn kernel_index_build(&self) {
        black_box(NgramIndex::build(&self.dataset.train));
    }

    /// Kernel: apply every fixture LF through the interned CSR index.
    pub fn kernel_lf_apply(&self) {
        for lf in &self.lfs {
            black_box(self.index.apply(lf));
        }
    }

    /// Baseline kernel: apply every fixture LF by scanning each
    /// document's tokens (the pre-index row-major path).
    pub fn kernel_lf_apply_rowscan(&self) {
        for lf in &self.lfs {
            black_box(lf.apply(&self.dataset.train));
        }
    }

    /// Kernel: columnar MeTaL EM fit ([`ESTEP_ITERS`] iterations).
    pub fn kernel_metal_estep(&self) {
        let mut lm = MetalModel::new().with_max_iter(ESTEP_ITERS);
        lm.fit(black_box(&self.matrix), self.n_classes);
        black_box(lm);
    }

    /// Baseline kernel: row-major MeTaL EM fit, same iteration cap.
    pub fn kernel_metal_estep_rowmajor(&self) {
        let mut lm = RowMajorMetal::new(ESTEP_ITERS);
        lm.fit(black_box(&self.row_major), self.n_classes);
        black_box(lm);
    }

    /// Kernel: hashed TF-IDF featurization (fit + sparse transform) over
    /// the train split through the arena-backed symbol caches.
    pub fn kernel_tfidf(&self) {
        let mut tfidf = HashedTfIdf::new(32_768, 1);
        tfidf.fit(self.dataset.train.iter().map(|i| i.tokens.as_slice()));
        for inst in self.dataset.train.iter() {
            black_box(tfidf.transform_sparse(&inst.tokens));
        }
    }

    /// Kernel: end-model training — [`SoftmaxRegression::fit_sparse`] on
    /// the labeled train rows with the eval's [`TrainConfig`], cut to
    /// [`ENDMODEL_EPOCHS`] epochs.
    pub fn kernel_endmodel_fit(&self) {
        let config = TrainConfig {
            epochs: ENDMODEL_EPOCHS,
            ..EvalConfig::default().train
        };
        let mut model = SoftmaxRegression::new(ENDMODEL_DIM, self.n_classes);
        model.fit_sparse(
            black_box(&self.end_rows),
            black_box(&self.end_targets),
            None,
            &config,
        );
        black_box(model);
    }

    /// Kernel: a fresh serial [`SimulatedLlm`] answers the fixture's
    /// label-only requests through [`ChatModel::complete_batch`], as one
    /// PromptedLF template column does. The requests are prebuilt, so
    /// only the simulator (construction included) is timed.
    pub fn kernel_llm_annotate(&self) {
        let mut llm = SimulatedLlm::new(ModelId::Gpt35Turbo, self.dataset.generative.clone(), 1);
        black_box(llm.complete_batch(black_box(&self.annotate_requests)));
    }
}

/// One timed kernel: `iters` medians of wall-clock nanoseconds per op.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// Kernel name (stable JSON key — see `docs/perf.md`).
    pub name: String,
    /// Median wall-clock nanoseconds of one kernel invocation.
    pub median_ns_per_op: u128,
    /// Number of timed iterations the median is taken over.
    pub iters: usize,
}

/// Time `f` for `iters` iterations and return the median ns/op. Time is
/// read through the obs [`Clock`] — [`SystemClock`] is the workspace's
/// single wall-clock site (ds-lint `wall-clock` rule).
pub fn time_kernel(name: &str, iters: usize, mut f: impl FnMut()) -> KernelTiming {
    let iters = iters.max(1);
    let mut clock = SystemClock::new();
    let mut samples: Vec<u128> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = clock.now_ns();
        f();
        samples.push(u128::from(clock.now_ns().saturating_sub(t0)));
    }
    samples.sort_unstable();
    KernelTiming {
        name: name.to_string(),
        median_ns_per_op: samples.get(samples.len() / 2).copied().unwrap_or(0),
        iters,
    }
}

/// Peak resident-set size of this process in kB (`VmHWM` from
/// `/proc/self/status`); 0 when the file is unavailable (non-Linux).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// The full hot-path report written as `BENCH_hotpath.json`.
#[derive(Debug)]
pub struct HotpathReport {
    /// Dataset the kernels ran on.
    pub dataset: String,
    /// Scale factor applied to the dataset.
    pub scale: f64,
    /// Train-split rows after scaling.
    pub train_rows: usize,
    /// LFs in the apply/E-step fixtures.
    pub lf_count: usize,
    /// Timed kernels, in run order.
    pub kernels: Vec<KernelTiming>,
    /// Peak RSS of the benchmarking process in kB.
    pub peak_rss_kb: u64,
}

/// Kernel names every report must contain (schema contract).
pub const REQUIRED_KERNELS: [&str; 8] = [
    "index-build",
    "lf-apply",
    "lf-apply-rowscan-baseline",
    "metal-e-step",
    "metal-e-step-rowmajor-baseline",
    "tfidf",
    "endmodel-fit",
    "llm-annotate",
];

/// Run every hot-path kernel on `name` at `scale`, `iters` timed
/// iterations each.
pub fn run_report(name: DatasetName, scale: f64, iters: usize) -> HotpathReport {
    let fx = HotpathFixture::load(name, scale);
    let kernels = vec![
        time_kernel("index-build", iters, || fx.kernel_index_build()),
        time_kernel("lf-apply", iters, || fx.kernel_lf_apply()),
        time_kernel("lf-apply-rowscan-baseline", iters, || {
            fx.kernel_lf_apply_rowscan()
        }),
        time_kernel("metal-e-step", iters, || fx.kernel_metal_estep()),
        time_kernel("metal-e-step-rowmajor-baseline", iters, || {
            fx.kernel_metal_estep_rowmajor()
        }),
        time_kernel("tfidf", iters, || fx.kernel_tfidf()),
        time_kernel("endmodel-fit", iters, || fx.kernel_endmodel_fit()),
        time_kernel("llm-annotate", iters, || fx.kernel_llm_annotate()),
    ];
    for required in REQUIRED_KERNELS {
        assert!(
            kernels.iter().any(|k| k.name == required),
            "report is missing required kernel {required}"
        );
    }
    HotpathReport {
        dataset: name.as_str().to_string(),
        scale,
        train_rows: fx.dataset.train.len(),
        lf_count: fx.lfs.len(),
        kernels,
        peak_rss_kb: peak_rss_kb(),
    }
}

impl HotpathReport {
    /// Render the report as the `datasculpt-bench-hotpath/v1` JSON
    /// document (schema: `docs/perf.md`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"datasculpt-bench-hotpath/v1\",\n");
        out.push_str(&format!("  \"dataset\": \"{}\",\n", self.dataset));
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"train_rows\": {},\n", self.train_rows));
        out.push_str(&format!("  \"lf_count\": {},\n", self.lf_count));
        out.push_str(&format!("  \"peak_rss_kb\": {},\n", self.peak_rss_kb));
        out.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"median_ns_per_op\": {}, \"iters\": {}}}{}\n",
                k.name,
                k.median_ns_per_op,
                k.iters,
                if i + 1 < self.kernels.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Median ns/op of kernel `name`, if present.
    pub fn median_of(&self, name: &str) -> Option<u128> {
        self.kernels
            .iter()
            .find(|k| k.name == name)
            .map(|k| k.median_ns_per_op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowmajor_baseline_is_a_faithful_port() {
        let fx = HotpathFixture::load(DatasetName::Youtube, 0.1);
        let mut columnar = MetalModel::new().with_max_iter(ESTEP_ITERS);
        columnar.fit(&fx.matrix, fx.n_classes);
        let mut baseline = RowMajorMetal::new(ESTEP_ITERS);
        baseline.fit(&fx.row_major, fx.n_classes);
        assert!(!baseline.theta().is_empty());
        // Same fit, same posteriors, bit-for-bit: the baseline really is
        // the pre-refactor computation, so the timing comparison is fair.
        let cols = columnar.predict_proba(&fx.matrix);
        let rows = baseline.predict_proba(&fx.row_major);
        assert_eq!(cols.rows(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            for (a, b) in cols.row(i).iter().zip(row) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} diverged");
            }
        }
    }

    #[test]
    fn report_contains_every_required_kernel() {
        let report = run_report(DatasetName::Youtube, 0.05, 1);
        for k in REQUIRED_KERNELS {
            assert!(report.median_of(k).is_some(), "missing {k}");
        }
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"datasculpt-bench-hotpath/v1\""));
        assert!(json.contains("\"peak_rss_kb\""));
        assert!(json.contains("\"metal-e-step\""));
    }
}

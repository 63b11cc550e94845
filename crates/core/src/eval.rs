//! PWS evaluation: LF statistics and end-model training/scoring.
//!
//! Computes exactly the five metric families of Tables 2–5: **#LFs**,
//! **LF Acc.** (mean per-LF accuracy on the train split, where ground truth
//! is available), **LF Cov.** (mean per-LF coverage), **Total Cov.**
//! (fraction of train covered by any LF), and **EM Acc/F1** (end-model test
//! accuracy, or positive-class F1 for the imbalanced datasets).
//!
//! The end-model tail mirrors the WRENCH configuration the paper uses:
//! label model → probabilistic labels on the train split → default-class
//! completion (§3.6) → logistic regression on text features → test metric.

use crate::lfset::LfSet;
use datasculpt_data::{Metric, Split, TextDataset};
use datasculpt_endmodel::logreg::SparseRow;
use datasculpt_endmodel::{accuracy, f1_positive, MlpClassifier, SoftmaxRegression, TrainConfig};
use datasculpt_labelmodel::{
    LabelMatrix, LabelModel, MajorityVote, MetalConfig, MetalModel, ProbLabels, TripletModel,
};
use datasculpt_text::HashedTfIdf;

/// The LF-set statistics of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LfStats {
    /// Number of LFs.
    pub n_lfs: usize,
    /// Mean per-LF accuracy on the train split (`None` when train ground
    /// truth is unavailable — Spouse).
    pub lf_accuracy: Option<f64>,
    /// Mean per-LF coverage on the train split.
    pub lf_coverage: f64,
    /// Fraction of train instances covered by at least one LF.
    pub total_coverage: f64,
}

/// LF statistics straight from a weak-label matrix.
pub fn lf_stats_from_matrix(
    matrix: &LabelMatrix,
    train_labels: Option<&[Option<usize>]>,
) -> LfStats {
    let lf_accuracy = train_labels.and_then(|labels| {
        let accs: Vec<f64> = (0..matrix.cols())
            .filter_map(|j| matrix.lf_accuracy(j, labels))
            .collect();
        if accs.is_empty() {
            None
        } else {
            Some(accs.iter().sum::<f64>() / accs.len() as f64)
        }
    });
    LfStats {
        n_lfs: matrix.cols(),
        lf_accuracy,
        lf_coverage: matrix.mean_lf_coverage(),
        total_coverage: matrix.total_coverage(),
    }
}

/// End-model evaluation configuration.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Hashed TF-IDF dimensionality (the end model trains on the sparse
    /// TF-IDF rows directly).
    pub feature_dim: usize,
    /// N-gram order of the end-model features (1 by default; higher orders
    /// add one-off n-gram noise dimensions a linear model overfits).
    pub feature_order: usize,
    /// Which label model aggregates the weak votes.
    pub label_model: LabelModelKind,
    /// Which downstream classifier is trained on the weak labels.
    pub end_model: EndModelKind,
    /// Train the end model on hard (argmax) label-model outputs instead of
    /// the soft posteriors (the WRENCH default; soft targets dilute
    /// minority-class supervision on imbalanced tasks).
    pub hard_targets: bool,
    /// Balance end-model sample weights by weak-label class frequency.
    pub balanced_weights: bool,
    /// End-model training hyper-parameters.
    pub train: TrainConfig,
    /// Label-model EM iteration cap.
    pub label_model_iters: usize,
    /// Seed for featurization and training.
    pub seed: u64,
    /// Worker threads for the label-model E-step and prediction passes
    /// (1 = serial). Results are bit-identical at every thread count.
    pub threads: usize,
}

/// Which downstream classifier [`evaluate_matrix`] trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndModelKind {
    /// Logistic regression (the paper/WRENCH configuration).
    LogReg,
    /// One-hidden-layer MLP with the given hidden width (a WRENCH-style
    /// alternative that captures feature interactions).
    Mlp {
        /// Hidden-layer width.
        hidden: usize,
    },
}

/// Which label model [`evaluate_matrix`] uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LabelModelKind {
    /// The MeTaL-style EM model (paper configuration).
    Metal(MetalConfig),
    /// Unweighted majority vote.
    Majority,
    /// Closed-form triplet estimator.
    Triplet,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            feature_dim: 32_768,
            feature_order: 1,
            label_model: LabelModelKind::Metal(MetalConfig::default()),
            end_model: EndModelKind::LogReg,
            hard_targets: true,
            balanced_weights: true,
            // Tuned on oracle (ground-truth-label) training: unigram
            // TF-IDF with a hot learning rate and no L2 generalizes best
            // on these corpora; see EXPERIMENTS.md.
            train: TrainConfig {
                epochs: 150,
                learning_rate: 5.0,
                l2: 0.0,
                batch_size: 64,
                seed: 0,
            },
            label_model_iters: 50,
            seed: 0,
            threads: 1,
        }
    }
}

/// The full evaluation of one LF set / weak-label matrix.
#[derive(Debug, Clone)]
pub struct PwsEvaluation {
    /// LF statistics on the train split.
    pub lf_stats: LfStats,
    /// End-model test score.
    pub end_metric: f64,
    /// Which metric `end_metric` is.
    pub metric: Metric,
    /// Label-model per-LF accuracy estimates (diagnostic).
    pub lf_accuracy_estimates: Vec<f64>,
}

/// Evaluate an [`LfSet`] end-to-end.
pub fn evaluate_lf_set(
    dataset: &TextDataset,
    lf_set: &LfSet,
    config: &EvalConfig,
) -> PwsEvaluation {
    evaluate_matrix(dataset, lf_set.train_matrix(), config)
}

/// Evaluate a raw weak-label matrix end-to-end (used by PromptedLF, whose
/// "LFs" are per-template annotation columns rather than keyword LFs).
pub fn evaluate_matrix(
    dataset: &TextDataset,
    matrix: &LabelMatrix,
    config: &EvalConfig,
) -> PwsEvaluation {
    let train_labels = dataset
        .spec
        .train_labels_available
        .then(|| dataset.train.labels_opt());
    let lf_stats = lf_stats_from_matrix(matrix, train_labels.as_deref());
    let n_classes = dataset.n_classes();
    let test_truth: Vec<usize> = dataset.test.labels();

    // Degenerate LF set: score the constant default/majority prediction.
    if matrix.cols() == 0 || matrix.total_coverage() == 0.0 {
        let fallback = dataset.spec.default_class.unwrap_or(0);
        let pred = vec![fallback; test_truth.len()];
        return PwsEvaluation {
            lf_stats,
            end_metric: score(&pred, &test_truth, dataset.spec.metric),
            metric: dataset.spec.metric,
            lf_accuracy_estimates: Vec::new(),
        };
    }

    // Label model (MeTaL-style EM by default) with the validation class
    // balance.
    let balance = dataset.valid.class_distribution(n_classes);
    let (mut probs, lf_accuracy_estimates) = match config.label_model {
        LabelModelKind::Metal(metal_config) => {
            let mut lm = MetalModel::new()
                .with_config(metal_config)
                .with_class_balance(balance)
                .with_max_iter(config.label_model_iters)
                .with_pool(datasculpt_exec::Pool::new(config.threads));
            lm.fit(matrix, n_classes);
            (lm.predict_proba(matrix), lm.accuracies().to_vec())
        }
        LabelModelKind::Majority => {
            let mut lm = MajorityVote::new();
            lm.fit(matrix, n_classes);
            (lm.predict_proba(matrix), Vec::new())
        }
        LabelModelKind::Triplet => {
            let mut lm = TripletModel::new();
            lm.fit(matrix, n_classes);
            (lm.predict_proba(matrix), lm.accuracies().to_vec())
        }
    };
    if let Some(dc) = dataset.spec.default_class {
        probs.apply_default_class(dc);
    }
    let covered = probs.covered_indices();

    // Features: sparse hashed TF-IDF rows, fit on the train split. The
    // end model trains on the sparse rows directly (no lossy projection).
    // Unigrams only: higher orders add one-off n-gram noise dimensions
    // that a linear model overfits (see EXPERIMENTS.md).
    let mut tfidf = HashedTfIdf::new(config.feature_dim, config.feature_order);
    tfidf.fit(dataset.train.iter().map(|i| i.tokens.as_slice()));
    let feature_dim = config.feature_dim;
    let sparse = |split: &Split, indices: Option<&[usize]>| -> Vec<SparseRow> {
        let to_row = |inst: &datasculpt_data::Instance| -> SparseRow {
            let mut row: SparseRow = tfidf
                .transform_sparse(&inst.tokens)
                .into_iter()
                .map(|(d, v)| (d as u32, v))
                .collect();
            // Relation tasks: word order matters — "married" linking the
            // queried pair is a different signal from "married" elsewhere
            // (the §3.1 "A marry C" problem). BERT sees this implicitly;
            // our bag-of-words substitute gets explicit window features:
            // n-grams inside the anchor span, hashed into their own
            // buckets.
            append_window_features(inst, feature_dim, &mut row);
            row
        };
        match indices {
            Some(idx) => idx
                .iter()
                .filter_map(|&i| split.instances.get(i))
                .map(&to_row)
                .collect(),
            None => split.iter().map(to_row).collect(),
        }
    };

    let x_train = sparse(&dataset.train, Some(&covered));
    let (targets, weights) = end_model_targets(&probs, &covered, n_classes, config);

    let x_test = sparse(&dataset.test, None);
    let pred = match config.end_model {
        EndModelKind::LogReg => {
            let mut end_model = SoftmaxRegression::new(config.feature_dim, n_classes);
            end_model.fit_sparse(&x_train, &targets, weights.as_deref(), &config.train);
            end_model.predict_sparse(&x_test)
        }
        EndModelKind::Mlp { hidden } => {
            let mut end_model =
                MlpClassifier::new(config.feature_dim, hidden, n_classes, config.seed);
            // The MLP takes smaller steps than the linear model's hot
            // learning rate; fewer epochs keep cost comparable.
            let train = TrainConfig {
                learning_rate: (config.train.learning_rate * 0.1).min(0.5),
                epochs: config.train.epochs.min(30),
                ..config.train
            };
            end_model.fit_sparse(&x_train, &targets, weights.as_deref(), &train);
            end_model.predict_sparse(&x_test)
        }
    };

    PwsEvaluation {
        lf_stats,
        end_metric: score(&pred, &test_truth, dataset.spec.metric),
        metric: dataset.spec.metric,
        lf_accuracy_estimates,
    }
}

/// End-model targets and optional balanced sample weights for the
/// `covered` train rows. Both derive from each row's hard label, the
/// argmax of its posterior, which is computed once.
fn end_model_targets(
    probs: &ProbLabels,
    covered: &[usize],
    n_classes: usize,
    config: &EvalConfig,
) -> (Vec<Vec<f64>>, Option<Vec<f64>>) {
    let all_hard = probs.hard_labels();
    let hard: Vec<usize> = covered
        .iter()
        .map(|&i| all_hard.get(i).copied().unwrap_or(0))
        .collect();
    // WRENCH-style end-model training: hard labels from the label-model
    // posterior by default (soft targets dilute minority-class supervision
    // on the imbalanced datasets; see EXPERIMENTS.md).
    let targets: Vec<Vec<f64>> = if config.hard_targets {
        hard.iter()
            .map(|&h| {
                let mut t = vec![0.0; n_classes];
                if let Some(slot) = t.get_mut(h) {
                    *slot = 1.0;
                }
                t
            })
            .collect()
    } else {
        covered.iter().map(|&i| probs.row(i).to_vec()).collect()
    };

    // Balanced sample weights (scikit-learn's `class_weight="balanced"`,
    // computed from the weak labels): on imbalanced tasks (SMS, Spouse)
    // plain cross-entropy starves the minority class that the F1 metric
    // measures.
    let weights: Option<Vec<f64>> = config.balanced_weights.then(|| {
        let mut counts = vec![0usize; n_classes];
        for &h in &hard {
            if let Some(slot) = counts.get_mut(h) {
                *slot += 1;
            }
        }
        let n_cov = covered.len().max(1) as f64;
        hard.iter()
            .map(|&h| {
                let cnt = counts.get(h).copied().unwrap_or(0).max(1);
                n_cov / (n_classes as f64 * cnt as f64)
            })
            .collect()
    });
    (targets, weights)
}

/// Append window features for a relation instance: n-grams found inside
/// the anchor span between `[a]` and `[b]` are hashed (salted) into the
/// same feature space, and the row is re-normalized. No-op for plain
/// classification instances.
fn append_window_features(inst: &datasculpt_data::Instance, dim: usize, row: &mut SparseRow) {
    use crate::lf::ANCHOR_WINDOW;
    let Some(marked) = &inst.marked_tokens else {
        return;
    };
    let ia = marked.iter().position(|t| t == "[a]");
    let ib = marked.iter().position(|t| t == "[b]");
    let (Some(ia), Some(ib)) = (ia, ib) else {
        return;
    };
    let (lo, hi) = if ia < ib { (ia, ib) } else { (ib, ia) };
    if hi - lo > ANCHOR_WINDOW || hi - lo < 2 {
        return;
    }
    let grams = datasculpt_text::extract_ngrams(marked.get(lo + 1..hi).unwrap_or(&[]), 2);
    if grams.is_empty() {
        return;
    }
    // Window features carry the same magnitude as an average text feature.
    let mean_mag = row.iter().map(|(_, v)| v.abs()).sum::<f32>() / row.len().max(1) as f32;
    let weight = mean_mag.max(0.1);
    for g in grams {
        let bucket = (datasculpt_text::rng::hash_str(&format!("window:{g}")) >> 1) as usize % dim;
        row.push((bucket as u32, weight));
    }
    // Re-normalize the combined vector.
    let norm = row.iter().map(|(_, v)| v * v).sum::<f32>().sqrt();
    if norm > 0.0 {
        for (_, v) in row.iter_mut() {
            *v /= norm;
        }
    }
}

fn score(pred: &[usize], truth: &[usize], metric: Metric) -> f64 {
    match metric {
        Metric::Accuracy => accuracy(pred, truth),
        Metric::F1 => f1_positive(pred, truth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterConfig;
    use crate::lf::KeywordLf;
    use datasculpt_data::DatasetName;

    fn eval_cfg() -> EvalConfig {
        EvalConfig {
            feature_dim: 8192,
            ..EvalConfig::default()
        }
    }

    #[test]
    fn good_lfs_yield_usable_end_model() {
        let d = DatasetName::Imdb.load_scaled(11, 0.08);
        let mut set = LfSet::new(&d, FilterConfig::all());
        for (kw, y) in [
            ("great", 1),
            ("excellent", 1),
            ("wonderful", 1),
            ("funny", 1),
            ("loved it", 1),
            ("horrible", 0),
            ("terrible", 0),
            ("boring", 0),
            ("awful", 0),
            ("waste of time", 0),
        ] {
            set.try_add(KeywordLf::new(kw, y));
        }
        assert!(set.len() >= 8, "most seed LFs accepted, got {}", set.len());
        let eval = evaluate_lf_set(&d, &set, &eval_cfg());
        assert!(eval.end_metric > 0.7, "end accuracy {}", eval.end_metric);
        let stats = eval.lf_stats;
        assert!(stats.lf_accuracy.expect("imdb has train labels") > 0.65);
        assert!(stats.total_coverage > 0.3, "{}", stats.total_coverage);
        assert!(stats.lf_coverage < stats.total_coverage);
    }

    #[test]
    fn empty_lf_set_falls_back_to_constant() {
        let d = DatasetName::Youtube.load_scaled(3, 0.05);
        let set = LfSet::new(&d, FilterConfig::all());
        let eval = evaluate_lf_set(&d, &set, &eval_cfg());
        assert_eq!(eval.lf_stats.n_lfs, 0);
        assert!(eval.end_metric > 0.0); // constant class-0 accuracy
    }

    #[test]
    fn spouse_stats_hide_lf_accuracy_and_use_f1() {
        let d = DatasetName::Spouse.load_scaled(3, 0.01);
        let mut set = LfSet::new(&d, FilterConfig::all());
        set.try_add(KeywordLf::anchored("married", 1));
        set.try_add(KeywordLf::new("wedding", 1));
        let eval = evaluate_lf_set(&d, &set, &eval_cfg());
        assert!(eval.lf_stats.lf_accuracy.is_none(), "train GT unavailable");
        assert_eq!(eval.metric, Metric::F1);
    }

    #[test]
    fn stats_from_matrix_handles_missing_labels() {
        use datasculpt_labelmodel::ABSTAIN;
        let m = LabelMatrix::from_columns(&[vec![1, ABSTAIN, 0, 1]], 4);
        let labels = vec![Some(1), None, Some(0), Some(0)];
        let s = lf_stats_from_matrix(&m, Some(&labels));
        assert_eq!(s.n_lfs, 1);
        assert!((s.lf_accuracy.expect("labels") - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.lf_coverage - 0.75).abs() < 1e-12);
        assert!((s.total_coverage - 0.75).abs() < 1e-12);
        let s2 = lf_stats_from_matrix(&m, None);
        assert!(s2.lf_accuracy.is_none());
    }
}

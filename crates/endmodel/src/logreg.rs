//! Multiclass softmax regression with soft targets.

use datasculpt_text::rng::derive_seed;
use datasculpt_text::FeatureMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shuffle/init seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            learning_rate: 0.5,
            l2: 1e-4,
            batch_size: 64,
            seed: 0,
        }
    }
}

/// Multiclass logistic regression (`W: n_classes × dim`, plus bias).
///
/// Trained by mini-batch SGD on the cross-entropy between the softmax
/// output and a *soft* target distribution per example — the standard PWS
/// end-model objective, where targets are the label-model posteriors.
///
/// `W` is stored dimension-major: the `n_classes` weights of feature `d`
/// are the contiguous run `weights[d * n_classes..(d + 1) * n_classes]`,
/// so a sparse nonzero reads and writes one cache line for every class.
#[derive(Debug, Clone)]
pub struct SoftmaxRegression {
    weights: Vec<f64>,
    bias: Vec<f64>,
    dim: usize,
    n_classes: usize,
}

impl SoftmaxRegression {
    /// A zero-initialized model.
    pub fn new(dim: usize, n_classes: usize) -> Self {
        assert!(dim > 0 && n_classes >= 2, "bad shape {dim}x{n_classes}");
        Self {
            weights: vec![0.0; dim * n_classes],
            bias: vec![0.0; n_classes],
            dim,
            n_classes,
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Class logits `bias + W·x` of one dense row, written into `z`.
    #[inline(always)]
    fn dense_logits(&self, classes: usize, x: &[f32], z: &mut [f64]) {
        z.fill(0.0);
        for (w, &v) in self.weights.chunks_exact(classes).zip(x) {
            let v = v as f64;
            for (acc, &wc) in z.iter_mut().zip(w) {
                *acc += wc * v;
            }
        }
        // Float addition commutes bit for bit: this is `bias + acc`.
        for (acc, &b) in z.iter_mut().zip(&self.bias) {
            *acc += b;
        }
    }

    /// Class logits `bias + scale · (W·x)` of one sparse row, written into
    /// `z`. Dimensions outside the model contribute nothing.
    #[inline(always)]
    fn sparse_logits(&self, classes: usize, row: &[(u32, f32)], scale: f64, z: &mut [f64]) {
        z.fill(0.0);
        for &(d, v) in row {
            let v = v as f64;
            let at = d as usize * classes;
            if let Some(w) = self.weights.get(at..at + classes) {
                for (acc, &wc) in z.iter_mut().zip(w) {
                    *acc += wc * v;
                }
            }
        }
        for (acc, &b) in z.iter_mut().zip(&self.bias) {
            *acc = b + *acc * scale;
        }
    }

    /// Softmax probabilities for one feature row.
    pub fn predict_proba_one(&self, x: &[f32]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.dim);
        let mut p = vec![0.0; self.n_classes];
        self.dense_logits(self.n_classes, x, &mut p);
        softmax_in_place(&mut p);
        p
    }

    /// Softmax probabilities for a feature matrix (row-major
    /// `rows × n_classes`).
    pub fn predict_proba(&self, x: &FeatureMatrix) -> Vec<Vec<f64>> {
        (0..x.rows())
            .map(|i| self.predict_proba_one(x.row(i)))
            .collect()
    }

    /// Hard predictions.
    pub fn predict(&self, x: &FeatureMatrix) -> Vec<usize> {
        let mut p = vec![0.0; self.n_classes];
        (0..x.rows())
            .map(|i| {
                self.dense_logits(self.n_classes, x.row(i), &mut p);
                softmax_in_place(&mut p);
                argmax(&p)
            })
            .collect()
    }

    /// Fit on features `x` and per-row soft targets (each a distribution of
    /// length `n_classes`). Optional per-row sample weights.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn fit(
        &mut self,
        x: &FeatureMatrix,
        targets: &[Vec<f64>],
        sample_weights: Option<&[f64]>,
        config: &TrainConfig,
    ) {
        assert_eq!(x.dim(), self.dim, "feature dim mismatch");
        assert_eq!(x.rows(), targets.len(), "target length mismatch");
        if let Some(w) = sample_weights {
            assert_eq!(w.len(), targets.len(), "weight length mismatch");
        }
        for t in targets {
            assert_eq!(t.len(), self.n_classes, "target width mismatch");
        }
        let n = x.rows();
        if n == 0 {
            return;
        }
        let classes = self.n_classes;
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, 0x1091));
        let batch = config.batch_size.max(1);
        // Scratch reused by every batch: the dimension-major gradient, and
        // one row's logits, then probabilities, then per-class errors.
        let mut gw = vec![0.0f64; self.weights.len()];
        let mut gb = vec![0.0f64; classes];
        let mut err = vec![0.0f64; classes];
        for epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            // Simple 1/sqrt decay keeps late epochs stable.
            let lr = config.learning_rate / (1.0 + 0.3 * (epoch as f64).sqrt());
            for chunk in order.chunks(batch) {
                gw.fill(0.0);
                gb.fill(0.0);
                let mut total_w = 0.0f64;
                for &i in chunk {
                    let xi = x.row(i);
                    self.dense_logits(classes, xi, &mut err);
                    softmax_in_place(&mut err);
                    let wi = sample_weights.map_or(1.0, |w| w.get(i).copied().unwrap_or(1.0));
                    total_w += wi;
                    let ti = targets.get(i).map(Vec::as_slice).unwrap_or(&[]);
                    for ((e, gbc), &tc) in err.iter_mut().zip(gb.iter_mut()).zip(ti) {
                        *e = wi * (*e - tc);
                        *gbc += *e;
                    }
                    for (g, &v) in gw.chunks_exact_mut(classes).zip(xi) {
                        let v = v as f64;
                        for (gc, &e) in g.iter_mut().zip(&err) {
                            if e != 0.0 {
                                *gc += e * v;
                            }
                        }
                    }
                }
                if total_w <= 0.0 {
                    continue;
                }
                let scale = lr / total_w;
                for (w, g) in self.weights.iter_mut().zip(&gw) {
                    *w -= scale * (g + config.l2 * *w * total_w);
                }
                for (b, g) in self.bias.iter_mut().zip(&gb) {
                    *b -= scale * g;
                }
            }
        }
    }
}

/// A sparse feature row: `(dimension, value)` pairs.
pub type SparseRow = Vec<(u32, f32)>;

impl SoftmaxRegression {
    /// Softmax probabilities for one sparse row.
    pub fn predict_proba_sparse_one(&self, row: &[(u32, f32)]) -> Vec<f64> {
        let mut p = vec![0.0; self.n_classes];
        self.sparse_logits(self.n_classes, row, 1.0, &mut p);
        softmax_in_place(&mut p);
        p
    }

    /// Hard predictions for sparse rows.
    pub fn predict_sparse(&self, rows: &[SparseRow]) -> Vec<usize> {
        let mut p = vec![0.0; self.n_classes];
        rows.iter()
            .map(|r| {
                self.sparse_logits(self.n_classes, r, 1.0, &mut p);
                softmax_in_place(&mut p);
                argmax(&p)
            })
            .collect()
    }

    /// Fit on sparse rows and soft targets. Identical objective to
    /// [`fit`](Self::fit); L2 decay is applied with the standard lazy
    /// weight-scaling trick so cost stays proportional to the nonzeros.
    ///
    /// # Panics
    /// Panics on shape mismatches or out-of-range dimensions.
    pub fn fit_sparse(
        &mut self,
        rows: &[SparseRow],
        targets: &[Vec<f64>],
        sample_weights: Option<&[f64]>,
        config: &TrainConfig,
    ) {
        assert_eq!(rows.len(), targets.len(), "target length mismatch");
        if let Some(w) = sample_weights {
            assert_eq!(w.len(), targets.len(), "weight length mismatch");
        }
        for t in targets {
            assert_eq!(t.len(), self.n_classes, "target width mismatch");
        }
        for r in rows {
            for &(d, _) in r {
                assert!((d as usize) < self.dim, "dimension {d} out of range");
            }
        }
        if rows.is_empty() {
            return;
        }
        // A literal class count lets the inlined kernel unroll its
        // per-class loops for the two- and four-class datasets.
        match self.n_classes {
            2 => self.sparse_sgd(2, rows, targets, sample_weights, config),
            4 => self.sparse_sgd(4, rows, targets, sample_weights, config),
            classes => self.sparse_sgd(classes, rows, targets, sample_weights, config),
        }
    }

    /// The [`fit_sparse`](Self::fit_sparse) kernel. Each batch takes two
    /// passes: the first computes every row's per-class errors against the
    /// batch-start weights, the second replays the update row by row,
    /// nonzero by nonzero, across classes. Every weight slot, logit
    /// accumulator and bias thus sees the same floating-point operations in
    /// the same order as a class-major `(row, class, nonzero)` sweep.
    #[inline(always)]
    fn sparse_sgd(
        &mut self,
        classes: usize,
        rows: &[SparseRow],
        targets: &[Vec<f64>],
        sample_weights: Option<&[f64]>,
        config: &TrainConfig,
    ) {
        let n = rows.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, 0x1092));
        let batch = config.batch_size.max(1);
        // Lazy L2: weights are logically `scale * weights`.
        let mut scale = 1.0f64;
        // Scratch reused by every batch: per batch row, its logits, then
        // its probabilities, then its per-class errors.
        let mut errors = vec![0.0f64; batch.min(n) * classes];
        let mut gb = vec![0.0f64; classes];
        for epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            let lr = config.learning_rate / (1.0 + 0.3 * (epoch as f64).sqrt());
            for chunk in order.chunks(batch) {
                gb.fill(0.0);
                let mut total_w = 0.0f64;
                for (&i, err) in chunk.iter().zip(errors.chunks_exact_mut(classes)) {
                    let row = rows.get(i).map(Vec::as_slice).unwrap_or(&[]);
                    self.sparse_logits(classes, row, scale, err);
                    softmax_in_place(err);
                    let wi = sample_weights.map_or(1.0, |w| w.get(i).copied().unwrap_or(1.0));
                    total_w += wi;
                    let ti = targets.get(i).map(Vec::as_slice).unwrap_or(&[]);
                    for ((e, gbc), &tc) in err.iter_mut().zip(gb.iter_mut()).zip(ti) {
                        *e = wi * (*e - tc);
                        *gbc += *e;
                    }
                }
                if total_w <= 0.0 {
                    continue;
                }
                let step = lr / total_w;
                // Lazy decay, then sparse update (divided by scale so the
                // logical weight moves by exactly `step * grad`).
                scale *= 1.0 - lr * config.l2;
                if scale < 1e-6 {
                    for w in self.weights.iter_mut() {
                        *w *= scale;
                    }
                    scale = 1.0;
                }
                for (&i, err) in chunk.iter().zip(errors.chunks_exact(classes)) {
                    let row = rows.get(i).map(Vec::as_slice).unwrap_or(&[]);
                    for &(d, v) in row {
                        let v = v as f64;
                        let at = d as usize * classes;
                        let Some(w) = self.weights.get_mut(at..at + classes) else {
                            continue;
                        };
                        for (wc, &e) in w.iter_mut().zip(err) {
                            // Skipping a zero error is not only a shortcut:
                            // `-0.0 - -0.0` would turn a weight to `+0.0`.
                            if e != 0.0 {
                                *wc -= step * (e * v) / scale;
                            }
                        }
                    }
                }
                for (b, g) in self.bias.iter_mut().zip(&gb) {
                    *b -= step * g;
                }
            }
        }
        // Fold the scale back into the weights.
        if (scale - 1.0).abs() > 0.0 {
            for w in self.weights.iter_mut() {
                *w *= scale;
            }
        }
    }
}

/// Numerically stable softmax.
pub fn softmax(z: &[f64]) -> Vec<f64> {
    let mut p = z.to_vec();
    softmax_in_place(&mut p);
    p
}

/// [`softmax`] over logits `z`, overwriting them with the probabilities.
fn softmax_in_place(z: &mut [f64]) {
    let m = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for v in z.iter_mut() {
        *v = (*v - m).exp();
    }
    let sum: f64 = z.iter().sum();
    for v in z.iter_mut() {
        *v /= sum;
    }
}

fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

/// The class-major kernel (`weights[c * dim + d]`, one pass per row over
/// classes then nonzeros) that [`SoftmaxRegression`] replaced, kept as the
/// reference its dimension-major kernel must match bit for bit.
#[cfg(test)]
mod reference {
    use super::{SparseRow, TrainConfig};
    use datasculpt_text::rng::derive_seed;
    use datasculpt_text::FeatureMatrix;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Class-major softmax regression.
    pub struct ClassMajor {
        pub weights: Vec<f64>,
        pub bias: Vec<f64>,
        dim: usize,
        n_classes: usize,
    }

    fn softmax(z: &[f64]) -> Vec<f64> {
        let m = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = z.iter().map(|v| (v - m).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    impl ClassMajor {
        pub fn new(dim: usize, n_classes: usize) -> Self {
            Self {
                weights: vec![0.0; dim * n_classes],
                bias: vec![0.0; n_classes],
                dim,
                n_classes,
            }
        }

        fn logits(&self, x: &[f32]) -> Vec<f64> {
            let mut z = self.bias.clone();
            for (zc, row) in z.iter_mut().zip(self.weights.chunks_exact(self.dim)) {
                let mut acc = 0.0f64;
                for (w, v) in row.iter().zip(x) {
                    acc += w * (*v as f64);
                }
                *zc += acc;
            }
            z
        }

        pub fn predict_proba_one(&self, x: &[f32]) -> Vec<f64> {
            softmax(&self.logits(x))
        }

        pub fn fit(
            &mut self,
            x: &FeatureMatrix,
            targets: &[Vec<f64>],
            sample_weights: Option<&[f64]>,
            config: &TrainConfig,
        ) {
            let n = x.rows();
            if n == 0 {
                return;
            }
            let mut order: Vec<usize> = (0..n).collect();
            let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, 0x1091));
            let batch = config.batch_size.max(1);
            for epoch in 0..config.epochs {
                order.shuffle(&mut rng);
                let lr = config.learning_rate / (1.0 + 0.3 * (epoch as f64).sqrt());
                for chunk in order.chunks(batch) {
                    let mut gw = vec![0.0f64; self.dim * self.n_classes];
                    let mut gb = vec![0.0f64; self.n_classes];
                    let mut total_w = 0.0f64;
                    for &i in chunk {
                        let xi = x.row(i);
                        let p = softmax(&self.logits(xi));
                        let wi = sample_weights.map_or(1.0, |w| w[i]);
                        total_w += wi;
                        let ti = &targets[i];
                        for ((gbc, grow), (&pc, &tc)) in gb
                            .iter_mut()
                            .zip(gw.chunks_exact_mut(self.dim))
                            .zip(p.iter().zip(ti))
                        {
                            let err = wi * (pc - tc);
                            *gbc += err;
                            if err != 0.0 {
                                for (g, v) in grow.iter_mut().zip(xi) {
                                    *g += err * (*v as f64);
                                }
                            }
                        }
                    }
                    if total_w <= 0.0 {
                        continue;
                    }
                    let scale = lr / total_w;
                    for (w, g) in self.weights.iter_mut().zip(&gw) {
                        *w -= scale * (g + config.l2 * *w * total_w);
                    }
                    for (b, g) in self.bias.iter_mut().zip(&gb) {
                        *b -= scale * g;
                    }
                }
            }
        }

        fn logits_sparse(&self, row: &[(u32, f32)]) -> Vec<f64> {
            let mut z = self.bias.clone();
            for (zc, w) in z.iter_mut().zip(self.weights.chunks_exact(self.dim)) {
                let mut acc = 0.0f64;
                for &(d, v) in row {
                    acc += w[d as usize] * (v as f64);
                }
                *zc += acc;
            }
            z
        }

        pub fn predict_proba_sparse_one(&self, row: &[(u32, f32)]) -> Vec<f64> {
            softmax(&self.logits_sparse(row))
        }

        pub fn fit_sparse(
            &mut self,
            rows: &[SparseRow],
            targets: &[Vec<f64>],
            sample_weights: Option<&[f64]>,
            config: &TrainConfig,
        ) {
            let n = rows.len();
            if n == 0 {
                return;
            }
            let mut order: Vec<usize> = (0..n).collect();
            let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, 0x1092));
            let batch = config.batch_size.max(1);
            let mut scale = 1.0f64;
            for epoch in 0..config.epochs {
                order.shuffle(&mut rng);
                let lr = config.learning_rate / (1.0 + 0.3 * (epoch as f64).sqrt());
                for chunk in order.chunks(batch) {
                    let mut gb = vec![0.0f64; self.n_classes];
                    let mut gw: Vec<(usize, u32, f64)> = Vec::new();
                    let mut total_w = 0.0f64;
                    for &i in chunk {
                        let row = &rows[i];
                        let mut z = self.bias.clone();
                        for (zc, w) in z.iter_mut().zip(self.weights.chunks_exact(self.dim)) {
                            let mut acc = 0.0f64;
                            for &(d, v) in row.iter() {
                                acc += w[d as usize] * (v as f64);
                            }
                            *zc += acc * scale;
                        }
                        let p = softmax(&z);
                        let wi = sample_weights.map_or(1.0, |w| w[i]);
                        total_w += wi;
                        let ti = &targets[i];
                        for (c, (gbc, (&pc, &tc))) in
                            gb.iter_mut().zip(p.iter().zip(ti)).enumerate()
                        {
                            let err = wi * (pc - tc);
                            *gbc += err;
                            if err != 0.0 {
                                for &(d, v) in row.iter() {
                                    gw.push((c, d, err * (v as f64)));
                                }
                            }
                        }
                    }
                    if total_w <= 0.0 {
                        continue;
                    }
                    let step = lr / total_w;
                    scale *= 1.0 - lr * config.l2;
                    if scale < 1e-6 {
                        for w in self.weights.iter_mut() {
                            *w *= scale;
                        }
                        scale = 1.0;
                    }
                    for (c, d, g) in gw {
                        self.weights[c * self.dim + d as usize] -= step * g / scale;
                    }
                    for (b, g) in self.bias.iter_mut().zip(&gb) {
                        *b -= step * g;
                    }
                }
            }
            if (scale - 1.0).abs() > 0.0 {
                for w in self.weights.iter_mut() {
                    *w *= scale;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian blobs in 2-D.
    fn blobs(n: usize, seed: u64) -> (FeatureMatrix, Vec<usize>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let y = i % 2;
            let (cx, cy) = if y == 0 { (-1.0, -1.0) } else { (1.0, 1.0) };
            data.push((cx + 0.4 * rng.gen::<f64>()) as f32);
            data.push((cy + 0.4 * rng.gen::<f64>()) as f32);
            labels.push(y);
        }
        (FeatureMatrix::new(data, n, 2), labels)
    }

    fn one_hot(labels: &[usize], c: usize) -> Vec<Vec<f64>> {
        labels
            .iter()
            .map(|&y| {
                let mut t = vec![0.0; c];
                t[y] = 1.0;
                t
            })
            .collect()
    }

    #[test]
    fn separable_blobs_reach_high_accuracy() {
        let (x, y) = blobs(400, 3);
        let mut m = SoftmaxRegression::new(2, 2);
        m.fit(&x, &one_hot(&y, 2), None, &TrainConfig::default());
        let pred = m.predict(&x);
        let acc = pred.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn soft_targets_train_too() {
        let (x, y) = blobs(400, 5);
        // Blur the targets: 0.8 on the true class.
        let targets: Vec<Vec<f64>> = y
            .iter()
            .map(|&yi| {
                let mut t = vec![0.2; 2];
                t[yi] = 0.8;
                t
            })
            .collect();
        let mut m = SoftmaxRegression::new(2, 2);
        m.fit(&x, &targets, None, &TrainConfig::default());
        let pred = m.predict(&x);
        let acc = pred.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn probabilities_are_distributions() {
        let (x, y) = blobs(100, 7);
        let mut m = SoftmaxRegression::new(2, 2);
        m.fit(&x, &one_hot(&y, 2), None, &TrainConfig::default());
        for p in m.predict_proba(&x) {
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn sample_weights_break_label_conflicts() {
        // The same point labeled both ways: the heavier weight wins.
        let x = FeatureMatrix::new(vec![1.0, 1.0, 1.0, 1.0], 2, 2);
        let targets = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut m = SoftmaxRegression::new(2, 2);
        m.fit(&x, &targets, Some(&[10.0, 1.0]), &TrainConfig::default());
        assert_eq!(m.predict(&x), vec![0, 0]);
        let mut m2 = SoftmaxRegression::new(2, 2);
        m2.fit(&x, &targets, Some(&[1.0, 10.0]), &TrainConfig::default());
        assert_eq!(m2.predict(&x), vec![1, 1]);
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = blobs(100, 11);
        let cfg = TrainConfig::default();
        let mut a = SoftmaxRegression::new(2, 2);
        a.fit(&x, &one_hot(&y, 2), None, &cfg);
        let mut b = SoftmaxRegression::new(2, 2);
        b.fit(&x, &one_hot(&y, 2), None, &cfg);
        assert_eq!(a.predict_proba_one(x.row(0)), b.predict_proba_one(x.row(0)));
    }

    #[test]
    fn empty_training_is_noop() {
        let x = FeatureMatrix::zeros(0, 3);
        let mut m = SoftmaxRegression::new(3, 2);
        m.fit(&x, &[], None, &TrainConfig::default());
        let p = m.predict_proba_one(&[0.0, 0.0, 0.0]);
        assert_eq!(p, vec![0.5, 0.5]);
    }

    #[test]
    fn sparse_fit_matches_dense_fit() {
        let (x, y) = blobs(300, 13);
        let sparse: Vec<SparseRow> = (0..x.rows())
            .map(|i| {
                x.row(i)
                    .iter()
                    .enumerate()
                    .map(|(d, &v)| (d as u32, v))
                    .collect()
            })
            .collect();
        let cfg = TrainConfig::default();
        let mut dense = SoftmaxRegression::new(2, 2);
        dense.fit(&x, &one_hot(&y, 2), None, &cfg);
        let mut sp = SoftmaxRegression::new(2, 2);
        sp.fit_sparse(&sparse, &one_hot(&y, 2), None, &cfg);
        let dense_pred = dense.predict(&x);
        let sp_pred = sp.predict_sparse(&sparse);
        let agree = dense_pred
            .iter()
            .zip(&sp_pred)
            .filter(|(a, b)| a == b)
            .count() as f64
            / y.len() as f64;
        assert!(agree > 0.97, "agreement {agree}");
        let acc = sp_pred.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.97, "sparse accuracy {acc}");
    }

    #[test]
    fn sparse_high_dim_text_like_problem() {
        // 5000-dim sparse one-hot-ish rows, linearly separable by a single
        // indicative dimension per class.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(4);
        let dim = 5000usize;
        let mut rows: Vec<SparseRow> = Vec::new();
        let mut labels = Vec::new();
        for i in 0..400 {
            let y = i % 2;
            let indicative = if y == 0 { 7u32 } else { 11u32 };
            let mut row: SparseRow = (0..20)
                .map(|_| (rng.gen_range(100..dim) as u32, 0.2f32))
                .collect();
            row.push((indicative, 0.8));
            rows.push(row);
            labels.push(y);
        }
        let mut m = SoftmaxRegression::new(dim, 2);
        m.fit_sparse(&rows, &one_hot(&labels, 2), None, &TrainConfig::default());
        let pred = m.predict_sparse(&rows);
        let acc = pred.iter().zip(&labels).filter(|(a, b)| a == b).count() as f64 / 400.0;
        assert!(acc > 0.99, "sparse text accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sparse_rejects_bad_dims() {
        let mut m = SoftmaxRegression::new(4, 2);
        m.fit_sparse(
            &[vec![(9u32, 1.0f32)]],
            &[vec![1.0, 0.0]],
            None,
            &TrainConfig::default(),
        );
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let p = softmax(&[1000.0, 0.0]);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(p[1] >= 0.0);
    }

    #[test]
    #[should_panic(expected = "target width mismatch")]
    fn rejects_bad_targets() {
        let x = FeatureMatrix::zeros(1, 2);
        let mut m = SoftmaxRegression::new(2, 2);
        m.fit(&x, &[vec![1.0]], None, &TrainConfig::default());
    }
    /// Bits of a float slice, for exact comparisons that also hold for
    /// signed zeros.
    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Train the dimension-major model and the class-major reference on
    /// the same input, sparse and dense, and require bit-equal weights,
    /// biases and probabilities.
    fn assert_matches_reference(
        dim: usize,
        rows: &[SparseRow],
        targets: &[Vec<f64>],
        weights: Option<&[f64]>,
        config: &TrainConfig,
    ) {
        let classes = targets[0].len();
        let mut model = SoftmaxRegression::new(dim, classes);
        model.fit_sparse(rows, targets, weights, config);
        let mut oracle = reference::ClassMajor::new(dim, classes);
        oracle.fit_sparse(rows, targets, weights, config);
        let check_weights = |model: &SoftmaxRegression, oracle: &reference::ClassMajor| {
            for d in 0..dim {
                for c in 0..classes {
                    assert_eq!(
                        model.weights[d * classes + c].to_bits(),
                        oracle.weights[c * dim + d].to_bits(),
                        "weight (class {c}, dim {d}) of {classes} classes, {config:?}"
                    );
                }
            }
            assert_eq!(bits(&model.bias), bits(&oracle.bias), "bias, {config:?}");
        };
        check_weights(&model, &oracle);
        let hard = model.predict_sparse(rows);
        for (row, &h) in rows.iter().zip(&hard) {
            let p = model.predict_proba_sparse_one(row);
            assert_eq!(bits(&p), bits(&oracle.predict_proba_sparse_one(row)));
            assert_eq!(h, argmax(&p));
        }

        // The dense path, on the same rows with duplicates summed.
        let mut data = vec![0.0f32; rows.len() * dim];
        for (i, row) in rows.iter().enumerate() {
            for &(d, v) in row {
                data[i * dim + d as usize] += v;
            }
        }
        let x = FeatureMatrix::new(data, rows.len(), dim);
        let mut model = SoftmaxRegression::new(dim, classes);
        model.fit(&x, targets, weights, config);
        let mut oracle = reference::ClassMajor::new(dim, classes);
        oracle.fit(&x, targets, weights, config);
        check_weights(&model, &oracle);
        let hard = model.predict(&x);
        for (i, p) in model.predict_proba(&x).iter().enumerate() {
            assert_eq!(bits(p), bits(&model.predict_proba_one(x.row(i))));
            assert_eq!(bits(p), bits(&oracle.predict_proba_one(x.row(i))));
            assert_eq!(hard[i], argmax(p));
        }
    }

    #[test]
    fn zero_error_rows_leave_signed_zero_weights_alone() {
        // A zero-weight row has ±0 errors. Its skipped update is what keeps
        // a -0.0 weight from turning into +0.0 (-0.0 - -0.0 == +0.0).
        let rows = vec![vec![(0u32, 1.0f32)], vec![(1, 1.0)]];
        let targets = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let weights = [1.0, 0.0];
        let config = TrainConfig {
            epochs: 1,
            batch_size: 2,
            ..TrainConfig::default()
        };
        let mut model = SoftmaxRegression::new(2, 2);
        model.weights.fill(-0.0);
        model.fit_sparse(&rows, &targets, Some(&weights), &config);
        let mut oracle = reference::ClassMajor::new(2, 2);
        oracle.weights.fill(-0.0);
        oracle.fit_sparse(&rows, &targets, Some(&weights), &config);
        // Dimension 1 is seen only by the zero-weight row.
        assert_eq!(bits(&model.weights[2..]), bits(&[-0.0, -0.0]));
        assert_eq!(bits(&oracle.weights[1..2]), bits(&[-0.0]));
        assert_eq!(bits(&oracle.weights[3..]), bits(&[-0.0]));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The dimension-major kernel is bit-identical to the class-major
        /// one for 2–5 classes (3 and 5 take the non-literal arm), rows
        /// with duplicate dimensions or none, zero and uneven sample
        /// weights (all-zero batches are skipped), lazy L2 strong enough
        /// to renormalize, and batch sizes that do not divide the rows.
        #[test]
        fn dimension_major_kernel_matches_class_major_reference(
            dim in 1usize..9,
            raw_rows in proptest::collection::vec(
                proptest::collection::vec((0u32..64, -2.0f32..2.0), 0..7), 1..24),
            mass in proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, 5), 24),
            hard in proptest::collection::vec(0usize..8, 24),
            picks in proptest::collection::vec(0usize..5, 24),
            (weight_mode, l2_pick, hot, batch, epochs, seed) in
                (0usize..3, 0usize..3, 0usize..2, 1usize..9, 1usize..4, 0u64..1000),
        ) {
            // Folding into a small dimension range makes duplicates common.
            let rows: Vec<SparseRow> = raw_rows
                .iter()
                .map(|r| r.iter().map(|&(d, v)| (d % dim as u32, v)).collect())
                .collect();
            let n = rows.len();
            let weights: Option<Vec<f64>> = match weight_mode {
                0 => None,
                1 => Some(picks[..n].iter().map(|&k| [0.0, 0.0, 0.5, 1.0, 3.0][k]).collect()),
                _ => Some(vec![0.0; n]),
            };
            let learning_rate = [0.5, 5.0][hot];
            // lr · l2 of 0.95 shrinks the lazy scale below 1e-6 within a
            // handful of batches.
            let l2 = [0.0, 5e-4, 0.95][l2_pick] / learning_rate;
            let config = TrainConfig { epochs, learning_rate, l2, batch_size: batch, seed };
            for classes in 2..=5 {
                let targets: Vec<Vec<f64>> = (0..n)
                    .map(|i| {
                        if hard[i] < classes {
                            let mut t = vec![0.0; classes];
                            t[hard[i]] = 1.0;
                            t
                        } else {
                            let m = &mass[i][..classes];
                            let total: f64 = m.iter().sum();
                            m.iter().map(|v| v / total).collect()
                        }
                    })
                    .collect();
                assert_matches_reference(dim, &rows, &targets, weights.as_deref(), &config);
            }
        }
    }
}

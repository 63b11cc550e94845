//! Query-instance selection (§3.4): random, uncertainty, SEU.

use crate::lfset::LfSet;
use datasculpt_data::{Instance, TextDataset};
use datasculpt_endmodel::{entropy, SoftmaxRegression, TrainConfig};
use datasculpt_labelmodel::{LabelModel, MajorityVote};
use datasculpt_text::rng::derive_seed;
use datasculpt_text::{Embedder, FeatureMatrix, HashedTfIdf, RandomProjection};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Which sampler to use (the rows of Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// Uniform over unqueried instances (the paper's default).
    Random,
    /// Highest predictive entropy of the current downstream model
    /// (Lewis 1995).
    Uncertain,
    /// Select-by-expected-utility (Nemo, Hsieh et al. 2022): prefer
    /// instances whose candidate keyword LFs have high estimated
    /// utility = accuracy × coverage, weighted by a user model that favours
    /// accurate LFs.
    Seu,
    /// Core-set (k-center greedy, Sener & Savarese 2018): maximize the
    /// embedding-space distance to everything already queried. Not in the
    /// paper's Table 4 — an extension from the active-learning families its
    /// related work cites.
    CoreSet,
}

impl SamplerKind {
    /// Display label used in Table 4.
    pub fn label(&self) -> &'static str {
        match self {
            SamplerKind::Random => "random",
            SamplerKind::Uncertain => "uncertain",
            SamplerKind::Seu => "SEU",
            SamplerKind::CoreSet => "core-set",
        }
    }
}

/// A query-instance sampler.
pub trait QuerySampler {
    /// Pick the next train-split instance to query, or `None` when the
    /// unlabeled pool is exhausted.
    fn select(
        &mut self,
        dataset: &TextDataset,
        lf_set: &LfSet,
        queried: &BTreeSet<usize>,
    ) -> Option<usize>;
}

/// Build the sampler for a kind.
pub fn make_sampler(kind: SamplerKind, dataset: &TextDataset, seed: u64) -> Box<dyn QuerySampler> {
    match kind {
        SamplerKind::Random => Box::new(RandomSampler::new(seed)),
        SamplerKind::Uncertain => Box::new(UncertainSampler::new(dataset, seed)),
        SamplerKind::Seu => Box::new(SeuSampler::new(dataset, seed)),
        SamplerKind::CoreSet => Box::new(CoreSetSampler::new(dataset, seed)),
    }
}

/// Uniform random selection without replacement.
#[derive(Debug)]
pub struct RandomSampler {
    rng: StdRng,
}

impl RandomSampler {
    /// A seeded random sampler.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(derive_seed(seed, 0x5A11)),
        }
    }
}

impl QuerySampler for RandomSampler {
    fn select(
        &mut self,
        dataset: &TextDataset,
        _lf_set: &LfSet,
        queried: &BTreeSet<usize>,
    ) -> Option<usize> {
        let n = dataset.train.len();
        if queried.len() >= n {
            return None;
        }
        loop {
            let i = self.rng.gen_range(0..n);
            if !queried.contains(&i) {
                return Some(i);
            }
        }
    }
}

/// Size of the candidate pool samplers score (keeps per-iteration cost flat
/// on 96k-instance corpora).
const POOL_CAP: usize = 2000;

/// Fit the embedder the samplers and KATE share — a 2048-bucket unigram
/// TF-IDF over `rows`, randomly projected to 64 dimensions under
/// `derive_seed(seed, salt)` — and embed `rows` with it, in order.
pub(crate) fn fit_embedder<'a, I>(
    rows: I,
    seed: u64,
    salt: u64,
) -> (RandomProjection, FeatureMatrix)
where
    I: Iterator<Item = &'a Instance> + Clone,
{
    let tokens = rows.map(|inst| inst.tokens.as_slice());
    let mut tfidf = HashedTfIdf::new(2048, 1);
    tfidf.fit(tokens.clone());
    let embedder = RandomProjection::new(tfidf, 64, derive_seed(seed, salt));
    let embeddings = embedder.embed_batch(tokens);
    (embedder, embeddings)
}

/// Uncertainty sampling: retrain a small end model on the current weak
/// labels every few iterations and pick the unqueried pool instance with
/// the highest predictive entropy.
pub struct UncertainSampler {
    rng: StdRng,
    pool: Vec<usize>,
    embeddings: FeatureMatrix,
    entropy_cache: Vec<f64>,
    refresh_every: usize,
    calls: usize,
}

impl UncertainSampler {
    /// Build: embeds a (deterministic) train-split pool up front.
    pub fn new(dataset: &TextDataset, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x0CE2));
        let mut pool: Vec<usize> = (0..dataset.train.len()).collect();
        pool.shuffle(&mut rng);
        pool.truncate(POOL_CAP);
        let rows = pool.iter().filter_map(|&i| dataset.train.instances.get(i));
        let (_, embeddings) = fit_embedder(rows, seed, 0x0CE3);
        let entropy_cache = vec![f64::MAX; pool.len()];
        Self {
            rng,
            pool,
            embeddings,
            entropy_cache,
            refresh_every: 5,
            calls: 0,
        }
    }

    fn refresh(&mut self, dataset: &TextDataset, lf_set: &LfSet) {
        if lf_set.is_empty() {
            return; // nothing to train on yet; stay effectively random
        }
        // Weak labels on the pool via majority vote (cheap, refreshed often).
        let matrix = lf_set.train_matrix();
        let mut mv = MajorityVote::new();
        mv.fit(matrix, dataset.n_classes());
        let probs = mv.predict_proba(matrix);
        // Train a small model on covered pool instances.
        let covered: Vec<(usize, usize)> = self
            .pool
            .iter()
            .enumerate()
            .filter(|&(_, &ti)| probs.is_covered(ti))
            .map(|(pi, &ti)| (pi, ti))
            .collect();
        if covered.len() < dataset.n_classes() * 2 {
            return;
        }
        let pool_rows: Vec<usize> = covered.iter().map(|&(pi, _)| pi).collect();
        let x = self.embeddings.gather(&pool_rows);
        let targets: Vec<Vec<f64>> = covered
            .iter()
            .map(|&(_, ti)| probs.row(ti).to_vec())
            .collect();
        let mut model = SoftmaxRegression::new(64, dataset.n_classes());
        model.fit(
            &x,
            &targets,
            None,
            &TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            },
        );
        for (pi, e) in self.entropy_cache.iter_mut().enumerate() {
            let p = model.predict_proba_one(self.embeddings.row(pi));
            *e = entropy(&p);
        }
    }
}

impl QuerySampler for UncertainSampler {
    fn select(
        &mut self,
        dataset: &TextDataset,
        lf_set: &LfSet,
        queried: &BTreeSet<usize>,
    ) -> Option<usize> {
        if self.calls.is_multiple_of(self.refresh_every) {
            self.refresh(dataset, lf_set);
        }
        self.calls += 1;
        let mut best: Option<(usize, f64)> = None;
        for (&ti, &e) in self.pool.iter().zip(&self.entropy_cache) {
            if queried.contains(&ti) {
                continue;
            }
            if best.is_none_or(|(_, be)| e > be) {
                best = Some((ti, e));
            }
        }
        match best {
            Some((ti, _)) => Some(ti),
            None => {
                // Pool exhausted: fall back to random over the full split.
                let n = dataset.train.len();
                (queried.len() < n).then(|| loop {
                    let i = self.rng.gen_range(0..n);
                    if !queried.contains(&i) {
                        break i;
                    }
                })
            }
        }
    }
}

/// SEU (Nemo-style) expected-utility sampling.
///
/// For each pool instance, the candidate LFs are its n-grams; a gram's
/// utility is `accuracy(valid) × coverage(pool)`, and the user model
/// returns gram `g` with probability ∝ `exp(accuracy(g)/τ)`. The instance
/// score is the expected utility under that user model. Because the same
/// high-utility grams dominate many instances, SEU keeps choosing similar
/// queries — the redundancy the paper observes (smaller LF sets, Table 4).
pub struct SeuSampler {
    rng: StdRng,
    pool: Vec<usize>,
    scores: Vec<f64>,
}

impl SeuSampler {
    /// Build: scores the pool once from validation-set gram statistics.
    pub fn new(dataset: &TextDataset, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x5E0));
        let mut pool: Vec<usize> = (0..dataset.train.len()).collect();
        pool.shuffle(&mut rng);
        pool.truncate(POOL_CAP);

        // Gram statistics from the labeled validation split.
        let mut gram_stats: BTreeMap<String, (f64, f64)> = BTreeMap::new(); // (acc, cov)
        {
            let mut counts: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            let n_classes = dataset.n_classes();
            for inst in dataset.valid.iter() {
                let Some(y) = inst.label else { continue };
                let mut grams = datasculpt_text::extract_ngrams(inst.match_tokens(), 3);
                grams.sort_unstable();
                grams.dedup();
                for g in grams {
                    if let Some(slot) = counts
                        .entry(g)
                        .or_insert_with(|| vec![0; n_classes])
                        .get_mut(y)
                    {
                        *slot += 1;
                    }
                }
            }
            let n_valid = dataset.valid.len().max(1) as f64;
            for (g, hist) in counts {
                let active: usize = hist.iter().sum();
                if active == 0 {
                    continue;
                }
                let best = hist.iter().copied().max().unwrap_or(0);
                gram_stats.insert(g, (best as f64 / active as f64, active as f64 / n_valid));
            }
        }

        // Expected utility per pool instance.
        const TAU: f64 = 0.1;
        let scores: Vec<f64> = pool
            .iter()
            .map(|&ti| {
                let Some(inst) = dataset.train.instances.get(ti) else {
                    return 0.0;
                };
                let mut grams = datasculpt_text::extract_ngrams(inst.match_tokens(), 3);
                grams.sort_unstable();
                grams.dedup();
                let entries: Vec<(f64, f64)> = grams
                    .iter()
                    .filter_map(|g| gram_stats.get(g).copied())
                    .collect();
                if entries.is_empty() {
                    return 0.0;
                }
                let z: f64 = entries.iter().map(|(a, _)| (a / TAU).exp()).sum();
                entries
                    .iter()
                    .map(|(a, cov)| ((a / TAU).exp() / z) * (a * cov))
                    .sum()
            })
            .collect();

        Self { rng, pool, scores }
    }
}

impl QuerySampler for SeuSampler {
    fn select(
        &mut self,
        dataset: &TextDataset,
        _lf_set: &LfSet,
        queried: &BTreeSet<usize>,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (&ti, &s) in self.pool.iter().zip(&self.scores) {
            if queried.contains(&ti) {
                continue;
            }
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((ti, s));
            }
        }
        match best {
            Some((ti, _)) => Some(ti),
            None => {
                let n = dataset.train.len();
                (queried.len() < n).then(|| loop {
                    let i = self.rng.gen_range(0..n);
                    if !queried.contains(&i) {
                        break i;
                    }
                })
            }
        }
    }
}

/// Core-set sampling: k-center greedy in embedding space.
///
/// The first pick is the pool instance closest to the pool centroid; each
/// later pick maximizes the minimum cosine distance to everything already
/// queried, spreading queries across the input distribution.
pub struct CoreSetSampler {
    rng: StdRng,
    pool: Vec<usize>,
    embeddings: FeatureMatrix,
    /// Min distance from each pool instance to the queried set so far.
    min_dist: Vec<f64>,
}

impl CoreSetSampler {
    /// Build: embeds a (deterministic) train-split pool up front.
    pub fn new(dataset: &TextDataset, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0xC0DE));
        let mut pool: Vec<usize> = (0..dataset.train.len()).collect();
        pool.shuffle(&mut rng);
        pool.truncate(POOL_CAP);
        let rows = pool.iter().filter_map(|&i| dataset.train.instances.get(i));
        let (_, embeddings) = fit_embedder(rows, seed, 0xC0DF);
        Self {
            rng,
            pool,
            embeddings,
            min_dist: vec![f64::INFINITY; 0],
        }
    }

    fn cosine_distance(&self, a: usize, b: usize) -> f64 {
        let (x, y) = (self.embeddings.row(a), self.embeddings.row(b));
        let dot: f32 = x.iter().zip(y).map(|(p, q)| p * q).sum();
        (1.0 - dot as f64).max(0.0)
    }
}

impl QuerySampler for CoreSetSampler {
    fn select(
        &mut self,
        dataset: &TextDataset,
        _lf_set: &LfSet,
        queried: &BTreeSet<usize>,
    ) -> Option<usize> {
        if self.min_dist.is_empty() {
            // First pick: closest to the centroid.
            let dim = self.embeddings.dim();
            let mut centroid = vec![0.0f64; dim];
            for pi in 0..self.pool.len() {
                for (c, v) in centroid.iter_mut().zip(self.embeddings.row(pi)) {
                    *c += *v as f64;
                }
            }
            let n = self.pool.len().max(1) as f64;
            for c in centroid.iter_mut() {
                *c /= n;
            }
            let first = (0..self.pool.len())
                .filter(|&pi| self.pool.get(pi).is_some_and(|ti| !queried.contains(ti)))
                .max_by(|&a, &b| {
                    let score = |pi: usize| {
                        self.embeddings
                            .row(pi)
                            .iter()
                            .zip(&centroid)
                            .map(|(v, c)| *v as f64 * c)
                            .sum::<f64>()
                    };
                    score(a).total_cmp(&score(b))
                });
            if let Some(pi) = first {
                self.min_dist = (0..self.pool.len())
                    .map(|qi| self.cosine_distance(qi, pi))
                    .collect();
                return self.pool.get(pi).copied();
            }
        } else {
            // k-center greedy: farthest pool instance from the queried set.
            let dist = |pi: usize| self.min_dist.get(pi).copied().unwrap_or(f64::NEG_INFINITY);
            let next = (0..self.pool.len())
                .filter(|&pi| self.pool.get(pi).is_some_and(|ti| !queried.contains(ti)))
                .max_by(|&a, &b| dist(a).total_cmp(&dist(b)));
            if let Some(pi) = next {
                for qi in 0..self.pool.len() {
                    let d = self.cosine_distance(qi, pi);
                    if let Some(md) = self.min_dist.get_mut(qi) {
                        if d < *md {
                            *md = d;
                        }
                    }
                }
                return self.pool.get(pi).copied();
            }
        }
        // Pool exhausted: fall back to random over the full split.
        let n = dataset.train.len();
        (queried.len() < n).then(|| loop {
            let i = self.rng.gen_range(0..n);
            if !queried.contains(&i) {
                break i;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterConfig;
    use datasculpt_data::DatasetName;

    fn tiny() -> TextDataset {
        DatasetName::Youtube.load_scaled(5, 0.1)
    }

    #[test]
    fn random_sampler_is_deterministic_and_exhaustive() {
        let d = tiny();
        let set = LfSet::new(&d, FilterConfig::all());
        let mut queried = BTreeSet::new();
        let mut a = RandomSampler::new(3);
        let mut b = RandomSampler::new(3);
        for _ in 0..20 {
            let ia = a.select(&d, &set, &queried).expect("instances remain");
            let ib = b.select(&d, &set, &queried).expect("instances remain");
            assert_eq!(ia, ib);
            queried.insert(ia);
        }
        assert_eq!(queried.len(), 20);
    }

    #[test]
    fn random_sampler_returns_none_when_exhausted() {
        let d = tiny();
        let set = LfSet::new(&d, FilterConfig::all());
        let queried: BTreeSet<usize> = (0..d.train.len()).collect();
        let mut s = RandomSampler::new(0);
        assert_eq!(s.select(&d, &set, &queried), None);
    }

    #[test]
    fn uncertain_sampler_runs_and_avoids_queried() {
        let d = tiny();
        let mut set = LfSet::new(&d, FilterConfig::all());
        set.try_add(crate::lf::KeywordLf::new("subscribe", 1));
        set.try_add(crate::lf::KeywordLf::new("love", 0));
        let mut s = UncertainSampler::new(&d, 1);
        let mut queried = BTreeSet::new();
        for _ in 0..10 {
            let i = s.select(&d, &set, &queried).expect("instances remain");
            assert!(!queried.contains(&i));
            queried.insert(i);
        }
    }

    #[test]
    fn seu_prefers_instances_with_strong_known_grams() {
        let d = tiny();
        let set = LfSet::new(&d, FilterConfig::all());
        let mut s = SeuSampler::new(&d, 2);
        let first = s
            .select(&d, &set, &BTreeSet::new())
            .expect("instances remain");
        // The chosen instance should contain at least one indicative gram.
        let inst = &d.train.instances[first];
        let has_indicative = inst
            .tokens
            .iter()
            .any(|t| d.generative.affinity(t).is_some());
        assert!(has_indicative, "SEU should pick an instance with signal");
    }

    #[test]
    fn seu_is_greedy_and_deterministic() {
        let d = tiny();
        let set = LfSet::new(&d, FilterConfig::all());
        let mut a = SeuSampler::new(&d, 2);
        let mut b = SeuSampler::new(&d, 2);
        let mut qa = BTreeSet::new();
        let mut qb = BTreeSet::new();
        for _ in 0..5 {
            let ia = a.select(&d, &set, &qa).expect("remain");
            let ib = b.select(&d, &set, &qb).expect("remain");
            assert_eq!(ia, ib);
            qa.insert(ia);
            qb.insert(ib);
        }
    }

    #[test]
    fn labels_render() {
        assert_eq!(SamplerKind::Random.label(), "random");
        assert_eq!(SamplerKind::Uncertain.label(), "uncertain");
        assert_eq!(SamplerKind::Seu.label(), "SEU");
        assert_eq!(SamplerKind::CoreSet.label(), "core-set");
    }

    #[test]
    fn coreset_spreads_queries() {
        let d = tiny();
        let set = LfSet::new(&d, FilterConfig::all());
        let mut s = CoreSetSampler::new(&d, 4);
        let mut queried = BTreeSet::new();
        let mut picks = Vec::new();
        for _ in 0..8 {
            let i = s.select(&d, &set, &queried).expect("instances remain");
            assert!(!queried.contains(&i));
            queried.insert(i);
            picks.push(i);
        }
        // All picks distinct and deterministic under the seed.
        let mut s2 = CoreSetSampler::new(&d, 4);
        let mut q2 = BTreeSet::new();
        for &expected in &picks {
            let i = s2.select(&d, &set, &q2).expect("instances remain");
            assert_eq!(i, expected);
            q2.insert(i);
        }
    }
}

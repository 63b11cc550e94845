//! Seedable random distributions used by the synthetic-corpus generators and
//! the simulated LLM.
//!
//! Only `rand` (no `rand_distr`) is a dependency, so Zipf and Gaussian
//! sampling are implemented here: Zipf by inverse-CDF over a precomputed
//! table, Gaussian by the Box–Muller transform. The seed-keying functions
//! [`derive_seed`] and [`hash_str`] are re-exported from
//! [`datasculpt_obs::hash`], the workspace's one hash module.

pub use datasculpt_obs::hash::{derive_seed, hash_str};
use rand::Rng;

/// Zipf-distributed sampler over ranks `0..n` (rank 0 is most frequent).
///
/// `P(rank = k) ∝ 1 / (k + 1)^s`. Natural-language word frequencies are
/// approximately Zipfian with `s ≈ 1`, which is what the background
/// vocabulary of each synthetic corpus uses.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        assert!(s.is_finite(), "non-finite Zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point drift at the tail.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the distribution has exactly one rank.
    pub fn is_empty(&self) -> bool {
        false // constructor forbids n == 0
    }

    /// Sample a rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Gaussian sampler via the Box–Muller transform.
#[derive(Debug, Clone, Copy)]
pub struct Gaussian {
    mean: f64,
    std: f64,
}

impl Gaussian {
    /// A normal distribution with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `std` is negative or not finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std >= 0.0 && std.is_finite(), "invalid std {std}");
        Self { mean, std }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.std == 0.0 {
            return self.mean;
        }
        // Box–Muller: u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.std * z
    }
}

/// Categorical distribution over arbitrary (unnormalized) non-negative weights.
#[derive(Debug, Clone)]
pub struct Categorical {
    cdf: Vec<f64>,
}

impl Categorical {
    /// Build from unnormalized weights.
    ///
    /// # Panics
    /// Panics if weights are empty, contain a negative/NaN entry, or all sum
    /// to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty categorical");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "invalid weight {w}");
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "all-zero categorical weights");
        for v in &mut cdf {
            *v /= acc;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if there are no categories (never true; constructor forbids it).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sample a category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_rank_zero_most_frequent() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[50]);
        // Rough Zipf check: rank 0 should be ~2x rank 1.
        let ratio = counts[0] as f64 / counts[1].max(1) as f64;
        assert!(ratio > 1.4 && ratio < 2.8, "ratio {ratio}");
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "Zipf over zero ranks")]
    fn zipf_zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn gaussian_moments() {
        let g = Gaussian::new(3.0, 2.0);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn gaussian_zero_std_is_constant() {
        let g = Gaussian::new(5.0, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(g.sample(&mut rng), 5.0);
    }

    #[test]
    fn categorical_respects_weights() {
        let c = Categorical::new(&[1.0, 0.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[c.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!(ratio > 2.5 && ratio < 3.6, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn categorical_all_zero_panics() {
        let _ = Categorical::new(&[0.0, 0.0]);
    }

    #[test]
    fn derive_seed_differs_by_stream() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Deterministic.
        assert_eq!(a, derive_seed(42, 0));
    }

    #[test]
    fn hash_str_and_derive_seed_are_pinned() {
        // Every per-text and per-request stream of the simulators is keyed
        // by these bits; a moved bit moves every digest and transcript.
        assert_eq!(hash_str("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_str("free iphone"), 0x52f7_4f5f_3a2a_a054);
        assert_eq!(derive_seed(0, 0), 0x2848_d6a4_a7b2_8bc1);
        assert_eq!(derive_seed(42, 7), 0xd561_b664_f014_940c);
        assert_eq!(derive_seed(u64::MAX, 1), 0x7fbe_5e28_6cac_1ac3);
    }

    #[test]
    fn hash_str_stable_and_distinct() {
        assert_eq!(hash_str("abc"), hash_str("abc"));
        assert_ne!(hash_str("abc"), hash_str("abd"));
        assert_ne!(hash_str(""), hash_str(" "));
    }
}

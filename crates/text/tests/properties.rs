//! Property-based tests for the text substrate.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use datasculpt_text::features::l2_normalize;
use datasculpt_text::ngram::{contains_ngram, extract_ngrams, ngram_order};
use datasculpt_text::rng::{derive_seed, hash_str, Categorical, Gaussian, Zipf};
use datasculpt_text::{normalize, tokenize, tokenize_keep_markers, HashedTfIdf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Tokenize never panics and produces lowercase alphanumeric tokens.
    #[test]
    fn tokenize_total_and_lowercase(s in "\\PC{0,200}") {
        for t in tokenize(&s) {
            prop_assert!(!t.is_empty());
            prop_assert!(t.chars().all(|c| c.is_alphanumeric() || c == '\''));
            prop_assert_eq!(t.to_lowercase(), t.clone());
        }
        let _ = tokenize_keep_markers(&s);
        let _ = normalize(&s);
    }

    /// Tokenization is idempotent through a space join.
    #[test]
    fn tokenize_roundtrip(s in "[a-z][a-z ]{0,80}") {
        let once = tokenize(&s);
        let again = tokenize(&once.join(" "));
        prop_assert_eq!(once, again);
    }

    /// Every extracted n-gram is contained in its source and has a valid
    /// order; the count matches the closed form.
    #[test]
    fn ngram_extraction_invariants(tokens in proptest::collection::vec("[a-z]{1,6}", 0..30)) {
        let grams = extract_ngrams(&tokens, 3);
        let expected: usize = (1..=3).map(|k| tokens.len().saturating_sub(k - 1)).sum();
        prop_assert_eq!(grams.len(), expected);
        for g in &grams {
            prop_assert!((1..=3).contains(&ngram_order(g)));
            prop_assert!(contains_ngram(&tokens, g), "{} not contained", g);
        }
    }

    /// Containment is consistent with a brute-force window scan.
    #[test]
    fn containment_matches_bruteforce(
        tokens in proptest::collection::vec("[ab]{1,2}", 0..12),
        probe in proptest::collection::vec("[ab]{1,2}", 1..4),
    ) {
        let gram = probe.join(" ");
        let brute = (0..tokens.len().saturating_sub(probe.len() - 1))
            .any(|i| (0..probe.len()).all(|j| tokens[i + j] == probe[j]));
        prop_assert_eq!(contains_ngram(&tokens, &gram), brute);
    }

    /// TF-IDF sparse and dense transforms agree; vectors are unit norm or
    /// zero.
    #[test]
    fn tfidf_sparse_dense_agree(docs in proptest::collection::vec(
        proptest::collection::vec("[a-e]{1,3}", 1..12), 1..8)) {
        let mut f = HashedTfIdf::new(64, 2);
        f.fit(docs.iter().map(Vec::as_slice));
        for d in &docs {
            let dense = f.transform(d);
            let sparse = f.transform_sparse(d);
            let mut rebuilt = vec![0.0f32; 64];
            for (b, w) in &sparse {
                prop_assert!(*b < 64);
                rebuilt[*b] = *w;
            }
            prop_assert_eq!(dense.clone(), rebuilt);
            let norm: f32 = dense.iter().map(|x| x * x).sum::<f32>().sqrt();
            prop_assert!(norm == 0.0 || (norm - 1.0).abs() < 1e-4);
        }
    }

    /// l2_normalize leaves a unit (or zero) vector.
    #[test]
    fn l2_normalize_unit(v in proptest::collection::vec(-100.0f32..100.0, 0..32)) {
        let mut v = v;
        l2_normalize(&mut v);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(norm == 0.0 || (norm - 1.0).abs() < 1e-3);
    }

    /// Distributions sample within range for any seed.
    #[test]
    fn distributions_in_range(seed in any::<u64>(), n in 1usize..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let z = Zipf::new(n, 1.1);
        prop_assert!(z.sample(&mut rng) < n);
        let weights: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        let c = Categorical::new(&weights);
        prop_assert!(c.sample(&mut rng) < n);
        let g = Gaussian::new(0.0, 1.0);
        prop_assert!(g.sample(&mut rng).is_finite());
    }

    /// Seed derivation and hashing are deterministic.
    #[test]
    fn seeding_deterministic(seed in any::<u64>(), stream in any::<u64>(), s in "\\PC{0,40}") {
        prop_assert_eq!(derive_seed(seed, stream), derive_seed(seed, stream));
        prop_assert_eq!(hash_str(&s), hash_str(&s));
    }
}

//! Digest pinning across the columnar-refactor boundary.
//!
//! One seeded DataSculpt run per dataset family, with its `RunResult`
//! digest pinned to the value produced by the pre-refactor (row-major,
//! string-keyed) implementation. Any representation change that alters
//! LF selection, the cost ledger, or iteration outcomes shows up here as
//! a digest mismatch.
//!
//! The end model is pinned the same way across its dimension-major
//! rewrite: the digest of an uncertainty-sampler run (the pipeline's only
//! dense-fit path), and the bits of sparse end-model probabilities.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use datasculpt::prelude::*;

/// Run one seeded config and return the run digest.
fn digest_for(dataset: DatasetName, scale: f64, seed: u64, num_queries: usize) -> u64 {
    let data = dataset.load_scaled(0, scale);
    let mut config = DataSculptConfig::base(seed);
    config.num_queries = num_queries;
    let mut llm = SimulatedLlm::new(ModelId::Gpt35Turbo, data.generative.clone(), seed);
    let run = DataSculpt::new(&data, config)
        .run(&mut llm)
        .expect("simulated model does not fail");
    run.digest()
}

#[test]
fn digests_are_pinned_per_dataset_family() {
    // (family representative, scale, seed, queries, pinned digest)
    let cases: &[(DatasetName, f64, u64, usize, u64)] = &[
        (DatasetName::Imdb, 0.2, 7, 8, 0x9b17_d636_2215_9ded),
        (DatasetName::Agnews, 0.02, 7, 8, 0x230f_97af_3a31_979d),
        (DatasetName::Youtube, 0.3, 7, 8, 0xf8bf_80de_6552_4b14),
        (DatasetName::Spouse, 0.3, 7, 8, 0x47e6_e624_0b3f_96ae),
    ];
    let mut drifted = Vec::new();
    for &(name, scale, seed, queries, pinned) in cases {
        let got = digest_for(name, scale, seed, queries);
        println!("GOLDEN {name:?} {got:#018x}");
        if got != pinned {
            drifted.push(format!("{name:?}: got {got:#018x}, pinned {pinned:#018x}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "digests drifted from the pre-refactor pins:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn uncertainty_sampler_digest_is_pinned() {
    // The only pipeline path through the dense `SoftmaxRegression::fit`
    // and `predict_proba_one`: the sampler's entropies pick the queries.
    // Sixteen queries on this slice refresh the model often enough that a
    // 0.1 % change to its learning rate moves the digest.
    let data = DatasetName::Sms.load_scaled(0, 0.2);
    let mut config = DataSculptConfig::base(7);
    config.num_queries = 16;
    config.sampler = SamplerKind::Uncertain;
    let mut llm = SimulatedLlm::new(ModelId::Gpt35Turbo, data.generative.clone(), 7);
    let run = DataSculpt::new(&data, config)
        .run(&mut llm)
        .expect("simulated model does not fail");
    let got = run.digest();
    println!("GOLDEN uncertain {got:#018x}");
    assert_eq!(
        got, 0x5535_6fc8_570e_dfbb,
        "uncertainty-sampler digest drifted: {got:#018x}"
    );
}

/// FNV-1a over the bits of every class probability the sparse end model
/// predicts for its own training rows.
fn end_model_probability_digest(dataset: DatasetName, scale: f64) -> u64 {
    let data = dataset.load_scaled(3, scale);
    let n_classes = data.n_classes();
    let mut tfidf = datasculpt::text::HashedTfIdf::new(32_768, 1);
    tfidf.fit(data.train.iter().map(|i| i.tokens.as_slice()));
    let labeled: Vec<(&Instance, usize)> = data
        .train
        .iter()
        .filter_map(|i| i.label.map(|y| (i, y)))
        .collect();
    let rows: Vec<datasculpt::endmodel::logreg::SparseRow> = labeled
        .iter()
        .map(|(i, _)| {
            tfidf
                .transform_sparse(&i.tokens)
                .into_iter()
                .map(|(d, v)| (d as u32, v))
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = labeled
        .iter()
        .map(|&(_, y)| {
            let mut t = vec![0.0; n_classes];
            t[y] = 1.0;
            t
        })
        .collect();
    // Uneven sample weights, as the eval's balanced weights are.
    let weights: Vec<f64> = labeled.iter().map(|&(_, y)| 1.0 + y as f64 * 0.5).collect();
    let train = TrainConfig {
        epochs: 8,
        ..EvalConfig::default().train
    };
    let mut model = SoftmaxRegression::new(32_768, n_classes);
    model.fit_sparse(&rows, &targets, Some(&weights), &train);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for row in &rows {
        for p in model.predict_proba_sparse_one(row) {
            for byte in p.to_bits().to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    digest
}

#[test]
fn sparse_end_model_probabilities_are_pinned() {
    // (dataset, scale, pinned digest): two classes and four classes.
    let cases: &[(DatasetName, f64, u64)] = &[
        (DatasetName::Youtube, 1.0, 0x5bef_0a24_8dc0_daf6),
        (DatasetName::Agnews, 0.03, 0x6cf8_ca61_b9d3_989e),
    ];
    let mut drifted = Vec::new();
    for &(name, scale, pinned) in cases {
        let got = end_model_probability_digest(name, scale);
        println!("GOLDEN end-model {name:?} {got:#018x}");
        if got != pinned {
            drifted.push(format!("{name:?}: got {got:#018x}, pinned {pinned:#018x}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "end-model probabilities drifted:\n{}",
        drifted.join("\n")
    );
}

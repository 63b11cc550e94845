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
//!
//! The simulated LLM is pinned across its known-gram index rewrite by
//! whole transcripts: every response's content and token usage for
//! PromptedLF (label-only mode), ScriptoriumWS (generic mode) and a
//! DataSculpt-SC run with LF revision under the small Llama.

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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |d, &b| (d ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// A model wrapper that folds every response it serves into one FNV-1a
/// digest: each choice's content, then the call's token usage, in call
/// order. Batches are forwarded whole, so the inner model's batch path is
/// the one pinned.
struct Transcript<M> {
    inner: M,
    digest: u64,
    calls: u64,
    /// Choices that invented an example instead of answering.
    hallucinations: u64,
}

impl<M: ChatModel> Transcript<M> {
    fn new(inner: M) -> Self {
        Self {
            inner,
            digest: FNV_OFFSET,
            calls: 0,
            hallucinations: 0,
        }
    }

    fn record(&mut self, result: &Result<datasculpt::llm::ChatResponse, LlmError>) {
        match result {
            Ok(resp) => {
                for choice in &resp.choices {
                    if choice.content.starts_with("Here is another example") {
                        self.hallucinations += 1;
                    }
                    self.digest = fnv(self.digest, choice.content.as_bytes());
                    self.digest = fnv(self.digest, &[0xff]);
                }
                self.digest = fnv(self.digest, &resp.usage.prompt_tokens.to_le_bytes());
                self.digest = fnv(self.digest, &resp.usage.completion_tokens.to_le_bytes());
            }
            Err(e) => self.digest = fnv(self.digest, e.to_string().as_bytes()),
        }
        self.calls += 1;
    }
}

impl<M: ChatModel> ChatModel for Transcript<M> {
    fn complete(
        &mut self,
        request: &ChatRequest,
    ) -> Result<datasculpt::llm::ChatResponse, LlmError> {
        let result = self.inner.complete(request);
        self.record(&result);
        result
    }

    fn complete_batch(
        &mut self,
        requests: &[ChatRequest],
    ) -> Vec<Result<datasculpt::llm::ChatResponse, LlmError>> {
        let results = self.inner.complete_batch(requests);
        for result in &results {
            self.record(result);
        }
        results
    }

    fn model_id(&self) -> ModelId {
        self.inner.model_id()
    }

    fn advance_replayed(&mut self, calls: u64) {
        self.inner.advance_replayed(calls);
    }
}

/// Digest of every PromptedLF response and the resulting label matrix.
fn promptedlf_digest(dataset: DatasetName, scale: f64) -> (u64, u64) {
    let data = dataset.load_scaled(0, scale);
    let llm = SimulatedLlm::new(ModelId::Gpt35Turbo, data.generative.clone(), 5);
    let mut llm = Transcript::new(llm);
    let result = promptedlf_run(&data, &mut llm);
    let mut digest = llm.digest;
    for column in result.matrix.columns() {
        for vote in column {
            digest = fnv(digest, &vote.to_le_bytes());
        }
    }
    (digest, llm.calls)
}

#[test]
fn promptedlf_transcripts_are_pinned() {
    // The simulator's label-only path: every response's content and usage,
    // then the vote matrix. Spouse adds `[A:…]` entity markers and the
    // relation connector grams.
    let cases: &[(DatasetName, f64, u64, u64)] = &[
        (DatasetName::Sms, 0.02, 6643, 0x89da_ad3e_2411_4364),
        (DatasetName::Spouse, 0.02, 4895, 0xddcc_a5b5_2f20_1a7f),
    ];
    let mut drifted = Vec::new();
    for &(name, scale, calls, pinned) in cases {
        let (got, served) = promptedlf_digest(name, scale);
        println!("GOLDEN promptedlf {name:?} {got:#018x} ({served} calls)");
        if (got, served) != (pinned, calls) {
            drifted.push(format!(
                "{name:?}: got {got:#018x} over {served} calls, pinned {pinned:#018x} over {calls}"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "PromptedLF transcripts drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn scriptorium_transcripts_are_pinned() {
    // The simulator's generic (instance-free) keyword mode, under every
    // model profile.
    let data = DatasetName::Youtube.load_scaled(0, 0.2);
    let mut digest = FNV_OFFSET;
    for model in ModelId::ALL {
        let mut llm = Transcript::new(SimulatedLlm::new(model, data.generative.clone(), 3));
        let result = scriptorium_run(&data, &mut llm, 9).expect("simulated model does not fail");
        digest = fnv(digest, &llm.digest.to_le_bytes());
        for lf in &result.lfs {
            digest = fnv(digest, lf.keyword.as_bytes());
            digest = fnv(digest, &(lf.label as u64).to_le_bytes());
        }
    }
    println!("GOLDEN scriptorium {digest:#018x}");
    assert_eq!(
        digest, 0x72e2_7d85_d486_d5da,
        "ScriptoriumWS transcripts drifted: {digest:#018x}"
    );
}

#[test]
fn sc_revision_transcript_is_pinned() {
    // DataSculpt-SC with LF revision under the small Llama: chain of
    // thought, self-consistency samples, keyword extensions, junk
    // keywords, hallucinated examples and the revise prompt.
    let data = DatasetName::Youtube.load_scaled(0, 0.2);
    let mut config = DataSculptConfig::sc(7);
    config.num_queries = 10;
    config.revise_rejected = true;
    let llm = SimulatedLlm::new(ModelId::Llama2Chat7b, data.generative.clone(), 7);
    let mut llm = Transcript::new(llm);
    let run = DataSculpt::new(&data, config)
        .run(&mut llm)
        .expect("simulated model does not fail");
    let digest = fnv(llm.digest, &run.digest().to_le_bytes());
    println!(
        "GOLDEN sc-revise {digest:#018x} ({} calls, {} hallucinations)",
        llm.calls, llm.hallucinations
    );
    // More calls than queries: rejected keywords were sent for revision.
    assert!(llm.calls > 10 && llm.hallucinations > 0);
    assert_eq!(
        (digest, llm.calls),
        (0x00e6_ff83_2ec5_380f, 22),
        "SC revision transcript drifted: {digest:#018x}"
    );
}

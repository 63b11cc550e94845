//! Criterion microbenchmarks for the performance-critical components:
//! tokenization, n-gram indexing, LF application, the simulated LLM and
//! the label model. These are component benches — the table/figure
//! binaries in `src/bin/` are the experiment harness, and the end-model
//! fit is timed once, by the `hotpath` binary's `endmodel-fit` kernel.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use datasculpt::core::index::NgramIndex;
use datasculpt::core::prompt::{build_messages, request, PromptStyle};
use datasculpt::prelude::*;
use std::hint::black_box;

fn bench_tokenize(c: &mut Criterion) {
    let d = DatasetName::Imdb.load_scaled(1, 0.01);
    let text = d.train.instances[0].text.clone();
    c.bench_function("tokenize/imdb_review", |b| {
        b.iter(|| datasculpt::text::tokenize(black_box(&text)))
    });
}

fn bench_index_build_and_apply(c: &mut Criterion) {
    let d = DatasetName::Youtube.load_scaled(1, 1.0);
    c.bench_function("index/build_youtube_train", |b| {
        b.iter(|| NgramIndex::build(black_box(&d.train)))
    });
    let idx = NgramIndex::build(&d.train);
    let lf = KeywordLf::new("check out", 1);
    c.bench_function("index/apply_one_lf_1586_docs", |b| {
        b.iter(|| idx.apply(black_box(&lf)))
    });
    c.bench_function("lf/apply_scan_1586_docs", |b| {
        b.iter(|| lf.apply(black_box(&d.train)))
    });
}

fn bench_simulated_llm(c: &mut Criterion) {
    let d = DatasetName::Imdb.load_scaled(1, 0.01);
    let messages = build_messages(&d.spec, PromptStyle::CoT, &[], &d.train.instances[0].text);
    let req = request(messages, 0.7, 1);
    let req10 = req.clone().with_n(10);
    c.bench_function("llm/complete_n1", |b| {
        b.iter_batched(
            || SimulatedLlm::new(ModelId::Gpt35Turbo, d.generative.clone(), 1),
            |mut llm| llm.complete(black_box(&req)),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("llm/complete_n10_self_consistency", |b| {
        b.iter_batched(
            || SimulatedLlm::new(ModelId::Gpt35Turbo, d.generative.clone(), 1),
            |mut llm| llm.complete(black_box(&req10)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_cache_and_batch(c: &mut Criterion) {
    let d = DatasetName::Imdb.load_scaled(1, 0.01);
    let messages = build_messages(&d.spec, PromptStyle::Base, &[], &d.train.instances[0].text);
    let req = request(messages, 0.7, 1);
    // Cache middleware overhead on a pure hit path: the inner model is
    // never consulted after the first call.
    c.bench_function("llm/cached_hit_lookup", |b| {
        let inner = SimulatedLlm::new(ModelId::Gpt35Turbo, d.generative.clone(), 1);
        let mut llm = CachedModel::new(inner);
        llm.complete(&req).expect("warm the cache");
        b.iter(|| llm.complete(black_box(&req)))
    });
    // Miss path: key construction + inner call + insert, on a fresh cache.
    c.bench_function("llm/cached_miss", |b| {
        b.iter_batched(
            || {
                CachedModel::new(SimulatedLlm::new(
                    ModelId::Gpt35Turbo,
                    d.generative.clone(),
                    1,
                ))
            },
            |mut llm| llm.complete(black_box(&req)),
            BatchSize::SmallInput,
        )
    });
    let requests: Vec<ChatRequest> = d
        .train
        .iter()
        .take(32)
        .map(|inst| {
            let messages = build_messages(&d.spec, PromptStyle::Base, &[], &inst.text);
            request(messages, 0.7, 1)
        })
        .collect();
    c.bench_function("llm/complete_batch_32", |b| {
        b.iter_batched(
            || SimulatedLlm::new(ModelId::Gpt35Turbo, d.generative.clone(), 1),
            |mut llm| llm.complete_batch(black_box(&requests)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_label_model(c: &mut Criterion) {
    let d = DatasetName::Youtube.load_scaled(1, 1.0);
    let mut set = LfSet::new(&d, FilterConfig::validity_only());
    for lf in wrench_expert_lfs(&d, 40) {
        set.try_add(lf);
    }
    let matrix = set.train_matrix();
    c.bench_function("labelmodel/metal_fit_1586x40", |b| {
        b.iter(|| {
            let mut lm = MetalModel::new().with_max_iter(25);
            lm.fit(black_box(matrix), 2);
            lm
        })
    });
    let mut lm = MetalModel::new().with_max_iter(25);
    lm.fit(matrix, 2);
    c.bench_function("labelmodel/metal_predict_1586x40", |b| {
        b.iter(|| lm.predict_proba(black_box(matrix)))
    });
    c.bench_function("labelmodel/majority_vote_1586x40", |b| {
        b.iter(|| {
            let mut mv = MajorityVote::new();
            mv.fit(black_box(matrix), 2);
            mv.predict_proba(black_box(matrix))
        })
    });
}

fn bench_dataset_generation(c: &mut Criterion) {
    c.bench_function("data/generate_youtube_full", |b| {
        b.iter(|| DatasetName::Youtube.load(black_box(7)))
    });
}

/// Columnar hot-path kernels vs their pre-refactor row-major baselines,
/// on an Agnews slice (the full-size comparison is `scripts/bench.sh` →
/// `BENCH_hotpath.json`). Shares fixtures and the baseline port with the
/// `hotpath` binary via `datasculpt_bench::hotpath`.
fn bench_hotpath_columnar_vs_rowmajor(c: &mut Criterion) {
    use datasculpt_bench::hotpath::{HotpathFixture, ESTEP_ITERS};
    let fx = HotpathFixture::load(DatasetName::Agnews, 0.05);
    c.bench_function("hotpath/index_build_agnews", |b| {
        b.iter(|| fx.kernel_index_build())
    });
    c.bench_function("hotpath/lf_apply_indexed_agnews", |b| {
        b.iter(|| fx.kernel_lf_apply())
    });
    c.bench_function("hotpath/lf_apply_rowscan_baseline_agnews", |b| {
        b.iter(|| fx.kernel_lf_apply_rowscan())
    });
    c.bench_function(
        &format!("hotpath/metal_estep_{ESTEP_ITERS}it_columnar_agnews"),
        |b| b.iter(|| fx.kernel_metal_estep()),
    );
    c.bench_function(
        &format!("hotpath/metal_estep_{ESTEP_ITERS}it_rowmajor_baseline_agnews"),
        |b| b.iter(|| fx.kernel_metal_estep_rowmajor()),
    );
    c.bench_function("hotpath/tfidf_featurize_agnews", |b| {
        b.iter(|| fx.kernel_tfidf())
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tokenize,
    bench_index_build_and_apply,
    bench_simulated_llm,
    bench_cache_and_batch,
    bench_label_model,
    bench_dataset_generation,
    bench_hotpath_columnar_vs_rowmajor
);
criterion_main!(benches);

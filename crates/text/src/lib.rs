//! Text-processing substrate for the DataSculpt reproduction.
//!
//! This crate provides the low-level text machinery every other crate builds
//! on: deterministic tokenization, n-gram extraction, an interned token
//! arena, hashed TF-IDF features, random-projection embeddings (the BERT substitute used by
//! the end model and by KATE exemplar selection), and seedable random
//! distributions (Zipf, Gaussian, categorical) used by the synthetic corpus
//! generators.
//!
//! Everything here is deterministic under a fixed seed: the same seed always
//! produces the same tokens, features, and samples, which is what makes the
//! experiment harness reproducible.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod arena;
pub mod embed;
pub mod features;
pub mod ngram;
pub mod rng;
pub mod tokenize;

pub use arena::TokenArena;
pub use embed::{cosine_similarity, Embedder, RandomProjection};
pub use features::{FeatureMatrix, HashedTfIdf, ShapeError};
pub use ngram::{contains_ngram, extract_ngrams, for_each_ngram, Ngram};
pub use rng::{Categorical, Gaussian, Zipf};
pub use tokenize::{normalize, tokenize, tokenize_keep_markers};

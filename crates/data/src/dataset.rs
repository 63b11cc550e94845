//! Dataset loading: synthesize the three splits of a named dataset.

use crate::datasets::{self, render_text};
use crate::generative::GenerativeModel;
use crate::instance::{Instance, Split};
use crate::spec::{DatasetSpec, SplitSizes};
use datasculpt_text::rng::derive_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The six evaluation datasets of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetName {
    /// Youtube comment spam (review domain, 2 classes).
    Youtube,
    /// SMS spam (text-message domain, 2 classes, F1).
    Sms,
    /// IMDB movie-review sentiment (2 classes).
    Imdb,
    /// Yelp review sentiment (2 classes).
    Yelp,
    /// AG News topic classification (4 classes).
    Agnews,
    /// Spouse relation classification (2 classes, F1, default class).
    Spouse,
}

impl DatasetName {
    /// All six datasets in the paper's column order.
    pub const ALL: [DatasetName; 6] = [
        DatasetName::Youtube,
        DatasetName::Sms,
        DatasetName::Imdb,
        DatasetName::Yelp,
        DatasetName::Agnews,
        DatasetName::Spouse,
    ];

    /// Short lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            DatasetName::Youtube => "youtube",
            DatasetName::Sms => "sms",
            DatasetName::Imdb => "imdb",
            DatasetName::Yelp => "yelp",
            DatasetName::Agnews => "agnews",
            DatasetName::Spouse => "spouse",
        }
    }

    /// Parse from a short name (case-insensitive).
    pub fn parse(s: &str) -> Option<DatasetName> {
        match s.to_ascii_lowercase().as_str() {
            "youtube" => Some(DatasetName::Youtube),
            "sms" => Some(DatasetName::Sms),
            "imdb" => Some(DatasetName::Imdb),
            "yelp" => Some(DatasetName::Yelp),
            "agnews" => Some(DatasetName::Agnews),
            "spouse" => Some(DatasetName::Spouse),
            _ => None,
        }
    }

    /// Spec and generative model (no instances generated yet).
    pub fn spec(&self) -> (DatasetSpec, GenerativeModel) {
        match self {
            DatasetName::Youtube => datasets::youtube::build(),
            DatasetName::Sms => datasets::sms::build(),
            DatasetName::Imdb => datasets::imdb::build(),
            DatasetName::Yelp => datasets::yelp::build(),
            DatasetName::Agnews => datasets::agnews::build(),
            DatasetName::Spouse => datasets::spouse::build(),
        }
    }

    /// Generate the full dataset at Table 1 sizes.
    pub fn load(&self, seed: u64) -> TextDataset {
        self.load_scaled(seed, 1.0)
    }

    /// Generate a down-scaled variant (for tests and quick examples).
    /// Each split keeps at least 16 instances.
    pub fn load_scaled(&self, seed: u64, factor: f64) -> TextDataset {
        let (mut spec, model) = self.spec();
        if (factor - 1.0).abs() > 1e-12 {
            spec.sizes = spec.sizes.scaled(factor, 16);
        }
        TextDataset::generate(spec, model, seed)
    }
}

impl std::fmt::Display for DatasetName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A fully materialized dataset: spec, generative model, three splits.
#[derive(Debug, Clone)]
pub struct TextDataset {
    /// Static task description.
    pub spec: DatasetSpec,
    /// Ground-truth corpus model (used by the LLM simulator and oracles),
    /// shared: cloning the handle hands the same world to every simulator.
    pub generative: Arc<GenerativeModel>,
    /// Unlabeled training split (labels hidden for Spouse).
    pub train: Split,
    /// Labeled validation split.
    pub valid: Split,
    /// Labeled test split.
    pub test: Split,
}

impl TextDataset {
    /// Synthesize all splits. Deterministic in `(spec.name, seed)`.
    pub fn generate(spec: DatasetSpec, generative: GenerativeModel, seed: u64) -> Self {
        let base = derive_seed(seed, datasculpt_text::rng::hash_str(spec.name));
        let SplitSizes { train, valid, test } = spec.sizes;
        let train_split = Self::gen_split(&generative, train, base, 0, spec.train_labels_available);
        let valid_split = Self::gen_split(&generative, valid, base, 1, true);
        let test_split = Self::gen_split(&generative, test, base, 2, true);
        Self {
            spec,
            generative: Arc::new(generative),
            train: train_split,
            valid: valid_split,
            test: test_split,
        }
    }

    fn gen_split(
        model: &GenerativeModel,
        size: usize,
        base: u64,
        split_id: u64,
        keep_labels: bool,
    ) -> Split {
        let split_seed = derive_seed(base, split_id);
        let mut label_rng = StdRng::seed_from_u64(derive_seed(split_seed, u64::MAX));
        let mut instances = Vec::with_capacity(size);
        for id in 0..size {
            let label = model.sample_label(&mut label_rng);
            let doc = model.sample_document(label, split_seed, id as u64);
            let text = render_text(&doc.tokens);
            instances.push(Instance {
                id,
                text,
                tokens: doc.tokens,
                marked_tokens: doc.marked,
                entities: doc.entities,
                label: if keep_labels { Some(label) } else { None },
            });
        }
        Split { instances }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.spec.n_classes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Metric;

    #[test]
    fn load_scaled_is_deterministic() {
        let a = DatasetName::Youtube.load_scaled(42, 0.05);
        let b = DatasetName::Youtube.load_scaled(42, 0.05);
        assert_eq!(a.train.len(), b.train.len());
        assert_eq!(a.train.instances[0].text, b.train.instances[0].text);
        assert_eq!(a.test.instances[3].label, b.test.instances[3].label);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetName::Youtube.load_scaled(1, 0.05);
        let b = DatasetName::Youtube.load_scaled(2, 0.05);
        assert_ne!(a.train.instances[0].text, b.train.instances[0].text);
    }

    #[test]
    fn splits_are_distinct() {
        let d = DatasetName::Sms.load_scaled(5, 0.05);
        assert_ne!(d.train.instances[0].text, d.valid.instances[0].text);
        assert_ne!(d.valid.instances[0].text, d.test.instances[0].text);
    }

    #[test]
    fn spouse_train_labels_hidden() {
        let d = DatasetName::Spouse.load_scaled(3, 0.01);
        assert!(d.train.instances.iter().all(|i| i.label.is_none()));
        assert!(d.valid.instances.iter().all(|i| i.label.is_some()));
        assert!(d.test.instances.iter().all(|i| i.label.is_some()));
        assert_eq!(d.spec.metric, Metric::F1);
    }

    #[test]
    fn full_sizes_match_table1() {
        // Generate the smallest dataset at full size to check the plumbing.
        let d = DatasetName::Youtube.load(0);
        assert_eq!(d.train.len(), 1586);
        assert_eq!(d.valid.len(), 120);
        assert_eq!(d.test.len(), 250);
    }

    #[test]
    fn text_round_trips_to_tokens() {
        let d = DatasetName::Imdb.load_scaled(9, 0.01);
        for inst in d.train.iter().take(20) {
            assert_eq!(datasculpt_text::tokenize(&inst.text), inst.tokens);
        }
    }

    #[test]
    fn parse_and_display() {
        for name in DatasetName::ALL {
            assert_eq!(DatasetName::parse(name.as_str()), Some(name));
            assert_eq!(name.to_string(), name.as_str());
        }
        assert_eq!(DatasetName::parse("IMDB"), Some(DatasetName::Imdb));
        assert_eq!(DatasetName::parse("unknown"), None);
    }

    #[test]
    fn class_balance_tracks_priors() {
        let d = DatasetName::Sms.load_scaled(11, 0.5);
        let dist = d.train.class_distribution(2);
        assert!((dist[1] - 0.132).abs() < 0.03, "spam frac {}", dist[1]);
    }
}

//! A dataset bundled with the read-only indexes every run over it needs.

use crate::index::NgramIndex;
use datasculpt_data::TextDataset;
use std::sync::Arc;

/// An immutable dataset plus the n-gram indexes of its train and valid
/// splits.
///
/// The indexes depend only on the dataset, so one corpus can back any
/// number of runs: [`LfSet::over`](crate::LfSet::over) and
/// [`DataSculpt::over`](crate::DataSculpt::over) share its indexes instead
/// of building their own, and the serving daemon keeps one corpus per
/// (dataset, seed, scale) key behind an `Arc`. A run over a shared corpus
/// is bit-identical to one that builds private indexes.
#[derive(Debug)]
pub struct Corpus {
    dataset: TextDataset,
    train_index: Arc<NgramIndex>,
    valid_index: Arc<NgramIndex>,
}

impl Corpus {
    /// Take ownership of `dataset` and index its train and valid splits.
    pub fn build(dataset: TextDataset) -> Self {
        let (train_index, valid_index) = split_indexes(&dataset);
        Corpus {
            dataset,
            train_index,
            valid_index,
        }
    }

    /// The indexed dataset.
    pub fn dataset(&self) -> &TextDataset {
        &self.dataset
    }

    /// Index over the train split.
    pub(crate) fn train_index(&self) -> &Arc<NgramIndex> {
        &self.train_index
    }

    /// Index over the valid split.
    pub(crate) fn valid_index(&self) -> &Arc<NgramIndex> {
        &self.valid_index
    }
}

/// The train and valid indexes of `dataset`: the one place either is
/// built for a run.
pub(crate) fn split_indexes(dataset: &TextDataset) -> (Arc<NgramIndex>, Arc<NgramIndex>) {
    (
        Arc::new(NgramIndex::build(&dataset.train)),
        Arc::new(NgramIndex::build(&dataset.valid)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AddOutcome, DataSculpt, DataSculptConfig, FilterConfig, KeywordLf, LfSet, SamplerKind,
    };
    use datasculpt_data::DatasetName;
    use datasculpt_exec::Pool;
    use datasculpt_llm::{ModelId, SimulatedLlm};

    fn columns(set: &LfSet) -> (Vec<Vec<i32>>, Vec<Vec<i32>>) {
        let train = set.train_matrix().columns().map(<[i32]>::to_vec).collect();
        let valid = set.valid_matrix().columns().map(<[i32]>::to_vec).collect();
        (train, valid)
    }

    #[test]
    fn sets_over_a_shared_corpus_match_a_private_build() {
        let corpus = Corpus::build(DatasetName::Imdb.load_scaled(42, 0.01));
        let mut private = LfSet::new(corpus.dataset(), FilterConfig::all());
        // Two sets on one corpus: sharing the indexes must not couple them.
        let mut shared = LfSet::over(&corpus, FilterConfig::all());
        let mut pooled = LfSet::over(&corpus, FilterConfig::all()).with_pool(Pool::new(4));
        let offers = [
            KeywordLf::new("great", 1),
            KeywordLf::new("horrible", 0),
            KeywordLf::new("great", 0),
            KeywordLf::new("so great", 1),
            KeywordLf::new("one two three four", 1),
            KeywordLf::new("great", 1),
            KeywordLf::new("zxqv never occurs", 0),
        ];
        let mut outcomes = Vec::new();
        for lf in offers {
            let want = private.try_add(lf.clone());
            assert_eq!(shared.try_add(lf.clone()), want, "{lf:?}");
            assert_eq!(pooled.try_add(lf), want);
            outcomes.push(want);
        }
        assert!(outcomes.contains(&AddOutcome::Added));
        assert!(outcomes.contains(&AddOutcome::RejectedAccuracy));
        assert!(outcomes.contains(&AddOutcome::Duplicate));
        assert_eq!(shared.rejections(), private.rejections());
        assert_eq!(columns(&shared), columns(&private));
        assert_eq!(columns(&pooled), columns(&private));
    }

    #[test]
    fn runs_over_a_shared_corpus_match_private_runs() {
        let corpus = Corpus::build(DatasetName::Youtube.load_scaled(21, 0.1));
        let digest = |pipeline: DataSculpt<'_>| {
            let mut llm =
                SimulatedLlm::new(ModelId::Gpt35Turbo, corpus.dataset().generative.clone(), 13);
            pipeline.run(&mut llm).expect("run").digest()
        };
        let mut digests = Vec::new();
        for threads in [1, 2, 8] {
            let mut cfg = DataSculptConfig::sc(9);
            cfg.num_queries = 6;
            // The uncertainty sampler reads the LF set's vote matrix.
            cfg.sampler = SamplerKind::Uncertain;
            cfg.threads = threads;
            let private = digest(DataSculpt::new(corpus.dataset(), cfg));
            let shared = digest(DataSculpt::over(&corpus, cfg));
            assert_eq!(shared, private, "{threads} threads");
            digests.push(shared);
        }
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
    }
}

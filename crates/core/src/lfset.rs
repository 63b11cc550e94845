//! The growing LF set, with incremental filtering.

use crate::corpus::{split_indexes, Corpus};
use crate::filter::{consensus, AddOutcome, FilterConfig};
use crate::index::NgramIndex;
use crate::lf::KeywordLf;
use datasculpt_data::TextDataset;
use datasculpt_exec::Pool;
use datasculpt_labelmodel::{LabelMatrix, ABSTAIN};
use datasculpt_text::TokenArena;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A candidate memo key: interned keyword symbol, label, anchoring flag.
type CandidateKey = (u32, usize, bool);

/// The accumulated set of accepted LFs plus their cached vote columns on
/// the train and validation splits, held directly as LF-major
/// [`LabelMatrix`] values: accepting an LF appends one contiguous column,
/// and the label model consumes the matrices by reference with no
/// per-call rebuild.
///
/// Candidates are offered through [`try_add`](LfSet::try_add), which applies
/// the §3.5 filters incrementally: validity structurally, accuracy against
/// the labeled validation split, redundancy against the already-accepted
/// columns on the train split.
///
/// The split indexes are read-only and held by `Arc`: a set built
/// [`over`](LfSet::over) a [`Corpus`] shares the corpus's indexes, and
/// cloning a set never copies them.
#[derive(Debug, Clone)]
pub struct LfSet {
    lfs: Vec<KeywordLf>,
    train_votes: LabelMatrix,
    valid_votes: LabelMatrix,
    train_index: Arc<NgramIndex>,
    valid_index: Arc<NgramIndex>,
    valid_labels: Vec<Option<usize>>,
    n_classes: usize,
    filters: FilterConfig,
    /// Interns candidate keywords once; memo keys carry the `u32` symbol
    /// instead of an owned `String` per offer.
    memo_arena: TokenArena,
    seen: BTreeSet<CandidateKey>,
    /// Keys already rejected, with the outcome of their first offer.
    /// Sound to memoize: validity and accuracy do not depend on the set,
    /// and redundancy is monotone — the set only grows, so a redundant
    /// candidate can never become acceptable later.
    rejected_seen: BTreeMap<CandidateKey, AddOutcome>,
    rejected: RejectionCounts,
    pool: Pool,
}

/// How many candidates each filter rejected (for run diagnostics).
///
/// The per-filter counters count *distinct* candidates; an LF the LLM
/// re-proposes after a rejection increments only
/// [`repeat`](Self::repeat).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectionCounts {
    /// Duplicates of already-accepted LFs.
    pub duplicate: usize,
    /// Validity-filter rejections.
    pub validity: usize,
    /// Accuracy-filter rejections.
    pub accuracy: usize,
    /// Redundancy-filter rejections.
    pub redundancy: usize,
    /// Repeat offers of already-rejected candidates (answered from the
    /// memo, without re-running any filter).
    pub repeat: usize,
}

impl LfSet {
    /// An empty set over a dataset, with private indexes of its train and
    /// valid splits.
    pub fn new(dataset: &TextDataset, filters: FilterConfig) -> Self {
        let (train_index, valid_index) = split_indexes(dataset);
        Self::with_indexes(dataset, train_index, valid_index, filters)
    }

    /// An empty set over a corpus, sharing its indexes. Offers get the
    /// same outcomes and vote columns as on [`LfSet::new`] over the
    /// corpus's dataset.
    pub fn over(corpus: &Corpus, filters: FilterConfig) -> Self {
        Self::with_indexes(
            corpus.dataset(),
            corpus.train_index().clone(),
            corpus.valid_index().clone(),
            filters,
        )
    }

    fn with_indexes(
        dataset: &TextDataset,
        train_index: Arc<NgramIndex>,
        valid_index: Arc<NgramIndex>,
        filters: FilterConfig,
    ) -> Self {
        Self {
            lfs: Vec::new(),
            train_votes: LabelMatrix::empty(train_index.len(), 0),
            valid_votes: LabelMatrix::empty(valid_index.len(), 0),
            train_index,
            valid_index,
            valid_labels: dataset.valid.labels_opt(),
            n_classes: dataset.n_classes(),
            filters,
            memo_arena: TokenArena::new(),
            seen: BTreeSet::new(),
            rejected_seen: BTreeMap::new(),
            rejected: RejectionCounts::default(),
            pool: Pool::serial(),
        }
    }

    /// Use `pool` for chunked-parallel vote-column construction. Vote
    /// columns are integer-valued and per-instance independent, so the
    /// set's contents are identical at every thread count.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Number of accepted LFs.
    pub fn len(&self) -> usize {
        self.lfs.len()
    }

    /// True if no LF has been accepted.
    pub fn is_empty(&self) -> bool {
        self.lfs.is_empty()
    }

    /// The accepted LFs.
    pub fn lfs(&self) -> &[KeywordLf] {
        &self.lfs
    }

    /// Filter configuration in force.
    pub fn filters(&self) -> &FilterConfig {
        &self.filters
    }

    /// Per-filter rejection counters.
    pub fn rejections(&self) -> RejectionCounts {
        self.rejected
    }

    /// Offer a candidate LF; apply filters; keep it if it survives.
    ///
    /// Repeat offers are answered from memos: an accepted key comes back
    /// as [`AddOutcome::Duplicate`], and a rejected key returns the same
    /// outcome as its first offer without re-running the O(|set| · n)
    /// filter scan (counted under [`RejectionCounts::repeat`]).
    pub fn try_add(&mut self, lf: KeywordLf) -> AddOutcome {
        let key = (self.memo_arena.intern(&lf.keyword), lf.label, lf.anchored);
        if self.seen.contains(&key) {
            self.rejected.duplicate += 1;
            return AddOutcome::Duplicate;
        }
        if let Some(&outcome) = self.rejected_seen.get(&key) {
            self.rejected.repeat += 1;
            return outcome;
        }

        // Validity: 1–3-gram keyword, label within range (§3.5).
        if self.filters.validity && !(lf.is_valid_ngram() && lf.label < self.n_classes) {
            self.rejected.validity += 1;
            self.rejected_seen.insert(key, AddOutcome::RejectedValidity);
            return AddOutcome::RejectedValidity;
        }
        // Even with the validity filter off, out-of-range labels cannot be
        // represented in the vote matrix.
        if lf.label >= self.n_classes || lf.keyword.is_empty() {
            self.rejected.validity += 1;
            self.rejected_seen.insert(key, AddOutcome::RejectedValidity);
            return AddOutcome::RejectedValidity;
        }

        // Accuracy on the labeled validation split (§3.5): prune below the
        // threshold; inactive-everywhere LFs pass.
        let valid_col = self.valid_index.apply_with(&lf, &self.pool);
        if self.filters.accuracy {
            let mut active = 0usize;
            let mut correct = 0usize;
            for (v, y) in valid_col.iter().zip(&self.valid_labels) {
                if *v == ABSTAIN {
                    continue;
                }
                if let Some(y) = y {
                    active += 1;
                    if *v as usize == *y {
                        correct += 1;
                    }
                }
            }
            if active > 0 && (correct as f64 / active as f64) < self.filters.accuracy_threshold {
                self.rejected.accuracy += 1;
                self.rejected_seen.insert(key, AddOutcome::RejectedAccuracy);
                return AddOutcome::RejectedAccuracy;
            }
        }

        // Redundancy against accepted LFs, on the train split (§3.5):
        // prune when consensus *reaches* the threshold (inclusive, so a
        // byte-identical column is pruned even at threshold 1.0). Each
        // existing column is a contiguous slice of the vote matrix.
        let train_col = self.train_index.apply_with(&lf, &self.pool);
        if self.filters.redundancy {
            for existing in self.train_votes.columns() {
                if consensus(&train_col, existing) >= self.filters.redundancy_threshold {
                    self.rejected.redundancy += 1;
                    self.rejected_seen
                        .insert(key, AddOutcome::RejectedRedundancy);
                    return AddOutcome::RejectedRedundancy;
                }
            }
        }

        // The columns come from the split indexes (right length) with
        // votes in {abstain, label < n_classes}, so the pushes cannot
        // fail; if that invariant ever breaks, keep the two matrices
        // aligned and refuse the candidate instead of panicking.
        if self.train_votes.try_push_column(&train_col).is_err()
            || self.valid_votes.try_push_column(&valid_col).is_err()
        {
            while self.train_votes.cols() > self.lfs.len() {
                self.train_votes.pop_column();
            }
            self.rejected.validity += 1;
            self.rejected_seen.insert(key, AddOutcome::RejectedValidity);
            return AddOutcome::RejectedValidity;
        }
        self.seen.insert(key);
        self.lfs.push(lf);
        AddOutcome::Added
    }

    /// The weak-label matrix over the train split (held columnar; no
    /// per-call rebuild).
    pub fn train_matrix(&self) -> &LabelMatrix {
        &self.train_votes
    }

    /// The weak-label matrix over the validation split.
    pub fn valid_matrix(&self) -> &LabelMatrix {
        &self.valid_votes
    }

    /// Vote column of accepted LF `j` on the train split.
    pub fn train_column(&self, j: usize) -> &[i32] {
        self.train_votes.column(j)
    }

    /// Number of classes of the underlying task.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasculpt_data::DatasetName;

    fn tiny() -> TextDataset {
        DatasetName::Imdb.load_scaled(42, 0.01)
    }

    #[test]
    fn accepts_good_keyword() {
        let d = tiny();
        let mut set = LfSet::new(&d, FilterConfig::all());
        // "great" is a strong positive keyword; it should be accurate on
        // the validation set.
        let outcome = set.try_add(KeywordLf::new("great", 1));
        assert_eq!(outcome, AddOutcome::Added);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn duplicate_is_flagged() {
        let d = tiny();
        let mut set = LfSet::new(&d, FilterConfig::all());
        assert!(set.try_add(KeywordLf::new("great", 1)).accepted());
        assert_eq!(
            set.try_add(KeywordLf::new("great", 1)),
            AddOutcome::Duplicate
        );
        assert_eq!(set.rejections().duplicate, 1);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn validity_rejects_long_ngrams_and_bad_labels() {
        let d = tiny();
        let mut set = LfSet::new(&d, FilterConfig::all());
        assert_eq!(
            set.try_add(KeywordLf::new("one two three four", 1)),
            AddOutcome::RejectedValidity
        );
        assert_eq!(
            set.try_add(KeywordLf::new("great", 7)),
            AddOutcome::RejectedValidity
        );
        assert_eq!(set.rejections().validity, 2);
    }

    #[test]
    fn wrong_label_keyword_fails_accuracy_filter() {
        let d = tiny();
        let mut set = LfSet::new(&d, FilterConfig::all());
        // "great" voting *negative* should be pruned by validation accuracy.
        assert_eq!(
            set.try_add(KeywordLf::new("great", 0)),
            AddOutcome::RejectedAccuracy
        );
    }

    #[test]
    fn inactive_lf_passes_accuracy_filter() {
        let d = tiny();
        let mut set = LfSet::new(&d, FilterConfig::all());
        // A keyword that never occurs is inactive on validation: passes.
        assert!(set
            .try_add(KeywordLf::new("zxqv never occurs", 1))
            .accepted());
    }

    #[test]
    fn redundancy_rejects_identical_activation() {
        let d = tiny();
        let mut set = LfSet::new(&d, FilterConfig::all());
        assert!(set.try_add(KeywordLf::new("great", 1)).accepted());
        // "great" and "great" with different surface? Use the same keyword
        // under a different anchoring flag to build an identical column.
        // Simpler: a bigram that fires on exactly the same instances is
        // rare in real data, so test via filter-off comparison instead:
        // re-adding is Duplicate, so craft redundancy with "so great"
        // (subset of "great" activations) only if consensus > 0.95 — if it
        // isn't, this test asserts it was added.
        let out = set.try_add(KeywordLf::new("so great", 1));
        assert!(matches!(
            out,
            AddOutcome::Added | AddOutcome::RejectedRedundancy | AddOutcome::RejectedAccuracy
        ));
    }

    #[test]
    fn without_accuracy_filter_bad_lfs_survive() {
        let d = tiny();
        let mut strict = LfSet::new(&d, FilterConfig::all());
        let mut loose = LfSet::new(&d, FilterConfig::without_accuracy());
        let bad = KeywordLf::new("great", 0);
        assert_eq!(strict.try_add(bad.clone()), AddOutcome::RejectedAccuracy);
        assert!(loose.try_add(bad).accepted());
    }

    /// Find a (trigram, leading-bigram) pair in the corpus whose vote
    /// columns are byte-identical: every occurrence of the bigram lies
    /// inside an occurrence of the trigram.
    fn identical_column_pair(d: &TextDataset) -> (KeywordLf, KeywordLf) {
        let index = NgramIndex::build(&d.train);
        for inst in d.train.iter() {
            let toks = inst.match_tokens();
            for w in toks.windows(3) {
                let tri = KeywordLf::new(w.join(" "), 1);
                let bi = KeywordLf::new(w[..2].join(" "), 1);
                let tri_col = index.apply(&tri);
                if tri_col.iter().any(|&v| v != ABSTAIN) && tri_col == index.apply(&bi) {
                    return (tri, bi);
                }
            }
        }
        unreachable!("corpus has no trigram whose prefix bigram is co-extensive");
    }

    #[test]
    fn identical_column_is_pruned_even_at_threshold_one() {
        let d = tiny();
        let filters = FilterConfig {
            accuracy: false, // isolate the redundancy filter
            redundancy_threshold: 1.0,
            ..FilterConfig::all()
        };
        let (tri, bi) = identical_column_pair(&d);
        let mut set = LfSet::new(&d, filters);
        assert_eq!(set.try_add(tri), AddOutcome::Added);
        // The bigram's column is byte-identical (consensus exactly 1.0);
        // the inclusive comparison must prune it even at threshold 1.0.
        assert_eq!(set.try_add(bi), AddOutcome::RejectedRedundancy);
        assert_eq!(set.rejections().redundancy, 1);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn consensus_exactly_at_threshold_is_pruned() {
        let d = tiny();
        // Find a second keyword with partial consensus against "great".
        let index = NgramIndex::build(&d.train);
        let base = KeywordLf::new("great", 1);
        let base_col = index.apply(&base);
        let (partner, c) = ["good", "movie", "film", "really", "very", "a", "the", "and"]
            .iter()
            .find_map(|kw| {
                let c = consensus(&base_col, &index.apply(&KeywordLf::new(*kw, 1)));
                (c > 0.0 && c < 1.0).then(|| (KeywordLf::new(*kw, 1), c))
            })
            .expect("some keyword shares partial activation with 'great'");
        // With the threshold set to that exact consensus, the inclusive
        // comparison prunes the partner; the pre-fix strict `>` accepted it.
        let filters = FilterConfig {
            accuracy: false,
            redundancy_threshold: c,
            ..FilterConfig::all()
        };
        let mut set = LfSet::new(&d, filters);
        assert_eq!(set.try_add(base.clone()), AddOutcome::Added);
        assert_eq!(set.try_add(partner.clone()), AddOutcome::RejectedRedundancy);
        // Just below the exact-consensus threshold the same pair is kept.
        let mut looser = LfSet::new(
            &d,
            FilterConfig {
                redundancy_threshold: c + 1e-9,
                ..filters
            },
        );
        assert_eq!(looser.try_add(base), AddOutcome::Added);
        assert_eq!(looser.try_add(partner), AddOutcome::Added);
    }

    #[test]
    fn rejected_candidates_are_memoized_not_recounted() {
        let d = tiny();
        let mut set = LfSet::new(&d, FilterConfig::all());
        let bad = KeywordLf::new("great", 0); // wrong label: accuracy reject
        assert_eq!(set.try_add(bad.clone()), AddOutcome::RejectedAccuracy);
        assert_eq!(set.rejections().accuracy, 1);
        assert_eq!(set.rejections().repeat, 0);
        // Re-offering returns the memoized outcome, counts a repeat, and
        // leaves the per-filter counter pinned at one distinct rejection.
        for round in 1..=3u64 {
            assert_eq!(set.try_add(bad.clone()), AddOutcome::RejectedAccuracy);
            assert_eq!(set.rejections().accuracy, 1);
            assert_eq!(set.rejections().repeat, round as usize);
        }
        // Invalid candidates are memoized the same way.
        let invalid = KeywordLf::new("one two three four", 1);
        assert_eq!(set.try_add(invalid.clone()), AddOutcome::RejectedValidity);
        assert_eq!(set.try_add(invalid), AddOutcome::RejectedValidity);
        assert_eq!(set.rejections().validity, 1);
        assert_eq!(set.rejections().repeat, 4);
    }

    #[test]
    fn pooled_set_accepts_the_same_lfs() {
        let d = tiny();
        let mut serial = LfSet::new(&d, FilterConfig::all());
        let mut pooled = LfSet::new(&d, FilterConfig::all()).with_pool(Pool::new(4));
        for lf in [
            KeywordLf::new("great", 1),
            KeywordLf::new("horrible", 0),
            KeywordLf::new("great", 0),
            KeywordLf::new("so great", 1),
        ] {
            assert_eq!(serial.try_add(lf.clone()), pooled.try_add(lf));
        }
        assert_eq!(serial.train_matrix().rows(), pooled.train_matrix().rows());
        for j in 0..serial.len() {
            assert_eq!(serial.train_column(j), pooled.train_column(j));
        }
    }

    #[test]
    fn matrices_have_right_shape() {
        let d = tiny();
        let mut set = LfSet::new(&d, FilterConfig::all());
        set.try_add(KeywordLf::new("great", 1));
        set.try_add(KeywordLf::new("horrible", 0));
        let m = set.train_matrix();
        assert_eq!(m.rows(), d.train.len());
        assert_eq!(m.cols(), set.len());
        let v = set.valid_matrix();
        assert_eq!(v.rows(), d.valid.len());
    }
}

//! Class-conditional generative model of a synthetic corpus.
//!
//! A [`GenerativeModel`] holds per-class *indicative n-grams* (each with a
//! per-class appearance probability), a Zipfian background vocabulary, and a
//! document-length distribution. Documents are sampled by filling background
//! tokens and splicing in indicative n-grams whose counts follow the
//! appearance probabilities, plus optional label noise (content generated
//! from the wrong class) so no LF can be perfect.
//!
//! The same model is the "world" that the simulated LLM has (noisy) knowledge
//! of: [`GenerativeModel::affinity`] returns the per-class appearance
//! probabilities of an n-gram, which the simulator corrupts with Gaussian
//! noise before using (see the `datasculpt-llm` crate). The grams the world
//! knows are interned once, in ascending byte order, so the simulator can
//! look each query gram up by symbol and keep its candidates sorted without
//! touching string data again.

use datasculpt_text::rng::{derive_seed, Gaussian};
use datasculpt_text::{Categorical, TokenArena, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An indicative n-gram with per-class appearance probabilities.
#[derive(Debug, Clone)]
pub struct IndicativeNgram {
    /// Canonical space-joined lowercase n-gram.
    pub gram: String,
    /// `probs[c]` = probability the n-gram appears in a class-`c` document.
    pub probs: Vec<f64>,
}

impl IndicativeNgram {
    /// The class this n-gram most indicates (argmax of appearance probs).
    pub fn dominant_class(&self) -> usize {
        self.probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Bayes-optimal accuracy of the keyword LF `(gram → dominant class)`
    /// under the given class priors: `P(y = ĉ | gram present)`.
    pub fn lf_accuracy(&self, priors: &[f64]) -> f64 {
        let c = self.dominant_class();
        let num = priors.get(c).copied().unwrap_or(0.0) * self.probs.get(c).copied().unwrap_or(0.0);
        let den: f64 = priors.iter().zip(&self.probs).map(|(pi, p)| pi * p).sum();
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// Marginal coverage of the n-gram under the given priors.
    pub fn coverage(&self, priors: &[f64]) -> f64 {
        priors.iter().zip(&self.probs).map(|(pi, p)| pi * p).sum()
    }
}

/// A document produced by [`GenerativeModel::sample_document`].
#[derive(Debug, Clone)]
pub struct GeneratedDoc {
    /// Plain tokens (entity names substituted for relation tasks).
    pub tokens: Vec<String>,
    /// Marked tokens with `[a]`/`[b]` placeholders (relation tasks only).
    pub marked: Option<Vec<String>>,
    /// Entity pair (relation tasks only).
    pub entities: Option<(String, String)>,
}

/// The full generative model of one synthetic dataset.
#[derive(Debug, Clone)]
pub struct GenerativeModel {
    n_classes: usize,
    priors: Vec<f64>,
    background: Vec<String>,
    zipf: Zipf,
    indicative: Vec<IndicativeNgram>,
    /// Every gram the world knows: the lexicon plus the relation connector
    /// patterns inserted by [`RelationConfig`] (e.g. `"married"` in Spouse
    /// positives), which are not lexicon entries but still carry class
    /// signal. Interned in ascending byte order.
    known: TokenArena,
    /// `known_probs[s * n_classes..][..n_classes]`: the per-class appearance
    /// probabilities of known symbol `s`.
    known_probs: Vec<f64>,
    by_class: Vec<Vec<usize>>,
    class_cat: Vec<Categorical>,
    class_lambda: Vec<f64>,
    doc_len: Gaussian,
    doc_len_min: usize,
    label_noise: f64,
    /// Relation-task scaffolding (None for plain classification).
    relation: Option<RelationConfig>,
}

/// Entity scaffolding for relation datasets.
#[derive(Debug, Clone)]
pub struct RelationConfig {
    /// First-name pool.
    pub first_names: Vec<&'static str>,
    /// Last-name pool.
    pub last_names: Vec<&'static str>,
    /// Connector patterns placed between the two entity markers in positive
    /// documents, e.g. `"and his wife"`. Tokens, space-joined.
    pub positive_connectors: Vec<&'static str>,
    /// Connectors placed near a *third* person in distractor negatives,
    /// e.g. `"married"` — the relation word is present but does not link the
    /// queried pair.
    pub distractor_rate: f64,
}

impl GenerativeModel {
    /// Build a model.
    ///
    /// # Panics
    /// Panics if priors don't match `n_classes`, don't sum to ~1, or any
    /// indicative n-gram's prob vector has the wrong length.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n_classes: usize,
        priors: Vec<f64>,
        background: Vec<String>,
        indicative: Vec<IndicativeNgram>,
        doc_len_mean: f64,
        doc_len_std: f64,
        doc_len_min: usize,
        label_noise: f64,
        relation: Option<RelationConfig>,
    ) -> Self {
        assert_eq!(priors.len(), n_classes, "prior length mismatch");
        let sum: f64 = priors.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "priors sum to {sum}");
        assert!(!background.is_empty(), "empty background vocabulary");
        assert!(
            (0.0..0.5).contains(&label_noise),
            "label noise {label_noise}"
        );
        let mut by_class = vec![Vec::new(); n_classes];
        for (i, g) in indicative.iter().enumerate() {
            assert_eq!(g.probs.len(), n_classes, "probs mismatch for {}", g.gram);
            assert!(
                g.probs.iter().all(|p| (0.0..=1.0).contains(p)),
                "bad prob for {}",
                g.gram
            );
            if let Some(bucket) = by_class.get_mut(g.dominant_class()) {
                bucket.push(i);
            }
        }
        // The lexicon in byte order; a duplicate lands next to its twin.
        let mut lexicon: Vec<(&str, &[f64])> = indicative
            .iter()
            .map(|g| (g.gram.as_str(), g.probs.as_slice()))
            .collect();
        lexicon.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for pair in lexicon.windows(2) {
            if let [(a, _), (b, _)] = pair {
                assert!(a != b, "duplicate indicative n-gram {a}");
            }
        }
        let in_lexicon = |gram: &str| lexicon.binary_search_by(|e| e.0.cmp(gram)).is_ok();
        let mut class_cat = Vec::with_capacity(n_classes);
        let mut class_lambda = Vec::with_capacity(n_classes);
        for c in 0..n_classes {
            let weights: Vec<f64> = indicative
                .iter()
                .map(|g| g.probs.get(c).copied().unwrap_or(0.0))
                .collect();
            let lambda: f64 = weights.iter().sum();
            assert!(lambda > 0.0, "class {c} has no indicative mass");
            class_cat.push(Categorical::new(&weights));
            class_lambda.push(lambda);
        }
        let zipf = Zipf::new(background.len(), 1.05);
        // Relation connectors carry strong class signal but are inserted by
        // the entity scaffolding rather than the lexicon; expose them to
        // `affinity` lookups so the simulated LLM can "know" them.
        let mut connectors: Vec<&str> = Vec::new();
        let mut connector_probs = [0.0; 2];
        if let Some(rel) = &relation {
            assert_eq!(n_classes, 2, "relation tasks are binary");
            let n_conn = rel.positive_connectors.len() as f64;
            let pos_rate = 1.0 / n_conn;
            let neg_rate = rel.distractor_rate / n_conn;
            connector_probs = [neg_rate, pos_rate];
            const GLUE: [&str; 7] = ["and", "his", "her", "is", "to", "the", "with"];
            for &conn in &rel.positive_connectors {
                let words: Vec<&str> = conn.split(' ').collect();
                if words.len() <= 3 && !in_lexicon(conn) {
                    connectors.push(conn);
                }
                for w in words {
                    if w.len() > 2 && !GLUE.contains(&w) && !in_lexicon(w) {
                        connectors.push(w);
                    }
                }
            }
        }
        // Every connector gets the same probabilities, so repeats collapse.
        let mut known_grams: Vec<(&str, &[f64])> = lexicon;
        known_grams.extend(
            connectors
                .into_iter()
                .map(|c| (c, connector_probs.as_slice())),
        );
        known_grams.sort_unstable_by(|a, b| a.0.cmp(b.0));
        known_grams.dedup_by(|a, b| a.0 == b.0);
        let mut known = TokenArena::with_capacity(known_grams.len());
        let mut known_probs = Vec::with_capacity(known_grams.len() * n_classes);
        for (gram, probs) in known_grams {
            known.intern(gram);
            known_probs.extend_from_slice(probs);
        }
        Self {
            n_classes,
            priors,
            background,
            zipf,
            indicative,
            known,
            known_probs,
            by_class,
            class_cat,
            class_lambda,
            doc_len: Gaussian::new(doc_len_mean, doc_len_std),
            doc_len_min,
            label_noise,
            relation,
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Class priors.
    pub fn priors(&self) -> &[f64] {
        &self.priors
    }

    /// All indicative n-grams.
    pub fn indicative_grams(&self) -> &[IndicativeNgram] {
        &self.indicative
    }

    /// Indicative n-grams whose dominant class is `c`.
    pub fn class_grams(&self, c: usize) -> impl Iterator<Item = &IndicativeNgram> + '_ {
        self.by_class
            .get(c)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .filter_map(move |&i| self.indicative.get(i))
    }

    /// Per-class appearance probabilities of an n-gram, if it is indicative
    /// (or a relation connector).
    ///
    /// Background words and unknown n-grams return `None` — they carry no
    /// class signal.
    pub fn affinity(&self, gram: &str) -> Option<&[f64]> {
        self.known_symbol(gram)
            .and_then(|sym| self.known_affinity(sym))
    }

    /// The symbol of a gram the world knows (an indicative n-gram or a
    /// relation connector), or `None`.
    ///
    /// Symbols are dense in `0..known_len()` and follow the byte order of
    /// their grams: for known grams `a` and `b`, `a < b` exactly when
    /// `known_symbol(a) < known_symbol(b)`. Sorting symbols therefore sorts
    /// the grams they stand for.
    pub fn known_symbol(&self, gram: &str) -> Option<u32> {
        self.known.lookup(gram)
    }

    /// Number of grams the world knows; their symbols are `0..known_len()`
    /// in ascending byte order of the grams.
    pub fn known_len(&self) -> usize {
        self.known.len()
    }

    /// The gram of a known symbol (`None` if out of range). Ascending
    /// symbols yield grams in ascending byte order.
    pub fn known_gram(&self, sym: u32) -> Option<&str> {
        self.known.get(sym)
    }

    /// The per-class appearance probabilities of a known symbol (`None` if
    /// out of range); the same slice [`affinity`](Self::affinity) returns
    /// for its gram.
    pub fn known_affinity(&self, sym: u32) -> Option<&[f64]> {
        let start = sym as usize * self.n_classes;
        self.known_probs.get(start..start + self.n_classes)
    }

    /// True if this is a relation (entity-pair) task.
    pub fn is_relation(&self) -> bool {
        self.relation.is_some()
    }

    /// The background vocabulary, most frequent first (Zipf rank order).
    pub fn background_words(&self) -> &[String] {
        &self.background
    }

    /// The positive connector patterns of a relation task (empty for plain
    /// classification). These are the phrases that actually link the
    /// entity pair, i.e. what anchored expert LFs should match.
    pub fn relation_connectors(&self) -> Vec<&'static str> {
        self.relation
            .as_ref()
            .map(|r| r.positive_connectors.clone())
            .unwrap_or_default()
    }

    /// Sample a label from the class priors.
    pub fn sample_label<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (c, p) in self.priors.iter().enumerate() {
            acc += p;
            if u < acc {
                return c;
            }
        }
        self.n_classes - 1
    }

    /// Sample a document of class `label`, deterministically keyed by
    /// `(seed, stream)` so corpus generation order doesn't matter.
    pub fn sample_document(&self, label: usize, seed: u64, stream: u64) -> GeneratedDoc {
        assert!(label < self.n_classes, "label {label} out of range");
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, stream));

        // Label noise: content occasionally generated from the wrong class.
        let content_class = if self.n_classes > 1 && rng.gen::<f64>() < self.label_noise {
            let mut c = rng.gen_range(0..self.n_classes - 1);
            if c >= label {
                c += 1;
            }
            c
        } else {
            label
        };

        // Background tokens.
        let len =
            (self.doc_len.sample(&mut rng).round() as i64).max(self.doc_len_min as i64) as usize;
        let mut tokens: Vec<String> = (0..len)
            .map(|_| {
                let bi = self.zipf.sample(&mut rng);
                self.background.get(bi).cloned().unwrap_or_default()
            })
            .collect();

        // Indicative n-grams: Poisson(λ_c) draws from the class categorical,
        // preserving per-gram marginal appearance probabilities.
        let lambda = self.class_lambda.get(content_class).copied().unwrap_or(0.0);
        let k = sample_poisson(lambda, &mut rng);
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        if let Some(cat) = self.class_cat.get(content_class) {
            for _ in 0..k {
                chosen.push(cat.sample(&mut rng));
            }
        }
        chosen.sort_unstable();
        chosen.dedup();
        for gi in &chosen {
            let Some(g) = self.indicative.get(*gi) else {
                continue;
            };
            let pos = rng.gen_range(0..=tokens.len());
            let parts: Vec<String> = g.gram.split(' ').map(str::to_string).collect();
            tokens.splice(pos..pos, parts);
        }

        match &self.relation {
            None => GeneratedDoc {
                tokens,
                marked: None,
                entities: None,
            },
            Some(rel) => self.finish_relation_doc(tokens, label, rel, &mut rng),
        }
    }

    /// Place entity markers and render names for a relation-task document.
    fn finish_relation_doc(
        &self,
        mut tokens: Vec<String>,
        label: usize,
        rel: &RelationConfig,
        rng: &mut StdRng,
    ) -> GeneratedDoc {
        let name = |rng: &mut StdRng| -> String {
            let fi = rng.gen_range(0..rel.first_names.len());
            let li = rng.gen_range(0..rel.last_names.len());
            format!(
                "{} {}",
                rel.first_names.get(fi).copied().unwrap_or(""),
                rel.last_names.get(li).copied().unwrap_or("")
            )
        };
        let ent_a = name(rng);
        let mut ent_b = name(rng);
        while ent_b == ent_a {
            ent_b = name(rng);
        }

        if label == 1 {
            // Positive: a connector pattern directly links [a] and [b].
            let ci = rng.gen_range(0..rel.positive_connectors.len());
            let conn = rel.positive_connectors.get(ci).copied().unwrap_or("");
            let mut pat: Vec<String> = vec!["[a]".to_string()];
            pat.extend(conn.split(' ').map(str::to_string));
            pat.push("[b]".to_string());
            let pos = rng.gen_range(0..=tokens.len());
            tokens.splice(pos..pos, pat);
        } else {
            // Negative: both entities mentioned, apart from each other.
            let pos_a = rng.gen_range(0..=tokens.len());
            tokens.insert(pos_a, "[a]".to_string());
            let pos_b = rng.gen_range(0..=tokens.len());
            tokens.insert(pos_b, "[b]".to_string());
            // Distractor: a relation connector about a *third* person, so
            // plain keyword LFs fire but the pair is not related.
            if rng.gen::<f64>() < rel.distractor_rate {
                let third = name(rng);
                let ci = rng.gen_range(0..rel.positive_connectors.len());
                let conn = rel.positive_connectors.get(ci).copied().unwrap_or("");
                let mut pat: Vec<String> = third.split(' ').map(str::to_string).collect();
                pat.extend(conn.split(' ').map(str::to_string));
                pat.extend(name(rng).split(' ').map(str::to_string));
                let pos = rng.gen_range(0..=tokens.len());
                tokens.splice(pos..pos, pat);
            }
        }

        // Plain view: substitute names for markers.
        let mut plain = Vec::with_capacity(tokens.len() + 2);
        for t in &tokens {
            match t.as_str() {
                "[a]" => plain.extend(ent_a.split(' ').map(str::to_string)),
                "[b]" => plain.extend(ent_b.split(' ').map(str::to_string)),
                _ => plain.push(t.clone()),
            }
        }
        GeneratedDoc {
            tokens: plain,
            marked: Some(tokens),
            entities: Some((ent_a, ent_b)),
        }
    }
}

/// Knuth's Poisson sampler (fine for the small λ used here).
fn sample_poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> usize {
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l || k > 10_000 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> GenerativeModel {
        GenerativeModel::new(
            2,
            vec![0.5, 0.5],
            vec![
                "the".into(),
                "a".into(),
                "of".into(),
                "and".into(),
                "to".into(),
            ],
            vec![
                IndicativeNgram {
                    gram: "great".into(),
                    probs: vec![0.02, 0.30],
                },
                IndicativeNgram {
                    gram: "terrible".into(),
                    probs: vec![0.30, 0.02],
                },
                IndicativeNgram {
                    gram: "waste of time".into(),
                    probs: vec![0.15, 0.01],
                },
            ],
            20.0,
            4.0,
            5,
            0.03,
            None,
        )
    }

    #[test]
    fn dominant_class_and_accuracy() {
        let g = IndicativeNgram {
            gram: "great".into(),
            probs: vec![0.02, 0.30],
        };
        assert_eq!(g.dominant_class(), 1);
        let acc = g.lf_accuracy(&[0.5, 0.5]);
        assert!((acc - 0.30 / 0.32).abs() < 1e-9);
        assert!((g.coverage(&[0.5, 0.5]) - 0.16).abs() < 1e-9);
    }

    #[test]
    fn affinity_lookup() {
        let m = tiny_model();
        assert!(m.affinity("great").is_some());
        assert!(m.affinity("the").is_none());
        assert!(m.affinity("nonexistent").is_none());
        assert_eq!(m.affinity("waste of time").unwrap(), &[0.15, 0.01]);
    }

    #[test]
    fn class_grams_partition() {
        let m = tiny_model();
        let neg: Vec<_> = m.class_grams(0).map(|g| g.gram.as_str()).collect();
        let pos: Vec<_> = m.class_grams(1).map(|g| g.gram.as_str()).collect();
        assert_eq!(pos, vec!["great"]);
        assert!(neg.contains(&"terrible") && neg.contains(&"waste of time"));
    }

    #[test]
    fn documents_are_deterministic_per_stream() {
        let m = tiny_model();
        let d1 = m.sample_document(1, 42, 7);
        let d2 = m.sample_document(1, 42, 7);
        let d3 = m.sample_document(1, 42, 8);
        assert_eq!(d1.tokens, d2.tokens);
        assert_ne!(d1.tokens, d3.tokens);
    }

    #[test]
    fn class_indicative_words_appear_with_right_rate() {
        let m = tiny_model();
        let n = 3000;
        let mut great_pos = 0;
        let mut great_neg = 0;
        for s in 0..n {
            let pos = m.sample_document(1, 1, s);
            let neg = m.sample_document(0, 1, s + n);
            if pos.tokens.iter().any(|t| t == "great") {
                great_pos += 1;
            }
            if neg.tokens.iter().any(|t| t == "great") {
                great_neg += 1;
            }
        }
        let rate_pos = great_pos as f64 / n as f64;
        let rate_neg = great_neg as f64 / n as f64;
        // ~0.30 in positives (minus Poisson dedup slack + label noise),
        // ~0.02 (+noise) in negatives.
        assert!(rate_pos > 0.20 && rate_pos < 0.38, "pos rate {rate_pos}");
        assert!(rate_neg < 0.07, "neg rate {rate_neg}");
    }

    #[test]
    fn multiword_grams_spliced_contiguously() {
        let m = tiny_model();
        for s in 0..300 {
            let d = m.sample_document(0, 3, s);
            if let Some(i) = d.tokens.iter().position(|t| t == "waste") {
                assert_eq!(d.tokens.get(i + 1).map(String::as_str), Some("of"));
                assert_eq!(d.tokens.get(i + 2).map(String::as_str), Some("time"));
                return;
            }
        }
        panic!("trigram never appeared in 300 negative docs");
    }

    #[test]
    fn doc_length_respects_min() {
        let m = GenerativeModel::new(
            2,
            vec![0.5, 0.5],
            vec!["x".into()],
            vec![IndicativeNgram {
                gram: "g".into(),
                probs: vec![0.5, 0.01],
            }],
            2.0,
            5.0,
            3,
            0.0,
            None,
        );
        for s in 0..100 {
            assert!(m.sample_document(0, 9, s).tokens.len() >= 3);
        }
    }

    #[test]
    fn relation_docs_have_markers_and_entities() {
        let rel = RelationConfig {
            first_names: vec!["john", "mary", "li", "sara"],
            last_names: vec!["smith", "jones", "chen"],
            positive_connectors: vec!["married", "and his wife"],
            distractor_rate: 0.5,
        };
        let m = GenerativeModel::new(
            2,
            vec![0.9, 0.1],
            vec!["the".into(), "news".into(), "said".into(), "today".into()],
            vec![
                IndicativeNgram {
                    gram: "wedding".into(),
                    probs: vec![0.01, 0.3],
                },
                IndicativeNgram {
                    gram: "colleague".into(),
                    probs: vec![0.2, 0.01],
                },
            ],
            25.0,
            5.0,
            8,
            0.02,
            Some(rel),
        );
        let pos = m.sample_document(1, 5, 0);
        let marked = pos.marked.as_ref().expect("marked view");
        assert!(marked.iter().any(|t| t == "[a]"));
        assert!(marked.iter().any(|t| t == "[b]"));
        let (a, b) = pos.entities.as_ref().expect("entities");
        assert_ne!(a, b);
        // Plain view substitutes names and has no markers.
        assert!(!pos.tokens.iter().any(|t| t.starts_with('[')));
        let first_of_a = a.split(' ').next().expect("first name");
        assert!(pos.tokens.iter().any(|t| t == first_of_a));
        // Positive: [a] <connector> [b] contiguous.
        let ia = marked.iter().position(|t| t == "[a]").expect("[a]");
        let ib = marked.iter().position(|t| t == "[b]").expect("[b]");
        assert!(ib > ia && ib - ia <= 4, "connector should link the pair");
    }

    #[test]
    fn known_grams_are_the_lexicon_and_connectors_in_byte_order() {
        let rel = RelationConfig {
            first_names: vec!["john", "mary"],
            last_names: vec!["smith", "jones"],
            positive_connectors: vec!["married", "and his wife", "wedding"],
            distractor_rate: 0.5,
        };
        let m = GenerativeModel::new(
            2,
            vec![0.9, 0.1],
            vec!["the".into(), "news".into()],
            vec![
                IndicativeNgram {
                    gram: "wedding".into(),
                    probs: vec![0.01, 0.3],
                },
                IndicativeNgram {
                    gram: "colleague".into(),
                    probs: vec![0.2, 0.01],
                },
            ],
            25.0,
            5.0,
            8,
            0.02,
            Some(rel),
        );
        let grams: Vec<&str> = (0..m.known_len() as u32)
            .map(|s| m.known_gram(s).unwrap())
            .collect();
        // Glue words ("and", "his") are not connectors; the lexicon entry
        // "wedding" keeps its own probabilities.
        assert_eq!(
            grams,
            ["and his wife", "colleague", "married", "wedding", "wife"]
        );
        for (sym, gram) in grams.iter().enumerate() {
            assert_eq!(m.known_symbol(gram), Some(sym as u32));
            assert_eq!(m.affinity(gram), m.known_affinity(sym as u32));
        }
        // Three connectors: positive rate 1/3, distractor rate 0.5/3.
        assert_eq!(m.affinity("wife").unwrap(), &[0.5 / 3.0, 1.0 / 3.0]);
        assert_eq!(m.affinity("wedding").unwrap(), &[0.01, 0.3]);
        assert_eq!(m.known_symbol("his"), None);
        assert_eq!(m.known_affinity(5), None);
    }

    #[test]
    fn every_dataset_world_interns_its_grams_in_byte_order() {
        for name in crate::DatasetName::ALL {
            let (_, m) = name.spec();
            let grams: Vec<&str> = (0..m.known_len() as u32)
                .map(|s| m.known_gram(s).unwrap())
                .collect();
            assert!(grams.windows(2).all(|w| w[0] < w[1]), "{name}");
            for (sym, gram) in grams.iter().enumerate() {
                assert_eq!(m.known_symbol(gram), Some(sym as u32));
            }
            for g in m.indicative_grams() {
                assert_eq!(m.affinity(&g.gram), Some(g.probs.as_slice()));
            }
        }
    }

    #[test]
    fn sample_label_follows_priors() {
        let m = tiny_model();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10_000;
        let ones: usize = (0..n).map(|_| m.sample_label(&mut rng)).sum();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "priors sum")]
    fn bad_priors_panic() {
        let _ = GenerativeModel::new(
            2,
            vec![0.5, 0.6],
            vec!["x".into()],
            vec![IndicativeNgram {
                gram: "g".into(),
                probs: vec![0.5, 0.01],
            }],
            10.0,
            1.0,
            5,
            0.0,
            None,
        );
    }

    #[test]
    #[should_panic(expected = "duplicate indicative")]
    fn duplicate_grams_panic() {
        let g = IndicativeNgram {
            gram: "dup".into(),
            probs: vec![0.5, 0.01],
        };
        let _ = GenerativeModel::new(
            2,
            vec![0.5, 0.5],
            vec!["x".into()],
            vec![g.clone(), g],
            10.0,
            1.0,
            5,
            0.0,
            None,
        );
    }

    #[test]
    fn poisson_mean_is_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let total: usize = (0..n).map(|_| sample_poisson(3.0, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }
}

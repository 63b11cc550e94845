//! In-context example selection (§3.3).
//!
//! Two strategies, as evaluated in the paper:
//!
//! * **Class-balanced**: ten validation examples balanced across classes,
//!   chosen once per run. The paper's authors annotate their keywords and
//!   chain-of-thought by hand; here the "human annotator" is an oracle that
//!   reads the dataset's generative model (see `Exemplar::oracle`).
//! * **KATE** (Liu et al. 2021): the validation examples closest to the
//!   query in embedding space. Hand-annotation is impractical for varying
//!   neighbours, so — like the paper — the LLM itself generates the
//!   keywords and reasoning for each selected (pre-labeled) example, and
//!   the annotations are cached.

use crate::observe::{self, RunObserver};
use crate::parse::parse_response;
use crate::prompt;
use crate::sampler::fit_embedder;
use datasculpt_data::{Instance, TextDataset};
use datasculpt_llm::{ChatModel, LlmError, UsageLedger};
use datasculpt_text::embed::top_k_similar;
use datasculpt_text::rng::derive_seed;
use datasculpt_text::{Embedder, FeatureMatrix, RandomProjection};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// One annotated in-context example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// The example text as rendered in the prompt.
    pub text: String,
    /// Indicative keywords.
    pub keywords: Vec<String>,
    /// Ground-truth label.
    pub label: usize,
    /// Optional chain-of-thought justification.
    pub explanation: Option<String>,
}

impl Exemplar {
    /// Simulate the paper's *manual* exemplar annotation: a domain expert
    /// picks the keywords in the text that are most indicative of its
    /// class, with a one-sentence justification.
    ///
    /// Returns `None` for an unlabeled instance (nothing to annotate).
    pub fn oracle(instance: &Instance, dataset: &TextDataset) -> Option<Exemplar> {
        let label = instance.label?;
        let tokens = instance.match_tokens();
        let mut grams = datasculpt_text::extract_ngrams(tokens, 3);
        grams.sort_unstable();
        grams.dedup();
        let mut scored: Vec<(String, f64)> = grams
            .into_iter()
            .filter_map(|g| {
                let probs = dataset.generative.affinity(&g)?;
                let own = probs.get(label).copied().unwrap_or(0.0);
                let other = probs
                    .iter()
                    .enumerate()
                    .filter(|(c, _)| *c != label)
                    .map(|(_, p)| *p)
                    .fold(0.0f64, f64::max);
                (own > other).then_some((g, own))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let keywords: Vec<String> = scored.into_iter().take(2).map(|(g, _)| g).collect();
        let explanation = if keywords.is_empty() {
            format!("no single phrase is decisive, but overall the passage reads as class {label}.")
        } else {
            format!(
                "the passage mentions {}, which indicates class {label}.",
                keywords.join(" and ")
            )
        };
        Some(Exemplar {
            text: instance.prompt_text(),
            keywords,
            label,
            explanation: Some(explanation),
        })
    }
}

/// Strategy for picking in-context examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IclStrategy {
    /// Random class-balanced examples, fixed for the whole run.
    ClassBalanced,
    /// Nearest neighbours of the query in embedding space (KATE).
    Kate,
}

/// Strategy-specific selector state, built once per run.
enum SelectorState {
    /// Fixed oracle-annotated exemplars.
    Balanced(Vec<Exemplar>),
    /// Embedded validation split for nearest-neighbour lookup.
    Kate {
        // Boxed: the arena-backed embedder dwarfs the Balanced variant.
        embedder: Box<RandomProjection>,
        valid_embeddings: FeatureMatrix,
    },
}

/// Stateful exemplar selector.
pub struct IclSelector {
    strategy: IclStrategy,
    n_icl: usize,
    state: SelectorState,
    kate_cache: BTreeMap<usize, Exemplar>,
}

impl IclSelector {
    /// Build a selector. For class-balanced selection the exemplars are
    /// drawn (and oracle-annotated) immediately; for KATE the validation
    /// split is embedded up front and annotations are lazy.
    pub fn new(dataset: &TextDataset, strategy: IclStrategy, n_icl: usize, seed: u64) -> Self {
        let state = match strategy {
            IclStrategy::ClassBalanced => {
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x1C1));
                let n_classes = dataset.n_classes();
                let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
                for (i, inst) in dataset.valid.iter().enumerate() {
                    if let Some(bucket) = inst.label.and_then(|y| by_class.get_mut(y)) {
                        bucket.push(i);
                    }
                }
                for c in &mut by_class {
                    c.shuffle(&mut rng);
                }
                let mut balanced = Vec::new();
                let mut round = 0usize;
                while balanced.len() < n_icl {
                    let mut progressed = false;
                    for class in by_class.iter() {
                        if balanced.len() >= n_icl {
                            break;
                        }
                        if let Some(&idx) = class.get(round) {
                            if let Some(ex) = dataset
                                .valid
                                .instances
                                .get(idx)
                                .and_then(|inst| Exemplar::oracle(inst, dataset))
                            {
                                balanced.push(ex);
                                progressed = true;
                            }
                        }
                    }
                    if !progressed {
                        break; // validation split exhausted
                    }
                    round += 1;
                }
                SelectorState::Balanced(balanced)
            }
            IclStrategy::Kate => {
                let (embedder, valid_embeddings) = fit_embedder(dataset.valid.iter(), seed, 0x4A7E);
                SelectorState::Kate {
                    embedder: Box::new(embedder),
                    valid_embeddings,
                }
            }
        };
        Self {
            strategy,
            n_icl,
            state,
            kate_cache: BTreeMap::new(),
        }
    }

    /// The strategy in force.
    pub fn strategy(&self) -> IclStrategy {
        self.strategy
    }

    /// Number of KATE annotations cached so far.
    pub fn cached_annotations(&self) -> usize {
        self.kate_cache.len()
    }

    /// Select exemplars for a query instance. KATE may call the LLM to
    /// annotate newly selected examples (token usage is recorded in the
    /// ledger and mirrored to `obs`), so the whole selection is fallible.
    pub fn select<M: ChatModel>(
        &mut self,
        dataset: &TextDataset,
        query: &Instance,
        llm: &mut M,
        ledger: &mut UsageLedger,
        obs: &mut dyn RunObserver,
    ) -> Result<Vec<Exemplar>, LlmError> {
        let neighbours = match &self.state {
            SelectorState::Balanced(exemplars) => return Ok(exemplars.clone()),
            SelectorState::Kate {
                embedder,
                valid_embeddings,
            } => {
                let q = embedder.embed(&query.tokens);
                top_k_similar(valid_embeddings, &q, self.n_icl)
            }
        };
        let mut out = Vec::with_capacity(neighbours.len());
        for idx in neighbours {
            // Unlabeled validation rows cannot serve as exemplars.
            let Some(label) = dataset.valid.instances.get(idx).and_then(|i| i.label) else {
                continue;
            };
            out.push(self.annotate_kate(dataset, idx, label, llm, ledger, obs)?);
        }
        Ok(out)
    }

    /// LLM-annotate validation example `idx` (cached).
    fn annotate_kate<M: ChatModel>(
        &mut self,
        dataset: &TextDataset,
        idx: usize,
        label: usize,
        llm: &mut M,
        ledger: &mut UsageLedger,
        obs: &mut dyn RunObserver,
    ) -> Result<Exemplar, LlmError> {
        if let Some(e) = self.kate_cache.get(&idx) {
            return Ok(e.clone());
        }
        let Some(inst) = dataset.valid.instances.get(idx) else {
            return Err(LlmError::EmptyResponse);
        };
        let msgs = prompt::annotation_messages(&dataset.spec, &inst.prompt_text(), label);
        let resp = llm.complete(&prompt::request(msgs, 0.7, 1))?;
        observe::record_usage(ledger, obs, resp.model, resp.usage);
        let content = resp
            .choices
            .first()
            .map(|c| c.content.as_str())
            .ok_or(LlmError::EmptyResponse)?;
        let parsed = parse_response(content, dataset.n_classes());
        let keywords = if parsed.keywords.is_empty() {
            // Annotation failed: fall back to the longest content word.
            inst.tokens
                .iter()
                .max_by_key(|t| t.len())
                .cloned()
                .into_iter()
                .collect()
        } else {
            parsed.keywords
        };
        let exemplar = Exemplar {
            text: inst.prompt_text(),
            keywords,
            label,
            explanation: parsed.explanation,
        };
        self.kate_cache.insert(idx, exemplar.clone());
        Ok(exemplar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasculpt_data::DatasetName;
    use datasculpt_llm::{ModelId, SimulatedLlm};

    fn tiny() -> TextDataset {
        DatasetName::Imdb.load_scaled(42, 0.02)
    }

    fn balanced_of(sel: &IclSelector) -> &[Exemplar] {
        match &sel.state {
            SelectorState::Balanced(b) => b,
            SelectorState::Kate { .. } => panic!("not a balanced selector"),
        }
    }

    #[test]
    fn oracle_exemplars_use_indicative_keywords() {
        let d = tiny();
        let inst = d
            .valid
            .iter()
            .find(|i| {
                i.label == Some(1)
                    && i.tokens
                        .iter()
                        .any(|t| d.generative.affinity(t).is_some_and(|p| p[1] > p[0]))
            })
            .expect("a positive instance with an indicative token");
        let ex = Exemplar::oracle(inst, &d).expect("labeled instance");
        assert_eq!(ex.label, 1);
        assert!(!ex.keywords.is_empty());
        for kw in &ex.keywords {
            let p = d.generative.affinity(kw).expect("keyword is indicative");
            assert!(p[1] > p[0], "keyword {kw} should favour the class");
        }
        assert!(ex.explanation.is_some());
    }

    #[test]
    fn oracle_skips_unlabeled() {
        let d = tiny();
        let mut inst = d.valid.instances[0].clone();
        inst.label = None;
        assert!(Exemplar::oracle(&inst, &d).is_none());
    }

    #[test]
    fn class_balanced_is_balanced_and_deterministic() {
        let d = tiny();
        let a = IclSelector::new(&d, IclStrategy::ClassBalanced, 10, 7);
        let b = IclSelector::new(&d, IclStrategy::ClassBalanced, 10, 7);
        assert_eq!(balanced_of(&a).len(), 10);
        let ones = balanced_of(&a).iter().filter(|e| e.label == 1).count();
        assert_eq!(ones, 5, "expected perfect balance on a binary task");
        assert_eq!(
            balanced_of(&a)
                .iter()
                .map(|e| e.text.clone())
                .collect::<Vec<_>>(),
            balanced_of(&b)
                .iter()
                .map(|e| e.text.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn kate_selects_neighbours_and_caches_annotations() {
        let d = tiny();
        let mut sel = IclSelector::new(&d, IclStrategy::Kate, 4, 7);
        let mut llm = SimulatedLlm::new(ModelId::Gpt35Turbo, d.generative.clone(), 3);
        let mut ledger = UsageLedger::new();
        let query = &d.train.instances[0];
        let ex1 = sel
            .select(&d, query, &mut llm, &mut ledger, &mut observe::NoopObserver)
            .unwrap();
        assert_eq!(ex1.len(), 4);
        let calls_after_first = ledger.calls();
        assert!(calls_after_first >= 4, "annotation calls recorded");
        // Same query again: everything cached, no new calls.
        let ex2 = sel
            .select(&d, query, &mut llm, &mut ledger, &mut observe::NoopObserver)
            .unwrap();
        assert_eq!(ledger.calls(), calls_after_first);
        assert_eq!(ex1.len(), ex2.len());
        assert_eq!(sel.cached_annotations(), 4);
    }

    #[test]
    fn kate_exemplars_carry_true_labels() {
        let d = tiny();
        let mut sel = IclSelector::new(&d, IclStrategy::Kate, 3, 1);
        let mut llm = SimulatedLlm::new(ModelId::Gpt4, d.generative.clone(), 3);
        let mut ledger = UsageLedger::new();
        let exemplars = sel
            .select(
                &d,
                &d.train.instances[1],
                &mut llm,
                &mut ledger,
                &mut observe::NoopObserver,
            )
            .unwrap();
        for e in &exemplars {
            assert!(e.label < d.n_classes());
            assert!(!e.keywords.is_empty());
        }
    }

    #[test]
    fn kate_select_propagates_llm_errors() {
        use datasculpt_llm::{FailingModel, ScriptedModel};
        let d = tiny();
        let mut sel = IclSelector::new(&d, IclStrategy::Kate, 3, 1);
        let mut llm = FailingModel::fail_every(ScriptedModel::new(vec!["Label: 1".into()]), 1);
        let mut ledger = UsageLedger::new();
        let err = sel.select(
            &d,
            &d.train.instances[0],
            &mut llm,
            &mut ledger,
            &mut observe::NoopObserver,
        );
        assert!(err.is_err());
        assert_eq!(
            llm.calls_attempted(),
            1,
            "fails fast on the first annotation"
        );
    }
}

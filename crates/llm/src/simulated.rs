//! The simulated LLM.
//!
//! [`SimulatedLlm`] implements [`ChatModel`] by actually *reading the
//! prompt*: it locates the final `Query:` line of the last user message,
//! tokenizes it, extracts candidate n-grams, and scores them against a
//! noise-corrupted view of the dataset's [`GenerativeModel`] — its "world
//! knowledge". From those scores it predicts a class label and selects the
//! keywords most supportive of that label, emitting exactly the response
//! format of Figure 2 (`Explanation:` / `Keywords:` / `Label:`).
//!
//! Two noise sources shape model quality (see [`ModelProfile`]):
//!
//! * **persistent knowledge corruption** — a Gaussian perturbation of each
//!   n-gram's class-affinity vector, keyed by `(model, gram, class)`. It is
//!   identical across samples, so self-consistency cannot vote it away;
//!   this is what separates GPT-4 from Llama-7b in Table 3.
//! * **per-sample decision noise** — scaled by the request temperature;
//!   independent across the `n` choices, so self-consistency *does* average
//!   it away, and higher temperature yields more diverse keyword sets
//!   (larger LF sets for DataSculpt-SC, Table 2).
//!
//! Beliefs are a pure function of `(model, world, gram)`, so each simulator
//! computes them once, at construction, for every gram its world knows
//! ([`GenerativeModel::known_symbol`]). A call then walks the query's
//! n-grams, looks each one up by symbol, and reads the few belief rows it
//! hits.
//!
//! The prompt contract (the marker strings below) is shared with the prompt
//! builder in `datasculpt-core`; a real API client would honour the same
//! contract implicitly by the LLM following instructions.

use crate::error::LlmError;
use crate::message::{ChatChoice, ChatRequest, ChatResponse, Role};
use crate::pricing::ModelId;
use crate::profile::ModelProfile;
use crate::tokens::approx_token_count;
use crate::usage::TokenUsage;
use crate::ChatModel;
use datasculpt_data::GenerativeModel;
use datasculpt_exec::Pool;
use datasculpt_text::rng::{derive_seed, hash_str};
use datasculpt_text::{for_each_ngram, tokenize_keep_markers};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Marks the query instance in the user prompt.
pub const QUERY_PREFIX: &str = "Query:";
/// Marks the keyword list in responses and in-context examples.
pub const KEYWORDS_PREFIX: &str = "Keywords:";
/// Marks the class label in responses and in-context examples.
pub const LABEL_PREFIX: &str = "Label:";
/// Marks the chain-of-thought explanation.
pub const EXPLANATION_PREFIX: &str = "Explanation:";
/// System-prompt phrase that requests chain-of-thought (Figure 2, CoT).
pub const COT_MARKER: &str = "explain your reason";
/// System-prompt phrase that requests a bare class label (PromptedLF mode).
pub const LABEL_ONLY_MARKER: &str = "Respond with only the class label";
/// Prompt phrase that requests task-level keywords with no query instance
/// (the ScriptoriumWS-style broad prompt). Must be followed by
/// `"for class <digit>"` somewhere in the user message.
pub const GENERIC_KEYWORDS_MARKER: &str = "List the most indicative keywords";
/// Prompt phrase of the LF-revision extension (§5 future work): asks the
/// model to replace a rejected keyword with a more specific phrase from the
/// same passage. The user message must contain `keyword '<kw>'` and
/// `for class <digit>` plus the `Query:`.
pub const REVISE_MARKER: &str = "Propose a more specific phrase";

/// Mixes a gram's hash into the persistent-noise key.
const GRAM_KEY_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A model's belief about every gram its world knows, computed once per
/// `(world, model)`.
///
/// Row `s` (stride `n_classes + 1`) holds known symbol `s`'s believed class
/// distribution — the true normalized affinity plus the persistent
/// corruption, clamped and re-normalized — followed by its strength, the
/// sum of its true appearance probabilities. A row of strength 0 carries no
/// belief: the model has no knowledge of that gram.
#[derive(Debug)]
struct Beliefs {
    n_classes: usize,
    rows: Vec<f64>,
}

impl Beliefs {
    fn build(world: &GenerativeModel, profile: &ModelProfile) -> Self {
        let n_classes = world.n_classes();
        let model_hash = hash_str(profile.model.api_name());
        let mut rows = Vec::with_capacity(world.known_len() * (n_classes + 1));
        for sym in 0..world.known_len() as u32 {
            let start = rows.len();
            rows.resize(start + n_classes + 1, 0.0);
            let (Some(gram), Some(probs)) = (world.known_gram(sym), world.known_affinity(sym))
            else {
                continue;
            };
            let Some((row_strength, w)) = rows.get_mut(start..).and_then(<[f64]>::split_last_mut)
            else {
                continue;
            };
            let strength: f64 = probs.iter().sum();
            if strength <= 0.0 {
                continue;
            }
            let gram_key = hash_str(gram)
                .wrapping_mul(GRAM_KEY_MUL)
                .wrapping_add(model_hash);
            for (cls, (wc, p)) in w.iter_mut().zip(probs).enumerate() {
                *wc = p / strength + profile.knowledge_noise * persistent_noise(gram_key, cls);
                if *wc < 0.0 {
                    *wc = 0.0;
                }
            }
            let sum: f64 = w.iter().sum();
            if sum <= 0.0 {
                w.fill(1.0 / n_classes as f64);
            } else {
                for wc in w.iter_mut() {
                    *wc /= sum;
                }
            }
            *row_strength = strength;
        }
        Self { n_classes, rows }
    }

    /// The believed class distribution and strength of a known symbol, or
    /// `None` when the model has no knowledge of it.
    fn row(&self, sym: u32) -> Option<(&[f64], f64)> {
        let stride = self.n_classes + 1;
        let row = self
            .rows
            .get(sym as usize * stride..(sym as usize + 1) * stride)?;
        let (&strength, belief) = row.split_last()?;
        (strength > 0.0).then_some((belief, strength))
    }
}

/// Persistent standard-normal deviate keyed by `(model, gram, class)`:
/// `gram_key` is the gram's hash times [`GRAM_KEY_MUL`] plus the model's.
fn persistent_noise(gram_key: u64, class: usize) -> f64 {
    let key = gram_key.wrapping_add(class as u64);
    // Two derived uniforms -> Box–Muller.
    let u1 = ((derive_seed(key, 1) >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
    let u2 = (derive_seed(key, 2) >> 11) as f64 / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A known gram found in a query: its symbol, believed class distribution
/// and strength.
type Candidate<'a> = (u32, &'a [f64], f64);

/// A deterministic, knowledge-corrupted simulated chat model.
#[derive(Debug, Clone)]
pub struct SimulatedLlm {
    profile: ModelProfile,
    world: Arc<GenerativeModel>,
    /// Shared by clones: a pure function of `(profile, world)`.
    beliefs: Arc<Beliefs>,
    seed: u64,
    calls: u64,
    pool: Pool,
}

impl SimulatedLlm {
    /// Build a simulator for `model` over a dataset's generative model.
    /// Pass the dataset's shared world (`dataset.generative.clone()`) to
    /// avoid copying it.
    pub fn new(model: ModelId, world: impl Into<Arc<GenerativeModel>>, seed: u64) -> Self {
        Self::with_profile(ModelProfile::for_model(model), world, seed)
    }

    /// Build with an explicit profile (for calibration experiments).
    pub fn with_profile(
        profile: ModelProfile,
        world: impl Into<Arc<GenerativeModel>>,
        seed: u64,
    ) -> Self {
        let world = world.into();
        Self {
            seed: derive_seed(seed, hash_str(profile.model.api_name())),
            beliefs: Arc::new(Beliefs::build(&world, &profile)),
            profile,
            world,
            calls: 0,
            pool: Pool::serial(),
        }
    }

    /// Serve [`ChatModel::complete_batch`] through `pool`. Responses are a
    /// pure function of `(seed, call index, request)`, so sharding a batch
    /// across threads with positional call indices reproduces the
    /// sequential transcript exactly at every thread count.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Number of completion calls served.
    pub fn calls_served(&self) -> u64 {
        self.calls
    }

    /// Every known gram among the query's 1–3-grams that the model has
    /// knowledge of, once each, in ascending byte order of the grams
    /// (symbol order).
    fn candidates(&self, tokens: &[String]) -> Vec<Candidate<'_>> {
        let mut syms: Vec<u32> = Vec::new();
        for_each_ngram(tokens, 3, |gram| {
            if let Some(sym) = self.world.known_symbol(gram) {
                syms.push(sym);
            }
        });
        syms.sort_unstable();
        syms.dedup();
        syms.into_iter()
            .filter_map(|sym| self.beliefs.row(sym).map(|(w, s)| (sym, w, s)))
            .collect()
    }

    /// The gram of a candidate's symbol.
    fn gram(&self, sym: u32) -> &str {
        self.world.known_gram(sym).unwrap_or_default()
    }

    /// Produce one response sample.
    #[allow(clippy::too_many_arguments)]
    fn respond_once(
        &self,
        query: &str,
        provided_label: Option<usize>,
        cot: bool,
        label_only: bool,
        temperature: f64,
        rng: &mut StdRng,
    ) -> String {
        let n_classes = self.world.n_classes();
        let tokens = tokenize_query(query);
        // Candidate knowledge: believed affinity of every known n-gram.
        let candidates = self.candidates(&tokens);

        // Class evidence with per-sample decision noise.
        let noise_scale = self.profile.decision_noise
            * temperature.max(0.05)
            * if cot { self.profile.cot_gain } else { 1.0 };
        let mut evidence = vec![0.0f64; n_classes];
        if candidates.is_empty() {
            // Nothing recognized: fall back to prior plausibility.
            for (e, &p) in evidence.iter_mut().zip(self.world.priors()) {
                *e = p;
            }
        } else {
            // Each recognized n-gram contributes its believed class
            // direction; the sum is normalized by √count so the evidence
            // scale is comparable across documents (a reader's confidence
            // grows with the number of agreeing cues, not with how common
            // the cues are).
            for (_, w, _) in &candidates {
                for (e, &wc) in evidence.iter_mut().zip(w.iter()) {
                    *e += wc - 1.0 / n_classes as f64;
                }
            }
            let norm = (candidates.len() as f64).sqrt();
            for e in evidence.iter_mut() {
                *e /= norm;
            }
        }
        for e in evidence.iter_mut() {
            *e += noise_scale * gauss(rng);
        }
        let label = provided_label.unwrap_or_else(|| argmax(&evidence));

        if label_only {
            // Annotation templates allow "abstain if unsure": with no
            // recognized evidence the simulator abstains, giving
            // PromptedLF columns realistic partial coverage.
            if candidates.is_empty() && provided_label.is_none() {
                return "abstain".to_string();
            }
            return format!("{label}");
        }

        // Keyword selection: support for the chosen label.
        let mut scored: Vec<(&str, f64)> = candidates
            .iter()
            .map(|&(sym, w, s)| {
                let other = w
                    .iter()
                    .take(n_classes)
                    .enumerate()
                    .filter(|&(c, _)| c != label)
                    .map(|(_, &wc)| wc)
                    .fold(f64::NEG_INFINITY, f64::max);
                let support = w.get(label).copied().unwrap_or(0.0) - other;
                // Specificity bonus: LLMs reading an instance surface its
                // distinctive phrases, not the most common ones — this is
                // what keeps DataSculpt's per-LF coverage an order of
                // magnitude below the broad baselines (Table 2).
                let specificity = 1.0 / (1.0 + 20.0 * s);
                (
                    self.gram(sym),
                    support * specificity + 0.15 * temperature * gauss(rng),
                )
            })
            .filter(|(_, score)| *score > 0.0)
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));

        let k = 1 + poisson(self.profile.keyword_richness * 2.0, rng);
        let mut keywords: Vec<String> = scored.iter().take(k).map(|(g, _)| g.to_string()).collect();

        // Real LLMs often quote a slightly longer span from the passage
        // ("wake me up" instead of "wake me"): extend some keywords with an
        // adjacent token from the query. The extended phrases are rare but
        // inherit the contained keyword's class signal — the long tail of
        // low-coverage LFs behind the paper's large LF sets (LF Cov ~0.01).
        let mut extensions = Vec::new();
        for kw in &keywords {
            if rng.gen::<f64>() < 0.6 {
                if let Some(ext) = extend_with_neighbor(&tokens, kw, rng) {
                    extensions.push(ext);
                }
            }
        }
        keywords.extend(extensions);

        // Junk habit: sometimes include an uninformative word from the text.
        if rng.gen::<f64>() < self.profile.junk_keyword_rate {
            let plain: Vec<&String> = tokens
                .iter()
                .filter(|t| t.len() >= 3 && !t.starts_with('['))
                .collect();
            if !plain.is_empty() {
                if let Some(junk) = plain
                    .get(rng.gen_range(0..plain.len()))
                    .map(|t| (*t).clone())
                {
                    if !keywords.contains(&junk) {
                        keywords.push(junk);
                    }
                }
            }
        }

        // Formatting failures.
        let break_roll: f64 = rng.gen();
        if break_roll < self.profile.hallucination_rate {
            return self.hallucinate(rng);
        }
        let drop_label_line =
            break_roll < self.profile.hallucination_rate + self.profile.format_break_rate;

        let mut out = String::new();
        if cot {
            out.push_str(EXPLANATION_PREFIX);
            out.push(' ');
            out.push_str(&self.explanation(&keywords, label, rng));
            out.push('\n');
        }
        out.push_str(KEYWORDS_PREFIX);
        out.push(' ');
        if keywords.is_empty() {
            out.push_str("none");
        } else {
            out.push_str(&keywords.join(", "));
        }
        out.push('\n');
        if !drop_label_line {
            out.push_str(LABEL_PREFIX);
            out.push(' ');
            out.push_str(&label.to_string());
        }
        out
    }

    /// A templated chain-of-thought explanation; its length scales with the
    /// profile's verbosity (and therefore drives completion-token cost).
    fn explanation(&self, keywords: &[String], label: usize, rng: &mut StdRng) -> String {
        let mut s = String::from("let us reason step by step. ");
        if keywords.is_empty() {
            s.push_str("the input contains no strongly indicative phrase, ");
        } else {
            s.push_str("the input mentions ");
            s.push_str(&keywords.join(" and "));
            s.push_str(", ");
        }
        s.push_str(&format!(
            "which is characteristic of class {label}, so the label should be {label}."
        ));
        let padding = (self.profile.verbosity - 1.0).max(0.0);
        while rng.gen::<f64>() < padding * 0.5 {
            s.push_str(" considering the overall tone and context of the passage, this reading is consistent with the examples provided above.");
        }
        s
    }

    /// Instance-free keyword generation (the ScriptoriumWS prompt style):
    /// produce broad task-level keywords for `class` from corrupted world
    /// knowledge, ranked by believed coverage — which is exactly why such
    /// LFs are less precise than instance-grounded ones (§4.2).
    fn respond_generic(&self, class: usize, count: usize, rng: &mut StdRng) -> String {
        let mut scored: Vec<(&str, f64)> = self
            .world
            .indicative_grams()
            .iter()
            .filter_map(|g| {
                let (w, s) = self.beliefs.row(self.world.known_symbol(&g.gram)?)?;
                if w.get(class).copied().unwrap_or(0.0) < 0.3 {
                    return None;
                }
                // Coverage-first ranking: a broad prompt surfaces the most
                // *common* phrases it associates with the class, not the
                // most precise ones — and with substantial noise, since no
                // concrete instance grounds the choice.
                Some((g.gram.as_str(), s + 0.03 * gauss(rng)))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        // Without an instance to ground it, the model pads the list with
        // plausible-sounding generic words — broad coverage, no signal
        // (the over-generality that costs ScriptoriumWS ~11 accuracy
        // points in Table 2).
        let background = self.world.background_words();
        let padding = background.len().min(40);
        // `count` comes from the request text: the list can never outgrow
        // the distinct ranked grams plus the distinct padding words.
        let mut keywords: Vec<&str> = Vec::with_capacity(count.min(scored.len() + padding));
        let mut ranked = scored.into_iter().map(|(g, _)| g);
        while keywords.len() < count {
            let pick = if rng.gen::<f64>() < 0.2 && !background.is_empty() {
                background
                    .get(rng.gen_range(0..padding))
                    .map(String::as_str)
            } else {
                ranked.next()
            };
            match pick {
                Some(k) if !keywords.contains(&k) => keywords.push(k),
                Some(_) => continue,
                None => break,
            }
        }
        format!(
            "{KEYWORDS_PREFIX} {}\n{LABEL_PREFIX} {class}",
            if keywords.is_empty() {
                "none".to_string()
            } else {
                keywords.join(", ")
            }
        )
    }

    /// LF-revision mode (§5 future work): given a rejected keyword and its
    /// source passage, propose a more specific phrase — the keyword
    /// extended with a neighbouring token, or a stronger alternative from
    /// the same passage.
    fn respond_revise(&self, query: &str, keyword: &str, class: usize, rng: &mut StdRng) -> String {
        let tokens = tokenize_query(query);
        if let Some(ext) = extend_with_neighbor(&tokens, keyword, rng) {
            return format!("{KEYWORDS_PREFIX} {ext}\n{LABEL_PREFIX} {class}");
        }
        // Cannot extend (trigram or keyword absent): fall back to the most
        // class-supportive other phrase in the passage.
        let best = self
            .candidates(&tokens)
            .into_iter()
            .map(|(sym, w, _)| (self.gram(sym), w.get(class).copied().unwrap_or(0.0)))
            .filter(|&(g, _)| g != keyword)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        match best {
            Some((g, support)) if support > 0.5 => {
                format!("{KEYWORDS_PREFIX} {g}\n{LABEL_PREFIX} {class}")
            }
            _ => format!("{KEYWORDS_PREFIX} none\n{LABEL_PREFIX} {class}"),
        }
    }

    /// Small-Llama failure mode: invent an artificial example instead of
    /// answering (§4.3: "sometimes generate artificial examples instead of
    /// addressing the query directly").
    fn hallucinate(&self, rng: &mut StdRng) -> String {
        let grams = self.world.indicative_grams();
        let gi = rng.gen_range(0..grams.len().max(1));
        let invented_label = rng.gen_range(0..self.world.n_classes());
        let Some(g) = grams.get(gi) else {
            return format!("Here is another example for you:\n{QUERY_PREFIX} this text talks about nothing\n{KEYWORDS_PREFIX} none\n{LABEL_PREFIX} {invented_label}");
        };
        format!(
            "Here is another example for you:\n{QUERY_PREFIX} this text talks about {}\n{KEYWORDS_PREFIX} {}\n{LABEL_PREFIX} {}",
            g.gram, g.gram, invented_label
        )
    }
}

impl SimulatedLlm {
    /// Serve one completion at an explicit call index. This is the whole
    /// response logic; it takes `&self` because the response is a pure
    /// function of `(seed, call_idx, request)` — which is what lets
    /// [`ChatModel::complete_batch`] assign indices positionally and fan
    /// the batch out across threads.
    fn complete_at(&self, call_idx: u64, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let system = || {
            request
                .messages
                .iter()
                .filter(|m| m.role == Role::System)
                .map(|m| m.content.as_str())
        };
        let user_text = request.last_user().map_or("", |m| m.content.as_str());
        // No marker contains `\n`, so testing each system message gives the
        // same answer as testing their newline-joined text.
        let in_system = |marker: &str| system().any(|text| text.contains(marker));
        let requested = |marker: &str| in_system(marker) || user_text.contains(marker);
        let system_text = || system().collect::<Vec<_>>().join("\n");

        let cot = in_system(COT_MARKER);
        let label_only = requested(LABEL_ONLY_MARKER);
        let generic = requested(GENERIC_KEYWORDS_MARKER)
            .then(|| parse_generic_request(user_text, &system_text()));
        let revise =
            requested(REVISE_MARKER).then(|| parse_revise_request(user_text, &system_text()));
        let (query, provided_label) = extract_query(user_text);

        let prompt_tokens = request.prompt_tokens();
        let mut completion_tokens = 0;
        let mut choices = Vec::with_capacity(request.n);
        for sample in 0..request.n {
            let mut rng =
                StdRng::seed_from_u64(derive_seed(self.seed, derive_seed(call_idx, sample as u64)));
            let content = if let Some((keyword, class)) = &revise {
                self.respond_revise(query, keyword, *class, &mut rng)
            } else if let Some((class, count)) = generic {
                self.respond_generic(class, count, &mut rng)
            } else {
                self.respond_once(
                    query,
                    provided_label,
                    cot,
                    label_only,
                    request.temperature,
                    &mut rng,
                )
            };
            completion_tokens += approx_token_count(&content);
            choices.push(ChatChoice { content });
        }
        Ok(ChatResponse {
            choices,
            usage: TokenUsage {
                prompt_tokens,
                completion_tokens,
            },
            model: self.profile.model,
        })
    }
}

impl ChatModel for SimulatedLlm {
    fn complete(&mut self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let call_idx = self.calls;
        self.calls += 1;
        self.complete_at(call_idx, request)
    }

    /// Serve the batch in parallel on the configured [`Pool`]. Request `i`
    /// gets call index `calls + i` — exactly the index it would get from
    /// sequential `complete` calls — so the responses and the final call
    /// counter are identical to the serial transcript.
    fn complete_batch(&mut self, requests: &[ChatRequest]) -> Vec<Result<ChatResponse, LlmError>> {
        let base = self.calls;
        let this = &*self;
        let outcome = this.pool.try_map(requests, |i, request| {
            this.complete_at(base + i as u64, request)
        });
        self.calls = base + requests.len() as u64;
        match outcome {
            Ok(results) => results,
            // A worker panic cannot happen for this pure backend, but keep
            // the failure visible instead of unwinding through the pool.
            Err(e) => requests
                .iter()
                .map(|_| Err(LlmError::Transport(format!("batch worker panicked: {e}"))))
                .collect(),
        }
    }

    fn model_id(&self) -> ModelId {
        self.profile.model
    }

    /// The simulator is a pure function of `(seed, call index, request)`,
    /// so replayed calls must consume their original indices: a resumed
    /// run then serves every *new* request at exactly the index an
    /// uninterrupted run would have used.
    fn advance_replayed(&mut self, calls: u64) {
        self.calls += calls;
    }
}

/// Parse `keyword '<kw>'` and `for class <digit>` from a revision request.
fn parse_revise_request(user_text: &str, system_text: &str) -> (String, usize) {
    let text = format!("{system_text}\n{user_text}");
    let keyword = text
        .find("keyword '")
        .and_then(|p| {
            let after = text.get(p + "keyword '".len()..).unwrap_or("");
            after
                .find('\'')
                .and_then(|end| after.get(..end))
                .map(str::to_string)
        })
        .unwrap_or_default();
    let (class, _) = parse_generic_request(user_text, system_text);
    (keyword, class)
}

/// Parse `"for class <digit>"` and an optional `"up to <n> keywords"` from a
/// generic-keywords request.
fn parse_generic_request(user_text: &str, system_text: &str) -> (usize, usize) {
    let text = format!("{system_text}\n{user_text}");
    let class = text
        .find("for class ")
        .and_then(|p| {
            text.get(p + "for class ".len()..)
                .unwrap_or("")
                .split_whitespace()
                .next()
                .and_then(|t| t.trim_matches(|c: char| !c.is_ascii_digit()).parse().ok())
        })
        .unwrap_or(0);
    let count = text
        .find("up to ")
        .and_then(|p| {
            text.get(p + "up to ".len()..)
                .unwrap_or("")
                .split_whitespace()
                .next()
                .and_then(|t| t.parse().ok())
        })
        .unwrap_or(8);
    (class, count)
}

/// Extract the final `Query:` text of the user message, plus a provided
/// label if the prompt already states one after the query (the KATE
/// auto-annotation mode of §3.3, where examples are labeled in advance).
fn extract_query(user_text: &str) -> (&str, Option<usize>) {
    let Some(qpos) = user_text.rfind(QUERY_PREFIX) else {
        return (user_text, None);
    };
    let after = user_text.get(qpos + QUERY_PREFIX.len()..).unwrap_or("");
    // Query runs to the next structural marker (or message end).
    let mut end = after.len();
    for marker in [KEYWORDS_PREFIX, LABEL_PREFIX, EXPLANATION_PREFIX] {
        if let Some(p) = after.find(marker) {
            end = end.min(p);
        }
    }
    let query = after.get(..end).unwrap_or("").trim();
    let provided_label = after
        .get(end..)
        .unwrap_or("")
        .find(LABEL_PREFIX)
        .map(|p| end + p + LABEL_PREFIX.len())
        .and_then(|start| {
            after
                .get(start..)
                .unwrap_or("")
                .split_whitespace()
                .next()
                .and_then(|tok| tok.trim_matches(|c: char| !c.is_ascii_digit()).parse().ok())
        });
    (query, provided_label)
}

/// Tokenize a prompt-rendered query, restoring `[a]`/`[b]` entity markers
/// from the `[A:name]` / `[B:name]` prompt rendering.
fn tokenize_query(query: &str) -> Vec<String> {
    let mut rewritten = String::with_capacity(query.len());
    let mut rest = query;
    loop {
        // Earliest of either marker (they can appear in any order).
        let start = match (rest.find("[A:"), rest.find("[B:")) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => break,
        };
        let tail = rest.get(start..).unwrap_or("");
        let is_a = tail.starts_with("[A:");
        rewritten.push_str(rest.get(..start).unwrap_or(""));
        match tail.find(']') {
            Some(close) => {
                rewritten.push_str(if is_a { " [a] " } else { " [b] " });
                rest = rest.get(start + close + 1..).unwrap_or("");
            }
            None => {
                rewritten.push_str(tail);
                rest = "";
            }
        }
    }
    rewritten.push_str(rest);
    tokenize_keep_markers(&rewritten)
}

/// Extend `keyword` with one adjacent token from its occurrence in
/// `tokens`, if the result stays a 1–3-gram. Returns `None` when the
/// keyword is not found, already a trigram, or the neighbour is an entity
/// marker.
fn extend_with_neighbor(tokens: &[String], keyword: &str, rng: &mut StdRng) -> Option<String> {
    let parts: Vec<&str> = keyword.split(' ').collect();
    if parts.len() >= 3 {
        return None;
    }
    let start = (0..tokens.len().checked_sub(parts.len() - 1)?).find(|&i| {
        tokens
            .get(i..i + parts.len())
            .is_some_and(|w| w.iter().zip(&parts).all(|(t, p)| t == p))
    })?;
    let before = start.checked_sub(1).and_then(|i| tokens.get(i));
    let after = tokens.get(start + parts.len());
    let valid = |t: &&String| !t.starts_with('[');
    let (prepend, tok) = match (before.filter(valid), after.filter(valid)) {
        (Some(b), Some(a)) => {
            if rng.gen::<bool>() {
                (true, b)
            } else {
                (false, a)
            }
        }
        (Some(b), None) => (true, b),
        (None, Some(a)) => (false, a),
        (None, None) => return None,
    };
    Some(if prepend {
        format!("{tok} {keyword}")
    } else {
        format!("{keyword} {tok}")
    })
}

fn argmax(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = (1.0 - rng.gen::<f64>()).max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn poisson(lambda: f64, rng: &mut StdRng) -> usize {
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l || k > 50 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ChatMessage;
    use datasculpt_data::DatasetName;
    use datasculpt_text::extract_ngrams;
    use proptest::prelude::*;

    /// Reference: the per-gram belief computation the belief table
    /// replaces, keyed by gram string and recomputing every hash.
    fn reference_noise(sim: &SimulatedLlm, gram: &str, class: usize) -> f64 {
        let key = hash_str(gram)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(hash_str(sim.profile.model.api_name()))
            .wrapping_add(class as u64);
        let u1 = ((derive_seed(key, 1) >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
        let u2 = (derive_seed(key, 2) >> 11) as f64 / (1u64 << 53) as f64;
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Reference: the model's belief about one gram, as computed per call
    /// before the belief table existed.
    fn reference_belief(sim: &SimulatedLlm, gram: &str) -> Option<(Vec<f64>, f64)> {
        let probs = sim.world.affinity(gram)?;
        let strength: f64 = probs.iter().sum();
        if strength <= 0.0 {
            return None;
        }
        let c = probs.len();
        let mut w: Vec<f64> = probs.iter().map(|p| p / strength).collect();
        for (cls, wc) in w.iter_mut().enumerate() {
            *wc += sim.profile.knowledge_noise * reference_noise(sim, gram, cls);
            if *wc < 0.0 {
                *wc = 0.0;
            }
        }
        let sum: f64 = w.iter().sum();
        if sum <= 0.0 {
            w = vec![1.0 / c as f64; c];
        } else {
            for wc in &mut w {
                *wc /= sum;
            }
        }
        Some((w, strength))
    }

    /// Reference: every 1–3-gram of the query, sorted and deduplicated as
    /// strings, kept when the model has a belief about it.
    fn reference_candidates(sim: &SimulatedLlm, tokens: &[String]) -> Vec<(String, Vec<f64>, f64)> {
        let mut grams = extract_ngrams(tokens, 3);
        grams.sort_unstable();
        grams.dedup();
        grams
            .into_iter()
            .filter_map(|g| reference_belief(sim, &g).map(|(w, s)| (g, w, s)))
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn belief_rows_match_the_per_gram_reference_bit_for_bit() {
        for name in DatasetName::ALL {
            let (_, world) = name.spec();
            let world = Arc::new(world);
            for model in ModelId::ALL {
                let sim = SimulatedLlm::new(model, world.clone(), 0);
                for sym in 0..world.known_len() as u32 {
                    let gram = world.known_gram(sym).unwrap();
                    let got = sim.beliefs.row(sym).map(|(w, s)| (bits(w), s.to_bits()));
                    let want = reference_belief(&sim, gram).map(|(w, s)| (bits(&w), s.to_bits()));
                    assert_eq!(got, want, "{name} {model:?} {gram:?}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The symbol walk finds exactly the reference candidates, in the
        /// same order, with bit-identical beliefs — on queries mixing known
        /// grams, background words and entity markers.
        #[test]
        fn candidates_match_the_sorted_string_reference(
            picks in prop::collection::vec((0u8..3, 0usize..10_000), 0..40),
            dataset in 0usize..6,
            model in 0usize..5,
        ) {
            let name = DatasetName::ALL[dataset];
            let (_, world) = name.spec();
            let sim = SimulatedLlm::new(ModelId::ALL[model], world, 3);
            let background = sim.world.background_words();
            let words: Vec<String> = picks
                .iter()
                .map(|&(kind, i)| match kind {
                    0 => sim.gram(i as u32 % sim.world.known_len() as u32).to_string(),
                    1 => background[i % background.len()].clone(),
                    _ => ["[A:john smith]", "[B:mary jones]", "[a]", "[b]"][i % 4].to_string(),
                })
                .collect();
            let tokens = tokenize_query(&words.join(" "));
            let got: Vec<(String, Vec<u64>, u64)> = sim
                .candidates(&tokens)
                .into_iter()
                .map(|(sym, w, s)| (sim.gram(sym).to_string(), bits(w), s.to_bits()))
                .collect();
            let want: Vec<(String, Vec<u64>, u64)> = reference_candidates(&sim, &tokens)
                .into_iter()
                .map(|(g, w, s)| (g, bits(&w), s.to_bits()))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn clones_share_the_world_and_the_beliefs() {
        let (_, world) = DatasetName::Youtube.spec();
        let world = Arc::new(world);
        let a = SimulatedLlm::new(ModelId::Gpt4, world.clone(), 1);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.world, &world));
        assert!(Arc::ptr_eq(&a.beliefs, &b.beliefs));
    }

    #[test]
    fn generic_mode_survives_a_huge_keyword_count() {
        // The count is parsed from the request text; it must not size an
        // allocation. Past what the world can produce, every count gives
        // the same answer.
        let ask_for = |count: &str| {
            let mut m = sim(ModelId::Gpt4);
            ask(
                &mut m,
                "You are a helpful assistant in a sentiment analysis task.",
                &format!("{GENERIC_KEYWORDS_MARKER} for class 1. Return up to {count} keywords."),
                1,
            )
        };
        let huge = ask_for(&usize::MAX.to_string()).choices;
        assert!(huge[0].content.contains("Label: 1"));
        assert_eq!(huge, ask_for("1000000000000").choices);
        assert_eq!(huge, ask_for("100000").choices);
    }

    fn sim(model: ModelId) -> SimulatedLlm {
        let (_, world) = DatasetName::Imdb.spec();
        SimulatedLlm::new(model, world, 42)
    }

    fn ask(model: &mut SimulatedLlm, system: &str, user: &str, n: usize) -> ChatResponse {
        model
            .complete(
                &ChatRequest::new(vec![
                    ChatMessage::system(system.to_string()),
                    ChatMessage::user(user.to_string()),
                ])
                .with_n(n),
            )
            .unwrap()
    }

    const SYS: &str = "You are a helpful assistant who helps users in a sentiment analysis task. After the user provides input, identify a list of keywords that helps making prediction. Finally, provide the class label for the input.";

    #[test]
    fn parallel_batch_matches_sequential_at_every_thread_count() {
        let queries = [
            "Query: this movie was great and heartwarming i loved it",
            "Query: the cgi was horrible and the plot was boring",
            "Query: a really wonderful film with a great cast",
            "Query: dull characters and a total waste of time",
            "Query: the acting was superb and the story moving",
        ];
        let reqs: Vec<ChatRequest> = queries
            .iter()
            .map(|q| {
                ChatRequest::new(vec![
                    ChatMessage::system(SYS.to_string()),
                    ChatMessage::user((*q).to_string()),
                ])
                .with_n(2)
            })
            .collect();
        // Reference transcript: sequential `complete` calls.
        let mut serial = sim(ModelId::Gpt4);
        let expected: Vec<_> = reqs.iter().map(|r| serial.complete(r).unwrap()).collect();
        for threads in [1, 2, 8] {
            let mut m = sim(ModelId::Gpt4).with_pool(Pool::new(threads));
            let results = m.complete_batch(&reqs);
            assert_eq!(m.calls_served(), reqs.len() as u64, "threads={threads}");
            for (got, want) in results.into_iter().zip(&expected) {
                assert_eq!(&got.unwrap(), want, "threads={threads}");
            }
        }
    }

    #[test]
    fn positive_review_gets_positive_label_and_keywords() {
        let mut m = sim(ModelId::Gpt4);
        let resp = ask(
            &mut m,
            SYS,
            "Query: this movie was great and heartwarming i loved it",
            1,
        );
        let text = &resp.choices[0].content;
        assert!(text.contains("Keywords:"), "{text}");
        assert!(text.contains("Label: 1"), "{text}");
        // The keyword should be one of the indicative grams in the query.
        let kw_line = text
            .lines()
            .find(|l| l.starts_with("Keywords:"))
            .expect("keywords line");
        assert!(
            kw_line.contains("great")
                || kw_line.contains("heartwarming")
                || kw_line.contains("loved it"),
            "{kw_line}"
        );
    }

    #[test]
    fn negative_review_gets_negative_label() {
        let mut m = sim(ModelId::Gpt4);
        let resp = ask(
            &mut m,
            SYS,
            "Query: the cgi was horrible and the plot was boring a total waste of time",
            1,
        );
        assert!(
            resp.choices[0].content.contains("Label: 0"),
            "{}",
            resp.choices[0].content
        );
    }

    #[test]
    fn label_accuracy_orders_by_model_quality() {
        // Over many generated documents, GPT-4 should label more accurately
        // than Llama-7b.
        let data = DatasetName::Imdb.load_scaled(7, 0.01);
        let mut correct = std::collections::HashMap::new();
        for model in [ModelId::Gpt4, ModelId::Llama2Chat7b] {
            let mut m = SimulatedLlm::new(model, data.generative.clone(), 0);
            let mut ok = 0usize;
            for inst in data.train.iter().take(120) {
                let resp = ask(&mut m, SYS, &format!("Query: {}", inst.text), 1);
                let text = &resp.choices[0].content;
                let label: Option<usize> = text
                    .rfind("Label:")
                    .and_then(|p| text[p + 6..].trim().parse().ok());
                if label == inst.label {
                    ok += 1;
                }
            }
            correct.insert(model, ok);
        }
        let g4 = correct[&ModelId::Gpt4];
        let l7 = correct[&ModelId::Llama2Chat7b];
        assert!(g4 > l7, "gpt4 {g4} vs llama7b {l7}");
        assert!(g4 >= 90, "gpt4 should be strong, got {g4}/120");
    }

    #[test]
    fn self_consistency_samples_differ() {
        let mut m = sim(ModelId::Gpt35Turbo);
        let resp = ask(
            &mut m,
            SYS,
            "Query: great funny heartwarming movie with a brilliant and touching story that i loved",
            10,
        );
        assert_eq!(resp.choices.len(), 10);
        let distinct: std::collections::HashSet<_> =
            resp.choices.iter().map(|c| c.content.clone()).collect();
        assert!(distinct.len() > 1, "samples should be diverse");
        // Prompt billed once; completions summed.
        assert!(resp.usage.completion_tokens > resp.usage.prompt_tokens / 10);
    }

    #[test]
    fn determinism_per_call_index() {
        let (_, world) = DatasetName::Imdb.spec();
        let mut a = SimulatedLlm::new(ModelId::Gpt35Turbo, world.clone(), 9);
        let mut b = SimulatedLlm::new(ModelId::Gpt35Turbo, world, 9);
        let r1 = ask(&mut a, SYS, "Query: a great movie", 1);
        let r2 = ask(&mut b, SYS, "Query: a great movie", 1);
        assert_eq!(r1.choices[0].content, r2.choices[0].content);
        // Second call on the same instance draws fresh sampling noise.
        let r3 = ask(&mut a, SYS, "Query: a great movie", 1);
        // (content may or may not differ, but the call counter advanced)
        assert_eq!(a.calls_served(), 2);
        let _ = r3;
    }

    #[test]
    fn label_only_mode_returns_bare_digit() {
        let mut m = sim(ModelId::Gpt35Turbo);
        let resp = ask(
            &mut m,
            &format!("{SYS} {LABEL_ONLY_MARKER}."),
            "Query: this was a wonderful and excellent movie",
            1,
        );
        let text = resp.choices[0].content.trim();
        assert!(
            text.len() == 1 && text.chars().all(|c| c.is_ascii_digit()),
            "{text}"
        );
    }

    #[test]
    fn provided_label_is_respected() {
        // KATE auto-annotation: the label is included in the user input.
        let mut m = sim(ModelId::Gpt35Turbo);
        let resp = ask(&mut m, SYS, "Query: this movie was horrible\nLabel: 0", 1);
        assert!(resp.choices[0].content.contains("Label: 0"));
    }

    #[test]
    fn cot_marker_triggers_explanation() {
        let mut m = sim(ModelId::Gpt4);
        let sys_cot = format!(
            "You are a helpful assistant. After the user provides input, first {COT_MARKER} process step by step. Then identify a list of keywords. Finally provide the class label."
        );
        let resp = ask(&mut m, &sys_cot, "Query: a boring terrible movie", 1);
        assert!(
            resp.choices[0].content.starts_with(EXPLANATION_PREFIX),
            "{}",
            resp.choices[0].content
        );
    }

    #[test]
    fn small_llama_hallucinates_sometimes() {
        let data = DatasetName::Youtube.load_scaled(3, 0.05);
        let mut m = SimulatedLlm::new(ModelId::Llama2Chat7b, data.generative.clone(), 5);
        let mut hallucinated = 0;
        for inst in data.train.iter().take(150) {
            let resp = ask(&mut m, SYS, &format!("Query: {}", inst.text), 1);
            if resp.choices[0].content.contains("Here is another example") {
                hallucinated += 1;
            }
        }
        assert!(hallucinated > 0, "7b should hallucinate occasionally");
        assert!(
            hallucinated < 60,
            "but not most of the time: {hallucinated}"
        );
    }

    #[test]
    fn entity_markers_survive_prompt_rendering() {
        let (_, world) = DatasetName::Spouse.spec();
        let mut m = SimulatedLlm::new(ModelId::Gpt4, world, 11);
        let resp = ask(
            &mut m,
            SYS,
            "Query: the ceremony was lovely as [A:john smith] married [B:mary jones] last june at their wedding",
            1,
        );
        let text = &resp.choices[0].content;
        assert!(text.contains("Label: 1"), "{text}");
    }

    #[test]
    fn generic_mode_returns_broad_keywords() {
        let mut m = sim(ModelId::Gpt4);
        let resp = ask(
            &mut m,
            "You are a helpful assistant in a sentiment analysis task.",
            &format!("{GENERIC_KEYWORDS_MARKER} for class 1. Return up to 5 keywords."),
            1,
        );
        let text = &resp.choices[0].content;
        assert!(text.contains("Label: 1"), "{text}");
        let kw_line = text.lines().next().expect("keywords line");
        let kws: Vec<&str> = kw_line["Keywords: ".len()..].split(", ").collect();
        assert!(kws.len() <= 5 && !kws.is_empty(), "{kws:?}");
        // Broad positive sentiment terms should dominate.
        assert!(
            kws.iter()
                .any(|k| k.contains("great") || k.contains("excellent") || k.contains("wonderful")),
            "{kws:?}"
        );
    }

    #[test]
    fn revise_mode_extends_the_keyword() {
        let mut m = sim(ModelId::Gpt4);
        let resp = ask(
            &mut m,
            &format!("You help with sentiment analysis. {REVISE_MARKER} from the passage."),
            "The keyword 'great' should be revised for class 1.\nQuery: this was a great movie indeed",
            1,
        );
        let text = &resp.choices[0].content;
        assert!(text.contains("Label: 1"), "{text}");
        let kw_line = text.lines().next().expect("keywords line");
        // The revision contains the original keyword plus a neighbour.
        assert!(kw_line.contains("great"), "{kw_line}");
        assert!(
            kw_line.contains("a great") || kw_line.contains("great movie"),
            "{kw_line}"
        );
    }

    #[test]
    fn parse_revise_request_extracts_keyword_and_class() {
        let (kw, class) = parse_revise_request(
            "The keyword 'waste of time' should be revised for class 0.",
            "",
        );
        assert_eq!(kw, "waste of time");
        assert_eq!(class, 0);
    }

    #[test]
    fn parse_generic_request_defaults() {
        assert_eq!(parse_generic_request("for class 2.", ""), (2, 8));
        assert_eq!(
            parse_generic_request("for class 1. up to 12 keywords", ""),
            (1, 12)
        );
        assert_eq!(parse_generic_request("no class marker", ""), (0, 8));
    }

    #[test]
    fn extract_query_handles_provided_label() {
        let (q, l) = extract_query("Query: some text here\nLabel: 2");
        assert_eq!(q, "some text here");
        assert_eq!(l, Some(2));
        let (q2, l2) = extract_query("Query: other text");
        assert_eq!(q2, "other text");
        assert_eq!(l2, None);
        // Earlier in-context examples are skipped: only the last query counts.
        let (q3, _) = extract_query("Query: first\nKeywords: a\nLabel: 0\nQuery: second");
        assert_eq!(q3, "second");
    }

    #[test]
    fn tokenize_query_restores_markers() {
        let toks = tokenize_query("[A:john smith] married [B:mary jones] yesterday");
        assert_eq!(toks[0], "[a]");
        assert!(toks.contains(&"[b]".to_string()));
        assert!(toks.contains(&"married".to_string()));
        assert!(!toks.contains(&"john".to_string()));
    }
}

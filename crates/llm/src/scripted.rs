//! Scripted and fault-injecting models for unit tests.

use crate::error::LlmError;
use crate::message::{ChatChoice, ChatRequest, ChatResponse};
use crate::pricing::ModelId;
use crate::tokens::approx_token_count;
use crate::usage::TokenUsage;
use crate::ChatModel;

/// Returns pre-baked responses round-robin; counts tokens like a real call.
///
/// Useful for exercising prompt/parse logic in downstream crates without the
/// full simulator.
#[derive(Debug, Clone)]
pub struct ScriptedModel {
    responses: Vec<String>,
    cursor: usize,
    model: ModelId,
}

impl ScriptedModel {
    /// A scripted model that cycles through `responses`.
    ///
    /// # Panics
    /// Panics if `responses` is empty.
    pub fn new(responses: Vec<String>) -> Self {
        assert!(!responses.is_empty(), "scripted model needs responses");
        Self {
            responses,
            cursor: 0,
            model: ModelId::Gpt35Turbo,
        }
    }

    /// Number of calls served so far.
    pub fn calls_served(&self) -> usize {
        self.cursor
    }
}

impl ChatModel for ScriptedModel {
    fn complete(&mut self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let mut choices = Vec::with_capacity(request.n);
        let mut completion_tokens = 0;
        for _ in 0..request.n {
            let slot = self.cursor % self.responses.len().max(1);
            let Some(content) = self.responses.get(slot).cloned() else {
                return Err(LlmError::EmptyResponse);
            };
            self.cursor += 1;
            completion_tokens += approx_token_count(&content);
            choices.push(ChatChoice { content });
        }
        Ok(ChatResponse {
            choices,
            usage: TokenUsage {
                prompt_tokens: request.prompt_tokens(),
                completion_tokens,
            },
            model: self.model,
        })
    }

    fn model_id(&self) -> ModelId {
        self.model
    }

    /// A replayed call consumes one scripted response, as if served live.
    fn advance_replayed(&mut self, calls: u64) {
        self.cursor = self.cursor.saturating_add(calls as usize);
    }
}

/// Fault-injecting wrapper: fails calls on a fixed schedule, forwarding the
/// rest to the wrapped model.
///
/// Failed calls never reach the backend (they model transport-level
/// failures), so the inner model's state does not advance on them.
#[derive(Debug, Clone)]
pub struct FailingModel<M> {
    inner: M,
    fail_indices: Vec<usize>,
    period: Option<usize>,
    error: LlmError,
    calls: usize,
}

impl<M: ChatModel> FailingModel<M> {
    /// Fail exactly the calls whose 0-based index is in `indices`.
    pub fn fail_on(inner: M, indices: impl IntoIterator<Item = usize>) -> Self {
        FailingModel {
            inner,
            fail_indices: indices.into_iter().collect(),
            period: None,
            error: LlmError::Transport("injected failure".into()),
            calls: 0,
        }
    }

    /// Fail every `period`-th call (indices `period - 1`, `2 * period - 1`, …).
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn fail_every(inner: M, period: usize) -> Self {
        assert!(period > 0, "failure period must be at least 1");
        FailingModel {
            inner,
            fail_indices: Vec::new(),
            period: Some(period),
            error: LlmError::Transport("injected failure".into()),
            calls: 0,
        }
    }

    /// Use `error` instead of the default transport error on failing calls.
    pub fn with_error(mut self, error: LlmError) -> Self {
        self.error = error;
        self
    }

    /// Total calls attempted (failed and served).
    pub fn calls_attempted(&self) -> usize {
        self.calls
    }

    /// The wrapped model.
    pub fn get_ref(&self) -> &M {
        &self.inner
    }

    fn should_fail(&self, idx: usize) -> bool {
        match self.period {
            Some(p) => idx % p == p - 1,
            None => self.fail_indices.contains(&idx),
        }
    }
}

impl<M: ChatModel> ChatModel for FailingModel<M> {
    fn complete(&mut self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let idx = self.calls;
        self.calls += 1;
        if self.should_fail(idx) {
            Err(self.error.clone())
        } else {
            self.inner.complete(request)
        }
    }

    fn model_id(&self) -> ModelId {
        self.inner.model_id()
    }

    /// Replays count toward the failure schedule exactly as the original
    /// live calls did, so a resumed schedule stays aligned.
    fn advance_replayed(&mut self, calls: u64) {
        self.calls += calls as usize;
        self.inner.advance_replayed(calls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ChatMessage;

    fn req(text: &str) -> ChatRequest {
        ChatRequest::new(vec![ChatMessage::user(text)])
    }

    #[test]
    fn cycles_through_responses() {
        let mut m = ScriptedModel::new(vec!["a".into(), "b".into()]);
        let r = req("hello world");
        assert_eq!(m.complete(&r).unwrap().choices[0].content, "a");
        assert_eq!(m.complete(&r).unwrap().choices[0].content, "b");
        assert_eq!(m.complete(&r).unwrap().choices[0].content, "a");
        assert_eq!(m.calls_served(), 3);
    }

    #[test]
    fn n_samples_consume_script() {
        let mut m = ScriptedModel::new(vec!["x".into(), "y".into()]);
        let r = req("q").with_n(2);
        let resp = m.complete(&r).unwrap();
        assert_eq!(resp.choices.len(), 2);
        assert_eq!(resp.choices[1].content, "y");
        assert!(resp.usage.prompt_tokens > 0);
        assert_eq!(resp.usage.completion_tokens, 2);
    }

    #[test]
    fn batch_preserves_order_and_state() {
        let mut m = ScriptedModel::new(vec!["a".into(), "b".into(), "c".into()]);
        let reqs = vec![req("1"), req("2"), req("3")];
        let results = m.complete_batch(&reqs);
        let texts: Vec<_> = results
            .into_iter()
            .map(|r| r.unwrap().choices[0].content.clone())
            .collect();
        assert_eq!(texts, ["a", "b", "c"]);
    }

    #[test]
    fn fail_on_schedule_skips_backend() {
        let mut m = FailingModel::fail_on(ScriptedModel::new(vec!["ok".into()]), [1, 3]);
        assert!(m.complete(&req("a")).is_ok());
        assert_eq!(
            m.complete(&req("b")),
            Err(LlmError::Transport("injected failure".into()))
        );
        assert!(m.complete(&req("c")).is_ok());
        assert!(m.complete(&req("d")).is_err());
        assert_eq!(m.calls_attempted(), 4);
        // The two failed calls never consumed the script.
        assert_eq!(m.get_ref().calls_served(), 2);
    }

    #[test]
    fn fail_every_period() {
        let mut m = FailingModel::fail_every(ScriptedModel::new(vec!["ok".into()]), 3);
        let outcomes: Vec<bool> = (0..6).map(|_| m.complete(&req("q")).is_ok()).collect();
        assert_eq!(outcomes, [true, true, false, true, true, false]);
    }

    #[test]
    fn custom_error_is_returned() {
        let mut m = FailingModel::fail_on(ScriptedModel::new(vec!["ok".into()]), [0])
            .with_error(LlmError::RateLimited);
        assert_eq!(m.complete(&req("q")), Err(LlmError::RateLimited));
    }

    #[test]
    fn batch_isolates_failures() {
        let mut m = FailingModel::fail_on(ScriptedModel::new(vec!["ok".into()]), [1]);
        let results = m.complete_batch(&[req("1"), req("2"), req("3")]);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
    }

    #[test]
    #[should_panic(expected = "period must be at least 1")]
    fn zero_period_rejected() {
        let _ = FailingModel::fail_every(ScriptedModel::new(vec!["ok".into()]), 0);
    }
}

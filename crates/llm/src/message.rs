//! Chat message and request/response types (OpenAI-style surface).

use crate::pricing::ModelId;
use crate::tokens::approx_token_count;
use crate::usage::TokenUsage;

/// Message author role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The system prompt (task description, Figure 2 top).
    System,
    /// The user turn (in-context examples + query).
    User,
    /// A model turn (used when replaying few-shot dialogues).
    Assistant,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::System => write!(f, "system"),
            Role::User => write!(f, "user"),
            Role::Assistant => write!(f, "assistant"),
        }
    }
}

/// One chat message.
#[derive(Debug, Clone)]
pub struct ChatMessage {
    /// Author role.
    pub role: Role,
    /// Message text.
    pub content: String,
}

impl ChatMessage {
    /// A system message.
    pub fn system(content: impl Into<String>) -> Self {
        Self {
            role: Role::System,
            content: content.into(),
        }
    }

    /// A user message.
    pub fn user(content: impl Into<String>) -> Self {
        Self {
            role: Role::User,
            content: content.into(),
        }
    }

    /// An assistant message.
    pub fn assistant(content: impl Into<String>) -> Self {
        Self {
            role: Role::Assistant,
            content: content.into(),
        }
    }
}

/// A chat completion request.
#[derive(Debug, Clone)]
pub struct ChatRequest {
    /// Conversation so far (system prompt first).
    pub messages: Vec<ChatMessage>,
    /// Sampling temperature (the paper uses 0.7).
    pub temperature: f64,
    /// Number of independent samples to return (10 for self-consistency).
    pub n: usize,
}

impl ChatRequest {
    /// A single-sample request at the paper's default temperature.
    pub fn new(messages: Vec<ChatMessage>) -> Self {
        Self {
            messages,
            temperature: 0.7,
            n: 1,
        }
    }

    /// Set the temperature.
    pub fn with_temperature(mut self, t: f64) -> Self {
        self.temperature = t;
        self
    }

    /// Set the number of samples.
    pub fn with_n(mut self, n: usize) -> Self {
        assert!(n >= 1, "n must be at least 1");
        self.n = n;
        self
    }

    /// Approximate prompt tokens of the conversation: the sum of
    /// [`approx_token_count`] over the messages. This equals the count of
    /// [`full_text`](Self::full_text) — its `\n` separators are whitespace,
    /// so no word spans two messages — without building that text.
    pub fn prompt_tokens(&self) -> u64 {
        self.messages
            .iter()
            .map(|m| approx_token_count(&m.content))
            .sum()
    }

    /// Concatenated text of all messages, each followed by `\n`.
    pub fn full_text(&self) -> String {
        let mut s = String::new();
        for m in &self.messages {
            s.push_str(&m.content);
            s.push('\n');
        }
        s
    }

    /// The last user message, if any.
    pub fn last_user(&self) -> Option<&ChatMessage> {
        self.messages.iter().rev().find(|m| m.role == Role::User)
    }
}

/// One returned sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChatChoice {
    /// Generated text.
    pub content: String,
}

/// A chat completion response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChatResponse {
    /// `request.n` samples.
    pub choices: Vec<ChatChoice>,
    /// Token accounting for this call (prompt counted once, completions
    /// summed over all choices, mirroring the OpenAI billing model).
    pub usage: TokenUsage,
    /// Model that served the request.
    pub model: ModelId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_roles() {
        assert_eq!(ChatMessage::system("s").role, Role::System);
        assert_eq!(ChatMessage::user("u").role, Role::User);
        assert_eq!(ChatMessage::assistant("a").role, Role::Assistant);
    }

    #[test]
    fn request_defaults() {
        let r = ChatRequest::new(vec![ChatMessage::user("hi")]);
        assert_eq!(r.n, 1);
        assert!((r.temperature - 0.7).abs() < 1e-12);
    }

    #[test]
    fn last_user_skips_assistant() {
        let r = ChatRequest::new(vec![
            ChatMessage::system("sys"),
            ChatMessage::user("first"),
            ChatMessage::assistant("reply"),
        ]);
        assert_eq!(r.last_user().map(|m| m.content.as_str()), Some("first"));
    }

    #[test]
    #[should_panic(expected = "n must be at least 1")]
    fn zero_samples_rejected() {
        let _ = ChatRequest::new(vec![]).with_n(0);
    }

    #[test]
    fn full_text_concatenates() {
        let r = ChatRequest::new(vec![ChatMessage::system("a"), ChatMessage::user("b")]);
        assert_eq!(r.full_text(), "a\nb\n");
    }
}

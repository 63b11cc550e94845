//! Property-based tests for the LLM substrate.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use datasculpt_data::DatasetName;
use datasculpt_llm::{
    approx_token_count, ChatMessage, ChatModel, ChatRequest, ModelId, PricingTable, SimulatedLlm,
};
use proptest::prelude::*;

proptest! {
    /// Token counting is total, zero only on symbol-free text, and
    /// additive across a whitespace join.
    #[test]
    fn token_count_total_and_additive(a in "[a-zA-Z ,.!?]{0,80}", b in "[a-zA-Z ,.!?]{0,80}") {
        let ta = approx_token_count(&a);
        let tb = approx_token_count(&b);
        prop_assert_eq!(ta + tb, approx_token_count(&format!("{a} {b}")));
    }

    /// A request's prompt tokens, summed per message, equal the count of
    /// its newline-joined full text.
    #[test]
    fn prompt_tokens_count_the_full_text(
        texts in prop::collection::vec("[a-zA-Z0-9 \n\t',.!?:éλ中€]{0,60}", 0..5),
        roles in prop::collection::vec(0u8..3, 5),
    ) {
        let messages: Vec<ChatMessage> = texts
            .iter()
            .zip(&roles)
            .map(|(text, role)| match role {
                0 => ChatMessage::system(text.clone()),
                1 => ChatMessage::user(text.clone()),
                _ => ChatMessage::assistant(text.clone()),
            })
            .collect();
        let request = ChatRequest::new(messages);
        prop_assert_eq!(request.prompt_tokens(), approx_token_count(&request.full_text()));
    }

    /// Cost is linear in tokens and non-negative for every model.
    #[test]
    fn pricing_linear(p in 0u64..1_000_000, c in 0u64..1_000_000) {
        for m in ModelId::ALL {
            let one = PricingTable::cost_usd(m, p, c);
            let two = PricingTable::cost_usd(m, 2 * p, 2 * c);
            prop_assert!(one >= 0.0);
            prop_assert!((two - 2.0 * one).abs() < 1e-9);
        }
    }

    #[test]
    /// The simulator never panics and always produces the requested number
    /// of choices, for arbitrary prompt text.
    fn simulator_total(sys in "\\PC{0,100}", user in "\\PC{0,200}", n in 1usize..4) {
        let (_, world) = DatasetName::Youtube.spec();
        let mut llm = SimulatedLlm::new(ModelId::Gpt35Turbo, world, 1);
        let resp = llm
            .complete(
                &ChatRequest::new(vec![
                    ChatMessage::system(sys),
                    ChatMessage::user(user),
                ])
                .with_n(n),
            )
            .unwrap();
        prop_assert_eq!(resp.choices.len(), n);
        prop_assert!(resp.usage.prompt_tokens > 0 || resp.usage.completion_tokens > 0);
    }

    /// Billing consistency: completion tokens grow with `n`, prompt tokens
    /// do not.
    #[test]
    fn usage_scales_with_samples(seed in any::<u64>()) {
        let (_, world) = DatasetName::Imdb.spec();
        let mk = |n: usize, seed: u64| {
            let mut llm = SimulatedLlm::new(ModelId::Gpt35Turbo, world.clone(), seed);
            llm.complete(
                &ChatRequest::new(vec![ChatMessage::user(
                    "Query: a great and wonderful movie that i loved".to_string(),
                )])
                .with_n(n),
            )
            .unwrap()
        };
        let one = mk(1, seed);
        let five = mk(5, seed);
        prop_assert_eq!(one.usage.prompt_tokens, five.usage.prompt_tokens);
        prop_assert!(five.usage.completion_tokens >= one.usage.completion_tokens);
    }
}

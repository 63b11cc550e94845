//! Response-record codec: prompt digests and response payloads.
//!
//! Store records are keyed by a 128-bit FNV-1a digest of the *full
//! structural identity* of a request — every message's role and content,
//! the temperature bit pattern, and the sample count — mirroring the
//! in-memory `CachedModel` key. 128 bits makes an accidental collision
//! across a store's lifetime negligible, so the store never needs to keep
//! raw prompts on disk to disambiguate.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use datasculpt_llm::{ChatChoice, ChatRequest, ChatResponse, ModelId, Role, TokenUsage};
use datasculpt_obs::hash::Fnv128;

/// The store key for one request: a 128-bit digest of its structural
/// identity (messages with roles, temperature bits, sample count).
pub fn request_digest(request: &ChatRequest) -> u128 {
    let mut d = Fnv128::default();
    d.eat_u64(request.messages.len() as u64);
    for message in &request.messages {
        let role = match message.role {
            Role::System => 0u8,
            Role::User => 1,
            Role::Assistant => 2,
        };
        d.eat(&[role]);
        d.eat_u64(message.content.len() as u64);
        d.eat(message.content.as_bytes());
    }
    d.eat_u64(request.temperature.to_bits());
    d.eat_u64(request.n as u64);
    d.finish()
}

/// Resolve a stored model API name back to a [`ModelId`].
pub fn model_from_api(name: &str) -> Option<ModelId> {
    ModelId::ALL.iter().copied().find(|m| m.api_name() == name)
}

/// Encode one `(digest, response)` store record payload.
pub fn encode_entry(digest: u128, response: &ChatResponse) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u128(digest);
    w.put_str(response.model.api_name());
    w.put_u64(response.usage.prompt_tokens);
    w.put_u64(response.usage.completion_tokens);
    w.put_u32(response.choices.len() as u32);
    for choice in &response.choices {
        w.put_str(&choice.content);
    }
    w.into_bytes()
}

/// Decode one store record payload back into `(digest, response)`.
pub fn decode_entry(payload: &[u8]) -> Result<(u128, ChatResponse), CodecError> {
    let mut r = ByteReader::new(payload);
    let digest = r.u128()?;
    let api_name = r.str()?;
    let model = model_from_api(&api_name).ok_or(CodecError::BadUtf8)?;
    let prompt_tokens = r.u64()?;
    let completion_tokens = r.u64()?;
    let n_choices = r.u32()? as usize;
    let mut choices = Vec::with_capacity(n_choices.min(1024));
    for _ in 0..n_choices {
        choices.push(ChatChoice { content: r.str()? });
    }
    r.finish()?;
    Ok((
        digest,
        ChatResponse {
            choices,
            usage: TokenUsage {
                prompt_tokens,
                completion_tokens,
            },
            model,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasculpt_llm::ChatMessage;

    fn resp(contents: &[&str]) -> ChatResponse {
        ChatResponse {
            choices: contents
                .iter()
                .map(|c| ChatChoice {
                    content: (*c).to_string(),
                })
                .collect(),
            usage: TokenUsage {
                prompt_tokens: 42,
                completion_tokens: 7,
            },
            model: ModelId::Gpt4,
        }
    }

    #[test]
    fn entries_round_trip() {
        let response = resp(&["Label: 1\nKeywords: check", "Label: 0"]);
        let payload = encode_entry(99, &response);
        let (digest, decoded) = decode_entry(&payload).unwrap();
        assert_eq!(digest, 99);
        assert_eq!(decoded, response);
    }

    #[test]
    fn digest_distinguishes_every_key_dimension() {
        let base = ChatRequest::new(vec![
            ChatMessage::system("You label"),
            ChatMessage::user("Query: spam?"),
        ]);
        let d = request_digest(&base);
        assert_ne!(d, request_digest(&base.clone().with_temperature(0.0)));
        assert_ne!(d, request_digest(&base.clone().with_n(2)));
        let role_swap = ChatRequest::new(vec![
            ChatMessage::user("You label"),
            ChatMessage::user("Query: spam?"),
        ]);
        assert_ne!(d, request_digest(&role_swap));
        // Message-boundary ambiguity: ("ab","c") vs ("a","bc").
        let a = ChatRequest::new(vec![ChatMessage::user("ab"), ChatMessage::user("c")]);
        let b = ChatRequest::new(vec![ChatMessage::user("a"), ChatMessage::user("bc")]);
        assert_ne!(request_digest(&a), request_digest(&b));
    }

    #[test]
    fn digest_is_pinned() {
        // These bits key every record of every response store on disk; a
        // moved bit would silently stop existing stores from replaying.
        let labelled = ChatRequest::new(vec![
            ChatMessage::system("You label"),
            ChatMessage::user("Query: spam?"),
        ]);
        assert_eq!(
            request_digest(&labelled),
            0xd7ad_ce10_8db1_09ef_66ef_b6ab_9ecb_3936
        );
        let sampled = ChatRequest::new(vec![
            ChatMessage::user("Query: same"),
            ChatMessage::assistant("Label: 1"),
        ])
        .with_temperature(0.0)
        .with_n(10);
        assert_eq!(
            request_digest(&sampled),
            0xaff6_1cde_3a0c_a94c_95bd_fc03_d6e8_b802
        );
    }

    #[test]
    fn digest_is_stable_across_calls() {
        let req = ChatRequest::new(vec![ChatMessage::user("Query: same")]);
        assert_eq!(request_digest(&req), request_digest(&req.clone()));
    }

    #[test]
    fn unknown_model_name_is_rejected() {
        let response = resp(&["x"]);
        let mut payload = encode_entry(1, &response);
        // Corrupt the model name in place: "gpt-4" -> "gpt-9".
        let pos = payload
            .windows(5)
            .position(|w| w == b"gpt-4")
            .expect("model name present");
        payload[pos + 4] = b'9';
        assert!(decode_entry(&payload).is_err());
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let payload = encode_entry(1, &resp(&["hello"]));
        assert!(decode_entry(&payload[..payload.len() - 2]).is_err());
        assert!(decode_entry(&[]).is_err());
    }
}

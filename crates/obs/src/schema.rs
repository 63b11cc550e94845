//! Trace validation: checks that a JSONL trace conforms to schema v1.
//!
//! Used by the `datasculpt trace-check` subcommand and by `scripts/check.sh`
//! to prove that every emitted trace line-parses, carries only known event
//! kinds/stages/counters with their required fields, keeps `seq`/`t_ns`
//! monotone, and nests spans strictly (every end event closes the innermost
//! open span; nothing left open at EOF).
//!
//! Each line goes through the codec's decoder (`jsonl::decode_line`,
//! then `Event::decode`); this module adds the checks that span lines:
//! `seq`/`t_ns` order and span nesting by `SpanKey`.
//!
//! The parser here is deliberately tiny: traces are flat JSON objects whose
//! values are strings, unsigned integers, or booleans — exactly what
//! [`crate::jsonl::render_line`] emits — so a full JSON implementation
//! (and the external dependency it would drag in) is unnecessary.
//! [`Fields`] gives typed, by-name access to one parsed object; the serve
//! crate's job registry and wire protocol read their lines through it too.

use crate::event::{Event, SpanEdge, SpanKey};
use crate::jsonl::decode_line;
use crate::tracer::Record;
use std::collections::BTreeMap;
use std::fmt;

/// A value in a trace line: the flat subset of JSON the writer emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// A string literal.
    Str(String),
    /// An unsigned integer (covers `cost_nanousd` up to u128).
    UInt(u128),
    /// A boolean.
    Bool(bool),
}

impl JsonValue {
    fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Str(_) => "string",
            JsonValue::UInt(_) => "integer",
            JsonValue::Bool(_) => "boolean",
        }
    }
}

/// A validation failure, with the 1-based line it occurred on (0 = EOF).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// 1-based trace line, or 0 for end-of-trace errors.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "trace: {}", self.message)
        } else {
            write!(f, "trace line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ValidateError {}

fn err(line: usize, message: impl Into<String>) -> ValidateError {
    ValidateError {
        line,
        message: message.into(),
    }
}

/// Parse one flat JSON object, preserving key order.
///
/// Accepts exactly the subset [`crate::jsonl::render_line`] emits: string,
/// unsigned-integer, and boolean values; no nesting, no floats, no null.
pub fn parse_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while matches!(bytes.get(*pos), Some(&(b' ' | b'\t'))) {
            *pos += 1;
        }
    }

    fn parse_string(line: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {}", *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = line.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("invalid codepoint \\u{hex}"))?,
                            );
                            *pos += 4;
                        }
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Advance one whole UTF-8 character, not one byte.
                    let rest = line.get(*pos..).unwrap_or("");
                    let ch = rest.chars().next().ok_or("invalid utf-8 position")?;
                    out.push(ch);
                    *pos += ch.len_utf8();
                }
            }
        }
    }

    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err("expected '{'".into());
    }
    pos += 1;
    let mut fields = Vec::new();
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) == Some(&b'}') {
        pos += 1;
    } else {
        loop {
            skip_ws(bytes, &mut pos);
            let key = parse_string(line, bytes, &mut pos)?;
            skip_ws(bytes, &mut pos);
            if bytes.get(pos) != Some(&b':') {
                return Err(format!("expected ':' after key '{key}'"));
            }
            pos += 1;
            skip_ws(bytes, &mut pos);
            let value = match bytes.get(pos) {
                Some(b'"') => JsonValue::Str(parse_string(line, bytes, &mut pos)?),
                Some(b't') if line.get(pos..).is_some_and(|r| r.starts_with("true")) => {
                    pos += 4;
                    JsonValue::Bool(true)
                }
                Some(b'f') if line.get(pos..).is_some_and(|r| r.starts_with("false")) => {
                    pos += 5;
                    JsonValue::Bool(false)
                }
                Some(c) if c.is_ascii_digit() => {
                    let start = pos;
                    while bytes.get(pos).is_some_and(|b| b.is_ascii_digit()) {
                        pos += 1;
                    }
                    let n: u128 = line
                        .get(start..pos)
                        .unwrap_or("")
                        .parse()
                        .map_err(|_| format!("integer out of range at byte {start}"))?;
                    JsonValue::UInt(n)
                }
                other => {
                    return Err(format!(
                        "unsupported value {other:?} for key '{key}' (flat traces only)"
                    ))
                }
            };
            fields.push((key, value));
            skip_ws(bytes, &mut pos);
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content after object at byte {pos}"));
    }
    Ok(fields)
}

/// One parsed flat object with typed, by-name field access.
///
/// A missing field reads as `None` from the `opt_*` accessors and as an
/// error from the others; a present field of the wrong type is an error
/// from both, so a default applies only to an absent field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fields(Vec<(String, JsonValue)>);

impl Fields {
    /// Parse one line with [`parse_object`].
    pub fn parse(line: &str) -> Result<Fields, String> {
        parse_object(line).map(Fields)
    }

    /// The keys, in line order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(k, _)| k.as_str())
    }

    /// The first value under `key`, picked as type `want`.
    fn typed<'a, T>(
        &'a self,
        key: &str,
        want: &str,
        pick: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
            None => Ok(None),
            Some(v) => pick(v)
                .map(Some)
                .ok_or_else(|| format!("field '{key}' must be {want}, got {}", v.type_name())),
        }
    }

    /// An optional string field.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        self.typed(key, "string", |v| match v {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// An optional unsigned-integer field.
    pub fn opt_uint(&self, key: &str) -> Result<Option<u128>, String> {
        self.typed(key, "integer", |v| match v {
            JsonValue::UInt(n) => Some(*n),
            _ => None,
        })
    }

    /// An optional unsigned-integer field that must fit a `u64`.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.opt_uint(key)?
            .map(|n| u64::try_from(n).map_err(|_| format!("field '{key}' out of u64 range")))
            .transpose()
    }

    /// A required string field.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.opt_str(key)?.ok_or_else(|| missing(key))
    }

    /// A required unsigned-integer field.
    pub fn uint(&self, key: &str) -> Result<u128, String> {
        self.opt_uint(key)?.ok_or_else(|| missing(key))
    }

    /// A required unsigned-integer field that must fit a `u64`.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.opt_u64(key)?.ok_or_else(|| missing(key))
    }

    /// A required boolean field.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        let value = self.typed(key, "boolean", |v| match v {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        })?;
        value.ok_or_else(|| missing(key))
    }
}

fn missing(key: &str) -> String {
    format!("missing field '{key}'")
}

/// What a validated trace contained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total lines (= events).
    pub events: u64,
    /// Events per kind.
    pub kinds: BTreeMap<String, u64>,
    /// Distinct stages that completed at least one span.
    pub stages: Vec<String>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Iterations completed.
    pub iterations: u64,
    /// Total cost across usage events, exact nano-USD.
    pub cost_nanousd: u128,
}

/// Validate a whole trace (the concatenated JSONL text).
///
/// Checks, per line: it decodes (`decode_line`: a flat JSON object whose
/// header fields `v`, `seq`, `t_ns`, `kind` lead in that order, `v` equal
/// to [`TRACE_SCHEMA_VERSION`](crate::TRACE_SCHEMA_VERSION), `dur_ns` on
/// end kinds and only there, known kind, stage and counter names, every
/// field present with its type); `seq` increments from 0; `t_ns` never
/// decreases. Across lines: every end event closes the *innermost* open
/// span (strict nesting) and no span is left open at EOF.
pub fn validate_trace(text: &str) -> Result<TraceSummary, ValidateError> {
    replay_trace(text, |_| {})
}

/// [`validate_trace`], handing each record to `each` as soon as its line
/// has passed: one parse per line for every consumer of a stored trace.
pub(crate) fn replay_trace(
    text: &str,
    mut each: impl FnMut(&Record<'_>),
) -> Result<TraceSummary, ValidateError> {
    let mut summary = TraceSummary::default();
    let mut open: Vec<SpanKey> = Vec::new();
    let mut last_t_ns = 0;

    for (idx, raw) in text.lines().enumerate() {
        let no = idx + 1;
        if raw.trim().is_empty() {
            return Err(err(no, "blank line in trace"));
        }
        let line = decode_line(raw).map_err(|e| err(no, e))?;
        let (seq, t_ns, event) = (line.seq, line.t_ns, &line.event);
        if seq != idx as u64 {
            return Err(err(no, format!("seq {seq}, expected {idx}")));
        }
        if t_ns < last_t_ns {
            return Err(err(
                no,
                format!("t_ns went backwards ({t_ns} after {last_t_ns})"),
            ));
        }
        last_t_ns = t_ns;

        let kind = event.kind();
        match event.span_edge() {
            Some(SpanEdge::Open(key)) => open.push(key),
            Some(SpanEdge::Close(key)) => match open.pop() {
                Some(top) if top == key => {}
                Some(top) => {
                    return Err(err(
                        no,
                        format!("{kind} for {key} while {top} is innermost"),
                    ))
                }
                None => return Err(err(no, format!("{kind} for {key} with no open span"))),
            },
            None => {}
        }
        match event {
            Event::StageEnd { stage, .. } if !summary.stages.iter().any(|s| s == stage.name()) => {
                summary.stages.push(stage.name().to_string());
            }
            Event::IterationEnd { .. } => summary.iterations += 1,
            Event::Counter { counter, delta } => {
                *summary
                    .counters
                    .entry(counter.name().to_string())
                    .or_default() += delta;
            }
            Event::Usage { cost_nanousd, .. } => summary.cost_nanousd += cost_nanousd,
            _ => {}
        }
        *summary.kinds.entry(kind.to_string()).or_default() += 1;
        summary.events += 1;
        each(&line.record());
    }

    if let Some(top) = open.last() {
        return Err(err(0, format!("unclosed span at end of trace: {top}")));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = concat!(
        "{\"v\":1,\"seq\":0,\"t_ns\":0,\"kind\":\"run_begin\",\"label\":\"run\",\"dataset\":\"youtube\",\"model\":\"sim\",\"queries\":1,\"seed\":7}\n",
        "{\"v\":1,\"seq\":1,\"t_ns\":10,\"kind\":\"stage_begin\",\"iter\":0,\"stage\":\"select\"}\n",
        "{\"v\":1,\"seq\":2,\"t_ns\":20,\"kind\":\"stage_end\",\"dur_ns\":10,\"iter\":0,\"stage\":\"select\"}\n",
        "{\"v\":1,\"seq\":3,\"t_ns\":30,\"kind\":\"iter_begin\",\"iter\":0,\"instance\":42}\n",
        "{\"v\":1,\"seq\":4,\"t_ns\":40,\"kind\":\"stage_begin\",\"iter\":0,\"stage\":\"generate\"}\n",
        "{\"v\":1,\"seq\":5,\"t_ns\":50,\"kind\":\"counter\",\"counter\":\"cache_miss\",\"delta\":1}\n",
        "{\"v\":1,\"seq\":6,\"t_ns\":60,\"kind\":\"usage\",\"model\":\"sim\",\"prompt_tokens\":10,\"completion_tokens\":2,\"cost_nanousd\":190000}\n",
        "{\"v\":1,\"seq\":7,\"t_ns\":70,\"kind\":\"stage_end\",\"dur_ns\":30,\"iter\":0,\"stage\":\"generate\"}\n",
        "{\"v\":1,\"seq\":8,\"t_ns\":80,\"kind\":\"iter_end\",\"dur_ns\":50,\"iter\":0,\"accepted\":1,\"rejected\":0,\"failed\":false}\n",
        "{\"v\":1,\"seq\":9,\"t_ns\":90,\"kind\":\"run_end\",\"dur_ns\":90,\"iterations\":1,\"failed\":0,\"lfs\":1}\n",
    );

    #[test]
    fn accepts_a_well_formed_trace() {
        let summary = validate_trace(GOOD).unwrap();
        assert_eq!(summary.events, 10);
        assert_eq!(summary.iterations, 1);
        assert_eq!(summary.kinds["stage_begin"], 2);
        assert_eq!(summary.counters["cache_miss"], 1);
        assert_eq!(summary.cost_nanousd, 190_000);
        assert_eq!(summary.stages, vec!["select", "generate"]);
    }

    #[test]
    fn select_before_iteration_is_valid_nesting() {
        // The pipeline opens/closes the select span before iter_begin (the
        // instance is unknown until selection returns); the validator must
        // accept that shape — GOOD encodes it.
        assert!(validate_trace(GOOD).is_ok());
    }

    #[test]
    fn rejects_bad_seq() {
        let bad = GOOD.replace("\"seq\":3", "\"seq\":9");
        let e = validate_trace(&bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("seq"));
    }

    #[test]
    fn rejects_time_going_backwards() {
        let bad = GOOD.replace("\"t_ns\":90", "\"t_ns\":5");
        assert!(validate_trace(&bad)
            .unwrap_err()
            .message
            .contains("backwards"));
    }

    #[test]
    fn rejects_unknown_kind_stage_and_counter() {
        let bad = GOOD.replace("\"kind\":\"counter\"", "\"kind\":\"telemetry\"");
        assert!(validate_trace(&bad).unwrap_err().message.contains("kind"));
        let bad = GOOD.replace("\"stage\":\"select\"", "\"stage\":\"warmup\"");
        assert!(validate_trace(&bad).unwrap_err().message.contains("stage"));
        let bad = GOOD.replace("\"counter\":\"cache_miss\"", "\"counter\":\"frobs\"");
        assert!(validate_trace(&bad)
            .unwrap_err()
            .message
            .contains("counter"));
    }

    #[test]
    fn rejects_broken_nesting_and_unclosed_spans() {
        // Close the run while the select stage is still open.
        let broken = concat!(
            "{\"v\":1,\"seq\":0,\"t_ns\":0,\"kind\":\"run_begin\",\"label\":\"r\",\"dataset\":\"d\",\"model\":\"m\",\"queries\":1,\"seed\":0}\n",
            "{\"v\":1,\"seq\":1,\"t_ns\":10,\"kind\":\"stage_begin\",\"iter\":0,\"stage\":\"select\"}\n",
            "{\"v\":1,\"seq\":2,\"t_ns\":20,\"kind\":\"run_end\",\"dur_ns\":20,\"iterations\":0,\"failed\":0,\"lfs\":0}\n",
        );
        let e = validate_trace(broken).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("innermost"), "{}", e.message);

        let lines: Vec<&str> = GOOD.lines().collect();
        let unclosed = [lines[0], lines[1]].join("\n");
        let e = validate_trace(&unclosed).unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("unclosed"));
    }

    #[test]
    fn rejects_missing_required_field_and_wrong_type() {
        let bad = GOOD.replace(",\"instance\":42", "");
        assert!(validate_trace(&bad)
            .unwrap_err()
            .message
            .contains("instance"));
        let bad = GOOD.replace("\"failed\":false", "\"failed\":0");
        assert!(validate_trace(&bad)
            .unwrap_err()
            .message
            .contains("boolean"));
    }

    #[test]
    fn rejects_dur_ns_misuse() {
        let bad = GOOD.replace(",\"dur_ns\":90", "");
        assert!(validate_trace(&bad).unwrap_err().message.contains("dur_ns"));
        let bad = GOOD.replace(
            "\"kind\":\"iter_begin\",",
            "\"kind\":\"iter_begin\",\"dur_ns\":1,",
        );
        assert!(validate_trace(&bad)
            .unwrap_err()
            .message
            .contains("must not carry dur_ns"));
    }

    #[test]
    fn parser_round_trips_escapes() {
        let fields =
            parse_object("{\"text\":\"a\\\"b\\\\c\\nd\\u0041\",\"n\":12,\"ok\":true}").unwrap();
        assert_eq!(fields[0].1, JsonValue::Str("a\"b\\c\ndA".into()));
        assert_eq!(fields[1].1, JsonValue::UInt(12));
        assert_eq!(fields[2].1, JsonValue::Bool(true));
    }

    #[test]
    fn parser_rejects_nested_and_trailing_content() {
        assert!(parse_object("{\"a\":{}}").is_err());
        assert!(parse_object("{\"a\":1} extra").is_err());
        assert!(parse_object("{\"a\":-1}").is_err());
    }
}

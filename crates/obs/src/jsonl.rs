//! The JSONL trace sink: one self-describing JSON object per event.
//!
//! Wire format (schema v1, see `docs/trace-schema.md`): every line starts
//! with the common header fields `v`, `seq`, `t_ns`, `kind`, followed by
//! `dur_ns` on span-end kinds, followed by the kind-specific fields of
//! `Event::for_each_field` — always in that order, so traces diff
//! cleanly and the golden-file test can pin the byte-exact encoding.
//! [`render_line`] and `decode_line` are the two directions of that
//! format, the record header here and the fields through the codec in
//! [`event`](crate::event).
//!
//! Write errors never panic and never disturb the observed run: the first
//! error is stored, later records become no-ops, and
//! [`finish`](JsonlTraceSink::finish) surfaces it.

use crate::event::{Event, FieldValue, SpanEdge};
use crate::schema::Fields;
use crate::tracer::{Record, TraceSink};
use crate::TRACE_SCHEMA_VERSION;
use std::fmt;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A string as the body of a JSON string literal: quotes, backslashes
/// and control characters escaped, written without allocating.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut clean = 0;
        for (at, c) in self.0.char_indices() {
            if !(c == '"' || c == '\\' || c < ' ') {
                continue;
            }
            f.write_str(self.0.get(clean..at).unwrap_or(""))?;
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c => write!(f, "\\u{:04x}", c as u32)?,
            }
            // Every escaped character is one ASCII byte.
            clean = at + 1;
        }
        f.write_str(self.0.get(clean..).unwrap_or(""))
    }
}

/// Escape a string for a JSON string literal (quotes, backslashes,
/// control characters).
pub fn escape_json(s: &str) -> String {
    Escaped(s).to_string()
}

/// A record's JSONL line (without the newline), formatted on demand.
struct Line<'a>(&'a Record<'a>);

impl fmt::Display for Line<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Record {
            seq,
            t_ns,
            dur_ns,
            event,
        } = *self.0;
        write!(
            f,
            "{{\"v\":{TRACE_SCHEMA_VERSION},\"seq\":{seq},\"t_ns\":{t_ns},\"kind\":\"{}\"",
            event.kind()
        )?;
        if let Some(dur_ns) = dur_ns {
            write!(f, ",\"dur_ns\":{dur_ns}")?;
        }
        let mut written = Ok(());
        event.for_each_field(|name, value| {
            if written.is_ok() {
                written = match value {
                    FieldValue::Str(s) => write!(f, ",\"{name}\":\"{}\"", Escaped(s)),
                    FieldValue::UInt(n) => write!(f, ",\"{name}\":{n}"),
                    FieldValue::Bool(b) => write!(f, ",\"{name}\":{b}"),
                };
            }
        });
        written?;
        f.write_str("}")
    }
}

/// Render one stamped record as its JSONL line (without the newline).
pub fn render_line(record: &Record<'_>) -> String {
    Line(record).to_string()
}

/// One decoded trace line: the [`Record`] it was rendered from, owning
/// its event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DecodedLine {
    pub(crate) seq: u64,
    pub(crate) t_ns: u64,
    /// On end kinds only.
    pub(crate) dur_ns: Option<u64>,
    pub(crate) event: Event,
}

impl DecodedLine {
    /// The record as the tracer delivered it to its sinks.
    pub(crate) fn record(&self) -> Record<'_> {
        Record {
            seq: self.seq,
            t_ns: self.t_ns,
            dur_ns: self.dur_ns,
            event: &self.event,
        }
    }
}

/// Decode one JSONL line, the inverse of [`render_line`]: the header
/// fields `v`, `seq`, `t_ns`, `kind` leading in that order, `v` equal to
/// [`TRACE_SCHEMA_VERSION`], `dur_ns` on end kinds and only there, then
/// the kind's fields through `Event::decode`. Fields the schema does
/// not name are ignored.
pub(crate) fn decode_line(line: &str) -> Result<DecodedLine, String> {
    let fields = Fields::parse(line)?;
    let header: Vec<&str> = fields.keys().take(4).collect();
    if header != ["v", "seq", "t_ns", "kind"] {
        return Err(format!(
            "header must start with v,seq,t_ns,kind (got {header:?})"
        ));
    }
    let v = fields.uint("v")?;
    if v != u128::from(TRACE_SCHEMA_VERSION) {
        return Err(format!("unsupported schema version {v}"));
    }
    let (seq, t_ns, kind) = (fields.u64("seq")?, fields.u64("t_ns")?, fields.str("kind")?);
    let event = Event::decode(kind, &fields)?;
    let is_end = matches!(event.span_edge(), Some(SpanEdge::Close(_)));
    match (is_end, fields.opt_u64("dur_ns")?) {
        (true, None) => Err(format!("'{kind}' requires integer dur_ns")),
        (false, Some(_)) => Err(format!("'{kind}' must not carry dur_ns")),
        (_, dur_ns) => Ok(DecodedLine {
            seq,
            t_ns,
            dur_ns,
            event,
        }),
    }
}

/// A [`TraceSink`] that writes one JSON object per record to any
/// [`Write`] target.
pub struct JsonlTraceSink<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl<W: Write> JsonlTraceSink<W> {
    /// Wrap a writer.
    pub fn new(out: W) -> Self {
        JsonlTraceSink { out, error: None }
    }

    /// The wrapped writer (e.g. to inspect an in-memory buffer in tests).
    pub fn get_ref(&self) -> &W {
        &self.out
    }

    /// Unwrap, discarding any stored error.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl JsonlTraceSink<BufWriter<std::fs::File>> {
    /// A sink writing to a (created/truncated) file, buffered.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlTraceSink::new(BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write> TraceSink for JsonlTraceSink<W> {
    fn record(&mut self, record: &Record<'_>) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.out, "{}", Line(record)) {
            self.error = Some(e);
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Counter, Stage};

    fn record(event: &Event) -> String {
        render_line(&Record {
            seq: 7,
            t_ns: 1234,
            dur_ns: None,
            event,
        })
    }

    #[test]
    fn header_fields_come_first_in_stable_order() {
        let line = record(&Event::Message { text: "hi".into() });
        assert_eq!(
            line,
            "{\"v\":1,\"seq\":7,\"t_ns\":1234,\"kind\":\"message\",\"text\":\"hi\"}"
        );
    }

    #[test]
    fn span_end_carries_duration() {
        let line = render_line(&Record {
            seq: 2,
            t_ns: 500,
            dur_ns: Some(400),
            event: &Event::StageEnd {
                iter: 1,
                stage: Stage::Generate,
            },
        });
        assert_eq!(
            line,
            "{\"v\":1,\"seq\":2,\"t_ns\":500,\"kind\":\"stage_end\",\"dur_ns\":400,\"iter\":1,\"stage\":\"generate\"}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let line = record(&Event::Message {
            text: "a\"b\\c\nd\u{1}".into(),
        });
        assert!(line.contains("a\\\"b\\\\c\\nd\\u0001"));
    }

    #[test]
    fn usage_renders_exact_integers() {
        let line = record(&Event::Usage {
            model: "gpt-4-0613".into(),
            prompt_tokens: 10,
            completion_tokens: 3,
            cost_nanousd: 480_000_u128,
        });
        assert!(line.ends_with(
            "\"model\":\"gpt-4-0613\",\"prompt_tokens\":10,\"completion_tokens\":3,\"cost_nanousd\":480000}"
        ));
    }

    #[test]
    fn write_errors_are_stored_not_panicked() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("boom"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlTraceSink::new(Broken);
        sink.record(&Record {
            seq: 0,
            t_ns: 0,
            dur_ns: None,
            event: &Event::Counter {
                counter: Counter::Retry,
                delta: 1,
            },
        });
        assert!(sink.finish().is_err());
    }

    #[test]
    fn sink_writes_one_line_per_record() {
        let mut sink = JsonlTraceSink::new(Vec::new());
        for seq in 0..3u64 {
            sink.record(&Record {
                seq,
                t_ns: seq * 10,
                dur_ns: None,
                event: &Event::Counter {
                    counter: Counter::CacheMiss,
                    delta: 1,
                },
            });
        }
        assert!(sink.finish().is_ok());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.starts_with("{\"v\":1,")));
    }
}

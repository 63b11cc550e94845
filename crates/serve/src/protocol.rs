//! The line-delimited JSON wire protocol.
//!
//! Every request is one flat JSON object on one line; the daemon answers
//! with one line per request — except `status` without a `job` field,
//! which answers a header line (`"jobs":N`) followed by exactly `N` job
//! lines. The dialect is the trace-schema subset read by
//! [`datasculpt_obs::schema::Fields`]: strings, unsigned integers,
//! and booleans. There are no floats on the wire — the dataset scale
//! factor travels as a *string* (`"scale":"0.25"`) and is converted to
//! `f64` bits at the boundary.
//!
//! Requests:
//!
//! ```text
//! {"op":"submit","tenant":"acme","dataset":"youtube","budget_nanousd":5000000}
//! {"op":"status"}            {"op":"status","job":3}
//! {"op":"cancel","job":3}    {"op":"drain"}          {"op":"ping"}
//! ```
//!
//! Optional submit fields (with defaults): `config` (`base`), `model`
//! (`gpt-3.5`), `seed` (`1`), `queries` (`8`), `scale` (`"1"`),
//! `budget_nanousd` (`0` — ride the tenant's existing budget). A default
//! applies only to an absent field; a present field of the wrong type is
//! an error.

use crate::job::JobStatus;
use crate::service::{JobRequest, RoundReport};
use datasculpt_obs::jsonl::escape_json;
use datasculpt_obs::schema::Fields;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job (and top up the tenant budget).
    Submit(JobRequest),
    /// Report one job (`Some`) or all jobs (`None`).
    Status {
        /// Job id to report, or `None` for the full table.
        job: Option<u64>,
    },
    /// Cancel a job.
    Cancel {
        /// Job id to cancel.
        job: u64,
    },
    /// Finish all runnable work, then shut the daemon down.
    Drain,
    /// Liveness probe.
    Ping,
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let f = Fields::parse(line)?;
    match f.str("op")? {
        "submit" => {
            let scale_text = f
                .opt_str("scale")
                .map_err(|_| "field 'scale' must be a string like \"0.25\"")?
                .unwrap_or("1");
            let scale: f64 = scale_text
                .parse()
                .map_err(|_| format!("unparseable scale '{scale_text}'"))?;
            Ok(Request::Submit(JobRequest {
                tenant: f.str("tenant")?.to_string(),
                dataset: f.str("dataset")?.to_string(),
                config: f.opt_str("config")?.unwrap_or("base").to_string(),
                model: f.opt_str("model")?.unwrap_or("gpt-3.5").to_string(),
                seed: f.opt_u64("seed")?.unwrap_or(1),
                scale_bits: scale.to_bits(),
                queries: f.opt_u64("queries")?.unwrap_or(8),
                budget_nanousd: f.opt_uint("budget_nanousd")?.unwrap_or(0),
            }))
        }
        "status" => Ok(Request::Status {
            job: f.opt_u64("job")?,
        }),
        "cancel" => Ok(Request::Cancel {
            job: f.opt_u64("job")?.ok_or("cancel requires a 'job' field")?,
        }),
        "drain" => Ok(Request::Drain),
        "ping" => Ok(Request::Ping),
        other => Err(format!("unknown op '{other}'")),
    }
}

/// `{"ok":false,"error":…}` — any request that could not be served.
pub fn render_error(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", escape_json(message))
}

/// Ack for a submit: the assigned job id and its queued state.
pub fn render_submitted(status: &JobStatus) -> String {
    format!(
        "{{\"ok\":true,\"job\":{},\"state\":\"{}\"}}",
        status.spec.id, status.state
    )
}

/// Header line for a full status listing (`count` job lines follow).
pub fn render_status_header(count: usize) -> String {
    format!("{{\"ok\":true,\"jobs\":{count}}}")
}

/// One job's status line (also the single-job status response).
pub fn render_job(status: &JobStatus) -> String {
    format!(
        concat!(
            "{{\"ok\":true,\"job\":{},\"tenant\":\"{}\",\"dataset\":\"{}\",",
            "\"state\":\"{}\",\"cost_nanousd\":{},\"iterations\":{},",
            "\"digest\":\"{:016x}\",\"message\":\"{}\"}}"
        ),
        status.spec.id,
        escape_json(&status.spec.tenant),
        escape_json(&status.spec.dataset),
        status.state,
        status.cost_nanousd,
        status.iterations,
        status.digest,
        escape_json(&status.message),
    )
}

/// Ack for a drain: the merged round report.
pub fn render_drained(report: &RoundReport) -> String {
    format!(
        concat!(
            "{{\"ok\":true,\"drained\":true,\"admitted\":{},\"rejected\":{},",
            "\"completed\":{},\"paused\":{},\"cancelled\":{},\"failed\":{}}}"
        ),
        report.admitted,
        report.rejected,
        report.completed,
        report.paused,
        report.cancelled,
        report.failed,
    )
}

/// Ack for a ping.
pub fn render_pong() -> String {
    "{\"ok\":true,\"pong\":true}".into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, JobState};

    #[test]
    fn submit_parses_with_defaults_and_string_scale() {
        let req = parse_request(
            "{\"op\":\"submit\",\"tenant\":\"acme\",\"dataset\":\"youtube\",\
             \"scale\":\"0.25\",\"budget_nanousd\":5000000}",
        )
        .expect("parse");
        let Request::Submit(job) = req else {
            panic!("not a submit");
        };
        assert_eq!(job.tenant, "acme");
        assert_eq!(job.config, "base");
        assert_eq!(job.model, "gpt-3.5");
        assert_eq!(job.seed, 1);
        assert_eq!(job.queries, 8);
        assert_eq!(job.scale_bits, 0.25f64.to_bits());
        assert_eq!(job.budget_nanousd, 5_000_000);
    }

    #[test]
    fn the_other_ops_round_trip() {
        assert_eq!(
            parse_request("{\"op\":\"status\"}").expect("status"),
            Request::Status { job: None }
        );
        assert_eq!(
            parse_request("{\"op\":\"status\",\"job\":3}").expect("status"),
            Request::Status { job: Some(3) }
        );
        assert_eq!(
            parse_request("{\"op\":\"cancel\",\"job\":3}").expect("cancel"),
            Request::Cancel { job: 3 }
        );
        assert_eq!(
            parse_request("{\"op\":\"drain\"}").expect("drain"),
            Request::Drain
        );
        assert_eq!(
            parse_request("{\"op\":\"ping\"}").expect("ping"),
            Request::Ping
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        assert!(parse_request("{\"op\":\"warp\"}")
            .unwrap_err()
            .contains("unknown op"));
        assert!(parse_request("{\"op\":\"cancel\"}")
            .unwrap_err()
            .contains("job"));
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"submit\",\"dataset\":\"youtube\"}")
            .unwrap_err()
            .contains("tenant"));
        // Floats must travel as strings.
        assert!(parse_request(
            "{\"op\":\"submit\",\"tenant\":\"a\",\"dataset\":\"youtube\",\"scale\":0.5}"
        )
        .is_err());
    }

    #[test]
    fn a_wrong_typed_optional_field_is_an_error_not_its_default() {
        let base = "{\"op\":\"submit\",\"tenant\":\"t\",\"dataset\":\"youtube\"";
        for (field, value) in [
            ("config", "5"),
            ("model", "true"),
            ("seed", "\"1\""),
            ("queries", "false"),
            ("budget_nanousd", "\"9\""),
        ] {
            let line = format!("{base},\"{field}\":{value}}}");
            let err = parse_request(&line).expect_err(&line);
            assert!(err.contains(field), "{line}: {err}");
        }
        let both = format!("{base},\"config\":5,\"model\":true}}");
        assert!(parse_request(&both).is_err(), "{both}");
    }

    #[test]
    fn responses_are_single_flat_json_lines() {
        let status = JobStatus {
            spec: JobSpec {
                id: 7,
                tenant: "a\"b".into(),
                dataset: "youtube".into(),
                config: "base".into(),
                model: "gpt-3.5".into(),
                seed: 1,
                scale_bits: 1.0f64.to_bits(),
                queries: 8,
            },
            state: JobState::Completed,
            cost_nanousd: 123,
            iterations: 8,
            digest: 0xabcd,
            message: String::new(),
        };
        let line = render_job(&status);
        assert!(line.contains("\"digest\":\"000000000000abcd\""), "{line}");
        assert!(line.contains("a\\\"b"), "tenant escaped: {line}");
        assert!(!line.contains('\n'));
        // Every response parses back in the same dialect.
        for rendered in [
            line,
            render_error("no"),
            render_submitted(&status),
            render_status_header(3),
            render_drained(&RoundReport::default()),
            render_pong(),
        ] {
            Fields::parse(&rendered).expect("self-parse");
        }
    }
}

//! Newline-delimited JSON wire protocol.
//!
//! One request per line, one JSON object per request, in the same
//! hand-rolled codec style as `rmt3d_sweep::codec`: the daemon and the
//! client share [`parse_request`] / the response builders, so the two
//! sides cannot drift. Responses are also single JSON lines; the only
//! multi-line exchange is `watch`, which streams one event object per
//! line until a terminal `"event":"job_done"` line.
//!
//! Robustness contract (mirrored by the daemon tests): a truncated,
//! ill-typed, or oversized request line yields a structured
//! `{"ok":false,"error":…}` response — never a panic, never a dropped
//! daemon. Requests are bounded by [`MAX_REQUEST_LINE`]; responses are
//! unbounded (a `result` response carries whole cached results).

use rmt3d_telemetry::json::{parse, write_json_string, JsonValue};
use std::io::{self, BufRead};

/// Upper bound on one request line in bytes. Anything longer is
/// discarded up to the next newline and answered with a structured
/// error, so one hostile client cannot balloon daemon memory.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe; answered with `{"ok":true}`.
    Ping,
    /// Enqueue a job. `spec` is the kind-specific payload object.
    Submit {
        /// `"sweep"` or `"campaign"`.
        kind: String,
        /// Kind-specific spec object (validated by the payload parser).
        spec: JsonValue,
        /// Larger runs earlier; ties run in submission order.
        priority: u64,
    },
    /// List every job the queue knows (one response line).
    Jobs,
    /// Cancel a queued or in-flight job.
    Cancel {
        /// Job id from a `submit` response.
        job: String,
    },
    /// Stream a job's progress events until it reaches a terminal state.
    Watch {
        /// Job id from a `submit` response.
        job: String,
    },
    /// Fetch a finished sweep's cached results (or a campaign report).
    Result {
        /// Job id from a `submit` response.
        job: String,
    },
    /// Queue and cache counters.
    Stats,
    /// Stop accepting work, drain the in-flight job, persist the rest.
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, a missing or
/// unknown `op`, or ill-typed fields; the daemon wraps it in a
/// `{"ok":false,"error":…}` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse(line.trim()).map_err(|e| format!("malformed request: {e}"))?;
    let op = v
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or("missing or non-string \"op\"")?;
    let job = |v: &JsonValue| -> Result<String, String> {
        v.get("job")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| "missing or non-string \"job\"".to_string())
    };
    match op {
        "ping" => Ok(Request::Ping),
        "jobs" => Ok(Request::Jobs),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "cancel" => Ok(Request::Cancel { job: job(&v)? }),
        "watch" => Ok(Request::Watch { job: job(&v)? }),
        "result" => Ok(Request::Result { job: job(&v)? }),
        "submit" => {
            let kind = v
                .get("kind")
                .map(|k| {
                    k.as_str()
                        .map(str::to_string)
                        .ok_or("non-string \"kind\"".to_string())
                })
                .unwrap_or_else(|| Ok("sweep".to_string()))?;
            if kind != "sweep" && kind != "campaign" {
                return Err(format!("unknown job kind {kind:?}"));
            }
            let spec = match v.get("spec") {
                None => JsonValue::Obj(Default::default()),
                Some(s @ JsonValue::Obj(_)) => s.clone(),
                Some(_) => return Err("\"spec\" must be an object".to_string()),
            };
            let priority = match v.get("priority") {
                None => 0,
                Some(p) => p
                    .as_u64()
                    .ok_or("\"priority\" must be a non-negative integer")?,
            };
            Ok(Request::Submit {
                kind,
                spec,
                priority,
            })
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// One request line read from a client.
#[derive(Debug)]
pub enum RequestLine {
    /// A complete line within [`MAX_REQUEST_LINE`].
    Text(String),
    /// The line exceeded the bound; its bytes were discarded up to the
    /// next newline so the connection can keep serving requests.
    Oversized,
}

/// Reads one newline-terminated request with a hard size bound.
/// Returns `Ok(None)` on a clean EOF before any bytes.
///
/// # Errors
///
/// Propagates the underlying socket read error.
pub fn read_request_line(r: &mut impl BufRead, max: usize) -> io::Result<Option<RequestLine>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            // EOF. A final unterminated line still counts as a request.
            return Ok(match (buf.is_empty(), overflow) {
                (true, false) => None,
                (_, true) => Some(RequestLine::Oversized),
                (false, false) => Some(RequestLine::Text(line_text(buf))),
            });
        }
        if let Some(i) = chunk.iter().position(|&b| b == b'\n') {
            if !overflow {
                buf.extend_from_slice(&chunk[..i]);
            }
            r.consume(i + 1);
            return Ok(Some(if overflow || buf.len() > max {
                RequestLine::Oversized
            } else {
                RequestLine::Text(line_text(buf))
            }));
        }
        if !overflow {
            buf.extend_from_slice(chunk);
            if buf.len() > max {
                overflow = true;
                buf = Vec::new();
            }
        }
        let n = chunk.len();
        r.consume(n);
    }
}

fn line_text(mut buf: Vec<u8>) -> String {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8_lossy(&buf).into_owned()
}

/// Renders a structured error response line (no trailing newline).
pub fn error_line(msg: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"error\":");
    write_json_string(&mut out, msg);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn requests_parse_and_reject() {
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#).unwrap(),
            Request::Ping
        ));
        match parse_request(
            r#"{"op":"submit","kind":"sweep","priority":3,"spec":{"models":["2d-a"]}}"#,
        )
        .unwrap()
        {
            Request::Submit { kind, priority, .. } => {
                assert_eq!(kind, "sweep");
                assert_eq!(priority, 3);
            }
            other => panic!("wrong request: {other:?}"),
        }
        for bad in [
            "",
            "not json",
            r#"{"no":"op"}"#,
            r#"{"op":42}"#,
            r#"{"op":"teleport"}"#,
            r#"{"op":"cancel"}"#,
            r#"{"op":"watch","job":7}"#,
            r#"{"op":"submit","kind":"bogus"}"#,
            r#"{"op":"submit","spec":[1,2]}"#,
            r#"{"op":"submit","priority":-1}"#,
            r#"{"op":"submit","priority":"high"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn bounded_reader_survives_oversized_lines() {
        let long = "x".repeat(100);
        let input = format!("short\n{long}\nafter\n");
        let mut r = BufReader::with_capacity(8, input.as_bytes());
        assert!(matches!(
            read_request_line(&mut r, 32).unwrap(),
            Some(RequestLine::Text(s)) if s == "short"
        ));
        assert!(matches!(
            read_request_line(&mut r, 32).unwrap(),
            Some(RequestLine::Oversized)
        ));
        // The connection resynchronizes at the next newline.
        assert!(matches!(
            read_request_line(&mut r, 32).unwrap(),
            Some(RequestLine::Text(s)) if s == "after"
        ));
        assert!(read_request_line(&mut r, 32).unwrap().is_none());
    }

    #[test]
    fn error_lines_escape_payload() {
        let line = error_line("bad \"quote\"\nnewline");
        let v = rmt3d_telemetry::json::parse(&line).expect("error line parses");
        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
        assert_eq!(
            v.get("error").and_then(|e| e.as_str()),
            Some("bad \"quote\"\nnewline")
        );
    }
}

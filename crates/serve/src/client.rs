//! Thin client for the daemon's wire protocol.
//!
//! One-shot operations ([`request`]) open a connection, send one
//! request line, read one response line, and close. [`watch`] keeps
//! the connection open and yields each event line, as received and
//! parsed, until the server ends the stream. Both ends share the
//! protocol helpers in [`crate::proto`], so the client cannot emit a
//! line the daemon would reject on framing grounds.

use rmt3d_telemetry::json::{json_str, parse, JsonValue};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::ops::Deref;

/// Default listen address of `rmt3d serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7733";

fn connect(addr: &str) -> Result<TcpStream, String> {
    TcpStream::connect(addr).map_err(|e| format!("cannot connect to rmt3d serve at {addr}: {e}"))
}

fn send_line(stream: &mut TcpStream, line: &str) -> Result<(), String> {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| format!("cannot send request: {e}"))
}

/// Sends one request line and returns the raw response line.
///
/// # Errors
///
/// Returns a message when the connection, the send, or the read fails,
/// or when the server closes without answering.
pub fn request_raw(addr: &str, line: &str) -> Result<String, String> {
    let mut stream = connect(addr)?;
    send_line(&mut stream, line)?;
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader
        .read_line(&mut resp)
        .map_err(|e| format!("cannot read response: {e}"))?;
    if resp.is_empty() {
        return Err("server closed the connection without answering".to_string());
    }
    Ok(resp.trim_end().to_string())
}

/// Sends one request line and returns the parsed response object.
///
/// # Errors
///
/// As [`request_raw`], plus a malformed response, plus the server's
/// own `error` message when it answers `{"ok":false,…}`.
pub fn request(addr: &str, line: &str) -> Result<JsonValue, String> {
    let raw = request_raw(addr, line)?;
    let v = parse(&raw).map_err(|e| format!("malformed server response: {e}"))?;
    match v.get("ok").and_then(JsonValue::as_bool) {
        Some(true) => Ok(v),
        _ => Err(v
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap_or("server reported an error")
            .to_string()),
    }
}

/// Builds a `submit` request line. `spec_json` must already be a JSON
/// object (the daemon validates it against the job kind).
pub fn submit_line(kind: &str, spec_json: &str, priority: u64) -> String {
    format!(
        "{{\"op\":\"submit\",\"kind\":{},\"priority\":{priority},\"spec\":{}}}",
        json_str(kind),
        if spec_json.trim().is_empty() {
            "{}"
        } else {
            spec_json.trim()
        }
    )
}

/// Builds a request line for a job-addressed op (`cancel`, `watch`,
/// `result`).
pub fn job_line(op: &str, job: &str) -> String {
    format!("{{\"op\":{},\"job\":{}}}", json_str(op), json_str(job))
}

/// One `watch` event: the line exactly as the daemon sent it, and its
/// parse. Derefs to the parsed object, so field lookups read as on a
/// [`JsonValue`].
#[derive(Debug)]
pub struct WatchEvent {
    /// The received line, without its line terminator.
    pub line: String,
    /// `line`, parsed.
    pub value: JsonValue,
}

impl Deref for WatchEvent {
    type Target = JsonValue;

    fn deref(&self) -> &JsonValue {
        &self.value
    }
}

/// A live `watch` stream: one event per line.
pub struct WatchStream {
    reader: BufReader<TcpStream>,
}

impl Iterator for WatchStream {
    type Item = Result<WatchEvent, String>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => {
                let line = line.trim_end();
                if line.is_empty() {
                    return self.next();
                }
                Some(
                    parse(line)
                        .map(|value| WatchEvent {
                            line: line.to_string(),
                            value,
                        })
                        .map_err(|e| format!("malformed event line: {e}")),
                )
            }
            Err(e) => Some(Err(format!("watch stream failed: {e}"))),
        }
    }
}

/// Opens a `watch` stream for `job`. The first yielded event is
/// either a `job_state` acknowledgement, a terminal `job_done` line
/// (job already finished), or an `{"ok":false,…}` error object —
/// callers should check for `error`.
///
/// # Errors
///
/// Returns a message when the connection or the send fails.
pub fn watch(addr: &str, job: &str) -> Result<WatchStream, String> {
    let mut stream = connect(addr)?;
    send_line(&mut stream, &job_line("watch", job))?;
    Ok(WatchStream {
        reader: BufReader::new(stream),
    })
}

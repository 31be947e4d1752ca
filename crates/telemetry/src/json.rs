//! Minimal JSON writer and parser.
//!
//! The workspace builds fully offline, so there is no serde. This
//! module implements exactly the subset of JSON the telemetry schema
//! needs: flat objects of strings, numbers, and booleans, written one
//! per line (JSON Lines), plus a small recursive-descent parser used by
//! the round-trip tests and by consumers that want to read traces back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number; parsed as f64.
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Keys keep insertion-independent (sorted) order.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as f64 if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as u64 if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as &str if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as bool if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Incremental writer for one flat JSON object.
///
/// ```
/// use rmt3d_telemetry::json::JsonObject;
/// let mut o = JsonObject::new();
/// o.str("event", "counter").u64("cycle", 7).f64("value", 0.5);
/// assert_eq!(o.finish(), r#"{"event":"counter","cycle":7,"value":0.5}"#);
/// ```
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) -> &mut Self {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_json_string(&mut self.buf, key);
        self.buf.push(':');
        self
    }

    /// Appends a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        write_json_string(&mut self.buf, value);
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a float field. Non-finite values become `null` (JSON has
    /// no NaN/Infinity).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            if value.fract() == 0.0 && value.abs() < 1e15 {
                // Keep integral floats readable ("3.0" not "3").
                let _ = write!(self.buf, "{value:.1}");
            } else {
                let _ = write!(self.buf, "{value}");
            }
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Appends a field whose value is already-serialized JSON (nested
    /// objects, e.g. a trace event's `args`). The caller guarantees
    /// `json` is valid.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Appends `s` to `buf` as a JSON string literal: quotes, backslashes
/// and every control character escaped. The one JSON string writer of
/// the workspace.
pub fn write_json_string(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// `s` as a JSON string literal, escaped by [`write_json_string`].
pub fn json_str(s: &str) -> String {
    let mut out = String::new();
    write_json_string(&mut out, s);
    out
}

/// Deepest array/object nesting [`parse`] accepts. Nothing the system
/// writes nests more than a few levels; the cap keeps a hostile or
/// corrupt line from overflowing the parser's stack.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Returns an error message with a byte
/// offset on malformed input, trailing garbage, or nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The input, for slicing string runs out without re-validating.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. Both
                    // are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    self.pos = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| start + n);
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builder_escapes() {
        let mut o = JsonObject::new();
        o.str("s", "a\"b\\c\nd").u64("n", 42).bool("t", true);
        let line = o.finish();
        assert_eq!(line, r#"{"s":"a\"b\\c\nd","n":42,"t":true}"#);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\"b\\c\nd");
        assert_eq!(v.get("n").unwrap().as_u64().unwrap(), 42);
        assert!(v.get("t").unwrap().as_bool().unwrap());
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut o = JsonObject::new();
        o.f64("nan", f64::NAN).f64("inf", f64::INFINITY);
        let line = o.finish();
        assert_eq!(line, r#"{"nan":null,"inf":null}"#);
        assert!(parse(&line).is_ok());
    }

    #[test]
    fn integral_floats_keep_decimal_point() {
        let mut o = JsonObject::new();
        o.f64("x", 3.0).f64("y", 0.25);
        assert_eq!(o.finish(), r#"{"x":3.0,"y":0.25}"#);
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2.5,{"b":null}],"c":"hi"}"#).unwrap();
        let arr = match v.get("a").unwrap() {
            JsonValue::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        };
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].get("b"), Some(&JsonValue::Null));
        assert_eq!(v.get("c").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn megabyte_string_parses_and_round_trips() {
        // Multi-byte scalars between escapes, to 1 MiB. A parser that
        // re-validates the rest of the line per character takes tens of
        // seconds here.
        let mut big = String::new();
        while big.len() < 1 << 20 {
            big.push_str("plain ascii é € 😀 \"quote\" back\\slash\n");
        }
        let mut o = JsonObject::new();
        o.str("s", &big);
        let line = o.finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(big.as_str()));
        let mut again = JsonObject::new();
        again.str("s", v.get("s").unwrap().as_str().unwrap());
        assert_eq!(again.finish(), line);
        assert!(parse(&line[..line.len() - 2]).is_err(), "unterminated");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("tru").is_err());
    }

    #[test]
    fn nesting_is_capped_without_exhausting_the_stack() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&format!("{{\"a\":{}}}", nested(MAX_DEPTH))).is_err());
        // 100 000 open brackets on a thread with the default 2 MiB stack
        // (a daemon connection handler's) come back as an error.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| parse(&"[".repeat(100_000)).map(|_| ()))
            .unwrap()
            .join()
            .expect("no stack overflow");
        assert!(deep.unwrap_err().contains("nesting deeper than"));
    }

    #[test]
    fn number_round_trip() {
        for n in [0.0, -1.5, 1e-9, 3.25e12, 0.1] {
            let v = parse(&format!("{n}")).unwrap();
            assert_eq!(v.as_f64(), Some(n));
        }
    }
}

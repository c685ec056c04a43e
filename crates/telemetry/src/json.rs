//! The workspace's one hand-rolled JSON codec.
//!
//! The workspace deliberately has no JSON crate. This module holds the only
//! string escaper ([`push_json_string`]), the only snapshot/report number
//! formatter ([`fmt_num`]) and the only parser ([`parse`]); the trace JSONL
//! writer ([`event_to_json`]) and every crate that writes or reads snapshots,
//! health reports, lint reports or traces go through it. It lives in the emit
//! layer because every observation and tooling crate may depend on that
//! layer, and because trace JSONL is the byte-pinned artifact whose spelling
//! the other formats share.

use crate::event::{Event, FieldValue};
use std::fmt::{self, Write as _};

/// Append `s` to `out` as a JSON string literal (including the quotes).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal (including the quotes), for `format!`-style
/// writers; see [`push_json_string`].
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

/// Format a number for snapshots and reports: Rust's float `Display`, the
/// shortest decimal that round-trips to the same bits, in positional
/// notation. JSON has no Inf/NaN; those formats never produce them, but the
/// writer must still emit valid JSON if a caller does, so they become `0`.
/// (Trace JSONL spells non-finite fields `null`; see [`push_json_value`].)
pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    format!("{v}")
}

/// Append a JSON representation of `v`. Non-finite floats become `null`
/// (JSON has no NaN/Infinity).
pub fn push_json_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        FieldValue::Str(s) => push_json_string(out, s),
    }
}

/// Render one event as a single JSON object (one JSONL line, without the
/// trailing newline).
pub fn event_to_json(event: &Event) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"t_us\":{},\"component\":\"{}\",\"severity\":\"{}\",\"name\":",
        event.time.as_micros(),
        event.component.as_str(),
        event.severity.as_str(),
    );
    push_json_string(&mut out, event.name);
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in event.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, k);
        out.push(':');
        push_json_value(&mut out, v);
    }
    out.push_str("}}");
    out
}

/// Deepest array/object nesting [`parse`] accepts. Every workspace format
/// nests at most four levels; the bound turns hostile input into a
/// [`JsonError`] instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// Numbers without a fraction or exponent that fit in `i64` parse as
/// [`JsonValue::Int`]; everything else numeric parses as [`JsonValue::Float`].
/// Object keys keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64` (non-negative integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (trailing whitespace allowed).
///
/// # Errors
/// Returns a [`JsonError`] with the byte offset of the first invalid input,
/// including the first array or object nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// Parse one value; `depth` counts the arrays/objects enclosing it.
    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(self.err(&format!(
                "arrays/objects nested deeper than {MAX_DEPTH} levels"
            ))),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at the byte we
                    // just consumed (the input is a &str, so it is valid).
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Byte width of the UTF-8 sequence starting with `first`.
fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Component, Severity};
    use simcore::time::SimTime;

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{01}e");
        assert_eq!(out, r#""a\"b\\c\nd\u0001e""#);
        // The one spelling of every character JSON requires escaping.
        let table: [(char, &str); 34] = [
            ('\u{00}', r"\u0000"),
            ('\u{01}', r"\u0001"),
            ('\u{02}', r"\u0002"),
            ('\u{03}', r"\u0003"),
            ('\u{04}', r"\u0004"),
            ('\u{05}', r"\u0005"),
            ('\u{06}', r"\u0006"),
            ('\u{07}', r"\u0007"),
            ('\u{08}', r"\b"),
            ('\u{09}', r"\t"),
            ('\u{0a}', r"\n"),
            ('\u{0b}', r"\u000b"),
            ('\u{0c}', r"\f"),
            ('\u{0d}', r"\r"),
            ('\u{0e}', r"\u000e"),
            ('\u{0f}', r"\u000f"),
            ('\u{10}', r"\u0010"),
            ('\u{11}', r"\u0011"),
            ('\u{12}', r"\u0012"),
            ('\u{13}', r"\u0013"),
            ('\u{14}', r"\u0014"),
            ('\u{15}', r"\u0015"),
            ('\u{16}', r"\u0016"),
            ('\u{17}', r"\u0017"),
            ('\u{18}', r"\u0018"),
            ('\u{19}', r"\u0019"),
            ('\u{1a}', r"\u001a"),
            ('\u{1b}', r"\u001b"),
            ('\u{1c}', r"\u001c"),
            ('\u{1d}', r"\u001d"),
            ('\u{1e}', r"\u001e"),
            ('\u{1f}', r"\u001f"),
            ('"', r#"\""#),
            ('\\', r"\\"),
        ];
        for (c, spelled) in table {
            assert_eq!(
                json_string(&c.to_string()),
                format!("\"{spelled}\""),
                "{c:?}"
            );
        }
        assert_eq!(json_string("\u{20}/\u{7f}é"), "\" /\u{7f}é\"");
    }

    #[test]
    fn escape_round_trips() {
        let s = "quote \" slash \\ newline \n tab \t unicode é";
        assert_eq!(parse(&json_string(s)).unwrap().as_str(), Some(s));
        let controls: String = (0u8..0x20).map(char::from).collect();
        assert_eq!(
            parse(&json_string(&controls)).unwrap().as_str(),
            Some(controls.as_str())
        );
    }

    #[test]
    fn fmt_num_is_compact_and_round_trips() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(0.25), "0.25");
        assert_eq!(fmt_num(f64::NAN), "0");
        assert_eq!(fmt_num(f64::NEG_INFINITY), "0");
        assert_eq!(
            parse(&fmt_num(1234.5678)).unwrap(),
            JsonValue::Float(1234.5678)
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut out = String::new();
        push_json_value(&mut out, &FieldValue::F64(f64::NAN));
        assert_eq!(out, "null");
        out.clear();
        push_json_value(&mut out, &FieldValue::F64(2.5));
        assert_eq!(out, "2.5");
    }

    #[test]
    fn event_renders_as_one_json_object() {
        let e = Event::new(
            SimTime::from_micros(42),
            Component::Soa,
            Severity::Warn,
            "oc_deny",
        )
        .field("server", 7usize)
        .field("reason", "power_budget")
        .field("ok", false);
        assert_eq!(
            event_to_json(&e),
            r#"{"t_us":42,"component":"soa","severity":"warn","name":"oc_deny","fields":{"server":7,"reason":"power_budget","ok":false}}"#
        );
    }

    #[test]
    fn parses_a_telemetry_line() {
        let line = r#"{"t_us":42,"component":"soa","severity":"warn","name":"oc_deny","fields":{"server":7,"reason":"power_budget","ok":false,"x":2.5,"n":null}}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("t_us"), Some(&JsonValue::Int(42)));
        assert_eq!(v.get("component").and_then(JsonValue::as_str), Some("soa"));
        let fields = v.get("fields").unwrap();
        assert_eq!(fields.get("server").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(fields.get("x").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(fields.get("ok"), Some(&JsonValue::Bool(false)));
        assert_eq!(fields.get("n"), Some(&JsonValue::Null));
    }

    #[test]
    fn integers_and_floats_are_distinguished() {
        assert_eq!(parse("7").unwrap(), JsonValue::Int(7));
        assert_eq!(parse("-3").unwrap(), JsonValue::Int(-3));
        assert_eq!(parse("7.0").unwrap(), JsonValue::Float(7.0));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Float(1000.0));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\nd\u0001e\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{01}e\u{e9}"));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(
            parse(r#""\ud83d\u0041""#).is_err(),
            "high surrogate, then 'A'"
        );
        assert!(parse(r#""\ud83dA""#).is_err(), "high surrogate, then 'A'");
    }

    #[test]
    fn arrays_and_nesting() {
        let v = parse(r#"[1, {"a": [true, null]}, "x"]"#).unwrap();
        let JsonValue::Arr(items) = &v else {
            panic!("expected array")
        };
        assert_eq!(items.len(), 3);
        assert_eq!(
            items[1].get("a"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Bool(true),
                JsonValue::Null
            ]))
        );
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("-1.5e2").unwrap(), JsonValue::Float(-150.0));
        assert_eq!(parse("\"a\\nb\"").unwrap().as_str(), Some("a\nb"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x"}], "c": 2}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_f64), Some(2.0));
        let Some(JsonValue::Arr(items)) = v.get("a") else {
            panic!("expected array")
        };
        assert_eq!(items[0], JsonValue::Int(1));
        assert_eq!(items[1].get("b").and_then(JsonValue::as_str), Some("x"));
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("tru").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert_eq!(parse("{\"a\" 1}").unwrap_err().offset, 5);
        assert_eq!(parse("12 34").unwrap_err().offset, 3);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        let err = parse(&"{\"a\":".repeat(100_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH * "{\"a\":".len());
        // The limit itself is reachable.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn non_ascii_outside_escapes_survives() {
        let v = parse("\"caf\u{e9} \u{1F600}\"").unwrap();
        assert_eq!(v.as_str(), Some("caf\u{e9} \u{1F600}"));
    }
}

//! A minimal hand-rolled JSON value, serialiser and parser.
//!
//! The workspace builds without crates.io access, so the benchmark
//! reports (`lncl_bench::timing::BenchReport`) and the `lncl-serve` request
//! bodies cannot use serde.  This module implements exactly the JSON subset
//! they need: objects, arrays, strings, finite numbers, booleans and null,
//! with the standard string escapes.
//!
//! Numbers are stored as `f64` and rendered with Rust's shortest-roundtrip
//! formatting, so a serialise → parse cycle reproduces every value exactly.
//!
//! The parser is recursive, so nesting is capped at [`MAX_DEPTH`]: deeper
//! input is an `Err`, not a stack overflow (request bodies are untrusted).

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts.  The checked-in
/// reports nest at most 4 deep; the cap only exists to turn hostile input
/// like a body of `[[[[…` into an error before it exhausts the stack.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` for other variants or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_to(&mut out);
        out
    }

    /// Appends exactly the bytes of [`Json::render`] to `out`, so a caller
    /// that keeps one buffer (say, one per connection) renders into it
    /// without a temporary `String`.
    pub fn render_to(&self, out: &mut String) {
        self.render_into(out, 0);
        out.push('\n');
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                assert!(n.is_finite(), "Json::render: non-finite number {n}");
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.render_into(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in members.iter().enumerate() {
                    pad(out, indent + 1);
                    render_string(key, out);
                    out.push_str(": ");
                    value.render_into(out, indent + 1);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (one value plus optional trailing whitespace).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut parser = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing garbage at byte {}", parser.pos));
        }
        Ok(value)
    }
}

/// Two spaces per nesting level, written in place.
fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    /// The input, valid UTF-8 by construction.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Runs a container parser one nesting level down, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
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
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "invalid \\u escape".to_string())?,
                                16,
                            )
                            .map_err(|_| "invalid \\u escape".to_string())?;
                            out.push(char::from_u32(code).ok_or_else(|| "invalid \\u code point".to_string())?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy the run up to the next quote or backslash as one
                    // slice: both are ASCII, so the run ends on a character
                    // boundary of the (already valid) input
                    let rest = &self.bytes[self.pos..];
                    let run = rest.iter().position(|&c| c == b'"' || c == b'\\').unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("bench \"x\"\n".into())),
            ("count".into(), Json::Num(3.0)),
            ("mean".into(), Json::Num(1.25e-6)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            ("cases".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5)])),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("round trip");
        assert_eq!(back, doc);
    }

    #[test]
    fn render_to_appends_the_rendered_bytes() {
        let doc = Json::Obj(vec![
            ("rows".into(), Json::Arr(vec![Json::Obj(vec![("k".into(), Json::Arr(vec![Json::Num(0.5)]))])])),
            ("none".into(), Json::Null),
        ]);
        let expected =
            "{\n  \"rows\": [\n    {\n      \"k\": [\n        0.5\n      ]\n    }\n  ],\n  \"none\": null\n}\n";
        assert_eq!(doc.render(), expected);
        let mut out = String::from("head:");
        doc.render_to(&mut out);
        assert_eq!(out, format!("head:{expected}"));
    }

    #[test]
    fn shortest_roundtrip_numbers_survive() {
        for v in [0.1f64, 1e-9, 123456.789, f64::MIN_POSITIVE, 2.0_f64.powi(53)] {
            let text = Json::Num(v).render();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(v), "{v}");
        }
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse(r#"{"a": {"b": [1, "two"]}}"#).unwrap();
        let arr = doc.get("a").and_then(|a| a.get("b")).and_then(|b| b.as_array()).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_str(), Some("two"));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "nul", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // mixed containers count alike
        let mixed = format!("{}1{}", r#"{"a":["#.repeat(MAX_DEPTH / 2 + 1), "]}".repeat(MAX_DEPTH / 2 + 1));
        assert!(Json::parse(&mixed).is_err());
        // far past the cap (unterminated, as in a hostile request body)
        // errors instead of overflowing the stack
        assert!(Json::parse(&"[".repeat(500_000)).is_err());
    }

    #[test]
    fn parses_string_escapes() {
        let doc = Json::parse(r#""a\tbA\n""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\tbA\n"));
    }

    #[test]
    fn a_4_mib_string_round_trips() {
        // multi-byte characters (2, 3 and 4 bytes) between escapes; a
        // parser quadratic in the string length takes minutes here
        let unit = "ascii é€𝄞 \"quoted\" back\\slash\n";
        let text = unit.repeat((4 << 20) / unit.len() + 1);
        assert!(text.len() >= 4 << 20);
        let doc = Json::Str(text.clone());
        assert_eq!(Json::parse(&doc.render()).unwrap().as_str(), Some(text.as_str()));
    }
}

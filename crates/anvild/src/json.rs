//! A minimal JSON value type with a parser and compact serializer.
//!
//! The workspace is offline (no serde), and the anvild wire protocol
//! only needs newline-delimited compact JSON, so this is a small
//! recursive-descent implementation of RFC 8259: all escape forms
//! (including `\uXXXX` with surrogate pairs), numbers as `f64` with
//! integral values serialized without a fractional part, and objects
//! kept in a `BTreeMap` so serialization is deterministic.
//!
//! Strings are scanned in linear time: each run of bytes up to the
//! next `"`, `\` or control byte is copied with one slice push (every
//! run ends at an ASCII byte, so it is whole UTF-8 of the `&str`
//! input), and unescaped control characters are rejected. Arrays and
//! objects may nest at most [`MAX_DEPTH`] levels; the parser recurses
//! once per level, so a deeper document is a [`JsonError`] rather than
//! a stack overflow.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use anvil_syntax::json_escape_into;

/// How deep arrays and objects may nest in a parsed document. The
/// parser recurses once per level, so this bounds its stack use well
/// below what a 2 MiB thread stack holds.
const MAX_DEPTH: usize = 512;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integral values round-trip exactly up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, ordered by key for deterministic serialization.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value.
    pub fn int(n: i64) -> Json {
        Json::Num(n as f64)
    }

    /// Member lookup on objects; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an integer, if integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= i64::MAX as f64 => Some(*n as i64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input,
    /// including arrays and objects nested more than 512 levels deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }

    /// Appends the compact single-line serialization (no added
    /// whitespace, the framing anvild's newline-delimited transport
    /// requires) to `out`: strings and keys are escaped straight into it,
    /// so a whole frame is built in one buffer.
    pub fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null") // JSON has no NaN/Inf
                } else if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => json_escape_into(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json_escape_into(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    /// The serialization of [`Json::write_into`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_into(&mut out);
        f.write_str(&out)
    }
}

/// A JSON parse failure with the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What was malformed.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs `parse` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one push: it ends at an ASCII byte, so it is whole
            // UTF-8.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
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
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a \uXXXX low half must
                                // follow immediately.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn roundtrip(text: &str) -> String {
        Json::parse(text).unwrap().to_string()
    }

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("true"), "true");
        assert_eq!(roundtrip("false"), "false");
        assert_eq!(roundtrip("42"), "42");
        assert_eq!(roundtrip("-7"), "-7");
        assert_eq!(roundtrip("2.5"), "2.5");
        assert_eq!(roundtrip("1e3"), "1000");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn containers_roundtrip_deterministically() {
        assert_eq!(roundtrip("[1, 2, [3]]"), "[1,2,[3]]");
        assert_eq!(roundtrip("{}"), "{}");
        // Keys sort, so serialization is order-independent.
        assert_eq!(roundtrip("{\"b\":1,\"a\":2}"), "{\"a\":2,\"b\":1}");
        assert_eq!(
            roundtrip("{\"x\": {\"y\": [true, null]}}"),
            "{\"x\":{\"y\":[true,null]}}"
        );
    }

    #[test]
    fn string_escapes_parse() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\ndAé""#).unwrap(),
            Json::Str("a\"b\\c\ndAé".to_string())
        );
        // Escaped surrogate pair decodes to U+1F600, and literal
        // non-ASCII passes through.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        assert_eq!(
            Json::parse("\"\u{1F600}\"").unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
    }

    #[test]
    fn malformed_input_reports_offset() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"open",
            "tru",
            "{\"a\" 1}",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        let err = Json::parse("[1, @]").unwrap_err();
        assert_eq!(err.offset, 4);
        let err = Json::parse("\"ab\u{1f}\"").unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("unescaped control character", 3)
        );
    }

    #[test]
    fn nesting_deeper_than_max_depth_is_an_error() {
        let nest =
            |open: &str, close: &str, n: usize| format!("{}1{}", open.repeat(n), close.repeat(n));
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            assert!(Json::parse(&nest(open, close, MAX_DEPTH)).is_ok());
            let err = Json::parse(&nest(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(err.offset, MAX_DEPTH * open.len(), "{err}");
        }
        // Depth counts arrays and objects together.
        let mixed = nest("[{\"k\":", "}]", MAX_DEPTH / 2 + 1);
        assert!(Json::parse(&mixed).is_err());
    }

    /// Serializations pinned byte for byte: the wire format clients see.
    #[test]
    fn serializer_matches_golden_bytes() {
        let golden = [
            (Json::str("plain"), r#""plain""#),
            (
                Json::str("q\"b\\s/ n\n r\r t\t b\u{8} f\u{c}"),
                r#""q\"b\\s/ n\n r\r t\t b\b f\f""#,
            ),
            (
                Json::str("\u{0}\u{1}\u{1f}\u{7f}"),
                "\"\\u0000\\u0001\\u001f\u{7f}\"",
            ),
            (Json::str("é→\u{1F600}"), "\"é→\u{1F600}\""),
            (
                Json::obj([
                    (
                        "k\"ey",
                        Json::Arr(vec![
                            Json::Null,
                            Json::Bool(true),
                            Json::Num(-0.5),
                            Json::int(1 << 53),
                            Json::Num(f64::NAN),
                        ]),
                    ),
                    ("a", Json::obj([])),
                ]),
                r#"{"a":{},"k\"ey":[null,true,-0.5,9007199254740992,null]}"#,
            ),
        ];
        for (value, bytes) in golden {
            assert_eq!(value.to_string(), bytes);
        }
    }

    /// One piece of a generated string: a long plain run, a character
    /// with a short escape, a control character, or multi-byte UTF-8.
    fn piece() -> impl Strategy<Value = String> {
        let scalar =
            |lo: u32, hi: u32| (lo..hi).prop_map(|c| char::from_u32(c).unwrap().to_string());
        prop_oneof![
            prop::collection::vec(0x20u8..0x7f, 0..300)
                .prop_map(|run| String::from_utf8(run).unwrap()),
            (0usize..8)
                .prop_map(|i| ["\"", "\\", "/", "\n", "\r", "\t", "\u{8}", "\u{c}"][i].to_string()),
            scalar(0, 0x20),
            scalar(0x80, 0x800),
            scalar(0x800, 0xd800),
            scalar(0xe000, 0x1_0000),
            scalar(0x1_0000, 0x11_0000),
        ]
    }

    /// `s` as a JSON string literal with every character outside
    /// printable ASCII written as `\uXXXX` (astral ones as surrogate
    /// pairs), and `/` as `\/`.
    fn u_escaped(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' | '\\' => {
                    out.push('\\');
                    out.push(c);
                }
                '/' => out.push_str("\\/"),
                ' '..='~' => out.push(c),
                _ => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
        }
        out.push('"');
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn strings_roundtrip_through_both_escape_forms(
            pieces in prop::collection::vec(piece(), 0..24),
        ) {
            let s = pieces.concat();
            let text = Json::Str(s.clone()).to_string();
            prop_assert_eq!(Json::parse(&text), Ok(Json::Str(s.clone())));
            prop_assert_eq!(Json::parse(&u_escaped(&s)), Ok(Json::Str(s)));
        }
    }

    #[test]
    fn accessors_navigate() {
        let v = Json::parse(r#"{"id": 3, "ok": true, "xs": [1], "s": "t"}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(v.get("missing"), None);
    }
}

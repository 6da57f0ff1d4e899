//! Wire-format diagnostics: location-resolved, JSON-serializable error
//! records for compile services.
//!
//! The in-process diagnostic types ([`crate::ParseError`], the typeck
//! violations, codegen diagnostics) render to human-readable text for a
//! CLI. A long-running compile server instead streams diagnostics to
//! remote clients, which need a *structural* form: message, severity,
//! byte span, and a pre-resolved `line:col` so a thin client never has
//! to re-derive positions from the source. [`WireDiagnostic`] is that
//! form, and [`WireDiagnostic::to_json`] is its stable single-line JSON
//! encoding (hand-rolled — the workspace is offline and carries no
//! serde; [`json_escape_into`] implements RFC 8259 string escaping).

use std::fmt::Write as _;

use crate::ast::Span;
use crate::line_index::LineIndex;

/// How serious a wire diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Compilation cannot proceed (every compiler failure today).
    Error,
    /// Advisory only; reserved for future lint-style diagnostics.
    Warning,
}

impl Severity {
    /// The lowercase wire spelling (`"error"` / `"warning"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One diagnostic in wire form: everything a remote client needs to
/// show the failure, with source positions already resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDiagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description (the same wording the CLI prints).
    pub message: String,
    /// Byte span into the source, when the failure is attributable.
    pub span: Option<Span>,
    /// 1-based line of the span start (0 when there is no span).
    pub line: usize,
    /// 1-based character column of the span start (0 when no span).
    pub col: usize,
}

impl WireDiagnostic {
    /// An error with a location, resolved through a prebuilt index.
    pub fn error_at(message: &str, span: Span, index: &LineIndex<'_>) -> WireDiagnostic {
        let (line, col) = index.span_start(span);
        WireDiagnostic {
            severity: Severity::Error,
            message: message.to_string(),
            span: Some(span),
            line,
            col,
        }
    }

    /// An error with no source location (internal failures,
    /// cancellation, codegen diagnostics without an attributable
    /// definition).
    pub fn error(message: &str) -> WireDiagnostic {
        WireDiagnostic {
            severity: Severity::Error,
            message: message.to_string(),
            span: None,
            line: 0,
            col: 0,
        }
    }

    /// Serializes to one line of JSON, e.g.
    /// `{"severity":"error","message":"...","start":12,"end":20,"line":3,"col":4}`
    /// (the `start`/`end`/`line`/`col` fields are omitted when the
    /// diagnostic carries no span).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.message.len() + 64);
        out.push_str("{\"severity\":\"");
        out.push_str(self.severity.as_str());
        out.push_str("\",\"message\":");
        json_escape_into(&mut out, &self.message);
        if let Some(span) = self.span {
            let _ = write!(
                out,
                ",\"start\":{},\"end\":{},\"line\":{},\"col\":{}",
                span.start, span.end, self.line, self.col
            );
        }
        out.push('}');
        out
    }
}

/// Appends `s` to `out` as a JSON string literal (RFC 8259 §7: quotes,
/// backslashes, and control characters escaped; everything else passed
/// through verbatim as UTF-8). Each run of bytes between escapes is
/// copied with one push; every escaped byte is ASCII, so each run is
/// whole UTF-8 of `s`.
pub fn json_escape_into(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// [`json_escape_into`] returning a fresh string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json_escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-`char` escaper `json_escape_into` replaced: the oracle its
    /// output must equal byte for byte.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::from('"');
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
        out
    }

    #[test]
    fn run_escaper_matches_the_per_char_oracle() {
        let mut cases: Vec<String> = (0u8..0x80)
            .flat_map(|b| {
                let c = char::from(b);
                [
                    c.to_string(),
                    format!("ab{c}"),
                    format!("{c}cd"),
                    format!("a{c}{c}b"),
                ]
            })
            .collect();
        cases.extend(
            [
                "",
                "é→",
                "ünïcödé \"quoted\"\n",
                "日本\t語\u{1}",
                "\u{10FFFF}\\\u{7f}",
            ]
            .map(String::from),
        );
        // Seeded random strings over an alphabet of every escape class,
        // plain ASCII and one-, two- and four-byte non-ASCII characters.
        let alphabet = [
            'a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}',
            '\u{7f}', 'é', '→', '😀',
        ];
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2_000 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let len = (seed % 24) as usize;
            let mut x = seed;
            cases.push(
                (0..len)
                    .map(|_| {
                        x = x.rotate_left(5).wrapping_mul(0x2545_F491_4F6C_DD1D);
                        alphabet[(x >> 60) as usize]
                    })
                    .collect(),
            );
        }
        for s in &cases {
            assert_eq!(json_string(s), escape_per_char(s), "{s:?}");
            let mut appended = String::from("prefix");
            json_escape_into(&mut appended, s);
            assert_eq!(appended, format!("prefix{}", escape_per_char(s)));
        }
    }

    #[test]
    fn escapes_follow_rfc_8259() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("nl\ntab\tcr\r"), "\"nl\\ntab\\tcr\\r\"");
        assert_eq!(json_string("\u{01}"), "\"\\u0001\"");
        // Non-ASCII passes through as UTF-8, not \u escapes.
        assert_eq!(json_string("é→"), "\"é→\"");
    }

    #[test]
    fn located_diagnostic_serializes_all_fields() {
        let src = "ab\ncd efg";
        let index = LineIndex::new(src);
        let d = WireDiagnostic::error_at("bad `efg`", Span::new(6, 9), &index);
        assert_eq!((d.line, d.col), (2, 4));
        assert_eq!(
            d.to_json(),
            "{\"severity\":\"error\",\"message\":\"bad `efg`\",\
             \"start\":6,\"end\":9,\"line\":2,\"col\":4}"
        );
    }

    #[test]
    fn unlocated_diagnostic_omits_position_fields() {
        let d = WireDiagnostic::error("boom");
        assert_eq!(d.to_json(), "{\"severity\":\"error\",\"message\":\"boom\"}");
    }
}

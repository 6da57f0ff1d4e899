//! Tokenizer for the Anvil language.
//!
//! Supports `//` line and `/* */` block comments, sized literals in the
//! SystemVerilog style (`8'hff`, `4'b1010`, `32'd7`), plain decimals, string
//! literals for `dprint`, and the paper's operator set (with `>>` reserved
//! for the wait operator and `>>>` for logical shift right).

use std::fmt;

use crate::ast::{Span, MAX_WIDTH};

/// A lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword-free name.
    Ident(String),
    /// Integer literal with optional explicit width.
    Int {
        /// Value (up to 64 bits at the lexical level).
        value: u64,
        /// Width if the literal was sized (`8'h..`).
        width: Option<usize>,
    },
    /// String literal (for `dprint`).
    Str(String),

    // Keywords.
    /// `chan`
    Chan,
    /// `proc`
    Proc,
    /// `reg`
    Reg,
    /// `spawn`
    Spawn,
    /// `loop`
    Loop,
    /// `recursive`
    Recursive,
    /// `recurse`
    Recurse,
    /// `let`
    Let,
    /// `if`
    If,
    /// `else`
    Else,
    /// `set`
    Set,
    /// `send`
    Send,
    /// `recv`
    Recv,
    /// `cycle`
    Cycle,
    /// `ready`
    Ready,
    /// `dprint`
    Dprint,
    /// `left`
    Left,
    /// `right`
    Right,
    /// `logic`
    Logic,
    /// `extern`
    Extern,
    /// `fn`
    Fn,
    /// `dyn`
    Dyn,
    /// `eternal`
    Eternal,
    /// `concat`
    Concat,

    // Punctuation and operators.
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `@`
    At,
    /// `#`
    Hash,
    /// `-`
    Minus,
    /// `--`
    DashDash,
    /// `->`
    Arrow,
    /// `:=`
    ColonEq,
    /// `>>` (wait)
    WaitOp,
    /// `>>>` (shift right)
    ShrOp,
    /// `<<`
    ShlOp,
    /// `=`
    Equals,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    LessThan,
    /// `<=`
    LessEq,
    /// `>`
    GreaterThan,
    /// `>=`
    GreaterEq,
    /// `+`
    Plus,
    /// `*`
    Star,
    /// `^`
    Caret,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `~`
    Tilde,
    /// `!`
    Bang,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int { value, .. } => write!(f, "literal `{value}`"),
            Tok::Str(s) => write!(f, "string {s:?}"),
            Tok::Eof => write!(f, "end of input"),
            other => write!(f, "`{}`", raw(other)),
        }
    }
}

fn raw(t: &Tok) -> &'static str {
    match t {
        Tok::Chan => "chan",
        Tok::Proc => "proc",
        Tok::Reg => "reg",
        Tok::Spawn => "spawn",
        Tok::Loop => "loop",
        Tok::Recursive => "recursive",
        Tok::Recurse => "recurse",
        Tok::Let => "let",
        Tok::If => "if",
        Tok::Else => "else",
        Tok::Set => "set",
        Tok::Send => "send",
        Tok::Recv => "recv",
        Tok::Cycle => "cycle",
        Tok::Ready => "ready",
        Tok::Dprint => "dprint",
        Tok::Left => "left",
        Tok::Right => "right",
        Tok::Logic => "logic",
        Tok::Extern => "extern",
        Tok::Fn => "fn",
        Tok::Dyn => "dyn",
        Tok::Eternal => "eternal",
        Tok::Concat => "concat",
        Tok::LBrace => "{",
        Tok::RBrace => "}",
        Tok::LParen => "(",
        Tok::RParen => ")",
        Tok::LBracket => "[",
        Tok::RBracket => "]",
        Tok::Comma => ",",
        Tok::Semi => ";",
        Tok::Colon => ":",
        Tok::Dot => ".",
        Tok::At => "@",
        Tok::Hash => "#",
        Tok::Minus => "-",
        Tok::DashDash => "--",
        Tok::Arrow => "->",
        Tok::ColonEq => ":=",
        Tok::WaitOp => ">>",
        Tok::ShrOp => ">>>",
        Tok::ShlOp => "<<",
        Tok::Equals => "=",
        Tok::EqEq => "==",
        Tok::NotEq => "!=",
        Tok::LessThan => "<",
        Tok::LessEq => "<=",
        Tok::GreaterThan => ">",
        Tok::GreaterEq => ">=",
        Tok::Plus => "+",
        Tok::Star => "*",
        Tok::Caret => "^",
        Tok::Amp => "&",
        Tok::Pipe => "|",
        Tok::Tilde => "~",
        Tok::Bang => "!",
        _ => "?",
    }
}

/// A token with its source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// Where it came from.
    pub span: Span,
}

/// A lexical error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Where it occurred.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes Anvil source text.
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated comments/strings, malformed sized
/// literals, or unexpected characters.
pub fn lex(source: &str) -> Result<Vec<SpannedTok>, LexError> {
    let bytes = source.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let n = bytes.len();

    while i < n {
        let c = bytes[i] as char;
        let start = i;
        match c {
            c if c.is_ascii_whitespace() => {
                i += 1;
            }
            '/' if i + 1 < n && bytes[i + 1] == b'/' => {
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == b'*' => {
                i += 2;
                let mut closed = false;
                while i + 1 < n {
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        closed = true;
                        break;
                    }
                    i += 1;
                }
                if !closed {
                    return Err(LexError {
                        message: "unterminated block comment".into(),
                        span: Span::new(start, n),
                    });
                }
            }
            '"' => {
                i += 1;
                let str_start = i;
                while i < n && bytes[i] != b'"' {
                    i += 1;
                }
                if i >= n {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        span: Span::new(start, n),
                    });
                }
                let s = source[str_start..i].to_string();
                i += 1;
                toks.push(SpannedTok {
                    tok: Tok::Str(s),
                    span: Span::new(start, i),
                });
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < n && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                let dec: u64 = source[i..j].parse().map_err(|_| LexError {
                    message: "integer literal too large".into(),
                    span: Span::new(i, j),
                })?;
                if j < n && bytes[j] == b'\'' {
                    // Sized literal: width'base digits
                    let width = dec as usize;
                    j += 1;
                    if j >= n {
                        return Err(LexError {
                            message: "expected base after `'`".into(),
                            span: Span::new(i, j),
                        });
                    }
                    let base = match bytes[j] as char {
                        'h' | 'H' => 16,
                        'd' | 'D' => 10,
                        'b' | 'B' => 2,
                        'o' | 'O' => 8,
                        other => {
                            return Err(LexError {
                                message: format!("unknown literal base `{other}`"),
                                span: Span::new(j, j + 1),
                            })
                        }
                    };
                    j += 1;
                    let digits_start = j;
                    while j < n && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                    {
                        j += 1;
                    }
                    let digits = source[digits_start..j].replace('_', "");
                    let value = u64::from_str_radix(&digits, base).map_err(|_| LexError {
                        message: format!("invalid base-{base} literal"),
                        span: Span::new(digits_start, j),
                    })?;
                    if width == 0 {
                        return Err(LexError {
                            message: "literal width must be positive".into(),
                            span: Span::new(i, j),
                        });
                    }
                    if width > MAX_WIDTH {
                        return Err(LexError {
                            message: format!(
                                "literal width {width} exceeds the maximum of {MAX_WIDTH} bits"
                            ),
                            span: Span::new(i, j),
                        });
                    }
                    toks.push(SpannedTok {
                        tok: Tok::Int {
                            value,
                            width: Some(width),
                        },
                        span: Span::new(i, j),
                    });
                } else {
                    toks.push(SpannedTok {
                        tok: Tok::Int {
                            value: dec,
                            width: None,
                        },
                        span: Span::new(i, j),
                    });
                }
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < n && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                let word = &source[i..j];
                let tok = match word {
                    "chan" => Tok::Chan,
                    "proc" => Tok::Proc,
                    "reg" => Tok::Reg,
                    "spawn" => Tok::Spawn,
                    "loop" => Tok::Loop,
                    "recursive" => Tok::Recursive,
                    "recurse" => Tok::Recurse,
                    "let" => Tok::Let,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "set" => Tok::Set,
                    "send" => Tok::Send,
                    "recv" => Tok::Recv,
                    "cycle" => Tok::Cycle,
                    "ready" => Tok::Ready,
                    "dprint" => Tok::Dprint,
                    "left" => Tok::Left,
                    "right" => Tok::Right,
                    "logic" => Tok::Logic,
                    "extern" => Tok::Extern,
                    "fn" => Tok::Fn,
                    "dyn" => Tok::Dyn,
                    "eternal" => Tok::Eternal,
                    "concat" => Tok::Concat,
                    _ => Tok::Ident(word.to_string()),
                };
                toks.push(SpannedTok {
                    tok,
                    span: Span::new(i, j),
                });
                i = j;
            }
            _ => {
                // Punctuation, longest match first.
                let rest = &source[i..];
                let (tok, len) = if rest.starts_with(">>>") {
                    (Tok::ShrOp, 3)
                } else if rest.starts_with(">>") {
                    (Tok::WaitOp, 2)
                } else if rest.starts_with(">=") {
                    (Tok::GreaterEq, 2)
                } else if rest.starts_with("<<") {
                    (Tok::ShlOp, 2)
                } else if rest.starts_with("<=") {
                    (Tok::LessEq, 2)
                } else if rest.starts_with("==") {
                    (Tok::EqEq, 2)
                } else if rest.starts_with("!=") {
                    (Tok::NotEq, 2)
                } else if rest.starts_with(":=") {
                    (Tok::ColonEq, 2)
                } else if rest.starts_with("--") {
                    (Tok::DashDash, 2)
                } else if rest.starts_with("->") {
                    (Tok::Arrow, 2)
                } else {
                    let single = match c {
                        '{' => Tok::LBrace,
                        '}' => Tok::RBrace,
                        '(' => Tok::LParen,
                        ')' => Tok::RParen,
                        '[' => Tok::LBracket,
                        ']' => Tok::RBracket,
                        ',' => Tok::Comma,
                        ';' => Tok::Semi,
                        ':' => Tok::Colon,
                        '.' => Tok::Dot,
                        '@' => Tok::At,
                        '#' => Tok::Hash,
                        '-' => Tok::Minus,
                        '=' => Tok::Equals,
                        '<' => Tok::LessThan,
                        '>' => Tok::GreaterThan,
                        '+' => Tok::Plus,
                        '*' => Tok::Star,
                        '^' => Tok::Caret,
                        '&' => Tok::Amp,
                        '|' => Tok::Pipe,
                        '~' => Tok::Tilde,
                        '!' => Tok::Bang,
                        _ => {
                            // `c` is only the first byte: name and span
                            // the whole character.
                            let other = rest.chars().next().unwrap_or(c);
                            return Err(LexError {
                                message: format!("unexpected character `{other}`"),
                                span: Span::new(i, i + other.len_utf8()),
                            });
                        }
                    };
                    (single, 1)
                };
                toks.push(SpannedTok {
                    tok,
                    span: Span::new(i, i + len),
                });
                i += len;
            }
        }
    }
    toks.push(SpannedTok {
        tok: Tok::Eof,
        span: Span::new(n, n),
    });
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("proc foo"),
            vec![Tok::Proc, Tok::Ident("foo".into()), Tok::Eof]
        );
    }

    #[test]
    fn sized_literals() {
        assert_eq!(
            kinds("8'hff 4'b1010 32'd7 25"),
            vec![
                Tok::Int {
                    value: 0xff,
                    width: Some(8)
                },
                Tok::Int {
                    value: 0b1010,
                    width: Some(4)
                },
                Tok::Int {
                    value: 7,
                    width: Some(32)
                },
                Tok::Int {
                    value: 25,
                    width: None
                },
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            kinds(">> >>> >= > := : -- - -> == = <= << <"),
            vec![
                Tok::WaitOp,
                Tok::ShrOp,
                Tok::GreaterEq,
                Tok::GreaterThan,
                Tok::ColonEq,
                Tok::Colon,
                Tok::DashDash,
                Tok::Minus,
                Tok::Arrow,
                Tok::EqEq,
                Tok::Equals,
                Tok::LessEq,
                Tok::ShlOp,
                Tok::LessThan,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            kinds("a // line\n b /* block\n still */ c"),
            vec![
                Tok::Ident("a".into()),
                Tok::Ident("b".into()),
                Tok::Ident("c".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn strings() {
        assert_eq!(
            kinds(r#"dprint "Value:""#),
            vec![Tok::Dprint, Tok::Str("Value:".into()), Tok::Eof]
        );
    }

    #[test]
    fn errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("8'q1").is_err());
        assert!(lex("$").is_err());
    }

    #[test]
    fn unexpected_non_ascii_characters_are_named_and_spanned_whole() {
        for (src, ch) in [("a é", "é"), ("x := €", "€"), ("🦀", "🦀")] {
            let err = lex(src).unwrap_err();
            assert_eq!(err.message, format!("unexpected character `{ch}`"));
            assert_eq!(&src[err.span.start..err.span.end], ch);
        }
    }

    #[test]
    fn sized_literal_widths_are_capped() {
        assert_eq!(
            kinds("65536'h1")[0],
            Tok::Int {
                value: 1,
                width: Some(MAX_WIDTH)
            }
        );
        for src in ["65537'h1", "18446744073709551615'd0"] {
            let err = lex(src).unwrap_err();
            assert!(
                err.message.contains("exceeds the maximum"),
                "{src}: {err:?}"
            );
            assert_eq!(err.span, Span::new(0, src.len()));
        }
    }

    #[test]
    fn spans_track_offsets() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[1].span, Span::new(3, 5));
    }
}

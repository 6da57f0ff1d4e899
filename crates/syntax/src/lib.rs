//! Frontend for the Anvil hardware description language.
//!
//! Anvil (ASPLOS 2026) is a timing-safe HDL: processes communicate over
//! bidirectional channels whose message contracts carry *timing* obligations
//! (how long payloads stay valid, when endpoints synchronise). This crate
//! provides the surface syntax: [`lex`]ing, [`parse`]ing into the [`ast`],
//! and pretty-printing back to source.
//!
//! # Examples
//!
//! ```
//! let program = anvil_syntax::parse(
//!     "chan ch { left req : (logic[8]@#2) }
//!      proc top(ep : right ch) {
//!          reg addr : logic[8];
//!          loop { send ep.req (*addr) >> set addr := *addr + 1 }
//!      }",
//! )?;
//! assert_eq!(program.procs[0].name, "top");
//! # Ok::<(), anvil_syntax::ParseError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod fingerprint;
mod lexer;
mod line_index;
mod parser;
mod pretty;
pub mod wire;

pub use ast::*;
pub use fingerprint::{content_fingerprint, ContentHash, StableHasher};
pub use lexer::{lex, LexError, SpannedTok, Tok};
pub use line_index::LineIndex;
pub use parser::{parse, ParseError};
pub use pretty::{pretty_chan, pretty_proc, pretty_program, pretty_term};
pub use wire::{json_escape_into, json_string, Severity, WireDiagnostic};

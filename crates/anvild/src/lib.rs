//! `anvild` — a persistent compile server for Anvil.
//!
//! The batch CLI pays the full parse→check→optimize→lower→emit cost on
//! every invocation because the process — and with it the session's
//! fingerprint-keyed query cache — dies at exit. This crate keeps one
//! [`Session`](anvil_core::Session) alive behind a tiny wire protocol,
//! so an editor, a test harness, or a CI loop gets warm-cache compiles
//! for the price of a socket write.
//!
//! The protocol is JSON-RPC 2.0, one compact JSON document per line, in
//! both directions (see [`proto`]). The server speaks it on stdio or a
//! Unix socket (`examples/anvild.rs`); [`CompileService::handle`] is
//! the transport-independent core, so tests can drive the full method
//! surface without any I/O at all:
//!
//! ```
//! use anvild::{CompileService, Incoming, Json};
//!
//! let service = CompileService::new();
//! let mut notes = Vec::new();
//! let open = Incoming::request(
//!     1,
//!     "open",
//!     Json::obj([
//!         ("uri", Json::str("mem:demo.anvil")),
//!         ("text", Json::str("proc p() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }")),
//!     ]),
//! );
//! service.handle(open, &mut |n| notes.push(n)).unwrap();
//! let compile = Incoming::request(
//!     2,
//!     "compile",
//!     Json::obj([("uri", Json::str("mem:demo.anvil"))]),
//! );
//! let resp = service.handle(compile, &mut |n| notes.push(n)).unwrap();
//! let sv = resp.get("result").and_then(|r| r.get("systemverilog"));
//! assert!(sv.and_then(Json::as_str).unwrap().contains("module"));
//! ```
//!
//! # Methods
//!
//! | method        | kind      | purpose                                        |
//! |---------------|-----------|------------------------------------------------|
//! | `ping`        | request   | liveness + protocol version                    |
//! | `open`        | request   | register a versioned file buffer               |
//! | `update`      | request   | replace a buffer (version must increase)       |
//! | `close`       | request   | drop a buffer                                  |
//! | `compile`     | request   | full pipeline; streams `diagnostics` notes     |
//! | `diagnostics` | request   | check-only; streams `diagnostics` notes        |
//! | `prove`       | request   | k-induction proof of a 1-bit signal            |
//! | `cacheStats`  | request   | shared-cache counters (incl. poisoned shards)  |
//! | `health`      | request   | uptime, gate gauges, robustness counters       |
//! | `cancel`      | request   | raise the stop flag of this connection's id    |
//! | `shutdown`    | request   | stop serving (`mode`: `drain` or `abort`)      |
//!
//! Every request additionally accepts an optional `deadlineMs` param: a
//! monotonic deadline armed at registration (queue wait counts) and,
//! with the request's stop flag, polled by every stage the request runs
//! (compile, check, and every prover engine); expiry answers
//! `DEADLINE_EXCEEDED` (`-32003`), with partial progress in
//! `error.data` when the prover engines had started. Heavy methods (`compile`, `diagnostics`, `prove`) pass
//! a bounded admission gate when served over a socket — beyond the
//! configured concurrency and queue limits they are shed immediately
//! with `OVERLOADED` (`-32004`) plus a `retryAfterMs` hint.
//!
//! A request that panics inside the compiler answers with an
//! `internal error` (`-32603`) and the daemon keeps serving — the
//! session cache recovers any shard the panic poisoned on the next
//! access. See the README's "Compile server" and "Operational
//! robustness" sections for the wire-level walkthrough.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod gate;
mod json;
pub mod proto;
mod server;

pub use gate::{ServiceConfig, ServiceStats};
pub use json::{Json, JsonError};
pub use proto::{
    error_response, notification, parse_incoming, response, Incoming, RpcError, COMPILE_FAILED,
    DEADLINE_EXCEEDED, FILE_NOT_OPEN, INTERNAL_ERROR, INVALID_PARAMS, INVALID_REQUEST,
    METHOD_NOT_FOUND, OVERLOADED, PARSE_ERROR, PROVE_FAILED, REQUEST_CANCELLED,
};
pub use server::{CompileService, MAX_FRAME_BYTES, PROTOCOL_VERSION};

//! JSON-RPC 2.0 framing over newline-delimited JSON.
//!
//! anvild speaks JSON-RPC 2.0 with one compact JSON document per line
//! (both directions; `\n` terminated, no Content-Length headers — the
//! framing a shell, a CI script, or an editor plugin can speak with
//! nothing but a socket). This module parses incoming frames into
//! [`Incoming`] and builds outgoing response/notification frames; the
//! method dispatch itself lives in [`crate::CompileService`].
//!
//! Error codes follow the JSON-RPC spec for the reserved range and LSP
//! precedent for cancellation ([`REQUEST_CANCELLED`] = `-32800`);
//! compile/prove failures use the server-defined `-32000` range with
//! structured diagnostics in `error.data`.

use std::fmt;

use crate::json::Json;

/// Invalid JSON was received (spec-reserved code).
pub const PARSE_ERROR: i64 = -32700;
/// The frame is not a valid JSON-RPC request object.
pub const INVALID_REQUEST: i64 = -32600;
/// The requested method does not exist.
pub const METHOD_NOT_FOUND: i64 = -32601;
/// The params are malformed for the method.
pub const INVALID_PARAMS: i64 = -32602;
/// The server panicked or hit an unexpected failure while handling the
/// request (the request dies; the daemon does not).
pub const INTERNAL_ERROR: i64 = -32603;
/// Compilation failed; `error.data.diagnostics` carries the wire
/// diagnostics and `error.data.rendered` the CLI-style rendering.
pub const COMPILE_FAILED: i64 = -32000;
/// Proving failed (engine error, unknown signal resolution happens
/// earlier as [`INVALID_PARAMS`]).
pub const PROVE_FAILED: i64 = -32001;
/// The uri is not in the file registry; send `open` first.
pub const FILE_NOT_OPEN: i64 = -32002;
/// The request's deadline (`deadlineMs` param, or the server default)
/// expired before the work finished; `error.data` carries partial
/// progress (for prove: `depthReached`, `engine`, `conflicts`).
pub const DEADLINE_EXCEEDED: i64 = -32003;
/// The server's work queue is full and the request was shed without
/// being started; `error.data.retryAfterMs` hints when to retry.
pub const OVERLOADED: i64 = -32004;
/// The request was cancelled via the `cancel` method (LSP's code).
pub const REQUEST_CANCELLED: i64 = -32800;

/// A JSON-RPC error: code, message, and optional structured data.
#[derive(Clone, Debug)]
pub struct RpcError {
    /// One of the `*_ERROR` / server-defined codes above.
    pub code: i64,
    /// Short human-readable summary.
    pub message: String,
    /// Structured payload (diagnostics, candidate lists, ...).
    pub data: Option<Json>,
}

impl RpcError {
    /// An error with no structured data.
    pub fn new(code: i64, message: impl Into<String>) -> RpcError {
        RpcError {
            code,
            message: message.into(),
            data: None,
        }
    }

    /// Attaches structured data.
    pub fn with_data(mut self, data: Json) -> RpcError {
        self.data = Some(data);
        self
    }

    /// Shorthand for [`INVALID_PARAMS`].
    pub fn invalid_params(message: impl Into<String>) -> RpcError {
        RpcError::new(INVALID_PARAMS, message)
    }

    /// The `error` member of a response frame.
    fn to_json(&self) -> Json {
        let mut obj = Json::obj([
            ("code", Json::int(self.code)),
            ("message", Json::str(&self.message)),
        ]);
        if let (Json::Obj(map), Some(data)) = (&mut obj, &self.data) {
            map.insert("data".to_string(), data.clone());
        }
        obj
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for RpcError {}

/// One parsed incoming frame: a request (`id` present) or a
/// notification (`id` absent — no response will be sent).
#[derive(Clone, Debug)]
pub struct Incoming {
    /// The request id (string or number), `None` for notifications.
    pub id: Option<Json>,
    /// The method name.
    pub method: String,
    /// The `params` member (`Json::Null` when omitted).
    pub params: Json,
}

impl Incoming {
    /// A request frame with a numeric id (client-side construction;
    /// also used by the tests).
    pub fn request(id: i64, method: &str, params: Json) -> Incoming {
        Incoming {
            id: Some(Json::int(id)),
            method: method.to_string(),
            params,
        }
    }

    /// Serializes back into a request frame (client side of the wire).
    pub fn to_frame(&self) -> Json {
        let mut map = std::collections::BTreeMap::new();
        map.insert("jsonrpc".to_string(), Json::str("2.0"));
        if let Some(id) = &self.id {
            map.insert("id".to_string(), id.clone());
        }
        map.insert("method".to_string(), Json::str(&self.method));
        if self.params != Json::Null {
            map.insert("params".to_string(), self.params.clone());
        }
        Json::Obj(map)
    }
}

/// The largest numeric request id that survives the `f64` round trip
/// exactly: 2^53 itself is also what `2^53 + 1` parses to.
const MAX_NUMERIC_ID: f64 = 9_007_199_254_740_991.0;

/// Parses one line into an [`Incoming`] frame.
///
/// # Errors
///
/// [`PARSE_ERROR`] on malformed JSON, [`INVALID_REQUEST`] on a frame
/// that is not a JSON-RPC 2.0 request/notification object (wrong
/// `jsonrpc` version, missing or non-string `method`, non-scalar `id`)
/// or whose numeric `id` lies beyond ±(2^53 − 1): the response could not
/// echo such an id exactly, since it is read as an `f64`.
pub fn parse_incoming(line: &str) -> Result<Incoming, RpcError> {
    let frame = Json::parse(line).map_err(|e| RpcError::new(PARSE_ERROR, e.to_string()))?;
    if let Some(version) = frame.get("jsonrpc") {
        if version.as_str() != Some("2.0") {
            return Err(RpcError::new(
                INVALID_REQUEST,
                "jsonrpc member must be \"2.0\"",
            ));
        }
    }
    let method = frame
        .get("method")
        .and_then(Json::as_str)
        .ok_or_else(|| RpcError::new(INVALID_REQUEST, "missing string `method`"))?
        .to_string();
    let id = match frame.get("id") {
        None | Some(Json::Null) => None,
        Some(Json::Num(n)) if n.abs() > MAX_NUMERIC_ID => {
            return Err(RpcError::new(
                INVALID_REQUEST,
                "a numeric `id` must lie within ±(2^53 - 1)",
            ))
        }
        Some(id @ (Json::Str(_) | Json::Num(_))) => Some(id.clone()),
        Some(_) => {
            return Err(RpcError::new(
                INVALID_REQUEST,
                "`id` must be a string or number",
            ))
        }
    };
    let params = frame.get("params").cloned().unwrap_or(Json::Null);
    Ok(Incoming { id, method, params })
}

/// A success response frame.
pub fn response(id: &Json, result: Json) -> Json {
    Json::obj([
        ("jsonrpc", Json::str("2.0")),
        ("id", id.clone()),
        ("result", result),
    ])
}

/// An error response frame (`id` is `null` when the request id could
/// not even be parsed).
pub fn error_response(id: Option<&Json>, err: &RpcError) -> Json {
    Json::obj([
        ("jsonrpc", Json::str("2.0")),
        ("id", id.cloned().unwrap_or(Json::Null)),
        ("error", err.to_json()),
    ])
}

/// A server→client notification frame.
pub fn notification(method: &str, params: Json) -> Json {
    Json::obj([
        ("jsonrpc", Json::str("2.0")),
        ("method", Json::str(method)),
        ("params", params),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_and_notifications_parse() {
        let req =
            parse_incoming(r#"{"jsonrpc":"2.0","id":1,"method":"ping","params":{"a":2}}"#).unwrap();
        assert_eq!(req.id, Some(Json::Num(1.0)));
        assert_eq!(req.method, "ping");
        assert_eq!(req.params.get("a").and_then(Json::as_i64), Some(2));

        let note = parse_incoming(r#"{"method":"open"}"#).unwrap();
        assert!(note.id.is_none());
        assert_eq!(note.params, Json::Null);
    }

    #[test]
    fn invalid_frames_are_rejected_with_spec_codes() {
        assert_eq!(parse_incoming("{nope").unwrap_err().code, PARSE_ERROR);
        assert_eq!(
            parse_incoming(r#"{"jsonrpc":"1.0","method":"m"}"#)
                .unwrap_err()
                .code,
            INVALID_REQUEST
        );
        assert_eq!(
            parse_incoming(r#"{"jsonrpc":"2.0","id":1}"#)
                .unwrap_err()
                .code,
            INVALID_REQUEST
        );
        assert_eq!(
            parse_incoming(r#"{"method":"m","id":[1]}"#)
                .unwrap_err()
                .code,
            INVALID_REQUEST
        );
        // Infinity would echo as `"id":null`, and 2^53 + 1 as 2^53.
        assert_eq!(
            parse_incoming(r#"{"jsonrpc":"2.0","id":1e999,"method":"ping"}"#)
                .unwrap_err()
                .code,
            PARSE_ERROR
        );
        assert_eq!(
            parse_incoming(r#"{"jsonrpc":"2.0","id":9007199254740993,"method":"ping"}"#)
                .unwrap_err()
                .code,
            INVALID_REQUEST
        );
    }

    #[test]
    fn frames_serialize_in_jsonrpc_shape() {
        let ok = response(&Json::int(7), Json::obj([("ok", Json::Bool(true))]));
        assert_eq!(
            ok.to_string(),
            r#"{"id":7,"jsonrpc":"2.0","result":{"ok":true}}"#
        );
        let err = error_response(None, &RpcError::new(METHOD_NOT_FOUND, "no such method"));
        assert_eq!(
            err.to_string(),
            r#"{"error":{"code":-32601,"message":"no such method"},"id":null,"jsonrpc":"2.0"}"#
        );
        let note = notification("diagnostics", Json::obj([("uri", Json::str("u"))]));
        assert!(note.to_string().contains(r#""method":"diagnostics""#));
        // Round-trip: a client request frame parses back.
        let round = Incoming::request(3, "compile", Json::obj([("uri", Json::str("u"))]));
        let parsed = parse_incoming(&round.to_frame().to_string()).unwrap();
        assert_eq!(parsed.method, "compile");
        assert_eq!(parsed.id, Some(Json::Num(3.0)));
    }
}

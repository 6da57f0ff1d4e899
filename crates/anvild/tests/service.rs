//! Integration tests for the compile service: the full method surface
//! through [`CompileService::handle`], and the serve loop over real
//! socket pairs — including two clients sharing one warm session and a
//! panicking compile that must not take the daemon down.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Mutex;

use anvild::{parse_incoming, CompileService, Incoming, Json, RpcError};

const GOOD: &str = "proc p() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }";
const BAD: &str = "proc p() { loop { ??? } }";

/// Sends one request through `handle`, returning (response, notes).
fn call(service: &CompileService, id: i64, method: &str, params: Json) -> (Json, Vec<Json>) {
    let mut notes = Vec::new();
    let resp = service
        .handle(Incoming::request(id, method, params), &mut |n| {
            notes.push(n)
        })
        .expect("requests get responses");
    (resp, notes)
}

fn result<'r>(resp: &'r Json, key: &str) -> &'r Json {
    resp.get("result")
        .and_then(|r| r.get(key))
        .unwrap_or_else(|| panic!("missing result.{key} in {resp}"))
}

fn error_code(resp: &Json) -> i64 {
    resp.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("expected an error response, got {resp}"))
}

fn open(service: &CompileService, uri: &str, text: &str) {
    let (resp, _) = call(
        service,
        90,
        "open",
        Json::obj([("uri", Json::str(uri)), ("text", Json::str(text))]),
    );
    assert!(resp.get("result").is_some(), "{resp}");
}

#[test]
fn compile_is_cold_then_warm_with_cache_delta_on_the_wire() {
    let service = CompileService::new();
    open(&service, "a.anv", GOOD);

    let (cold, notes) = call(
        &service,
        1,
        "compile",
        Json::obj([("uri", Json::str("a.anv"))]),
    );
    let misses = result(&cold, "cacheDelta")
        .get("misses")
        .and_then(Json::as_i64);
    assert!(misses > Some(0), "cold compile: {cold}");
    assert!(
        result(&cold, "systemverilog")
            .as_str()
            .unwrap()
            .contains("module p"),
        "{cold}"
    );
    // A clean compile streams an empty diagnostics notification.
    assert_eq!(notes.len(), 1);
    assert_eq!(
        notes[0]
            .get("params")
            .and_then(|p| p.get("diagnostics"))
            .and_then(Json::as_array)
            .map(|d| d.len()),
        Some(0)
    );

    let (warm, _) = call(
        &service,
        2,
        "compile",
        Json::obj([("uri", Json::str("a.anv"))]),
    );
    let delta = result(&warm, "cacheDelta");
    assert_eq!(
        delta.get("misses").and_then(Json::as_i64),
        Some(0),
        "{warm}"
    );
    assert!(delta.get("hits").and_then(Json::as_i64) > Some(0), "{warm}");
}

/// The `compile` result's shape is pinned, so a wire change has to be
/// deliberate. Per-pass time is not in it: it rides in `spanTree` when
/// the request sets `trace: true`.
#[test]
fn compile_result_has_exactly_the_pinned_keys() {
    let service = CompileService::new();
    open(&service, "a.anv", GOOD);
    let (resp, _) = call(
        &service,
        1,
        "compile",
        Json::obj([("uri", Json::str("a.anv"))]),
    );
    let keys = |v: &Json| match v {
        Json::Obj(map) => map.keys().cloned().collect::<Vec<_>>(),
        other => panic!("expected an object, got {other}"),
    };
    let result = resp.get("result").unwrap_or_else(|| panic!("{resp}"));
    assert_eq!(
        keys(result),
        [
            "cacheDelta",
            "modules",
            "passStats",
            "systemverilog",
            "uri",
            "version"
        ]
    );
    assert_eq!(
        keys(result.get("passStats").unwrap()),
        ["eventsAfter", "eventsBefore"]
    );
}

/// An 81-byte source declaring a 2^64 - 1 bit register used to abort the
/// process while lowering its reset value. The width cap rejects it at
/// parse time with a located diagnostic, and the daemon keeps serving.
#[test]
fn oversized_width_is_a_compile_error_and_the_daemon_keeps_serving() {
    let service = CompileService::new();
    let hostile =
        "proc p() { reg r : logic[18446744073709551615]; loop { set r := *r >> cycle 1 } }";
    assert_eq!(hostile.len(), 81);
    open(&service, "huge.anv", hostile);
    let (resp, notes) = call(
        &service,
        1,
        "compile",
        Json::obj([("uri", Json::str("huge.anv"))]),
    );
    assert_eq!(error_code(&resp), anvild::COMPILE_FAILED, "{resp}");
    let diags = notes[0]
        .get("params")
        .and_then(|p| p.get("diagnostics"))
        .and_then(Json::as_array)
        .expect("diagnostics notification streamed");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].get("line").and_then(Json::as_i64), Some(1));

    open(&service, "a.anv", GOOD);
    let (resp, _) = call(
        &service,
        2,
        "compile",
        Json::obj([("uri", Json::str("a.anv"))]),
    );
    assert!(resp.get("result").is_some(), "{resp}");
}

/// A register array of 2^32 entries used to abort the process while
/// blasting it for `prove` ("memory allocation of 103079215104 bytes
/// failed"). The array caps reject it at parse time, and the daemon
/// keeps serving.
#[test]
fn oversized_register_array_is_a_compile_error_for_prove() {
    let service = CompileService::new();
    let hostile = "proc p() { reg m : logic[8][4294967296]; reg ok : logic := 1; \
                   loop { set m[0] := 1 ; set ok := 1 } }";
    open(&service, "array.anv", hostile);
    let (resp, _) = call(
        &service,
        1,
        "prove",
        Json::obj([("uri", Json::str("array.anv")), ("signal", Json::str("ok"))]),
    );
    assert_eq!(error_code(&resp), anvild::COMPILE_FAILED, "{resp}");

    open(&service, "a.anv", GOOD);
    let (resp, _) = call(
        &service,
        2,
        "compile",
        Json::obj([("uri", Json::str("a.anv"))]),
    );
    assert!(resp.get("result").is_some(), "{resp}");
}

/// 460 nested parentheses used to overflow the stack of the serve
/// loop's 2 MiB request threads. The parser's nesting limit rejects the
/// source with a located diagnostic, and the same connection keeps
/// being served.
#[test]
fn deeply_nested_source_is_a_compile_error_over_the_wire() {
    let service = CompileService::new();
    let deep = format!(
        "proc p() {{ reg r : logic[8]; loop {{ set r := {}1{} }} }}",
        "(".repeat(460),
        ")".repeat(460)
    );
    std::thread::scope(|scope| {
        let mut c = serve_pair(scope, &service);
        let mut r = BufReader::new(c.try_clone().unwrap());
        for (id, uri, text) in [(1, "deep.anv", deep.as_str()), (3, "a.anv", GOOD)] {
            let open = Incoming::request(
                id,
                "open",
                Json::obj([("uri", Json::str(uri)), ("text", Json::str(text))]),
            )
            .to_frame()
            .to_string();
            call_over_wire(&mut c, &mut r, &open);
        }
        let resp = call_over_wire(
            &mut c,
            &mut r,
            r#"{"jsonrpc":"2.0","id":2,"method":"compile","params":{"uri":"deep.anv"}}"#,
        );
        assert_eq!(error_code(&resp), anvild::COMPILE_FAILED, "{resp}");
        let resp = call_over_wire(
            &mut c,
            &mut r,
            r#"{"jsonrpc":"2.0","id":4,"method":"compile","params":{"uri":"a.anv"}}"#,
        );
        assert!(resp.get("result").is_some(), "{resp}");
        call_over_wire(
            &mut c,
            &mut r,
            r#"{"jsonrpc":"2.0","id":9,"method":"shutdown"}"#,
        );
        drop(c);
    });
}

/// Sources at the parser's nesting limit are accepted, so every compile
/// pass recurses 256 levels deep on a serve connection thread.
/// Unoptimised, as in this test profile, 256 prefix operators or `>>`
/// items need about 7.3 MiB of stack: they overflowed the 2 MiB default
/// threads requests used to run on. Each compiles to SystemVerilog, and
/// the connection keeps serving.
#[test]
fn sources_at_the_nesting_limit_compile_over_the_wire() {
    let service = CompileService::new();
    let unary = format!(
        "proc p() {{ reg r : logic[8]; loop {{ set r := {}*r }} }}",
        "~".repeat(255)
    );
    let sequence = format!(
        "proc p() {{ reg r : logic[8]; loop {{ set r := *r + 1 >> {} }} }}",
        vec!["cycle 1"; 255].join(" >> ")
    );
    std::thread::scope(|scope| {
        let mut c = serve_pair(scope, &service);
        let mut r = BufReader::new(c.try_clone().unwrap());
        let sources = [
            ("unary.anv", unary.as_str()),
            ("sequence.anv", sequence.as_str()),
            ("a.anv", GOOD),
        ];
        for (id, (uri, text)) in (1..).zip(sources) {
            let open = Incoming::request(
                id,
                "open",
                Json::obj([("uri", Json::str(uri)), ("text", Json::str(text))]),
            )
            .to_frame()
            .to_string();
            call_over_wire(&mut c, &mut r, &open);
            let compile =
                Incoming::request(10 + id, "compile", Json::obj([("uri", Json::str(uri))]))
                    .to_frame()
                    .to_string();
            let resp = call_over_wire(&mut c, &mut r, &compile);
            assert!(
                result(&resp, "systemverilog")
                    .as_str()
                    .unwrap()
                    .contains("module p"),
                "{uri}: {resp}"
            );
        }
        call_over_wire(
            &mut c,
            &mut r,
            r#"{"jsonrpc":"2.0","id":9,"method":"shutdown"}"#,
        );
        drop(c);
    });
}

#[test]
fn broken_file_answers_compile_failed_and_streams_diagnostics() {
    let service = CompileService::new();
    open(&service, "b.anv", BAD);

    let (resp, notes) = call(
        &service,
        1,
        "compile",
        Json::obj([("uri", Json::str("b.anv"))]),
    );
    assert_eq!(error_code(&resp), anvild::COMPILE_FAILED);
    let diags = notes
        .iter()
        .find_map(|n| {
            (n.get("method").and_then(Json::as_str) == Some("diagnostics"))
                .then(|| n.get("params").unwrap().get("diagnostics").unwrap())
        })
        .expect("diagnostics notification streamed");
    let diags = diags.as_array().unwrap();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].get("line").and_then(Json::as_i64), Some(1));
    assert!(diags[0].get("col").and_then(Json::as_i64) > Some(0));

    // The `diagnostics` (check-only) method reports the same count.
    let (resp, notes) = call(
        &service,
        2,
        "diagnostics",
        Json::obj([("uri", Json::str("b.anv"))]),
    );
    assert_eq!(result(&resp, "count").as_i64(), Some(1));
    assert_eq!(notes.len(), 1);
}

/// A non-ASCII character used to crash the diagnostic renderer: the
/// lexer spanned only its first byte, and slicing the source at that
/// span panicked after the diagnostic had streamed, so `compile`
/// answered `-32603`. It is now a compile error like any other.
#[test]
fn non_ascii_character_is_a_compile_error_not_a_panic() {
    let service = CompileService::new();
    let src = "proc p() { reg r : logic; loop { set r := é >> cycle 1 } }";
    open(&service, "accent.anv", src);
    let (resp, notes) = call(
        &service,
        1,
        "compile",
        Json::obj([("uri", Json::str("accent.anv"))]),
    );
    assert_eq!(error_code(&resp), anvild::COMPILE_FAILED, "{resp}");
    let diags = notes[0]
        .get("params")
        .and_then(|p| p.get("diagnostics"))
        .and_then(Json::as_array)
        .expect("diagnostics notification streamed");
    assert_eq!(
        diags[0].get("message").and_then(Json::as_str),
        Some("unexpected character `é`")
    );
    assert_eq!(diags[0].get("col").and_then(Json::as_i64), Some(43));

    let (health, _) = call(&service, 2, "health", Json::Null);
    assert_eq!(
        result(&health, "panicsRecovered").as_i64(),
        Some(0),
        "{health}"
    );
}

#[test]
fn registry_enforces_open_and_version_monotonicity() {
    let service = CompileService::new();

    // Compile before open → FILE_NOT_OPEN.
    let (resp, _) = call(&service, 1, "compile", Json::obj([("uri", Json::str("x"))]));
    assert_eq!(error_code(&resp), anvild::FILE_NOT_OPEN);

    open(&service, "x", GOOD);
    let (resp, _) = call(
        &service,
        2,
        "update",
        Json::obj([
            ("uri", Json::str("x")),
            ("text", Json::str(GOOD)),
            ("version", Json::int(5)),
        ]),
    );
    assert_eq!(result(&resp, "version").as_i64(), Some(5));

    // Going backwards (or sideways) is rejected.
    let (resp, _) = call(
        &service,
        3,
        "update",
        Json::obj([
            ("uri", Json::str("x")),
            ("text", Json::str(GOOD)),
            ("version", Json::int(5)),
        ]),
    );
    assert_eq!(error_code(&resp), anvild::INVALID_PARAMS);

    // Close, then the uri is gone.
    let (resp, _) = call(&service, 4, "close", Json::obj([("uri", Json::str("x"))]));
    assert!(resp.get("result").is_some());
    let (resp, _) = call(&service, 5, "close", Json::obj([("uri", Json::str("x"))]));
    assert_eq!(error_code(&resp), anvild::FILE_NOT_OPEN);
    assert_eq!(service.open_files(), 0);
}

#[test]
fn unknown_methods_and_malformed_params_get_spec_codes() {
    let service = CompileService::new();
    let (resp, _) = call(&service, 1, "transmogrify", Json::Null);
    assert_eq!(error_code(&resp), anvild::METHOD_NOT_FOUND);

    let (resp, _) = call(&service, 2, "open", Json::obj([("uri", Json::str("u"))]));
    assert_eq!(error_code(&resp), anvild::INVALID_PARAMS);

    let (resp, _) = call(&service, 3, "cancel", Json::Null);
    assert_eq!(error_code(&resp), anvild::INVALID_PARAMS);
}

#[test]
fn pre_cancellation_cancels_the_request_when_it_arrives() {
    let service = CompileService::new();
    open(&service, "c.anv", GOOD);

    let (resp, _) = call(&service, 100, "cancel", Json::obj([("id", Json::int(7))]));
    assert_eq!(result(&resp, "inflight").as_bool(), Some(false));

    let (resp, _) = call(
        &service,
        7,
        "compile",
        Json::obj([("uri", Json::str("c.anv"))]),
    );
    assert_eq!(error_code(&resp), anvild::REQUEST_CANCELLED);

    // The id is consumed: reusing it afterwards works normally.
    let (resp, _) = call(
        &service,
        7,
        "compile",
        Json::obj([("uri", Json::str("c.anv"))]),
    );
    assert!(resp.get("result").is_some(), "{resp}");
}

#[test]
fn injected_compiler_panic_kills_the_request_not_the_service() {
    let service = CompileService::new();
    let boom = format!("proc boom() {{ }} // {}", anvil_core::PANIC_MARKER);
    open(&service, "boom.anv", &boom);
    open(&service, "ok.anv", GOOD);

    let (resp, _) = call(
        &service,
        1,
        "compile",
        Json::obj([("uri", Json::str("boom.anv"))]),
    );
    assert_eq!(error_code(&resp), anvild::INTERNAL_ERROR);

    // The service keeps serving, and the cache recovered by itself.
    let (resp, _) = call(
        &service,
        2,
        "compile",
        Json::obj([("uri", Json::str("ok.anv"))]),
    );
    assert!(resp.get("result").is_some(), "{resp}");
    let (stats, _) = call(&service, 3, "cacheStats", Json::Null);
    assert!(result(&stats, "poisoned").as_i64().is_some());
}

#[test]
fn prove_falsifies_a_failing_property_over_the_wire() {
    let service = CompileService::new();
    // Registers reset to 0, so "ok stays truthy" is falsified at the
    // first checked cycle.
    open(
        &service,
        "p.anv",
        "proc main() { reg ok : logic; loop { set ok := 1 >> cycle 1 } }",
    );
    let (resp, _) = call(
        &service,
        1,
        "prove",
        Json::obj([
            ("uri", Json::str("p.anv")),
            ("signal", Json::str("ok")),
            ("maxK", Json::int(4)),
        ]),
    );
    assert_eq!(result(&resp, "verdict").as_str(), Some("falsified"));
    assert_eq!(result(&resp, "depth").as_i64(), Some(1));
    assert!(result(&resp, "trace").as_str().is_some(), "{resp}");
    // A cold prove names its winning engine and reports both AIG sizes.
    assert!(
        matches!(result(&resp, "engine").as_str(), Some("symbolic" | "pdr")),
        "{resp}"
    );
    assert!(result(&resp, "aigNodes").as_i64().is_some());
    assert!(result(&resp, "aigNodesAfterRewrite").as_i64().is_some());
    assert!(result(&resp, "clauses").as_i64().is_some());

    // Unknown signal → invalid params naming the candidates.
    let (resp, _) = call(
        &service,
        2,
        "prove",
        Json::obj([("uri", Json::str("p.anv")), ("signal", Json::str("nope"))]),
    );
    assert_eq!(error_code(&resp), anvild::INVALID_PARAMS);
}

#[test]
fn warm_reprove_is_a_proof_cache_hit_across_whitespace_edits() {
    let service = CompileService::new();
    let src = "proc main() { reg ok : logic; loop { set ok := 1 >> cycle 1 } }";
    open(&service, "w.anv", src);
    let params = Json::obj([
        ("uri", Json::str("w.anv")),
        ("signal", Json::str("ok")),
        ("maxK", Json::int(4)),
    ]);

    let (cold, _) = call(&service, 1, "prove", params.clone());
    assert_eq!(result(&cold, "verdict").as_str(), Some("falsified"));
    let cold_engine = result(&cold, "engine").as_str().unwrap().to_string();
    assert_ne!(cold_engine, "cache");

    // Reformat the file (whitespace only): the lower-stage fingerprint
    // is unchanged, so re-proving revalidates the cached certificate
    // instead of rerunning the portfolio.
    open(&service, "w.anv", &src.replace(" { ", " {\n    "));
    let (warm, _) = call(&service, 2, "prove", params);
    assert_eq!(result(&warm, "engine").as_str(), Some("cache"), "{warm}");
    // The certificate remembers its producer by proof style: "bmc" /
    // "k-induction" / "pdr".
    assert!(
        matches!(
            result(&warm, "cachedEngine").as_str(),
            Some("bmc" | "k-induction" | "pdr")
        ),
        "{warm}"
    );
    assert_eq!(result(&warm, "verdict").as_str(), Some("falsified"));
    assert_eq!(result(&warm, "depth").as_i64(), Some(1));

    // The proof stage's counters saw exactly one miss (cold) and one
    // hit (warm).
    let (stats, _) = call(&service, 3, "cacheStats", Json::Null);
    let proof = result(&stats, "proof");
    assert_eq!(proof.get("hits").and_then(Json::as_i64), Some(1), "{stats}");
    assert_eq!(proof.get("misses").and_then(Json::as_i64), Some(1));
}

/// An 8-bit counter wrapping at 100 whose registered `ok` drops one
/// cycle after `c` reaches `bad`: first violated at depth `bad + 2`.
fn late_counter(bad: u64) -> String {
    format!(
        "proc late() {{
            reg c : logic[8];
            reg ok : logic := 1;
            loop {{
                set ok := *c != {bad} ;
                if *c == 100 {{ set c := 0 }} else {{ set c := *c + 1 }}
            }}
        }}"
    )
}

#[test]
fn pdr_frame_budget_is_max_k_floored_at_8_plus_2() {
    // (bad value, maxK, expected falsification depth): the symbolic
    // engine reaches depth maxK + 1, PDR `maxK.max(8) + 2` frames, so
    // depth 10 is PDR's alone under maxK 8 and 7, and depth 11 is past
    // every engine under maxK 8.
    for (bad, max_k, falsified_at) in [(8, 8, Some(10)), (8, 7, Some(10)), (9, 8, None)] {
        let src = late_counter(bad);
        // The violation depth, independently: the explicit-state search
        // of an input-free design is a plain simulation.
        let module = anvil_core::Session::new()
            .compile_flat(&src, "late")
            .expect("compiles");
        let ok = anvil_rtl::Expr::Signal(module.find("ok").expect("ok register"));
        let (simulated, _) = anvil_verify::bmc(&module, &ok, 16, 1_000).expect("simulates");
        assert!(
            matches!(simulated, anvil_verify::BmcResult::Violation { depth, .. } if depth as u64 == bad + 2),
            "{simulated:?}"
        );

        let service = CompileService::new();
        open(&service, "late.anv", &src);
        let (resp, _) = call(
            &service,
            1,
            "prove",
            Json::obj([
                ("uri", Json::str("late.anv")),
                ("signal", Json::str("ok")),
                ("maxK", Json::int(max_k)),
            ]),
        );
        match falsified_at {
            Some(depth) => {
                assert_eq!(
                    result(&resp, "verdict").as_str(),
                    Some("falsified"),
                    "{resp}"
                );
                assert_eq!(result(&resp, "depth").as_i64(), Some(depth), "{resp}");
                assert_eq!(result(&resp, "engine").as_str(), Some("pdr"), "{resp}");
            }
            None => {
                assert_eq!(result(&resp, "verdict").as_str(), Some("unknown"), "{resp}");
                // PDR's last clean frame: 10 levels checked.
                assert_eq!(result(&resp, "depth").as_i64(), Some(10), "{resp}");
            }
        }
    }
}

#[test]
fn notifications_get_no_response() {
    let service = CompileService::new();
    let msg = parse_incoming(r#"{"jsonrpc":"2.0","method":"ping"}"#).unwrap();
    assert!(service.handle(msg, &mut |_| {}).is_none());
}

/// Runs the serve loop over a socketpair on a scoped thread, returning
/// the client end.
fn serve_pair<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    service: &'env CompileService,
) -> UnixStream {
    let (client, server) = UnixStream::pair().expect("socketpair");
    scope.spawn(move || {
        let reader = BufReader::new(server.try_clone().expect("clone"));
        service.serve(reader, &server).expect("serve");
    });
    client
}

fn call_over_wire(
    stream: &mut UnixStream,
    reader: &mut BufReader<UnixStream>,
    frame: &str,
) -> Json {
    writeln!(stream, "{frame}").expect("write");
    // A malformed frame has no recoverable id; the server answers it
    // with `"id":null`, so match on Null in that case.
    let want = Json::parse(frame)
        .ok()
        .and_then(|f| f.get("id").cloned())
        .unwrap_or(Json::Null);
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read") > 0,
            "server hung up"
        );
        let resp = Json::parse(line.trim()).expect("valid frame");
        if resp.get("id") == Some(&want) {
            return resp;
        }
    }
}

#[test]
fn serve_loop_shares_one_warm_session_across_two_clients() {
    let service = CompileService::new();
    std::thread::scope(|scope| {
        let mut c1 = serve_pair(scope, &service);
        let mut r1 = BufReader::new(c1.try_clone().unwrap());
        let mut c2 = serve_pair(scope, &service);
        let mut r2 = BufReader::new(c2.try_clone().unwrap());

        // Client 1 opens and compiles cold.
        let open = Incoming::request(
            1,
            "open",
            Json::obj([("uri", Json::str("s.anv")), ("text", Json::str(GOOD))]),
        )
        .to_frame()
        .to_string();
        call_over_wire(&mut c1, &mut r1, &open);
        let resp = call_over_wire(
            &mut c1,
            &mut r1,
            r#"{"jsonrpc":"2.0","id":2,"method":"compile","params":{"uri":"s.anv"}}"#,
        );
        assert!(
            result(&resp, "cacheDelta")
                .get("misses")
                .and_then(Json::as_i64)
                > Some(0),
            "{resp}"
        );

        // Client 2 sees the same registry AND a fully warm cache.
        let resp = call_over_wire(
            &mut c2,
            &mut r2,
            r#"{"jsonrpc":"2.0","id":3,"method":"compile","params":{"uri":"s.anv"}}"#,
        );
        assert_eq!(
            result(&resp, "cacheDelta")
                .get("misses")
                .and_then(Json::as_i64),
            Some(0),
            "second client was not warm: {resp}"
        );

        // Malformed JSON gets a parse error, id null, connection lives.
        let resp = call_over_wire(&mut c2, &mut r2, "{nope");
        assert_eq!(error_code(&resp), anvild::PARSE_ERROR);

        // Shutdown via client 1 ends both serve loops (scope joins).
        call_over_wire(
            &mut c1,
            &mut r1,
            r#"{"jsonrpc":"2.0","id":9,"method":"shutdown"}"#,
        );
        assert!(service.is_shut_down());
        drop((c1, c2));
    });
}

/// A transport that records each `write` call it receives.
struct WriteLog<'a>(&'a Mutex<Vec<Vec<u8>>>);

impl Write for WriteLog<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The serve loop hands each frame to the transport in one `write`, so
/// an unbuffered socket sends it in one piece and the client wakes once.
#[test]
fn serve_writes_each_frame_in_one_call() {
    let service = CompileService::new();
    let fifo = anvil_designs::fifo::anvil_source();
    let open = Incoming::request(
        1,
        "open",
        Json::obj([("uri", Json::str("f.anv")), ("text", Json::str(fifo))]),
    );
    let compile = Incoming::request(2, "compile", Json::obj([("uri", Json::str("f.anv"))]));
    let input = format!("{}\n{}\n", open.to_frame(), compile.to_frame());
    let writes = Mutex::new(Vec::new());
    service
        .serve(input.as_bytes(), WriteLog(&writes))
        .expect("serve");

    let frames: Vec<Json> = writes
        .into_inner()
        .unwrap()
        .iter()
        .map(|call| {
            let text = std::str::from_utf8(call).expect("UTF-8");
            assert!(
                text.ends_with('\n') && text.matches('\n').count() == 1,
                "a write that is not exactly one frame: {text:?}"
            );
            Json::parse(text).expect("a whole frame")
        })
        .collect();
    // The open response, then the compile's diagnostics notification
    // and its response.
    assert_eq!(frames.len(), 3, "{frames:?}");
    let notes = frames.iter().filter(|f| f.get("method").is_some());
    assert_eq!(
        notes
            .map(|f| f.get("method").and_then(Json::as_str))
            .collect::<Vec<_>>(),
        [Some("diagnostics")]
    );
    let compiled = frames
        .iter()
        .find(|f| f.get("id").and_then(Json::as_i64) == Some(2));
    assert!(
        compiled.is_some_and(|f| result(f, "systemverilog").as_str().is_some()),
        "{frames:?}"
    );
}

/// A line longer than the frame cap gets `INVALID_REQUEST` naming the
/// cap, and the next frame on the same connection is served as usual.
#[test]
fn oversize_frame_is_refused_and_the_connection_keeps_serving() {
    let service = CompileService::new();
    let open = Incoming::request(
        1,
        "open",
        Json::obj([("uri", Json::str("p.anv")), ("text", Json::str(GOOD))]),
    );
    let compile = Incoming::request(2, "compile", Json::obj([("uri", Json::str("p.anv"))]));
    let mut input = format!("{}\n", open.to_frame()).into_bytes();
    input.extend(std::iter::repeat_n(b' ', anvild::MAX_FRAME_BYTES + 4096));
    input.extend(format!("\n{}\n", compile.to_frame()).into_bytes());
    let writes = Mutex::new(Vec::new());
    service
        .serve(input.as_slice(), WriteLog(&writes))
        .expect("serve");

    let frames: Vec<Json> = writes
        .into_inner()
        .unwrap()
        .iter()
        .map(|call| Json::parse(std::str::from_utf8(call).expect("UTF-8")).expect("a frame"))
        .collect();
    let refused: Vec<&Json> = frames
        .iter()
        .filter(|f| f.get("id") == Some(&Json::Null))
        .collect();
    assert_eq!(refused.len(), 1, "{frames:?}");
    assert_eq!(error_code(refused[0]), anvild::INVALID_REQUEST);
    let message = refused[0]
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or_default();
    assert!(
        message.contains(&anvild::MAX_FRAME_BYTES.to_string()),
        "{message}"
    );
    let compiled = frames
        .iter()
        .find(|f| f.get("id").and_then(Json::as_i64) == Some(2))
        .expect("the compile after the oversize frame is answered");
    assert!(result(compiled, "systemverilog").as_str().is_some());
}

#[test]
fn rpc_error_type_is_usable_downstream() {
    let err = RpcError::invalid_params("nope");
    assert_eq!(err.code, anvild::INVALID_PARAMS);
    assert_eq!(err.to_string(), "[-32602] nope");
}

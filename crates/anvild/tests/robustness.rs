//! Overload-and-failure survival tests for the compile service:
//! deadlines (`-32003` with partial progress) and cancellation reaching
//! the compile stage of every heavy method, admission control (`-32004`
//! with a retry hint), watchdog recovery of overdue requests (also while
//! a connection drains), the `health` counters, drain/abort shutdown, a
//! cancellation storm that must leave no orphaned state behind, cancels
//! scoped to their connection, and the bound on connection threads.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anvil_core::fault::{FaultKind, FaultPlan, FaultRule};
use anvild::{CompileService, Incoming, Json, ServiceConfig};

const GOOD: &str = "proc p() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }";

/// A property with an astronomically deep counterexample: `ok` only
/// goes false when a 32-bit counter wraps, so no engine settles it in
/// test time — proves with short deadlines reliably time out.
const SLOW: &str = "proc slow() { reg c : logic[32]; reg ok : logic := 1; \
    loop { set ok := !(*c == 4294967295); set c := *c + 1 >> cycle 1 } }";

/// Two compilation units: an interrupted compile stops at the boundary
/// between them.
const TWO_PROCS: &str = "proc a() { reg ok : logic := 1; loop { set ok := 1 >> cycle 1 } }
proc b() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }";

fn call(service: &CompileService, id: i64, method: &str, params: Json) -> Json {
    call_noting(service, id, method, params).0
}

/// [`call`], also returning the notifications the request streamed.
fn call_noting(service: &CompileService, id: i64, method: &str, params: Json) -> (Json, Vec<Json>) {
    let mut notes = Vec::new();
    let resp = service
        .handle(Incoming::request(id, method, params), &mut |n| {
            notes.push(n)
        })
        .expect("requests get responses");
    (resp, notes)
}

/// Stalls the first occurrence of the pipeline seam `op` for 300 ms.
fn stall_first(service: &CompileService, op: &str) {
    let stall = FaultKind::Stall(Duration::from_millis(300));
    service.set_fault_plan(Some(Arc::new(FaultPlan::new(vec![FaultRule::new(
        op, 1, stall,
    )]))));
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

fn error_data<'r>(resp: &'r Json, key: &str) -> &'r Json {
    resp.get("error")
        .and_then(|e| e.get("data"))
        .and_then(|d| d.get(key))
        .unwrap_or_else(|| panic!("missing error.data.{key} in {resp}"))
}

fn open(service: &CompileService, uri: &str, text: &str) {
    let resp = call(
        service,
        90,
        "open",
        Json::obj([("uri", Json::str(uri)), ("text", Json::str(text))]),
    );
    assert!(resp.get("result").is_some(), "{resp}");
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

/// Reads frames until the response for `id` arrives. Responses come
/// back out of order (workers race), so frames for other ids are
/// buffered, not dropped; notifications are discarded.
struct Responses {
    reader: BufReader<UnixStream>,
    pending: std::collections::HashMap<i64, Json>,
}

impl Responses {
    fn new(stream: &UnixStream) -> Responses {
        Responses {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            pending: std::collections::HashMap::new(),
        }
    }

    fn read(&mut self, id: i64) -> Json {
        if let Some(frame) = self.pending.remove(&id) {
            return frame;
        }
        loop {
            let mut line = String::new();
            assert!(
                self.reader.read_line(&mut line).expect("read") > 0,
                "server closed while waiting for response {id}"
            );
            let frame = Json::parse(line.trim()).expect("valid JSON from server");
            match frame.get("id").and_then(Json::as_i64) {
                Some(got) if got == id => return frame,
                Some(got) => {
                    self.pending.insert(got, frame);
                }
                None => {}
            }
        }
    }
}

/// Frames that are not JSON-RPC at all — bytes that are not UTF-8, and
/// JSON nested far past the parser's depth limit — are answered with a
/// parse error, and the connection keeps serving.
#[test]
fn hostile_frames_get_parse_errors_and_the_connection_keeps_serving() {
    let service = CompileService::new();
    std::thread::scope(|scope| {
        let mut client = serve_pair(scope, &service);
        let mut reader = BufReader::new(client.try_clone().expect("clone"));
        let mut next_frame = || {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).expect("read") > 0,
                "server hung up"
            );
            Json::parse(line.trim()).expect("valid JSON from server")
        };
        let not_utf8 =
            b"{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"ping\",\"params\":{\"x\":\"\xFF\"}}\n"
                .to_vec();
        let too_deep = format!("{}\n", "[".repeat(200_000)).into_bytes();
        for (id, hostile) in [(1, not_utf8), (2, too_deep)] {
            client.write_all(&hostile).expect("write");
            let resp = next_frame();
            assert_eq!(error_code(&resp), anvild::PARSE_ERROR, "{resp}");
            assert_eq!(resp.get("id"), Some(&Json::Null), "{resp}");
            writeln!(client, r#"{{"jsonrpc":"2.0","id":{id},"method":"ping"}}"#).expect("write");
            let resp = next_frame();
            assert_eq!(resp.get("id").and_then(Json::as_i64), Some(id), "{resp}");
            assert!(resp.get("result").is_some(), "{resp}");
        }
    });
}

#[test]
fn expired_deadline_fails_fast_and_the_service_keeps_serving() {
    let service = CompileService::new();
    open(&service, "d.anv", GOOD);

    // deadlineMs:0 is already expired at registration; the dispatcher
    // answers -32003 without starting the pipeline.
    let resp = call(
        &service,
        1,
        "compile",
        Json::obj([("uri", Json::str("d.anv")), ("deadlineMs", Json::int(0))]),
    );
    assert_eq!(error_code(&resp), anvild::DEADLINE_EXCEEDED, "{resp}");

    // Same request without a deadline compiles fine afterwards.
    let resp = call(
        &service,
        2,
        "compile",
        Json::obj([("uri", Json::str("d.anv"))]),
    );
    assert!(resp.get("result").is_some(), "{resp}");

    let stats = service.service_stats();
    assert_eq!(stats.deadline_expired, 1, "{stats:?}");
}

#[test]
fn deadline_param_is_validated() {
    let service = CompileService::new();
    let resp = call(
        &service,
        1,
        "ping",
        Json::obj([("deadlineMs", Json::int(-5))]),
    );
    assert_eq!(error_code(&resp), anvild::INVALID_PARAMS);
    let resp = call(
        &service,
        2,
        "ping",
        Json::obj([("deadlineMs", Json::str("soon"))]),
    );
    assert_eq!(error_code(&resp), anvild::INVALID_PARAMS);
}

#[test]
fn prove_deadline_returns_partial_progress_quickly() {
    let service = CompileService::new();
    open(&service, "slow.anv", SLOW);

    // Warm the compile artifacts so the deadline lands inside the
    // portfolio, not the pipeline — the partial-progress shape is the
    // point here.
    let resp = call(
        &service,
        1,
        "compile",
        Json::obj([("uri", Json::str("slow.anv"))]),
    );
    assert!(resp.get("result").is_some(), "{resp}");

    let started = Instant::now();
    let resp = call(
        &service,
        2,
        "prove",
        Json::obj([
            ("uri", Json::str("slow.anv")),
            ("signal", Json::str("ok")),
            ("maxK", Json::int(100_000)),
            ("deadlineMs", Json::int(30)),
        ]),
    );
    let elapsed = started.elapsed();
    assert_eq!(error_code(&resp), anvild::DEADLINE_EXCEEDED, "{resp}");
    assert!(
        elapsed < Duration::from_secs(1),
        "deadline-bounded prove took {elapsed:?}"
    );
    // Partial progress rides in error.data.
    assert_eq!(error_data(&resp, "verdict").as_str(), Some("unknown"));
    assert!(
        error_data(&resp, "depthReached").as_i64() >= Some(0),
        "{resp}"
    );
    assert!(
        matches!(
            error_data(&resp, "engine").as_str(),
            Some("symbolic" | "pdr")
        ),
        "{resp}"
    );
    assert!(error_data(&resp, "conflicts").as_i64() >= Some(0), "{resp}");

    // The daemon is unharmed: the same prove with a sane budget answers.
    let resp = call(
        &service,
        3,
        "prove",
        Json::obj([
            ("uri", Json::str("slow.anv")),
            ("signal", Json::str("ok")),
            ("maxK", Json::int(2)),
        ]),
    );
    assert!(resp.get("result").is_some(), "{resp}");
}

/// A `prove` request's deadline and `cancel` flag reach its compile
/// stage: the compile stops at the next unit boundary, before the
/// circuit is bit-blasted or any engine starts.
#[test]
fn prove_deadline_and_cancel_stop_its_compile_stage() {
    let prove = |deadline_ms: Option<i64>| {
        let mut params = vec![
            ("uri", Json::str("two.anv")),
            ("top", Json::str("a")),
            ("signal", Json::str("ok")),
        ];
        params.extend(deadline_ms.map(|ms| ("deadlineMs", Json::int(ms))));
        Json::Obj(
            params
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };

    // The first unit stalls past the 50 ms deadline.
    let service = CompileService::new();
    open(&service, "two.anv", TWO_PROCS);
    stall_first(&service, "session.unit");
    let resp = call(&service, 1, "prove", prove(Some(50)));
    assert_eq!(error_code(&resp), anvild::DEADLINE_EXCEEDED, "{resp}");
    let stats = service.session().cache_stats();
    assert_eq!(
        stats.emit.misses, 0,
        "compile ran past its deadline: {stats}"
    );
    assert_eq!(
        stats.aig.misses, 0,
        "prove blasted past its deadline: {stats}"
    );

    // A pre-raised cancel stops it before any unit is compiled.
    let service = CompileService::new();
    open(&service, "two.anv", TWO_PROCS);
    call(&service, 2, "cancel", Json::obj([("id", Json::int(3))]));
    let resp = call(&service, 3, "prove", prove(None));
    assert_eq!(error_code(&resp), anvild::REQUEST_CANCELLED, "{resp}");
    let stats = service.session().cache_stats();
    assert_eq!(stats.misses(), 0, "cancelled prove compiled: {stats}");
}

/// A `diagnostics` request's deadline and `cancel` flag reach its check
/// stage, and an interrupted check streams no diagnostics: the program
/// was not fully analyzed.
#[test]
fn diagnostics_deadline_and_cancel_stop_its_check_stage() {
    let diagnostics = |deadline_ms: Option<i64>| {
        let mut params = vec![("uri", Json::str("two.anv"))];
        params.extend(deadline_ms.map(|ms| ("deadlineMs", Json::int(ms))));
        Json::Obj(
            params
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };

    // The first unit's cache lookup stalls past the 50 ms deadline.
    let service = CompileService::new();
    open(&service, "two.anv", TWO_PROCS);
    stall_first(&service, "cache.get");
    let (resp, notes) = call_noting(&service, 1, "diagnostics", diagnostics(Some(50)));
    assert_eq!(error_code(&resp), anvild::DEADLINE_EXCEEDED, "{resp}");
    assert!(notes.is_empty(), "streamed {notes:?}");

    // A pre-raised cancel stops it before any unit is checked.
    let service = CompileService::new();
    open(&service, "two.anv", TWO_PROCS);
    call(&service, 2, "cancel", Json::obj([("id", Json::int(3))]));
    let (resp, notes) = call_noting(&service, 3, "diagnostics", diagnostics(None));
    assert_eq!(error_code(&resp), anvild::REQUEST_CANCELLED, "{resp}");
    assert!(notes.is_empty(), "streamed {notes:?}");
}

#[test]
fn admission_gate_sheds_bursts_with_a_retry_hint() {
    let config = ServiceConfig {
        max_concurrency: 1,
        max_queue: 1,
        chaos: true,
        ..ServiceConfig::default()
    };
    let service = CompileService::with_config(anvil_core::Session::new(), config);
    open(&service, "b.anv", GOOD);

    std::thread::scope(|scope| {
        let client = serve_pair(scope, &service);
        let mut responses = Responses::new(&client);
        let mut client = client;

        // One stalled compile clogs the only worker slot...
        writeln!(
            client,
            r#"{{"jsonrpc":"2.0","id":1,"method":"compile","params":{{"uri":"b.anv","chaosStallMs":300}}}}"#
        )
        .expect("write");
        // ...then a burst: one queues, the rest shed immediately.
        for id in 2..7 {
            writeln!(
                client,
                r#"{{"jsonrpc":"2.0","id":{id},"method":"compile","params":{{"uri":"b.anv"}}}}"#
            )
            .expect("write");
        }
        let mut shed = 0;
        let mut served = 0;
        for id in 1..7 {
            let resp = responses.read(id);
            if resp.get("result").is_some() {
                served += 1;
            } else {
                assert_eq!(error_code(&resp), anvild::OVERLOADED, "{resp}");
                let hint = error_data(&resp, "retryAfterMs").as_i64();
                assert!(hint > Some(0), "{resp}");
                shed += 1;
            }
        }
        // Slot + queue = 2 requests make it through; the rest shed.
        assert_eq!(served, 2, "expected exactly slot+queue to be served");
        assert_eq!(shed, 4);

        // After the burst drains, the gate admits again.
        writeln!(
            client,
            r#"{{"jsonrpc":"2.0","id":10,"method":"compile","params":{{"uri":"b.anv"}}}}"#
        )
        .expect("write");
        let resp = responses.read(10);
        assert!(resp.get("result").is_some(), "{resp}");

        writeln!(client, r#"{{"jsonrpc":"2.0","id":11,"method":"shutdown"}}"#).expect("write");
        responses.read(11);
    });

    let stats = service.service_stats();
    assert_eq!(stats.shed, 4, "{stats:?}");
    assert_eq!(stats.in_flight, 0, "{stats:?}");
    assert_eq!(stats.queued, 0, "{stats:?}");
}

#[test]
fn watchdog_cancels_workers_that_overrun_their_deadline() {
    let config = ServiceConfig {
        max_concurrency: 2,
        watchdog_grace_ms: 20,
        chaos: true,
        ..ServiceConfig::default()
    };
    let service = CompileService::with_config(anvil_core::Session::new(), config);
    open(&service, "w.anv", GOOD);

    std::thread::scope(|scope| {
        let client = serve_pair(scope, &service);
        let mut responses = Responses::new(&client);
        let mut client = client;

        // The stall outlives deadline+grace, so the serve loop's watchdog
        // fires mid-stall; the pipeline then observes the expired
        // deadline at its first poll and answers -32003.
        writeln!(
            client,
            r#"{{"jsonrpc":"2.0","id":1,"method":"compile","params":{{"uri":"w.anv","chaosStallMs":200,"deadlineMs":25}}}}"#
        )
        .expect("write");
        let resp = responses.read(1);
        assert_eq!(error_code(&resp), anvild::DEADLINE_EXCEEDED, "{resp}");

        // health reflects the recovery.
        writeln!(client, r#"{{"jsonrpc":"2.0","id":2,"method":"health"}}"#).expect("write");
        let health = responses.read(2);
        assert!(
            result(&health, "watchdogFired").as_i64() >= Some(1),
            "{health}"
        );
        assert!(
            result(&health, "deadlineExpired").as_i64() >= Some(1),
            "{health}"
        );
        assert_eq!(result(&health, "ok").as_bool(), Some(true));

        writeln!(client, r#"{{"jsonrpc":"2.0","id":3,"method":"shutdown"}}"#).expect("write");
        responses.read(3);
    });
}

#[test]
fn watchdog_scan_is_a_noop_without_overdue_work() {
    let service = CompileService::new();
    assert_eq!(service.watchdog_scan(), 0);
    assert_eq!(service.service_stats().watchdog_fired, 0);
}

#[test]
fn health_counts_requests_and_recovered_panics() {
    let service = CompileService::new();
    let boom = format!("proc boom() {{ }} // {}", anvil_core::PANIC_MARKER);
    open(&service, "boom.anv", &boom);

    let resp = call(
        &service,
        1,
        "compile",
        Json::obj([("uri", Json::str("boom.anv"))]),
    );
    assert_eq!(error_code(&resp), anvild::INTERNAL_ERROR);

    let health = call(&service, 2, "health", Json::Null);
    assert_eq!(result(&health, "ok").as_bool(), Some(true));
    assert!(
        result(&health, "panicsRecovered").as_i64() >= Some(1),
        "{health}"
    );
    assert!(result(&health, "requests").as_i64() >= Some(2), "{health}");
    assert!(result(&health, "uptimeMs").as_i64() >= Some(0));
    assert_eq!(result(&health, "inFlight").as_i64(), Some(0));
}

#[test]
fn shutdown_validates_mode_and_drain_spares_inflight_flags() {
    let service = CompileService::new();
    let resp = call(
        &service,
        1,
        "shutdown",
        Json::obj([("mode", Json::str("yolo"))]),
    );
    assert_eq!(error_code(&resp), anvild::INVALID_PARAMS);
    assert!(!service.is_shut_down());

    let resp = call(&service, 2, "shutdown", Json::Null);
    assert_eq!(result(&resp, "mode").as_str(), Some("drain"));
    assert!(service.is_shut_down());
}

#[test]
fn abort_shutdown_cancels_inflight_work() {
    let config = ServiceConfig {
        max_concurrency: 2,
        chaos: true,
        ..ServiceConfig::default()
    };
    let service = CompileService::with_config(anvil_core::Session::new(), config);
    open(&service, "a.anv", GOOD);

    std::thread::scope(|scope| {
        let client = serve_pair(scope, &service);
        let mut responses = Responses::new(&client);
        let mut client = client;

        // A long stall, no deadline: only the abort can unstick it early
        // (the stop flag is polled right after the stall, cancelling the
        // compile before any pipeline work runs).
        writeln!(
            client,
            r#"{{"jsonrpc":"2.0","id":1,"method":"compile","params":{{"uri":"a.anv","chaosStallMs":150}}}}"#
        )
        .expect("write");
        writeln!(
            client,
            r#"{{"jsonrpc":"2.0","id":2,"method":"shutdown","params":{{"mode":"abort"}}}}"#
        )
        .expect("write");
        let resp = responses.read(2);
        assert_eq!(result(&resp, "mode").as_str(), Some("abort"));
        let resp = responses.read(1);
        assert_eq!(error_code(&resp), anvild::REQUEST_CANCELLED, "{resp}");
    });
    assert!(service.is_shut_down());
}

#[test]
fn cancellation_storm_leaves_no_orphaned_state() {
    let service = CompileService::with_config(
        anvil_core::Session::new(),
        ServiceConfig {
            max_concurrency: 4,
            max_queue: 64,
            ..ServiceConfig::default()
        },
    );
    open(&service, "s.anv", GOOD);
    const COMPILES: i64 = 24;

    std::thread::scope(|scope| {
        // Cancels reach only their own connection, so one connection
        // interleaves its compiles with cancels for ids in flight,
        // already done, and never-to-arrive.
        let client = serve_pair(scope, &service);
        let mut responses = Responses::new(&client);
        let mut client = client;

        let mut cancels = Vec::new();
        for (k, id) in (100..100 + COMPILES).enumerate() {
            writeln!(
                client,
                r#"{{"jsonrpc":"2.0","id":{id},"method":"compile","params":{{"uri":"s.anv"}}}}"#
            )
            .expect("compile write");
            for (wave, target) in [id, id - 2, 500 + k as i64 % 8].into_iter().enumerate() {
                let cid = 9000 + 10 * id + wave as i64;
                writeln!(
                    client,
                    r#"{{"jsonrpc":"2.0","id":{cid},"method":"cancel","params":{{"id":{target}}}}}"#
                )
                .expect("cancel write");
                cancels.push(cid);
            }
        }
        // Every compile is answered: success or a clean -32800, nothing
        // hangs, nothing panics. Every cancel gets its own ok response.
        for id in 100..100 + COMPILES {
            let resp = responses.read(id);
            assert!(
                resp.get("result").is_some() || error_code(&resp) == anvild::REQUEST_CANCELLED,
                "{resp}"
            );
        }
        for cid in cancels {
            let resp = responses.read(cid);
            assert!(resp.get("result").is_some(), "{resp}");
        }

        // Ids 500..508 were pre-cancelled but never arrived: their flags
        // linger by design, and are consumed by the next use of the id.
        for id in 500..508 {
            writeln!(
                client,
                r#"{{"jsonrpc":"2.0","id":{id},"method":"compile","params":{{"uri":"s.anv"}}}}"#
            )
            .expect("write");
            let resp = responses.read(id);
            assert_eq!(error_code(&resp), anvild::REQUEST_CANCELLED, "{resp}");
        }
        // Consumed: the same ids now work normally — no orphaned flags.
        for id in 500..508 {
            writeln!(
                client,
                r#"{{"jsonrpc":"2.0","id":{id},"method":"compile","params":{{"uri":"s.anv"}}}}"#
            )
            .expect("write");
            let resp = responses.read(id);
            assert!(resp.get("result").is_some(), "{resp}");
        }

        writeln!(client, r#"{{"jsonrpc":"2.0","id":8000,"method":"ping"}}"#).expect("write");
        let resp = responses.read(8000);
        assert!(resp.get("result").is_some(), "{resp}");
        writeln!(
            client,
            r#"{{"jsonrpc":"2.0","id":8001,"method":"shutdown"}}"#
        )
        .expect("write");
        responses.read(8001);
    });

    let stats = service.service_stats();
    assert_eq!(stats.in_flight, 0, "{stats:?}");
    assert_eq!(stats.queued, 0, "{stats:?}");
}

/// Two clients may number their requests alike: a `cancel` from one
/// connection never stops the other's request with the same id.
#[test]
fn cancel_reaches_only_its_own_connection() {
    let config = ServiceConfig {
        chaos: true,
        ..ServiceConfig::default()
    };
    let service = CompileService::with_config(anvil_core::Session::new(), config);
    open(&service, "c.anv", GOOD);

    std::thread::scope(|scope| {
        let a = serve_pair(scope, &service);
        let mut a_responses = Responses::new(&a);
        let mut a = a;
        let b = serve_pair(scope, &service);
        let mut b_responses = Responses::new(&b);
        let mut b = b;

        writeln!(
            a,
            r#"{{"jsonrpc":"2.0","id":7,"method":"compile","params":{{"uri":"c.anv","chaosStallMs":300}}}}"#
        )
        .expect("write");
        // A's compile is registered before A's next frame is read, so
        // once the ping is answered the compile is in flight.
        writeln!(a, r#"{{"jsonrpc":"2.0","id":8,"method":"ping"}}"#).expect("write");
        a_responses.read(8);

        writeln!(
            b,
            r#"{{"jsonrpc":"2.0","id":1,"method":"cancel","params":{{"id":7}}}}"#
        )
        .expect("write");
        let resp = b_responses.read(1);
        assert_eq!(result(&resp, "inflight").as_bool(), Some(false), "{resp}");

        let resp = a_responses.read(7);
        assert!(resp.get("result").is_some(), "{resp}");
        for (client, responses) in [(&mut a, &mut a_responses), (&mut b, &mut b_responses)] {
            writeln!(client, r#"{{"jsonrpc":"2.0","id":99,"method":"shutdown"}}"#).expect("write");
            responses.read(99);
        }
    });
    assert_eq!(service.service_stats().cancelled, 0);
}

/// A client that sends its last request and closes its write side still
/// has that request watched: the watchdog scans until the connection's
/// last request has finished, not only while frames are being read.
#[test]
fn watchdog_keeps_scanning_through_a_drain() {
    let config = ServiceConfig {
        watchdog_grace_ms: 10,
        chaos: true,
        ..ServiceConfig::default()
    };
    let service = CompileService::with_config(anvil_core::Session::new(), config);
    open(&service, "d.anv", GOOD);

    std::thread::scope(|scope| {
        let client = serve_pair(scope, &service);
        let mut responses = Responses::new(&client);
        let mut client = client;
        writeln!(
            client,
            r#"{{"jsonrpc":"2.0","id":1,"method":"compile","params":{{"uri":"d.anv","chaosStallMs":300,"deadlineMs":20}}}}"#
        )
        .expect("write");
        client
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let resp = responses.read(1);
        assert_eq!(error_code(&resp), anvild::DEADLINE_EXCEEDED, "{resp}");
    });
    assert_eq!(service.service_stats().watchdog_fired, 1);
}

/// A closed-loop editor (edit, compile, wait, repeat) is served by the
/// same two connection threads throughout: the thread that ran the last
/// compile waits to read again before it answers.
#[test]
fn sequential_edits_reuse_two_connection_threads() {
    let service = CompileService::new();
    open(&service, "e.anv", GOOD);
    std::thread::scope(|scope| {
        let client = serve_pair(scope, &service);
        let mut responses = Responses::new(&client);
        let mut client = client;
        for action in 0..50i64 {
            let text = Json::str(format!("// edit {action}\n{GOOD}"));
            let (update, compile) = (2 * action + 1, 2 * action + 2);
            writeln!(
                client,
                r#"{{"jsonrpc":"2.0","id":{update},"method":"update","params":{{"uri":"e.anv","text":{text}}}}}"#
            )
            .expect("write");
            writeln!(
                client,
                r#"{{"jsonrpc":"2.0","id":{compile},"method":"compile","params":{{"uri":"e.anv"}}}}"#
            )
            .expect("write");
            let resp = responses.read(update);
            assert!(resp.get("result").is_some(), "{resp}");
            let resp = responses.read(compile);
            assert!(resp.get("result").is_some(), "{resp}");
        }
    });
    let stats = service.service_stats();
    assert!(stats.threads_started <= 2, "{stats:?}");
    // The `open` and fifty updates and compiles.
    assert_eq!(stats.completed, 101, "{stats:?}");
}

/// A pipelined burst holds one connection thread per outstanding heavy
/// request plus the one that reads on, and every request is answered.
#[test]
fn pipelined_burst_starts_one_thread_per_outstanding_request_at_most() {
    let config = ServiceConfig {
        max_concurrency: 2,
        max_queue: 4,
        chaos: true,
        ..ServiceConfig::default()
    };
    let service = CompileService::with_config(anvil_core::Session::new(), config);
    open(&service, "p.anv", GOOD);
    std::thread::scope(|scope| {
        let client = serve_pair(scope, &service);
        let mut responses = Responses::new(&client);
        let mut client = client;
        for id in 1..=4 {
            writeln!(
                client,
                r#"{{"jsonrpc":"2.0","id":{id},"method":"compile","params":{{"uri":"p.anv","chaosStallMs":50}}}}"#
            )
            .expect("write");
        }
        for id in 1..=4 {
            let resp = responses.read(id);
            assert!(resp.get("result").is_some(), "{resp}");
        }
    });
    let stats = service.service_stats();
    assert!(stats.threads_started <= 5, "{stats:?}");
    // The `open` and the four compiles.
    assert_eq!((stats.shed, stats.completed), (0, 5), "{stats:?}");
}

/// Control frames read after a heavy request are answered by the next
/// leader while that request still runs.
#[test]
fn cancel_and_ping_behind_a_stalled_compile_are_answered_while_it_runs() {
    let config = ServiceConfig {
        chaos: true,
        ..ServiceConfig::default()
    };
    let service = CompileService::with_config(anvil_core::Session::new(), config);
    open(&service, "q.anv", GOOD);
    std::thread::scope(|scope| {
        let client = serve_pair(scope, &service);
        let mut responses = Responses::new(&client);
        let mut client = client;
        writeln!(
            client,
            r#"{{"jsonrpc":"2.0","id":1,"method":"compile","params":{{"uri":"q.anv","chaosStallMs":1500}}}}"#
        )
        .expect("write");
        writeln!(
            client,
            r#"{{"jsonrpc":"2.0","id":2,"method":"cancel","params":{{"id":1}}}}"#
        )
        .expect("write");
        writeln!(client, r#"{{"jsonrpc":"2.0","id":3,"method":"ping"}}"#).expect("write");

        let resp = responses.read(2);
        assert_eq!(result(&resp, "inflight").as_bool(), Some(true), "{resp}");
        let resp = responses.read(3);
        assert!(resp.get("result").is_some(), "{resp}");
        // Frames arrive in write order: the compile's answer, sent the
        // moment it finishes, has not come before the ping's.
        assert!(
            !responses.pending.contains_key(&1),
            "the compile was answered before the frames behind it"
        );
        // The stall is a sleep; the compile sees its raised flag after it.
        let resp = responses.read(1);
        assert_eq!(error_code(&resp), anvild::REQUEST_CANCELLED, "{resp}");
    });
}

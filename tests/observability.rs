//! The tracing subsystem end to end: golden span trees for a cold
//! compile, span-closure invariants under fault-injected panics, the
//! `trace: true` wire surface of the compile server (a warm prove's
//! tree must cover gate admission → session compile → proof-cache
//! revalidation), Chrome `trace_event` export validity (checked with
//! the daemon's own JSON parser), and `metrics` count consistency.
//!
//! Captures are process-global and refcounted, so tests in this binary
//! may overlap: every test opens its own root span on its own thread
//! and filters with [`anvil_trace::subtree`] or
//! [`anvil_trace::retain_subtree`], which drop records from concurrent
//! tests (they can never parent under a foreign root).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use anvil::anvil_core::fault::{FaultKind, FaultPlan, FaultRule};
use anvil::anvil_trace::{
    self, chrome_trace, render_tree, retain_subtree, subtree, Capture, SpanNode,
};
use anvil::anvild::{CompileService, Incoming, Json};
use anvil::Session;
use proptest::prelude::*;

const GOOD: &str = "proc p() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }";
const PROVE: &str = "proc main() { reg ok : logic; loop { set ok := 1 >> cycle 1 } }";

#[test]
fn cold_compile_span_tree_renders_to_the_golden() {
    let cap = Capture::start();
    let root = anvil_trace::span("test", "golden");
    let root_id = root.id();
    Session::new().compile(GOOD).expect("compiles");
    drop(root);
    let records = cap.finish();
    let tree = subtree(&records, root_id).expect("root recorded");
    // Structure, names, and hit/miss details only — no timestamps or
    // thread ids — so this golden is byte-stable across machines.
    let mut flat = Vec::new();
    fn flatten(n: &SpanNode, out: &mut Vec<anvil_trace::SpanRecord>) {
        out.push(n.record.clone());
        for c in &n.children {
            flatten(c, out);
        }
    }
    flatten(&tree, &mut flat);
    assert_eq!(
        render_tree(&flat),
        "\
- test.golden
  - core.compile
    - core.parse
    - core.check
      - core.check.unit [p miss]
    - core.optimize.unit [p miss]
    - core.lower.unit [p miss]
    - core.emit
      - core.emit.chunk [p miss]
",
    );
}

#[test]
fn warm_compile_tree_reports_cache_hits() {
    let session = Session::new();
    session.compile(GOOD).expect("cold compile");
    let cap = Capture::start();
    let root = anvil_trace::span("test", "warm");
    let root_id = root.id();
    session.compile(GOOD).expect("warm compile");
    drop(root);
    let mut records = cap.finish();
    retain_subtree(&mut records, root_id);
    // Every per-unit span on the warm path is a hit; no misses.
    let details: Vec<&str> = records.iter().filter_map(|r| r.detail.as_deref()).collect();
    assert!(!details.is_empty());
    assert!(details.iter().all(|d| d.ends_with(" hit")), "{details:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every opened span closes exactly once even when a seeded fault
    /// panics out of a pass mid-span: after `catch_unwind`, the parent
    /// stack is restored to the test root and no span id appears twice.
    #[test]
    fn spans_close_exactly_once_under_injected_panics(
        seam_idx in 0usize..3,
        nth in 1u64..3,
    ) {
        let seam = ["session.compile", "session.unit", "cache.get"][seam_idx];
        let session = Session::new();
        session.set_fault_plan(Some(Arc::new(FaultPlan::new(vec![FaultRule::new(
                seam,
                nth,
                FaultKind::Panic,
            )]))));
        let cap = Capture::start();
        let root = anvil_trace::span("test", "fault-root");
        let root_id = root.id();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.compile(GOOD).map(|_| ())
        }));
        // Whether the plan fired (panic) or not (clean compile), the
        // unwind must have closed every span and restored the root.
        prop_assert_eq!(anvil_trace::current_span(), root_id);
        drop(root);
        let mut records = cap.finish();
        retain_subtree(&mut records, root_id);
        let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
        let len = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), len, "a span record was emitted twice");
        // A clean compile (the plan's rule never crossed its threshold)
        // must still have recorded the full pass tree; a panicking one
        // may have unwound before `core.compile` opened.
        if outcome.is_ok() {
            prop_assert!(records.iter().any(|r| r.name == "compile"));
        }
    }
}

#[test]
fn chrome_trace_export_is_valid_json_with_complete_events() {
    let cap = Capture::start();
    let root = anvil_trace::span("test", "chrome");
    let root_id = root.id();
    Session::new().compile(GOOD).expect("compiles");
    drop(root);
    let mut records = cap.finish();
    retain_subtree(&mut records, root_id);
    let json = Json::parse(&chrome_trace(&records)).expect("chrome trace parses");
    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), records.len());
    for ev in events {
        assert!(ev.get("name").and_then(Json::as_str).is_some(), "{ev}");
        assert!(ev.get("cat").and_then(Json::as_str).is_some(), "{ev}");
        assert_eq!(ev.get("pid").and_then(Json::as_i64), Some(1), "{ev}");
        assert!(ev.get("ts").and_then(Json::as_i64).is_some(), "{ev}");
        let ph = ev.get("ph").and_then(Json::as_str).unwrap();
        match ph {
            "X" => assert!(ev.get("dur").and_then(Json::as_i64).is_some(), "{ev}"),
            "i" => assert_eq!(ev.get("s").and_then(Json::as_str), Some("t"), "{ev}"),
            other => panic!("unexpected phase {other:?}"),
        }
    }
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
    id: i64,
    method: &str,
    params: Json,
) -> Json {
    let frame = Incoming::request(id, method, params).to_frame().to_string();
    writeln!(stream, "{frame}").expect("write");
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read") > 0,
            "server hung up"
        );
        let resp = Json::parse(line.trim()).expect("valid frame");
        if resp.get("id").and_then(Json::as_i64) == Some(id) {
            return resp;
        }
    }
}

/// Asserts `node` has a descendant (or is itself) `cat.name`.
fn tree_contains(node: &Json, cat: &str, name: &str) -> bool {
    if node.get("cat").and_then(Json::as_str) == Some(cat)
        && node.get("name").and_then(Json::as_str) == Some(name)
    {
        return true;
    }
    node.get("children")
        .and_then(Json::as_array)
        .is_some_and(|cs| cs.iter().any(|c| tree_contains(c, cat, name)))
}

#[test]
fn warm_prove_over_the_wire_traces_gate_to_revalidation() {
    let service = CompileService::new();
    std::thread::scope(|scope| {
        let mut c = serve_pair(scope, &service);
        let mut r = BufReader::new(c.try_clone().unwrap());

        call_over_wire(
            &mut c,
            &mut r,
            1,
            "open",
            Json::obj([("uri", Json::str("t.anv")), ("text", Json::str(PROVE))]),
        );
        let pparams = [
            ("uri", Json::str("t.anv")),
            ("signal", Json::str("ok")),
            ("maxK", Json::int(4)),
        ];
        let cold = call_over_wire(&mut c, &mut r, 2, "prove", Json::obj(pparams.clone()));
        assert_ne!(
            cold.get("result")
                .and_then(|res| res.get("engine"))
                .and_then(Json::as_str),
            Some("cache"),
            "{cold}"
        );
        // Whitespace-only edit: the re-prove must revalidate the cached
        // certificate rather than rerun an engine.
        call_over_wire(
            &mut c,
            &mut r,
            3,
            "update",
            Json::obj([
                ("uri", Json::str("t.anv")),
                ("text", Json::str(PROVE.replace("; loop", ";  loop"))),
                ("version", Json::int(2)),
            ]),
        );
        let [p_uri, p_sig, p_k] = pparams.clone();
        let warm = call_over_wire(
            &mut c,
            &mut r,
            4,
            "prove",
            Json::obj([p_uri, p_sig, p_k, ("trace", Json::Bool(true))]),
        );
        let result = warm.get("result").unwrap_or_else(|| panic!("{warm}"));
        assert_eq!(
            result.get("engine").and_then(Json::as_str),
            Some("cache"),
            "{warm}"
        );

        // One single tree: gate admission → dispatch → session compile
        // (the warm AIG lookup) → proof-cache revalidation.
        let trace = result.get("spanTree").expect("spanTree in response");
        assert_eq!(trace.get("cat").and_then(Json::as_str), Some("anvild"));
        assert_eq!(trace.get("name").and_then(Json::as_str), Some("request"));
        assert_eq!(trace.get("detail").and_then(Json::as_str), Some("prove"));
        assert!(trace.get("startUs").and_then(Json::as_i64).is_some());
        assert!(trace.get("durUs").and_then(Json::as_i64).is_some());
        assert!(tree_contains(trace, "anvild", "gate.wait"), "{trace}");
        assert!(tree_contains(trace, "anvild", "dispatch"), "{trace}");
        assert!(tree_contains(trace, "core", "flat_aig"), "{trace}");
        assert!(tree_contains(trace, "prove", "revalidate"), "{trace}");

        // An untraced request carries no span tree.
        let plain = call_over_wire(&mut c, &mut r, 5, "prove", Json::obj(pparams));
        assert!(
            plain.get("result").unwrap().get("spanTree").is_none(),
            "{plain}"
        );

        // The metrics snapshot agrees with what this connection did:
        // span histograms were fed from the traced request, and the
        // request counter covers every frame sent so far.
        let metrics = call_over_wire(&mut c, &mut r, 6, "metrics", Json::Null);
        let counters = metrics
            .get("result")
            .and_then(|res| res.get("counters"))
            .expect("counters object");
        let requests = counters
            .get("anvild_requests_total")
            .and_then(Json::as_i64)
            .expect("request counter");
        assert!(requests >= 6, "{metrics}");
        let histograms = metrics
            .get("result")
            .and_then(|res| res.get("histograms"))
            .expect("histograms object");
        let traced_requests = histograms
            .get("span_anvild_request_us")
            .expect("traced request histogram");
        assert_eq!(
            traced_requests.get("count").and_then(Json::as_i64),
            Some(1),
            "{metrics}"
        );
        assert!(
            histograms.get("span_prove_revalidate_us").is_some(),
            "{metrics}"
        );

        call_over_wire(&mut c, &mut r, 9, "shutdown", Json::Null);
        drop(c);
    });
}

/// Every descendant of `node` (and `node` itself) named `cat.name`.
fn find_all<'j>(node: &'j Json, cat: &str, name: &str, out: &mut Vec<&'j Json>) {
    if node.get("cat").and_then(Json::as_str) == Some(cat)
        && node.get("name").and_then(Json::as_str) == Some(name)
    {
        out.push(node);
    }
    for c in node.get("children").and_then(Json::as_array).unwrap_or(&[]) {
        find_all(c, cat, name, out);
    }
}

#[test]
fn traced_cold_prove_shows_one_compile_and_two_engines_with_counters() {
    let service = CompileService::new();
    let mut notes = Vec::new();
    let open = service.handle(
        Incoming::request(
            1,
            "open",
            Json::obj([("uri", Json::str("c.anv")), ("text", Json::str(PROVE))]),
        ),
        &mut |n| notes.push(n),
    );
    assert!(open.expect("response").get("result").is_some());
    let resp = service
        .handle(
            Incoming::request(
                2,
                "prove",
                Json::obj([
                    ("uri", Json::str("c.anv")),
                    ("signal", Json::str("ok")),
                    ("maxK", Json::int(4)),
                    ("trace", Json::Bool(true)),
                ]),
            ),
            &mut |n| notes.push(n),
        )
        .expect("response");
    let result = resp.get("result").unwrap_or_else(|| panic!("{resp}"));
    assert_ne!(
        result.get("engine").and_then(Json::as_str),
        Some("cache"),
        "{resp}"
    );
    let trace = result.get("spanTree").expect("spanTree in response");

    // One compile serves the circuit and the proof-cache key.
    let mut compiles = Vec::new();
    find_all(trace, "core", "compile", &mut compiles);
    assert_eq!(compiles.len(), 1, "{trace}");

    let mut portfolios = Vec::new();
    find_all(trace, "prove", "portfolio", &mut portfolios);
    let [portfolio] = portfolios.as_slice() else {
        panic!("expected one prove.portfolio span: {trace}");
    };
    let mut engines: Vec<&Json> = portfolio
        .get("children")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|c| {
            c.get("cat").and_then(Json::as_str) == Some("prove")
                && c.get("name").and_then(Json::as_str) != Some("prepare")
        })
        .collect();
    engines.sort_by_key(|c| c.get("name").and_then(Json::as_str).map(str::to_string));
    let names: Vec<&str> = engines
        .iter()
        .filter_map(|c| c.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["pdr", "symbolic"], "{trace}");
    assert!(!tree_contains(trace, "prove", "explicit"), "{trace}");

    // Each engine span names its own outcome and its solver counters.
    for engine in engines {
        let detail = engine
            .get("detail")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("engine span without detail: {engine}"));
        let outcome = detail.split(' ').next().unwrap_or("");
        assert!(
            ["proved", "falsified", "unknown", "stopped"].contains(&outcome),
            "{detail}"
        );
        for counter in ["conflicts=", "decisions=", "propagations="] {
            assert!(detail.contains(counter), "{detail}");
        }
        if engine.get("name").and_then(Json::as_str) == Some("pdr") {
            for counter in ["sat_calls=", "obligations=", "ticks="] {
                assert!(detail.contains(counter), "{detail}");
            }
        }
    }
}

#[test]
fn traced_compile_over_handle_nests_core_passes() {
    let service = CompileService::new();
    let mut notes = Vec::new();
    let open = service.handle(
        Incoming::request(
            1,
            "open",
            Json::obj([("uri", Json::str("h.anv")), ("text", Json::str(GOOD))]),
        ),
        &mut |n| notes.push(n),
    );
    assert!(open.expect("response").get("result").is_some());
    let resp = service
        .handle(
            Incoming::request(
                2,
                "compile",
                Json::obj([("uri", Json::str("h.anv")), ("trace", Json::Bool(true))]),
            ),
            &mut |n| notes.push(n),
        )
        .expect("response");
    let trace = resp
        .get("result")
        .and_then(|r| r.get("spanTree"))
        .unwrap_or_else(|| panic!("{resp}"));
    assert_eq!(trace.get("name").and_then(Json::as_str), Some("request"));
    assert!(tree_contains(trace, "anvild", "dispatch"), "{trace}");
    assert!(tree_contains(trace, "core", "compile"), "{trace}");
    assert!(tree_contains(trace, "core", "parse"), "{trace}");
    assert!(tree_contains(trace, "core", "emit"), "{trace}");
    // Children nest: dispatch is a child of the root, not a sibling.
    let children = trace.get("children").and_then(Json::as_array).unwrap();
    assert!(children
        .iter()
        .any(|c| c.get("name").and_then(Json::as_str) == Some("dispatch")));
}

/// `span_<cat>_<name>_us` of every node of a wire span tree, with the
/// number of nodes of each.
fn span_keys(node: &Json, out: &mut std::collections::BTreeMap<String, u64>) {
    let part = |key: &str| {
        node.get(key)
            .and_then(Json::as_str)
            .unwrap_or("")
            .replace(|c: char| !c.is_ascii_alphanumeric() && c != '_', "_")
    };
    *out.entry(format!("span_{}_{}_us", part("cat"), part("name")))
        .or_default() += 1;
    for c in node.get("children").and_then(Json::as_array).unwrap_or(&[]) {
        span_keys(c, out);
    }
}

/// The count of every span histogram of `service`.
fn span_counts(service: &CompileService) -> std::collections::BTreeMap<String, u64> {
    service
        .metrics_registry()
        .snapshot()
        .histograms
        .into_iter()
        .filter(|(name, _)| name.starts_with("span_"))
        .map(|(name, h)| (name, h.count))
        .collect()
}

/// Any open capture makes every thread record spans, so a traced
/// request's capture also returns the spans of requests other threads
/// serve meanwhile. While a second thread runs an untraced cold prove of
/// the FIFO monitor on the same service, a traced prove must grow each
/// span histogram (`span_sat_solve_us` among them) by exactly the nodes
/// of that name in its own `spanTree`.
#[test]
fn a_traced_prove_beside_an_untraced_one_counts_only_its_own_spans() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let service = CompileService::new();
    let mut notes = Vec::new();
    let mut open = |uri: &str, text: String| {
        let resp = service.handle(
            Incoming::request(
                0,
                "open",
                Json::obj([("uri", Json::str(uri)), ("text", Json::str(text))]),
            ),
            &mut |n| notes.push(n),
        );
        assert!(resp.expect("response").get("result").is_some());
    };
    let prove = |id: i64, uri: &str, signal: &str, max_k: i64, trace: bool| {
        let params = Json::obj([
            ("uri", Json::str(uri)),
            ("signal", Json::str(signal)),
            ("maxK", Json::int(max_k)),
            ("trace", Json::Bool(trace)),
        ]);
        service
            .handle(Incoming::request(id, "prove", params), &mut |_| {})
            .expect("response")
    };
    for attempt in 0..8 {
        // Fresh proc names, so both proves are cold.
        let fifo = anvil::anvil_designs::fifo::anvil_source()
            .replace("fifo_anvil", &format!("fifo_mon{attempt}"));
        let reg_at = fifo.find("reg ").expect("the design declares registers");
        let end = fifo.rfind('}').expect("the proc is closed");
        let busy = format!(
            "{}reg mon : logic := 1;\n{}    loop {{ set mon := (*wr - *rd) <= {} }}\n{}",
            &fifo[..reg_at],
            &fifo[reg_at..end],
            anvil::anvil_designs::fifo::DEPTH,
            &fifo[end..]
        );
        open(&format!("busy{attempt}.anv"), busy);
        let count = format!(
            "proc count{attempt}() {{ reg c : logic[8]; reg ok : logic := 1; loop {{ \
             set ok := *c != 13 ; if *c == 9 {{ set c := 0 }} else {{ set c := *c + 1 }} }} }}"
        );
        open(&format!("count{attempt}.anv"), count);

        let (started, done) = (AtomicBool::new(false), AtomicBool::new(false));
        let (resp, overlapped, grew) = std::thread::scope(|s| {
            s.spawn(|| {
                started.store(true, Ordering::SeqCst);
                let resp = prove(1, &format!("busy{attempt}.anv"), "mon", 12, false);
                assert!(resp.get("result").is_some(), "{resp}");
                done.store(true, Ordering::SeqCst);
            });
            while !started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let before = span_counts(&service);
            let resp = prove(2, &format!("count{attempt}.anv"), "ok", 8, true);
            let overlapped = !done.load(Ordering::SeqCst);
            let mut grew = span_counts(&service);
            for (name, n) in &before {
                *grew.get_mut(name).expect("histograms are never removed") -= n;
            }
            grew.retain(|_, n| *n > 0);
            (resp, overlapped, grew)
        });
        let result = resp.get("result").unwrap_or_else(|| panic!("{resp}"));
        let mut own = std::collections::BTreeMap::new();
        span_keys(result.get("spanTree").expect("spanTree"), &mut own);
        assert_eq!(grew, own, "attempt {attempt}");
        assert!(
            own.get("span_sat_solve_us").is_some_and(|&n| n > 0),
            "{own:?}"
        );
        if overlapped {
            return;
        }
    }
    panic!("the untraced prove never outlasted the traced one");
}

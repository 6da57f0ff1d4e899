//! `anvil-client`: a scripted smoke client for the `anvild` daemon.
//!
//! ```sh
//! cargo run --release --example anvild -- --socket /tmp/anvild.sock &
//! cargo run --release --example anvil-client -- --socket /tmp/anvild.sock
//! ```
//!
//! Connects over the Unix socket and drives the full protocol surface,
//! printing every frame it sends and receives (the transcript CI
//! archives): open → cold compile → warm compile (asserting ZERO cache
//! misses) → comment edit → recompile (still zero misses) → broken edit
//! → compile failure with a streamed `diagnostics` notification →
//! pre-cancellation → `cacheStats` → `health` → `shutdown`. The health
//! probe also bounds the daemon's connection threads (`THREADS OK`:
//! `threadsStarted` ≤ `maxConcurrency` + `maxQueue` + 1 over this one
//! connection). Exits 0 and prints `SMOKE OK` only if every assertion
//! held.
//!
//! With `--overload-burst` (run against a server started with small
//! `--max-concurrency` / `--max-queue` and `--chaos`), the client also
//! clogs the worker slot with a stalled compile, fires a burst that the
//! server must shed with `OVERLOADED` (`-32004`), and retries the shed
//! request with exponential backoff plus seeded jitter until it
//! succeeds.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::process::exit;

use anvil::anvil_core::fault::splitmix64;
use anvil::anvild::{Incoming, Json};

fn usage() -> ! {
    eprintln!(
        "usage: anvil-client --socket <path> [--overload-burst] [--metrics-socket <path>]

Scripted smoke test against a running anvild; prints the full frame
transcript and `SMOKE OK` on success. `--overload-burst` additionally
exercises admission-control shedding and retry-with-backoff (requires a
server started with small --max-concurrency/--max-queue and --chaos).
`--metrics-socket` scrapes the server's Prometheus-style metrics socket
right before shutdown, prints the exposition, and asserts it is
consistent with the `metrics` JSON-RPC snapshot (`METRICS OK`)."
    );
    exit(2);
}

fn parse_args() -> (String, bool, Option<String>) {
    let mut socket = None;
    let mut burst = false;
    let mut metrics = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--socket" => match argv.next() {
                Some(path) => socket = Some(path),
                None => usage(),
            },
            "--overload-burst" => burst = true,
            "--metrics-socket" => match argv.next() {
                Some(path) => metrics = Some(path),
                None => usage(),
            },
            "-h" | "--help" => usage(),
            _ => usage(),
        }
    }
    (socket.unwrap_or_else(|| usage()), burst, metrics)
}

/// One connection: sends request frames, reads frames back until the
/// response with the matching id arrives, collecting notifications that
/// interleave. Every frame is printed to stdout as it crosses the wire.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    notifications: Vec<Json>,
}

impl Client {
    fn connect(path: &str) -> Client {
        let stream = match UnixStream::connect(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("anvil-client: cannot connect to `{path}`: {e}");
                exit(1);
            }
        };
        let reader = BufReader::new(stream.try_clone().expect("clone socket"));
        Client {
            reader,
            writer: stream,
            notifications: Vec::new(),
        }
    }

    /// Sends a frame without waiting for anything back.
    fn send(&mut self, frame: &Incoming) {
        let line = frame.to_frame().to_string();
        println!("--> {line}");
        writeln!(self.writer, "{line}").expect("socket write");
        self.writer.flush().expect("socket flush");
    }

    /// Sends a request and blocks until its response frame arrives;
    /// notifications seen in between accumulate in `self.notifications`.
    fn call(&mut self, id: i64, method: &str, params: Json) -> Json {
        self.send(&Incoming::request(id, method, params));
        self.wait_for(id)
    }

    /// Pulls an already-read response for `id` out of the buffer (the
    /// overload burst reads responses out of order).
    fn take_buffered(&mut self, id: i64) -> Option<Json> {
        let pos = self
            .notifications
            .iter()
            .position(|f| f.get("id").and_then(Json::as_i64) == Some(id))?;
        Some(self.notifications.remove(pos))
    }

    fn wait_for(&mut self, id: i64) -> Json {
        if let Some(frame) = self.take_buffered(id) {
            return frame;
        }
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line).expect("socket read") == 0 {
                eprintln!("anvil-client: server closed the connection");
                exit(1);
            }
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            println!("<-- {line}");
            let frame = Json::parse(line).expect("server sent invalid JSON");
            match frame.get("id").and_then(Json::as_i64) {
                Some(got) if got == id => return frame,
                _ => self.notifications.push(frame),
            }
        }
    }

    /// A `call` that retries on `OVERLOADED` (`-32004`) with exponential
    /// backoff and deterministic seeded jitter, honoring the server's
    /// `retryAfterMs` hint. Bounded attempts: a server shedding forever
    /// is a smoke failure, not an infinite loop.
    fn call_with_retry(
        &mut self,
        id: i64,
        method: &str,
        params: Json,
        seed: &mut u64,
    ) -> (Json, u32) {
        let mut backoff_ms = 25u64;
        for attempt in 0..6 {
            let resp = self.call(id, method, params.clone());
            let code = resp
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_i64);
            if code != Some(-32004) {
                return (resp, attempt);
            }
            let hint = resp
                .get("error")
                .and_then(|e| e.get("data"))
                .and_then(|d| d.get("retryAfterMs"))
                .and_then(Json::as_i64)
                .unwrap_or_else(|| fail("OVERLOADED response carried no retryAfterMs hint"))
                as u64;
            let base = hint.max(backoff_ms);
            let jitter = splitmix64(seed) % (base / 2 + 1);
            println!(
                "# shed; retrying in {} ms (attempt {})",
                base + jitter,
                attempt + 1
            );
            std::thread::sleep(std::time::Duration::from_millis(base + jitter));
            backoff_ms = (backoff_ms * 2).min(2_000);
        }
        fail("request still shed after 6 retries")
    }
}

/// Extracts `result.<key>` as an integer, failing the smoke run loudly.
fn result_int(resp: &Json, key: &str) -> i64 {
    resp.get("result")
        .and_then(|r| r.get(key))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| fail(&format!("response missing integer result.{key}: {resp}")))
}

fn cache_misses(resp: &Json) -> i64 {
    resp.get("result")
        .and_then(|r| r.get("cacheDelta"))
        .and_then(|d| d.get("misses"))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| fail(&format!("response missing cacheDelta.misses: {resp}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("SMOKE FAIL: {msg}");
    exit(1);
}

fn check(cond: bool, msg: &str) {
    if !cond {
        fail(msg);
    }
}

fn main() {
    let (path, overload_burst, metrics_socket) = parse_args();
    let mut client = Client::connect(&path);
    let uri = "smoke:fifo.anv";

    // A real design from the evaluation suite, compiled cold then warm.
    let (name, text) = anvil::anvil_designs::suite_sources()
        .into_iter()
        .find(|(name, _)| *name == "fifo")
        .unwrap_or_else(|| fail("fifo missing from suite_sources()"));
    println!("# smoke design: {name} ({} bytes)", text.len());

    let ping = client.call(1, "ping", Json::Null);
    check(
        ping.get("result").and_then(|r| r.get("ok")) == Some(&Json::Bool(true)),
        "ping did not answer ok:true",
    );

    client.call(
        2,
        "open",
        Json::obj([("uri", Json::str(uri)), ("text", Json::str(&text))]),
    );

    let cold = client.call(3, "compile", Json::obj([("uri", Json::str(uri))]));
    check(cache_misses(&cold) > 0, "cold compile reported zero misses");
    let sv = cold
        .get("result")
        .and_then(|r| r.get("systemverilog"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail("cold compile returned no systemverilog"));
    check(sv.contains("module"), "emitted SystemVerilog has no module");

    let warm = client.call(4, "compile", Json::obj([("uri", Json::str(uri))]));
    check(
        cache_misses(&warm) == 0,
        "warm compile of an unchanged file was not a pure cache hit",
    );

    // A comment-only edit must still be a pure warm compile: the cache
    // keys on per-proc fingerprints, not file bytes.
    let commented = format!("// smoke edit\n{text}");
    client.call(
        5,
        "update",
        Json::obj([
            ("uri", Json::str(uri)),
            ("text", Json::str(commented)),
            ("version", Json::int(2)),
        ]),
    );
    let edited = client.call(6, "compile", Json::obj([("uri", Json::str(uri))]));
    check(
        cache_misses(&edited) == 0,
        "comment-only edit caused cache misses",
    );

    // Prove a property cold, then re-prove after a whitespace-only edit:
    // the second answer must come from the proof cache (`engine:"cache"`)
    // after a one-call certificate revalidation.
    let puri = "smoke:prove.anv";
    let psrc = "proc main() { reg ok : logic; loop { set ok := 1 >> cycle 1 } }";
    client.call(
        20,
        "open",
        Json::obj([("uri", Json::str(puri)), ("text", Json::str(psrc))]),
    );
    let pparams = Json::obj([
        ("uri", Json::str(puri)),
        ("signal", Json::str("ok")),
        ("maxK", Json::int(4)),
    ]);
    let cold_prove = client.call(21, "prove", pparams.clone());
    let engine = cold_prove
        .get("result")
        .and_then(|r| r.get("engine"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail("cold prove reported no engine"));
    check(
        engine != "cache",
        "cold prove answered from the proof cache",
    );
    check(
        result_int(&cold_prove, "aigNodesAfterRewrite") <= result_int(&cold_prove, "aigNodes"),
        "rewrite pipeline grew the AIG",
    );
    client.call(
        22,
        "update",
        Json::obj([
            ("uri", Json::str(puri)),
            ("text", Json::str(psrc.replace("; loop", ";  loop"))),
            ("version", Json::int(2)),
        ]),
    );
    let warm_prove = client.call(23, "prove", pparams);
    check(
        warm_prove
            .get("result")
            .and_then(|r| r.get("engine"))
            .and_then(Json::as_str)
            == Some("cache"),
        "whitespace-edit re-prove was not a proof-cache hit",
    );
    check(
        result_int(&warm_prove, "depth") == result_int(&cold_prove, "depth"),
        "cached verdict disagrees with the cold prove",
    );

    // Break the file: compile must fail with COMPILE_FAILED and stream a
    // diagnostics notification carrying a resolved line/col.
    let broken = format!("{text}\nproc smoke_broken() {{ loop {{ ??? }} }}");
    client.call(
        7,
        "update",
        Json::obj([("uri", Json::str(uri)), ("text", Json::str(broken))]),
    );
    client.notifications.clear();
    let failed = client.call(8, "compile", Json::obj([("uri", Json::str(uri))]));
    let code = failed
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| fail("broken compile did not answer with an error"));
    check(code == -32000, "broken compile error code was not -32000");
    let diag_note = client
        .notifications
        .iter()
        .find(|n| {
            n.get("method").and_then(Json::as_str) == Some("diagnostics")
                && n.get("params")
                    .and_then(|p| p.get("diagnostics"))
                    .and_then(Json::as_array)
                    .is_some_and(|d| !d.is_empty())
        })
        .unwrap_or_else(|| fail("no non-empty diagnostics notification streamed"));
    let first = &diag_note.get("params").unwrap().get("diagnostics").unwrap();
    let line = first
        .as_array()
        .and_then(|d| d[0].get("line"))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| fail("diagnostic carries no resolved line"));
    check(line > 0, "diagnostic line was not resolved to 1-based");

    // Pre-cancellation: cancel id 9 before sending it; the compile must
    // come back REQUEST_CANCELLED (-32800) without running.
    client.call(100, "cancel", Json::obj([("id", Json::int(9))]));
    let cancelled = client.call(9, "compile", Json::obj([("uri", Json::str(uri))]));
    let code = cancelled
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| fail("pre-cancelled compile did not answer with an error"));
    check(code == -32800, "pre-cancelled compile was not -32800");

    let stats = client.call(10, "cacheStats", Json::Null);
    check(
        result_int(&stats, "poisoned") == 0,
        "smoke run poisoned a cache shard",
    );
    check(
        result_int(&stats, "openFiles") == 2,
        "expected two open files (design + prove smoke)",
    );
    // The proof stage is on the stats wire and saw the warm hit.
    let proof_hits = stats
        .get("result")
        .and_then(|r| r.get("proof"))
        .and_then(|p| p.get("hits"))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| fail("cacheStats has no proof stage row"));
    check(proof_hits >= 1, "proof cache recorded no hits");

    if overload_burst {
        run_overload_burst(&mut client, uri);
    }

    // Health probe: the daemon is idle and has recovered from nothing.
    let health = client.call(12, "health", Json::Null);
    check(
        health.get("result").and_then(|r| r.get("ok")) == Some(&Json::Bool(true)),
        "health did not answer ok:true",
    );
    check(
        result_int(&health, "inFlight") == 0,
        "health reports in-flight work on an idle daemon",
    );
    check(
        result_int(&health, "panicsRecovered") == 0,
        "smoke run tripped a handler panic",
    );
    if overload_burst {
        check(
            result_int(&health, "shed") > 0,
            "overload burst shed nothing",
        );
    }

    println!("HEALTH OK");

    // The connection holds one thread per outstanding heavy request
    // plus the one reading on, and the gate bounds outstanding requests.
    let bound = result_int(&health, "maxConcurrency") + result_int(&health, "maxQueue") + 1;
    let threads = result_int(&health, "threadsStarted");
    check(
        (1..=bound).contains(&threads),
        &format!("{threads} connection threads started, bound {bound}"),
    );
    println!("THREADS OK");

    if let Some(metrics_path) = &metrics_socket {
        scrape_metrics(&mut client, metrics_path);
    }

    client.call(11, "shutdown", Json::Null);
    println!("SMOKE OK");
}

/// Scrapes the daemon's Prometheus-style metrics socket and cross-checks
/// the exposition against the `metrics` JSON-RPC snapshot: both read the
/// same registry, so the request counter the JSON snapshot reports must
/// appear in the text scrape (modulo requests made in between).
fn scrape_metrics(client: &mut Client, metrics_path: &str) {
    let metrics = client.call(13, "metrics", Json::Null);
    let requests = metrics
        .get("result")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("anvild_requests_total"))
        .and_then(Json::as_i64)
        .unwrap_or_else(|| fail("metrics snapshot has no anvild_requests_total counter"));
    check(requests >= 13, "metrics undercounts this smoke session");
    check(
        metrics
            .get("result")
            .and_then(|r| r.get("histograms"))
            .and_then(|h| h.get("anvild_service_us"))
            .and_then(|h| h.get("p50"))
            .is_some(),
        "metrics snapshot has no service-time histogram",
    );

    let mut stream = match UnixStream::connect(metrics_path) {
        Ok(s) => s,
        Err(e) => fail(&format!(
            "cannot connect to metrics socket `{metrics_path}`: {e}"
        )),
    };
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .unwrap_or_else(|e| fail(&format!("metrics scrape read failed: {e}")));
    print!("{text}");
    for needle in [
        "# TYPE anvild_requests_total counter",
        "anvild_uptime_ms",
        "anvild_cache_hit_rate",
        "anvild_service_us_count",
    ] {
        check(
            text.contains(needle),
            &format!("metrics exposition is missing `{needle}`"),
        );
    }
    // The scrape happened after the JSON snapshot; the monotonic request
    // counter can only have grown.
    let scraped = text
        .lines()
        .find(|l| l.starts_with("anvild_requests_total "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or_else(|| fail("exposition has no anvild_requests_total sample"));
    check(
        scraped as i64 >= requests,
        "scraped request counter ran backwards vs the JSON snapshot",
    );
    println!("METRICS OK");
}

/// Clogs the single worker slot with a stalled compile, bursts more
/// compiles than the queue holds (the server must shed with `-32004` and
/// a `retryAfterMs` hint), then retries a shed request with backoff
/// until it succeeds. Requires `--max-concurrency 1 --max-queue 1
/// --chaos` on the server.
fn run_overload_burst(client: &mut Client, uri: &str) {
    println!("# overload burst: clog, shed, retry");
    // Fix the buffer first: earlier sections left it broken on purpose.
    let (_, text) = anvil::anvil_designs::suite_sources()
        .into_iter()
        .find(|(name, _)| *name == "fifo")
        .unwrap_or_else(|| fail("fifo missing from suite_sources()"));
    client.call(
        29,
        "update",
        Json::obj([("uri", Json::str(uri)), ("text", Json::str(&text))]),
    );

    // One stalled compile occupies the only worker slot...
    client.send(&Incoming::request(
        30,
        "compile",
        Json::obj([("uri", Json::str(uri)), ("chaosStallMs", Json::int(400))]),
    ));
    // ...and an unwaited burst overfills the one-deep queue.
    let burst: Vec<i64> = (31..36).collect();
    for &id in &burst {
        client.send(&Incoming::request(
            id,
            "compile",
            Json::obj([("uri", Json::str(uri))]),
        ));
    }
    let mut shed = Vec::new();
    for &id in std::iter::once(&30).chain(&burst) {
        let resp = client.wait_for(id);
        let code = resp
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_i64);
        if code == Some(-32004) {
            check(
                resp.get("error")
                    .and_then(|e| e.get("data"))
                    .and_then(|d| d.get("retryAfterMs"))
                    .and_then(Json::as_i64)
                    > Some(0),
                "shed response carried no positive retryAfterMs",
            );
            shed.push(id);
        } else {
            check(
                resp.get("result").is_some() || code == Some(-32800),
                "burst compile neither succeeded, was shed, nor was cancelled",
            );
        }
    }
    check(
        !shed.is_empty(),
        "burst of 6 compiles against a 1+1 server shed nothing",
    );

    // A shed request retried with backoff+jitter eventually succeeds.
    let mut seed = 0x5eed_u64;
    let (resp, attempts) = client.call_with_retry(
        40,
        "compile",
        Json::obj([("uri", Json::str(uri))]),
        &mut seed,
    );
    check(
        resp.get("result").is_some(),
        "retried compile did not succeed",
    );
    println!("# shed request succeeded after {attempts} retries");
}

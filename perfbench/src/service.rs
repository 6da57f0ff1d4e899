//! The closed-loop load generator shared by `edit_compile` and `prove_mix`: one
//! generator thread per connection, each sending its next user action
//! only after the previous one's responses arrived.

use std::collections::BTreeMap;
use std::time::Instant;

use anvild::Json;

use crate::util::{
    cpu_ms, fnv1a, ms_since, peak_rss_mb, reset_peak_rss, round_slice, HostTicks, Round, ROUNDS,
};
use crate::wire::{self, json_str, Conn, Frames, Req, Service};

/// A traced pass traces every `TRACE_EVERY`-th action of one connection.
/// anvil-trace captures are process-wide and keep a span buffer for every
/// thread that ever recorded, and anvild starts threads per request, so
/// each traced request rescans and retains more: tracing every request of
/// both connections took a prove_mix run past 130 s and 800 MB. One
/// connection keeps two captures from overlapping; the stride bounds the
/// threads that register buffers.
const TRACED_CONN: usize = 0;
const TRACE_EVERY: usize = 10;

fn is_traced(conn: usize, action: usize) -> bool {
    conn == TRACED_CONN && action.is_multiple_of(TRACE_EVERY)
}

/// What a response must contain to count as correct.
pub enum Expect {
    /// Any success response (`open` / `update` acknowledgements).
    Ok,
    /// A compile success whose SystemVerilog hashes to `hash` (FNV-1a of
    /// the JSON-escaped string) and is `bytes` long.
    Sv { hash: u64, bytes: usize },
    /// A `diagnostics` success reporting this many diagnostics.
    DiagCount(i64),
    /// `COMPILE_FAILED` with exactly these diagnostics, as sorted
    /// (line, message) pairs.
    CompileFailed(Vec<(i64, String)>),
    /// A prove verdict; `depth` for falsified targets; `cache` when the
    /// answer must come from the proof cache.
    Verdict {
        proved: bool,
        depth: Option<i64>,
        cache: bool,
    },
}

impl Expect {
    /// The expectation for a compile of SystemVerilog text `sv`.
    pub fn sv(sv: &str) -> Expect {
        let esc = wire::json_str(sv);
        Expect::Sv {
            hash: fnv1a(&esc.as_bytes()[1..esc.len() - 1]),
            bytes: sv.len(),
        }
    }

    /// Flips the expectation (self-test: a corrupted expected output).
    pub fn corrupt(&mut self) {
        match self {
            Expect::Sv { hash, .. } => *hash ^= 1,
            Expect::DiagCount(n) => *n += 1,
            Expect::CompileFailed(diags) => diags.push((0, "corrupted".to_string())),
            Expect::Verdict { proved, .. } => *proved = !*proved,
            Expect::Ok => {}
        }
    }
}

/// One user action: its requests (written back to back) and one
/// expectation per request.
pub struct Action {
    pub kind: &'static str,
    pub reqs: Vec<(Req, Expect)>,
}

/// A request carrying a file's full text (`open` or `update`).
pub fn text_req(method: &'static str, uri: &str, text: &str) -> (Req, Expect) {
    let params = format!("\"uri\":{},\"text\":{}", json_str(uri), json_str(text));
    (Req::new(method, params), Expect::Ok)
}

/// A request naming only a file.
pub fn uri_req(method: &'static str, uri: &str, expect: Expect) -> (Req, Expect) {
    (
        Req::new(method, format!("\"uri\":{}", json_str(uri))),
        expect,
    )
}

/// One file's set-up: `open`, then its cold `compile`.
pub fn open_and_compile(uri: &str, text: &str, compiled: Expect) -> [Action; 2] {
    [
        Action {
            kind: "open",
            reqs: vec![text_req("open", uri, text)],
        },
        Action {
            kind: "cold_compile",
            reqs: vec![uri_req("compile", uri, compiled)],
        },
    ]
}

/// Per-connection action lists.
pub struct Plan {
    pub setup: Vec<Vec<Action>>,
    pub warmup: Vec<Vec<Action>>,
    pub timed: Vec<Vec<Action>>,
}

impl Plan {
    pub fn timed_count(&self) -> usize {
        self.timed.iter().map(Vec::len).sum()
    }
}

/// One timed action as observed.
pub struct Observed {
    pub latency_ms: f64,
    pub lines: Vec<String>,
    pub req_bytes: usize,
    pub resp_bytes: usize,
}

/// Everything one pass over a plan measured.
pub struct Pass {
    pub setup_s: f64,
    pub rounds: Vec<Round>,
    /// Per connection, in plan order.
    pub observed: Vec<Vec<Observed>>,
    pub cache_before: Json,
    pub cache_after: Json,
    pub health_after: Json,
    pub steal_frac: f64,
    pub gen_cpu_frac: f64,
    /// Failed setup or warm-up actions (the timed ones are checked later).
    pub untimed_failures: Vec<String>,
}

fn result_of(line: &str) -> Result<Json, String> {
    let v = Json::parse(line).map_err(|e| format!("bad response frame: {e}"))?;
    v.get("result")
        .cloned()
        .ok_or_else(|| format!("error response: {}", clip(line)))
}

fn clip(s: &str) -> String {
    s.chars().take(240).collect()
}

fn run_untimed(
    conn: &mut Conn,
    actions: &[Action],
    failures: &mut Vec<String>,
) -> Result<(), String> {
    for a in actions {
        let reqs: Vec<Req> = a.reqs.iter().map(|(r, _)| r.clone()).collect();
        let frames = conn.frames(&reqs, false);
        let (lines, _) = conn.exchange(&frames)?;
        if let Some(f) = check_action(a, &lines) {
            failures.push(f);
        }
    }
    Ok(())
}

/// Starts a service and runs the plan's setup on it: `open` plus the cold
/// compile of every file, connection after connection.
fn set_up(plan: &Plan, tag: &str) -> Result<(Service, Vec<Conn>, f64, Vec<String>), String> {
    let t = Instant::now();
    let service = Service::start(tag)?;
    let mut conns = Vec::new();
    for c in 0..plan.timed.len() {
        conns.push(service.connect(c)?);
    }
    let mut failures = Vec::new();
    for (conn, actions) in conns.iter_mut().zip(&plan.setup) {
        run_untimed(conn, actions, &mut failures)?;
    }
    Ok((service, conns, t.elapsed().as_secs_f64(), failures))
}

/// Set-up time alone, on a throwaway service.
pub fn setup_only(plan: &Plan, tag: &str) -> Result<f64, String> {
    let (service, conns, setup_s, failures) = set_up(plan, tag)?;
    drop(conns);
    service.finish()?;
    match failures.first() {
        Some(f) => Err(format!("set-up failed: {f}")),
        None => Ok(setup_s),
    }
}

/// One pass: set-up, untimed warm-up, then the timed closed loop.
/// `after_round` runs between rounds, outside their timing.
pub fn run_pass(
    plan: &Plan,
    traced: bool,
    tag: &str,
    after_round: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Pass, String> {
    let (service, mut conns, setup_s, mut untimed_failures) = set_up(plan, tag)?;
    std::thread::scope(|s| -> Result<(), String> {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&plan.warmup)
            .map(|(conn, actions)| {
                s.spawn(move || {
                    let mut failures = Vec::new();
                    run_untimed(conn, actions, &mut failures).map(|_| failures)
                })
            })
            .collect();
        for h in handles {
            untimed_failures.extend(h.join().expect("warm-up thread panicked")?);
        }
        Ok(())
    })?;
    let cache_before = result_of(&conns[0].call(Req::new("cacheStats", String::new()))?)?;

    // Frames are serialized before the clock starts.
    let frames: Vec<Vec<Frames>> = conns
        .iter_mut()
        .zip(&plan.timed)
        .enumerate()
        .map(|(c, (conn, actions))| {
            actions
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let reqs: Vec<Req> = a.reqs.iter().map(|(r, _)| r.clone()).collect();
                    conn.frames(&reqs, traced && is_traced(c, i))
                })
                .collect()
        })
        .collect();
    let pid = service.pid();
    let mut gen_cpu_ms = 0.0;
    let host = HostTicks::now();
    let mut observed: Vec<Vec<Observed>> = frames.iter().map(|_| Vec::new()).collect();
    let mut rounds = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS {
        reset_peak_rss(&pid);
        let cpu0 = cpu_ms(&pid);
        let gen0 = cpu_ms("self");
        let t = Instant::now();
        let got = std::thread::scope(|s| -> Result<Vec<Vec<Observed>>, String> {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(&frames)
                .map(|(conn, frames)| {
                    s.spawn(move || -> Result<Vec<Observed>, String> {
                        let frames = round_slice(frames, r);
                        let mut out = Vec::with_capacity(frames.len());
                        for f in frames {
                            let t = Instant::now();
                            let (lines, resp_bytes) = conn.exchange(f)?;
                            out.push(Observed {
                                latency_ms: ms_since(t),
                                lines,
                                req_bytes: f.bytes.len(),
                                resp_bytes,
                            });
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        })?;
        rounds.push(Round {
            wall_s: t.elapsed().as_secs_f64(),
            cpu_ms: cpu_ms(&pid) - cpu0,
            peak_rss_mb: peak_rss_mb(&pid),
            lat_ms: got.iter().flatten().map(|o| o.latency_ms).collect(),
        });
        gen_cpu_ms += cpu_ms("self") - gen0;
        for (all, part) in observed.iter_mut().zip(got) {
            all.extend(part);
        }
        after_round()?;
    }
    let wall_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let gen_cpu_frac = gen_cpu_ms / (wall_s * 1e3);
    let steal_frac = host.steal_frac_since();
    let cache_after = result_of(&conns[0].call(Req::new("cacheStats", String::new()))?)?;
    let health_after = result_of(&conns[0].call(Req::new("health", String::new()))?)?;
    drop(conns);
    service.finish()?;
    Ok(Pass {
        setup_s,
        rounds,
        observed,
        cache_before,
        cache_after,
        health_after,
        steal_frac,
        gen_cpu_frac,
        untimed_failures,
    })
}

/// Checks one action's responses; `Some(reason)` on the first mismatch.
pub fn check_action(action: &Action, lines: &[String]) -> Option<String> {
    for ((req, expect), line) in action.reqs.iter().zip(lines) {
        if let Err(e) = check(expect, line) {
            return Some(format!("{} ({}): {e}", action.kind, req.method));
        }
    }
    None
}

fn check(expect: &Expect, line: &str) -> Result<(), String> {
    match expect {
        Expect::Ok => ok_or(wire::is_ok(line), line),
        Expect::Sv { hash, bytes } => {
            ok_or(wire::is_ok(line), line)?;
            let sv = wire::raw_string(line, "systemverilog").ok_or("no systemverilog")?;
            if fnv1a(sv.as_bytes()) == *hash {
                Ok(())
            } else {
                Err(format!(
                    "SystemVerilog differs from the monolithic compile ({} vs {bytes} bytes escaped/raw)",
                    sv.len()
                ))
            }
        }
        Expect::DiagCount(n) => {
            ok_or(wire::is_ok(line), line)?;
            match wire::raw_int(line, "count") {
                Some(c) if c == *n => Ok(()),
                other => Err(format!("diagnostics count {other:?}, expected {n}")),
            }
        }
        Expect::CompileFailed(want) => {
            let v = Json::parse(line).map_err(|e| e.to_string())?;
            let err = v
                .get("error")
                .ok_or("expected COMPILE_FAILED, got a result")?;
            let code = err.get("code").and_then(Json::as_i64);
            if code != Some(anvild::COMPILE_FAILED) {
                return Err(format!("error code {code:?}, expected COMPILE_FAILED"));
            }
            let mut got: Vec<(i64, String)> = err
                .get("data")
                .and_then(|d| d.get("diagnostics"))
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|d| {
                    (
                        d.get("line").and_then(Json::as_i64).unwrap_or(-1),
                        d.get("message")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect();
            got.sort();
            if got == *want {
                Ok(())
            } else {
                Err(format!(
                    "diagnostics {got:?}, the monolithic checker gives {want:?}"
                ))
            }
        }
        Expect::Verdict {
            proved,
            depth,
            cache,
        } => {
            ok_or(wire::is_ok(line), line)?;
            let verdict = wire::raw_string(line, "verdict").unwrap_or("");
            let want = if *proved { "proved" } else { "falsified" };
            if verdict != want {
                return Err(format!("verdict `{verdict}`, expected `{want}`"));
            }
            if let Some(d) = depth {
                let got = wire::raw_int(line, "depth");
                if got != Some(*d) {
                    return Err(format!("falsified at depth {got:?}, expected {d}"));
                }
            }
            let engine = wire::raw_string(line, "engine").unwrap_or("");
            if *cache != (engine == "cache") {
                return Err(format!("engine `{engine}` (cache expected: {cache})"));
            }
            Ok(())
        }
    }
}

fn ok_or(ok: bool, line: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("error response: {}", clip(line)))
    }
}

/// Failures of a pass's timed actions, plus its set-up and warm-up ones.
pub fn failures(plan: &Plan, pass: &Pass) -> Vec<String> {
    let mut out = pass.untimed_failures.clone();
    for (actions, observed) in plan.timed.iter().zip(&pass.observed) {
        for (a, o) in actions.iter().zip(observed) {
            if let Some(f) = check_action(a, &o.lines) {
                out.push(f);
            }
        }
    }
    out
}

/// Query-cache counters accrued during the timed part, as exact counts.
pub fn cache_counts(pass: &Pass) -> BTreeMap<String, f64> {
    let get = |v: &Json, stage: &str, field: &str| {
        v.get(stage)
            .and_then(|s| s.get(field))
            .and_then(Json::as_i64)
            .unwrap_or(0)
    };
    let mut out = BTreeMap::new();
    let (mut hits, mut misses) = (0, 0);
    for (stage, name) in [
        ("check", "check"),
        ("optIr", "opt_ir"),
        ("lower", "lower"),
        ("emit", "emit"),
        ("aig", "aig"),
        ("proof", "proof"),
    ] {
        let h = get(&pass.cache_after, stage, "hits") - get(&pass.cache_before, stage, "hits");
        let m = get(&pass.cache_after, stage, "misses") - get(&pass.cache_before, stage, "misses");
        if !matches!(stage, "aig" | "proof") {
            hits += h;
            misses += m;
        }
        out.insert(format!("core.cache.{name}.hits"), h as f64);
        out.insert(format!("core.cache.{name}.misses"), m as f64);
    }
    out.insert(
        "core.cache.evictions".to_string(),
        (get(&pass.cache_after, "totals", "evictions")
            - get(&pass.cache_before, "totals", "evictions")) as f64,
    );
    out.insert(
        "core.cache.hit_ratio".to_string(),
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
    );
    out
}

/// Maps a span to the per-layer time it belongs to.
fn layer_of(cat: &str, name: &str, detail: &str) -> Option<&'static str> {
    let miss = detail.ends_with(" miss");
    Some(match (cat, name) {
        ("anvild", "gate.wait") => "anvild.gate_wait_ms",
        ("anvild", "dispatch") => "anvild.dispatch_ms",
        ("core", "compile") => "core.compile_self_ms",
        ("core", "parse") => "syntax.parse_ms",
        ("core", "check.unit") if miss => "typeck.check_ms",
        ("core", "optimize.unit") if miss => "ir.optimize_ms",
        ("core", "lower.unit") if miss => "codegen.lower_ms",
        ("core", "emit") | ("core", "emit.chunk") => "rtl.emit_ms",
        ("core", "flat_aig") if miss => "smt.blast_ms",
        ("aig", "rewrite" | "fraig" | "sweep") => "smt.optimize_ms",
        ("sat", "solve") => "smt.sat_ms",
        ("prove", "prepare") => "verify.prepare_ms",
        ("prove", "portfolio") => "verify.portfolio_ms",
        ("prove", "revalidate") => "verify.revalidate_ms",
        ("prove", "symbolic") => "verify.symbolic_ms",
        ("prove", "pdr") | ("pdr", "frame") => "verify.pdr_ms",
        ("prove", "explicit") => "verify.explicit_ms",
        _ => return None,
    })
}

/// Per-layer sums from the span trees of a traced pass.
#[derive(Default)]
pub struct TraceSums {
    /// Self time per layer, milliseconds, summed over the run.
    pub layer_ms: BTreeMap<&'static str, f64>,
    /// Traced actions, their client latency in the traced pass and in the
    /// untraced one, and their root (`anvild.request`) span time.
    pub actions: usize,
    pub latency_ms: f64,
    pub base_latency_ms: f64,
    pub request_ms: f64,
    pub truncated: usize,
    pub pdr_frames: usize,
    pub prove_requests: usize,
    pub prove_compiles: usize,
}

fn self_time_walk(node: &Json, sums: &mut TraceSums, compiles: &mut usize) {
    let num = |n: &Json, k: &str| n.get(k).and_then(Json::as_i64).unwrap_or(0);
    let s = |n: &Json, k: &str| n.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let (start, dur) = (num(node, "startUs"), num(node, "durUs"));
    let (cat, name, detail) = (s(node, "cat"), s(node, "name"), s(node, "detail"));
    let children = node.get("children").and_then(Json::as_array).unwrap_or(&[]);
    let mut iv: Vec<(i64, i64)> = children
        .iter()
        .map(|c| {
            let cs = num(c, "startUs").max(start);
            (
                cs,
                (num(c, "startUs") + num(c, "durUs"))
                    .min(start + dur)
                    .max(cs),
            )
        })
        .collect();
    iv.sort_unstable();
    let (mut covered, mut reach) = (0, i64::MIN);
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    if let Some(layer) = layer_of(&cat, &name, &detail) {
        *sums.layer_ms.entry(layer).or_insert(0.0) += (dur - covered).max(0) as f64 / 1e3;
    }
    if cat == "pdr" && name == "frame" {
        sums.pdr_frames += 1;
    }
    if cat == "core" && name == "compile" {
        *compiles += 1;
    }
    for c in children {
        self_time_walk(c, sums, compiles);
    }
}

/// Walks the span trees of the traced actions; `base` is the untraced pass
/// over the same plan.
pub fn trace_sums(plan: &Plan, base: &Pass, pass: &Pass) -> TraceSums {
    let mut sums = TraceSums::default();
    let c = TRACED_CONN;
    let runs = plan.timed[c]
        .iter()
        .zip(&pass.observed[c])
        .zip(&base.observed[c]);
    for (_, ((a, o), b)) in runs.enumerate().filter(|(i, _)| is_traced(c, *i)) {
        sums.actions += 1;
        sums.latency_ms += o.latency_ms;
        sums.base_latency_ms += b.latency_ms;
        for ((req, _), line) in a.reqs.iter().zip(&o.lines) {
            if line.contains("\"spanTreeTruncated\":true") {
                sums.truncated += 1;
            }
            let Some(tree) = wire::raw_object(line, "spanTree").and_then(|t| Json::parse(t).ok())
            else {
                continue;
            };
            sums.request_ms += tree.get("durUs").and_then(Json::as_i64).unwrap_or(0) as f64 / 1e3;
            let mut compiles = 0;
            self_time_walk(&tree, &mut sums, &mut compiles);
            if req.method == "prove" {
                sums.prove_requests += 1;
                sums.prove_compiles += compiles;
            }
        }
    }
    sums
}

/// Times `anvild::parse_incoming` on every frame the plan's timed actions
/// send, in milliseconds per action.
pub fn frame_parse_ms(plan: &Plan) -> f64 {
    let mut conn_ids = 0i64;
    let mut total = 0.0;
    let mut n = 0usize;
    for actions in &plan.timed {
        for a in actions {
            for (req, _) in &a.reqs {
                conn_ids += 1;
                let frame = format!(
                    "{{\"jsonrpc\":\"2.0\",\"id\":{conn_ids},\"method\":\"{}\",\"params\":{{{}}}}}",
                    req.method, req.params
                );
                let t = Instant::now();
                let parsed = anvild::parse_incoming(std::hint::black_box(&frame));
                total += ms_since(t);
                assert!(parsed.is_ok(), "the benchmark sent a malformed frame");
            }
            n += 1;
        }
    }
    total / n.max(1) as f64
}

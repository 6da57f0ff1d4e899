//! The compile service: method dispatch, the versioned file registry,
//! request cancellation, deadlines, admission control, the watchdog,
//! and the newline-delimited serve loop.
//!
//! One [`CompileService`] owns one [`Session`] — and therefore one
//! sharded query cache — shared by every request on every connection.
//! A warm `compile` of an unchanged (or whitespace-edited) file is a
//! pure cache hit regardless of which client sends it; the `cacheDelta`
//! member of each compile response makes that observable on the wire.
//!
//! # Crash and cancellation safety
//!
//! Every request handler runs under `catch_unwind`: a panicking compile
//! produces an `internal error` response for *that request* and the
//! daemon keeps serving (the session's cache recovers poisoned shards
//! by itself, see `anvil_core`'s cache docs). Requests carrying an id
//! register a cooperative stop flag keyed by that id; the `cancel`
//! method raises the flag. Flags are scoped to their connection: a
//! `cancel` reaches only requests its own connection sent, so clients
//! may number their requests alike. Each request runs under one
//! [`Control`] (its stop flag and deadline), handed to every stage it
//! runs — the compile pipeline ([`Session::compile_with`],
//! [`Session::check`], [`Session::compile_flat_aig`]) polls it at unit
//! boundaries and the prover in its engine loops. A `cancel` that
//! arrives before its request pre-raises the flag, so cancelling is
//! never racy from the client's point of view. Ids must not be reused
//! after cancellation (a pre-raised flag for an id lingers until that id
//! is seen once, or until its connection closes).
//!
//! # Overload and deadline safety
//!
//! Any request may carry a `deadlineMs` param: a monotonic [`Deadline`]
//! armed when the request registers (so queue wait counts against it)
//! and polled by the compile pipeline and every prover engine alongside
//! the stop flag. Expiry answers `DEADLINE_EXCEEDED` (`-32003`), with
//! partial progress in `error.data` where there is some. Heavy methods
//! (`compile`, `diagnostics`, `prove`) pass through a bounded admission
//! gate on the serve loop — beyond `max_concurrency` running plus
//! `max_queue` waiting, requests are shed immediately with `OVERLOADED`
//! (`-32004`) and a `retryAfterMs` hint, so the daemon answers fast even
//! when it cannot answer yes. A per-connection watchdog raises the stop
//! flag of any request that overruns its deadline by the configured
//! grace, and the `health` method exposes the counters ([`ServiceStats`])
//! that make all of this observable.
//!
//! # Threads
//!
//! [`CompileService::serve`] serves a connection with leader/follower
//! threads. The thread that reads a heavy request runs it, after handing
//! the reader to a waiting follower, so no request waits for a thread to
//! be created or woken before it runs. A connection starts a thread only
//! when no follower waits, which bounds it to one thread per outstanding
//! heavy request plus one; a closed-loop client reuses two.

use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;
use std::time::{Duration, Instant};

use anvil_core::fault::{FaultKind, FaultPlan};
use anvil_core::{CacheStats, CompileError, Control, Deadline, Interrupt, Session};
use anvil_rtl::{Expr, Module};
use anvil_syntax::WireDiagnostic;
use anvil_verify::{
    prove_portfolio, render_trace, revalidate_certificate, ProveResult, ProveStats, Prover,
};

use crate::gate::{Admission, AdmissionGate, ServiceConfig, ServiceCounters, ServiceStats};
use crate::json::Json;
use crate::proto::{
    self, error_response, notification, parse_incoming, Incoming, RpcError, COMPILE_FAILED,
    DEADLINE_EXCEEDED, FILE_NOT_OPEN, INTERNAL_ERROR, INVALID_REQUEST, METHOD_NOT_FOUND,
    OVERLOADED, PARSE_ERROR, PROVE_FAILED, REQUEST_CANCELLED,
};

/// Wire-protocol version reported by `ping`.
pub const PROTOCOL_VERSION: i64 = 1;

/// The longest frame [`CompileService::serve`] reads, in bytes before
/// the newline. The largest suite source is 12 KB, so 16 MiB is over a
/// thousand times any real frame; a longer line is skipped to its
/// newline without being buffered and answered with `INVALID_REQUEST`.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// How often the serve-loop watchdog scans the in-flight table.
const WATCHDOG_TICK_MS: u64 = 10;

/// Span cap for `trace: true` responses: a prove request can record
/// tens of thousands of SAT-level spans; the response keeps the
/// earliest (coarsest) ones and flags `spanTreeTruncated`.
const MAX_TRACE_SPANS: usize = 4096;

/// Stack size of the connection threads, rather than the
/// platform default (2 MiB, or `RUST_MIN_STACK`). The compile passes
/// recurse once per nesting level of the source. At the parser's limit
/// of 256 levels, the deepest-measured sources (256 prefix operators or
/// `>>` items) need 0.44 MiB of stack through every compile pass in a
/// release build and 7.3 MiB in the unoptimised test profile; 256
/// parentheses or blocks need 1.2 and 1.3 MiB, and a 256-link `else if`
/// chain 4–8 MiB unoptimised. 16 MiB covers both profiles with room to
/// spare. Every connection thread gets it, since any of them may run a
/// heavy request; the threads live as long as their connection, so the
/// stacks are mapped once per thread, not once per request.
const WORKER_STACK_BYTES: usize = 16 << 20;

/// One open file: the registry holds full-text versioned buffers (the
/// `sus-compiler`-style `add_file`/`update_file` model — full-text
/// replacement, no incremental deltas; the fingerprint cache already
/// makes an unchanged-proc recompile free, so deltas would only save
/// wire bytes).
struct FileEntry {
    text: Arc<String>,
    version: i64,
}

/// One in-flight (or pre-cancelled) request: its stop flag, its armed
/// deadline, and what the watchdog needs to spot an overdue request.
struct Inflight {
    stop: Arc<AtomicBool>,
    deadline: Deadline,
    method: String,
    /// The watchdog raises each overdue request's flag once, not every
    /// scan tick.
    watchdog_hit: bool,
}

impl Inflight {
    fn new(method: &str, deadline: Deadline) -> Inflight {
        Inflight {
            stop: Arc::new(AtomicBool::new(false)),
            deadline,
            method: method.to_string(),
            watchdog_hit: false,
        }
    }
}

/// The persistent compile service behind `anvild`.
///
/// Owns the shared [`Session`], the file registry, the in-flight
/// request table, and the admission gate. All methods are `&self` and
/// internally synchronised: one service instance serves any number of
/// concurrent connections ([`CompileService::serve`] is `&self` too).
pub struct CompileService {
    session: Session,
    config: ServiceConfig,
    gate: AdmissionGate,
    counters: ServiceCounters,
    files: Mutex<HashMap<String, FileEntry>>,
    /// In-flight (or pre-cancelled) requests, keyed by connection and
    /// the compact serialization of the request id.
    inflight: Mutex<HashMap<InflightKey, Inflight>>,
    /// The key the next [`CompileService::serve`] connection gets.
    next_conn: AtomicU64,
    shutdown: AtomicBool,
    /// Installed fault plan for the `server.dispatch` chaos seam; the
    /// armed flag keeps the uninstalled fast path at one relaxed load.
    faults: Mutex<Option<Arc<FaultPlan>>>,
    faults_armed: AtomicBool,
}

impl Default for CompileService {
    fn default() -> Self {
        CompileService::new()
    }
}

impl CompileService {
    /// A service over a fresh default [`Session`].
    pub fn new() -> CompileService {
        CompileService::with_session(Session::new())
    }

    /// A service over a configured session (options, externs, cache
    /// capacity) with default service limits.
    pub fn with_session(session: Session) -> CompileService {
        CompileService::with_config(session, ServiceConfig::default())
    }

    /// A service with explicit overload / deadline / watchdog tunables.
    pub fn with_config(session: Session, config: ServiceConfig) -> CompileService {
        let gate = AdmissionGate::new(config.max_concurrency, config.max_queue);
        CompileService {
            session,
            config,
            gate,
            counters: ServiceCounters::new(),
            files: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(DIRECT_CONN + 1),
            shutdown: AtomicBool::new(false),
            faults: Mutex::new(None),
            faults_armed: AtomicBool::new(false),
        }
    }

    /// The shared session (tests inspect its cache stats directly).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The service limits this instance runs under.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Whether `shutdown` has been requested.
    pub fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Number of files currently open in the registry.
    pub fn open_files(&self) -> usize {
        self.lock_files().len()
    }

    /// A snapshot of the operational counters the `health` method
    /// reports.
    pub fn service_stats(&self) -> ServiceStats {
        let (in_flight, queued) = self.gate.gauges();
        ServiceStats {
            uptime_ms: self.counters.uptime_ms(),
            in_flight,
            queued,
            requests: self.counters.requests.get(),
            shed: self.counters.shed.get(),
            deadline_expired: self.counters.deadline_expired.get(),
            watchdog_fired: self.counters.watchdog_fired.get(),
            panics_recovered: self.counters.panics_recovered.get(),
            cancelled: self.counters.cancelled.get(),
            completed: self.counters.completed.get(),
            threads_started: self.counters.threads_started.get(),
        }
    }

    /// The metrics registry every stat surface reads from: the service
    /// counters live in it, traced requests fold their span durations
    /// into it, and `health` / `cacheStats` / `metrics` / the
    /// Prometheus exposition are all views of one
    /// [`anvil_trace::Snapshot`] of it.
    pub fn metrics_registry(&self) -> &Arc<anvil_trace::Registry> {
        self.counters.registry()
    }

    /// Syncs the gauges derived from other subsystems (query-cache
    /// stage counters, hit rate, gate occupancy, open files, uptime)
    /// into the registry, then snapshots it.
    fn refreshed_snapshot(&self) -> anvil_trace::Snapshot {
        let reg = self.counters.registry();
        let stats = self.session.cache_stats();
        for (name, c) in [
            ("check", stats.check),
            ("opt_ir", stats.opt_ir),
            ("lower", stats.lower),
            ("emit", stats.emit),
            ("aig", stats.aig),
            ("proof", stats.proof),
        ] {
            reg.gauge(&format!("anvild_cache_{name}_hits"))
                .set(c.hits as f64);
            reg.gauge(&format!("anvild_cache_{name}_misses"))
                .set(c.misses as f64);
            reg.gauge(&format!("anvild_cache_{name}_evictions"))
                .set(c.evictions as f64);
        }
        let (hits, misses) = (stats.hits(), stats.misses());
        let rate = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        reg.gauge("anvild_cache_hits").set(hits as f64);
        reg.gauge("anvild_cache_misses").set(misses as f64);
        reg.gauge("anvild_cache_evictions")
            .set(stats.evictions() as f64);
        reg.gauge("anvild_cache_poisoned")
            .set(stats.poisoned as f64);
        reg.gauge("anvild_cache_hit_rate").set(rate);
        let (in_flight, queued) = self.gate.gauges();
        reg.gauge("anvild_in_flight").set(in_flight as f64);
        reg.gauge("anvild_queued").set(queued as f64);
        reg.gauge("anvild_open_files").set(self.open_files() as f64);
        reg.gauge("anvild_uptime_ms")
            .set(self.counters.uptime_ms() as f64);
        reg.snapshot()
    }

    /// The Prometheus-style text exposition (`anvild --metrics-socket`
    /// serves exactly this string per connection).
    pub fn metrics_text(&self) -> String {
        self.refreshed_snapshot();
        self.counters.registry().render_prometheus()
    }

    /// Installs (or clears) a fault plan on the dispatch seam *and* the
    /// underlying session/cache seams. Chaos-test infrastructure.
    #[doc(hidden)]
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        self.session.set_fault_plan(plan.clone());
        self.faults_armed.store(plan.is_some(), Ordering::Relaxed);
        *self.faults.lock().unwrap_or_else(PoisonError::into_inner) = plan;
    }

    /// The `server.dispatch` fault seam: panics unwind into `handle`'s
    /// `catch_unwind`, stalls clog a gate slot (exercising admission
    /// shedding and the watchdog), shard poison delegates to the
    /// session's recovery path.
    fn fault_point(&self, op: &str) {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return;
        }
        let kind = self
            .faults
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .and_then(|plan| plan.take(op));
        match kind {
            Some(FaultKind::Panic) => panic!("injected fault: panic at {op}"),
            Some(FaultKind::Stall(d)) => std::thread::sleep(d),
            Some(FaultKind::PoisonShard) => self.session.poison_cache_shard_for_tests(0),
            Some(FaultKind::MalformedFrame) | None => {}
        }
    }

    fn lock_files(&self) -> std::sync::MutexGuard<'_, HashMap<String, FileEntry>> {
        // Service mutexes never stay poisoned: state is a plain map a
        // panicked handler cannot leave half-updated mid-operation.
        self.files.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_inflight(&self) -> std::sync::MutexGuard<'_, HashMap<InflightKey, Inflight>> {
        self.inflight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The deadline a request runs under: explicit `deadlineMs` param,
    /// else the configured default, else none.
    fn request_deadline(&self, params: &Json) -> Result<Deadline, RpcError> {
        match int_param(params, "deadlineMs")? {
            Some(ms) if ms < 0 => Err(RpcError::invalid_params("deadlineMs must be >= 0")),
            Some(ms) => Ok(Deadline::in_ms(ms as u64)),
            None => Ok(self
                .config
                .default_deadline_ms
                .map_or(Deadline::none(), Deadline::in_ms)),
        }
    }

    /// Registers (or adopts a pre-cancelled / pre-registered) in-flight
    /// entry for a request id on connection `conn` and returns the
    /// request's [`Control`]: its stop flag plus the armed deadline.
    /// Registration is idempotent: the serve loop registers *before* it
    /// hands the reader on (arming the deadline so queue wait counts),
    /// and dispatch re-registers and adopts the already-armed deadline.
    fn register(&self, conn: u64, id: &Json, method: &str, deadline: Deadline) -> Control {
        let mut inflight = self.lock_inflight();
        let entry = inflight
            .entry((conn, id.to_string()))
            .or_insert_with(|| Inflight::new(method, deadline));
        if entry.method.is_empty() {
            entry.method = method.to_string();
        }
        if entry.deadline.is_none() {
            entry.deadline = deadline;
        }
        Control {
            stop: Some(Arc::clone(&entry.stop)),
            deadline: entry.deadline,
        }
    }

    fn unregister(&self, conn: u64, id: &Json) {
        self.lock_inflight().remove(&(conn, id.to_string()));
    }

    /// One watchdog pass: raises the stop flag of every in-flight
    /// request past its deadline by more than the configured grace (once
    /// per request), returning how many flags were raised. Each serve
    /// call runs this on a timer; tests can call it directly.
    #[doc(hidden)]
    pub fn watchdog_scan(&self) -> usize {
        let grace = Duration::from_millis(self.config.watchdog_grace_ms);
        let mut fired = 0;
        for entry in self.lock_inflight().values_mut() {
            if !entry.watchdog_hit && entry.deadline.expired_by(grace) {
                entry.stop.store(true, Ordering::Relaxed);
                entry.watchdog_hit = true;
                fired += 1;
            }
        }
        if fired > 0 {
            self.counters.watchdog_fired.add(fired as u64);
        }
        fired
    }

    /// The `OVERLOADED` shed response, with a `retryAfterMs` hint scaled
    /// from the service-time EWMA and the current queue depth.
    fn overloaded_error(&self) -> RpcError {
        let (_, queued) = self.gate.gauges();
        let per_ms = (self.counters.ewma_service_micros() / 1000).max(10);
        let hint = (per_ms * (queued as u64 + 1) / self.config.max_concurrency.max(1) as u64)
            .clamp(10, 10_000);
        RpcError::new(OVERLOADED, "server overloaded; request shed")
            .with_data(Json::obj([("retryAfterMs", Json::int(hint as i64))]))
    }

    /// Handles one frame, invoking `notify` for every server→client
    /// notification streamed while the request runs, and returning the
    /// response frame (`None` for notifications, which get no response).
    ///
    /// This is the transport-independent core, the one
    /// [`CompileService::serve`] also runs (behind the admission gate);
    /// tests call it directly (no admission — `handle` never sheds).
    /// Every call shares one connection key, so a `cancel` sent through
    /// `handle` reaches requests sent through `handle`.
    pub fn handle(&self, msg: Incoming, notify: &mut dyn FnMut(Json)) -> Option<Json> {
        self.handle_admitted(DIRECT_CONN, msg, notify, None)
    }

    /// [`CompileService::handle`] on connection `conn`, with admission
    /// context from the serve loop: when the request passed the gate,
    /// `queue_wait` carries `(enqueued, started)` instants so a traced
    /// request's tree shows its gate admission / queue wait ahead of the
    /// dispatch work.
    fn handle_admitted(
        &self,
        conn: u64,
        msg: Incoming,
        notify: &mut dyn FnMut(Json),
        queue_wait: Option<(Instant, Instant)>,
    ) -> Option<Json> {
        let id = msg.id.clone();
        let heavy = is_heavy(&msg.method);
        let started = Instant::now();
        self.counters.requests.inc();
        // Per-request tracing: `trace: true` on any request with an id
        // opens a capture for the duration of the dispatch and returns
        // the stitched span tree in the response.
        let want_trace =
            id.is_some() && msg.params.get("trace").and_then(Json::as_bool) == Some(true);
        let trace_ctx = if want_trace {
            let capture = anvil_trace::Capture::start();
            let root = anvil_trace::span("anvild", "request").detail_with(|| msg.method.clone());
            if let Some((enqueued, dequeued)) = queue_wait {
                anvil_trace::record_manual("anvild", "gate.wait", root.id(), enqueued, dequeued);
            }
            Some((capture, root))
        } else {
            None
        };
        let result = match self.request_deadline(&msg.params) {
            Err(e) => Err(e),
            Ok(deadline) => {
                // One control per request, passed to every stage it runs.
                let control = match &id {
                    Some(id) => self.register(conn, id, &msg.method, deadline),
                    None => Control {
                        stop: None,
                        deadline,
                    },
                };
                // A panicking handler must answer *this* request with an
                // error, not unwind through the serve loop: panic-safety
                // is the whole point of a multi-tenant daemon.
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let _sp =
                        anvil_trace::span("anvild", "dispatch").detail_with(|| msg.method.clone());
                    self.dispatch(conn, &msg, &control, notify)
                }))
                .unwrap_or_else(|payload| {
                    self.counters.panics_recovered.inc();
                    Err(RpcError::new(
                        INTERNAL_ERROR,
                        format!("request handler panicked: {}", panic_message(&payload)),
                    ))
                })
            }
        };
        if let Some(id) = &id {
            self.unregister(conn, id);
        }
        if let Err(err) = &result {
            let counter = match err.code {
                DEADLINE_EXCEEDED => Some(&self.counters.deadline_expired),
                REQUEST_CANCELLED => Some(&self.counters.cancelled),
                _ => None,
            };
            if let Some(counter) = counter {
                counter.inc();
            }
        }
        self.counters.completed.inc();
        if heavy {
            self.counters
                .observe_service_micros(started.elapsed().as_micros() as u64);
        }
        // Close the capture after the request is fully accounted: the
        // span durations feed the same registry the `metrics` method
        // reads, so a traced request's tree and its histogram increments
        // always agree.
        let trace_json = trace_ctx.map(|(capture, root)| {
            let root_id = root.id();
            drop(root);
            let mut records = capture.finish();
            // The capture also holds the spans of requests other
            // threads served meanwhile: count and return only this
            // request's own.
            anvil_trace::retain_subtree(&mut records, root_id);
            self.counters.registry().observe_spans(&records);
            let truncated = records.len() > MAX_TRACE_SPANS;
            if truncated {
                // Records are start-sorted; the root and the request's
                // coarse phases come first, inner-loop spans fall off.
                records.truncate(MAX_TRACE_SPANS);
            }
            (anvil_trace::subtree(&records, root_id), truncated)
        });
        match (id, result) {
            (Some(id), Ok(mut result)) => {
                if let Some((Some(tree), truncated)) = trace_json {
                    if let Json::Obj(map) = &mut result {
                        // `spanTree`, not `trace`: falsified prove
                        // responses already use `trace` for the
                        // rendered counterexample.
                        map.insert("spanTree".to_string(), span_tree_json(&tree));
                        if truncated {
                            map.insert("spanTreeTruncated".to_string(), Json::Bool(true));
                        }
                    }
                }
                Some(proto::response(&id, result))
            }
            (Some(id), Err(err)) => Some(error_response(Some(&id), &err)),
            (None, _) => None,
        }
    }

    fn dispatch(
        &self,
        conn: u64,
        msg: &Incoming,
        control: &Control,
        notify: &mut dyn FnMut(Json),
    ) -> Result<Json, RpcError> {
        if is_heavy(&msg.method) {
            self.fault_point("server.dispatch");
            // A deadline that expired while the request waited in the
            // admission queue (or before it was read) fails fast without
            // burning a worker slot on doomed work.
            if control.deadline.expired() {
                return Err(RpcError::new(
                    DEADLINE_EXCEEDED,
                    format!("deadline expired before `{}` started", msg.method),
                ));
            }
        }
        match msg.method.as_str() {
            "ping" => Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("service", Json::str("anvild")),
                ("protocol", Json::int(PROTOCOL_VERSION)),
            ])),
            "open" => self.open(&msg.params),
            "update" => self.update(&msg.params),
            "close" => self.close(&msg.params),
            "compile" => self.compile(&msg.params, control, notify),
            "diagnostics" => self.diagnostics(&msg.params, control, notify),
            "prove" => self.prove(&msg.params, control, notify),
            "cacheStats" => Ok(self.cache_stats_json()),
            "health" => Ok(self.health_json()),
            "metrics" => Ok(self.metrics_json()),
            "cancel" => self.cancel(conn, &msg.params),
            "shutdown" => self.shutdown(&msg.params),
            other => Err(RpcError::new(
                METHOD_NOT_FOUND,
                format!("unknown method `{other}`"),
            )),
        }
    }

    /// `shutdown` with `mode: "drain"` (default) stops accepting new
    /// frames but lets in-flight work finish; `mode: "abort"` also
    /// raises every in-flight stop flag, on every connection, so
    /// requests wind down at their next cancellation poll.
    fn shutdown(&self, params: &Json) -> Result<Json, RpcError> {
        let mode = match params.get("mode").and_then(Json::as_str) {
            None => "drain",
            Some(m @ ("drain" | "abort")) => m,
            Some(other) => {
                return Err(RpcError::invalid_params(format!(
                    "unknown shutdown mode `{other}` (expected `drain` or `abort`)"
                )))
            }
        };
        if mode == "abort" {
            for entry in self.lock_inflight().values() {
                entry.stop.store(true, Ordering::Relaxed);
            }
        }
        self.shutdown.store(true, Ordering::SeqCst);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("mode", Json::str(mode)),
        ]))
    }

    fn open(&self, params: &Json) -> Result<Json, RpcError> {
        let uri = str_param(params, "uri")?;
        let text = str_param(params, "text")?;
        let version = int_param(params, "version")?.unwrap_or(1);
        self.lock_files().insert(
            uri.to_string(),
            FileEntry {
                text: Arc::new(text.to_string()),
                version,
            },
        );
        Ok(Json::obj([
            ("uri", Json::str(uri)),
            ("version", Json::int(version)),
        ]))
    }

    fn update(&self, params: &Json) -> Result<Json, RpcError> {
        let uri = str_param(params, "uri")?;
        let text = str_param(params, "text")?;
        let version = int_param(params, "version")?;
        let mut files = self.lock_files();
        let entry = files.get_mut(uri).ok_or_else(|| not_open(uri))?;
        let version = version.unwrap_or(entry.version + 1);
        if version <= entry.version {
            return Err(RpcError::invalid_params(format!(
                "version must increase: got {version}, have {}",
                entry.version
            )));
        }
        entry.text = Arc::new(text.to_string());
        entry.version = version;
        Ok(Json::obj([
            ("uri", Json::str(uri)),
            ("version", Json::int(version)),
        ]))
    }

    fn close(&self, params: &Json) -> Result<Json, RpcError> {
        let uri = str_param(params, "uri")?;
        match self.lock_files().remove(uri) {
            Some(_) => Ok(Json::obj([("ok", Json::Bool(true))])),
            None => Err(not_open(uri)),
        }
    }

    /// A point-in-time snapshot of an open buffer (compiles run outside
    /// the registry lock; a concurrent `update` produces a new `Arc`,
    /// never mutates the one being compiled).
    fn snapshot(&self, uri: &str) -> Result<(Arc<String>, i64), RpcError> {
        let files = self.lock_files();
        let entry = files.get(uri).ok_or_else(|| not_open(uri))?;
        Ok((Arc::clone(&entry.text), entry.version))
    }

    fn compile(
        &self,
        params: &Json,
        control: &Control,
        notify: &mut dyn FnMut(Json),
    ) -> Result<Json, RpcError> {
        let uri = str_param(params, "uri")?;
        let (text, version) = self.snapshot(uri)?;
        // Chaos hook: a config-gated stall *inside* the worker slot, so
        // harnesses can clog the gate deterministically without counting
        // pipeline-internal fault occurrences.
        if self.config.chaos {
            if let Some(ms) = int_param(params, "chaosStallMs")? {
                std::thread::sleep(Duration::from_millis(ms.max(0) as u64));
            }
        }
        let before = self.session.cache_stats();
        let result = self.session.compile_with(&text, control);
        let delta = self.session.cache_stats() - before;
        match result {
            Ok(out) => {
                // A clean compile clears the file's diagnostics.
                notify(diagnostics_notification(uri, version, &[]));
                Ok(Json::obj([
                    ("uri", Json::str(uri)),
                    ("version", Json::int(version)),
                    ("systemverilog", Json::str(out.systemverilog)),
                    ("modules", Json::int(out.modules.iter().count() as i64)),
                    (
                        "passStats",
                        Json::obj([
                            ("eventsBefore", Json::int(out.stats.events_before as i64)),
                            ("eventsAfter", Json::int(out.stats.events_after as i64)),
                        ]),
                    ),
                    ("cacheDelta", cache_delta_json(&delta)),
                ]))
            }
            Err(e) => {
                let err = compile_failure(&e, &text, uri, version, notify);
                if err.code == DEADLINE_EXCEEDED {
                    // Partial progress: the cache delta shows how many
                    // artifacts the expired compile still banked — a
                    // retry resumes warm from exactly there.
                    return Err(err.with_data(Json::obj([
                        ("uri", Json::str(uri)),
                        ("cacheDelta", cache_delta_json(&delta)),
                    ])));
                }
                Err(err)
            }
        }
    }

    fn diagnostics(
        &self,
        params: &Json,
        control: &Control,
        notify: &mut dyn FnMut(Json),
    ) -> Result<Json, RpcError> {
        let uri = str_param(params, "uri")?;
        let (text, version) = self.snapshot(uri)?;
        let diags = match self.session.check(&text, control) {
            Ok((_, reports)) => {
                let errors: Vec<_> = reports
                    .values()
                    .flat_map(|r| r.errors().into_iter().cloned())
                    .collect();
                if errors.is_empty() {
                    Vec::new()
                } else {
                    CompileError::TimingUnsafe(errors).wire_diagnostics(&text)
                }
            }
            Err(e @ (CompileError::Cancelled | CompileError::DeadlineExceeded)) => {
                return Err(compile_failure(&e, &text, uri, version, notify));
            }
            Err(e) => e.wire_diagnostics(&text),
        };
        notify(diagnostics_notification(uri, version, &diags));
        Ok(Json::obj([
            ("uri", Json::str(uri)),
            ("version", Json::int(version)),
            ("count", Json::int(diags.len() as i64)),
        ]))
    }

    fn prove(
        &self,
        params: &Json,
        control: &Control,
        notify: &mut dyn FnMut(Json),
    ) -> Result<Json, RpcError> {
        let uri = str_param(params, "uri")?;
        let signal = str_param(params, "signal")?;
        let max_k = int_param(params, "maxK")?.unwrap_or(16).max(0) as usize;
        let (text, version) = self.snapshot(uri)?;

        // Resolve the top process: explicit `top`, else the file's only
        // proc (the same rule the anvilc CLI uses).
        let top = match params.get("top").and_then(Json::as_str) {
            Some(t) => t.to_string(),
            None => {
                let program = self
                    .session
                    .parse(&text)
                    .map_err(|e| compile_failure(&e, &text, uri, version, notify))?;
                match program.procs.as_slice() {
                    [only] => only.name.clone(),
                    procs => {
                        return Err(RpcError::invalid_params(format!(
                            "{} processes in `{uri}`; pick one with `top` (candidates: {})",
                            procs.len(),
                            procs
                                .iter()
                                .map(|p| p.name.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )))
                    }
                }
            }
        };

        let flat = self
            .session
            .compile_flat_aig(&text, &top, control)
            .map_err(|e| compile_failure(&e, &text, uri, version, notify))?;
        let circuit = &flat.circuit;
        let module = circuit.module();
        let Some(sig) = module.find(signal) else {
            return Err(RpcError::invalid_params(format!(
                "no signal `{signal}` in flattened `{top}` (signals: {})",
                module
                    .iter_signals()
                    .map(|(_, s)| s.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        };
        let assertion = Expr::Signal(sig);

        // ---- Proof cache: fingerprint-keyed certificates. ----
        // A hit is *revalidated* against the current circuit (one
        // incremental SAT session — no invariant search, no optimization
        // pipeline) rather than trusted blindly; a certificate that fails
        // its check falls through to the cold path below.
        let proof_key = flat.proof_key(signal);
        if let Some(key) = proof_key {
            if let Some(cert) = self.session.cached_proof(key) {
                if let Ok(Some(result)) = revalidate_certificate(circuit, &assertion, &cert) {
                    return Ok(prove_response(
                        uri,
                        version,
                        signal,
                        &result,
                        "cache",
                        Some(cert.engine),
                        None,
                        module,
                        &assertion,
                    ));
                }
            }
        }

        // ---- Cold path: the portfolio, on the circuit blasted above. ----
        let out = prove_portfolio(circuit, &assertion, max_k, control)
            .map_err(|e| RpcError::new(PROVE_FAILED, e.to_string()))?;
        // The portfolio also raises the stop flag when an engine
        // concludes, so only an inconclusive result was interrupted.
        if let ProveResult::Unknown { depth } = out.result {
            match control.interrupted() {
                Some(Interrupt::DeadlineExceeded) => {
                    let (engine, conflicts) =
                        if out.pdr_stats.conflicts >= out.symbolic_stats.conflicts {
                            ("pdr", out.pdr_stats.conflicts)
                        } else {
                            ("symbolic", out.symbolic_stats.conflicts)
                        };
                    return Err(RpcError::new(DEADLINE_EXCEEDED, "prove deadline exceeded")
                        .with_data(Json::obj([
                            ("verdict", Json::str("unknown")),
                            ("depthReached", Json::int(depth as i64)),
                            ("engine", Json::str(engine)),
                            ("conflicts", Json::int(conflicts as i64)),
                        ])));
                }
                Some(Interrupt::Cancelled) => {
                    return Err(RpcError::new(REQUEST_CANCELLED, "prove cancelled"))
                }
                None => {}
            }
        }
        if let (Some(key), Some(cert)) = (proof_key, &out.certificate) {
            self.session.store_proof(key, Arc::new(cert.clone()));
        }
        let engine = match out.winner {
            Some(Prover::Symbolic) => "symbolic",
            Some(Prover::Pdr) => "pdr",
            None => "none",
        };
        let stats = match out.winner {
            Some(Prover::Pdr) => out.pdr_stats,
            _ => out.symbolic_stats,
        };
        Ok(prove_response(
            uri,
            version,
            signal,
            &out.result,
            engine,
            None,
            Some(&stats),
            module,
            &assertion,
        ))
    }

    fn cache_stats_json(&self) -> Json {
        let snap = self.refreshed_snapshot();
        let g = |name: &str| Json::int(snap.gauge(name).unwrap_or(0.0) as i64);
        let stage = |name: &str| {
            Json::obj([
                ("hits", g(&format!("anvild_cache_{name}_hits"))),
                ("misses", g(&format!("anvild_cache_{name}_misses"))),
                ("evictions", g(&format!("anvild_cache_{name}_evictions"))),
            ])
        };
        Json::obj([
            ("check", stage("check")),
            ("optIr", stage("opt_ir")),
            ("lower", stage("lower")),
            ("emit", stage("emit")),
            ("aig", stage("aig")),
            ("proof", stage("proof")),
            ("poisoned", g("anvild_cache_poisoned")),
            (
                "totals",
                Json::obj([
                    ("hits", g("anvild_cache_hits")),
                    ("misses", g("anvild_cache_misses")),
                    ("evictions", g("anvild_cache_evictions")),
                ]),
            ),
            ("openFiles", g("anvild_open_files")),
        ])
    }

    /// The `health` response: uptime, gate gauges, the monotonic
    /// robustness counters, plus the cache hit-rate and service-time
    /// EWMA gauges — all read from one registry snapshot, the same one
    /// `cacheStats` and `metrics` serve.
    fn health_json(&self) -> Json {
        let snap = self.refreshed_snapshot();
        let c = |name: &str| Json::int(snap.counter(name).unwrap_or(0) as i64);
        let g = |name: &str| Json::int(snap.gauge(name).unwrap_or(0.0) as i64);
        Json::obj([
            ("ok", Json::Bool(true)),
            ("uptimeMs", g("anvild_uptime_ms")),
            ("inFlight", g("anvild_in_flight")),
            ("queued", g("anvild_queued")),
            ("requests", c("anvild_requests_total")),
            ("completed", c("anvild_completed_total")),
            ("shed", c("anvild_shed_total")),
            ("deadlineExpired", c("anvild_deadline_expired_total")),
            ("watchdogFired", c("anvild_watchdog_fired_total")),
            ("panicsRecovered", c("anvild_panics_recovered_total")),
            ("cancelled", c("anvild_cancelled_total")),
            ("threadsStarted", c("anvild_threads_started_total")),
            (
                "cacheHitRate",
                Json::Num(snap.gauge("anvild_cache_hit_rate").unwrap_or(0.0)),
            ),
            (
                "ewmaServiceMs",
                Json::Num(snap.gauge("anvild_ewma_service_ms").unwrap_or(0.0)),
            ),
            (
                "maxConcurrency",
                Json::int(self.config.max_concurrency as i64),
            ),
            ("maxQueue", Json::int(self.config.max_queue as i64)),
            ("openFiles", g("anvild_open_files")),
        ])
    }

    /// The `metrics` response: the full registry snapshot — counters,
    /// gauges, and histogram summaries (count / sum / p50 / p90 / p99,
    /// microseconds for `_us` instruments).
    fn metrics_json(&self) -> Json {
        let snap = self.refreshed_snapshot();
        let counters = Json::Obj(
            snap.counters
                .iter()
                .map(|(n, v)| (n.clone(), Json::int(*v as i64)))
                .collect(),
        );
        let gauges = Json::Obj(
            snap.gauges
                .iter()
                .map(|(n, v)| (n.clone(), Json::Num(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            snap.histograms
                .iter()
                .map(|(n, h)| {
                    (
                        n.clone(),
                        Json::obj([
                            ("count", Json::int(h.count as i64)),
                            ("sum", Json::int(h.sum as i64)),
                            ("p50", Json::int(h.p50 as i64)),
                            ("p90", Json::int(h.p90 as i64)),
                            ("p99", Json::int(h.p99 as i64)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }

    /// `cancel` reaches only requests of its own connection `conn`.
    fn cancel(&self, conn: u64, params: &Json) -> Result<Json, RpcError> {
        let id = params
            .get("id")
            .filter(|id| matches!(id, Json::Str(_) | Json::Num(_)))
            .ok_or_else(|| RpcError::invalid_params("cancel needs a string or number `id`"))?;
        let key = (conn, id.to_string());
        let mut inflight = self.lock_inflight();
        let inflight_now = inflight.contains_key(&key);
        // Raise the flag; for an id not yet seen, pre-raise it so the
        // request observes cancellation the moment it arrives.
        inflight
            .entry(key)
            .or_insert_with(|| Inflight::new("", Deadline::none()))
            .stop
            .store(true, Ordering::Relaxed);
        Ok(Json::obj([
            ("id", id.clone()),
            ("inflight", Json::Bool(inflight_now)),
        ]))
    }

    /// Serves one connection: newline-delimited JSON-RPC frames from
    /// `reader`, responses and notifications to `writer`.
    ///
    /// Each outgoing frame is serialized first and handed to `writer`
    /// in one `write_all` plus `flush`, so an unbuffered socket sees one
    /// write per frame. A frame that is not UTF-8 or not JSON (including
    /// one nested too deeply) is answered with `PARSE_ERROR` and `id:
    /// null`, and the loop keeps reading. So is a frame longer than
    /// [`MAX_FRAME_BYTES`], with `INVALID_REQUEST`: the loop buffers at
    /// most that many bytes of it and skips the rest of the line.
    ///
    /// # Threads
    ///
    /// The connection is served by leader/follower threads, each with a
    /// 16 MiB stack sized for sources at the parser's nesting limit. One
    /// thread at a time leads: it owns `reader` (hence `R: Send`) and
    /// answers registry and control methods (`open`, `update`, `close`,
    /// `cancel`, `cacheStats`, `health`, `metrics`, `ping`, `shutdown`)
    /// inline, in read order. They bypass admission, so liveness probes
    /// work even with every gate slot taken. Heavy requests (`compile`,
    /// `diagnostics`, `prove`) pass the admission gate: they are shed
    /// at once with `OVERLOADED` when the queue is full. On admitting
    /// one, the leader registers its stop flag and deadline (so a
    /// `cancel` read next finds it), hands the reader to a waiting
    /// follower (starting one only when none waits), and then waits its
    /// gate turn and runs the request itself. Once the request is
    /// answered the thread waits as a follower again; it counts itself
    /// as waiting *before* it writes the response, so a closed-loop
    /// client's next request finds it. A connection therefore holds at
    /// most one thread per outstanding heavy request plus one, and in
    /// the closed loop of an editor it reuses two.
    ///
    /// Responses may arrive out of order; clients match on `id`. If a
    /// follower cannot be started, the request is answered with
    /// `INTERNAL_ERROR`, gives its gate slot back, and the leader reads
    /// on.
    ///
    /// The calling thread starts the first connection thread and then
    /// only runs the watchdog, whatever its stack size: every few
    /// milliseconds it raises the stop flag of any request past its
    /// deadline by more than the configured grace, until the
    /// connection's last request has finished.
    ///
    /// Returns when the peer disconnects or after a `shutdown` request,
    /// once every request read on the connection has been answered
    /// (`drain` mode lets them finish, `abort` cancels them first). The
    /// connection's pre-cancelled ids that never arrived are forgotten.
    ///
    /// # Errors
    ///
    /// Propagates read errors from the transport and a failure to start
    /// the first connection thread; write failures are swallowed (a
    /// vanished client is not a server error).
    pub fn serve<R, W>(&self, reader: R, writer: W) -> std::io::Result<()>
    where
        R: BufRead + Send,
        W: Write + Send,
    {
        let conn = Connection {
            key: self.next_conn.fetch_add(1, Ordering::Relaxed),
            out: Mutex::new(writer),
            state: Mutex::new(ConnState {
                reader: Some(reader),
                idle: 1,
                live: 1,
                closed: false,
                error: None,
            }),
            lead: Condvar::new(),
            finished: Condvar::new(),
        };
        let started = std::thread::scope(|scope| -> std::io::Result<()> {
            self.start_conn_thread(scope, &conn)?;
            let tick = Duration::from_millis(WATCHDOG_TICK_MS);
            let mut state = conn.lock();
            while state.live > 0 {
                drop(state);
                self.watchdog_scan();
                state = conn
                    .finished
                    .wait_timeout_while(conn.lock(), tick, |s| s.live > 0)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            Ok(())
        });
        self.lock_inflight().retain(|(c, _), _| *c != conn.key);
        started?;
        let error = conn.lock().error.take();
        error.map_or(Ok(()), Err)
    }

    /// Starts one thread of `conn`, counted as a waiting follower by the
    /// caller (`idle` and `live` already include it).
    fn start_conn_thread<'scope, 'env, R, W>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        conn: &'env Connection<R, W>,
    ) -> std::io::Result<()>
    where
        R: BufRead + Send,
        W: Write + Send,
    {
        std::thread::Builder::new()
            .stack_size(WORKER_STACK_BYTES)
            .spawn_scoped(scope, move || self.conn_thread(scope, conn))?;
        self.counters.threads_started.inc();
        Ok(())
    }

    /// The life of one connection thread: wait to lead, lead until a
    /// heavy request is admitted, run it, and wait again, until the
    /// connection closes.
    fn conn_thread<'scope, 'env, R, W>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        conn: &'env Connection<R, W>,
    ) where
        R: BufRead + Send,
        W: Write + Send,
    {
        let _exit = ThreadExit(conn);
        let mut buf = Vec::new();
        while let Some(reader) = conn.await_lead() {
            let Some(req) = self.lead(scope, conn, reader, &mut buf) else {
                break;
            };
            if req.admission == Admission::Queued {
                self.gate.wait_turn();
            }
            let admitted = Some((req.enqueued, Instant::now()));
            let frame = self.handle_admitted(conn.key, req.msg, &mut |n| conn.send(&n), admitted);
            // A follower again before the slot is freed and the client
            // answered: the next request then finds this thread waiting
            // instead of starting another one.
            conn.lock().idle += 1;
            self.gate.depart();
            if let Some(frame) = frame {
                conn.send(&frame);
            }
        }
    }

    /// Reads and answers frames until one heavy request is admitted,
    /// which is returned after the reader has been handed on, or until
    /// the connection closes (`None`).
    fn lead<'scope, 'env, R, W>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        conn: &'env Connection<R, W>,
        mut reader: R,
        buf: &mut Vec<u8>,
    ) -> Option<AdmittedRequest>
    where
        R: BufRead + Send,
        W: Write + Send,
    {
        let limit = MAX_FRAME_BYTES as u64 + 1;
        loop {
            buf.clear();
            match (&mut reader).take(limit).read_until(b'\n', buf) {
                Ok(0) => return conn.close(None),
                Ok(_) => {}
                Err(e) => return conn.close(Some(e)),
            }
            if buf.len() as u64 == limit && !buf.ends_with(b"\n") {
                if let Err(e) = reader.skip_until(b'\n') {
                    return conn.close(Some(e));
                }
                *buf = Vec::new();
                let message = format!("frame longer than {MAX_FRAME_BYTES} bytes");
                conn.send(&error_response(
                    None,
                    &RpcError::new(INVALID_REQUEST, message),
                ));
                continue;
            }
            let bytes = match buf.strip_suffix(b"\n") {
                Some(bytes) => bytes.strip_suffix(b"\r").unwrap_or(bytes),
                None => buf,
            };
            let line = match std::str::from_utf8(bytes) {
                Ok(line) => line,
                Err(e) => {
                    let message = format!("invalid UTF-8 at byte {}", e.valid_up_to());
                    conn.send(&error_response(None, &RpcError::new(PARSE_ERROR, message)));
                    continue;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let msg = match parse_incoming(line) {
                Ok(msg) => msg,
                Err(e) => {
                    conn.send(&error_response(None, &e));
                    continue;
                }
            };
            if !is_heavy(&msg.method) {
                if let Some(frame) =
                    self.handle_admitted(conn.key, msg, &mut |n| conn.send(&n), None)
                {
                    conn.send(&frame);
                }
                if self.is_shut_down() {
                    return conn.close(None);
                }
                continue;
            }
            let admission = self.gate.try_admit();
            if admission == Admission::Shed {
                self.counters.requests.inc();
                self.counters.shed.inc();
                if let Some(id) = &msg.id {
                    conn.send(&error_response(Some(id), &self.overloaded_error()));
                }
                continue;
            }
            // Register the stop flag *before* the reader moves on — a
            // cancel read next never misses the request — and arm the
            // deadline so queue wait counts toward it.
            if let Some(id) = &msg.id {
                if let Ok(deadline) = self.request_deadline(&msg.params) {
                    self.register(conn.key, id, &msg.method, deadline);
                }
            }
            let enqueued = Instant::now();
            match self.hand_off(scope, conn, reader) {
                Ok(()) => {
                    return Some(AdmittedRequest {
                        msg,
                        admission,
                        enqueued,
                    })
                }
                Err((kept, e)) => {
                    // Answered without running: counted as a request
                    // and a completion, like any error response.
                    reader = kept;
                    self.gate.withdraw(admission);
                    self.counters.requests.inc();
                    self.counters.completed.inc();
                    if let Some(id) = &msg.id {
                        self.unregister(conn.key, id);
                        let message = format!("could not start a connection thread: {e}");
                        let err = RpcError::new(INTERNAL_ERROR, message);
                        conn.send(&error_response(Some(id), &err));
                    }
                }
            }
        }
    }

    /// Hands `conn`'s reader to a waiting follower, starting one first
    /// when none waits. On failure to start it, the reader comes back.
    fn hand_off<'scope, 'env, R, W>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        conn: &'env Connection<R, W>,
        reader: R,
    ) -> Result<(), (R, std::io::Error)>
    where
        R: BufRead + Send,
        W: Write + Send,
    {
        let mut state = conn.lock();
        if state.idle == 0 {
            state.idle += 1;
            state.live += 1;
            drop(state);
            if let Err(e) = self.start_conn_thread(scope, conn) {
                let mut state = conn.lock();
                state.idle -= 1;
                state.live -= 1;
                return Err((reader, e));
            }
            state = conn.lock();
        }
        state.reader = Some(reader);
        drop(state);
        conn.lead.notify_one();
        Ok(())
    }
}

/// `handle`'s connection key; [`CompileService::serve`] connections
/// are numbered after it.
const DIRECT_CONN: u64 = 0;

/// In-flight table key: the connection and the request id's compact
/// serialization.
type InflightKey = (u64, String);

/// One [`CompileService::serve`] connection, shared by its threads.
struct Connection<R, W> {
    /// This connection's in-flight table key.
    key: u64,
    out: Mutex<W>,
    state: Mutex<ConnState<R>>,
    /// Signalled when the reader is handed on or the connection closes.
    lead: Condvar,
    /// Signalled when a connection thread exits.
    finished: Condvar,
}

struct ConnState<R> {
    /// The transport, here while no thread leads.
    reader: Option<R>,
    /// Threads waiting, or about to wait, for the reader.
    idle: usize,
    /// Connection threads started and not yet exited.
    live: usize,
    /// Set once reading stops: EOF, `shutdown`, or a read error.
    closed: bool,
    /// The read error that closed the connection.
    error: Option<std::io::Error>,
}

/// A heavy request the leader admitted and now runs.
struct AdmittedRequest {
    msg: Incoming,
    admission: Admission,
    enqueued: Instant,
}

impl<R, W: Write> Connection<R, W> {
    /// Serializes one frame into one buffer and writes it, newline
    /// included, in one write.
    fn send(&self, frame: &Json) {
        let mut line = String::new();
        frame.write_into(&mut line);
        line.push('\n');
        let mut w = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }
}

impl<R, W> Connection<R, W> {
    fn lock(&self) -> MutexGuard<'_, ConnState<R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits, as a counted follower, until the reader is free to take
    /// (`Some`) or the connection has closed (`None`).
    fn await_lead(&self) -> Option<R> {
        let mut state = self
            .lead
            .wait_while(self.lock(), |s| !s.closed && s.reader.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        state.idle -= 1;
        if state.closed {
            None
        } else {
            state.reader.take()
        }
    }

    /// Stops reading: wakes every follower to exit and keeps `error`
    /// for `serve` to return.
    fn close<T>(&self, error: Option<std::io::Error>) -> Option<T> {
        let mut state = self.lock();
        state.closed = true;
        state.error = error;
        drop(state);
        self.lead.notify_all();
        None
    }
}

/// Counts a connection thread out when it ends, even by a panic, which
/// also closes the connection so no follower waits for a lost reader.
struct ThreadExit<'c, R, W>(&'c Connection<R, W>);

impl<R, W> Drop for ThreadExit<'_, R, W> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.live -= 1;
        if std::thread::panicking() {
            state.closed = true;
            self.0.lead.notify_all();
        }
        drop(state);
        self.0.finished.notify_all();
    }
}

/// Whether a method passes the admission gate and runs on its own
/// connection thread (long-running) rather than inline on the leader.
fn is_heavy(method: &str) -> bool {
    matches!(method, "compile" | "diagnostics" | "prove")
}

/// `FILE_NOT_OPEN` for a uri.
fn not_open(uri: &str) -> RpcError {
    RpcError::new(
        FILE_NOT_OPEN,
        format!("`{uri}` is not open; send `open` first"),
    )
    .with_data(Json::obj([("uri", Json::str(uri))]))
}

/// Required string param.
fn str_param<'p>(params: &'p Json, key: &str) -> Result<&'p str, RpcError> {
    params
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| RpcError::invalid_params(format!("missing string param `{key}`")))
}

/// Optional integer param (error if present but not an integer).
fn int_param(params: &Json, key: &str) -> Result<Option<i64>, RpcError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_i64()
            .map(Some)
            .ok_or_else(|| RpcError::invalid_params(format!("param `{key}` must be an integer"))),
    }
}

/// Builds the `anvil/prove` response object. `engine` names who settled
/// the property (`symbolic` / `pdr` / `cache` / `none`);
/// `cached_engine` names the certificate's original producer on cache
/// hits. `stats` is absent on cache hits — revalidation does not rerun
/// the optimization pipeline, so node counts would be stale guesses.
#[allow(clippy::too_many_arguments)]
fn prove_response(
    uri: &str,
    version: i64,
    signal: &str,
    result: &ProveResult,
    engine: &str,
    cached_engine: Option<&str>,
    stats: Option<&ProveStats>,
    module: &Module,
    assertion: &Expr,
) -> Json {
    let mut fields = vec![
        ("uri", Json::str(uri)),
        ("version", Json::int(version)),
        ("signal", Json::str(signal)),
        ("engine", Json::str(engine)),
    ];
    if let Some(src) = cached_engine {
        fields.push(("cachedEngine", Json::str(src)));
    }
    if let Some(s) = stats {
        fields.push(("aigNodes", Json::int(s.aig_nodes as i64)));
        fields.push(("aigNodesAfterRewrite", Json::int(s.aig_nodes_after as i64)));
        fields.push(("latches", Json::int(s.latches as i64)));
        fields.push(("conflicts", Json::int(s.conflicts as i64)));
        fields.push(("clauses", Json::int(s.clauses as i64)));
    }
    match result {
        ProveResult::Proved { k } => {
            fields.push(("verdict", Json::str("proved")));
            fields.push(("k", Json::int(*k as i64)));
        }
        ProveResult::Falsified { depth, trace } => {
            fields.push(("verdict", Json::str("falsified")));
            fields.push(("depth", Json::int(*depth as i64)));
            match render_trace(module, assertion, trace) {
                Ok(rendered) => fields.push(("trace", Json::str(rendered))),
                Err(e) => fields.push(("traceError", Json::str(e.to_string()))),
            }
        }
        ProveResult::Unknown { depth } => {
            fields.push(("verdict", Json::str("unknown")));
            fields.push(("depth", Json::int(*depth as i64)));
        }
    }
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serializes one traced request's span tree for the wire: `startUs`
/// is relative to the root span's start, so a client can reconstruct
/// the timeline without knowing the daemon's trace epoch.
fn span_tree_json(root: &anvil_trace::SpanNode) -> Json {
    fn node_json(node: &anvil_trace::SpanNode, base_ns: u64) -> Json {
        let rec = &node.record;
        let mut map = std::collections::BTreeMap::new();
        map.insert("cat".to_string(), Json::str(rec.cat));
        map.insert("name".to_string(), Json::str(rec.name));
        map.insert(
            "startUs".to_string(),
            Json::int((rec.start_ns.saturating_sub(base_ns) / 1_000) as i64),
        );
        map.insert("durUs".to_string(), Json::int((rec.dur_ns / 1_000) as i64));
        if let Some(d) = &rec.detail {
            map.insert("detail".to_string(), Json::str(d));
        }
        if !node.children.is_empty() {
            map.insert(
                "children".to_string(),
                Json::Arr(
                    node.children
                        .iter()
                        .map(|c| node_json(c, base_ns))
                        .collect(),
                ),
            );
        }
        Json::Obj(map)
    }
    node_json(root, root.record.start_ns)
}

fn cache_delta_json(delta: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::int(delta.hits() as i64)),
        ("misses", Json::int(delta.misses() as i64)),
        ("evictions", Json::int(delta.evictions() as i64)),
        ("poisoned", Json::int(delta.poisoned as i64)),
    ])
}

/// One wire diagnostic as a JSON value (same field names and shape as
/// [`WireDiagnostic::to_json`]).
fn diagnostic_json(d: &WireDiagnostic) -> Json {
    let mut map = std::collections::BTreeMap::new();
    map.insert("severity".to_string(), Json::str(d.severity.as_str()));
    map.insert("message".to_string(), Json::str(&d.message));
    if let Some(span) = d.span {
        map.insert("start".to_string(), Json::int(span.start as i64));
        map.insert("end".to_string(), Json::int(span.end as i64));
        map.insert("line".to_string(), Json::int(d.line as i64));
        map.insert("col".to_string(), Json::int(d.col as i64));
    }
    Json::Obj(map)
}

/// The `diagnostics` notification frame for a file version (an empty
/// list clears previously streamed diagnostics).
fn diagnostics_notification(uri: &str, version: i64, diags: &[WireDiagnostic]) -> Json {
    notification(
        "diagnostics",
        Json::obj([
            ("uri", Json::str(uri)),
            ("version", Json::int(version)),
            (
                "diagnostics",
                Json::Arr(diags.iter().map(diagnostic_json).collect()),
            ),
        ]),
    )
}

/// Converts a compile failure into the wire error, streaming the
/// diagnostics notification as a side effect (cancellation produces
/// [`REQUEST_CANCELLED`], deadline expiry [`DEADLINE_EXCEEDED`]; neither
/// streams diagnostics — the program wasn't fully analyzed).
fn compile_failure(
    e: &CompileError,
    text: &str,
    uri: &str,
    version: i64,
    notify: &mut dyn FnMut(Json),
) -> RpcError {
    if matches!(e, CompileError::Cancelled) {
        return RpcError::new(REQUEST_CANCELLED, "request cancelled");
    }
    if matches!(e, CompileError::DeadlineExceeded) {
        return RpcError::new(DEADLINE_EXCEEDED, "compilation deadline exceeded");
    }
    let diags = e.wire_diagnostics(text);
    notify(diagnostics_notification(uri, version, &diags));
    RpcError::new(
        COMPILE_FAILED,
        format!("compile failed: {} diagnostic(s)", diags.len()),
    )
    .with_data(Json::obj([
        ("rendered", Json::str(e.render(text))),
        (
            "diagnostics",
            Json::Arr(diags.iter().map(diagnostic_json).collect()),
        ),
    ]))
}

/// Renders a caught panic payload.
fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

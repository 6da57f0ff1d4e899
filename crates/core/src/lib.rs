//! The Anvil compiler driver: the paper's primary contribution as one
//! pipeline.
//!
//! The compiler is organised as a [`Session`] plus a pass manager. A
//! session owns everything shared across compilations — code-generation
//! options and the extern [`ModuleLibrary`] — and is immutable while
//! compiling, so it can be shared read-only across threads. Each
//! compilation runs the explicit pass sequence of the paper's Fig. 3
//! (bottom):
//!
//! 1. **parse** ([`anvil_syntax`]),
//! 2. **check** — event-graph elaboration + static timing-safety
//!    ([`anvil_ir`], [`anvil_typeck`]),
//! 3. **optimize** — event-graph reduction (§6.1),
//! 4. **codegen** — FSM generation ([`anvil_codegen`]),
//! 5. **emit** — SystemVerilog ([`anvil_rtl`]).
//!
//! Every pass runs under a `core.*` span of [`anvil_trace`] (`core.parse`,
//! `core.check`, `core.optimize.unit`, `core.lower.unit`, `core.emit`), so
//! a [`anvil_trace::Capture`] around a compile times each stage; the
//! event-graph sizes before and after optimization land in [`PassStats`]
//! on every [`CompileOutput`]. Type errors are reported at compile time,
//! and only timing-safe designs reach RTL.
//!
//! Compilation is **incremental**: every `proc` is a compilation unit,
//! and the session owns a fingerprint-keyed query cache of per-unit
//! artifacts at each stage boundary (see [`Session`] for the key and
//! invalidation rules, and [`CacheStats`] for observability). Recompiling
//! an unchanged program through one session performs no per-proc work at
//! all, and editing one proc out of ten re-runs check/codegen for exactly
//! that unit — with output guaranteed byte-identical to a cold compile.
//!
//! [`Session`] is the one front door. [`Session::compile`] runs the
//! pipeline to completion; [`Session::compile_with`] runs it under a
//! [`Control`] (a stop flag and a [`Deadline`]), the form services use.
//! [`Session::compile_batch`] fans a set of independent designs out
//! across scoped worker threads sharing one session — the IR is interned
//! and `Send + Sync`, so batch output is byte-identical to sequential
//! compilation. Batch workers also share the query cache (it is sharded
//! and lock-striped), so designs with common procs are compiled once.
//!
//! # Examples
//!
//! ```
//! use anvil_core::Session;
//!
//! let out = Session::new()
//!     .compile(
//!         "chan ch { right beat : (logic[8]@#1) }
//!          proc blink(ep : left ch) {
//!              reg c : logic[8];
//!              loop { send ep.beat (*c) >> set c := *c + 1 >> cycle 1 }
//!          }",
//!     )?;
//! assert!(out.systemverilog.contains("module blink"));
//! assert!(out.stats.events_after > 0);
//! # Ok::<(), anvil_core::CompileError>(())
//! ```

#![warn(missing_docs)]

mod cache;
#[doc(hidden)]
pub mod fault;
mod units;

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use anvil_codegen::{
    build_optimized_ir, check_externs, lower_proc, proc_order, CodegenError, CodegenOptions,
};
use anvil_intern::Symbol;
use anvil_rtl::ModuleLibrary;
use anvil_syntax::{parse, LineIndex, ParseError, Program, Span, WireDiagnostic};
use anvil_typeck::{check_proc, ProcReport, TypeError};

use crate::cache::{Artifact, IrUnit, QueryCache};
use crate::units::{options_fingerprint, ItemGraph};

pub use anvil_codegen::CodegenOptions as Options;
pub use anvil_smt::{Control, Deadline, Interrupt};
pub use cache::{CacheStats, Stage, StageCounters};

/// Source marker that makes [`Session::compile`] panic deliberately.
///
/// The crash-safety regression tests (panic-catching batch workers,
/// poisoned-shard recovery, the `anvild` request loop) need a
/// reproducible panicking compile; any source containing this token
/// panics at the top of the pipeline. Real sources never contain it.
#[doc(hidden)]
pub const PANIC_MARKER: &str = "__anvil_injected_panic__";

/// Renders a caught panic payload for [`CompileError::Internal`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "compile panicked with a non-string payload".to_string()
    }
}

/// The event-graph size effect of the optimize pass (§6.1). Pass time is
/// measured by the `core.*` spans (see the crate docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct PassStats {
    /// Total event count before optimization, across all threads.
    pub events_before: usize,
    /// Total event count after optimization.
    pub events_after: usize,
}

/// Everything the compiler produces for a program.
#[derive(Clone, Debug)]
pub struct CompileOutput {
    /// The parsed program.
    pub program: Program,
    /// Per-process type-check reports (loans; no errors if compilation
    /// succeeded), keyed by interned process name.
    pub reports: BTreeMap<Symbol, ProcReport>,
    /// One RTL module per process (plus any extern modules supplied).
    pub modules: ModuleLibrary,
    /// The emitted SystemVerilog for the whole library.
    pub systemverilog: String,
    /// Event counts before and after optimization.
    pub stats: PassStats,
}

impl CompileOutput {
    /// The type-check report for one process, by name.
    pub fn report(&self, proc: &str) -> Option<&ProcReport> {
        // Non-interning lookup: probing with unknown names must not grow
        // the global symbol table.
        self.reports.get(&Symbol::lookup(proc)?)
    }
}

/// One flattened, bit-blasted process from [`Session::compile_flat_aig`],
/// with the fingerprint its proof certificates are cached under.
#[derive(Clone, Debug)]
pub struct FlatAig {
    /// The circuit, shared with the query cache.
    pub circuit: Arc<anvil_smt::AigCircuit>,
    /// The top unit's lower-stage fingerprint; `None` when the top is an
    /// extern module rather than a compilation unit.
    unit_key: Option<u64>,
}

impl FlatAig {
    /// Fingerprint key for the proof artifact of `(top unit, property)`:
    /// the unit's lower-stage fingerprint — covering the proc's content,
    /// tracked dependencies, codegen options, transitive children, and
    /// the extern-library generation — crossed with the property text.
    /// Whitespace and comment edits key identically, so a re-prove after
    /// a formatting change is a pure [`Stage::Proof`] cache hit; any
    /// semantic edit or a different property misses.
    ///
    /// Returns `None` when the top is not a compilation unit (extern
    /// modules have no unit fingerprint to key on).
    pub fn proof_key(&self, property: &str) -> Option<u64> {
        self.unit_key.map(|k| units::proof_key(k, property))
    }
}

/// A code-generation diagnostic with an optional source location.
#[derive(Clone, Debug)]
pub struct CodegenDiag {
    /// Description of the failure.
    pub message: String,
    /// The offending definition, when attributable (e.g. the process with
    /// an unregistered loop, or the `extern fn` declaration missing an
    /// implementation).
    pub span: Option<Span>,
}

impl fmt::Display for CodegenDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// A failure in any compiler stage.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// Lexing / parsing failed.
    Parse(ParseError),
    /// Elaboration failed (names, widths, directions).
    Elaborate(anvil_ir::IrError),
    /// The program is not timing-safe; all violations are listed.
    TimingUnsafe(Vec<TypeError>),
    /// RTL generation failed.
    Codegen(CodegenDiag),
    /// The compiler itself panicked while processing this input. Batch
    /// workers and the `anvild` request loop catch per-compile panics
    /// and surface them here, so one bad input produces one structured
    /// error in one result slot instead of aborting the whole batch (or
    /// the whole daemon).
    Internal(String),
    /// The compilation was cancelled through the stop flag of its
    /// [`Control`] before it finished.
    Cancelled,
    /// The wall-clock [`Deadline`] of the compilation's [`Control`]
    /// expired before it finished. Like [`CompileError::Cancelled`], the
    /// session stays fully consistent: every artifact completed before
    /// expiry is cached and a retry resumes warm.
    DeadlineExceeded,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Elaborate(e) => write!(f, "elaboration error: {e}"),
            CompileError::TimingUnsafe(errs) => {
                writeln!(f, "{} timing-safety violation(s):", errs.len())?;
                for e in errs {
                    writeln!(f, "  - {e}")?;
                }
                Ok(())
            }
            CompileError::Codegen(e) => write!(f, "code generation error: {e}"),
            CompileError::Internal(msg) => write!(f, "internal compiler error: {msg}"),
            CompileError::Cancelled => write!(f, "compilation cancelled"),
            CompileError::DeadlineExceeded => write!(f, "compilation deadline exceeded"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<Interrupt> for CompileError {
    fn from(why: Interrupt) -> Self {
        match why {
            Interrupt::DeadlineExceeded => CompileError::DeadlineExceeded,
            Interrupt::Cancelled => CompileError::Cancelled,
        }
    }
}

impl CompileError {
    /// Renders the error with source locations resolved.
    ///
    /// One [`LineIndex`] is built and shared across every diagnostic, so a
    /// program with many violations resolves each span in O(log lines)
    /// rather than rescanning the whole source per error.
    pub fn render(&self, source: &str) -> String {
        let index = LineIndex::new(source);
        match self {
            CompileError::Parse(e) => e.render_with(&index),
            CompileError::Elaborate(e) => {
                let (line, col) = index.span_start(e.span);
                format!("{line}:{col}: {}", e.message)
            }
            CompileError::TimingUnsafe(errs) => errs
                .iter()
                .map(|e| e.render_with(&index))
                .collect::<Vec<_>>()
                .join("\n"),
            CompileError::Codegen(d) => match d.span {
                Some(span) => {
                    let (line, col) = index.span_start(span);
                    format!("{line}:{col}: {}", d.message)
                }
                None => d.message.clone(),
            },
            CompileError::Internal(msg) => format!("internal compiler error: {msg}"),
            CompileError::Cancelled => "compilation cancelled".to_string(),
            CompileError::DeadlineExceeded => "compilation deadline exceeded".to_string(),
        }
    }

    /// Flattens the error into location-resolved [`WireDiagnostic`]s
    /// ready for JSON serialization — the form the `anvild` compile
    /// server streams to clients as `diagnostics` notifications.
    ///
    /// Multi-violation errors ([`CompileError::TimingUnsafe`]) produce
    /// one diagnostic per violation; everything else produces exactly
    /// one, with the span resolved against `source` when the failure is
    /// attributable to a definition.
    pub fn wire_diagnostics(&self, source: &str) -> Vec<WireDiagnostic> {
        let index = LineIndex::new(source);
        match self {
            CompileError::Parse(e) => vec![WireDiagnostic::error_at(&e.message, e.span, &index)],
            CompileError::Elaborate(e) => {
                vec![WireDiagnostic::error_at(&e.message, e.span, &index)]
            }
            CompileError::TimingUnsafe(errs) => errs
                .iter()
                .map(|e| WireDiagnostic::error_at(&e.message, e.span, &index))
                .collect(),
            CompileError::Codegen(d) => vec![match d.span {
                Some(span) => WireDiagnostic::error_at(&d.message, span, &index),
                None => WireDiagnostic::error(&d.message),
            }],
            CompileError::Internal(msg) => {
                vec![WireDiagnostic::error(&format!(
                    "internal compiler error: {msg}"
                ))]
            }
            CompileError::Cancelled => vec![WireDiagnostic::error("compilation cancelled")],
            CompileError::DeadlineExceeded => {
                vec![WireDiagnostic::error("compilation deadline exceeded")]
            }
        }
    }
}

/// Locates the definition a codegen failure refers to, so the diagnostic
/// carries a source span like parse/elaboration errors do.
fn codegen_error(program: &Program, e: CodegenError) -> CompileError {
    match e {
        CodegenError::Ir(ir) => CompileError::Elaborate(ir),
        CodegenError::UnregisteredLoop { ref proc } => {
            let span = program.proc(proc).map(|p| p.span);
            CompileError::Codegen(CodegenDiag {
                message: e.to_string(),
                span,
            })
        }
        CodegenError::MissingExtern { ref func } => {
            let span = program
                .externs
                .iter()
                .find(|x| &x.name == func)
                .map(|x| x.span);
            CompileError::Codegen(CodegenDiag {
                message: e.to_string(),
                span,
            })
        }
        other => CompileError::Codegen(CodegenDiag {
            message: other.to_string(),
            span: None,
        }),
    }
}

/// Shared compiler state: options, the extern module library, and the
/// incremental query cache.
///
/// A session's configuration is immutable during compilation and the
/// cache is internally synchronised, so the session is `Send + Sync`: one
/// session can serve any number of concurrent [`Session::compile`] calls
/// (that is exactly what [`Session::compile_batch`] does).
///
/// # Incremental compilation
///
/// Every `proc` definition is one **compilation unit**. The session
/// caches four artifacts per unit — the checked two-iteration IR +
/// [`ProcReport`], the optimized single-iteration event graphs, the
/// lowered RTL [`anvil_rtl::Module`], and the emitted SystemVerilog chunk
/// — in a sharded LRU keyed by 64-bit **fingerprints**:
///
/// * the unit's span-independent content hash
///   ([`anvil_syntax::content_fingerprint`]), so whitespace, comment, and
///   top-level reordering edits reuse every artifact;
/// * the content hashes of the `chan` definitions and `extern fn`
///   declarations the proc references (its tracked dependencies);
/// * the [`CodegenOptions`] (for the optimize/lower/emit stages — the
///   type checker never reads them, so check artifacts survive option
///   flips);
/// * the transitive fingerprints of spawned children and the extern
///   RTL library generation (for lower/emit — a parent's module is
///   validated against its children's ports).
///
/// **Invalidation is purely key-based**: editing any hashed ingredient
/// produces a new key and therefore a miss; nothing is ever mutated in
/// place, so a warm compile is guaranteed byte-identical to a cold one.
/// Reports containing timing violations are never cached — their spans
/// must always point into the exact source being compiled. Cached *safe*
/// artifacts may carry spans from the first textual variant of an item
/// that produced them (loan tables are informational on the safe path).
///
/// [`Session::cache_stats`] exposes cumulative hit/miss/eviction counters
/// per stage; [`Session::set_cache_capacity`] bounds the artifact count
/// (approximately — capacity is split across shards), with
/// least-recently-used eviction beyond it.
#[derive(Debug, Default)]
pub struct Session {
    options: CodegenOptions,
    externs: ModuleLibrary,
    /// Bumped on every [`Session::add_extern`]; folded into lower/emit
    /// keys so registering an implementation invalidates exactly the
    /// stages that resolve instances against the library.
    extern_gen: u64,
    cache: QueryCache,
    /// Chaos-test fault schedule (see [`fault`]); `None` in production.
    /// The armed flag keeps the not-installed fast path to one relaxed
    /// atomic load per seam.
    faults: Mutex<Option<Arc<fault::FaultPlan>>>,
    faults_armed: AtomicBool,
}

/// Sessions are shared read-only across batch-compile workers (the cache
/// is internally sharded + locked); outputs travel back across thread
/// boundaries.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<QueryCache>();
    assert_send_sync::<ModuleLibrary>();
    assert_send::<CompileOutput>();
    assert_send::<CompileError>();
};

impl Session {
    /// A session with default options (optimizations on) and no externs.
    pub fn new() -> Session {
        Session::default()
    }

    /// Overrides code-generation options.
    pub fn set_options(&mut self, options: CodegenOptions) -> &mut Session {
        self.options = options;
        self
    }

    /// The session's code-generation options.
    pub fn options(&self) -> CodegenOptions {
        self.options
    }

    /// Registers an RTL implementation for an `extern fn` (module ports:
    /// `in0..inN`, `out`).
    ///
    /// Bumps the extern-library generation, which participates in every
    /// unit's lower/emit cache keys: previously lowered modules are
    /// re-validated against the changed library on the next compile.
    pub fn add_extern(&mut self, module: anvil_rtl::Module) -> &mut Session {
        self.externs.add(module);
        self.extern_gen += 1;
        self
    }

    /// The extern module library.
    pub fn externs(&self) -> &ModuleLibrary {
        &self.externs
    }

    /// Cumulative query-cache counters (hits, misses, evictions per
    /// pipeline stage) since the session was created. Subtract two
    /// snapshots to measure a single compile.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Bounds the artifact cache to roughly `capacity` entries (four
    /// artifacts per warm compilation unit), evicting least-recently-used
    /// artifacts beyond it. Eviction affects only performance: evicted
    /// units are recomputed with byte-identical results.
    pub fn set_cache_capacity(&mut self, capacity: usize) -> &mut Session {
        self.cache.set_capacity(capacity);
        self
    }

    /// Test support: installs (or clears) a deterministic fault schedule
    /// whose rules fire at the `session.compile` / `session.unit` seams
    /// of this session and the `cache.get` / `cache.insert` seams of its
    /// query cache. Chaos tests only; see [`fault::FaultPlan`].
    #[doc(hidden)]
    pub fn set_fault_plan(&self, plan: Option<Arc<fault::FaultPlan>>) {
        self.cache.set_fault_plan(plan.clone());
        self.faults_armed.store(plan.is_some(), Ordering::Relaxed);
        *self.faults.lock().unwrap_or_else(|p| p.into_inner()) = plan;
    }

    /// Executes any fault the installed plan schedules for `op` at this
    /// occurrence: panic unwinds from here (exercising the caller's
    /// `catch_unwind` isolation), a stall sleeps in place (exercising
    /// deadlines and the watchdog), and a shard poison kills one cache
    /// shard mid-flight (exercising poisoned-shard recovery).
    fn fault_point(&self, op: &str) {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return;
        }
        let plan = self
            .faults
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        let Some(kind) = plan.and_then(|p| p.take(op)) else {
            return;
        };
        match kind {
            fault::FaultKind::Panic => panic!("injected fault: panic at {op}"),
            fault::FaultKind::Stall(d) => std::thread::sleep(d),
            fault::FaultKind::PoisonShard => {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for b in op.bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
                self.cache.poison_shard_for_tests(h);
            }
            // Frame corruption happens on the client side of the wire;
            // nothing to do inside the session.
            fault::FaultKind::MalformedFrame => {}
        }
    }

    /// Pass 1: lexing and parsing.
    ///
    /// # Errors
    ///
    /// Fails on lex/parse errors.
    pub fn parse(&self, source: &str) -> Result<Program, CompileError> {
        Ok(parse(source)?)
    }

    /// Passes 1–2: parse, elaborate, and type-check (the fast path of the
    /// paper's feedback loop); returns reports containing any violations.
    /// `control` is polled before each unit, as in
    /// [`Session::compile_with`].
    ///
    /// # Errors
    ///
    /// Fails on parse or elaboration errors, or with
    /// [`CompileError::DeadlineExceeded`] / [`CompileError::Cancelled`]
    /// once `control` is interrupted; timing violations are inside the
    /// reports.
    pub fn check(
        &self,
        source: &str,
        control: &Control,
    ) -> Result<(Program, BTreeMap<Symbol, ProcReport>), CompileError> {
        let program = self.parse(source)?;
        let (_, reports) = self.check_units(&program, control)?;
        Ok((program, reports))
    }

    /// The per-unit check stage shared by [`Session::check`] and
    /// [`Session::compile_with`]: builds the item graph and the report
    /// map, serving every unit through the query cache.
    fn check_units<'p>(
        &self,
        program: &'p Program,
        control: &Control,
    ) -> Result<(ItemGraph<'p>, BTreeMap<Symbol, ProcReport>), CompileError> {
        let items = ItemGraph::new(program);
        let mut reports = BTreeMap::new();
        for p in &program.procs {
            if let Some(why) = control.interrupted() {
                return Err(why.into());
            }
            let report = self.checked_unit(program, &items, &p.name)?;
            reports.insert(Symbol::intern(&p.name), (*report).clone());
        }
        Ok((items, reports))
    }

    /// The check-stage artifact for one compilation unit, through the
    /// query cache. Reports with violations are never cached, so error
    /// spans always point into the current source.
    fn checked_unit(
        &self,
        program: &Program,
        items: &ItemGraph<'_>,
        proc_name: &str,
    ) -> Result<Arc<ProcReport>, CompileError> {
        let key = items.check_key(proc_name);
        let mut sp = anvil_trace::span("core", "check.unit");
        if let Some(Artifact::Checked(report)) = self.cache.get(Stage::Check, key) {
            sp.set_detail_with(|| format!("{proc_name} hit"));
            return Ok(report);
        }
        sp.set_detail_with(|| format!("{proc_name} miss"));
        let report = check_proc(program, proc_name).map_err(CompileError::Elaborate)?;
        let report = Arc::new(report);
        if report.is_safe() {
            self.cache
                .insert(Stage::Check, key, Artifact::Checked(report.clone()));
        }
        Ok(report)
    }

    /// Runs the full pass pipeline: parse, check, optimize, codegen, emit
    /// — check through emit per compilation unit through the query cache,
    /// with `compile` reduced to deterministic assembly of the per-item
    /// artifacts (byte-identical to a cold, cache-less compile).
    ///
    /// # Errors
    ///
    /// Fails if any pass fails; timing-unsafe programs yield
    /// [`CompileError::TimingUnsafe`] with every violation.
    pub fn compile(&self, source: &str) -> Result<CompileOutput, CompileError> {
        self.compile_with(source, &Control::none())
    }

    /// [`Session::compile`] under a [`Control`], for services that must
    /// abandon an in-flight request (the `anvild` daemon threads each
    /// request's `cancel` flag and `deadlineMs` through here).
    ///
    /// `control` is polled at every compilation-unit boundary — per proc
    /// in the check stage, per unit in optimize/lower, per module chunk
    /// in emit — so the stop latency is bounded by one unit's work, and
    /// an interrupted compile leaves the session fully consistent: the
    /// query cache keeps every artifact completed before the stop, and a
    /// retry resumes warm from exactly that point.
    ///
    /// # Errors
    ///
    /// As [`Session::compile`], plus [`CompileError::DeadlineExceeded`]
    /// or [`CompileError::Cancelled`] once `control` is interrupted (see
    /// [`Control::interrupted`] for which wins when both apply).
    pub fn compile_with(
        &self,
        source: &str,
        control: &Control,
    ) -> Result<CompileOutput, CompileError> {
        // Deliberate crash hook: see `PANIC_MARKER`.
        if source.contains(PANIC_MARKER) {
            panic!("injected compile panic ({PANIC_MARKER})");
        }
        self.fault_point("session.compile");
        if let Some(why) = control.interrupted() {
            return Err(why.into());
        }
        let _sp_compile = anvil_trace::span("core", "compile");
        let mut stats = PassStats::default();

        // ---- Pass 1: parse. ----
        let sp = anvil_trace::span("core", "parse");
        let program = self.parse(source)?;
        drop(sp);

        // ---- Pass 2: check, one unit per proc. ----
        let sp = anvil_trace::span("core", "check");
        let (items, reports) = self.check_units(&program, control)?;
        drop(sp);
        let errors: Vec<TypeError> = reports
            .values()
            .flat_map(|r| r.errors().into_iter().cloned())
            .collect();
        if !errors.is_empty() {
            return Err(CompileError::TimingUnsafe(errors));
        }

        // ---- Codegen preflight (same failure order as the monolithic
        // pipeline): extern impls first, then the child-before-parent
        // unit order. ----
        check_externs(&program, &self.externs).map_err(|e| codegen_error(&program, e))?;
        let order = proc_order(&program, &self.externs).map_err(|e| codegen_error(&program, e))?;
        let keys = items.unit_keys(&order, options_fingerprint(&self.options), self.extern_gen);

        // ---- Passes 3–4: per-unit optimize + lower, children before
        // parents against the growing library. ----
        let mut lib = self.externs.clone();
        let mut emit_keys: HashMap<&str, u64> = HashMap::new();
        for &name in &order {
            if let Some(why) = control.interrupted() {
                return Err(why.into());
            }
            self.fault_point("session.unit");
            let unit_keys = keys[name];
            emit_keys.insert(name, unit_keys.emit);

            let mut sp = anvil_trace::span("core", "optimize.unit");
            let ir_unit = match self.cache.get(Stage::OptIr, unit_keys.opt_ir) {
                Some(Artifact::OptIr(unit)) => {
                    sp.set_detail_with(|| format!("{name} hit"));
                    unit
                }
                _ => {
                    sp.set_detail_with(|| format!("{name} miss"));
                    let (irs, before, after) = build_optimized_ir(&program, name, self.options)
                        .map_err(|e| codegen_error(&program, e))?;
                    let unit = Arc::new(IrUnit {
                        irs,
                        events_before: before,
                        events_after: after,
                    });
                    self.cache.insert(
                        Stage::OptIr,
                        unit_keys.opt_ir,
                        Artifact::OptIr(unit.clone()),
                    );
                    unit
                }
            };
            drop(sp);
            stats.events_before += ir_unit.events_before;
            stats.events_after += ir_unit.events_after;

            let mut sp = anvil_trace::span("core", "lower.unit");
            let module = match self.cache.get(Stage::Lower, unit_keys.lower) {
                Some(Artifact::Lowered(m)) => {
                    sp.set_detail_with(|| format!("{name} hit"));
                    m
                }
                _ => {
                    sp.set_detail_with(|| format!("{name} miss"));
                    let m = lower_proc(&program, name, &ir_unit.irs, &lib, self.options)
                        .map_err(|e| codegen_error(&program, e))?;
                    let m = Arc::new(m);
                    self.cache
                        .insert(Stage::Lower, unit_keys.lower, Artifact::Lowered(m.clone()));
                    m
                }
            };
            drop(sp);
            lib.add(module);
        }

        // ---- Pass 5: emit — deterministic assembly of per-module
        // chunks in `emit_library` order. ----
        let sp_emit = anvil_trace::span("core", "emit");
        let mut systemverilog = String::new();
        for name in anvil_rtl::emit_order(&lib) {
            if let Some(why) = control.interrupted() {
                return Err(why.into());
            }
            // Extern modules are session state rather than compilation
            // units; their chunks are cached under (name, generation).
            let key = match emit_keys.get(name) {
                Some(&key) => key,
                None => units::extern_chunk_key(name, self.extern_gen),
            };
            let mut sp = anvil_trace::span("core", "emit.chunk");
            let chunk = match self.cache.get(Stage::Emit, key) {
                Some(Artifact::Sv(chunk)) => {
                    sp.set_detail_with(|| format!("{name} hit"));
                    chunk
                }
                _ => {
                    sp.set_detail_with(|| format!("{name} miss"));
                    let module = lib.get(name).expect("ordered module exists");
                    let chunk = Arc::new(anvil_rtl::emit_module(module));
                    self.cache
                        .insert(Stage::Emit, key, Artifact::Sv(chunk.clone()));
                    chunk
                }
            };
            drop(sp);
            systemverilog.push_str(&chunk);
            systemverilog.push('\n');
        }
        drop(sp_emit);

        Ok(CompileOutput {
            program,
            reports,
            modules: lib,
            systemverilog,
            stats,
        })
    }

    /// Compiles and flattens one process for simulation or verification.
    ///
    /// # Errors
    ///
    /// As [`Session::compile`], plus elaboration failures while
    /// flattening.
    pub fn compile_flat(&self, source: &str, top: &str) -> Result<anvil_rtl::Module, CompileError> {
        let out = self.compile(source)?;
        anvil_rtl::elaborate(top, &out.modules).map_err(|e| {
            CompileError::Codegen(CodegenDiag {
                message: e.to_string(),
                span: None,
            })
        })
    }

    /// Compiles, flattens, and **bit-blasts** one process into an
    /// And-Inverter Graph for symbolic verification, through the query
    /// cache: the circuit is cached under the unit's fingerprint (its
    /// content, tracked dependencies, codegen options, transitive
    /// children, and the extern-library generation), so re-proving an
    /// unchanged design skips elaboration and blasting entirely — watch
    /// the `aig` row of [`CacheStats`]. The result also carries the
    /// unit's proof-cache keys ([`FlatAig::proof_key`]), so one compile
    /// serves the whole prove.
    ///
    /// The compile runs under `control` exactly as in
    /// [`Session::compile_with`].
    ///
    /// # Errors
    ///
    /// As [`Session::compile_with`] and [`Session::compile_flat`], plus
    /// blasting failures (reported as codegen diagnostics).
    pub fn compile_flat_aig(
        &self,
        source: &str,
        top: &str,
        control: &Control,
    ) -> Result<FlatAig, CompileError> {
        let mut sp = anvil_trace::span("core", "flat_aig");
        let out = self.compile_with(source, control)?;
        let items = ItemGraph::new(&out.program);
        let order =
            proc_order(&out.program, &self.externs).map_err(|e| codegen_error(&out.program, e))?;
        let keys = items.unit_keys(&order, options_fingerprint(&self.options), self.extern_gen);
        // Tops that are not compilation units (extern modules) are built
        // uncached; elaboration rejects unknown names below either way.
        let unit_key = keys.get(top).map(|k| k.lower);
        let aig_key = unit_key.map(units::aig_key);
        if let Some(key) = aig_key {
            if let Some(Artifact::Aig(circuit)) = self.cache.get(Stage::Aig, key) {
                sp.set_detail_with(|| format!("{top} hit"));
                return Ok(FlatAig { circuit, unit_key });
            }
        }
        sp.set_detail_with(|| format!("{top} miss"));
        let flat = anvil_rtl::elaborate(top, &out.modules).map_err(|e| {
            CompileError::Codegen(CodegenDiag {
                message: e.to_string(),
                span: None,
            })
        })?;
        let circuit = anvil_smt::AigCircuit::from_module(&flat).map_err(|e| {
            CompileError::Codegen(CodegenDiag {
                message: e.to_string(),
                span: None,
            })
        })?;
        let circuit = Arc::new(circuit);
        if let Some(key) = aig_key {
            self.cache
                .insert(Stage::Aig, key, Artifact::Aig(Arc::clone(&circuit)));
        }
        Ok(FlatAig { circuit, unit_key })
    }

    /// Looks up a cached proof certificate by [`FlatAig::proof_key`],
    /// counting a `proof`-stage hit or miss in [`CacheStats`]. The caller
    /// is expected to *revalidate* the certificate against the current
    /// circuit (one incremental SAT session) rather than trust it blindly.
    pub fn cached_proof(&self, key: u64) -> Option<Arc<anvil_smt::ProofCert>> {
        match self.cache.get(Stage::Proof, key) {
            Some(Artifact::Proof(cert)) => Some(cert),
            _ => None,
        }
    }

    /// Stores a proof certificate under a [`FlatAig::proof_key`].
    pub fn store_proof(&self, key: u64, cert: Arc<anvil_smt::ProofCert>) {
        self.cache.insert(Stage::Proof, key, Artifact::Proof(cert));
    }

    /// Compiles many independent designs in parallel, sharing this session
    /// read-only across up to `workers` `std::thread::scope` workers.
    ///
    /// Results come back in input order, and each is byte-identical to
    /// what a sequential [`Session::compile`] of the same source produces:
    /// the IR is interned and immutable during lowering, and every
    /// order-sensitive container sorts by resolved names rather than by
    /// interning order.
    pub fn compile_batch(
        &self,
        sources: &[&str],
        workers: usize,
    ) -> Vec<Result<CompileOutput, CompileError>> {
        let n = sources.len();
        let workers = workers.min(n);
        if n <= 1 || workers <= 1 {
            // Nothing to fan out (or nowhere to fan out to): compile
            // inline, skipping thread setup.
            return sources.iter().map(|s| self.compile_caught(s)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<CompileOutput, CompileError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Per-unit panics are caught inside `compile_caught`,
                    // so the slot is always filled and the worker (and
                    // every sibling slot's mutex) survives a bad input.
                    let result = self.compile_caught(sources[i]);
                    match slots[i].lock() {
                        Ok(mut slot) => *slot = Some(result),
                        Err(poisoned) => *poisoned.into_inner() = Some(result),
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .unwrap_or_else(|| {
                        Err(CompileError::Internal(
                            "batch worker died before filling its result slot".to_string(),
                        ))
                    })
            })
            .collect()
    }

    /// [`Session::compile`] with panics converted into
    /// [`CompileError::Internal`] — the unit of work batch workers run,
    /// so one panicking input yields one structured error in its own
    /// result slot instead of unwinding through the worker and poisoning
    /// every slot behind it.
    fn compile_caught(&self, source: &str) -> Result<CompileOutput, CompileError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.compile(source)))
            .unwrap_or_else(|payload| Err(CompileError::Internal(panic_message(payload))))
    }

    /// Test support: poisons the query-cache shard `key` maps to, as a
    /// compile panicking under the shard lock would. Hidden — exists so
    /// the poisoned-shard recovery regression tests can exercise the
    /// failure mode from outside the crate.
    #[doc(hidden)]
    pub fn poison_cache_shard_for_tests(&self, key: u64) {
        self.cache.poison_shard_for_tests(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_produces_sv() {
        let out = Session::new()
            .compile(
                "chan ch { right beat : (logic[8]@#1) }
                 proc blink(ep : left ch) {
                    reg c : logic[8];
                    loop { send ep.beat (*c) >> set c := *c + 1 >> cycle 1 }
                 }",
            )
            .unwrap();
        assert!(out.systemverilog.contains("module blink"));
        assert!(out.modules.get("blink").is_some());
        assert!(out.report("blink").unwrap().is_safe());
    }

    #[test]
    fn pass_stats_are_recorded() {
        let out = Session::new()
            .compile("proc p() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }")
            .unwrap();
        assert!(out.stats.events_before >= out.stats.events_after);
        assert!(out.stats.events_after > 0);
    }

    #[test]
    fn unsafe_program_reports_all_violations() {
        let src = "
            chan memory_ch {
                right address : (logic[8]@#2),
                left data : (logic[8]@#1)
            }
            proc top_unsafe(mem : left memory_ch) {
                reg addr : logic[8];
                loop {
                    send mem.address (*addr) >>
                    set addr := *addr + 1 >>
                    let d = recv mem.data >>
                    cycle 1
                }
            }";
        let err = Session::new().compile(src).unwrap_err();
        let CompileError::TimingUnsafe(errs) = err else {
            panic!("expected timing violations");
        };
        assert!(!errs.is_empty());
        let rendered = CompileError::TimingUnsafe(errs).render(src);
        assert!(rendered.contains("loaned register"));
    }

    #[test]
    fn parse_errors_render_with_location() {
        let err = Session::new()
            .compile("proc p() { loop { ??? } }")
            .unwrap_err();
        assert!(matches!(err, CompileError::Parse(_)));
    }

    #[test]
    fn codegen_errors_carry_spans() {
        // An unregistered loop is a codegen-stage failure; the diagnostic
        // should point at the offending process definition.
        let src = "chan c { left m : (logic[8]@#1) }
proc p(ep : left c) { loop { let x = recv ep.m >> x } }";
        let err = Session::new().compile(src).unwrap_err();
        let CompileError::Codegen(diag) = &err else {
            panic!("expected codegen error, got {err}");
        };
        assert!(diag.span.is_some(), "span missing: {diag:?}");
        let rendered = err.render(src);
        assert!(
            rendered.starts_with("2:"),
            "diagnostic not located on line 2: {rendered}"
        );
    }

    #[test]
    fn missing_extern_diagnostic_points_at_declaration() {
        let src = "extern fn nope(logic[8]) -> logic[8];
proc p() { reg r : logic[8]; loop { set r := nope(*r) >> cycle 1 } }";
        let err = Session::new().compile(src).unwrap_err();
        let CompileError::Codegen(diag) = &err else {
            panic!("expected codegen error, got {err}");
        };
        assert!(diag.span.is_some());
        assert!(err.render(src).starts_with("1:"), "{}", err.render(src));
    }

    #[test]
    fn check_is_side_effect_free() {
        let (_prog, reports) = Session::new()
            .check(
                "proc p() { reg r : logic; loop { set r := ~*r >> cycle 1 } }",
                &Control::none(),
            )
            .unwrap();
        assert!(reports[&Symbol::intern("p")].is_safe());
    }

    #[test]
    fn compile_flat_simulates() {
        let flat = Session::new()
            .compile_flat(
                "proc p() { reg c : logic[8]; loop { set c := *c + 1 >> cycle 1 } }",
                "p",
            )
            .unwrap();
        let mut sim = anvil_sim::Sim::new(&flat).unwrap();
        sim.run(8).unwrap();
        // One increment per 2-cycle iteration.
        assert_eq!(sim.peek("c").unwrap().to_u64(), 4);
    }

    #[test]
    fn aig_blasting_is_cached_per_unit_fingerprint() {
        let session = Session::new();
        let src = "proc p() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }";
        let a1 = session
            .compile_flat_aig(src, "p", &Control::none())
            .unwrap()
            .circuit;
        let cold = session.cache_stats();
        assert_eq!(cold.aig.misses, 1);
        assert_eq!(cold.aig.hits, 0);

        // Warm re-blast of the identical source: a pure cache hit, same
        // shared circuit.
        let a2 = session
            .compile_flat_aig(src, "p", &Control::none())
            .unwrap()
            .circuit;
        let warm = session.cache_stats() - cold;
        assert_eq!((warm.aig.hits, warm.aig.misses), (1, 0));
        assert!(Arc::ptr_eq(&a1, &a2));

        // Whitespace/comment edits fingerprint identically: still a hit.
        let reformatted =
            "proc p() {\n  reg r : logic[8]; // counter\n  loop { set r := *r + 1 >> cycle 1 }\n}";
        let a3 = session
            .compile_flat_aig(reformatted, "p", &Control::none())
            .unwrap()
            .circuit;
        let ws = session.cache_stats() - cold - warm;
        assert_eq!((ws.aig.hits, ws.aig.misses), (1, 0));
        assert!(Arc::ptr_eq(&a1, &a3));

        // A real edit (wider register) misses and rebuilds.
        let edited = "proc p() { reg r : logic[9]; loop { set r := *r + 1 >> cycle 1 } }";
        let a4 = session
            .compile_flat_aig(edited, "p", &Control::none())
            .unwrap()
            .circuit;
        let miss = session.cache_stats() - cold - warm - ws;
        assert_eq!(miss.aig.misses, 1);
        // One extra register bit on top of the unchanged FSM latches.
        assert_eq!(a4.aig().n_latches(), a1.aig().n_latches() + 1);
    }

    #[test]
    fn proof_certificates_are_cached_per_unit_fingerprint_and_property() {
        let session = Session::new();
        let src = "proc p() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }";
        let prop = "r < 255";
        let proof_key = |src: &str, prop: &str| {
            session
                .compile_flat_aig(src, "p", &Control::none())
                .unwrap()
                .proof_key(prop)
                .expect("unit")
        };
        let key = proof_key(src, prop);

        // Cold: a proof-stage miss, then the prover's certificate lands.
        assert!(session.cached_proof(key).is_none());
        let cert = Arc::new(anvil_smt::ProofCert {
            kind: anvil_smt::CertKind::KInduction { k: 1 },
            engine: "k-induction",
        });
        session.store_proof(key, Arc::clone(&cert));
        let cold = session.cache_stats();
        assert_eq!((cold.proof.hits, cold.proof.misses), (0, 1));

        // Whitespace edits key identically: warm re-prove is a pure hit
        // on the same shared certificate.
        let reformatted =
            "proc p() {\n  reg r : logic[8]; // counter\n  loop { set r := *r + 1 >> cycle 1 }\n}";
        let warm_key = proof_key(reformatted, prop);
        assert_eq!(warm_key, key);
        let got = session.cached_proof(warm_key).expect("warm hit");
        assert!(Arc::ptr_eq(&got, &cert));
        let warm = session.cache_stats() - cold;
        assert_eq!((warm.proof.hits, warm.proof.misses), (1, 0));

        // A different property or a semantic edit keys elsewhere.
        assert_ne!(proof_key(src, "r < 128"), key);
        let edited = "proc p() { reg r : logic[9]; loop { set r := *r + 1 >> cycle 1 } }";
        assert_ne!(proof_key(edited, prop), key);
    }

    #[test]
    fn batch_panic_surfaces_as_internal_error_in_its_slot() {
        let good = "proc a() { reg r : logic[4]; loop { set r := *r + 1 >> cycle 1 } }";
        let boom = format!("proc {PANIC_MARKER}() {{}}");
        // Pre-fix, the panicking unit unwound through its worker and the
        // whole batch aborted on "worker filled every claimed slot";
        // now the panic is scoped to its own slot.
        let out = Session::new().compile_batch(&[good, &boom, good], 2);
        assert!(out[0].is_ok());
        assert!(
            matches!(&out[1], Err(CompileError::Internal(msg)) if msg.contains(PANIC_MARKER)),
            "{:?}",
            out[1].as_ref().err()
        );
        assert!(out[2].is_ok());

        // The inline (single-worker) path catches identically.
        let out = Session::new().compile_batch(&[&boom], 1);
        assert!(matches!(&out[0], Err(CompileError::Internal(_))));
    }

    #[test]
    fn poisoned_cache_shard_does_not_wedge_the_session() {
        let session = Session::new();
        let src = "proc p() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }";
        let cold = session.compile(src).unwrap();

        // Poison every shard: whatever shard this unit's keys map to is
        // covered. Pre-fix, the next compile panicked on the first
        // `get` with "cache shard poisoned".
        for key in 0..64u64 {
            session.poison_cache_shard_for_tests(key);
        }
        let again = session.compile(src).unwrap();
        assert_eq!(cold.systemverilog, again.systemverilog);
        let stats = session.cache_stats();
        assert!(stats.poisoned >= 1, "{stats}");

        // And the cache still *works*: a third compile is pure warm.
        let before = session.cache_stats();
        session.compile(src).unwrap();
        let delta = session.cache_stats() - before;
        assert_eq!(delta.misses(), 0, "{delta}");
    }

    #[test]
    fn every_entry_point_honours_its_control() {
        let session = Session::new();
        let src = "proc p() { reg r : logic; loop { set r := ~*r >> cycle 1 } }";
        let raised = Control {
            stop: Some(Arc::new(AtomicBool::new(true))),
            deadline: Deadline::none(),
        };
        let err = session.compile_with(src, &raised).unwrap_err();
        assert!(matches!(err, CompileError::Cancelled));
        assert_eq!(err.render(""), "compilation cancelled");
        assert!(matches!(
            session.check(src, &raised),
            Err(CompileError::Cancelled)
        ));
        assert!(matches!(
            session.compile_flat_aig(src, "p", &raised),
            Err(CompileError::Cancelled)
        ));

        // An expired deadline wins over a raised flag.
        let expired = Control {
            deadline: Deadline::in_ms(0),
            ..raised
        };
        assert!(matches!(
            session.compile_with(src, &expired),
            Err(CompileError::DeadlineExceeded)
        ));
        assert!(matches!(
            session.check(src, &expired),
            Err(CompileError::DeadlineExceeded)
        ));

        // Nothing raised: identical output to the plain path.
        let lowered = Control {
            stop: Some(Arc::new(AtomicBool::new(false))),
            deadline: Deadline::after(std::time::Duration::from_secs(3600)),
        };
        let a = session.compile_with(src, &lowered).unwrap();
        let b = session.compile(src).unwrap();
        assert_eq!(a.systemverilog, b.systemverilog);
    }

    #[test]
    fn wire_diagnostics_resolve_spans() {
        let src = "proc p() { loop { ??? } }";
        let err = Session::new().compile(src).unwrap_err();
        let diags = err.wire_diagnostics(src);
        assert_eq!(diags.len(), 1);
        let json = diags[0].to_json();
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(json.contains("\"line\":1"), "{json}");

        // Multi-violation errors flatten one diagnostic per violation.
        let src = "
            chan memory_ch {
                right address : (logic[8]@#2),
                left data : (logic[8]@#1)
            }
            proc top_unsafe(mem : left memory_ch) {
                reg addr : logic[8];
                loop {
                    send mem.address (*addr) >>
                    set addr := *addr + 1 >>
                    let d = recv mem.data >>
                    cycle 1
                }
            }";
        let err = Session::new().compile(src).unwrap_err();
        let CompileError::TimingUnsafe(n) = &err else {
            panic!("expected violations");
        };
        assert_eq!(err.wire_diagnostics(src).len(), n.len());
    }

    #[test]
    fn batch_results_in_input_order_with_errors_preserved() {
        let good = "proc a() { reg r : logic[4]; loop { set r := *r + 1 >> cycle 1 } }";
        let bad = "proc b() { loop { ??? } }";
        let out = Session::new().compile_batch(&[good, bad, good], 2);
        assert_eq!(out.len(), 3);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(CompileError::Parse(_))));
        assert!(out[2].is_ok());
    }

    #[test]
    fn batch_matches_sequential_byte_for_byte() {
        let sources = [
            "proc a() { reg r : logic[4]; loop { set r := *r + 1 >> cycle 1 } }",
            "chan ch { right v : (logic[8]@#1) }
             proc b(ep : left ch) {
                reg c : logic[8];
                loop { send ep.v (*c) >> set c := *c + 2 >> cycle 1 }
             }",
            "proc c() { reg x : logic; loop { set x := ~*x >> cycle 2 } }",
        ];
        let session = Session::new();
        let sequential: Vec<String> = sources
            .iter()
            .map(|s| session.compile(s).unwrap().systemverilog)
            .collect();
        let batch = session.compile_batch(&sources, 3);
        for (seq, par) in sequential.iter().zip(&batch) {
            assert_eq!(seq, &par.as_ref().unwrap().systemverilog);
        }
    }
}

//! The cycle-accurate two-phase simulation facade and the tree-walking
//! reference backend.
//!
//! [`Sim`] executes a *flattened* [`Module`] (see [`anvil_rtl::elaborate`]):
//! each cycle first settles every combinational signal in topological order
//! (phase 1), then commits register next-values and array writes on the
//! implicit rising clock edge (phase 2). This matches the synthesizable
//! subset's SystemVerilog semantics bit-for-bit and cycle-for-cycle, which
//! is all the paper's evaluation needs (functional equivalence + cycle
//! latency; see DESIGN.md §1 for the substitution rationale).
//!
//! Two interchangeable engines implement the [`SimBackend`] trait:
//!
//! * [`Backend::Tree`] — the reference engine in this module, which
//!   re-walks the recursive [`Expr`] trees every cycle, and
//! * [`Backend::Compiled`] — the instruction-tape executor in
//!   [`crate::tape`] (a one-time lowering to topologically scheduled
//!   word-level ops over a flat `u64` arena) run at one lane: the same
//!   executor `SimBatch` runs at 4 to 32 lanes, dirty-region settle
//!   skipping included.
//!
//! Both engines are driven through the same facade, produce bit-identical
//! signal values, debug prints, toggle counts, and state fingerprints, and
//! are differentially property-tested against each other over the paper's
//! ten-design evaluation suite.

use std::cell::{RefCell, RefMut};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use anvil_rtl::{ArrayId, BinaryOp, Bits, Expr, Module, SignalId, SignalKind, UnaryOp};

use crate::tape::{LaneEngine, Tape};

/// Errors raised when preparing or running a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The design still contains instances; flatten it first.
    NotFlat(String),
    /// Combinational assignments form a cycle through the named signal.
    CombinationalLoop(String),
    /// A peek/poke referenced an unknown signal name.
    UnknownSignal(String),
    /// Poke of a non-input signal.
    NotAnInput(String),
    /// A value of the wrong width was poked.
    WidthMismatch {
        /// The poked signal.
        signal: String,
        /// Declared port width.
        expected: usize,
        /// Width of the poked value.
        found: usize,
    },
    /// A driver expression's width differs from its target signal's
    /// declared width (the compiled backend width-checks every driver
    /// while lowering to the tape).
    DriverWidth {
        /// The mis-driven signal (or array, for write ports).
        signal: String,
        /// Declared width.
        expected: usize,
        /// Width of the driving expression.
        found: usize,
    },
    /// An expression could not be width-checked during tape lowering.
    MalformedExpr(String),
    /// The `ANVIL_SIM_BACKEND` environment variable holds an unrecognized
    /// value (never silently ignored: a typo would otherwise run every
    /// test on the wrong engine).
    UnknownBackend(String),
    /// A lane-engine stride (from `ANVIL_SIM_LANES` or
    /// [`TapeOptions::stride`](crate::TapeOptions)) is not one of the
    /// monomorphized widths. Like an unknown backend, a typo'd width is
    /// surfaced instead of silently running the default stride.
    UnknownLaneWidth(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NotFlat(m) => write!(f, "module `{m}` contains instances; elaborate first"),
            SimError::CombinationalLoop(s) => {
                write!(f, "combinational loop through signal `{s}`")
            }
            SimError::UnknownSignal(s) => write!(f, "unknown signal `{s}`"),
            SimError::NotAnInput(s) => write!(f, "signal `{s}` is not an input"),
            SimError::WidthMismatch {
                signal,
                expected,
                found,
            } => write!(
                f,
                "poked `{signal}` with width {found}, expected {expected}"
            ),
            SimError::DriverWidth {
                signal,
                expected,
                found,
            } => write!(
                f,
                "driver of `{signal}` has width {found}, expected {expected}"
            ),
            SimError::MalformedExpr(s) => write!(f, "malformed expression: {s}"),
            SimError::UnknownBackend(v) => write!(
                f,
                "unrecognized ANVIL_SIM_BACKEND value `{v}`; valid values: \
                 tree, interp, compiled, tape"
            ),
            SimError::UnknownLaneWidth(v) => write!(
                f,
                "unrecognized lane width `{v}`; valid ANVIL_SIM_LANES values: \
                 4, 8, 16, 32"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Which engine executes the design.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The reference engine: walks the recursive `Expr` trees every cycle.
    Tree,
    /// The compiled engine: a one-time lowering to a linear instruction
    /// tape with pre-resolved slot indices and word-packed storage, run
    /// by the tape executor at one lane (settles skip regions whose
    /// inputs did not change).
    #[default]
    Compiled,
}

impl Backend {
    /// Backend selected by the `ANVIL_SIM_BACKEND` environment variable:
    /// `tree` / `interp` select the reference engine, `compiled` / `tape`
    /// (or an unset/empty variable) the compiled engine.
    ///
    /// # Errors
    ///
    /// Any other value is an error naming the valid choices — an
    /// unrecognized backend is never silently replaced by the default,
    /// which would make e.g. `ANVIL_SIM_BACKEND=treee` run everything on
    /// the wrong engine without a hint.
    pub fn from_env() -> Result<Backend, SimError> {
        use std::env::VarError;
        match std::env::var("ANVIL_SIM_BACKEND") {
            Err(VarError::NotPresent) => Ok(Backend::Compiled),
            // A non-UTF-8 value is just as much a typo as a misspelled
            // one — surface it instead of silently running the default.
            Err(VarError::NotUnicode(raw)) => {
                Err(SimError::UnknownBackend(raw.to_string_lossy().into_owned()))
            }
            Ok(v) => Backend::from_name(&v),
        }
    }

    /// Parses a backend name (the `ANVIL_SIM_BACKEND` value set);
    /// the empty string selects the default.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBackend`] (listing the valid values)
    /// for anything else.
    pub fn from_name(name: &str) -> Result<Backend, SimError> {
        match name {
            "tree" | "interp" => Ok(Backend::Tree),
            "compiled" | "tape" | "" => Ok(Backend::Compiled),
            other => Err(SimError::UnknownBackend(other.to_string())),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Tree => write!(f, "tree"),
            Backend::Compiled => write!(f, "compiled"),
        }
    }
}

/// One simulation engine behind the [`Sim`] facade.
///
/// Implementations hold all mutable run state (signal values, memories,
/// toggle counters). The facade owns name resolution, width checking,
/// cycle counting, and the debug-print log; it guarantees that
/// `peek_id`/`poke_id` receive valid ids and width-matched values, and
/// that the engine is settled before it reads a signal or evaluates an
/// expression.
pub trait SimBackend: Send {
    /// Which engine this is.
    fn kind(&self) -> Backend;
    /// Evaluates all combinational logic against the current inputs and
    /// register state. Must be idempotent (cheap when nothing changed).
    fn settle(&mut self);
    /// Fires debug prints into `log`, counts toggles, then commits
    /// register next-values and array writes (the rising clock edge).
    /// Assumes the engine is settled.
    fn commit(&mut self, cycle: u64, log: &mut Vec<(u64, String)>);
    /// Reads a settled signal value.
    fn peek_id(&self, id: SignalId) -> Bits;
    /// Writes an input signal (width pre-checked by the facade).
    fn poke_id(&mut self, id: SignalId, value: Bits);
    /// Reads one element of a memory.
    fn peek_array(&self, array: ArrayId, index: usize) -> Bits;
    /// Writes one element of a memory directly (the facade pre-resizes
    /// `value` to the declared element width).
    fn poke_array(&mut self, array: ArrayId, index: usize, value: Bits);
    /// Evaluates an arbitrary expression against the settled state.
    fn eval(&self, e: &Expr) -> Bits;
    /// Hash of the architectural state (registers and memories, a ROM as
    /// one digest of its contents); equal across backends for equal
    /// states.
    fn state_fingerprint(&self) -> u64;
    /// Total observed bit toggles per signal.
    fn toggle_counts(&self) -> &[u64];
    /// Restores the power-on state (register inits, memory inits, zeroed
    /// toggle counters).
    fn reset(&mut self);
}

/// Read access to settled signal and memory values, shared by the
/// expression evaluator across backends.
pub(crate) trait ValueSource {
    /// Current value of a signal.
    fn signal(&self, id: SignalId) -> Bits;
    /// Current value of one memory element; zero of the element width when
    /// `index` is out of range.
    fn array_read(&self, array: ArrayId, index: usize) -> Bits;
}

/// Evaluates an expression against a value source. This is the single
/// semantics definition both backends (and the BMC assertion checker)
/// share.
pub(crate) fn eval_expr(e: &Expr, src: &dyn ValueSource) -> Bits {
    match e {
        Expr::Const(b) => b.clone(),
        Expr::Signal(s) => src.signal(*s),
        Expr::Unary(op, a) => {
            let v = eval_expr(a, src);
            match op {
                UnaryOp::Not => v.not(),
                UnaryOp::Neg => v.neg(),
                UnaryOp::RedAnd => Bits::bit(v.reduce_and()),
                UnaryOp::RedOr => Bits::bit(v.reduce_or()),
                UnaryOp::RedXor => Bits::bit(v.reduce_xor()),
                UnaryOp::LogicNot => Bits::bit(v.is_zero()),
            }
        }
        Expr::Binary(op, a, b) => {
            let va = eval_expr(a, src);
            let vb = eval_expr(b, src);
            match op {
                BinaryOp::Add => va.add(&vb),
                BinaryOp::Sub => va.sub(&vb),
                BinaryOp::Mul => va.mul(&vb),
                BinaryOp::And => va.and(&vb),
                BinaryOp::Or => va.or(&vb),
                BinaryOp::Xor => va.xor(&vb),
                BinaryOp::Eq => Bits::bit(va == vb),
                BinaryOp::Ne => Bits::bit(va != vb),
                BinaryOp::Lt => Bits::bit(va.lt(&vb)),
                BinaryOp::Le => Bits::bit(!vb.lt(&va)),
                BinaryOp::Gt => Bits::bit(vb.lt(&va)),
                BinaryOp::Ge => Bits::bit(!va.lt(&vb)),
                BinaryOp::Shl => va.shl(vb.to_u64().min(u64::from(u32::MAX)) as usize),
                BinaryOp::Shr => va.shr(vb.to_u64().min(u64::from(u32::MAX)) as usize),
            }
        }
        Expr::Mux {
            cond,
            then_e,
            else_e,
        } => {
            if eval_expr(cond, src).is_truthy() {
                eval_expr(then_e, src)
            } else {
                eval_expr(else_e, src)
            }
        }
        Expr::Concat(parts) => {
            let mut vals = parts.iter().map(|p| eval_expr(p, src));
            let first = vals.next().expect("concat is non-empty");
            vals.fold(first, |acc, v| acc.concat(&v))
        }
        Expr::Slice { base, lo, width } => eval_expr(base, src).slice(*lo, *width),
        Expr::ArrayRead { array, index } => {
            let idx = eval_expr(index, src).to_u64() as usize;
            src.array_read(*array, idx)
        }
        Expr::Resize { base, width } => eval_expr(base, src).resize(*width),
    }
}

/// Canonical architectural-state hasher. Both backends feed it the same
/// `(width, words)` stream — registers in id order, then memories in
/// declaration order — so fingerprints agree bit-for-bit across engines.
///
/// A writable memory adds one entry per element. A ROM (a memory no
/// write port targets, see [`rom_flags`]) adds the single entry
/// `(width, [rom_digest(..)])`: the tape executor digests each shared
/// ROM image once per tape instead of re-hashing it per lane.
pub(crate) struct StateHasher(std::collections::hash_map::DefaultHasher);

impl StateHasher {
    pub(crate) fn new() -> Self {
        StateHasher(std::collections::hash_map::DefaultHasher::new())
    }

    pub(crate) fn add(&mut self, width: usize, words: &[u64]) {
        width.hash(&mut self.0);
        words.hash(&mut self.0);
    }

    pub(crate) fn finish(self) -> u64 {
        self.0.finish()
    }
}

/// Digest of a ROM's contents: one `(width, image)` entry hashed on its
/// own, where `image` is the word-packed elements in index order.
pub(crate) fn rom_digest(width: usize, image: &[u64]) -> u64 {
    let mut h = StateHasher::new();
    h.add(width, image);
    h.finish()
}

/// Which memories are ROMs, indexed by [`ArrayId`]: a memory is read-only
/// when no entry of `module.array_writes` targets it.
pub(crate) fn rom_flags(module: &Module) -> Vec<bool> {
    let mut rom = vec![true; module.arrays.len()];
    for w in &module.array_writes {
        rom[w.array.0] = false;
    }
    rom
}

/// Rejects modules whose drivers fail to width-check, so both backends
/// accept exactly the same module set (the tape lowering re-derives the
/// same widths while allocating slots; the tree engine would otherwise
/// silently store mis-sized values or panic mid-cycle).
pub(crate) fn check_driver_widths(module: &Module) -> Result<(), SimError> {
    let check = |target: &str, declared: usize, e: &Expr| -> Result<(), SimError> {
        let found = module.expr_width(e).map_err(SimError::MalformedExpr)?;
        if found != declared {
            return Err(SimError::DriverWidth {
                signal: target.to_string(),
                expected: declared,
                found,
            });
        }
        Ok(())
    };
    for (id, e) in &module.assigns {
        let sig = module.signal(*id);
        check(&sig.name, sig.width, e)?;
    }
    for (id, e) in &module.reg_next {
        let sig = module.signal(*id);
        check(&sig.name, sig.width, e)?;
    }
    for w in &module.array_writes {
        let decl = &module.arrays[w.array.0];
        check(&decl.name, decl.width, &w.data)?;
        module
            .expr_width(&w.enable)
            .map_err(SimError::MalformedExpr)?;
        module
            .expr_width(&w.index)
            .map_err(SimError::MalformedExpr)?;
    }
    for p in &module.prints {
        module
            .expr_width(&p.enable)
            .map_err(SimError::MalformedExpr)?;
        if let Some(v) = &p.value {
            module.expr_width(v).map_err(SimError::MalformedExpr)?;
        }
    }
    Ok(())
}

/// The tree-walking reference engine: evaluates the module's `Expr` trees
/// directly, one recursive walk per driven signal per settle.
pub(crate) struct TreeEngine {
    module: Arc<Module>,
    /// Current value of every signal (inputs, wires, outputs, regs).
    values: Vec<Bits>,
    /// Previous settled values, for toggle counting.
    prev_values: Vec<Bits>,
    arrays: Vec<Vec<Bits>>,
    /// [`rom_flags`]: which memories fingerprint as one digest.
    roms: Vec<bool>,
    comb_order: Vec<SignalId>,
    /// Register next-value pairs in id order (deterministic iteration).
    reg_next: Vec<(SignalId, Expr)>,
    /// Total bit toggles observed per signal across the run.
    toggles: Vec<u64>,
    /// Reused commit scratch: computed register next-values. Kept on the
    /// engine so the per-cycle hot path never reallocates.
    next_scratch: Vec<(SignalId, Bits)>,
    /// Reused commit scratch: pending array writes.
    array_scratch: Vec<(ArrayId, usize, Bits)>,
    dirty: bool,
}

fn initial_values(module: &Module) -> Vec<Bits> {
    module
        .signals
        .iter()
        .map(|s| match (&s.kind, &s.init) {
            (SignalKind::Reg, Some(init)) => init.clone(),
            _ => Bits::zero(s.width),
        })
        .collect()
}

fn initial_arrays(module: &Module) -> Vec<Vec<Bits>> {
    module
        .arrays
        .iter()
        .map(|a| {
            let mut contents = vec![Bits::zero(a.width); a.depth];
            for (i, v) in a.init.iter().enumerate() {
                contents[i] = v.clone();
            }
            contents
        })
        .collect()
}

impl TreeEngine {
    pub(crate) fn new(module: Arc<Module>) -> Result<Self, SimError> {
        let comb_order = module
            .comb_schedule()
            .map_err(|sid| SimError::CombinationalLoop(module.signal(sid).name.clone()))?;
        let values = initial_values(&module);
        let arrays = initial_arrays(&module);
        let mut reg_next: Vec<(SignalId, Expr)> = module
            .reg_next
            .iter()
            .map(|(id, e)| (*id, e.clone()))
            .collect();
        reg_next.sort_by_key(|(id, _)| *id);
        let n = values.len();
        let regs = reg_next.len();
        Ok(TreeEngine {
            roms: rom_flags(&module),
            module,
            prev_values: values.clone(),
            values,
            arrays,
            comb_order,
            reg_next,
            toggles: vec![0; n],
            next_scratch: Vec::with_capacity(regs),
            array_scratch: Vec::new(),
            dirty: true,
        })
    }
}

impl ValueSource for TreeEngine {
    fn signal(&self, id: SignalId) -> Bits {
        self.values[id.0].clone()
    }

    fn array_read(&self, array: ArrayId, index: usize) -> Bits {
        let contents = &self.arrays[array.0];
        if index < contents.len() {
            contents[index].clone()
        } else {
            Bits::zero(self.module.arrays[array.0].width)
        }
    }
}

impl SimBackend for TreeEngine {
    fn kind(&self) -> Backend {
        Backend::Tree
    }

    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        let module = Arc::clone(&self.module);
        for i in 0..self.comb_order.len() {
            let id = self.comb_order[i];
            let v = eval_expr(&module.assigns[&id], self);
            self.values[id.0] = v;
        }
        self.dirty = false;
    }

    fn commit(&mut self, cycle: u64, log: &mut Vec<(u64, String)>) {
        self.settle();

        for p in &self.module.prints {
            if eval_expr(&p.enable, self).is_truthy() {
                let msg = match &p.value {
                    Some(v) => format!("{}: {:x}", p.label, eval_expr(v, self)),
                    None => p.label.clone(),
                };
                log.push((cycle, msg));
            }
        }

        for (i, (cur, prev)) in self.values.iter().zip(&self.prev_values).enumerate() {
            self.toggles[i] += u64::from(cur.hamming_distance(prev));
        }
        self.prev_values.clone_from(&self.values);

        // Compute all register next-values and array writes from the
        // settled state, then commit simultaneously (nonblocking
        // semantics). The scratch vectors live on the engine and are
        // reused across cycles (taken/cleared/restored) so the per-cycle
        // hot path never reallocates once warm.
        let mut next = std::mem::take(&mut self.next_scratch);
        next.clear();
        for (reg, e) in &self.reg_next {
            next.push((*reg, eval_expr(e, self)));
        }
        let mut array_commits = std::mem::take(&mut self.array_scratch);
        array_commits.clear();
        for w in &self.module.array_writes {
            if eval_expr(&w.enable, self).is_truthy() {
                let idx = eval_expr(&w.index, self).to_u64() as usize;
                let depth = self.arrays[w.array.0].len();
                if idx < depth {
                    array_commits.push((w.array, idx, eval_expr(&w.data, self)));
                }
            }
        }
        for (reg, v) in next.drain(..) {
            self.values[reg.0] = v;
        }
        for (arr, idx, v) in array_commits.drain(..) {
            self.arrays[arr.0][idx] = v;
        }
        self.next_scratch = next;
        self.array_scratch = array_commits;
        self.dirty = true;
    }

    fn peek_id(&self, id: SignalId) -> Bits {
        self.values[id.0].clone()
    }

    fn poke_id(&mut self, id: SignalId, value: Bits) {
        // Re-poking an unchanged value must not dirty the engine: a dirty
        // engine re-walks every driver at the next read or clock edge, and
        // testbenches re-drive constant handshake lines every cycle.
        if self.values[id.0] == value {
            return;
        }
        self.values[id.0] = value;
        self.dirty = true;
    }

    fn peek_array(&self, array: ArrayId, index: usize) -> Bits {
        self.arrays[array.0][index].clone()
    }

    fn poke_array(&mut self, array: ArrayId, index: usize, value: Bits) {
        self.arrays[array.0][index] = value;
        self.dirty = true;
    }

    fn eval(&self, e: &Expr) -> Bits {
        eval_expr(e, self)
    }

    fn state_fingerprint(&self) -> u64 {
        let mut h = StateHasher::new();
        for (id, sig) in self.module.iter_signals() {
            if sig.kind == SignalKind::Reg {
                h.add(sig.width, self.values[id.0].as_words());
            }
        }
        for ((arr, decl), rom) in self.arrays.iter().zip(&self.module.arrays).zip(&self.roms) {
            if *rom {
                let image: Vec<u64> = arr.iter().flat_map(Bits::as_words).copied().collect();
                h.add(decl.width, &[rom_digest(decl.width, &image)]);
            } else {
                for elem in arr {
                    h.add(elem.width(), elem.as_words());
                }
            }
        }
        h.finish()
    }

    fn toggle_counts(&self) -> &[u64] {
        &self.toggles
    }

    fn reset(&mut self) {
        self.values = initial_values(&self.module);
        self.prev_values = self.values.clone();
        self.arrays = initial_arrays(&self.module);
        self.toggles = vec![0; self.values.len()];
        self.dirty = true;
    }
}

/// A running simulation of one flattened module.
///
/// The facade owns name resolution (pre-resolved through a hash index),
/// cycle counting, and the debug-print log, and drives one of the two
/// [`SimBackend`] engines. It settles lazily, once per observation:
/// [`Sim::poke`], [`Sim::poke_array`] and [`Sim::reset`] only mark the
/// engine dirty, [`Sim::step`] settles once before the clock edge, and the
/// reads that need combinational values ([`Sim::peek`], [`Sim::peek_id`],
/// [`Sim::eval`]) settle on demand. A testbench that pokes k inputs, reads
/// some outputs and steps pays one settle per cycle, not k + 2. The engine
/// sits in a [`RefCell`], so every read still takes `&self`.
///
/// # Examples
///
/// ```
/// use anvil_rtl::{Bits, Expr, Module};
/// use anvil_sim::Sim;
///
/// let mut m = Module::new("counter");
/// let en = m.input("en", 1);
/// let q = m.reg("q", 8);
/// let out = m.output("out", 8);
/// m.update_when(q, Expr::Signal(en), Expr::Signal(q).add(Expr::lit(1, 8)));
/// m.assign(out, Expr::Signal(q));
///
/// let mut sim = Sim::new(&m)?;
/// sim.poke("en", Bits::bit(true))?;
/// for _ in 0..5 { sim.step()?; }
/// assert_eq!(sim.peek("out")?.to_u64(), 5);
/// # Ok::<(), anvil_sim::SimError>(())
/// ```
pub struct Sim {
    module: Arc<Module>,
    /// Pre-resolved name → id index (O(1) poke/peek).
    names: HashMap<String, SignalId>,
    /// The engine. Reads settle it through `&self`; a borrow never
    /// outlives the facade call that takes it.
    backend: RefCell<Box<dyn SimBackend>>,
    cycle: u64,
    /// Messages produced by `dprint` actions, with their cycle numbers.
    pub log: Vec<(u64, String)>,
}

impl Sim {
    /// Prepares a simulation with the default backend ([`Backend::from_env`]:
    /// the compiled tape engine unless `ANVIL_SIM_BACKEND=tree`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFlat`] if instances remain,
    /// [`SimError::CombinationalLoop`] if the combinational graph is
    /// cyclic, and [`SimError::DriverWidth`] / [`SimError::MalformedExpr`]
    /// if a driver fails the width check (both backends reject the same
    /// module set).
    pub fn new(module: &Module) -> Result<Self, SimError> {
        Sim::with_backend(module, Backend::from_env()?)
    }

    /// Prepares a simulation on an explicitly chosen backend.
    ///
    /// # Errors
    ///
    /// See [`Sim::new`].
    pub fn with_backend(module: &Module, backend: Backend) -> Result<Self, SimError> {
        if !module.instances.is_empty() {
            return Err(SimError::NotFlat(module.name.clone()));
        }
        check_driver_widths(module)?;
        let module = Arc::new(module.clone());
        let names = module.name_index();
        let backend: Box<dyn SimBackend> = match backend {
            Backend::Tree => Box::new(TreeEngine::new(Arc::clone(&module))?),
            Backend::Compiled => {
                let tape = Tape::compile(Arc::clone(&module))?;
                Box::new(LaneEngine::<1>::new(Arc::new(tape)))
            }
        };
        Ok(Sim {
            module,
            names,
            backend: RefCell::new(backend),
            cycle: 0,
            log: Vec::new(),
        })
    }

    /// Which engine is running this simulation.
    pub fn backend_kind(&self) -> Backend {
        self.backend.borrow().kind()
    }

    /// Current cycle number (number of clock edges so far).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    fn resolve(&self, name: &str) -> Result<SignalId, SimError> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| SimError::UnknownSignal(name.to_string()))
    }

    /// Sets an input port for the current cycle. Lazy: the design is
    /// settled at the next read or clock edge, not here.
    ///
    /// # Errors
    ///
    /// Fails on unknown names, non-input signals, or width mismatches.
    pub fn poke(&mut self, name: &str, value: Bits) -> Result<(), SimError> {
        let id = self.resolve(name)?;
        let sig = self.module.signal(id);
        if sig.kind != SignalKind::Input {
            return Err(SimError::NotAnInput(name.to_string()));
        }
        if sig.width != value.width() {
            return Err(SimError::WidthMismatch {
                signal: name.to_string(),
                expected: sig.width,
                found: value.width(),
            });
        }
        self.backend.get_mut().poke_id(id, value);
        Ok(())
    }

    /// The engine, settled against the current inputs and register state
    /// (a no-op unless something changed since the last settle).
    fn settled(&self) -> RefMut<'_, Box<dyn SimBackend>> {
        let mut backend = self.backend.borrow_mut();
        backend.settle();
        backend
    }

    /// Reads a signal's settled value, settling first if a poke, reset or
    /// clock edge left the design unsettled.
    ///
    /// # Errors
    ///
    /// Fails on unknown signal names.
    pub fn peek(&self, name: &str) -> Result<Bits, SimError> {
        Ok(self.peek_id(self.resolve(name)?))
    }

    /// Reads a signal by id (no name lookup); settles like [`Sim::peek`].
    pub fn peek_id(&self, id: SignalId) -> Bits {
        self.settled().peek_id(id)
    }

    /// Reads one element of a memory (test visibility). Memories change
    /// only at a clock edge or a poke, so no settle is needed.
    pub fn peek_array(&self, array: ArrayId, index: usize) -> Bits {
        self.backend.borrow().peek_array(array, index)
    }

    /// Writes one element of a memory directly (test setup). The value is
    /// resized to the declared element width.
    pub fn poke_array(&mut self, array: ArrayId, index: usize, value: Bits) {
        let width = self.module.arrays[array.0].width;
        let value = if value.width() == width {
            value
        } else {
            value.resize(width)
        };
        self.backend.get_mut().poke_array(array, index, value);
    }

    /// Advances one clock edge: settles, fires debug prints, counts
    /// toggles, and commits register next-values and array writes. The
    /// new state is settled at the next read or step.
    ///
    /// # Errors
    ///
    /// Currently infallible for a prepared simulation; the `Result` keeps
    /// stepping fallible for future backends.
    pub fn step(&mut self) -> Result<(), SimError> {
        let backend = self.backend.get_mut();
        backend.settle();
        backend.commit(self.cycle, &mut self.log);
        self.cycle += 1;
        Ok(())
    }

    /// Runs `n` clock cycles with the current inputs.
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Restores the power-on state (register/memory inits), clears the
    /// print log and toggle counters, and rewinds the cycle counter. Much
    /// cheaper than re-preparing a simulation — the compiled backend
    /// reuses its lowered tape. Like a poke, it leaves the settle to the
    /// next read or step.
    pub fn reset(&mut self) {
        self.backend.get_mut().reset();
        self.cycle = 0;
        self.log.clear();
    }

    /// A hash of the architectural state, used by the bounded model
    /// checker to prune revisited states. Identical across backends for
    /// identical states.
    ///
    /// Registers (in id order) and writable memories (element by element)
    /// each add a `(width, words)` entry. A ROM — a memory with no write
    /// port — adds one `(width, digest)` entry, the digest covering its
    /// elements in index order. The compiled backend digests each ROM's
    /// shared image once when it lowers the tape, so a fingerprint costs
    /// nothing per ROM element; after [`Sim::poke_array`] writes a ROM,
    /// the digest is taken from the poked contents until [`Sim::reset`].
    ///
    /// Registers and memories change only at a clock edge, a poke or a
    /// reset, so a fingerprint needs no settle.
    pub fn state_fingerprint(&self) -> u64 {
        self.backend.borrow().state_fingerprint()
    }

    /// Total observed bit toggles per signal, for the power model, in
    /// signal-id order (as [`SimBatch::toggle_counts`](crate::SimBatch::toggle_counts)
    /// returns them per lane).
    pub fn toggle_counts(&self) -> Vec<u64> {
        self.backend.borrow().toggle_counts().to_vec()
    }

    /// Sum of toggles across all signals divided by cycles: a crude
    /// whole-design switching-activity figure.
    pub fn switching_activity(&self) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        self.backend.borrow().toggle_counts().iter().sum::<u64>() as f64 / self.cycle as f64
    }

    /// Evaluates an expression against the current state, settling first
    /// like [`Sim::peek`].
    pub fn eval(&self, e: &Expr) -> Bits {
        self.settled().eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> Module {
        let mut m = Module::new("counter");
        let en = m.input("en", 1);
        let q = m.reg("q", 8);
        let out = m.output("out", 8);
        m.update_when(q, Expr::Signal(en), Expr::Signal(q).add(Expr::lit(1, 8)));
        m.assign(out, Expr::Signal(q));
        m
    }

    fn both(m: &Module) -> Vec<Sim> {
        vec![
            Sim::with_backend(m, Backend::Tree).unwrap(),
            Sim::with_backend(m, Backend::Compiled).unwrap(),
        ]
    }

    #[test]
    fn counter_counts_when_enabled() {
        for mut s in both(&counter()) {
            s.poke("en", Bits::bit(true)).unwrap();
            s.run(3).unwrap();
            s.poke("en", Bits::bit(false)).unwrap();
            s.run(2).unwrap();
            assert_eq!(s.peek("out").unwrap().to_u64(), 3, "{}", s.backend_kind());
        }
    }

    #[test]
    fn comb_chain_settles_in_order() {
        let mut m = Module::new("chain");
        let a = m.input("a", 4);
        let w1 = m.wire("w1", 4);
        let w2 = m.wire("w2", 4);
        let o = m.output("o", 4);
        // Deliberately declare in use-before-def order.
        m.assign(o, Expr::Signal(w2).add(Expr::lit(1, 4)));
        m.assign(w2, Expr::Signal(w1).add(Expr::lit(1, 4)));
        m.assign(w1, Expr::Signal(a).add(Expr::lit(1, 4)));
        for mut s in both(&m) {
            s.poke("a", Bits::from_u64(2, 4)).unwrap();
            assert_eq!(s.peek("o").unwrap().to_u64(), 5);
        }
    }

    #[test]
    fn comb_loop_detected() {
        let mut m = Module::new("loopy");
        let w1 = m.wire("w1", 1);
        let w2 = m.wire("w2", 1);
        let o = m.output("o", 1);
        m.assign(w1, Expr::Signal(w2).not());
        m.assign(w2, Expr::Signal(w1).not());
        m.assign(o, Expr::Signal(w1));
        for b in [Backend::Tree, Backend::Compiled] {
            assert!(matches!(
                Sim::with_backend(&m, b),
                Err(SimError::CombinationalLoop(_))
            ));
        }
    }

    #[test]
    fn registers_commit_simultaneously() {
        // Swap two registers every cycle: requires nonblocking semantics.
        let mut m = Module::new("swap");
        let a = m.reg_init("a", Bits::from_u64(1, 8));
        let b = m.reg_init("b", Bits::from_u64(2, 8));
        let oa = m.output("oa", 8);
        let ob = m.output("ob", 8);
        m.set_next(a, Expr::Signal(b));
        m.set_next(b, Expr::Signal(a));
        m.assign(oa, Expr::Signal(a));
        m.assign(ob, Expr::Signal(b));
        for mut s in both(&m) {
            s.step().unwrap();
            assert_eq!(s.peek("oa").unwrap().to_u64(), 2);
            assert_eq!(s.peek("ob").unwrap().to_u64(), 1);
            s.step().unwrap();
            assert_eq!(s.peek("oa").unwrap().to_u64(), 1);
        }
    }

    #[test]
    fn array_write_and_read() {
        let mut m = Module::new("mem");
        let we = m.input("we", 1);
        let waddr = m.input("waddr", 2);
        let wdata = m.input("wdata", 8);
        let raddr = m.input("raddr", 2);
        let q = m.output("q", 8);
        let arr = m.array("mem", 8, 4);
        m.array_write(
            arr,
            Expr::Signal(we),
            Expr::Signal(waddr),
            Expr::Signal(wdata),
        );
        m.assign(
            q,
            Expr::ArrayRead {
                array: arr,
                index: Box::new(Expr::Signal(raddr)),
            },
        );
        for mut s in both(&m) {
            s.poke("we", Bits::bit(true)).unwrap();
            s.poke("waddr", Bits::from_u64(2, 2)).unwrap();
            s.poke("wdata", Bits::from_u64(0xAB, 8)).unwrap();
            s.step().unwrap();
            s.poke("we", Bits::bit(false)).unwrap();
            s.poke("raddr", Bits::from_u64(2, 2)).unwrap();
            assert_eq!(s.peek("q").unwrap().to_u64(), 0xAB);
        }
    }

    #[test]
    fn poke_array_resettles_combinational_reads() {
        // An input selects a combinational read of a memory: a direct
        // element write must reach the read port (the tape executor
        // re-settles only the regions reading the memory), and reset must
        // bring the init image back.
        let mut m = Module::new("rom");
        let raddr = m.input("raddr", 2);
        let q = m.output("q", 8);
        let init = [0x11, 0x22, 0x33, 0x44].map(|v| Bits::from_u64(v, 8));
        let arr = m.array_init("mem", 8, 4, init.to_vec());
        m.assign(
            q,
            Expr::ArrayRead {
                array: arr,
                index: Box::new(Expr::Signal(raddr)),
            },
        );
        let addr = Bits::from_u64(2, 2);
        let new = Bits::from_u64(0xAB, 8);
        for mut s in both(&m) {
            let kind = s.backend_kind();
            s.poke("raddr", addr.clone()).unwrap();
            assert_eq!(s.peek("q").unwrap().to_u64(), 0x33, "{kind}");
            s.poke_array(arr, 2, new.clone());
            assert_eq!(s.peek("q").unwrap().to_u64(), 0xAB, "{kind}");
            s.reset();
            assert_eq!(s.peek_array(arr, 2).to_u64(), 0x33, "{kind}");
            assert_eq!(s.peek("q").unwrap().to_u64(), 0x11, "{kind}");
            s.poke("raddr", addr.clone()).unwrap();
            assert_eq!(s.peek("q").unwrap().to_u64(), 0x33, "{kind}");
        }

        // `mem` has no write port, so it is a ROM: batch lanes share the
        // tape's image until a poke copies it for one group. Twenty lanes
        // are a 16-lane group plus a 4-lane tail; poke one tail lane.
        let opts = crate::TapeOptions {
            stride: Some(16),
            ..crate::TapeOptions::default()
        };
        let program = crate::TapeProgram::compile_with(&m, opts).unwrap();
        let mut b = program.batch(20);
        assert_eq!(b.group_strides(), [16, 4]);
        assert_eq!(b.memory_words(), 0, "no lane holds a ROM copy");
        let read = Expr::ArrayRead {
            array: arr,
            index: Box::new(Expr::Signal(raddr)),
        };
        for lane in 0..20 {
            b.poke(lane, "raddr", addr.clone()).unwrap();
        }
        let unpoked = b.fingerprints();
        let poked = 17;
        b.poke_array(poked, arr, 2, new.clone());
        assert_eq!(b.memory_words(), 4 * 4, "one copy, in the 4-lane tail");
        for (lane, before) in unpoked.iter().enumerate() {
            let want = if lane == poked { 0xAB } else { 0x33 };
            assert_eq!(b.peek(lane, "q").unwrap().to_u64(), want, "lane {lane}");
            assert_eq!(b.peek_array(lane, arr, 2).to_u64(), want, "lane {lane}");
            assert_eq!(b.eval(lane, &read).to_u64(), want, "lane {lane}");
            let fp = b.state_fingerprint(lane);
            assert_eq!(fp == *before, lane != poked, "lane {lane}");
        }
        for mut s in both(&m) {
            s.poke("raddr", addr.clone()).unwrap();
            s.poke_array(arr, 2, new.clone());
            let kind = s.backend_kind();
            assert_eq!(b.state_fingerprint(poked), s.state_fingerprint(), "{kind}");
        }
        b.reset();
        assert_eq!(b.memory_words(), 0, "reset drops the copy");
        assert_eq!(b.fingerprints(), unpoked);
        assert_eq!(b.peek_array(poked, arr, 2).to_u64(), 0x33);
        assert_eq!(b.peek(poked, "q").unwrap().to_u64(), 0x11);
        b.poke(poked, "raddr", addr).unwrap();
        assert_eq!(b.peek(poked, "q").unwrap().to_u64(), 0x33);
    }

    #[test]
    fn dprint_logs() {
        let mut m = Module::new("p");
        let en = m.input("en", 1);
        let o = m.output("o", 1);
        m.assign(o, Expr::Signal(en));
        m.dprint(Expr::Signal(en), "fired", Some(Expr::lit(0x5, 4)));
        for mut s in both(&m) {
            s.step().unwrap();
            s.poke("en", Bits::bit(true)).unwrap();
            s.step().unwrap();
            assert_eq!(s.log, vec![(1, "fired: 5".to_string())]);
        }
    }

    #[test]
    fn toggle_counting() {
        let mut m = Module::new("t");
        let a = m.input("a", 4);
        let o = m.output("o", 4);
        m.assign(o, Expr::Signal(a));
        for mut s in both(&m) {
            s.poke("a", Bits::from_u64(0b1111, 4)).unwrap();
            s.step().unwrap(); // 0000 -> 1111: 4 toggles on a, 4 on o
            s.poke("a", Bits::from_u64(0b1110, 4)).unwrap();
            s.step().unwrap(); // 1 toggle on each
            assert_eq!(s.toggle_counts().iter().sum::<u64>(), 10);
        }
    }

    #[test]
    fn unflattened_design_rejected() {
        let mut m = Module::new("hier");
        m.instance("x", "child", vec![]);
        assert!(matches!(Sim::new(&m), Err(SimError::NotFlat(_))));
    }

    #[test]
    fn fingerprints_agree_across_backends() {
        let m = counter();
        let mut a = Sim::with_backend(&m, Backend::Tree).unwrap();
        let mut b = Sim::with_backend(&m, Backend::Compiled).unwrap();
        for sim in [&mut a, &mut b] {
            sim.poke("en", Bits::bit(true)).unwrap();
        }
        for _ in 0..5 {
            assert_eq!(a.state_fingerprint(), b.state_fingerprint());
            a.step().unwrap();
            b.step().unwrap();
        }
    }

    #[test]
    fn reset_restores_power_on_state() {
        for mut s in both(&counter()) {
            s.poke("en", Bits::bit(true)).unwrap();
            s.run(4).unwrap();
            assert_eq!(s.peek("out").unwrap().to_u64(), 4);
            s.reset();
            assert_eq!(s.cycle(), 0);
            assert_eq!(s.peek("out").unwrap().to_u64(), 0);
            // Input pokes are state too: re-poke after reset.
            s.poke("en", Bits::bit(true)).unwrap();
            s.run(2).unwrap();
            assert_eq!(s.peek("out").unwrap().to_u64(), 2);
        }
    }
}

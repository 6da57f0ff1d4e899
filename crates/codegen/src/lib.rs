//! Code generation: event graphs to synthesizable RTL (paper §6.2).
//!
//! Each Anvil process becomes one RTL module. For every message of every
//! endpoint the compiler generates up to three ports — `data`, `valid`,
//! `ack` — omitting `valid` when the sender's sync mode is static or
//! dependent and `ack` when the receiver's is (§6.2 "Message Lowering").
//!
//! Control flow lowers to a per-thread FSM over the event graph
//! (§6.2 "FSM Generation"): every event gets a 1-bit `reached` wire, and
//! state registers exist only where the paper says they must — join
//! arrival bits, cycle-delay shift registers, and pending bits for
//! dynamically synchronised sends/receives. No lifetime bookkeeping is
//! ever emitted: timing safety is enforced purely statically by
//! `anvil-typeck`, so the generated hardware carries zero overhead for it.

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};

use anvil_intern::Symbol;
use anvil_ir::{
    build_proc, optimize, ActionIr, BuildCtx, EventGraph, EventId, EventKind, IrError, MsgRef,
    OptConfig, ThreadIr, Val,
};
use anvil_rtl::{Bits, Expr, Module, ModuleLibrary, SignalId};
use anvil_syntax::{BinOp, Dir, Program, SyncMode, UnOp};

/// Code generation options.
#[derive(Clone, Copy, Debug)]
pub struct CodegenOptions {
    /// Run the Fig. 8 event-graph optimizations before lowering.
    pub optimize: bool,
    /// Which event-graph passes run when `optimize` is set (the Fig. 8
    /// ablation and the pass-subset behavioural property tests compile
    /// with individual passes toggled).
    pub opt_config: OptConfig,
    /// Ablation: generate handshake wires even for static/dependent sync
    /// modes (quantifies the §6.2 port-omission optimisation).
    pub force_dynamic_handshake: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            optimize: true,
            opt_config: OptConfig::default(),
            force_dynamic_handshake: false,
        }
    }
}

/// Errors raised while lowering to RTL.
#[derive(Clone, Debug)]
pub enum CodegenError {
    /// Elaboration failed (name/width errors).
    Ir(IrError),
    /// A thread's loop can restart in the same cycle it begins: the body
    /// must end in a registered event (e.g. `cycle 1`).
    UnregisteredLoop {
        /// The process.
        proc: String,
    },
    /// An `extern fn` has no RTL implementation in the provided library.
    MissingExtern {
        /// The function name.
        func: String,
    },
    /// The generated module failed structural validation (internal error).
    Invalid(String),
    /// A `spawn` refers to an unknown process or mismatched arguments.
    BadSpawn(String),
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::Ir(e) => write!(f, "{e}"),
            CodegenError::UnregisteredLoop { proc } => write!(
                f,
                "process `{proc}`: thread body can complete combinationally; end it with `cycle 1`"
            ),
            CodegenError::MissingExtern { func } => {
                write!(f, "extern fn `{func}` has no RTL implementation registered")
            }
            CodegenError::Invalid(e) => write!(f, "generated module invalid: {e}"),
            CodegenError::BadSpawn(e) => write!(f, "bad spawn: {e}"),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<IrError> for CodegenError {
    fn from(e: IrError) -> Self {
        CodegenError::Ir(e)
    }
}

/// The three wires a message lowers to (any of which may be omitted).
#[derive(Clone, Copy, Debug, Default)]
struct MsgWires {
    data: Option<SignalId>,
    valid: Option<SignalId>,
    ack: Option<SignalId>,
    /// Whether *this* process sends the message.
    we_send: bool,
}

/// Whether the given sync mode generates a handshake wire.
fn is_dynamic(mode: &SyncMode) -> bool {
    matches!(mode, SyncMode::Dynamic)
}

/// Compiles every process of a program into RTL modules.
///
/// `externs` must contain an RTL module for every `extern fn` the program
/// declares (module ports: `in0..inN` inputs, `out` output); it is copied
/// into the returned library alongside the generated modules.
///
/// # Errors
///
/// Fails on elaboration errors, missing externs, unregistered loops, or
/// bad spawns.
///
/// # Examples
///
/// ```
/// use anvil_codegen::{compile_program, CodegenOptions};
/// use anvil_rtl::ModuleLibrary;
///
/// let prog = anvil_syntax::parse(
///     "proc blink() { reg led : logic; loop { set led := ~*led >> cycle 1 } }",
/// ).unwrap();
/// let lib = compile_program(&prog, &ModuleLibrary::new(), CodegenOptions::default())?;
/// assert!(lib.get("blink").is_some());
/// # Ok::<(), anvil_codegen::CodegenError>(())
/// ```
pub fn compile_program(
    program: &Program,
    externs: &ModuleLibrary,
    opts: CodegenOptions,
) -> Result<ModuleLibrary, CodegenError> {
    check_externs(program, externs)?;
    let order = proc_order(program, externs)?;
    // Lower children before parents against the growing library.
    let mut lib = ModuleLibrary::new();
    for m in externs.iter() {
        lib.add(m.clone());
    }
    for name in order {
        let (irs, _, _) = build_optimized_ir(program, name, opts)?;
        let m = lower_proc(program, name, &irs, &lib, opts)?;
        lib.add(m);
    }
    Ok(lib)
}

/// Verifies every declared `extern fn` has an RTL implementation in the
/// provided library — the preflight both [`compile_program`] and the
/// driver's pass pipeline run before lowering.
///
/// # Errors
///
/// [`CodegenError::MissingExtern`] for the first unimplemented extern.
pub fn check_externs(program: &Program, externs: &ModuleLibrary) -> Result<(), CodegenError> {
    for e in &program.externs {
        if externs.get(&e.name).is_none() {
            return Err(CodegenError::MissingExtern {
                func: e.name.clone(),
            });
        }
    }
    Ok(())
}

/// Orders processes children-before-parents so every `spawn` can be
/// resolved against the already-compiled library (externs count as
/// available from the start).
///
/// # Errors
///
/// Fails on spawn cycles or spawns of unknown processes.
pub fn proc_order<'a>(
    program: &'a Program,
    externs: &ModuleLibrary,
) -> Result<Vec<&'a str>, CodegenError> {
    let mut done: std::collections::HashSet<&str> =
        externs.iter().map(|m| m.name.as_str()).collect();
    let mut order = Vec::new();
    // Children before parents so validation can resolve instances.
    let mut pending: Vec<&str> = program.procs.iter().map(|p| p.name.as_str()).collect();
    while !pending.is_empty() {
        let mut progressed = false;
        let mut next_round = Vec::new();
        for name in pending {
            let proc = program.proc(name).expect("listed proc exists");
            let ready = proc
                .spawns
                .iter()
                .all(|sp| done.contains(sp.proc_name.as_str()));
            if ready {
                done.insert(name);
                order.push(name);
                progressed = true;
            } else {
                next_round.push(name);
            }
        }
        if !progressed && !next_round.is_empty() {
            return Err(CodegenError::BadSpawn(format!(
                "spawn cycle or unknown child process among: {next_round:?}"
            )));
        }
        pending = next_round;
    }
    Ok(order)
}

/// Builds the single-iteration (codegen) thread IRs for one process,
/// without optimizing or lowering them ([`build_optimized_ir`] adds the
/// optimizer).
///
/// # Errors
///
/// Fails on elaboration errors or unknown processes.
pub fn build_ir(program: &Program, proc_name: &str) -> Result<Vec<ThreadIr>, CodegenError> {
    let proc = program
        .proc(proc_name)
        .ok_or_else(|| CodegenError::BadSpawn(format!("unknown process `{proc_name}`")))?;
    let ctx = BuildCtx { program, proc };
    Ok(build_proc(&ctx, 1)?)
}

/// Builds and (per `opts`) optimizes the single-iteration codegen IR for
/// one process, returning `(thread IRs, events before, events after)`.
///
/// This is the per-item "optimize" stage of the incremental pipeline —
/// [`compile_program`] runs it over every process, while the incremental
/// driver runs it per compilation unit and caches the result keyed by the
/// unit's fingerprint and the optimization options.
///
/// # Errors
///
/// See [`compile_program`].
pub fn build_optimized_ir(
    program: &Program,
    proc_name: &str,
    opts: CodegenOptions,
) -> Result<(Vec<ThreadIr>, usize, usize), CodegenError> {
    let mut irs = build_ir(program, proc_name)?;
    let before = irs.iter().map(|ir| ir.graph.len()).sum::<usize>();
    if opts.optimize {
        irs = irs
            .into_iter()
            .map(|ir| optimize(ir, opts.opt_config).0)
            .collect();
    }
    let after = irs.iter().map(|ir| ir.graph.len()).sum::<usize>();
    Ok((irs, before, after))
}

/// Compiles one process into an RTL module, resolving spawned children and
/// externs against `lib`.
///
/// # Errors
///
/// See [`compile_program`].
pub fn compile_proc(
    program: &Program,
    proc_name: &str,
    lib: &ModuleLibrary,
    opts: CodegenOptions,
) -> Result<Module, CodegenError> {
    let (irs, _, _) = build_optimized_ir(program, proc_name, opts)?;
    lower_proc(program, proc_name, &irs, lib, opts)
}

/// Lowers pre-built (and possibly pre-optimized) thread IRs for one
/// process into an RTL module.
///
/// # Errors
///
/// See [`compile_program`].
pub fn lower_proc(
    program: &Program,
    proc_name: &str,
    irs: &[ThreadIr],
    lib: &ModuleLibrary,
    opts: CodegenOptions,
) -> Result<Module, CodegenError> {
    let proc = program
        .proc(proc_name)
        .ok_or_else(|| CodegenError::BadSpawn(format!("unknown process `{proc_name}`")))?;

    let mut m = Module::new(proc_name);
    let mut gen = Gen {
        program,
        m: &mut m,
        opts,
        regs: HashMap::new(),
        arrays: HashMap::new(),
        msg_wires: HashMap::new(),
        send_drives: BTreeMap::new(),
        recv_drives: BTreeMap::new(),
        child_driven: Vec::new(),
        extern_count: 0,
        extern_cache: HashMap::new(),
    };

    gen.declare_registers(proc);
    gen.declare_endpoints(proc)?;
    gen.declare_local_channels(proc)?;
    gen.spawn_children(proc)?;
    for (tid, ir) in irs.iter().enumerate() {
        gen.lower_thread(tid, ir, proc_name)?;
    }
    gen.finish_message_drives();

    m.validate(lib)
        .map_err(|e| CodegenError::Invalid(e.to_string()))?;
    Ok(m)
}

struct Gen<'a> {
    program: &'a Program,
    m: &'a mut Module,
    opts: CodegenOptions,
    regs: HashMap<Symbol, SignalId>,
    arrays: HashMap<Symbol, anvil_rtl::ArrayId>,
    /// Wires for each endpoint's messages, keyed by `(endpoint, message)`.
    msg_wires: HashMap<(Symbol, Symbol), MsgWires>,
    /// Send activity per message: `(active, data)` pairs to aggregate.
    /// `Symbol` ordering compares resolved strings, so iteration (and
    /// therefore emission) order is independent of interning order.
    send_drives: BTreeMap<(Symbol, Symbol), Vec<(Expr, Expr)>>,
    /// Receive activity per message: `active` terms to aggregate into ack.
    recv_drives: BTreeMap<(Symbol, Symbol), Vec<Expr>>,
    /// Wires driven by child instances (no tie-off needed).
    child_driven: Vec<SignalId>,
    extern_count: usize,
    /// Shared extern call sites: identical `(fn, args)` applications map
    /// to one instance (combinational sharing, like synthesis CSE).
    extern_cache: HashMap<(Symbol, Vec<Expr>), SignalId>,
}

impl<'a> Gen<'a> {
    fn declare_registers(&mut self, proc: &anvil_syntax::ProcDef) {
        for r in &proc.regs {
            match r.depth {
                Some(depth) => {
                    let init = r
                        .init
                        .map(|v| vec![Bits::from_u64(v, r.width)])
                        .unwrap_or_default();
                    let a = self.m.array_init(&r.name, r.width, depth, init);
                    self.arrays.insert(Symbol::intern(&r.name), a);
                }
                None => {
                    let init = Bits::from_u64(r.init.unwrap_or(0), r.width);
                    let s = self.m.reg_init(&r.name, init);
                    self.regs.insert(Symbol::intern(&r.name), s);
                }
            }
        }
    }

    /// Creates ports for the endpoints this process receives at spawn time.
    fn declare_endpoints(&mut self, proc: &anvil_syntax::ProcDef) -> Result<(), CodegenError> {
        for p in &proc.params {
            let chan = self.program.chan(&p.chan).ok_or_else(|| {
                CodegenError::BadSpawn(format!("unknown channel type `{}`", p.chan))
            })?;
            for msg in &chan.messages {
                let we_send = sender_side(msg.dir) == p.side;
                let has_valid = self.opts.force_dynamic_handshake || is_dynamic(sender_mode(msg));
                let has_ack = self.opts.force_dynamic_handshake || is_dynamic(receiver_mode(msg));
                let base = format!("{}_{}", p.name, msg.name);
                let data = Some(if we_send {
                    self.m.output(format!("{base}_data"), msg.width)
                } else {
                    self.m.input(format!("{base}_data"), msg.width)
                });
                let valid = has_valid.then(|| {
                    if we_send {
                        self.m.output(format!("{base}_valid"), 1)
                    } else {
                        self.m.input(format!("{base}_valid"), 1)
                    }
                });
                let ack = has_ack.then(|| {
                    if we_send {
                        self.m.input(format!("{base}_ack"), 1)
                    } else {
                        self.m.output(format!("{base}_ack"), 1)
                    }
                });
                self.msg_wires.insert(
                    (Symbol::intern(&p.name), Symbol::intern(&msg.name)),
                    MsgWires {
                        data,
                        valid,
                        ack,
                        we_send,
                    },
                );
            }
        }
        Ok(())
    }

    /// Creates internal wires for locally instantiated channels; both
    /// endpoint names map to the same wires.
    fn declare_local_channels(&mut self, proc: &anvil_syntax::ProcDef) -> Result<(), CodegenError> {
        for c in &proc.chans {
            let chan = self.program.chan(&c.chan).ok_or_else(|| {
                CodegenError::BadSpawn(format!("unknown channel type `{}`", c.chan))
            })?;
            for msg in &chan.messages {
                let has_valid = self.opts.force_dynamic_handshake || is_dynamic(sender_mode(msg));
                let has_ack = self.opts.force_dynamic_handshake || is_dynamic(receiver_mode(msg));
                let base = format!("{}_{}_{}", c.left, c.right, msg.name);
                let data = Some(self.m.wire(format!("{base}_data"), msg.width));
                let valid = has_valid.then(|| self.m.wire(format!("{base}_valid"), 1));
                let ack = has_ack.then(|| self.m.wire(format!("{base}_ack"), 1));
                for (ep, side) in [(&c.left, Dir::Left), (&c.right, Dir::Right)] {
                    self.msg_wires.insert(
                        (Symbol::intern(ep), Symbol::intern(&msg.name)),
                        MsgWires {
                            data,
                            valid,
                            ack,
                            we_send: sender_side(msg.dir) == side,
                        },
                    );
                }
            }
        }
        Ok(())
    }

    fn spawn_children(&mut self, proc: &anvil_syntax::ProcDef) -> Result<(), CodegenError> {
        for (i, s) in proc.spawns.iter().enumerate() {
            let child = self.program.proc(&s.proc_name).ok_or_else(|| {
                CodegenError::BadSpawn(format!("unknown process `{}`", s.proc_name))
            })?;
            if child.params.len() != s.args.len() {
                return Err(CodegenError::BadSpawn(format!(
                    "`{}` takes {} endpoints, {} given",
                    s.proc_name,
                    child.params.len(),
                    s.args.len()
                )));
            }
            let mut conns: Vec<(String, SignalId)> = Vec::new();
            for (param, arg) in child.params.iter().zip(&s.args) {
                let chan = self.program.chan(&param.chan).ok_or_else(|| {
                    CodegenError::BadSpawn(format!("unknown channel `{}`", param.chan))
                })?;
                for msg in &chan.messages {
                    let Some(w) = self
                        .msg_wires
                        .get(&(Symbol::intern(arg), Symbol::intern(&msg.name)))
                    else {
                        return Err(CodegenError::BadSpawn(format!(
                            "endpoint `{arg}` passed to `{}` is not declared",
                            s.proc_name
                        )));
                    };
                    let w = *w;
                    let child_sends = sender_side(msg.dir) == param.side;
                    let base = format!("{}_{}", param.name, msg.name);
                    if let Some(d) = w.data {
                        conns.push((format!("{base}_data"), d));
                        if child_sends {
                            self.child_driven.push(d);
                        }
                    }
                    if let Some(v) = w.valid {
                        conns.push((format!("{base}_valid"), v));
                        if child_sends {
                            self.child_driven.push(v);
                        }
                    }
                    if let Some(a) = w.ack {
                        conns.push((format!("{base}_ack"), a));
                        if !child_sends {
                            self.child_driven.push(a);
                        }
                    }
                }
            }
            self.m
                .instance(format!("u{i}_{}", s.proc_name), &s.proc_name, conns);
        }
        Ok(())
    }

    /// Lowers one thread's event graph to FSM logic (§6.2).
    fn lower_thread(
        &mut self,
        tid: usize,
        ir: &ThreadIr,
        proc_name: &str,
    ) -> Result<(), CodegenError> {
        let g = &ir.graph;
        let n = g.len();

        // The loop may not restart combinationally (that would be a
        // zero-cycle iteration and a combinational cycle in hardware).
        let restart_events: Vec<EventId> = if ir.is_recursive {
            ir.actions
                .iter()
                .filter(|(_, a)| matches!(a, ActionIr::Recurse))
                .map(|(e, _)| *e)
                .collect()
        } else {
            vec![ir.finish]
        };
        for e in &restart_events {
            if depends_on_root(g, *e, ir.root) {
                return Err(CodegenError::UnregisteredLoop {
                    proc: proc_name.to_string(),
                });
            }
        }

        // 1-bit `reached` wire per event.
        let reached: Vec<SignalId> = (0..n)
            .map(|i| self.m.wire(format!("t{tid}_e{i}"), 1))
            .collect();

        // Branch-condition latches (with same-cycle bypass).
        let mut cond_sel: Vec<Expr> = Vec::new();
        for (ci, c) in ir.conds.iter().enumerate() {
            let latch = self.m.reg(format!("t{tid}_c{ci}"), 1);
            let now = truthy(self.val_with_conds(&c.val, &cond_sel));
            self.m
                .update_when(latch, Expr::Signal(reached[c.at.0]), now.clone());
            cond_sel.push(Expr::mux(
                Expr::Signal(reached[c.at.0]),
                now,
                Expr::Signal(latch),
            ));
        }

        // Per-event logic.
        let mut sync_active: HashMap<usize, Expr> = HashMap::new();
        for (id, kind) in g.iter() {
            let i = id.0;
            match kind {
                EventKind::Root => {
                    let started = self.m.reg(format!("t{tid}_started"), 1);
                    self.m.set_next(started, Expr::bit(true));
                    let mut fire = Expr::Signal(started).logic_not();
                    for e in &restart_events {
                        fire = fire.or(Expr::Signal(reached[e.0]));
                    }
                    self.m.assign(reached[i], fire);
                }
                EventKind::Delay { pred, cycles } => {
                    if *cycles == 0 {
                        self.m.assign(reached[i], Expr::Signal(reached[pred.0]));
                    } else {
                        // Shift register: correct even under pipelined
                        // overlap in `recursive` threads.
                        let mut prev = Expr::Signal(reached[pred.0]);
                        for k in 0..*cycles {
                            let stage = self.m.reg(format!("t{tid}_e{i}_d{k}"), 1);
                            self.m.set_next(stage, prev);
                            prev = Expr::Signal(stage);
                        }
                        self.m.assign(reached[i], prev);
                    }
                }
                EventKind::Sync {
                    pred, msg, is_send, ..
                } => {
                    let w = self.wires_for(msg);
                    let pending = self.m.reg(format!("t{tid}_e{i}_pend"), 1);
                    let active = Expr::Signal(pending).or(Expr::Signal(reached[pred.0]));
                    let peer_ready = if *is_send {
                        w.ack.map(Expr::Signal).unwrap_or(Expr::bit(true))
                    } else {
                        w.valid.map(Expr::Signal).unwrap_or(Expr::bit(true))
                    };
                    let complete = active.clone().and(peer_ready);
                    self.m.assign(reached[i], complete.clone());
                    // pending' = active && !complete
                    self.m
                        .set_next(pending, active.clone().and(complete.logic_not()));
                    sync_active.insert(i, active.clone());
                    if !*is_send {
                        self.recv_drives
                            .entry((msg.ep, msg.msg))
                            .or_default()
                            .push(active);
                    }
                }
                EventKind::Branch { pred, cond, taken } => {
                    let sel = cond_sel[cond.0].clone();
                    let cond_e = if *taken { sel } else { sel.logic_not() };
                    self.m
                        .assign(reached[i], Expr::Signal(reached[pred.0]).and(cond_e));
                }
                EventKind::JoinAll { preds } => {
                    // Arrival bit per input, cleared when the join fires.
                    let mut inputs = Vec::new();
                    let mut arrs = Vec::new();
                    for (k, p) in preds.iter().enumerate() {
                        let arr = self.m.reg(format!("t{tid}_e{i}_a{k}"), 1);
                        arrs.push(arr);
                        inputs.push(Expr::Signal(arr).or(Expr::Signal(reached[p.0])));
                    }
                    let fire = inputs
                        .iter()
                        .cloned()
                        .reduce(|a, b| a.and(b))
                        .unwrap_or(Expr::bit(true));
                    self.m.assign(reached[i], fire.clone());
                    for (k, p) in preds.iter().enumerate() {
                        let set = Expr::Signal(reached[p.0]);
                        let next = Expr::mux(
                            fire.clone(),
                            Expr::bit(false),
                            Expr::Signal(arrs[k]).or(set),
                        );
                        self.m.set_next(arrs[k], next);
                    }
                }
                EventKind::JoinAny { preds } => {
                    let fire = preds
                        .iter()
                        .map(|p| Expr::Signal(reached[p.0]))
                        .reduce(|a, b| a.or(b))
                        .unwrap_or(Expr::bit(false));
                    self.m.assign(reached[i], fire);
                }
            }
        }

        // Actions.
        for (e, action) in &ir.actions {
            let trigger = Expr::Signal(reached[e.0]);
            match action {
                ActionIr::Assign { reg, index, value } => {
                    let v = self.val_with_conds(value, &cond_sel);
                    match index {
                        Some(idx) => {
                            let a = self.arrays[reg];
                            let idx_e = self.val_with_conds(idx, &cond_sel);
                            self.m.array_write(a, trigger, idx_e, v);
                        }
                        None => {
                            let r = self.regs[reg];
                            self.m.update_when(r, trigger, v);
                        }
                    }
                }
                ActionIr::SendData { msg, value, done } => {
                    let active = sync_active
                        .get(&done.0)
                        .cloned()
                        .unwrap_or_else(|| Expr::Signal(reached[done.0]));
                    let data = self.val_with_conds(value, &cond_sel);
                    self.send_drives
                        .entry((msg.ep, msg.msg))
                        .or_default()
                        .push((active, data));
                }
                ActionIr::DPrint { label, value } => {
                    let v = value.as_ref().map(|v| self.val_with_conds(v, &cond_sel));
                    self.m.dprint(trigger, label.clone(), v);
                }
                ActionIr::Recurse => {}
            }
        }
        Ok(())
    }

    fn wires_for(&self, msg: &MsgRef) -> MsgWires {
        self.msg_wires
            .get(&(msg.ep, msg.msg))
            .copied()
            .expect("message wires declared during endpoint setup")
    }

    /// Aggregates all send/recv activity into the handshake and data
    /// drivers, and ties off wires nobody drives.
    fn finish_message_drives(&mut self) {
        let send_drives = std::mem::take(&mut self.send_drives);
        let recv_drives = std::mem::take(&mut self.recv_drives);
        let mut driven: Vec<SignalId> = self.child_driven.clone();

        for ((ep, msg), drives) in send_drives {
            let w = self.msg_wires[&(ep, msg)];
            if let Some(v) = w.valid {
                let any = drives
                    .iter()
                    .map(|(a, _)| a.clone())
                    .reduce(|a, b| a.or(b))
                    .unwrap_or(Expr::bit(false));
                self.m.assign(v, any);
                driven.push(v);
            }
            if let Some(d) = w.data {
                let width = self.m.signal(d).width;
                let mut expr = Expr::Const(Bits::zero(width));
                for (active, data) in drives.into_iter().rev() {
                    expr = Expr::mux(active, data, expr);
                }
                self.m.assign(d, expr);
                driven.push(d);
            }
        }
        for ((ep, msg), actives) in recv_drives {
            let w = self.msg_wires[&(ep, msg)];
            if let Some(a) = w.ack {
                let any = actives
                    .into_iter()
                    .reduce(|a, b| a.or(b))
                    .unwrap_or(Expr::bit(false));
                self.m.assign(a, any);
                driven.push(a);
            }
        }

        // Tie off locally-declared wires with no driver (unused endpoint
        // sides of local channels).
        let undriven: Vec<(SignalId, usize)> = self
            .m
            .iter_signals()
            .filter(|(id, s)| {
                s.kind == anvil_rtl::SignalKind::Wire
                    && !self.m.assigns.contains_key(id)
                    && !driven.contains(id)
            })
            .map(|(id, s)| (id, s.width))
            .collect();
        for (id, width) in undriven {
            self.m.assign(id, Expr::Const(Bits::zero(width)));
        }
    }

    /// Lowers a signal-level value to an RTL expression.
    fn val_with_conds(&mut self, v: &Val, cond_sel: &[Expr]) -> Expr {
        match v {
            Val::Const { value, width } => Expr::lit(*value, (*width).max(1)),
            Val::Unit => Expr::bit(false),
            Val::RegRead { reg, index } => match index {
                Some(i) => Expr::ArrayRead {
                    array: self.arrays[reg],
                    index: Box::new(self.val_with_conds(i, cond_sel)),
                },
                None => Expr::Signal(self.regs[reg]),
            },
            Val::MsgData { msg, .. } => {
                let w = self.wires_for(msg);
                Expr::Signal(w.data.expect("data port exists"))
            }
            Val::Ready { msg } => {
                let w = self.wires_for(msg);
                let sig = if w.we_send { w.ack } else { w.valid };
                sig.map(Expr::Signal).unwrap_or(Expr::bit(true))
            }
            Val::Binop(op, a, b) => {
                let ea = self.val_with_conds(a, cond_sel);
                let eb = self.val_with_conds(b, cond_sel);
                let rtl_op = match op {
                    BinOp::Add => anvil_rtl::BinaryOp::Add,
                    BinOp::Sub => anvil_rtl::BinaryOp::Sub,
                    BinOp::Mul => anvil_rtl::BinaryOp::Mul,
                    BinOp::And => anvil_rtl::BinaryOp::And,
                    BinOp::Or => anvil_rtl::BinaryOp::Or,
                    BinOp::Xor => anvil_rtl::BinaryOp::Xor,
                    BinOp::Eq => anvil_rtl::BinaryOp::Eq,
                    BinOp::Ne => anvil_rtl::BinaryOp::Ne,
                    BinOp::Lt => anvil_rtl::BinaryOp::Lt,
                    BinOp::Le => anvil_rtl::BinaryOp::Le,
                    BinOp::Gt => anvil_rtl::BinaryOp::Gt,
                    BinOp::Ge => anvil_rtl::BinaryOp::Ge,
                    BinOp::Shl => anvil_rtl::BinaryOp::Shl,
                    BinOp::Shr => anvil_rtl::BinaryOp::Shr,
                };
                Expr::bin(rtl_op, ea, eb)
            }
            Val::Unop(op, a) => {
                let ea = self.val_with_conds(a, cond_sel);
                match op {
                    UnOp::Not => ea.not(),
                    UnOp::LogicNot => ea.logic_not(),
                }
            }
            Val::Slice { base, hi, lo } => {
                self.val_with_conds(base, cond_sel).slice(*lo, hi - lo + 1)
            }
            Val::Concat(parts) => Expr::Concat(
                parts
                    .iter()
                    .map(|p| self.val_with_conds(p, cond_sel))
                    .collect(),
            ),
            Val::ExternCall { func, args } => {
                let f = self
                    .program
                    .extern_fn(func.as_str())
                    .expect("extern checked during build");
                let lowered: Vec<Expr> = args
                    .iter()
                    .map(|a| self.val_with_conds(a, cond_sel))
                    .collect();
                let key = (*func, lowered);
                if let Some(out) = self.extern_cache.get(&key) {
                    return Expr::Signal(*out);
                }
                let idx = self.extern_count;
                self.extern_count += 1;
                let mut conns = Vec::new();
                for (k, (e, w)) in key.1.iter().zip(&f.arg_widths).enumerate() {
                    let wire = self.m.wire(format!("x{idx}_{func}_in{k}"), *w);
                    self.m.assign(wire, e.clone());
                    conns.push((format!("in{k}"), wire));
                }
                let out = self.m.wire(format!("x{idx}_{func}_out"), f.ret_width);
                conns.push(("out".to_string(), out));
                self.m
                    .instance(format!("x{idx}_{func}"), func.as_str(), conns);
                self.child_driven.push(out);
                self.extern_cache.insert(key, out);
                Expr::Signal(out)
            }
            Val::Mux {
                cond,
                then_v,
                else_v,
            } => {
                let sel = cond_sel.get(cond.0).cloned().unwrap_or(Expr::bit(false));
                Expr::mux(
                    sel,
                    self.val_with_conds(then_v, cond_sel),
                    self.val_with_conds(else_v, cond_sel),
                )
            }
        }
    }
}

/// Whether a combinational path can exist from the thread root to this
/// event's `reached` wire (in which case a same-cycle loop restart would
/// form a combinational cycle).
fn depends_on_root(g: &EventGraph, e: EventId, root: EventId) -> bool {
    let mut dep = vec![false; g.len()];
    dep[root.0] = true;
    for (id, kind) in g.iter() {
        if id == root {
            continue;
        }
        dep[id.0] = match kind {
            EventKind::Root => false,
            EventKind::Delay { pred, cycles } => *cycles == 0 && dep[pred.0],
            EventKind::Sync { pred, .. } | EventKind::Branch { pred, .. } => dep[pred.0],
            EventKind::JoinAll { preds } | EventKind::JoinAny { preds } => {
                preds.iter().any(|p| dep[p.0])
            }
        };
    }
    dep[e.0]
}

/// Collapses a (possibly multi-bit) expression to a 1-bit truthy value.
fn truthy(e: Expr) -> Expr {
    Expr::Unary(anvil_rtl::UnaryOp::RedOr, Box::new(e))
}

/// Which side sends a message travelling in direction `dir`: a message
/// travelling `Right` goes from the left endpoint to the right one.
fn sender_side(dir: Dir) -> Dir {
    match dir {
        Dir::Right => Dir::Left,
        Dir::Left => Dir::Right,
    }
}

fn sender_mode(msg: &anvil_syntax::MessageDef) -> &SyncMode {
    match sender_side(msg.dir) {
        Dir::Left => &msg.sync_left,
        Dir::Right => &msg.sync_right,
    }
}

fn receiver_mode(msg: &anvil_syntax::MessageDef) -> &SyncMode {
    match sender_side(msg.dir) {
        Dir::Left => &msg.sync_right,
        Dir::Right => &msg.sync_left,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_sim::{AckPolicy, Agent, MsgPorts, ReceiverBfm, SenderBfm, Sim};
    use anvil_syntax::parse;

    fn compile(src: &str, top: &str) -> Module {
        let prog = parse(src).unwrap();
        let lib = compile_program(&prog, &ModuleLibrary::new(), CodegenOptions::default()).unwrap();
        lib.get(top).unwrap().clone()
    }

    fn compile_flat(src: &str, top: &str) -> Module {
        let prog = parse(src).unwrap();
        let lib = compile_program(&prog, &ModuleLibrary::new(), CodegenOptions::default()).unwrap();
        anvil_rtl::elaborate(top, &lib).unwrap()
    }

    /// Runs sender/receiver BFMs against a compiled module for `cycles`.
    fn run_bfms(sim: &mut Sim, sender: &mut SenderBfm, recv: &mut ReceiverBfm, cycles: u64) {
        for _ in 0..cycles {
            sender.drive(sim).unwrap();
            recv.drive(sim).unwrap();
            sender.observe(sim).unwrap();
            recv.observe(sim).unwrap();
            sim.step().unwrap();
        }
    }

    #[test]
    fn counter_sends_incrementing_values() {
        let m = compile_flat(
            "chan out_ch { right val : (logic[8]@#1) }
             proc counter(ep : left out_ch) {
                reg c : logic[8];
                loop { send ep.val (*c) >> set c := *c + 1 >> cycle 1 }
             }",
            "counter",
        );
        let mut sim = Sim::new(&m).unwrap();
        sim.poke("ep_val_ack", Bits::bit(true)).unwrap();
        let mut seen = Vec::new();
        for _ in 0..8 {
            if sim.peek("ep_val_valid").unwrap().is_truthy() {
                seen.push(sim.peek("ep_val_data").unwrap().to_u64());
            }
            sim.step().unwrap();
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unregistered_loop_rejected() {
        let prog = parse(
            "chan c { left m : (logic[8]@#1) }
             proc p(ep : left c) { loop { let x = recv ep.m >> x } }",
        )
        .unwrap();
        let err =
            compile_program(&prog, &ModuleLibrary::new(), CodegenOptions::default()).unwrap_err();
        assert!(matches!(err, CodegenError::UnregisteredLoop { .. }));
    }

    #[test]
    fn echo_process_roundtrips_data() {
        let m = compile_flat(
            "chan io {
                left req : (logic[8]@res),
                right res : (logic[8]@req)
             }
             proc echo(ep : left io) {
                reg hold : logic[8];
                loop {
                    let x = recv ep.req >>
                    set hold := x + 1 >>
                    send ep.res (*hold) >>
                    cycle 1
                }
             }",
            "echo",
        );
        let mut sim = Sim::new(&m).unwrap();
        let req = MsgPorts::conventional(&sim, "ep", "req");
        let res = MsgPorts::conventional(&sim, "ep", "res");
        let mut sender = SenderBfm::new(req);
        let mut recv = ReceiverBfm::new(res, AckPolicy::AlwaysReady);
        sender.push(Bits::from_u64(41, 8), 0);
        sender.push(Bits::from_u64(99, 8), 3);
        run_bfms(&mut sim, &mut sender, &mut recv, 20);
        let got: Vec<u64> = recv.values().iter().map(|b| b.to_u64()).collect();
        assert_eq!(got, vec![42, 100]);
    }

    #[test]
    fn static_sync_modes_omit_handshake_ports() {
        let m = compile(
            "chan c { right out : (logic[8]@#1) @#1-@#1 }
             proc p(ep : left c) { loop { send ep.out (8'd7) >> cycle 1 } }",
            "p",
        );
        assert!(m.find("ep_out_data").is_some());
        assert!(m.find("ep_out_valid").is_none());
        assert!(m.find("ep_out_ack").is_none());
    }

    #[test]
    fn force_dynamic_handshake_restores_ports() {
        let prog = parse(
            "chan c { right out : (logic[8]@#1) @#1-@#1 }
             proc p(ep : left c) { loop { send ep.out (8'd7) >> cycle 1 } }",
        )
        .unwrap();
        let lib = compile_program(
            &prog,
            &ModuleLibrary::new(),
            CodegenOptions {
                force_dynamic_handshake: true,
                ..CodegenOptions::default()
            },
        )
        .unwrap();
        let m = lib.get("p").unwrap();
        assert!(m.find("ep_out_valid").is_some());
        assert!(m.find("ep_out_ack").is_some());
    }

    #[test]
    fn branches_select_values() {
        let m = compile_flat(
            "chan io {
                left req : (logic[8]@res),
                right res : (logic[8]@req)
             }
             proc sel(ep : left io) {
                reg hold : logic[8];
                loop {
                    let x = recv ep.req >>
                    let y = if (x)[0:0] == 1 { x + 10 } else { x + 20 } >>
                    set hold := y >>
                    send ep.res (*hold) >>
                    cycle 1
                }
             }",
            "sel",
        );
        let mut sim = Sim::new(&m).unwrap();
        let req = MsgPorts::conventional(&sim, "ep", "req");
        let res = MsgPorts::conventional(&sim, "ep", "res");
        let mut sender = SenderBfm::new(req);
        let mut recv = ReceiverBfm::new(res, AckPolicy::AlwaysReady);
        sender.push(Bits::from_u64(3, 8), 0); // odd -> +10
        sender.push(Bits::from_u64(4, 8), 1); // even -> +20
        run_bfms(&mut sim, &mut sender, &mut recv, 20);
        let got: Vec<u64> = recv.values().iter().map(|b| b.to_u64()).collect();
        assert_eq!(got, vec![13, 24]);
    }

    #[test]
    fn spawned_children_wire_up() {
        let m = compile_flat(
            "chan inner { right v : (logic[8]@#1) }
             chan outer { right v : (logic[8]@#1) }
             proc child(ep : left inner) {
                reg c : logic[8];
                loop { send ep.v (*c) >> set c := *c + 1 >> cycle 1 }
             }
             proc top(out : left outer) {
                chan l -- r : inner;
                spawn child(l);
                loop {
                    let x = recv r.v >>
                    send out.v (x) >>
                    cycle 1
                }
             }",
            "top",
        );
        let mut sim = Sim::new(&m).unwrap();
        sim.poke("out_v_ack", Bits::bit(true)).unwrap();
        let mut seen = Vec::new();
        for _ in 0..24 {
            if sim.peek("out_v_valid").unwrap().is_truthy()
                && sim.peek("out_v_ack").unwrap().is_truthy()
            {
                seen.push(sim.peek("out_v_data").unwrap().to_u64());
            }
            sim.step().unwrap();
        }
        assert!(seen.len() >= 3, "forwarded values: {seen:?}");
        for w in seen.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn register_arrays_lower_to_memories() {
        let m = compile_flat(
            "chan io {
                left wr : (logic[8]@res),
                right res : (logic[8]@wr)
             }
             proc mem(ep : left io) {
                reg store : logic[8][4];
                loop {
                    let x = recv ep.wr >>
                    set store[(x)[1:0]] := x >>
                    send ep.res (*store[(x)[1:0]]) >>
                    cycle 1
                }
             }",
            "mem",
        );
        let mut sim = Sim::new(&m).unwrap();
        let wr = MsgPorts::conventional(&sim, "ep", "wr");
        let res = MsgPorts::conventional(&sim, "ep", "res");
        let mut sender = SenderBfm::new(wr);
        let mut recv = ReceiverBfm::new(res, AckPolicy::AlwaysReady);
        sender.push(Bits::from_u64(0xA1, 8), 0);
        run_bfms(&mut sim, &mut sender, &mut recv, 12);
        assert_eq!(recv.values()[0].to_u64(), 0xA1);
    }

    #[test]
    fn dprint_survives_to_simulation() {
        let m = compile_flat(
            "proc p() {
                reg c : logic[4];
                loop { dprint \"tick\" (*c) >> set c := *c + 1 >> cycle 1 }
             }",
            "p",
        );
        let mut sim = Sim::new(&m).unwrap();
        for _ in 0..6 {
            sim.step().unwrap();
        }
        assert!(sim.log.len() >= 2);
        assert!(sim.log[0].1.contains("tick"));
    }

    #[test]
    fn emitted_systemverilog_has_module_and_handshake() {
        let m = compile(
            "chan io { left req : (logic[8]@res), right res : (logic[8]@req) }
             proc echo(ep : left io) {
                reg hold : logic[8];
                loop {
                    let x = recv ep.req >> set hold := x >>
                    send ep.res (*hold) >> cycle 1
                }
             }",
            "echo",
        );
        let sv = anvil_rtl::emit_module(&m);
        assert!(sv.contains("module echo"));
        assert!(sv.contains("ep_req_ack"));
        assert!(sv.contains("ep_res_valid"));
        assert!(sv.contains("always_ff @(posedge clk)"));
    }

    #[test]
    fn extern_fn_instantiated() {
        // An inverter as foreign IP.
        let mut externs = ModuleLibrary::new();
        let mut inv = Module::new("inv8");
        let a = inv.input("in0", 8);
        let y = inv.output("out", 8);
        inv.assign(y, Expr::Signal(a).not());
        externs.add(inv);

        let prog = parse(
            "extern fn inv8(logic[8]) -> logic[8];
             chan io { left req : (logic[8]@res), right res : (logic[8]@req) }
             proc p(ep : left io) {
                reg hold : logic[8];
                loop {
                    let x = recv ep.req >> set hold := inv8(x) >>
                    send ep.res (*hold) >> cycle 1
                }
             }",
        )
        .unwrap();
        let lib = compile_program(&prog, &externs, CodegenOptions::default()).unwrap();
        let flat = anvil_rtl::elaborate("p", &lib).unwrap();
        let mut sim = Sim::new(&flat).unwrap();
        let req = MsgPorts::conventional(&sim, "ep", "req");
        let res = MsgPorts::conventional(&sim, "ep", "res");
        let mut sender = SenderBfm::new(req);
        let mut recv = ReceiverBfm::new(res, AckPolicy::AlwaysReady);
        sender.push(Bits::from_u64(0x0F, 8), 0);
        run_bfms(&mut sim, &mut sender, &mut recv, 10);
        assert_eq!(recv.values()[0].to_u64(), 0xF0);
    }

    #[test]
    fn missing_extern_errors() {
        let prog = parse(
            "extern fn nope(logic[8]) -> logic[8];
             proc p() { reg r : logic[8]; loop { set r := nope(*r) >> cycle 1 } }",
        )
        .unwrap();
        assert!(matches!(
            compile_program(&prog, &ModuleLibrary::new(), CodegenOptions::default()),
            Err(CodegenError::MissingExtern { .. })
        ));
    }
}

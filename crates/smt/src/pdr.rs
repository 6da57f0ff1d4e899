//! Property-directed reachability (IC3/PDR) over the incremental solver.
//!
//! Where bounded model checking unrolls the transition relation `k` times
//! and k-induction needs the property to be inductive after `k`
//! strengthening frames, PDR proves safety with *no deep unrolling at
//! all*: it maintains a sequence of frames `F_0 ⊇ F_1 ⊇ … ⊇ F_N` (as
//! state sets; as clause sets they grow) where `F_i` over-approximates
//! the states reachable in at most `i` steps, and incrementally
//! strengthens them with *relatively inductive* clauses until two
//! adjacent frames coincide — an inductive invariant — or a chain of
//! concrete predecessor states reaches the reset state — a
//! counterexample.
//!
//! The implementation is the monolithic-solver variant: one incremental
//! [`Solver`] holds a two-frame unrolling of the transition relation
//! (current state = frame 0, next state = frame 1), every frame clause
//! is guarded by a per-position activation literal, and a query against
//! `F_i` simply assumes the activation literals of positions `i..=N`.
//! Frame 0 is the exact reset state, asserted as a complete cube of
//! assumptions. Proof obligations carry the input words of their suffix
//! path, so a falsification comes out as a ready-to-replay stimulus
//! trace rather than an abstract state sequence.
//!
//! Three choices after Eén, Mishchenko and Brayton ("Efficient
//! Implementation of Property Directed Reachability", FMCAD 2011) keep
//! the engine cheap:
//!
//! * **Lifted obligations.** A SAT model names a full state, but only
//!   the latches in the fan-in cone of what it must reach matter. The
//!   bad state is lifted against `¬ok`, and a predecessor against the
//!   next-state literals of its obligation's cube, by ternary
//!   simulation: with the inputs held at their model values, each cone
//!   latch is set to X and stays out of the cube unless the X reaches a
//!   target. Every completion of a lifted cube therefore still steps
//!   into its target under the recorded inputs, so traces replay.
//!   Answers thrown away — failed literal drops in generalization and
//!   clause pushing — are not lifted.
//! * **Source-only branching.** The solver decides only on the frame-0
//!   latches and inputs; every other variable is an AND gate they force
//!   by propagation, so the search stays complete. With small cubes
//!   most queries are satisfiable, and branching on gates made the
//!   solver drain and refill its whole activity heap on each of them.
//! * **A tick budget.** Runaway runs are bounded in solver ticks
//!   ([`SolverStats::ticks`]), which grow with the frame clauses each
//!   propagation visits, not in propagations, which do not.
//!
//! On the `prove_mix` benchmark's FIFO occupancy monitor (17 latches
//! after optimization) this took standalone PDR from 7,675 SAT calls and
//! a 226-clause invariant to 1,744 calls and 65 clauses, both at 11
//! frames; on its spill-register monitor from 3,239 to 559 calls.
//!
//! **No subsumed clauses.** Half of those 65 clauses were implied by
//! another clause of the same invariant. When a cube is added at a
//! position, or pushed to one, every other live cube at that position
//! or below whose literals include all of its literals is retired: it is
//! never pushed again and stays out of the invariant. Its guarded solver
//! clause stays, since the new clause implies it in every frame it
//! belongs to. Skipping its pushes changes the rest of the search a
//! little: the FIFO monitor then took 1,555 SAT calls and left 33
//! clauses, the spill monitor 520 calls and 16 clauses instead of 28,
//! both at the same frame counts (11 and 7). Certificate revalidation
//! asks one query per invariant clause, so the warm re-prove shrinks
//! with the invariant.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::aig::{Aig, Lit, Node};
use crate::cert::LatchLit;
use crate::cnf::{CnfEncoder, Unroller};
use crate::solver::{SLit, SolveResult, Solver, SolverStats, Var};

/// Budgets and cancellation for one [`Pdr`] run.
pub struct PdrOptions {
    /// Frame cap; exceeding it returns [`PdrOutcome::Unknown`].
    pub max_frames: usize,
    /// Proof-obligation cap (runaway guard on huge state spaces).
    pub max_obligations: u64,
    /// Solver-tick cap ([`SolverStats::ticks`]) — the effective
    /// wall-clock guard. On datapath-heavy cones (wide functional
    /// invariants) generalization issues hundreds of SAT calls per
    /// obligation, each cheap in conflicts but long in propagation work,
    /// and that work grows with the frame clauses each propagation
    /// visits; this bounds it where the obligation cap alone would admit
    /// hours.
    pub max_ticks: u64,
    /// Cooperative stop flag (portfolio losers are cancelled through it).
    pub stop: Option<Arc<AtomicBool>>,
    /// Wall-clock deadline, polled wherever the stop flag is (and inside
    /// the solver); expiry returns [`PdrOutcome::Unknown`].
    pub deadline: crate::Deadline,
}

impl Default for PdrOptions {
    fn default() -> PdrOptions {
        PdrOptions {
            max_frames: 64,
            max_obligations: 200_000,
            max_ticks: 300_000_000,
            stop: None,
            deadline: crate::Deadline::none(),
        }
    }
}

/// Counters for one [`Pdr`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PdrStats {
    /// Frames opened (the final `N`).
    pub frames: usize,
    /// Blocking clauses added (including propagated re-adds).
    pub clauses: usize,
    /// Proof obligations processed.
    pub obligations: u64,
    /// Solver calls issued.
    pub sat_calls: u64,
    /// Cube literals removed by ternary-simulation lifting (relative to
    /// the full-state cube of each lifted model).
    pub lifted_away: u64,
    /// Cube literals dropped by inductive generalization.
    pub generalized_away: u64,
    /// Blocking cubes retired because a cube at the same or a later
    /// position subsumed them.
    pub retired: u64,
    /// Solver variables allocated.
    pub vars: usize,
    /// The underlying solver's counters.
    pub solver: SolverStats,
}

/// Result of a [`Pdr::run`].
#[derive(Clone, Debug)]
pub enum PdrOutcome {
    /// The property holds; the clauses (over sequential latch literals)
    /// are an inductive strengthening checkable by
    /// [`crate::ProofCert::revalidate_inductive`]. May be empty when the
    /// property is already invariant on its own.
    Proved {
        /// The invariant clauses.
        invariant: Vec<Vec<LatchLit>>,
    },
    /// The property fails; `inputs[c]` holds the value of every
    /// sequential input bit at cycle `c`, starting from reset, with the
    /// violation on the last cycle.
    Falsified {
        /// Per-cycle input-bit assignments.
        inputs: Vec<Vec<bool>>,
    },
    /// Gave up (frame cap, obligation cap, tick cap or stop flag).
    Unknown,
}

/// A proof obligation: block `cube` at `frame`, or trace it back to
/// reset. `inputs` is the suffix stimulus from the cube's state to the
/// violation.
struct Ob {
    frame: usize,
    order: u64,
    cube: Vec<LatchLit>,
    inputs: Vec<Vec<bool>>,
}

impl PartialEq for Ob {
    fn eq(&self, other: &Ob) -> bool {
        self.frame == other.frame && self.order == other.order
    }
}
impl Eq for Ob {}
impl PartialOrd for Ob {
    fn partial_cmp(&self, other: &Ob) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ob {
    fn cmp(&self, other: &Ob) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert for lowest-frame-first,
        // FIFO within a frame.
        other
            .frame
            .cmp(&self.frame)
            .then(other.order.cmp(&self.order))
    }
}

enum Consec {
    /// The cube has no predecessor in the precondition frame.
    Blocked,
    /// A predecessor exists: the solver's model holds its state and the
    /// input word driving it into the cube.
    Cti,
    /// Solver interrupted (stop flag).
    Interrupted,
}

/// What one round of [`Pdr::run`] decided.
enum Round {
    /// `F_n` may still hold a bad state: query it again.
    Again,
    /// `F_n` excludes every bad state and no two adjacent frames
    /// coincide: open `F_{n+1}`.
    Next,
    /// The run is over.
    Done(PdrOutcome),
}

/// Ternary values of [`Lifter`]'s simulation.
const T_FALSE: u8 = 0;
const T_TRUE: u8 = 1;
const T_X: u8 = 2;

fn t_lit(val: &[u8], l: Lit) -> u8 {
    match val[l.node()] {
        T_X => T_X,
        v => v ^ u8::from(l.is_negated()),
    }
}

fn t_and(a: u8, b: u8) -> u8 {
    if a == T_FALSE || b == T_FALSE {
        T_FALSE
    } else if a == T_TRUE && b == T_TRUE {
        T_TRUE
    } else {
        T_X
    }
}

/// Shrinks a concrete state to the latches a set of target literals
/// actually depends on, by ternary (0/1/X) simulation over the
/// sequential graph: with the inputs fixed, a latch whose value can be
/// replaced by X without turning any target X is left out of the cube,
/// so every completion of the cube still drives every target true.
struct Lifter {
    /// AND nodes reading node `n` are `fanout[fanout_start[n]..fanout_start[n + 1]]`.
    fanout_start: Vec<u32>,
    fanout: Vec<u32>,
    /// Ternary value per node; valid inside the current cone.
    val: Vec<u8>,
    /// `cone[n] == epoch` marks the current targets' fan-in cone.
    cone: Vec<u32>,
    /// `target[n] == epoch` marks the nodes of the current targets.
    target: Vec<u32>,
    epoch: u32,
    /// The current cone in topological (index) order.
    order: Vec<u32>,
    /// `(node, value)` pairs to restore when an X trial reaches a target.
    undo: Vec<(u32, u8)>,
    stack: Vec<u32>,
}

impl Lifter {
    fn new(seq: &Aig) -> Lifter {
        let n = seq.len();
        let mut fanout_start = vec![0u32; n + 1];
        for node in seq.nodes() {
            if let Node::And(a, b) = *node {
                fanout_start[a.node() + 1] += 1;
                fanout_start[b.node() + 1] += 1;
            }
        }
        for i in 0..n {
            fanout_start[i + 1] += fanout_start[i];
        }
        let mut fill = fanout_start.clone();
        let mut fanout = vec![0u32; fanout_start[n] as usize];
        for (i, node) in seq.nodes().iter().enumerate() {
            if let Node::And(a, b) = *node {
                for c in [a.node(), b.node()] {
                    fanout[fill[c] as usize] = i as u32;
                    fill[c] += 1;
                }
            }
        }
        Lifter {
            fanout_start,
            fanout,
            val: vec![T_X; n],
            cone: vec![0; n],
            target: vec![0; n],
            epoch: 0,
            order: Vec::new(),
            undo: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The sub-cube of `state` that, under `inputs`, keeps every literal
    /// of `targets` true. Only latches in the targets' fan-in cone are
    /// tried (the rest cannot matter); each trial re-simulates
    /// event-driven through the fanouts and is undone when it reaches a
    /// target.
    fn lift(
        &mut self,
        seq: &Aig,
        state: &[bool],
        inputs: &[bool],
        targets: &[Lit],
    ) -> Vec<LatchLit> {
        self.epoch += 1;
        let e = self.epoch;
        self.order.clear();
        self.stack.clear();
        for &t in targets {
            self.target[t.node()] = e;
            self.stack.push(t.node() as u32);
        }
        while let Some(n) = self.stack.pop() {
            let n = n as usize;
            if self.cone[n] == e {
                continue;
            }
            self.cone[n] = e;
            self.order.push(n as u32);
            if let Node::And(a, b) = seq.node(n) {
                self.stack.push(a.node() as u32);
                self.stack.push(b.node() as u32);
            }
        }
        self.order.sort_unstable();
        for &n in &self.order {
            let n = n as usize;
            self.val[n] = match seq.node(n) {
                Node::Const => T_FALSE,
                Node::Input(i) => u8::from(inputs[i as usize]),
                Node::Latch(l) => u8::from(state[l as usize]),
                Node::And(a, b) => t_and(t_lit(&self.val, a), t_lit(&self.val, b)),
            };
        }
        debug_assert!(
            targets.iter().all(|&t| t_lit(&self.val, t) == T_TRUE),
            "the model satisfies every target"
        );
        let mut cube = Vec::new();
        for k in 0..self.order.len() {
            let n = self.order[k] as usize;
            let Node::Latch(l) = seq.node(n) else {
                continue;
            };
            if self.target[n] != e && self.try_x(seq, n) {
                continue;
            }
            cube.push(LatchLit {
                latch: l,
                negated: !state[l as usize],
            });
        }
        cube
    }

    /// Sets node `n` to X and propagates; keeps the X and returns true
    /// unless a target turns X, in which case every change is undone.
    fn try_x(&mut self, seq: &Aig, n: usize) -> bool {
        let e = self.epoch;
        self.undo.clear();
        self.undo.push((n as u32, self.val[n]));
        self.val[n] = T_X;
        self.stack.clear();
        self.stack.push(n as u32);
        while let Some(m) = self.stack.pop() {
            let m = m as usize;
            for i in self.fanout_start[m]..self.fanout_start[m + 1] {
                let f = self.fanout[i as usize] as usize;
                if self.cone[f] != e || self.val[f] == T_X {
                    continue;
                }
                let Node::And(a, b) = seq.node(f) else {
                    unreachable!("fanouts are AND nodes");
                };
                // Values only ever move from 0/1 to X here.
                if t_and(t_lit(&self.val, a), t_lit(&self.val, b)) != T_X {
                    continue;
                }
                if self.target[f] == e {
                    for &(node, v) in self.undo.iter().rev() {
                        self.val[node as usize] = v;
                    }
                    return false;
                }
                self.undo.push((f as u32, self.val[f]));
                self.val[f] = T_X;
                self.stack.push(f as u32);
            }
        }
        true
    }
}

/// The position of a retired cube: one subsumed by another cube at the
/// same or a later position. Live positions start at 1, so a retired
/// cube is never pushed, never keeps a frame apart from the next, and
/// never enters an invariant.
const RETIRED: usize = 0;

/// The IC3/PDR engine.
pub struct Pdr {
    seq: Arc<Aig>,
    solver: Solver,
    /// Solver literal of each latch in the current (frame 0) state.
    cur_latch: Vec<SLit>,
    /// … and in the next (frame 1) state.
    nxt_latch: Vec<SLit>,
    /// Solver literal of each input bit at frame 0.
    cur_input: Vec<SLit>,
    /// `¬ok` over the current state.
    bad: SLit,
    /// `¬ok` in the sequential graph (the bad-state lifting target).
    bad_seq: Lit,
    /// Reset values per latch.
    init: Vec<bool>,
    /// Activation literal per clause position (`acts[i]` guards position
    /// `i`; index 0 is an unused placeholder).
    acts: Vec<SLit>,
    /// Blocking cubes with their current positions ([`RETIRED`] once
    /// subsumed).
    cubes: Vec<(Vec<LatchLit>, usize)>,
    lifter: Lifter,
    ob_order: u64,
    options: PdrOptions,
    stats: PdrStats,
}

impl Pdr {
    /// Prepares an engine for `ok` (the property literal) over the
    /// sequential graph.
    pub fn new(seq: Arc<Aig>, ok: Lit, options: PdrOptions) -> Pdr {
        let mut unroller = Unroller::new(Arc::clone(&seq), true);
        unroller.push_frame();
        unroller.push_frame();
        let mut solver = Solver::new();
        if let Some(stop) = &options.stop {
            solver.set_stop(Arc::clone(stop));
        }
        solver.set_deadline(options.deadline);
        let mut enc = CnfEncoder::new();
        let mut latch_slits = |frame: usize| -> Vec<SLit> {
            (0..seq.n_latches() as u32)
                .map(|n| {
                    let l = unroller.lit_at(frame, seq.latch_lit(n));
                    enc.encode(unroller.comb(), &mut solver, l)
                })
                .collect()
        };
        let cur_latch = latch_slits(0);
        let nxt_latch = latch_slits(1);
        let cur_input: Vec<SLit> = (0..seq.n_inputs() as u32)
            .map(|n| {
                let l = unroller.lit_at(0, seq.input_lit(n));
                enc.encode(unroller.comb(), &mut solver, l)
            })
            .collect();
        let bad = enc.encode(
            unroller.comb(),
            &mut solver,
            unroller.lit_at(0, ok.negate()),
        );
        // Branch only on the frame-0 latches and inputs: every other
        // variable encoded so far is an AND gate they force by
        // propagation. Variables created later stay decision variables.
        for v in 0..solver.n_vars() as Var {
            solver.set_decision(v, false);
        }
        for s in cur_latch.iter().chain(&cur_input) {
            solver.set_decision(s.var(), true);
        }
        let init = seq.latches().iter().map(|l| l.init).collect();
        // Placeholder for position 0 (never assumed) plus position 1.
        let acts = vec![SLit::pos(solver.new_var()), SLit::pos(solver.new_var())];
        let lifter = Lifter::new(&seq);
        Pdr {
            seq,
            solver,
            cur_latch,
            nxt_latch,
            cur_input,
            bad,
            bad_seq: ok.negate(),
            init,
            acts,
            cubes: Vec::new(),
            lifter,
            ob_order: 0,
            options,
            stats: PdrStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> PdrStats {
        let mut s = self.stats;
        s.solver = self.solver.stats();
        s.vars = self.solver.n_vars();
        s
    }

    fn stopped(&self) -> bool {
        self.options
            .stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
            || self.options.deadline.expired()
    }

    /// Cancelled externally or out of tick budget.
    fn interrupted(&self) -> bool {
        self.stopped() || self.solver.stats().ticks > self.options.max_ticks
    }

    /// The frame-0 latch values of the last model.
    fn model_state(&self) -> Vec<bool> {
        self.cur_latch
            .iter()
            .map(|&sl| self.solver.model_value(sl))
            .collect()
    }

    /// The frame-0 input word of the last model.
    fn model_inputs(&self) -> Vec<bool> {
        self.cur_input
            .iter()
            .map(|&sl| self.solver.model_value(sl))
            .collect()
    }

    /// The lifted cube of the last model's state: the latches that keep
    /// every literal of `targets` true under the model's inputs.
    fn lift_model(&mut self, targets: &[Lit]) -> (Vec<LatchLit>, Vec<bool>) {
        let state = self.model_state();
        let inputs = self.model_inputs();
        let cube = self.lifter.lift(&self.seq, &state, &inputs, targets);
        self.stats.lifted_away += (state.len() - cube.len()) as u64;
        (cube, inputs)
    }

    /// Does the reset state satisfy the cube?
    fn init_in_cube(&self, cube: &[LatchLit]) -> bool {
        cube.iter().all(|l| l.eval(&self.init))
    }

    fn cur_slit(&self, l: LatchLit) -> SLit {
        let s = self.cur_latch[l.latch as usize];
        if l.negated {
            s.negate()
        } else {
            s
        }
    }

    fn nxt_slit(&self, l: LatchLit) -> SLit {
        let s = self.nxt_latch[l.latch as usize];
        if l.negated {
            s.negate()
        } else {
            s
        }
    }

    /// The next-state literal that makes cube literal `l` hold after one
    /// step.
    fn next_lit(&self, l: LatchLit) -> Lit {
        let next = self
            .seq
            .latch_info(l.latch)
            .next
            .expect("latch connected during blasting");
        if l.negated {
            next.negate()
        } else {
            next
        }
    }

    /// Relative-induction query: can a state of `fprev` (under `¬cube`
    /// when `fprev ≥ 1`) transition into `cube`?
    fn consecution(&mut self, cube: &[LatchLit], fprev: usize) -> Consec {
        let mut assumptions: Vec<SLit> = Vec::new();
        let mut retire: Option<SLit> = None;
        if fprev == 0 {
            // Exact reset state. `¬cube` is implied: callers never ask
            // about a cube that contains the reset state.
            for (n, &v) in self.init.iter().enumerate() {
                let s = self.cur_latch[n];
                assumptions.push(if v { s } else { s.negate() });
            }
        } else {
            assumptions.extend_from_slice(&self.acts[fprev..]);
            // Temporary activation of ¬cube over the current state.
            let t = SLit::pos(self.solver.new_var());
            let mut cls: Vec<SLit> = vec![t.negate()];
            cls.extend(cube.iter().map(|&l| self.cur_slit(l).negate()));
            self.solver.add_clause(&cls);
            assumptions.push(t);
            retire = Some(t);
        }
        assumptions.extend(cube.iter().map(|&l| self.nxt_slit(l)));
        self.stats.sat_calls += 1;
        let out = match self.solver.solve(&assumptions) {
            SolveResult::Unsat => Consec::Blocked,
            SolveResult::Sat => Consec::Cti,
            SolveResult::Interrupted => Consec::Interrupted,
        };
        if let Some(t) = retire {
            self.solver.add_clause(&[t.negate()]);
        }
        out
    }

    /// Drops cube literals while consecution at `fprev` still holds and
    /// the reset state stays excluded.
    fn generalize(&mut self, cube: Vec<LatchLit>, fprev: usize) -> Vec<LatchLit> {
        let mut cube = cube;
        let mut i = 0;
        while i < cube.len() && cube.len() > 1 {
            let mut candidate = cube.clone();
            candidate.remove(i);
            // Reset must stay outside the shrunk cube.
            if self.init_in_cube(&candidate) {
                i += 1;
                continue;
            }
            match self.consecution(&candidate, fprev) {
                Consec::Blocked => {
                    cube = candidate;
                    self.stats.generalized_away += 1;
                }
                _ => i += 1,
            }
        }
        cube
    }

    /// Adds the blocking clause `¬cube` at `pos` (guarded).
    fn add_blocking_clause(&mut self, cube: &[LatchLit], pos: usize) {
        let mut cls: Vec<SLit> = vec![self.acts[pos].negate()];
        cls.extend(cube.iter().map(|&l| self.cur_slit(l).negate()));
        self.solver.add_clause(&cls);
        self.stats.clauses += 1;
    }

    /// Retires every other live cube at a position no later than
    /// `cubes[by]`'s whose literals include all of `cubes[by]`'s. The
    /// clause of `cubes[by]` implies its clause in every frame it belongs
    /// to, so its guarded solver clause may stay.
    fn retire_subsumed(&mut self, by: usize) {
        let (cube, pos) = self.cubes[by].clone();
        for (ci, (other, p)) in self.cubes.iter_mut().enumerate() {
            if ci != by && (1..=pos).contains(p) && cube.iter().all(|l| other.contains(l)) {
                *p = RETIRED;
                self.stats.retired += 1;
            }
        }
    }

    /// Runs the engine to a verdict.
    pub fn run(&mut self) -> PdrOutcome {
        // Cycle 0: does reset itself violate the property?
        let mut reset_assumps: Vec<SLit> = self
            .init
            .iter()
            .enumerate()
            .map(|(n, &v)| {
                let s = self.cur_latch[n];
                if v {
                    s
                } else {
                    s.negate()
                }
            })
            .collect();
        reset_assumps.push(self.bad);
        self.stats.sat_calls += 1;
        match self.solver.solve(&reset_assumps) {
            SolveResult::Sat => {
                return PdrOutcome::Falsified {
                    inputs: vec![self.model_inputs()],
                };
            }
            SolveResult::Interrupted => return PdrOutcome::Unknown,
            SolveResult::Unsat => {}
        }

        let mut n = 1usize;
        loop {
            self.stats.frames = n;
            let mut sp = anvil_trace::span("pdr", "frame");
            let before = self.stats;
            let round = self.round(n);
            sp.set_detail_with(|| {
                format!(
                    "F{n} obligations={} sat_calls={} clauses={}",
                    self.stats.obligations - before.obligations,
                    self.stats.sat_calls - before.sat_calls,
                    self.stats.clauses - before.clauses,
                )
            });
            match round {
                Round::Again => {}
                Round::Next => {
                    n += 1;
                    self.acts.push(SLit::pos(self.solver.new_var()));
                }
                Round::Done(outcome) => return outcome,
            }
        }
    }

    /// One round at frame level `n`: a bad state of `F_n` and the
    /// obligations it raises, or, once `F_n` has none, clause
    /// propagation.
    fn round(&mut self, n: usize) -> Round {
        if n >= self.options.max_frames || self.interrupted() {
            return Round::Done(PdrOutcome::Unknown);
        }
        let mut bad_assumps = self.acts[n..].to_vec();
        bad_assumps.push(self.bad);
        self.stats.sat_calls += 1;
        match self.solver.solve(&bad_assumps) {
            SolveResult::Interrupted => Round::Done(PdrOutcome::Unknown),
            SolveResult::Sat => {
                let (cube, inputs) = self.lift_model(&[self.bad_seq]);
                match self.handle_obligations(cube, inputs, n) {
                    Some(outcome) => Round::Done(outcome),
                    None => Round::Again,
                }
            }
            SolveResult::Unsat => match self.propagate(n) {
                Some(outcome) => Round::Done(outcome),
                None => Round::Next,
            },
        }
    }

    /// Pushes clauses forward through `F_1..F_n`, then looks for two
    /// equal adjacent frames (an inductive invariant). `None` when
    /// there are none yet.
    fn propagate(&mut self, n: usize) -> Option<PdrOutcome> {
        for i in 1..n {
            for ci in 0..self.cubes.len() {
                if self.cubes[ci].1 != i {
                    continue;
                }
                let cube = self.cubes[ci].0.clone();
                if matches!(self.consecution(&cube, i), Consec::Blocked) {
                    self.cubes[ci].1 = i + 1;
                    self.add_blocking_clause(&cube, i + 1);
                    self.retire_subsumed(ci);
                }
            }
            if self.interrupted() {
                return Some(PdrOutcome::Unknown);
            }
        }
        let i = (1..n).find(|&i| self.cubes.iter().all(|(_, p)| *p != i))?;
        // F_i == F_{i+1}: inductive invariant found.
        let invariant = self
            .cubes
            .iter()
            .filter(|(_, p)| *p > i)
            .map(|(c, _)| {
                c.iter()
                    .map(|l| LatchLit {
                        latch: l.latch,
                        negated: !l.negated,
                    })
                    .collect()
            })
            .collect();
        Some(PdrOutcome::Proved { invariant })
    }

    /// Discharges the obligation queue seeded with one bad cube at frame
    /// `n`. `Some(outcome)` ends the whole run; `None` means every
    /// obligation was blocked.
    fn handle_obligations(
        &mut self,
        cube: Vec<LatchLit>,
        inputs: Vec<bool>,
        n: usize,
    ) -> Option<PdrOutcome> {
        let mut queue: BinaryHeap<Ob> = BinaryHeap::new();
        self.ob_order += 1;
        queue.push(Ob {
            frame: n,
            order: self.ob_order,
            cube,
            inputs: vec![inputs],
        });
        while let Some(ob) = queue.pop() {
            self.stats.obligations += 1;
            if self.stats.obligations > self.options.max_obligations || self.interrupted() {
                return Some(PdrOutcome::Unknown);
            }
            if self.init_in_cube(&ob.cube) {
                // Reached reset: the suffix inputs are a complete
                // counterexample stimulus.
                return Some(PdrOutcome::Falsified { inputs: ob.inputs });
            }
            match self.consecution(&ob.cube, ob.frame - 1) {
                Consec::Interrupted => return Some(PdrOutcome::Unknown),
                Consec::Cti => {
                    // Lift the predecessor against the next-state
                    // functions of the cube's literals, so the whole
                    // lifted cube steps into `ob.cube` under its inputs.
                    let targets: Vec<Lit> = ob.cube.iter().map(|&l| self.next_lit(l)).collect();
                    let (pred, pred_inputs) = self.lift_model(&targets);
                    let mut inputs = Vec::with_capacity(ob.inputs.len() + 1);
                    inputs.push(pred_inputs);
                    inputs.extend(ob.inputs.iter().cloned());
                    self.ob_order += 1;
                    let pred_ob = Ob {
                        frame: ob.frame - 1,
                        order: self.ob_order,
                        cube: pred,
                        inputs,
                    };
                    self.ob_order += 1;
                    let retry = Ob {
                        order: self.ob_order,
                        ..ob
                    };
                    queue.push(pred_ob);
                    queue.push(retry);
                }
                Consec::Blocked => {
                    let cube = self.generalize(ob.cube.clone(), ob.frame - 1);
                    // Push the clause as far forward as it stays
                    // relatively inductive.
                    let mut pos = ob.frame;
                    while pos < n {
                        match self.consecution(&cube, pos) {
                            Consec::Blocked => pos += 1,
                            _ => break,
                        }
                    }
                    self.add_blocking_clause(&cube, pos);
                    self.cubes.push((cube, pos));
                    self.retire_subsumed(self.cubes.len() - 1);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::ProofCert;
    use crate::testgen::{random_aig, xorshift};

    /// A `width`-bit counter with enable input; returns (graph, latch
    /// literals LSB-first, enable input literal).
    fn counter(width: usize) -> (Aig, Vec<Lit>, Lit) {
        let mut g = Aig::new();
        let en = g.add_input();
        let regs: Vec<Lit> = (0..width).map(|_| g.add_latch(false)).collect();
        // q' = en ? q + 1 : q  (ripple increment).
        let mut carry = Lit::TRUE;
        let mut nexts = Vec::new();
        for &q in &regs {
            let sum = g.xor(q, carry);
            carry = g.and(q, carry);
            let nv = g.mux(en, sum, q);
            nexts.push(nv);
        }
        for (&q, &nv) in regs.iter().zip(&nexts) {
            g.set_next(q, nv);
        }
        (g, regs, en)
    }

    /// Concrete replay: does `inputs` drive the circuit from reset into
    /// a `¬ok` state on the last cycle?
    fn replays(seq: &Aig, ok: Lit, inputs: &[Vec<bool>]) -> bool {
        let mut state: Vec<u64> = seq
            .latches()
            .iter()
            .map(|l| if l.init { 1 } else { 0 })
            .collect();
        for (c, word) in inputs.iter().enumerate() {
            let ins: Vec<u64> = word.iter().map(|&b| u64::from(b)).collect();
            let vals = seq.simulate(&ins, &state);
            let bad = Aig::lit_value(&vals, ok.negate()) & 1 == 1;
            if c + 1 == inputs.len() {
                return bad;
            }
            if bad {
                return false; // violated earlier than claimed
            }
            state = seq
                .latches()
                .iter()
                .map(|l| Aig::lit_value(&vals, l.next.unwrap()) & 1)
                .collect();
        }
        false
    }

    /// The saturating 2-bit counter: b0' = ¬b0 ∧ ¬b1; b1' = b1 ∨ b0, with
    /// `ok` = the unreachable state 11 never occurs.
    fn saturating() -> (Aig, Lit) {
        let mut g = Aig::new();
        let b0 = g.add_latch(false);
        let b1 = g.add_latch(false);
        let n0 = g.and(b0.negate(), b1.negate());
        let n1 = g.or(b1, b0);
        g.set_next(b0, n0);
        g.set_next(b1, n1);
        let ok = g.and(b0, b1).negate();
        (g, ok)
    }

    /// The 4-bit counter with `ok` = the count never reaches 12
    /// (bad = ¬b0 ∧ ¬b1 ∧ b2 ∧ b3).
    fn counter_to_12() -> (Aig, Lit) {
        let (mut g, regs, _en) = counter(4);
        let t0 = g.and(regs[0].negate(), regs[1].negate());
        let t1 = g.and(regs[2], regs[3]);
        let bad = g.and(t0, t1);
        (g, bad.negate())
    }

    /// True when `prop` (a lane mask over simulated node values) holds
    /// in every completion of `cube` under the input word `input`:
    /// latches outside the cube take every combination of values, 64
    /// combinations per simulation pass.
    fn every_completion(
        seq: &Aig,
        cube: &[LatchLit],
        input: &[bool],
        prop: &dyn Fn(&[u64]) -> u64,
    ) -> bool {
        let mut fixed: Vec<Option<bool>> = vec![None; seq.n_latches()];
        for l in cube {
            fixed[l.latch as usize] = Some(!l.negated);
        }
        let free: Vec<usize> = (0..seq.n_latches())
            .filter(|&l| fixed[l].is_none())
            .collect();
        let ins: Vec<u64> = input.iter().map(|&b| if b { !0 } else { 0 }).collect();
        let total = 1u64 << free.len();
        let mut base = 0u64;
        while base < total {
            let lanes = (total - base).min(64);
            let mask = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
            let mut words: Vec<u64> = fixed
                .iter()
                .map(|f| if *f == Some(true) { !0 } else { 0 })
                .collect();
            for (j, &l) in free.iter().enumerate() {
                words[l] = (0..lanes)
                    .filter(|lane| ((base + lane) >> j) & 1 == 1)
                    .fold(0, |w, lane| w | 1 << lane);
            }
            if prop(&seq.simulate(&ins, &words)) & mask != mask {
                return false;
            }
            base += 64;
        }
        true
    }

    /// Lifts every bad state and a random target sub-cube of every
    /// successor, for every state and input word of `seq`, and checks
    /// each lift: the cube is a sub-cube of the state, and every
    /// completion of it under the same inputs violates `ok` (bad cube)
    /// or steps into the target cube (predecessor). Returns the number
    /// of lifts checked.
    fn check_lifts(seq: &Aig, ok: Lit, rng: &mut impl FnMut() -> u64) -> usize {
        let (n_l, n_i) = (seq.n_latches(), seq.n_inputs());
        let mut lifter = Lifter::new(seq);
        let mut lifts = 0;
        for st in 0..1u64 << n_l {
            let state: Vec<bool> = (0..n_l).map(|l| (st >> l) & 1 == 1).collect();
            for iw in 0..1u64 << n_i {
                let input: Vec<bool> = (0..n_i).map(|i| (iw >> i) & 1 == 1).collect();
                let ins: Vec<u64> = input.iter().map(|&b| u64::from(b)).collect();
                let sts: Vec<u64> = state.iter().map(|&b| u64::from(b)).collect();
                let vals = seq.simulate(&ins, &sts);
                let sub_cube = |cube: &[LatchLit]| cube.iter().all(|l| l.eval(&state));
                if Aig::lit_value(&vals, ok.negate()) & 1 == 1 {
                    let cube = lifter.lift(seq, &state, &input, &[ok.negate()]);
                    assert!(sub_cube(&cube), "bad cube {cube:?} ⊄ state {state:?}");
                    let bad = |v: &[u64]| Aig::lit_value(v, ok.negate());
                    assert!(
                        every_completion(seq, &cube, &input, &bad),
                        "a completion of bad cube {cube:?} satisfies ok"
                    );
                    lifts += 1;
                }
                // A random non-empty sub-cube of the successor state.
                let succ: Vec<LatchLit> = seq
                    .latches()
                    .iter()
                    .enumerate()
                    .map(|(n, l)| LatchLit {
                        latch: n as u32,
                        negated: Aig::lit_value(&vals, l.next.unwrap()) & 1 == 0,
                    })
                    .collect();
                let keep = rng() | 1 << (rng() % n_l as u64);
                let target: Vec<LatchLit> = succ
                    .into_iter()
                    .filter(|l| (keep >> l.latch) & 1 == 1)
                    .collect();
                let next_lits: Vec<Lit> = target
                    .iter()
                    .map(|l| {
                        let nx = seq.latch_info(l.latch).next.unwrap();
                        if l.negated {
                            nx.negate()
                        } else {
                            nx
                        }
                    })
                    .collect();
                let pred = lifter.lift(seq, &state, &input, &next_lits);
                assert!(sub_cube(&pred), "predecessor {pred:?} ⊄ state {state:?}");
                let steps_in = |v: &[u64]| {
                    next_lits
                        .iter()
                        .fold(!0u64, |w, &l| w & Aig::lit_value(v, l))
                };
                assert!(
                    every_completion(seq, &pred, &input, &steps_in),
                    "a completion of {pred:?} misses target {target:?}"
                );
                lifts += 1;
            }
        }
        lifts
    }

    #[test]
    fn lifted_cubes_are_sound_on_every_state_and_input() {
        let mut rng = xorshift(0x11f7_ed00_c0be_5001);
        let (g, ok) = counter_to_12();
        assert!(check_lifts(&g, ok, &mut rng) > 32);
        let (g, ok) = saturating();
        assert!(check_lifts(&g, ok, &mut rng) >= 4);
        let mut lifts = 0;
        for _ in 0..240 {
            let (g, ok) = random_aig(&mut rng);
            lifts += check_lifts(&g, ok, &mut rng);
        }
        assert!(lifts > 10_000, "{lifts} lifts checked");
    }

    /// Brute-force reachability: the fewest steps from reset to a state
    /// and input word violating `ok`, if any.
    fn min_bad_depth(seq: &Aig, ok: Lit) -> Option<usize> {
        let (n_l, n_i) = (seq.n_latches(), seq.n_inputs());
        let init: u64 = seq
            .latches()
            .iter()
            .enumerate()
            .fold(0, |s, (n, l)| s | u64::from(l.init) << n);
        let mut seen = vec![false; 1 << n_l];
        seen[init as usize] = true;
        let mut layer = vec![init];
        for depth in 0.. {
            if layer.is_empty() {
                return None;
            }
            let mut next_layer = Vec::new();
            for &st in &layer {
                let sts: Vec<u64> = (0..n_l).map(|l| (st >> l) & 1).collect();
                for iw in 0..1u64 << n_i {
                    let ins: Vec<u64> = (0..n_i).map(|i| (iw >> i) & 1).collect();
                    let vals = seq.simulate(&ins, &sts);
                    if Aig::lit_value(&vals, ok) & 1 == 0 {
                        return Some(depth);
                    }
                    let succ = seq.latches().iter().enumerate().fold(0u64, |s, (n, l)| {
                        s | (Aig::lit_value(&vals, l.next.unwrap()) & 1) << n
                    });
                    if !seen[succ as usize] {
                        seen[succ as usize] = true;
                        next_layer.push(succ);
                    }
                }
            }
            layer = next_layer;
        }
        unreachable!()
    }

    /// PDR agrees with brute-force reachability on random graphs:
    /// counterexamples are minimal and replay, and every invariant
    /// revalidates and holds no clause another of its clauses subsumes.
    #[test]
    fn random_graphs_get_brute_force_verdicts() {
        let mut rng = xorshift(0x9d2c_5680_0bad_f00d);
        let (mut proved, mut falsified, mut retired) = (0, 0, 0);
        for case in 0..240 {
            let (g, ok) = random_aig(&mut rng);
            let seq = Arc::new(g);
            let want = min_bad_depth(&seq, ok);
            let mut pdr = Pdr::new(Arc::clone(&seq), ok, PdrOptions::default());
            let outcome = pdr.run();
            retired += pdr.stats().retired;
            match (outcome, want) {
                (PdrOutcome::Proved { invariant }, None) => {
                    assert!(ProofCert::revalidate_inductive(&seq, ok, &invariant));
                    for (i, c) in invariant.iter().enumerate() {
                        for (j, d) in invariant.iter().enumerate() {
                            assert!(
                                i == j || !d.iter().all(|l| c.contains(l)),
                                "case {case}: {c:?} is subsumed by {d:?}"
                            );
                        }
                    }
                    proved += 1;
                }
                (PdrOutcome::Falsified { inputs }, Some(d)) => {
                    assert_eq!(inputs.len(), d + 1, "case {case}: not minimal");
                    assert!(replays(&seq, ok, &inputs), "case {case}");
                    falsified += 1;
                }
                (got, want) => panic!("case {case}: {got:?}, brute force {want:?}"),
            }
        }
        assert!(
            proved > 20 && falsified > 20,
            "{proved} proved, {falsified} falsified"
        );
        assert!(retired > 10, "{retired} cubes retired");
    }

    #[test]
    fn proves_unreachable_state_with_checkable_invariant() {
        // State 11 of the saturating counter is unreachable (it has no
        // predecessor and is not the reset state), which is exactly the
        // kind of fact PDR discovers.
        let (g, ok) = saturating();
        let seq = Arc::new(g);
        let mut pdr = Pdr::new(Arc::clone(&seq), ok, PdrOptions::default());
        let PdrOutcome::Proved { invariant } = pdr.run() else {
            panic!("expected Proved");
        };
        assert!(ProofCert::revalidate_inductive(&seq, ok, &invariant));
        assert!(pdr.stats().sat_calls > 0);
    }

    #[test]
    fn falsifies_deep_bug_with_replayable_trace() {
        // 4-bit counter: q == 12 is reachable only after 12 enabled
        // cycles — deep enough that BMC-style search must unroll, while
        // PDR walks predecessors.
        let (g, ok) = counter_to_12();
        let seq = Arc::new(g);
        let mut pdr = Pdr::new(Arc::clone(&seq), ok, PdrOptions::default());
        let PdrOutcome::Falsified { inputs } = pdr.run() else {
            panic!("expected Falsified");
        };
        assert_eq!(inputs.len(), 13, "12 increments plus the bad cycle");
        assert!(replays(&seq, ok, &inputs), "trace must replay concretely");
    }

    #[test]
    fn tick_budget_bounds_the_run_with_unknown() {
        // Same deep-bug counter, but with no tick budget: the
        // run must give up soundly (Unknown) instead of claiming a
        // verdict it had no budget to establish.
        let (g, ok) = counter_to_12();
        let mut pdr = Pdr::new(
            Arc::new(g),
            ok,
            PdrOptions {
                max_ticks: 0,
                ..PdrOptions::default()
            },
        );
        assert!(matches!(pdr.run(), PdrOutcome::Unknown));
    }

    #[test]
    fn reset_violation_is_depth_one() {
        let mut g = Aig::new();
        let l = g.add_latch(true);
        g.set_next(l, l);
        let ok = l.negate(); // latch starts high: violated at cycle 0
        let seq = Arc::new(g);
        let mut pdr = Pdr::new(Arc::clone(&seq), ok, PdrOptions::default());
        let PdrOutcome::Falsified { inputs } = pdr.run() else {
            panic!("expected Falsified");
        };
        assert_eq!(inputs.len(), 1);
        assert!(replays(&seq, ok, &inputs));
    }

    #[test]
    fn constant_true_property_proves_with_empty_invariant() {
        let mut g = Aig::new();
        let l = g.add_latch(false);
        let i = g.add_input();
        let n = g.and(l.negate(), i);
        g.set_next(l, n);
        let seq = Arc::new(g);
        let mut pdr = Pdr::new(Arc::clone(&seq), Lit::TRUE, PdrOptions::default());
        let PdrOutcome::Proved { invariant } = pdr.run() else {
            panic!("expected Proved");
        };
        assert!(ProofCert::revalidate_inductive(&seq, Lit::TRUE, &invariant));
    }
}

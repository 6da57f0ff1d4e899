//! Symbolic bounded model checking, k-induction, and IC3/PDR over
//! bit-blasted netlists.
//!
//! Where [`crate::bmc()`] enumerates concrete simulator states — and
//! therefore can never return "holds for all time" — this module reasons
//! about *all* inputs at once: the flattened [`Module`] is bit-blasted
//! into an [`AigCircuit`], run through the AIG optimize pipeline
//! (DAG-aware rewriting, SAT-sweeping/fraiging, cone-of-influence and
//! constant sweeping — see [`anvil_smt::optimize`]), and the shrunken
//! latch transition relation is handed to the proof engines.
//!
//! [`prove`] interleaves two incremental solver sessions per depth `k`:
//!
//! * **base case** — can the assertion fail `k` cycles after reset? A
//!   `Sat` answer yields a concrete input trace, reconstructed in the
//!   exact format [`crate::bmc()`] emits (one `Vec<u64>` of input-port
//!   values per cycle) and *confirmed by replaying it on the simulator*
//!   before it is returned as [`ProveResult::Falsified`].
//! * **induction step** — from an arbitrary (not necessarily reachable)
//!   state, do `k + 1` consecutive assertion-satisfying cycles force the
//!   assertion in the next cycle? An `Unsat` answer here, combined with
//!   the accumulated base cases, proves the property for **all time**:
//!   [`ProveResult::Proved`].
//!
//! [`prove_pdr`] runs the IC3/PDR engine ([`anvil_smt::Pdr`]) on the same
//! optimized graph: it maintains frames of blocking clauses over latch
//! literals and either converges on an inductive invariant (returned as a
//! checkable certificate by [`prove_portfolio`]) or traces a proof
//! obligation back to reset, yielding a minimal-depth counterexample that
//! is replay-confirmed like every other trace.
//!
//! If no engine concludes within its budget, the result is
//! [`ProveResult::Unknown`] with the depth that *was* fully checked —
//! exactly the bounded guarantee the explicit-state checker gives, which
//! is the comparison the paper's Appendix A draws.
//!
//! [`prove_portfolio`] races symbolic BMC + k-induction against PDR on
//! one blasted circuit. The engines share only a stop flag, so each runs
//! exactly its standalone search until the first conclusive verdict
//! stops the other, and the winner's evidence is packaged as a
//! [`ProofCert`] that [`revalidate_certificate`] can check later in a
//! single incremental SAT session (the proof-cache warm path). The
//! explicit-state [`crate::bmc()`]
//! is not part of the portfolio: within PDR's frame budget PDR finds
//! every violation at its minimal depth over all inputs, not only the
//! corner samples the explicit search enumerates. It stays as the
//! Appendix A reproduction and as the reference
//! `tests/prove_differential.rs` checks the portfolio against.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use anvil_rtl::{Bits, BlastError, Expr, Module, SignalId, SignalKind};
use anvil_sim::{Backend, Sim, SimError};
use anvil_smt::{
    optimize, rewrite, Aig, AigCircuit, CertKind, CnfEncoder, Control, Deadline, LatchLit, Lit,
    Node, Pdr, PdrOptions, PdrOutcome, PdrStats, ProofCert, Rewritten, SolveResult, Solver,
    Unroller,
};

/// Outcome of a symbolic verification run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProveResult {
    /// The assertion holds in every reachable state, for all time.
    /// For the interleaved engine `k` is the induction window that closed
    /// the proof (the property is inductive over windows of `k` cycles,
    /// and the first `k` cycles from reset are violation-free); for PDR
    /// it is the frame level at which the reachability over-approximation
    /// converged. `k = 0` means the assertion folded to a combinational
    /// constant truth during blasting or optimization, or the proof came
    /// from revalidating a cached certificate — no search was needed.
    Proved {
        /// The induction window / converged frame (0 = no search needed).
        k: usize,
    },
    /// The assertion is violated `depth` cycles after reset; `trace` is
    /// the per-cycle input-port assignment reproducing it — the same
    /// replayable format [`crate::bmc()`] emits, confirmed on the
    /// simulator before being returned.
    Falsified {
        /// Number of cycles in the counterexample (violation fires in
        /// the last one).
        depth: usize,
        /// Input values per cycle, in input-port declaration order.
        trace: Vec<Vec<u64>>,
    },
    /// Neither a proof nor a counterexample within the depth budget;
    /// the assertion is violation-free for at least `depth` cycles from
    /// reset.
    Unknown {
        /// Cycles fully checked from reset.
        depth: usize,
    },
}

/// Work counters for one symbolic run (all solver sessions combined).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProveStats {
    /// Frames unrolled (base-case session) or PDR frame levels opened.
    pub frames: usize,
    /// Nodes in the sequential AIG as blasted, before optimization.
    pub aig_nodes: usize,
    /// Nodes after the rewrite → fraig → sweep pipeline.
    pub aig_nodes_after: usize,
    /// Latches in the optimized cone (post cone-of-influence sweep).
    pub latches: usize,
    /// SAT variables allocated across the engine's sessions.
    pub vars: usize,
    /// Problem clauses added across the engine's sessions.
    pub clauses: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Branching decisions.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Clauses learned.
    pub learned: u64,
    /// Wall-clock microseconds this engine ran (per-engine timing for
    /// deadline tuning; the portfolio reports each side's own number).
    pub wall_micros: u64,
}

/// Failures while preparing or running a symbolic proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProveError {
    /// Bit-blasting rejected the module (instances, combinational loops,
    /// width errors) or the assertion (width errors).
    Blast(BlastError),
    /// A counterexample drives an input wider than 64 bits to a value a
    /// `u64` trace cannot carry.
    WideCounterexample {
        /// The input port needing more than 64 bits.
        input: String,
    },
    /// Replaying a SAT counterexample on the simulator did not reproduce
    /// the violation at the expected cycle (this indicates a bug in the
    /// blasting or solving pipeline and is asserted away in tests).
    UnconfirmedCounterexample {
        /// The depth the solver claimed.
        depth: usize,
    },
    /// The simulator rejected the module during counterexample replay.
    Sim(SimError),
}

impl std::fmt::Display for ProveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProveError::Blast(e) => write!(f, "bit-blasting failed: {e}"),
            ProveError::WideCounterexample { input } => write!(
                f,
                "counterexample drives input `{input}` past the 64-bit trace format"
            ),
            ProveError::UnconfirmedCounterexample { depth } => write!(
                f,
                "counterexample at depth {depth} did not replay to a concrete violation"
            ),
            ProveError::Sim(e) => write!(f, "simulation failed during replay: {e}"),
        }
    }
}

impl std::error::Error for ProveError {}

impl From<BlastError> for ProveError {
    fn from(e: BlastError) -> Self {
        ProveError::Blast(e)
    }
}

impl From<SimError> for ProveError {
    fn from(e: SimError) -> Self {
        ProveError::Sim(e)
    }
}

/// Input ports `(name, width)` in declaration order — the column order of
/// every counterexample trace (shared with [`crate::bmc()`]).
pub fn trace_inputs(module: &Module) -> Vec<(String, usize)> {
    module
        .iter_signals()
        .filter(|(_, s)| s.kind == SignalKind::Input)
        .map(|(_, s)| (s.name.clone(), s.width))
        .collect()
}

/// Proves or refutes `assertion` (truthy = holds, the same convention as
/// [`crate::bmc()`]) on a flattened module by interleaved symbolic BMC and
/// k-induction up to window `max_k`.
///
/// # Errors
///
/// See [`ProveError`].
pub fn prove(
    module: &Module,
    assertion: &Expr,
    max_k: usize,
) -> Result<(ProveResult, ProveStats), ProveError> {
    let circuit = AigCircuit::from_module(module)?;
    prove_with_circuit(&circuit, assertion, max_k)
}

/// Symbolic bounded model checking only (no induction): search for a
/// counterexample within `depth` cycles of reset. Returns
/// [`ProveResult::Falsified`] at the minimal violating depth,
/// [`ProveResult::Proved`] (with `k = 0`) only when the assertion folds
/// to a constant truth during blasting or optimization, and
/// [`ProveResult::Unknown`] otherwise. `depth = 0` checks nothing and
/// returns `Unknown { depth: 0 }` (unless the assertion is constant).
///
/// # Errors
///
/// See [`ProveError`].
pub fn prove_bounded(
    module: &Module,
    assertion: &Expr,
    depth: usize,
) -> Result<(ProveResult, ProveStats), ProveError> {
    let circuit = AigCircuit::from_module(module)?;
    let prep = Arc::new(Prepared::new(&circuit, assertion)?);
    Engine::new(prep, None, Deadline::none()).run(depth, false)
}

/// [`prove`] over a pre-built (possibly session-cached) [`AigCircuit`].
/// [`prove_portfolio`] is the entry point a [`Control`] can stop.
///
/// # Errors
///
/// See [`ProveError`].
pub fn prove_with_circuit(
    circuit: &AigCircuit,
    assertion: &Expr,
    max_k: usize,
) -> Result<(ProveResult, ProveStats), ProveError> {
    let prep = Arc::new(Prepared::new(circuit, assertion)?);
    Engine::new(prep, None, Deadline::none()).run(max_k + 1, true)
}

/// Proves or refutes `assertion` with the IC3/PDR engine alone, exploring
/// at most `max_frames` frame levels. Proofs come from a converged
/// inductive invariant; counterexamples are minimal-depth and confirmed
/// by simulator replay like every other trace.
///
/// # Errors
///
/// See [`ProveError`].
pub fn prove_pdr(
    module: &Module,
    assertion: &Expr,
    max_frames: usize,
) -> Result<(ProveResult, ProveStats), ProveError> {
    let circuit = AigCircuit::from_module(module)?;
    let prep = Prepared::new(&circuit, assertion)?;
    run_pdr_inner(&prep, max_frames, None, Deadline::none()).map(|run| (run.result, run.stats))
}

/// A circuit readied for proving: the assertion blasted into a clone of
/// the design and the combined graph run through the optimize pipeline
/// (rewrite → fraig → sweep), with enough mapping information kept to
/// translate counterexamples and invariants back to the original design.
struct Prepared {
    /// The original circuit with the assertion blasted in (trace replay
    /// and certificate revalidation run against this).
    circuit: Arc<AigCircuit>,
    assertion: Expr,
    /// The optimized sequential graph all SAT engines unroll.
    seq: Arc<Aig>,
    /// The assertion root in the optimized graph.
    ok: Lit,
    /// Input ports `(signal, bits)` with bit literals already mapped into
    /// the optimized graph (input numbering is preserved 1:1 by the
    /// pipeline, node indices are not).
    input_ports: Vec<(usize, Vec<Lit>)>,
    /// Optimized latch index → original latch index.
    latch_origin: Vec<u32>,
}

impl Prepared {
    fn new(circuit: &AigCircuit, assertion: &Expr) -> Result<Prepared, ProveError> {
        let _sp = anvil_trace::span("prove", "prepare");
        let mut circuit = circuit.clone();
        let ok0 = circuit.blast_assertion(assertion)?;
        let (rw, _opt) = optimize(circuit.aig(), &[ok0], false);
        let ok = rw
            .map_lit(ok0)
            .expect("property root survives optimization");
        let input_ports = circuit
            .input_bits()
            .iter()
            .map(|(sig, bits)| {
                let mapped = bits
                    .iter()
                    .map(|b| rw.map_lit(*b).expect("inputs survive optimization 1:1"))
                    .collect();
                (*sig, mapped)
            })
            .collect();
        let Rewritten {
            aig, latch_origin, ..
        } = rw;
        Ok(Prepared {
            circuit: Arc::new(circuit),
            assertion: assertion.clone(),
            seq: Arc::new(aig),
            ok,
            input_ports,
            latch_origin,
        })
    }

    /// Maps invariant clauses from optimized latch indices back to the
    /// original design's latch space (for certificates that must check
    /// against the unoptimized graph).
    fn to_original_latches(&self, clauses: &[Vec<LatchLit>]) -> Vec<Vec<LatchLit>> {
        clauses
            .iter()
            .map(|c| {
                c.iter()
                    .map(|l| LatchLit {
                        latch: self.latch_origin[l.latch as usize],
                        negated: l.negated,
                    })
                    .collect()
            })
            .collect()
    }

    /// Converts PDR's per-cycle input-bit assignments (indexed by
    /// sequential input number) into the port-level `u64` trace format.
    fn trace_from_input_bits(&self, inputs: &[Vec<bool>]) -> Result<Vec<Vec<u64>>, ProveError> {
        let module = self.circuit.module();
        let mut trace = Vec::with_capacity(inputs.len());
        for cycle in inputs {
            let mut step = Vec::new();
            for (sig, bits) in &self.input_ports {
                let name = &module.signal(SignalId(*sig)).name;
                let mut v = 0u64;
                for (i, bit) in bits.iter().enumerate() {
                    let set = match self.seq.node(bit.node()) {
                        Node::Input(n) => {
                            cycle.get(n as usize).copied().unwrap_or(false) ^ bit.is_negated()
                        }
                        _ => false,
                    };
                    if set {
                        if i >= 64 {
                            return Err(ProveError::WideCounterexample {
                                input: name.clone(),
                            });
                        }
                        v |= 1 << i;
                    }
                }
                step.push(v);
            }
            trace.push(step);
        }
        Ok(trace)
    }
}

/// The interleaved BMC + induction engine over one prepared circuit.
struct Engine {
    prep: Arc<Prepared>,
    ok: Lit,
    base: Session,
    step: Session,
    stop: Option<Arc<AtomicBool>>,
    deadline: Deadline,
    started: std::time::Instant,
}

/// One unroller + encoder + solver triple.
struct Session {
    unroller: Unroller,
    encoder: CnfEncoder,
    solver: Solver,
}

impl Session {
    fn new(
        seq: Arc<Aig>,
        free_init: bool,
        stop: Option<Arc<AtomicBool>>,
        deadline: Deadline,
    ) -> Session {
        let mut solver = Solver::new();
        if let Some(stop) = stop {
            solver.set_stop(stop);
        }
        solver.set_deadline(deadline);
        Session {
            unroller: Unroller::new(seq, free_init),
            encoder: CnfEncoder::new(),
            solver,
        }
    }

    /// Solves for "this literal is true in this frame".
    fn solve_lit(&mut self, frame: usize, lit: Lit) -> SolveResult {
        let comb_lit = self.unroller.lit_at(frame, lit);
        if comb_lit == Lit::FALSE {
            return SolveResult::Unsat;
        }
        if comb_lit == Lit::TRUE {
            return SolveResult::Sat;
        }
        let slit = self
            .encoder
            .encode(self.unroller.comb(), &mut self.solver, comb_lit);
        self.solver.solve(&[slit])
    }

    /// Adds "this literal holds in this frame" as a persistent fact.
    fn assert_lit(&mut self, frame: usize, lit: Lit) {
        let comb_lit = self.unroller.lit_at(frame, lit);
        if comb_lit == Lit::TRUE {
            return;
        }
        let slit = self
            .encoder
            .encode(self.unroller.comb(), &mut self.solver, comb_lit);
        self.solver.add_clause(&[slit]);
    }
}

impl Engine {
    fn new(prep: Arc<Prepared>, stop: Option<Arc<AtomicBool>>, deadline: Deadline) -> Engine {
        let base = Session::new(Arc::clone(&prep.seq), false, stop.clone(), deadline);
        let step = Session::new(Arc::clone(&prep.seq), true, stop.clone(), deadline);
        Engine {
            ok: prep.ok,
            prep,
            base,
            step,
            stop,
            deadline,
            started: std::time::Instant::now(),
        }
    }

    fn stopped(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
            || self.deadline.expired()
    }

    fn stats(&self) -> ProveStats {
        let b = self.base.solver.stats();
        let s = self.step.solver.stats();
        ProveStats {
            frames: self.base.unroller.frames(),
            aig_nodes: self.prep.circuit.aig().len(),
            aig_nodes_after: self.prep.seq.len(),
            latches: self.prep.seq.n_latches(),
            vars: self.base.solver.n_vars() + self.step.solver.n_vars(),
            clauses: b.clauses + s.clauses,
            conflicts: b.conflicts + s.conflicts,
            decisions: b.decisions + s.decisions,
            propagations: b.propagations + s.propagations,
            learned: b.learned + s.learned,
            wall_micros: self.started.elapsed().as_micros() as u64,
        }
    }

    /// Runs interleaved base/step checks for `k in 0..frames` (`frames`
    /// base frames from reset; with `induction`, one step check per
    /// frame).
    fn run(
        mut self,
        frames: usize,
        induction: bool,
    ) -> Result<(ProveResult, ProveStats), ProveError> {
        // A constant-true assertion (combinationally, or proved so by the
        // optimize pipeline) needs no unrolling at all — both the bounded
        // and the inductive mode conclude immediately (`k = 0`: true in
        // every state, reachable or not).
        if self.ok == Lit::TRUE {
            return Ok((ProveResult::Proved { k: 0 }, self.stats()));
        }
        let bad = self.ok.negate();
        // The induction window starts with its frame 0 already unrolled.
        if induction {
            self.step.unroller.push_frame();
        }
        for k in 0..frames {
            if self.stopped() {
                return Ok((ProveResult::Unknown { depth: k }, self.stats()));
            }

            // ---- Base case: violation k cycles after reset? ----
            self.base.unroller.push_frame();
            match self.base.solve_lit(k, bad) {
                SolveResult::Sat => {
                    let trace = self.extract_trace(k + 1)?;
                    self.confirm(&trace, k)?;
                    return Ok((
                        ProveResult::Falsified {
                            depth: k + 1,
                            trace,
                        },
                        self.stats(),
                    ));
                }
                SolveResult::Interrupted => {
                    return Ok((ProveResult::Unknown { depth: k }, self.stats()))
                }
                SolveResult::Unsat => {
                    // The assertion provably holds at frame k; keep that
                    // as a fact for deeper queries.
                    self.base.assert_lit(k, self.ok);
                }
            }

            // ---- Induction step: k+1 good cycles force a good next
            // cycle? ----
            if induction {
                self.step.unroller.push_frame();
                self.step.assert_lit(k, self.ok);
                match self.step.solve_lit(k + 1, bad) {
                    SolveResult::Unsat => {
                        return Ok((ProveResult::Proved { k: k + 1 }, self.stats()));
                    }
                    SolveResult::Interrupted => {
                        return Ok((ProveResult::Unknown { depth: k + 1 }, self.stats()))
                    }
                    SolveResult::Sat => {}
                }
            }
        }
        Ok((ProveResult::Unknown { depth: frames }, self.stats()))
    }

    /// Reads the base-case model back into the explicit-state trace
    /// format: one `Vec<u64>` of input-port values per cycle.
    fn extract_trace(&self, frames: usize) -> Result<Vec<Vec<u64>>, ProveError> {
        let module = self.prep.circuit.module();
        let mut trace = Vec::with_capacity(frames);
        for f in 0..frames {
            let mut step = Vec::new();
            for (sig, bits) in &self.prep.input_ports {
                let name = &module.signal(SignalId(*sig)).name;
                let mut v = 0u64;
                for (i, bit) in bits.iter().enumerate() {
                    let comb = self.base.unroller.lit_at(f, *bit);
                    let set = self.base.encoder.model_value(&self.base.solver, comb);
                    if set {
                        if i >= 64 {
                            return Err(ProveError::WideCounterexample {
                                input: name.clone(),
                            });
                        }
                        v |= 1 << i;
                    }
                }
                step.push(v);
            }
            trace.push(step);
        }
        Ok(trace)
    }

    /// Replays the trace on the compiled simulator backend and checks the
    /// violation fires at exactly the claimed cycle.
    fn confirm(&self, trace: &[Vec<u64>], expect_cycle: usize) -> Result<(), ProveError> {
        let violated = replay_trace(
            self.prep.circuit.module(),
            &self.prep.assertion,
            trace,
            Backend::Compiled,
        );
        match violated {
            Ok(Some(cycle)) if cycle == expect_cycle => Ok(()),
            Ok(_) => Err(ProveError::UnconfirmedCounterexample {
                depth: expect_cycle + 1,
            }),
            Err(e) => Err(ProveError::Sim(e)),
        }
    }
}

/// An inductive invariant as clauses over original-design latch space.
type Invariant = Vec<Vec<LatchLit>>;

/// One PDR run on a prepared circuit.
struct PdrRun {
    result: ProveResult,
    stats: ProveStats,
    /// PDR's own counters (SAT calls, obligations, solver ticks).
    pdr: PdrStats,
    /// On a proof, the inductive invariant already mapped back to the
    /// original design's latch space.
    invariant: Option<Invariant>,
}

/// Runs PDR on a prepared circuit.
fn run_pdr_inner(
    prep: &Prepared,
    max_frames: usize,
    stop: Option<Arc<AtomicBool>>,
    deadline: Deadline,
) -> Result<PdrRun, ProveError> {
    let started = std::time::Instant::now();
    let base_stats = ProveStats {
        aig_nodes: prep.circuit.aig().len(),
        aig_nodes_after: prep.seq.len(),
        latches: prep.seq.n_latches(),
        ..ProveStats::default()
    };
    if prep.ok == Lit::TRUE {
        return Ok(PdrRun {
            result: ProveResult::Proved { k: 0 },
            stats: base_stats,
            pdr: PdrStats::default(),
            invariant: Some(Vec::new()),
        });
    }
    let mut pdr = Pdr::new(
        Arc::clone(&prep.seq),
        prep.ok,
        PdrOptions {
            max_frames,
            stop,
            deadline,
            ..PdrOptions::default()
        },
    );
    let outcome = pdr.run();
    let ps = pdr.stats();
    let stats = ProveStats {
        frames: ps.frames,
        vars: ps.vars,
        clauses: ps.solver.clauses,
        conflicts: ps.solver.conflicts,
        decisions: ps.solver.decisions,
        propagations: ps.solver.propagations,
        learned: ps.solver.learned,
        wall_micros: started.elapsed().as_micros() as u64,
        ..base_stats
    };
    let run = |result, invariant| PdrRun {
        result,
        stats,
        pdr: ps,
        invariant,
    };
    match outcome {
        PdrOutcome::Proved { invariant } => {
            let orig = prep.to_original_latches(&invariant);
            Ok(run(ProveResult::Proved { k: ps.frames }, Some(orig)))
        }
        PdrOutcome::Falsified { inputs } => {
            let trace = prep.trace_from_input_bits(&inputs)?;
            let depth = trace.len();
            match replay_trace(
                prep.circuit.module(),
                &prep.assertion,
                &trace,
                Backend::Compiled,
            ) {
                Ok(Some(c)) if c + 1 == depth => {}
                Ok(_) => return Err(ProveError::UnconfirmedCounterexample { depth }),
                Err(e) => return Err(ProveError::Sim(e)),
            }
            Ok(run(ProveResult::Falsified { depth, trace }, None))
        }
        // `frames = n` means every level below n answered its bad-state
        // query Unsat, i.e. no violation within n cycles of reset.
        PdrOutcome::Unknown => Ok(run(ProveResult::Unknown { depth: ps.frames }, None)),
    }
}

/// Checks a cached [`ProofCert`] against the *current* circuit and
/// assertion, returning the re-established verdict or `None` when the
/// certificate no longer holds (the caller then falls back to a cold
/// prove).
///
/// The whole point of certificates is that this is cheap:
///
/// * [`CertKind::Inductive`] — one incremental SAT session with one
///   query for the property and one per invariant clause
///   ([`ProofCert::revalidate_inductive`]); no invariant search, no
///   optimization pipeline. Returns `Proved { k: 0 }`.
/// * [`CertKind::KInduction`] — the cone is shrunk by rule rewriting
///   and constant sweeping (near-linear, unlike SAT on a wide raw
///   cone; fraiging is skipped as too expensive for a warm path), then
///   two SAT calls at exactly the stored `k`: one refuting any
///   violation within the first `k` frames, one for the induction
///   step. No search over depths, no fraig, no invariant mining.
/// * [`CertKind::Falsified`] — replays the stored trace on the compiled
///   simulator; any concrete violation confirms it.
///
/// # Errors
///
/// See [`ProveError`] (blasting and replay failures propagate; a
/// certificate that merely fails its check is `Ok(None)`).
pub fn revalidate_certificate(
    circuit: &AigCircuit,
    assertion: &Expr,
    cert: &ProofCert,
) -> Result<Option<ProveResult>, ProveError> {
    let _sp = anvil_trace::span("prove", "revalidate");
    match &cert.kind {
        CertKind::Inductive { clauses } => {
            let mut c = circuit.clone();
            let ok = c.blast_assertion(assertion)?;
            if ok == Lit::TRUE {
                return Ok(Some(ProveResult::Proved { k: 0 }));
            }
            if ProofCert::revalidate_inductive(&c.aig_arc(), ok, clauses) {
                Ok(Some(ProveResult::Proved { k: 0 }))
            } else {
                Ok(None)
            }
        }
        CertKind::KInduction { k } => {
            let k = (*k).max(1);
            let mut c = circuit.clone();
            let ok0 = c.blast_assertion(assertion)?;
            if ok0 == Lit::TRUE {
                return Ok(Some(ProveResult::Proved { k: 0 }));
            }
            // Rule rewriting + constant sweeping is near-linear in cone
            // size while SAT on a wide unoptimized cone is not (AES: 75k
            // raw nodes vs ~300 rewritten). Fraiging is deliberately
            // skipped: its SAT-based equivalence checks cost more than
            // the two fixed-k queries save on datapath-heavy cones.
            let (rw, _) = rewrite(c.aig(), &[ok0], false, true);
            let ok = rw
                .map_lit(ok0)
                .expect("property root survives optimization");
            if ok == Lit::TRUE {
                return Ok(Some(ProveResult::Proved { k: 0 }));
            }
            if ok == Lit::FALSE {
                return Ok(None); // structurally violated: stale
            }
            let seq = Arc::new(rw.aig);

            // Base: no reachable violation within frames 0..k — a single
            // query on the disjunction of the per-frame bad literals.
            let mut base = Session::new(Arc::clone(&seq), false, None, Deadline::none());
            let mut bad = Vec::new();
            for frame in 0..k {
                while base.unroller.frames() <= frame {
                    base.unroller.push_frame();
                }
                let comb = base.unroller.lit_at(frame, ok.negate());
                if comb == Lit::TRUE {
                    return Ok(None); // structurally violated: stale
                }
                if comb == Lit::FALSE {
                    continue;
                }
                bad.push(
                    base.encoder
                        .encode(base.unroller.comb(), &mut base.solver, comb),
                );
            }
            if !bad.is_empty() {
                base.solver.add_clause(&bad);
                match base.solver.solve(&[]) {
                    SolveResult::Unsat => {}
                    SolveResult::Sat | SolveResult::Interrupted => return Ok(None),
                }
            }

            // Step: ok over k consecutive frames (arbitrary start state)
            // forces ok in the next — one more query.
            let mut step = Session::new(seq, true, None, Deadline::none());
            for frame in 0..k {
                while step.unroller.frames() <= frame {
                    step.unroller.push_frame();
                }
                step.assert_lit(frame, ok);
            }
            while step.unroller.frames() <= k {
                step.unroller.push_frame();
            }
            match step.solve_lit(k, ok.negate()) {
                SolveResult::Unsat => Ok(Some(ProveResult::Proved { k })),
                SolveResult::Sat | SolveResult::Interrupted => Ok(None),
            }
        }
        CertKind::Falsified { trace, .. } => {
            match replay_trace(circuit.module(), assertion, trace, Backend::Compiled)? {
                Some(cycle) => Ok(Some(ProveResult::Falsified {
                    depth: cycle + 1,
                    trace: trace[..=cycle].to_vec(),
                })),
                None => Ok(None),
            }
        }
    }
}

/// Replays a counterexample trace (input-port values per cycle, in
/// declaration order) on the given backend and returns the first cycle —
/// counted from zero — whose settled state violates the assertion, if
/// any.
///
/// # Errors
///
/// Propagates simulator preparation and poke errors.
pub fn replay_trace(
    module: &Module,
    assertion: &Expr,
    trace: &[Vec<u64>],
    backend: Backend,
) -> Result<Option<usize>, SimError> {
    let inputs = trace_inputs(module);
    let mut sim = Sim::with_backend(module, backend)?;
    for (cycle, step) in trace.iter().enumerate() {
        for ((name, width), v) in inputs.iter().zip(step) {
            sim.poke(name, Bits::from_u64(*v, *width))?;
        }
        if sim.eval(assertion).is_zero() {
            return Ok(Some(cycle));
        }
        sim.step()?;
    }
    Ok(None)
}

/// Renders a counterexample trace as a stable cycle-by-cycle table: the
/// violated assertion (in SystemVerilog syntax), each cycle's input-port
/// values, the assertion's settled value, and a marker on the violating
/// cycle. The text depends only on the module, assertion, and trace, so
/// it can be pinned by golden tests.
///
/// # Errors
///
/// Propagates simulator preparation errors from the replay.
pub fn render_trace(
    module: &Module,
    assertion: &Expr,
    trace: &[Vec<u64>],
) -> Result<String, SimError> {
    use std::fmt::Write as _;
    let inputs = trace_inputs(module);
    let mut sim = Sim::with_backend(module, Backend::Compiled)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "counterexample: `{}` violates `{}` (depth {})",
        module.name,
        anvil_rtl::sv_expr(module, assertion),
        trace.len()
    );
    let _ = writeln!(out, "  inputs: {}", {
        let names: Vec<&str> = inputs.iter().map(|(n, _)| n.as_str()).collect();
        if names.is_empty() {
            "(none)".to_string()
        } else {
            names.join(", ")
        }
    });
    for (cycle, step) in trace.iter().enumerate() {
        for ((name, width), v) in inputs.iter().zip(step) {
            sim.poke(name, Bits::from_u64(*v, *width))?;
        }
        let ok = sim.eval(assertion);
        let vals: Vec<String> = step.iter().map(|v| format!("{v:#x}")).collect();
        let _ = writeln!(
            out,
            "  cycle {cycle:>3} | {} | assert={}{}",
            if vals.is_empty() {
                "-".to_string()
            } else {
                vals.join(" ")
            },
            if ok.is_zero() { 0 } else { 1 },
            if ok.is_zero() { "  <-- violation" } else { "" }
        );
        if ok.is_zero() {
            break;
        }
        sim.step()?;
    }
    Ok(out)
}

/// Which engine of a [`prove_portfolio`] run produced the verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Prover {
    /// The symbolic BMC + k-induction engine.
    Symbolic,
    /// The IC3/PDR engine.
    Pdr,
}

/// Outcome of a portfolio run racing the symbolic and PDR engines.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The combined verdict (symbolic verdicts win ties).
    pub result: ProveResult,
    /// The engine that produced [`PortfolioOutcome::result`], when it is
    /// conclusive.
    pub winner: Option<Prover>,
    /// Statistics of the symbolic (BMC + k-induction) side.
    pub symbolic_stats: ProveStats,
    /// Statistics of the PDR side.
    pub pdr_stats: ProveStats,
    /// The winner's evidence, checkable later by
    /// [`revalidate_certificate`] (proof caching); `None` when no engine
    /// concluded or the winner left no certificate.
    pub certificate: Option<ProofCert>,
}

/// PDR's frame budget in a [`prove_portfolio`] run with window `max_k`.
/// PDR hunts counterexamples level by level, so it checks at least one
/// cycle past the symbolic engine's `max_k + 1`, and never fewer than 10
/// cycles from reset.
fn pdr_frame_budget(max_k: usize) -> usize {
    max_k.max(8).saturating_add(2).min(256)
}

fn conclusive(r: &ProveResult) -> bool {
    matches!(
        r,
        ProveResult::Proved { .. } | ProveResult::Falsified { .. }
    )
}

/// Closes one portfolio engine's run: a conclusive verdict or an error
/// raises the shared stop flag so the other engine winds down, and the
/// engine span records the engine's own outcome and solver counters
/// (for PDR also its SAT calls, obligations and solver ticks).
fn finish_engine(
    sp: &mut anvil_trace::SpanGuard,
    outcome: Result<(&ProveResult, &ProveStats), &ProveError>,
    pdr: Option<&PdrStats>,
    stop: &AtomicBool,
    deadline: Deadline,
) {
    let (result, stats) = match outcome {
        Ok(done) => done,
        Err(e) => {
            stop.store(true, Ordering::Relaxed);
            sp.set_detail_with(|| format!("error: {e}"));
            return;
        }
    };
    if conclusive(result) {
        stop.store(true, Ordering::Relaxed);
    }
    let stopped = stop.load(Ordering::Relaxed) || deadline.expired();
    sp.set_detail_with(|| {
        let verdict = match result {
            ProveResult::Proved { k } => format!("proved k={k}"),
            ProveResult::Falsified { depth, .. } => format!("falsified d={depth}"),
            ProveResult::Unknown { .. } if stopped => "stopped".to_string(),
            ProveResult::Unknown { depth } => format!("unknown d={depth}"),
        };
        let mut detail = format!(
            "{verdict} conflicts={} decisions={} propagations={}",
            stats.conflicts, stats.decisions, stats.propagations
        );
        if let Some(p) = pdr {
            detail += &format!(
                " sat_calls={} obligations={} ticks={}",
                p.sat_calls, p.obligations, p.solver.ticks
            );
        }
        detail
    });
}

/// Runs the symbolic engine (BMC + k-induction up to window `max_k`) on
/// the calling thread and the IC3/PDR engine on one scoped thread, racing
/// on one blasted circuit (the caller's, so a caller that already holds
/// it, such as a cached `compile_flat_aig` result, blasts nothing). PDR
/// explores up to `max_k.max(8) + 2` frame levels (at most 256), so it
/// finds counterexamples past the symbolic engine's `max_k + 1` frames.
///
/// The engines share only a stop flag: the first conclusive verdict
/// cancels the other engine. Each otherwise runs exactly its standalone
/// search ([`prove`] at the same `max_k`, [`prove_pdr`] with the same
/// frame budget), so the winner's counters equal that run's.
///
/// A conclusive verdict is a proof or a confirmed counterexample. When
/// both engines conclude, the symbolic verdict is preferred (the
/// combined result stays deterministic); both sides' counters are
/// returned either way, and the winner's evidence is packaged as a
/// [`ProofCert`] for proof caching. Each engine's `prove.symbolic` /
/// `prove.pdr` span carries its own outcome (`proved k=…`,
/// `falsified d=…`, `unknown d=…` or `stopped`) and its conflict,
/// decision and propagation counts; the PDR span adds its SAT calls,
/// proof obligations and solver ticks.
///
/// `control.stop` is an *external* cancellation flag (e.g. a service
/// request's): raising it makes both engines wind down to `Unknown`. The
/// portfolio also raises it internally when an engine concludes, so after
/// a conclusive result the flag being set does not mean cancellation.
///
/// `control.deadline` is a wall-clock bound polled in every engine loop
/// (and inside the SAT solver): past it, each side winds down to
/// `Unknown` with whatever violation-free prefix it established, so the
/// caller gets partial progress instead of a hang. [`Control::none`]
/// disables both.
///
/// # Errors
///
/// See [`ProveError`].
pub fn prove_portfolio(
    circuit: &AigCircuit,
    assertion: &Expr,
    max_k: usize,
    control: &Control,
) -> Result<PortfolioOutcome, ProveError> {
    let stop = control
        .stop
        .clone()
        .unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
    let deadline = control.deadline;
    let _sp_portfolio = anvil_trace::span("prove", "portfolio");
    // The PDR span stitches under the portfolio span by explicit id: the
    // thread-local parent stack does not cross the spawn boundary.
    let portfolio_span = anvil_trace::current_span();
    let prep = Arc::new(Prepared::new(circuit, assertion)?);
    let (symbolic, pdr) = std::thread::scope(|s| {
        let pdr = s.spawn(|| {
            let mut sp = anvil_trace::span_under("prove", "pdr", portfolio_span);
            let r = run_pdr_inner(
                &prep,
                pdr_frame_budget(max_k),
                Some(Arc::clone(&stop)),
                deadline,
            );
            finish_engine(
                &mut sp,
                r.as_ref().map(|run| (&run.result, &run.stats)),
                r.as_ref().ok().map(|run| &run.pdr),
                &stop,
                deadline,
            );
            r
        });
        let mut sp = anvil_trace::span("prove", "symbolic");
        let engine = Engine::new(Arc::clone(&prep), Some(Arc::clone(&stop)), deadline);
        let symbolic = engine.run(max_k + 1, true);
        finish_engine(
            &mut sp,
            symbolic.as_ref().map(|(r, s)| (r, s)),
            None,
            &stop,
            deadline,
        );
        drop(sp);
        let pdr = pdr
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (symbolic, pdr)
    });
    let (sym_result, symbolic_stats) = symbolic?;
    let PdrRun {
        result: pdr_result,
        stats: pdr_stats,
        invariant,
        ..
    } = pdr?;

    let (result, winner) = if conclusive(&sym_result) {
        (sym_result, Some(Prover::Symbolic))
    } else if conclusive(&pdr_result) {
        (pdr_result, Some(Prover::Pdr))
    } else {
        // Both engines report a sound violation-free prefix; keep the
        // deeper one.
        let checked = |r: &ProveResult| match r {
            ProveResult::Unknown { depth } => *depth,
            _ => 0,
        };
        let depth = checked(&sym_result).max(checked(&pdr_result));
        (ProveResult::Unknown { depth }, None)
    };

    let certificate = match (&result, winner) {
        (ProveResult::Proved { k }, Some(Prover::Symbolic)) => Some(ProofCert {
            kind: CertKind::KInduction { k: *k },
            engine: "k-induction",
        }),
        (ProveResult::Proved { .. }, Some(Prover::Pdr)) => invariant.map(|clauses| ProofCert {
            kind: CertKind::Inductive { clauses },
            engine: "pdr",
        }),
        (ProveResult::Falsified { depth, trace }, Some(w)) => Some(ProofCert {
            kind: CertKind::Falsified {
                depth: *depth,
                trace: trace.clone(),
            },
            engine: match w {
                Prover::Symbolic => "bmc",
                Prover::Pdr => "pdr",
            },
        }),
        _ => None,
    };

    Ok(PortfolioOutcome {
        result,
        winner,
        symbolic_stats,
        pdr_stats,
        certificate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter with a shallow bug (same design as the explicit-state
    /// BMC tests): `q != 3` fails after three enabled cycles.
    fn shallow_bug() -> (Module, Expr) {
        let mut m = Module::new("shallow");
        let en = m.input("en", 1);
        let q = m.reg("q", 4);
        m.update_when(q, Expr::Signal(en), Expr::Signal(q).add(Expr::lit(1, 4)));
        let ok = m.wire_from("ok", Expr::Signal(q).ne(Expr::lit(3, 4)));
        let o = m.output("o", 1);
        m.assign(o, Expr::Signal(ok));
        let assertion = Expr::Signal(m.find("ok").unwrap());
        (m, assertion)
    }

    /// A saturating counter: `cnt <= 10` for all time, but only provable
    /// by induction (the state space is 2^8).
    fn saturating_counter() -> (Module, Expr) {
        let mut m = Module::new("sat_cnt");
        let en = m.input("en", 1);
        let cnt = m.reg("cnt", 8);
        let at_max = Expr::Signal(cnt).eq(Expr::lit(10, 8));
        m.update_when(
            cnt,
            Expr::Signal(en).and(at_max.clone().logic_not()),
            Expr::Signal(cnt).add(Expr::lit(1, 8)),
        );
        let ok = m.wire_from(
            "ok",
            Expr::bin(anvil_rtl::BinaryOp::Le, Expr::Signal(cnt), Expr::lit(10, 8)),
        );
        let o = m.output("o", 1);
        m.assign(o, Expr::Signal(ok));
        let assertion = Expr::Signal(m.find("ok").unwrap());
        (m, assertion)
    }

    #[test]
    fn falsifies_shallow_bug_at_minimal_depth() {
        let (m, a) = shallow_bug();
        let (result, stats) = prove(&m, &a, 10).unwrap();
        let ProveResult::Falsified { depth, trace } = result else {
            panic!("expected falsification, got {result:?}");
        };
        assert_eq!(depth, 4);
        assert_eq!(trace.len(), 4);
        // `en` must be high in the first three cycles.
        for step in &trace[..3] {
            assert_eq!(step, &vec![1]);
        }
        assert!(stats.conflicts + stats.decisions > 0 || stats.frames > 0);
        // The trace replays to a violation on both backends.
        for backend in [Backend::Tree, Backend::Compiled] {
            assert_eq!(replay_trace(&m, &a, &trace, backend).unwrap(), Some(3));
        }
    }

    #[test]
    fn proves_saturating_counter_by_induction() {
        let (m, a) = saturating_counter();
        let (result, stats) = prove(&m, &a, 8).unwrap();
        assert_eq!(result, ProveResult::Proved { k: 1 });
        // The optimize pipeline ran: the post-rewrite graph is no larger
        // than the blasted one.
        assert!(stats.aig_nodes_after <= stats.aig_nodes);
        assert!(stats.aig_nodes_after > 0);
    }

    #[test]
    fn bounded_mode_reports_unknown_without_induction() {
        let (m, a) = saturating_counter();
        let (result, _) = prove_bounded(&m, &a, 6).unwrap();
        assert_eq!(result, ProveResult::Unknown { depth: 6 });
    }

    #[test]
    fn bounded_mode_depth_zero_checks_nothing() {
        // A zero-cycle budget must not surprise the caller with a
        // counterexample — even when the assertion is false at reset.
        let mut m = Module::new("init_bad");
        let q = m.reg_init("q", Bits::from_u64(7, 4));
        let ok = m.wire_from("ok", Expr::Signal(q).ne(Expr::lit(7, 4)));
        let o = m.output("o", 1);
        m.assign(o, Expr::Signal(ok));
        let a = Expr::Signal(m.find("ok").unwrap());
        let (result, _) = prove_bounded(&m, &a, 0).unwrap();
        assert_eq!(result, ProveResult::Unknown { depth: 0 });
        let (result, _) = prove_bounded(&m, &a, 1).unwrap();
        assert!(matches!(result, ProveResult::Falsified { depth: 1, .. }));
    }

    #[test]
    fn constant_true_assertion_proves_immediately() {
        let mut m = Module::new("triv");
        let a = m.input("a", 4);
        let o = m.output("o", 1);
        m.assign(o, Expr::Signal(a).eq(Expr::Signal(a)));
        // Both modes conclude without any unrolling: k = 0 marks the
        // combinationally-constant case.
        let (result, stats) = prove(&m, &Expr::lit(1, 1), 4).unwrap();
        assert_eq!(result, ProveResult::Proved { k: 0 });
        assert_eq!(stats.frames, 0);
        let (result, _) = prove_bounded(&m, &Expr::lit(1, 1), 4).unwrap();
        assert_eq!(result, ProveResult::Proved { k: 0 });
    }

    #[test]
    fn initial_state_violation_has_depth_one() {
        // Assertion false in the reset state itself.
        let mut m = Module::new("init_bad");
        let q = m.reg_init("q", Bits::from_u64(7, 4));
        let ok = m.wire_from("ok", Expr::Signal(q).ne(Expr::lit(7, 4)));
        let o = m.output("o", 1);
        m.assign(o, Expr::Signal(ok));
        let a = Expr::Signal(m.find("ok").unwrap());
        let (result, _) = prove(&m, &a, 4).unwrap();
        let ProveResult::Falsified { depth, trace } = result else {
            panic!("expected falsification, got {result:?}");
        };
        assert_eq!(depth, 1);
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn pdr_proves_saturating_counter() {
        let (m, a) = saturating_counter();
        let (result, stats) = prove_pdr(&m, &a, 32).unwrap();
        assert!(matches!(result, ProveResult::Proved { .. }), "{result:?}");
        assert!(stats.frames >= 1);
    }

    #[test]
    fn pdr_falsifies_shallow_bug_at_minimal_depth() {
        let (m, a) = shallow_bug();
        let (result, _) = prove_pdr(&m, &a, 32).unwrap();
        let ProveResult::Falsified { depth, trace } = result else {
            panic!("expected falsification, got {result:?}");
        };
        // PDR only advances a level after proving no counterexample at
        // the current one, so the trace is minimal-depth too.
        assert_eq!(depth, 4);
        assert_eq!(
            replay_trace(&m, &a, &trace, Backend::Tree).unwrap(),
            Some(3)
        );
    }

    #[test]
    fn pdr_invariant_revalidates_against_original_design() {
        // The invariant PDR finds on the *optimized* graph must transfer
        // to the unoptimized design — this is what the proof cache
        // replays on a warm hit.
        let (m, a) = saturating_counter();
        let circuit = AigCircuit::from_module(&m).unwrap();
        let prep = Prepared::new(&circuit, &a).unwrap();
        let run = run_pdr_inner(&prep, 32, None, Deadline::none()).unwrap();
        assert!(matches!(run.result, ProveResult::Proved { .. }));
        let cert = ProofCert {
            kind: CertKind::Inductive {
                clauses: run.invariant.unwrap(),
            },
            engine: "pdr",
        };
        let revalidated = revalidate_certificate(&circuit, &a, &cert).unwrap();
        assert_eq!(revalidated, Some(ProveResult::Proved { k: 0 }));
    }

    #[test]
    fn falsified_certificate_replays_and_stale_certificate_is_rejected() {
        let (m, a) = shallow_bug();
        let (result, _) = prove(&m, &a, 10).unwrap();
        let ProveResult::Falsified { depth, trace } = result else {
            panic!("expected falsification");
        };
        let circuit = AigCircuit::from_module(&m).unwrap();
        let cert = ProofCert {
            kind: CertKind::Falsified {
                depth,
                trace: trace.clone(),
            },
            engine: "bmc",
        };
        let revalidated = revalidate_certificate(&circuit, &a, &cert).unwrap();
        assert!(matches!(
            revalidated,
            Some(ProveResult::Falsified { depth: 4, .. })
        ));

        // The same trace against the *fixed* design no longer violates:
        // the certificate must be rejected, not trusted.
        let (mfix, afix) = saturating_counter();
        let cfix = AigCircuit::from_module(&mfix).unwrap();
        let cert_stale = ProofCert {
            kind: CertKind::Falsified { depth, trace },
            engine: "bmc",
        };
        assert_eq!(
            revalidate_certificate(&cfix, &afix, &cert_stale).unwrap(),
            None
        );
    }

    #[test]
    fn portfolio_agrees_with_all_engines() {
        let (m, a) = shallow_bug();
        let out = prove_portfolio(
            &AigCircuit::from_module(&m).unwrap(),
            &a,
            8,
            &Control::none(),
        )
        .unwrap();
        let ProveResult::Falsified { depth, .. } = out.result else {
            panic!("expected falsification, got {:?}", out.result);
        };
        assert_eq!(depth, 4);
        assert!(out.winner.is_some());
        assert!(out.certificate.is_some());

        let (m, a) = saturating_counter();
        let circuit = AigCircuit::from_module(&m).unwrap();
        let out = prove_portfolio(&circuit, &a, 8, &Control::none()).unwrap();
        assert!(matches!(out.result, ProveResult::Proved { .. }));
        assert!(matches!(out.winner, Some(Prover::Symbolic | Prover::Pdr)));
        // Whichever SAT engine won, its evidence revalidates.
        let cert = out.certificate.expect("proof leaves a certificate");
        let revalidated = revalidate_certificate(&circuit, &a, &cert).unwrap();
        assert!(matches!(revalidated, Some(ProveResult::Proved { .. })));
    }

    #[test]
    fn render_trace_is_stable() {
        let (m, a) = shallow_bug();
        let (result, _) = prove(&m, &a, 10).unwrap();
        let ProveResult::Falsified { trace, .. } = result else {
            panic!("expected falsification");
        };
        let text = render_trace(&m, &a, &trace).unwrap();
        assert!(text.contains("counterexample: `shallow`"));
        assert!(text.contains("<-- violation"));
    }
}

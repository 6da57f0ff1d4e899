//! Proof certificates: reusable evidence that a property was proved or
//! falsified, cheap to re-check against a structurally identical circuit.
//!
//! A [`ProofCert`] is what the proof cache stores under an
//! [`Aig::fingerprint`] × property key. The point of a certificate is
//! asymmetry: *finding* an inductive invariant costs a PDR run or a
//! k-induction search, but *checking* one needs a single incremental SAT
//! session ([`ProofCert::revalidate_inductive`]), and checking a
//! counterexample needs only concrete replay. A warm re-prove after an
//! edit that left the unit's fingerprint unchanged therefore skips the
//! expensive search entirely.
//!
//! The session checks an invariant one clause at a time: with the
//! invariant asserted over the current state, each clause gets one
//! small query under assumptions that falsify it in the next state,
//! and the first satisfiable query rejects the certificate. That
//! accepts and rejects exactly what one query over the disjunction of
//! every clause's violation would, but each query only reaches the
//! cone of one clause's next-state literals and keeps what the solver
//! learnt for the next. On the `prove_mix` benchmark's FIFO monitor the
//! 33-clause PDR invariant revalidates in 0.7–1.0 ms this way against
//! 1.5 ms for the one disjunctive query (release build, 2-vCPU x86-64
//! container).
//!
//! Invariant clauses are phrased over *latch literals of the original
//! sequential graph* (not the rewritten/fraiged one), so revalidation
//! runs directly on the cached circuit without redoing any optimization.

use std::sync::Arc;

use crate::aig::{Aig, Lit};
use crate::cnf::{CnfEncoder, Unroller};
use crate::solver::{SLit, SolveResult, Solver};

/// A literal over one latch of the sequential circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LatchLit {
    /// Latch number (see [`Aig::latch_info`]).
    pub latch: u32,
    /// True when the literal asserts the latch is *low*.
    pub negated: bool,
}

impl LatchLit {
    /// The literal's value in a concrete latch valuation.
    pub fn eval(self, latch_values: &[bool]) -> bool {
        latch_values[self.latch as usize] != self.negated
    }
}

/// The evidence a certificate carries.
#[derive(Clone, Debug)]
pub enum CertKind {
    /// An inductive strengthening: clauses over latch literals such that
    /// the conjunction holds at reset, is closed under the transition
    /// relation, and implies the property (what PDR extracts on
    /// convergence).
    Inductive {
        /// The invariant, one clause per entry.
        clauses: Vec<Vec<LatchLit>>,
    },
    /// The property proved by k-induction at this depth; revalidation
    /// reruns base + step at exactly `k` (no search over depths).
    KInduction {
        /// The proving induction depth.
        k: usize,
    },
    /// A concrete counterexample: per-cycle input-port words in the
    /// explicit-state trace format; revalidation replays it.
    Falsified {
        /// Cycles simulated until the violation (violation fires on the
        /// last one).
        depth: usize,
        /// One `Vec<u64>` of port values per cycle, port order matching
        /// `AigCircuit::input_bits`.
        trace: Vec<Vec<u64>>,
    },
}

/// A cached proof artifact.
#[derive(Clone, Debug)]
pub struct ProofCert {
    /// The evidence.
    pub kind: CertKind,
    /// Which engine produced it (`"pdr"`, `"k-induction"`, `"bmc"`, …).
    pub engine: &'static str,
}

impl ProofCert {
    /// Checks an [`CertKind::Inductive`] invariant against a sequential
    /// graph in one incremental SAT session: syntactically that every
    /// clause holds at reset, then by solver calls that the invariant
    /// implies the property (`Inv ∧ ¬ok` is unsatisfiable) and is closed
    /// under one transition: for each clause `c`, `Inv ∧ T ∧ ¬c'` is
    /// unsatisfiable, asked under the assumptions that every literal of
    /// `c` is false in the next state. The checks stop at the first
    /// failure. Together they re-establish safety without any invariant
    /// search.
    ///
    /// Returns `false` (never panics) on clauses referencing latches the
    /// graph does not have — a stale certificate simply fails to
    /// revalidate and the caller falls back to a cold prove.
    pub fn revalidate_inductive(seq: &Arc<Aig>, ok: Lit, clauses: &[Vec<LatchLit>]) -> bool {
        let Some(mut check) = InvCheck::new(seq, ok, clauses) else {
            return false;
        };
        clauses.iter().all(|c| {
            let violated: Vec<SLit> = c.iter().map(|&l| check.lit(1, l).negate()).collect();
            check.solver.solve(&violated) == SolveResult::Unsat
        })
    }
}

/// A two-frame unrolling with an invariant asserted over frame 0, after
/// the checks that need no transition: the invariant names only
/// existing latches, holds at reset and implies the property.
struct InvCheck {
    u: Unroller,
    enc: CnfEncoder,
    solver: Solver,
}

impl InvCheck {
    fn new(seq: &Arc<Aig>, ok: Lit, clauses: &[Vec<LatchLit>]) -> Option<InvCheck> {
        let n_latches = seq.n_latches();
        if clauses
            .iter()
            .flatten()
            .any(|l| l.latch as usize >= n_latches)
        {
            return None;
        }
        // Reset satisfies every clause.
        let init: Vec<bool> = seq.latches().iter().map(|l| l.init).collect();
        if !clauses.iter().all(|c| c.iter().any(|l| l.eval(&init))) {
            return None;
        }
        let mut u = Unroller::new(Arc::clone(seq), true);
        u.push_frame();
        u.push_frame();
        let mut check = InvCheck {
            u,
            enc: CnfEncoder::new(),
            solver: Solver::new(),
        };
        // Assert Inv over frame-0 latches.
        for c in clauses {
            let lits: Vec<SLit> = c.iter().map(|&l| check.lit(0, l)).collect();
            check.solver.add_clause(&lits);
        }
        // Inv ⊨ ok.
        let bad0 = check.u.lit_at(0, ok.negate());
        let bad0 = check.enc.encode(check.u.comb(), &mut check.solver, bad0);
        (check.solver.solve(&[bad0]) == SolveResult::Unsat).then_some(check)
    }

    /// The solver literal of `l` in `frame`.
    fn lit(&mut self, frame: usize, l: LatchLit) -> SLit {
        let latch = self.u.lit_at(frame, self.u.seq().latch_lit(l.latch));
        let s = self.enc.encode(self.u.comb(), &mut self.solver, latch);
        if l.negated {
            s.negate()
        } else {
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdr::{Pdr, PdrOptions, PdrOutcome};
    use crate::testgen::{random_aig, xorshift};

    /// The one-query check [`ProofCert::revalidate_inductive`] replaced,
    /// kept as its oracle: `Inv ∧ T ∧ ¬Inv'` as one query over a
    /// Tseitin OR of the per-clause violations.
    fn revalidate_inductive_or(seq: &Arc<Aig>, ok: Lit, clauses: &[Vec<LatchLit>]) -> bool {
        let Some(mut check) = InvCheck::new(seq, ok, clauses) else {
            return false;
        };
        let viol = SLit::pos(check.solver.new_var());
        let mut any = vec![viol.negate()];
        for c in clauses {
            // ¬c' = all literals false: one auxiliary var per clause.
            let aux = SLit::pos(check.solver.new_var());
            for &l in c {
                let sl = check.lit(1, l);
                check.solver.add_clause(&[aux.negate(), sl.negate()]);
            }
            any.push(aux);
        }
        check.solver.add_clause(&any);
        check.solver.solve(&[viol]) == SolveResult::Unsat
    }

    /// A random clause of one to three literals over the latches of
    /// `seq` whose first literal holds at reset.
    fn random_clause(rng: &mut impl FnMut() -> u64, seq: &Aig) -> Vec<LatchLit> {
        let mut c: Vec<LatchLit> = (0..1 + rng() % 3)
            .map(|_| LatchLit {
                latch: (rng() % seq.n_latches() as u64) as u32,
                negated: rng().is_multiple_of(2),
            })
            .collect();
        c[0].negated = !seq.latch_info(c[0].latch).init;
        c
    }

    /// On random graphs, the per-clause check and the one-query oracle
    /// accept and reject the same clause sets: PDR invariants
    /// (inductive), invariants with a clause dropped, a literal flipped
    /// or a random clause added, random clause sets that hold at reset,
    /// and invariants proved on an earlier graph (stale). Each set is
    /// checked for the graph's property and for the constant-true one,
    /// under which only reset and the transition decide.
    #[test]
    fn per_clause_check_agrees_with_the_one_query_check() {
        let mut rng = xorshift(0x5eed_ce47_0f1c_1a55);
        let mut stale: Vec<Vec<Vec<LatchLit>>> = Vec::new();
        let (mut accepted, mut rejected, mut not_closed) = (0, 0, 0);
        for case in 0..300 {
            let (g, ok) = random_aig(&mut rng);
            let seq = Arc::new(g);
            let mut sets: Vec<Vec<Vec<LatchLit>>> = Vec::new();
            if let PdrOutcome::Proved { invariant } =
                Pdr::new(Arc::clone(&seq), ok, PdrOptions::default()).run()
            {
                let mut dropped = invariant.clone();
                if !dropped.is_empty() {
                    dropped.remove((rng() % dropped.len() as u64) as usize);
                }
                let mut flipped = invariant.clone();
                if let Some(c) = flipped.iter_mut().find(|c| !c.is_empty()) {
                    c[0].negated = !c[0].negated;
                }
                let mut grown = invariant.clone();
                grown.push(random_clause(&mut rng, &seq));
                sets.extend([invariant.clone(), dropped, flipped, grown]);
                stale.push(invariant);
            }
            for _ in 0..3 {
                let set = (0..1 + rng() % 4)
                    .map(|_| random_clause(&mut rng, &seq))
                    .collect();
                sets.push(set);
            }
            if !stale.is_empty() {
                sets.push(stale[(rng() % stale.len() as u64) as usize].clone());
            }
            for (set, ok) in sets.iter().flat_map(|set| [(set, ok), (set, Lit::TRUE)]) {
                let got = ProofCert::revalidate_inductive(&seq, ok, set);
                let want = revalidate_inductive_or(&seq, ok, set);
                assert_eq!(got, want, "case {case}: {set:?}");
                if got {
                    accepted += 1;
                } else {
                    rejected += 1;
                    not_closed += usize::from(InvCheck::new(&seq, ok, set).is_some());
                }
            }
        }
        assert!(accepted > 400, "{accepted} sets accepted");
        assert!(rejected > 1_500, "{rejected} sets rejected");
        assert!(
            not_closed > 600,
            "{not_closed} sets rejected only by the transition check"
        );
    }

    /// A 2-bit saturating counter: once bit 1 sets, it stays set; the
    /// invariant "bit1 → bit1'" family is checkable by hand.
    fn saturating() -> Aig {
        let mut g = Aig::new();
        let b0 = g.add_latch(false);
        let b1 = g.add_latch(false);
        // b0' = ¬b0 ∧ ¬b1 (counts 0,1 then parks once b1 is set)
        let n0 = g.and(b0.negate(), b1.negate());
        // b1' = b1 ∨ b0
        let n1 = g.or(b1, b0);
        g.set_next(b0, n0);
        g.set_next(b1, n1);
        g
    }

    #[test]
    fn good_invariant_revalidates() {
        let g = Arc::new(saturating());
        // Property: ¬(b0 ∧ b1) — state 3 is unreachable.
        let b0 = g.latch_lit(0);
        let b1 = g.latch_lit(1);
        let mut gm = (*g).clone();
        let ok = gm.and(b0, b1).negate();
        let g = Arc::new(gm);
        // Invariant: ¬b0 ∨ ¬b1 (the property itself is inductive here).
        let inv = vec![vec![
            LatchLit {
                latch: 0,
                negated: true,
            },
            LatchLit {
                latch: 1,
                negated: true,
            },
        ]];
        assert!(ProofCert::revalidate_inductive(&g, ok, &inv));
    }

    #[test]
    fn non_inductive_clause_is_rejected() {
        let g = Arc::new(saturating());
        let b1 = g.latch_lit(1);
        // "Property": b1 never sets. False — and the claimed invariant
        // ¬b1 is not closed under T (state 01 steps to 10).
        let ok = b1.negate();
        let inv = vec![vec![LatchLit {
            latch: 1,
            negated: true,
        }]];
        assert!(!ProofCert::revalidate_inductive(&g, ok, &inv));
    }

    #[test]
    fn init_violating_clause_is_rejected() {
        let g = Arc::new(saturating());
        let inv = vec![vec![LatchLit {
            latch: 0,
            negated: false,
        }]];
        assert!(!ProofCert::revalidate_inductive(&g, Lit::TRUE, &inv));
    }

    #[test]
    fn out_of_range_latch_fails_gracefully() {
        let g = Arc::new(saturating());
        let inv = vec![vec![LatchLit {
            latch: 7,
            negated: false,
        }]];
        assert!(!ProofCert::revalidate_inductive(&g, Lit::TRUE, &inv));
    }
}

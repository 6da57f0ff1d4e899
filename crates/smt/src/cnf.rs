//! Transition-relation unrolling and lazy Tseitin CNF encoding.
//!
//! [`Unroller`] time-expands a sequential [`AigCircuit`] frame by frame
//! into a purely combinational [`Aig`]: frame 0's latches are either the
//! power-on constants (bounded model checking from reset) or fresh free
//! inputs (the induction step case), and frame `t+1`'s latches are the
//! frame-`t` images of the latch next-state literals. Because the
//! combinational graph constant-folds and structurally hashes, reset-state
//! constants propagate through as many frames as they pin down, and logic
//! identical across frames still costs one node per frame only when it
//! actually differs.
//!
//! [`CnfEncoder`] converts unrolled literals to solver literals *lazily*:
//! only the cone of influence of the literals a query actually mentions is
//! Tseitin-encoded, so checking a property of one small control register
//! inside a large datapath never ships the datapath to the SAT solver.

use std::sync::Arc;

use crate::aig::{Aig, Lit, Node};
use crate::solver::{SLit, Solver};

/// A time-expansion of a sequential circuit into a combinational AIG.
pub struct Unroller {
    seq: Arc<Aig>,
    comb: Aig,
    /// Per-frame map from sequential node index to combinational literal.
    maps: Vec<Vec<Lit>>,
    free_init: bool,
}

impl Unroller {
    /// A new unrolling with no frames yet. `free_init = false` starts
    /// frame 0 from the power-on latch values (BMC from reset);
    /// `free_init = true` leaves frame-0 latches unconstrained (the
    /// k-induction step and PDR transition cases).
    pub fn new(seq: Arc<Aig>, free_init: bool) -> Unroller {
        Unroller {
            seq,
            comb: Aig::new(),
            maps: Vec::new(),
            free_init,
        }
    }

    /// Number of frames unrolled so far.
    pub fn frames(&self) -> usize {
        self.maps.len()
    }

    /// The combinational graph built so far.
    pub fn comb(&self) -> &Aig {
        &self.comb
    }

    /// The sequential graph being unrolled.
    pub fn seq(&self) -> &Aig {
        &self.seq
    }

    /// Appends one frame.
    pub fn push_frame(&mut self) {
        let frame = self.maps.len();
        let mut map = Vec::with_capacity(self.seq.len());
        for sn in 0..self.seq.len() {
            let lit = match self.seq.node(sn) {
                Node::Const => Lit::FALSE,
                Node::Input(_) => self.comb.add_input(),
                Node::Latch(n) => {
                    let latch = self.seq.latch_info(n);
                    if frame == 0 {
                        if self.free_init {
                            self.comb.add_input()
                        } else if latch.init {
                            Lit::TRUE
                        } else {
                            Lit::FALSE
                        }
                    } else {
                        let next = latch.next.expect("latch connected during blasting");
                        Self::map_lit(&self.maps[frame - 1], next)
                    }
                }
                Node::And(a, b) => {
                    let la = Self::map_lit(&map, a);
                    let lb = Self::map_lit(&map, b);
                    self.comb.and(la, lb)
                }
            };
            map.push(lit);
        }
        self.maps.push(map);
    }

    fn map_lit(map: &[Lit], l: Lit) -> Lit {
        let base = map[l.node()];
        if l.is_negated() {
            base.negate()
        } else {
            base
        }
    }

    /// The combinational literal of a sequential literal in one frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame has not been pushed yet.
    pub fn lit_at(&self, frame: usize, seq: Lit) -> Lit {
        Self::map_lit(&self.maps[frame], seq)
    }
}

/// Lazy Tseitin encoder from an unrolled combinational AIG into a
/// [`Solver`].
#[derive(Default)]
pub struct CnfEncoder {
    /// Per-comb-node solver variable (`NONE` = not encoded yet).
    var_of: Vec<u32>,
    const_true: Option<SLit>,
}

const NONE: u32 = u32::MAX;

impl CnfEncoder {
    /// A fresh encoder.
    pub fn new() -> CnfEncoder {
        CnfEncoder::default()
    }

    /// The solver literal of a combinational AIG literal, Tseitin-encoding
    /// its cone of influence on first sight.
    pub fn encode(&mut self, comb: &Aig, solver: &mut Solver, lit: Lit) -> SLit {
        if self.var_of.len() < comb.len() {
            self.var_of.resize(comb.len(), NONE);
        }
        if lit.is_const() {
            let t = self.true_lit(solver);
            return if lit == Lit::TRUE { t } else { t.negate() };
        }
        // Iterative DFS over the unencoded cone.
        let mut stack = vec![lit.node()];
        while let Some(&n) = stack.last() {
            if self.var_of[n] != NONE {
                stack.pop();
                continue;
            }
            match comb.node(n) {
                // The constant node never lands on the stack: constant
                // literals short-circuit above and AND fanins of node 0
                // are folded away by the AIG.
                Node::Const => unreachable!("constant node in encoding cone"),
                Node::Input(_) | Node::Latch(_) => {
                    let v = solver.new_var();
                    self.var_of[n] = v;
                    stack.pop();
                }
                Node::And(a, b) => {
                    let (na, nb) = (a.node(), b.node());
                    let mut ready = true;
                    for child in [na, nb] {
                        if child != 0 && self.var_of[child] == NONE {
                            stack.push(child);
                            ready = false;
                        }
                    }
                    if !ready {
                        continue;
                    }
                    stack.pop();
                    let la = self.child_lit(solver, a);
                    let lb = self.child_lit(solver, b);
                    let v = solver.new_var();
                    let lv = SLit::pos(v);
                    solver.add_clause(&[lv.negate(), la]);
                    solver.add_clause(&[lv.negate(), lb]);
                    solver.add_clause(&[lv, la.negate(), lb.negate()]);
                    self.var_of[n] = v;
                }
            }
        }
        let base = self.node_lit(solver, lit.node());
        if lit.is_negated() {
            base.negate()
        } else {
            base
        }
    }

    /// The model value of a combinational literal after a `Sat` result.
    /// Unencoded (hence unconstrained) literals default to `false`.
    pub fn model_value(&self, solver: &Solver, lit: Lit) -> bool {
        if lit.is_const() {
            return lit == Lit::TRUE;
        }
        let raw = match self.var_of.get(lit.node()) {
            Some(&v) if v != NONE => solver.model_value(SLit::pos(v)),
            _ => false,
        };
        raw != lit.is_negated()
    }

    fn true_lit(&mut self, solver: &mut Solver) -> SLit {
        if let Some(t) = self.const_true {
            return t;
        }
        let v = solver.new_var();
        let t = SLit::pos(v);
        solver.add_clause(&[t]);
        self.const_true = Some(t);
        t
    }

    fn node_lit(&mut self, solver: &mut Solver, n: usize) -> SLit {
        if n == 0 {
            return self.true_lit(solver).negate();
        }
        SLit::pos(self.var_of[n])
    }

    fn child_lit(&mut self, solver: &mut Solver, l: Lit) -> SLit {
        let base = self.node_lit(solver, l.node());
        if l.is_negated() {
            base.negate()
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::AigCircuit;
    use crate::solver::SolveResult;
    use anvil_rtl::{Expr, Module};

    fn counter(width: usize) -> Module {
        let mut m = Module::new("c");
        let en = m.input("en", 1);
        let q = m.reg("q", width);
        let o = m.output("o", width);
        m.update_when(
            q,
            Expr::Signal(en),
            Expr::Signal(q).add(Expr::lit(1, width)),
        );
        m.assign(o, Expr::Signal(q));
        m
    }

    #[test]
    fn reset_constants_propagate_through_frames() {
        let m = counter(4);
        let c = Arc::new(AigCircuit::from_module(&m).unwrap());
        let mut u = Unroller::new(c.aig_arc(), false);
        u.push_frame();
        // At frame 0 the counter is the reset constant 0, so `q == 0`
        // folds to constant true without any solving.
        let q = m.find("q").unwrap();
        let q0 = c.signal_lits(q.0)[0];
        assert_eq!(u.lit_at(0, q0), Lit::FALSE);
    }

    #[test]
    fn bmc_query_counts_to_three() {
        // From reset, can `q == 3` hold at frame 3? Only if `en` was high
        // all three cycles; the solver must find exactly that stimulus.
        let m = counter(4);
        let mut c = AigCircuit::from_module(&m).unwrap();
        let ok = c
            .blast_assertion(&Expr::Signal(m.find("q").unwrap()).eq(Expr::lit(3, 4)))
            .unwrap();
        let c = Arc::new(c);
        let mut u = Unroller::new(c.aig_arc(), false);
        for _ in 0..4 {
            u.push_frame();
        }
        let mut enc = CnfEncoder::new();
        let mut solver = Solver::new();
        // Frame 2 is too early for q == 3.
        let hit2 = enc.encode(u.comb(), &mut solver, u.lit_at(2, ok));
        assert_eq!(solver.solve(&[hit2]), SolveResult::Unsat);
        // Frame 3 works, and the model must drive `en` high in frames
        // 0..3.
        let hit3 = enc.encode(u.comb(), &mut solver, u.lit_at(3, ok));
        assert_eq!(solver.solve(&[hit3]), SolveResult::Sat);
        let en_bits = &c.input_bits()[0].1;
        for f in 0..3 {
            let en_f = u.lit_at(f, en_bits[0]);
            assert!(enc.model_value(&solver, en_f), "en low at frame {f}");
        }
    }

    #[test]
    fn free_init_leaves_latches_unconstrained() {
        let m = counter(4);
        let mut c = AigCircuit::from_module(&m).unwrap();
        let is15 = c
            .blast_assertion(&Expr::Signal(m.find("q").unwrap()).eq(Expr::lit(15, 4)))
            .unwrap();
        let mut u = Unroller::new(c.aig_arc(), true);
        u.push_frame();
        let mut enc = CnfEncoder::new();
        let mut solver = Solver::new();
        let hit = enc.encode(u.comb(), &mut solver, u.lit_at(0, is15));
        // With free initial state, q can be anything at frame 0.
        assert_eq!(solver.solve(&[hit]), SolveResult::Sat);
    }
}

//! An embedded CDCL SAT solver.
//!
//! A self-contained MiniSat-style conflict-driven clause-learning solver —
//! two-watched-literal propagation, first-UIP clause learning with
//! activity-based (VSIDS) branching, phase saving, Luby restarts, and
//! activity-driven learnt-clause reduction. Incremental use is the whole
//! point: clauses can be added between [`Solver::solve`] calls and each
//! call takes a set of *assumption* literals, which is how the bounded
//! model checker and the k-induction engine reuse one solver across
//! unrolling depths.
//!
//! Two knobs serve the PDR engine. [`Solver::set_decision`] is MiniSat's
//! decision-variable flag: PDR branches only on its frame-0 latches and
//! inputs, since every other variable it encodes is a Tseitin AND gate
//! those sources force by propagation. On the Pipelined ALU property a
//! PDR run to its tick budget took 3.9–4.3 s that way and 8.4–9.6 s
//! when it could branch on every variable (2-vCPU x86-64 container).
//! [`SolverStats::ticks`] counts watcher visits plus literals scanned
//! for a new watch, a work measure that, unlike propagations, grows
//! with the clauses each propagation has to visit; those runs spent
//! 13–14 ns per tick.
//!
//! Like the rest of the workspace it is dependency-free (`crates/shims`
//! covers the dev-only externals); nothing here talks to crates.io.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A solver variable.
pub type Var = u32;

/// A solver literal: variable plus sign (`sign = true` means negated).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SLit(u32);

impl SLit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> SLit {
        SLit(v << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> SLit {
        SLit((v << 1) | 1)
    }

    /// The literal's variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// True for negated literals.
    pub fn sign(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented literal.
    #[must_use]
    pub fn negate(self) -> SLit {
        SLit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Outcome of one [`Solver::solve`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A model satisfying all clauses and assumptions exists (query it
    /// with [`Solver::model_value`]).
    Sat,
    /// No model exists under the given assumptions.
    Unsat,
    /// The external stop flag was raised mid-search.
    Interrupted,
}

/// Cumulative search statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Propagation work: watcher-list entries visited plus clause
    /// literals scanned for a replacement watch.
    pub ticks: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
    /// Problem clauses added (after top-level simplification).
    pub clauses: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LB {
    True,
    False,
    Undef,
}

struct Clause {
    lits: Vec<SLit>,
    learnt: bool,
    act: f64,
    deleted: bool,
}

const NO_REASON: u32 = u32::MAX;

/// The CDCL solver.
pub struct Solver {
    clauses: Vec<Clause>,
    /// Per-literal watcher lists: `(clause index, blocker literal)`.
    watches: Vec<Vec<(u32, SLit)>>,
    assign: Vec<LB>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<SLit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    /// Binary max-heap of variables ordered by activity.
    heap: Vec<Var>,
    heap_pos: Vec<i32>,
    phase: Vec<bool>,
    /// Per-variable decision flag (see [`Solver::set_decision`]).
    decision: Vec<bool>,
    seen: Vec<bool>,
    model: Vec<LB>,
    ok: bool,
    n_learnt: usize,
    max_learnt: usize,
    stats: SolverStats,
    stop: Option<Arc<AtomicBool>>,
    deadline: crate::Deadline,
    conflict_budget: Option<u64>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            phase: Vec::new(),
            decision: Vec::new(),
            seen: Vec::new(),
            model: Vec::new(),
            ok: true,
            n_learnt: 0,
            max_learnt: 4096,
            stats: SolverStats::default(),
            stop: None,
            deadline: crate::Deadline::none(),
            conflict_budget: None,
        }
    }

    /// Installs a cooperative stop flag, polled periodically during search.
    pub fn set_stop(&mut self, stop: Arc<AtomicBool>) {
        self.stop = Some(stop);
    }

    /// Installs a wall-clock deadline, polled at the same cadence as the
    /// stop flag (every 512 conflicts and at every restart); an expired
    /// deadline makes [`Solver::solve`] return
    /// [`SolveResult::Interrupted`]. [`crate::Deadline::none`] (the
    /// default) disables the check.
    pub fn set_deadline(&mut self, deadline: crate::Deadline) {
        self.deadline = deadline;
    }

    /// Caps the conflicts any single [`Solver::solve`] call may analyse;
    /// a call that exceeds the budget returns
    /// [`SolveResult::Interrupted`]. `None` (the default) removes the
    /// cap. Fraiging uses this to bound each equivalence query, treating
    /// a blown budget as "not proven equivalent".
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Learnt clauses appended since `cursor` (an opaque clause-arena
    /// index; start from 0 and reuse the returned cursor), capped at
    /// `max_len` literals each. The clause arena is append-only, so
    /// cursors stay valid across solves. Every returned clause is implied
    /// by the problem clauses alone — assumptions act as decisions, never
    /// as antecedents — which is what makes cross-solver clause sharing
    /// sound when both solvers encode the same CNF.
    pub fn export_learnt(&self, cursor: &mut usize, max_len: usize) -> Vec<Vec<SLit>> {
        let mut out = Vec::new();
        for c in &self.clauses[(*cursor).min(self.clauses.len())..] {
            if c.learnt && !c.deleted && c.lits.len() <= max_len {
                out.push(c.lits.clone());
            }
        }
        *cursor = self.clauses.len();
        out
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.assign.len()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.assign.len() as Var;
        self.assign.push(LB::Undef);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.decision.push(true);
        self.seen.push(false);
        self.heap_pos.push(-1);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_insert(v);
        v
    }

    /// Marks `v` as a variable the search may (`true`, the default for
    /// every new variable) or may not branch on. A non-decision variable
    /// is only ever assigned by propagation or as an assumption, so the
    /// caller must make sure the decision variables determine it: a
    /// `Sat` answer comes as soon as every decision variable is assigned
    /// without conflict, and a non-decision variable left unassigned
    /// then reads as `false` in the model. Tseitin gate outputs over
    /// decision-variable sources meet this by construction.
    pub fn set_decision(&mut self, v: Var, decision: bool) {
        self.decision[v as usize] = decision;
        if decision {
            self.heap_insert(v);
        }
    }

    fn value(&self, l: SLit) -> LB {
        match self.assign[l.var() as usize] {
            LB::Undef => LB::Undef,
            LB::True => {
                if l.sign() {
                    LB::False
                } else {
                    LB::True
                }
            }
            LB::False => {
                if l.sign() {
                    LB::True
                } else {
                    LB::False
                }
            }
        }
    }

    /// The last model's value for a literal (valid after a `Sat` result);
    /// unassigned variables read as `false`.
    pub fn model_value(&self, l: SLit) -> bool {
        match self.model.get(l.var() as usize) {
            Some(LB::True) => !l.sign(),
            Some(LB::False) => l.sign(),
            _ => l.sign(),
        }
    }

    // ---- Activity heap. ----

    fn heap_insert(&mut self, v: Var) {
        if self.heap_pos[v as usize] >= 0 || !self.decision[v as usize] {
            return;
        }
        self.heap.push(v);
        let i = self.heap.len() - 1;
        self.heap_pos[v as usize] = i as i32;
        self.heap_up(i);
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let p = (i - 1) / 2;
            if self.activity[self.heap[i] as usize] <= self.activity[self.heap[p] as usize] {
                break;
            }
            self.heap_swap(i, p);
            i = p;
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.heap.len()
                && self.activity[self.heap[l] as usize] > self.activity[self.heap[largest] as usize]
            {
                largest = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r] as usize] > self.activity[self.heap[largest] as usize]
            {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap_swap(i, largest);
            i = largest;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i] as usize] = i as i32;
        self.heap_pos[self.heap[j] as usize] = j as i32;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top as usize] = -1;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_down(0);
        }
        Some(top)
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let pos = self.heap_pos[v as usize];
        if pos >= 0 {
            self.heap_up(pos as usize);
        }
    }

    fn bump_clause(&mut self, c: usize) {
        let cl = &mut self.clauses[c];
        if !cl.learnt {
            return;
        }
        cl.act += self.cla_inc;
        if cl.act > 1e100 {
            for cl in self.clauses.iter_mut().filter(|c| c.learnt) {
                cl.act *= 1e-100;
            }
            self.cla_inc *= 1e-100;
        }
    }

    // ---- Clause management. ----

    /// Adds a problem clause (between solves, at decision level 0).
    /// Top-level simplification removes duplicate and already-false
    /// literals and drops tautologies and satisfied clauses.
    pub fn add_clause(&mut self, lits: &[SLit]) {
        if !self.ok {
            return;
        }
        debug_assert!(self.trail_lim.is_empty(), "add_clause mid-solve");
        let mut ls: Vec<SLit> = lits.to_vec();
        ls.sort();
        ls.dedup();
        let mut simplified = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == l.negate() {
                return; // tautology
            }
            match self.value(l) {
                LB::True => return, // already satisfied at level 0
                LB::False => {}     // drop falsified literal
                LB::Undef => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
            }
            1 => {
                self.enqueue(simplified[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                self.stats.clauses += 1;
                self.attach(simplified, false);
            }
        }
    }

    fn attach(&mut self, lits: Vec<SLit>, learnt: bool) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[lits[0].negate().index()].push((idx, lits[1]));
        self.watches[lits[1].negate().index()].push((idx, lits[0]));
        self.clauses.push(Clause {
            lits,
            learnt,
            act: 0.0,
            deleted: false,
        });
        if learnt {
            self.n_learnt += 1;
        }
        idx
    }

    /// Deletes poorly scoring learnt clauses when the database grows past
    /// its cap (locked clauses — reasons of current assignments — stay).
    fn reduce_db(&mut self) {
        let mut acts: Vec<f64> = self
            .clauses
            .iter()
            .filter(|c| c.learnt && !c.deleted)
            .map(|c| c.act)
            .collect();
        if acts.is_empty() {
            return;
        }
        acts.sort_by(|a, b| a.partial_cmp(b).expect("activities are finite"));
        let median = acts[acts.len() / 2];
        for ci in 0..self.clauses.len() {
            let c = &self.clauses[ci];
            if !c.learnt || c.deleted || c.lits.len() <= 2 || c.act >= median {
                continue;
            }
            let locked = self.reason[c.lits[0].var() as usize] == ci as u32
                && self.value(c.lits[0]) == LB::True;
            if locked {
                continue;
            }
            self.clauses[ci].deleted = true;
            self.n_learnt -= 1;
        }
        // Rebuild the watcher lists without the deleted clauses.
        for w in &mut self.watches {
            w.clear();
        }
        for (ci, c) in self.clauses.iter().enumerate() {
            if c.deleted {
                continue;
            }
            self.watches[c.lits[0].negate().index()].push((ci as u32, c.lits[1]));
            self.watches[c.lits[1].negate().index()].push((ci as u32, c.lits[0]));
        }
        self.max_learnt += self.max_learnt / 2;
    }

    // ---- Assignment and propagation. ----

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: SLit, reason: u32) {
        debug_assert!(self.value(l) == LB::Undef);
        let v = l.var() as usize;
        self.assign[v] = if l.sign() { LB::False } else { LB::True };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause index, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses whose watched literal just became false (they are
            // filed under its complement, `p`) must find a new watch or
            // propagate.
            let mut i = 0;
            let widx = p.index();
            'watchers: while i < self.watches[widx].len() {
                self.stats.ticks += 1;
                let (ci, blocker) = self.watches[widx][i];
                if self.value(blocker) == LB::True {
                    i += 1;
                    continue;
                }
                let false_lit = p.negate();
                // Make sure the falsified watch is lits[1].
                let (first, len) = {
                    let c = &mut self.clauses[ci as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    (c.lits[0], c.lits.len())
                };
                debug_assert_eq!(self.clauses[ci as usize].lits[1], false_lit);
                if first != blocker && self.value(first) == LB::True {
                    self.watches[widx][i] = (ci, first);
                    i += 1;
                    continue;
                }
                // Look for a non-false literal to watch instead.
                for k in 2..len {
                    self.stats.ticks += 1;
                    let lk = self.clauses[ci as usize].lits[k];
                    if self.value(lk) != LB::False {
                        self.clauses[ci as usize].lits.swap(1, k);
                        self.watches[widx].swap_remove(i);
                        self.watches[lk.negate().index()].push((ci, first));
                        continue 'watchers;
                    }
                }
                // No replacement: unit or conflict.
                self.watches[widx][i] = (ci, first);
                i += 1;
                match self.value(first) {
                    LB::False => return Some(ci),
                    LB::Undef => self.enqueue(first, ci),
                    LB::True => {}
                }
            }
        }
        None
    }

    fn cancel_until(&mut self, lvl: u32) {
        if self.decision_level() <= lvl {
            return;
        }
        let bound = self.trail_lim[lvl as usize];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("trail is non-empty");
            let v = l.var() as usize;
            self.phase[v] = !l.sign();
            self.assign[v] = LB::Undef;
            self.reason[v] = NO_REASON;
            self.heap_insert(l.var());
        }
        self.trail_lim.truncate(lvl as usize);
        self.qhead = self.trail.len();
    }

    // ---- Conflict analysis (first UIP). ----

    fn analyze(&mut self, confl: u32) -> (Vec<SLit>, u32) {
        let mut learnt: Vec<SLit> = vec![SLit::pos(0)]; // slot for the UIP
        let mut path = 0usize;
        let mut p: Option<SLit> = None;
        let mut index = self.trail.len();
        let mut c = confl;
        let current = self.decision_level();
        loop {
            self.bump_clause(c as usize);
            let start = usize::from(p.is_some());
            for k in start..self.clauses[c as usize].lits.len() {
                let q = self.clauses[c as usize].lits[k];
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= current {
                        path += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var() as usize] = false;
            path -= 1;
            if path == 0 {
                learnt[0] = pl.negate();
                break;
            }
            p = Some(pl);
            c = self.reason[pl.var() as usize];
            debug_assert_ne!(c, NO_REASON, "resolved literal must have a reason");
        }
        // Backtrack level: highest level among the non-UIP literals.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var() as usize]
        };
        for l in &learnt {
            self.seen[l.var() as usize] = false;
        }
        (learnt, bt)
    }

    // ---- Search. ----

    /// Solves under the given assumption literals.
    ///
    /// Clauses may be added between calls; the learnt-clause database and
    /// variable activities persist, which is what makes repeated
    /// unrolling-depth queries cheap.
    pub fn solve(&mut self, assumptions: &[SLit]) -> SolveResult {
        let _sp = anvil_trace::span("sat", "solve");
        if !self.ok {
            return SolveResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }

        let mut restart = 0u64;
        let mut budget = 128 * luby(restart);
        let mut conflicts_here = 0u64;
        let mut conflicts_call = 0u64;
        loop {
            if let Some(ci) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(ci);
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], NO_REASON);
                } else {
                    let ci = self.attach(learnt, true);
                    self.stats.learned += 1;
                    self.bump_clause(ci as usize);
                    let first = self.clauses[ci as usize].lits[0];
                    self.enqueue(first, ci);
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if self.stats.conflicts.is_multiple_of(512) {
                    if let Some(stop) = &self.stop {
                        if stop.load(Ordering::Relaxed) {
                            self.cancel_until(0);
                            return SolveResult::Interrupted;
                        }
                    }
                    if self.deadline.expired() {
                        self.cancel_until(0);
                        return SolveResult::Interrupted;
                    }
                }
                conflicts_call += 1;
                if let Some(budget) = self.conflict_budget {
                    if conflicts_call >= budget {
                        self.cancel_until(0);
                        return SolveResult::Interrupted;
                    }
                }
            } else {
                if conflicts_here >= budget {
                    // Restart.
                    anvil_trace::instant("sat", "restart");
                    self.stats.restarts += 1;
                    restart += 1;
                    budget = 128 * luby(restart);
                    conflicts_here = 0;
                    self.cancel_until(0);
                    if self.deadline.expired() {
                        return SolveResult::Interrupted;
                    }
                    continue;
                }
                if self.n_learnt > self.max_learnt {
                    self.reduce_db();
                }
                // Re-establish assumptions, then decide.
                if (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value(p) {
                        LB::True => {
                            self.trail_lim.push(self.trail.len());
                        }
                        LB::False => {
                            self.cancel_until(0);
                            return SolveResult::Unsat;
                        }
                        LB::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, NO_REASON);
                        }
                    }
                    continue;
                }
                let next = loop {
                    match self.heap_pop() {
                        Some(v) => {
                            // Variables demoted after they entered the
                            // heap leave it here, once.
                            if self.assign[v as usize] == LB::Undef && self.decision[v as usize] {
                                break Some(v);
                            }
                        }
                        None => break None,
                    }
                };
                match next {
                    None => {
                        // Every decision variable assigned: a model.
                        self.model = self.assign.clone();
                        self.cancel_until(0);
                        return SolveResult::Sat;
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = if self.phase[v as usize] {
                            SLit::pos(v)
                        } else {
                            SLit::neg(v)
                        };
                        self.enqueue(lit, NO_REASON);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …), 0-indexed.
fn luby(mut x: u64) -> u64 {
    // Find the finite subsequence containing index `x` and its size.
    let (mut size, mut seq) = (1u64, 0u64);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause(&[SLit::pos(v[0])]);
        s.add_clause(&[SLit::neg(v[0]), SLit::pos(v[1])]);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.model_value(SLit::pos(v[0])));
        assert!(s.model_value(SLit::pos(v[1])));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[SLit::pos(v[0])]);
        s.add_clause(&[SLit::neg(v[0])]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_outcomes_incrementally() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        // (a ∨ b) ∧ (¬a ∨ c)
        s.add_clause(&[SLit::pos(v[0]), SLit::pos(v[1])]);
        s.add_clause(&[SLit::neg(v[0]), SLit::pos(v[2])]);
        assert_eq!(
            s.solve(&[SLit::pos(v[0]), SLit::neg(v[2])]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve(&[SLit::pos(v[0])]), SolveResult::Sat);
        assert!(s.model_value(SLit::pos(v[2])));
        // Adding a clause afterwards still works.
        s.add_clause(&[SLit::neg(v[1])]);
        assert_eq!(s.solve(&[SLit::neg(v[0])]), SolveResult::Unsat);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    /// Pigeonhole principle: n+1 pigeons in n holes is unsatisfiable and
    /// needs genuine conflict-driven search.
    #[test]
    fn pigeonhole_is_unsat() {
        for n in 2..=5usize {
            let mut s = Solver::new();
            let p: Vec<Vec<Var>> = (0..n + 1)
                .map(|_| (0..n).map(|_| s.new_var()).collect())
                .collect();
            for row in &p {
                let lits: Vec<SLit> = row.iter().map(|v| SLit::pos(*v)).collect();
                s.add_clause(&lits);
            }
            #[allow(clippy::needless_range_loop)] // h indexes two vectors
            for h in 0..n {
                for i in 0..n + 1 {
                    for j in i + 1..n + 1 {
                        s.add_clause(&[SLit::neg(p[i][h]), SLit::neg(p[j][h])]);
                    }
                }
            }
            assert_eq!(s.solve(&[]), SolveResult::Unsat, "PHP({})", n + 1);
            assert!(s.stats().conflicts > 0);
        }
    }

    /// Random 3-SAT instances cross-checked against brute force.
    #[test]
    fn random_3sat_matches_brute_force() {
        let mut seed = 0x1234_5678_9abc_def1u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..60 {
            let n = 4 + (next() % 6) as usize; // 4..9 vars
            let m = n * 4;
            let clauses: Vec<Vec<SLit>> = (0..m)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = (next() % n as u64) as Var;
                            if next() % 2 == 0 {
                                SLit::pos(v)
                            } else {
                                SLit::neg(v)
                            }
                        })
                        .collect()
                })
                .collect();
            // Brute force.
            let mut brute_sat = false;
            'outer: for asn in 0..(1u64 << n) {
                for c in &clauses {
                    let ok = c.iter().any(|l| {
                        let bit = (asn >> l.var()) & 1 == 1;
                        bit != l.sign()
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            let mut s = Solver::new();
            let _ = vars(&mut s, n);
            for c in &clauses {
                s.add_clause(c);
            }
            let got = s.solve(&[]);
            assert_eq!(
                got,
                if brute_sat {
                    SolveResult::Sat
                } else {
                    SolveResult::Unsat
                },
                "case {case} diverged from brute force"
            );
            if got == SolveResult::Sat {
                // The reported model must satisfy every clause.
                for c in &clauses {
                    assert!(
                        c.iter().any(|l| s.model_value(*l)),
                        "bad model, case {case}"
                    );
                }
            }
        }
    }

    /// Random circuits of AND gates over a few inputs, Tseitin-encoded,
    /// with some gate outputs asserted: branching only on the inputs
    /// (every gate a non-decision variable) must give brute-force
    /// verdicts and models that satisfy every clause.
    #[test]
    fn input_only_branching_matches_brute_force() {
        let mut seed = 0x5eed_0fde_c0de_0001u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut sats = 0;
        for case in 0..300 {
            let n_in = 1 + (next() % 8) as usize;
            let n_gates = 1 + (next() % 24) as usize;
            let mut s = Solver::new();
            let ins = vars(&mut s, n_in);
            let mut clauses: Vec<Vec<SLit>> = Vec::new();
            // `nodes[k]` is a literal over inputs or earlier gates.
            let mut nodes: Vec<SLit> = ins.iter().map(|&v| SLit::pos(v)).collect();
            // Gate definitions for brute-force evaluation: (a, b).
            let mut gates: Vec<(SLit, SLit)> = Vec::new();
            for _ in 0..n_gates {
                let pick = |r: u64| {
                    let l = nodes[(r % nodes.len() as u64) as usize];
                    if r & (1 << 40) != 0 {
                        l.negate()
                    } else {
                        l
                    }
                };
                let (a, b) = (pick(next()), pick(next()));
                let g = SLit::pos(s.new_var());
                s.set_decision(g.var(), false);
                clauses.push(vec![g.negate(), a]);
                clauses.push(vec![g.negate(), b]);
                clauses.push(vec![g, a.negate(), b.negate()]);
                gates.push((a, b));
                nodes.push(g);
            }
            // Assert one to three random gate literals.
            for _ in 0..1 + next() % 3 {
                let g = nodes[n_in + (next() % n_gates as u64) as usize];
                clauses.push(vec![if next() % 2 == 0 { g } else { g.negate() }]);
            }
            for c in &clauses {
                s.add_clause(c);
            }
            let eval = |asn: u64| -> Vec<bool> {
                let mut val: Vec<bool> = (0..n_in).map(|i| (asn >> i) & 1 == 1).collect();
                for &(a, b) in &gates {
                    let lit = |l: SLit| val[l.var() as usize] != l.sign();
                    let v = lit(a) && lit(b);
                    val.push(v);
                }
                val
            };
            let brute_sat = (0..1u64 << n_in).any(|asn| {
                let val = eval(asn);
                clauses
                    .iter()
                    .all(|c| c.iter().any(|l| val[l.var() as usize] != l.sign()))
            });
            let got = s.solve(&[]);
            let want = if brute_sat {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(got, want, "case {case} diverged from brute force");
            if got == SolveResult::Sat {
                sats += 1;
                for c in &clauses {
                    assert!(
                        c.iter().any(|l| s.model_value(*l)),
                        "case {case}: model violates {c:?}"
                    );
                }
                // Decisions go to inputs only: at most one per input
                // between two conflicts.
                assert!(s.stats().decisions <= n_in as u64 * (s.stats().conflicts + 1));
            }
        }
        assert!(sats > 30 && sats < 270, "{sats} satisfiable of 300");
    }

    #[test]
    fn stop_flag_interrupts() {
        let mut s = Solver::new();
        let stop = Arc::new(AtomicBool::new(true));
        s.set_stop(Arc::clone(&stop));
        // A hard instance that would not return instantly: PHP(8).
        let n = 7usize;
        let p: Vec<Vec<Var>> = (0..n + 1)
            .map(|_| (0..n).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let lits: Vec<SLit> = row.iter().map(|v| SLit::pos(*v)).collect();
            s.add_clause(&lits);
        }
        #[allow(clippy::needless_range_loop)] // h indexes two vectors
        for h in 0..n {
            for i in 0..n + 1 {
                for j in i + 1..n + 1 {
                    s.add_clause(&[SLit::neg(p[i][h]), SLit::neg(p[j][h])]);
                }
            }
        }
        // With the flag raised from the start the solve returns
        // Interrupted as soon as the first poll fires (or solves first if
        // it is quicker than a poll interval — both are acceptable; what
        // the test pins is that it terminates and never panics).
        let r = s.solve(&[]);
        assert!(matches!(r, SolveResult::Interrupted | SolveResult::Unsat));
    }

    #[test]
    fn luby_sequence_prefix() {
        let want = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..want.len() as u64).map(luby).collect();
        assert_eq!(got, want);
    }
}

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
//! with the clauses each propagation has to visit.
//!
//! # Clause storage
//!
//! As in MiniSat's clause allocator, every clause lives in one flat
//! `Vec<u32>` arena: a header word (length, learnt and deleted bits),
//! the clause's creation index into a side table of activities, then
//! its literals. Reasons, conflicts and watchers name a clause by its
//! arena offset, so a watcher visit reads the literals next to the
//! header instead of following a pointer to a separate allocation. The
//! arena only grows: `reduce_db` marks clauses deleted and rebuilds the
//! watcher lists without them, which keeps offsets valid across solves.
//!
//! Two thirds of the clauses of a Tseitin AND gate have two literals.
//! Their watchers carry a tag bit and the other literal as blocker, so
//! propagation decides "satisfied", "unit" or "conflict" from the
//! blocker alone and only *stores* the `[implied, falsified]` literal
//! order into the arena, without reading it. Literal values come from a
//! per-literal table, one load per check.
//!
//! # Same search
//!
//! How clauses are stored does not change what the solver decides.
//! Each clause keeps the literal order the two-watched-literal scheme
//! leaves (the watches first, a falsified watch swapped second), each
//! watcher list keeps its `swap_remove` order (the list being scanned is
//! taken out of the table while it is scanned, and a moved watch never
//! lands back on it), and `reduce_db` rebuilds the lists in creation
//! order. With the heap, phase saving, restarts and clause activities,
//! that makes every counter in [`SolverStats`] a fixed function of the
//! clauses and calls the solver is given, so the prover's tests and
//! `bench_prove_compare` pin them exactly: a change that only makes
//! the solver faster leaves them unchanged. On the Pipelined ALU PDR
//! run to its tick budget a tick costs 11.2–11.6 ns (two runs, 2-vCPU
//! x86-64 container).
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
#[repr(u8)]
enum LB {
    True,
    False,
    Undef,
}

/// A clause's arena offset: its header word, followed by its creation
/// index and its literals.
type CRef = u32;

const NO_REASON: CRef = u32::MAX;

/// Header bit of a learnt clause; the length sits above the two flags.
const LEARNT: u32 = 1;
/// Header bit of a clause `reduce_db` deleted.
const DELETED: u32 = 2;
/// Arena words before a clause's first literal.
const LITS: usize = 2;
/// Watcher tag of a 2-literal clause (arena offsets stay below it).
const BINARY: u32 = 1 << 31;

/// One entry of a watcher list: the clause (tagged with [`BINARY`] for a
/// 2-literal clause) and a literal of it whose truth satisfies the
/// clause without reading it. A 2-literal clause's blocker is always its
/// other literal.
#[derive(Clone, Copy)]
struct Watcher {
    cref: u32,
    blocker: SLit,
}

/// The CDCL solver.
pub struct Solver {
    /// Every clause ever attached, in creation order (see the module
    /// docs for the layout).
    arena: Vec<u32>,
    /// Activity of each clause by creation index (only learnt clauses
    /// are ever bumped).
    clause_act: Vec<f64>,
    /// Per-literal watcher lists: the clauses watching a literal's
    /// complement, filed under the literal that falsifies the watch.
    watches: Vec<Vec<Watcher>>,
    /// Per-literal value: `vals[l]` is `l`'s truth under the current
    /// assignment.
    vals: Vec<LB>,
    level: Vec<u32>,
    reason: Vec<CRef>,
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
    /// The last model, per literal like `vals`.
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
            arena: Vec::new(),
            clause_act: Vec::new(),
            watches: Vec::new(),
            vals: Vec::new(),
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

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.level.len()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.level.len() as Var;
        self.vals.extend([LB::Undef, LB::Undef]);
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
        self.vals[l.index()]
    }

    /// The last model's value for a literal (valid after a `Sat` result);
    /// unassigned variables read as `false`.
    pub fn model_value(&self, l: SLit) -> bool {
        match self.model.get(l.index()) {
            Some(LB::True) => true,
            Some(LB::False) => false,
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

    fn bump_clause(&mut self, c: CRef) {
        let c = c as usize;
        if self.arena[c] & LEARNT == 0 {
            return;
        }
        let act = &mut self.clause_act[self.arena[c + 1] as usize];
        *act += self.cla_inc;
        if *act > 1e100 {
            // Problem clauses keep activity 0, so scaling every entry
            // scales exactly the learnt ones.
            for a in &mut self.clause_act {
                *a *= 1e-100;
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
                self.attach(&simplified, false);
            }
        }
    }

    /// Appends a clause of at least two literals to the arena and
    /// watches its first two.
    fn attach(&mut self, lits: &[SLit], learnt: bool) -> CRef {
        let c = self.arena.len() as CRef;
        assert!(
            self.arena.len() + LITS + lits.len() < BINARY as usize,
            "clause arena full"
        );
        self.arena
            .push(((lits.len() as u32) << 2) | if learnt { LEARNT } else { 0 });
        self.arena.push(self.clause_act.len() as u32);
        self.arena.extend(lits.iter().map(|l| l.0));
        self.clause_act.push(0.0);
        self.watch(c, lits[0], lits[1]);
        if learnt {
            self.n_learnt += 1;
        }
        c
    }

    /// Files the clause at `c` under the complements of its watched
    /// literals `a` and `b`, each with the other as blocker.
    fn watch(&mut self, c: CRef, a: SLit, b: SLit) {
        let cref = if clause_len(self.arena[c as usize]) == 2 {
            c | BINARY
        } else {
            c
        };
        self.watches[a.negate().index()].push(Watcher { cref, blocker: b });
        self.watches[b.negate().index()].push(Watcher { cref, blocker: a });
    }

    /// Every clause in creation order: `(offset, header)`.
    fn clauses(&self) -> impl Iterator<Item = (CRef, u32)> + '_ {
        let mut c = 0;
        std::iter::from_fn(move || {
            let header = *self.arena.get(c)?;
            let at = c as CRef;
            c += LITS + clause_len(header);
            Some((at, header))
        })
    }

    fn clause_activity(&self, c: CRef) -> f64 {
        self.clause_act[self.arena[c as usize + 1] as usize]
    }

    /// Deletes poorly scoring learnt clauses when the database grows past
    /// its cap (locked clauses — reasons of current assignments — stay).
    fn reduce_db(&mut self) {
        let learnt: Vec<CRef> = self
            .clauses()
            .filter(|&(_, h)| h & (LEARNT | DELETED) == LEARNT)
            .map(|(c, _)| c)
            .collect();
        if learnt.is_empty() {
            return;
        }
        let mut acts: Vec<f64> = learnt.iter().map(|&c| self.clause_activity(c)).collect();
        acts.sort_by(|a, b| a.partial_cmp(b).expect("activities are finite"));
        let median = acts[acts.len() / 2];
        for c in learnt {
            if clause_len(self.arena[c as usize]) <= 2 || self.clause_activity(c) >= median {
                continue;
            }
            let first = SLit(self.arena[c as usize + LITS]);
            let locked = self.reason[first.var() as usize] == c && self.value(first) == LB::True;
            if locked {
                continue;
            }
            self.arena[c as usize] |= DELETED;
            self.n_learnt -= 1;
        }
        // Rebuild the watcher lists without the deleted clauses.
        for w in &mut self.watches {
            w.clear();
        }
        let mut c = 0;
        while c < self.arena.len() {
            let header = self.arena[c];
            if header & DELETED == 0 {
                let (a, b) = (self.arena[c + LITS], self.arena[c + LITS + 1]);
                self.watch(c as CRef, SLit(a), SLit(b));
            }
            c += LITS + clause_len(header);
        }
        self.max_learnt += self.max_learnt / 2;
    }

    // ---- Assignment and propagation. ----

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: SLit, reason: CRef) {
        debug_assert!(self.value(l) == LB::Undef);
        self.vals[l.index()] = LB::True;
        self.vals[l.negate().index()] = LB::False;
        let v = l.var() as usize;
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<CRef> {
        let mut ticks = 0u64;
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses whose watched literal just became false (they are
            // filed under its complement, `p`) must find a new watch or
            // propagate. Every watch moved off this list goes to a
            // literal of its clause other than `false_lit`, so never
            // back onto it.
            let false_lit = p.negate();
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            'watchers: while i < ws.len() {
                ticks += 1;
                let Watcher { cref, blocker } = ws[i];
                let blocker_value = self.value(blocker);
                if blocker_value == LB::True {
                    i += 1;
                    continue;
                }
                if cref & BINARY != 0 {
                    // The blocker is the other literal: unit or conflict.
                    // Store the order the long-clause path would leave.
                    let at = (cref & !BINARY) as usize + LITS;
                    self.arena[at] = blocker.0;
                    self.arena[at + 1] = false_lit.0;
                    i += 1;
                    if blocker_value == LB::False {
                        conflict = Some(cref & !BINARY);
                        break;
                    }
                    self.enqueue(blocker, cref & !BINARY);
                    continue;
                }
                // Make sure the falsified watch is the second literal.
                let at = cref as usize + LITS;
                if self.arena[at] == false_lit.0 {
                    self.arena.swap(at, at + 1);
                }
                debug_assert_eq!(self.arena[at + 1], false_lit.0);
                let first = SLit(self.arena[at]);
                let first_value = self.value(first);
                if first != blocker && first_value == LB::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a non-false literal to watch instead.
                for k in at + 2..at + clause_len(self.arena[cref as usize]) {
                    ticks += 1;
                    let lk = SLit(self.arena[k]);
                    if self.value(lk) != LB::False {
                        self.arena.swap(at + 1, k);
                        ws.swap_remove(i);
                        self.watches[lk.negate().index()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // No replacement: unit or conflict.
                ws[i].blocker = first;
                i += 1;
                match first_value {
                    LB::False => {
                        conflict = Some(cref);
                        break;
                    }
                    LB::Undef => self.enqueue(first, cref),
                    LB::True => {}
                }
            }
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        self.stats.ticks += ticks;
        conflict
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
            self.vals[l.index()] = LB::Undef;
            self.vals[l.negate().index()] = LB::Undef;
            self.reason[v] = NO_REASON;
            self.heap_insert(l.var());
        }
        self.trail_lim.truncate(lvl as usize);
        self.qhead = self.trail.len();
    }

    // ---- Conflict analysis (first UIP). ----

    fn analyze(&mut self, confl: CRef) -> (Vec<SLit>, u32) {
        let mut learnt: Vec<SLit> = vec![SLit::pos(0)]; // slot for the UIP
        let mut path = 0usize;
        let mut p: Option<SLit> = None;
        let mut index = self.trail.len();
        let mut c = confl;
        let current = self.decision_level();
        loop {
            self.bump_clause(c);
            let at = c as usize + LITS;
            let start = usize::from(p.is_some());
            for k in at + start..at + clause_len(self.arena[c as usize]) {
                let q = SLit(self.arena[k]);
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
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], NO_REASON);
                } else {
                    let c = self.attach(&learnt, true);
                    self.stats.learned += 1;
                    self.bump_clause(c);
                    self.enqueue(learnt[0], c);
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
                            if self.value(SLit::pos(v)) == LB::Undef && self.decision[v as usize] {
                                break Some(v);
                            }
                        }
                        None => break None,
                    }
                };
                match next {
                    None => {
                        // Every decision variable assigned: a model.
                        self.model.clone_from(&self.vals);
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

/// The literal count in a clause header.
fn clause_len(header: u32) -> usize {
    (header >> 2) as usize
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
    use crate::testgen::xorshift;

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

    /// A solver whose learnt-clause cap is `cap` instead of 4,096, so
    /// `reduce_db` runs on instances small enough to brute-force.
    fn capped(cap: usize) -> Solver {
        let mut s = Solver::new();
        s.max_learnt = cap;
        s
    }

    /// Whether each learnt clause in the arena is deleted, in creation
    /// order.
    fn learnt_log(s: &Solver) -> Vec<bool> {
        s.clauses()
            .filter(|&(_, h)| h & LEARNT != 0)
            .map(|(_, h)| h & DELETED != 0)
            .collect()
    }

    /// A seeded random CNF over at most 16 variables plus every total
    /// assignment that satisfies it, kept current as clauses are added.
    struct Brute {
        n: usize,
        clauses: Vec<Vec<SLit>>,
        models: Vec<u32>,
    }

    impl Brute {
        fn new(n: usize) -> Brute {
            assert!(n <= 16);
            Brute {
                n,
                clauses: Vec::new(),
                models: (0..1u32 << n).collect(),
            }
        }

        fn holds(asn: u32, l: SLit) -> bool {
            ((asn >> l.var()) & 1 == 1) != l.sign()
        }

        /// Adds `clause` to the solver and the reference, unless it
        /// would leave no model (a solver made unsatisfiable at the top
        /// level does no further work).
        fn add(&mut self, s: &mut Solver, clause: Vec<SLit>) {
            let holds = |asn: &u32| clause.iter().any(|&l| Brute::holds(*asn, l));
            if !self.models.iter().any(holds) {
                return;
            }
            s.add_clause(&clause);
            self.models.retain(holds);
            self.clauses.push(clause);
        }

        fn random_lit(&self, next: &mut impl FnMut() -> u64) -> SLit {
            SLit((next() % (2 * self.n as u64)) as u32)
        }

        /// A random clause of three literals, or of two to five one
        /// time in four.
        fn random_clause(&self, next: &mut impl FnMut() -> u64) -> Vec<SLit> {
            let len = if next().is_multiple_of(4) {
                2 + next() % 4
            } else {
                3
            };
            (0..len).map(|_| self.random_lit(next)).collect()
        }
    }

    /// Incremental solves under many assumption sets with the learnt
    /// cap lowered: every verdict matches brute force, every model
    /// satisfies every clause and assumption, and `reduce_db` deletes
    /// clauses and rebuilds the watcher lists many times along the way.
    #[test]
    fn reductions_keep_incremental_verdicts_exact() {
        let mut next = xorshift(0x0dd_c1a5_e5ee_d001);
        let (mut reductions, mut deleted, mut unsat) = (0, 0, 0);
        for case in 0..24 {
            let n = 10 + (next() % 7) as usize;
            let cap = 2 + (next() % 6) as usize;
            let mut s = capped(cap);
            let _ = vars(&mut s, n);
            let mut brute = Brute::new(n);
            for _ in 0..n * 3 {
                let c = brute.random_clause(&mut next);
                brute.add(&mut s, c);
            }
            for round in 0..200 {
                if round % 25 == 24 {
                    let c = brute.random_clause(&mut next);
                    brute.add(&mut s, c);
                }
                let assumptions: Vec<SLit> = (0..2 + next() % 7)
                    .map(|_| brute.random_lit(&mut next))
                    .collect();
                let brute_sat = brute
                    .models
                    .iter()
                    .any(|&asn| assumptions.iter().all(|&l| Brute::holds(asn, l)));
                let got = s.solve(&assumptions);
                let want = if brute_sat {
                    SolveResult::Sat
                } else {
                    unsat += 1;
                    SolveResult::Unsat
                };
                assert_eq!(got, want, "case {case} round {round}");
                if got == SolveResult::Sat {
                    for c in &brute.clauses {
                        assert!(
                            c.iter().any(|l| s.model_value(*l)),
                            "case {case} round {round}: model violates {c:?}"
                        );
                    }
                    assert!(assumptions.iter().all(|l| s.model_value(*l)));
                }
            }
            assert_eq!(learnt_log(&s).len() as u64, s.stats().learned);
            if s.max_learnt > cap {
                reductions += 1;
            }
            deleted += learnt_log(&s).iter().filter(|&&d| d).count();
        }
        assert!(
            reductions >= 12,
            "reduce_db ran in {reductions} of 24 cases"
        );
        assert!(deleted > 50, "{deleted} learnt clauses deleted");
        assert!(
            unsat > 480 && unsat < 4_320,
            "{unsat} of 4,800 solves unsatisfiable"
        );
    }
}

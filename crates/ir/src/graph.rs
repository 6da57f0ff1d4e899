//! The event graph (paper §5.3) and its timing relations (§5.4, App. C.3.1).
//!
//! Events are abstract time points: the start of an iteration, a fixed
//! number of cycles after another event, the completion of a message
//! synchronisation, a branch, or a join. Together they form a DAG whose
//! possible *timestamp functions* (Def. C.9) describe every run-time timing
//! the thread can exhibit.
//!
//! The type system needs to decide `a ≤G b` — "in every timestamp function,
//! `a` happens no later than `b`" (Def. C.11). We implement the paper's
//! sound approximation with two interval bounds per event pair:
//!
//! * [`EventGraph::min_gap`]`(a, b)` — a lower bound on `τ(b) − τ(a)`
//!   (message synchronisations take at least their minimum delay),
//! * [`EventGraph::max_gap`]`(a, b)` — an upper bound on `τ(b) − τ(a)`
//!   (unbounded, i.e. `None`, across dynamic synchronisations).
//!
//! `a ≤G b` holds if `min_gap(a→b) ≥ 0` or `max_gap(b→a) ≤ 0`.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard};

use anvil_intern::Symbol;

/// Index of an event in its [`EventGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub usize);

/// Index of a branch condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CondId(pub usize);

/// A message identity: endpoint name plus message name.
///
/// Both components are interned [`Symbol`]s, so a `MsgRef` is `Copy`,
/// O(1) to compare, and `Send + Sync` — the whole IR can be shared across
/// batch-compile worker threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgRef {
    /// Endpoint the message moves through.
    pub ep: Symbol,
    /// Message identifier within the channel type.
    pub msg: Symbol,
}

impl MsgRef {
    /// Interns both components.
    pub fn new(ep: impl Into<Symbol>, msg: impl Into<Symbol>) -> MsgRef {
        MsgRef {
            ep: ep.into(),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for MsgRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.ep, self.msg)
    }
}

/// What kind of time point an event is, and how it relates to its
/// predecessors (the edge labels of Fig. 8).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// The start of a thread iteration (`e0`).
    Root,
    /// Exactly `cycles` after `pred` (blue `#N` edges).
    Delay {
        /// Predecessor event.
        pred: EventId,
        /// Fixed delay in cycles.
        cycles: u64,
    },
    /// Completion of a message send/receive started at `pred`.
    ///
    /// `min_delay`/`max_delay` bound how long the synchronisation can take:
    /// dynamic handshakes are `(0, None)`; a dependent sync mode `@#m+k`
    /// is modelled as an exact [`EventKind::Delay`] instead; a static sync
    /// mode `@#k` bounds the wait to `(0, Some(k))`.
    Sync {
        /// Predecessor event (when the operation starts).
        pred: EventId,
        /// Which message synchronises.
        msg: MsgRef,
        /// True for sends, false for receives.
        is_send: bool,
        /// Minimum cycles from `pred` to completion.
        min_delay: u64,
        /// Maximum cycles from `pred` to completion, if bounded.
        max_delay: Option<u64>,
    },
    /// Fires with `pred`, but only when condition `cond` evaluated `taken`
    /// (red `&c` edges).
    Branch {
        /// Predecessor event.
        pred: EventId,
        /// Which condition guards the branch.
        cond: CondId,
        /// Which way the condition went.
        taken: bool,
    },
    /// Fires when *all* predecessors have fired (multi-input `#0` join:
    /// "latest of").
    JoinAll {
        /// Joined events.
        preds: Vec<EventId>,
    },
    /// Fires when *either* predecessor fires (orange `⊕` edges merging the
    /// two sides of a branch; exactly one side occurs).
    JoinAny {
        /// Joined events (one per branch side).
        preds: Vec<EventId>,
    },
}

impl EventKind {
    /// Direct predecessors of this event.
    pub fn preds(&self) -> Vec<EventId> {
        match self {
            EventKind::Root => vec![],
            EventKind::Delay { pred, .. }
            | EventKind::Sync { pred, .. }
            | EventKind::Branch { pred, .. } => vec![*pred],
            EventKind::JoinAll { preds } | EventKind::JoinAny { preds } => preds.clone(),
        }
    }
}

/// A duration after a base event (paper §5.1's `⊲ p`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PatternDur {
    /// `#N` — exactly `N` cycles later.
    Cycles(u64),
    /// `π.m` — the first synchronisation of the message after the base.
    Msg(MsgRef),
}

/// An event pattern `e ⊲ p`: the first time duration `p` is satisfied
/// after event `e`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Pattern {
    /// Base event.
    pub base: EventId,
    /// Duration after the base.
    pub dur: PatternDur,
}

impl Pattern {
    /// `e ⊲ #n`.
    pub fn cycles(base: EventId, n: u64) -> Pattern {
        Pattern {
            base,
            dur: PatternDur::Cycles(n),
        }
    }

    /// `e ⊲ π.m`.
    pub fn msg(base: EventId, msg: MsgRef) -> Pattern {
        Pattern {
            base,
            dur: PatternDur::Msg(msg),
        }
    }
}

/// The event graph of one thread.
///
/// Events are append-only and topologically ordered by construction: every
/// predecessor has a smaller index than its dependents.
///
/// Events live in an index-based arena ([`EventId`]s are the only
/// handles). `≤G` queries read a per-reference gap table behind a
/// `Mutex`, locked once per [`EventGraph::min_gap`] or
/// [`EventGraph::max_gap`] call, so a built graph is `Send + Sync` and can
/// serve queries from several threads at once. Appending an event leaves
/// the table valid: an entry depends only on entries for earlier events,
/// so queries extend rows on demand and nothing is recomputed.
#[derive(Debug, Default)]
pub struct EventGraph {
    events: Vec<EventKind>,
    /// Branch context of each event: the `(cond, taken)` guards it sits
    /// under. Used to decide whether one event always follows another.
    contexts: Vec<Vec<(CondId, bool)>>,
    n_conds: usize,
    gaps: Mutex<GapTable>,
}

/// Bounds on `τ(e) − τ(r)` for one event `e` in the row of reference `r`:
/// a lower bound (`min`) and an upper bound (`max`), `None` when unknown
/// or unbounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Gap {
    min: Option<i64>,
    max: Option<i64>,
}

impl Gap {
    const NONE: Gap = Gap {
        min: None,
        max: None,
    };
}

/// The forward gap propagation from every reference event that a query
/// has needed so far (App. C.3.1).
///
/// `rows[r][k]` bounds `τ(r + k) − τ(r)`. A row starts at its reference,
/// because no event before `r` is reachable from `r`. Rows only grow: an
/// entry reads entries of its own row for the event's predecessors, which
/// come earlier in the graph's topological order.
#[derive(Debug, Default)]
struct GapTable {
    rows: Vec<Vec<Gap>>,
    /// Entries computed since the graph was created.
    computed: usize,
}

impl GapTable {
    /// Row `r`, extended to cover event `upto`.
    fn row(&mut self, g: &EventGraph, r: usize, upto: usize) -> &[Gap] {
        if self.rows.len() <= r {
            self.rows.resize_with(r + 1, Vec::new);
        }
        let row = &mut self.rows[r];
        while r + row.len() <= upto {
            let gap = g.gap_entry(r, row);
            row.push(gap);
            self.computed += 1;
        }
        row
    }
}

impl Clone for EventGraph {
    fn clone(&self) -> Self {
        EventGraph {
            events: self.events.clone(),
            contexts: self.contexts.clone(),
            n_conds: self.n_conds,
            // The gap table is derived state; a fresh graph re-fills it.
            gaps: Mutex::default(),
        }
    }
}

/// The IR is shared read-only across batch-compile workers.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EventGraph>();
    assert_send_sync::<MsgRef>();
    assert_send_sync::<Pattern>();
};

impl EventGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the root event (branch context: empty).
    pub fn add_root(&mut self) -> EventId {
        self.push(EventKind::Root)
    }

    /// Allocates a fresh branch condition id.
    pub fn fresh_cond(&mut self) -> CondId {
        self.n_conds += 1;
        CondId(self.n_conds - 1)
    }

    /// Number of branch conditions allocated.
    pub fn cond_count(&self) -> usize {
        self.n_conds
    }

    /// Appends an event, computing its branch context from its
    /// predecessors.
    ///
    /// # Panics
    ///
    /// Panics if a predecessor index is out of range (construction must be
    /// topological).
    pub fn push(&mut self, kind: EventKind) -> EventId {
        let ctx = match &kind {
            EventKind::Root => vec![],
            EventKind::Delay { pred, .. } | EventKind::Sync { pred, .. } => {
                self.contexts[pred.0].clone()
            }
            EventKind::Branch { pred, cond, taken } => {
                let mut c = self.contexts[pred.0].clone();
                c.push((*cond, *taken));
                c
            }
            EventKind::JoinAll { preds } => {
                // Intersection of contexts (guards common to all).
                let mut c = self.contexts[preds[0].0].clone();
                for p in &preds[1..] {
                    c.retain(|g| self.contexts[p.0].contains(g));
                }
                c
            }
            EventKind::JoinAny { preds } => {
                // Branch merge: drop the last guard each side added.
                let mut c = self.contexts[preds[0].0].clone();
                for p in preds {
                    c.retain(|g| self.contexts[p.0].contains(g));
                }
                // Additionally remove guards not shared (handled above) —
                // for well-formed merges this strips the branch condition.
                c
            }
        };
        self.events.push(kind);
        self.contexts.push(ctx);
        EventId(self.events.len() - 1)
    }

    /// The event's kind.
    pub fn kind(&self, e: EventId) -> &EventKind {
        &self.events[e.0]
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events exist yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates `(id, kind)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &EventKind)> {
        self.events.iter().enumerate().map(|(i, k)| (EventId(i), k))
    }

    /// The branch guards event `e` sits under.
    pub fn context(&self, e: EventId) -> &[(CondId, bool)] {
        &self.contexts[e.0]
    }

    /// True if `b` occurs in every run in which `a` occurs (and no
    /// earlier): `b` is downstream of `a` and carries no extra branch
    /// guards beyond `a`'s.
    pub fn always_follows(&self, a: EventId, b: EventId) -> bool {
        if self.min_gap(a, b).is_none() {
            return false;
        }
        let ctx_a = self.context(a);
        self.context(b).iter().all(|g| ctx_a.contains(g))
    }

    /// Lower bound on `τ(b) − τ(a)` over all timestamp functions, or
    /// `None` when no bound is known (e.g. `b` is not downstream of `a`).
    ///
    /// Combines forward propagation from `a` with reasoning through every
    /// potential common ancestor `r`:
    /// `τ(b) − τ(a) ≥ min_r(b) − max_r(a)` whenever both are bounded.
    /// Only `r ≤ min(a, b)` can reach both events.
    pub fn min_gap(&self, a: EventId, b: EventId) -> Option<i64> {
        let mut table = self.gap_table();
        let mut best: Option<i64> = None;
        for r in 0..=a.0.min(b.0) {
            let row = table.row(self, r, a.0.max(b.0));
            if let (Some(lb), Some(ha)) = (row[b.0 - r].min, row[a.0 - r].max) {
                let cand = lb - ha;
                best = Some(best.map_or(cand, |x| x.max(cand)));
            }
        }
        best
    }

    /// Upper bound on `τ(b) − τ(a)` over all timestamp functions, or
    /// `None` when unbounded / unknown.
    pub fn max_gap(&self, a: EventId, b: EventId) -> Option<i64> {
        let mut table = self.gap_table();
        let mut best: Option<i64> = None;
        for r in 0..=a.0.min(b.0) {
            let row = table.row(self, r, a.0.max(b.0));
            if let (Some(hb), Some(la)) = (row[b.0 - r].max, row[a.0 - r].min) {
                let cand = hb - la;
                best = Some(best.map_or(cand, |x| x.min(cand)));
            }
        }
        best
    }

    /// Number of gap-table entries computed since the graph was created: a
    /// work counter for tests that pin how query cost grows with the graph.
    pub fn gap_entries_computed(&self) -> usize {
        self.gap_table().computed
    }

    /// Frees the gap table's rows and any spare capacity, for graphs kept
    /// long after their last query; later queries recompute the rows they
    /// need.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.gaps.get_mut().expect("gap table poisoned").rows = Vec::new();
        self.events.shrink_to_fit();
        self.contexts.shrink_to_fit();
    }

    fn gap_table(&self) -> MutexGuard<'_, GapTable> {
        self.gaps.lock().expect("gap table poisoned")
    }

    /// The next entry of reference `r`'s row, for event `r + row.len()`.
    fn gap_entry(&self, r: usize, row: &[Gap]) -> Gap {
        let i = r + row.len();
        if i == r {
            return Gap {
                min: Some(0),
                max: Some(0),
            };
        }
        let at = |p: &EventId| p.0.checked_sub(r).map_or(Gap::NONE, |k| row[k]);
        match &self.events[i] {
            EventKind::Root => Gap::NONE,
            EventKind::Delay { pred, cycles } => {
                let g = at(pred);
                Gap {
                    min: g.min.map(|x| x + *cycles as i64),
                    max: g.max.map(|x| x + *cycles as i64),
                }
            }
            EventKind::Sync {
                pred,
                min_delay,
                max_delay,
                ..
            } => {
                let g = at(pred);
                Gap {
                    min: g.min.map(|x| x + *min_delay as i64),
                    max: max_delay.and_then(|d| g.max.map(|x| x + d as i64)),
                }
            }
            EventKind::Branch { pred, .. } => at(pred),
            // τ = max over preds. Lower bound: any single defined pred
            // bound works. Upper bound: every pred must be bounded.
            EventKind::JoinAll { preds } => Gap {
                min: preds.iter().filter_map(|p| at(p).min).max(),
                max: preds
                    .iter()
                    .map(|p| at(p).max)
                    .reduce(|x, y| Some(x?.max(y?)))
                    .flatten(),
            },
            // τ = the *taken* pred's time (untaken branches never fire);
            // the taken side can be any predecessor whose branch context is
            // compatible with `r`, so both bounds need every such pred
            // bounded.
            EventKind::JoinAny { preds } => {
                if preds.iter().all(|p| at(p) == Gap::NONE) {
                    // Unreachable from `r`: unbounded whichever side is
                    // live, so skip comparing branch contexts.
                    return Gap::NONE;
                }
                preds
                    .iter()
                    .filter(|p| !self.contexts_disjoint(**p, EventId(r)))
                    .map(at)
                    .reduce(|x, y| Gap {
                        min: x.min.zip(y.min).map(|(a, b)| a.min(b)),
                        max: x.max.zip(y.max).map(|(a, b)| a.max(b)),
                    })
                    .unwrap_or(Gap::NONE)
            }
        }
    }

    /// `a ≤G b`: in every timestamp function, `a` occurs no later than `b`.
    pub fn le(&self, a: EventId, b: EventId) -> bool {
        self.le_offset(a, 0, b, 0)
    }

    /// `a <G b`: strictly earlier in every timestamp function.
    pub fn lt(&self, a: EventId, b: EventId) -> bool {
        self.le_offset(a, 1, b, 0)
    }

    /// `τ(a) + ka ≤ τ(b) + kb` in every timestamp function.
    pub fn le_offset(&self, a: EventId, ka: i64, b: EventId, kb: i64) -> bool {
        if let Some(g) = self.min_gap(a, b) {
            // τ(b) − τ(a) ≥ g; need g + kb − ka ≥ 0.
            if g + kb - ka >= 0 {
                return true;
            }
        }
        if let Some(g) = self.max_gap(b, a) {
            // τ(a) − τ(b) ≤ g; need g + ka − kb ≤ 0.
            if g + ka - kb <= 0 {
                return true;
            }
        }
        false
    }

    /// Every synchronisation event of message `m` in the graph.
    pub fn sync_events(&self, m: &MsgRef) -> Vec<EventId> {
        self.iter()
            .filter_map(|(id, k)| match k {
                EventKind::Sync { msg, .. } if msg == m => Some(id),
                _ => None,
            })
            .collect()
    }

    /// `p ≤G q` on event patterns (paper Def. C.10/C.11 lifted to the
    /// sound approximation): the time matched by `p` is never later than
    /// the time matched by `q`.
    pub fn le_pattern(&self, p: &Pattern, q: &Pattern) -> bool {
        self.le_pattern_ctx(p, q, 0, None)
    }

    /// True if two events sit on contradictory branches of the same
    /// condition — they can never co-occur in one run.
    pub fn contexts_disjoint(&self, a: EventId, b: EventId) -> bool {
        self.context(a)
            .iter()
            .any(|(c, t)| self.context(b).iter().any(|(c2, t2)| c == c2 && t != t2))
    }

    /// `p ≤G q + slack`, judged from the perspective of `observer`:
    /// message-pattern candidates on branches that can never co-occur
    /// with the observer are ignored (in those runs the comparison is
    /// vacuous). `slack` accounts for values that stay physically stable
    /// through their expiry-sync cycle (a mutation at the sync lands one
    /// cycle later), matching the paper's Fig. 5 derivation where the
    /// output is "used [e2, e2+1) when available [e2, e2+1)".
    pub fn le_pattern_ctx(
        &self,
        p: &Pattern,
        q: &Pattern,
        slack: i64,
        observer: Option<EventId>,
    ) -> bool {
        let compat = |f: &EventId| match observer {
            Some(o) => !self.contexts_disjoint(*f, o),
            None => true,
        };
        match (&p.dur, &q.dur) {
            (PatternDur::Cycles(kp), PatternDur::Cycles(kq)) => {
                self.le_offset(p.base, *kp as i64, q.base, *kq as i64 + slack)
            }
            // τ(q.base ⊲ m) ≥ τ(q.base): p ≤ q.base suffices. Failing
            // that, the first m at/after q.base must be one of the syncs
            // that do not causally precede q.base (and can co-occur with
            // the observer); p below every such candidate also suffices
            // (no candidates = ∞).
            (PatternDur::Cycles(kp), PatternDur::Msg(mq)) => {
                self.le_offset(p.base, *kp as i64, q.base, slack)
                    || self
                        .sync_events(mq)
                        .iter()
                        .filter(|f| !self.le(**f, q.base))
                        .filter(|f| compat(f))
                        .all(|f| self.le_offset(p.base, *kp as i64, *f, slack))
            }
            // First-m-after is monotone in its base for the same message.
            (PatternDur::Msg(mp), PatternDur::Msg(mq)) if mp == mq && slack >= 0 => {
                self.le(p.base, q.base)
                    || self.sync_events(mp).iter().any(|f| {
                        self.always_follows(p.base, *f)
                            && self.le_pattern_ctx(&Pattern::cycles(*f, 0), q, slack, observer)
                    })
            }
            // τ(p.base ⊲ m) ≤ τ(f) for any m-sync f that always follows
            // p.base; find one below q.
            (PatternDur::Msg(mp), _) => self.sync_events(mp).iter().any(|f| {
                self.always_follows(p.base, *f)
                    && self.le_pattern_ctx(&Pattern::cycles(*f, 0), q, slack, observer)
            }),
        }
    }

    /// `earliest(S_a) ≤G earliest(S_b)` for pattern sets, where an empty
    /// set means "never" (∞). Holds iff for every `q ∈ S_b` some
    /// `p ∈ S_a` satisfies `p ≤G q`.
    pub fn le_pattern_sets(&self, sa: &[Pattern], sb: &[Pattern]) -> bool {
        sb.iter().all(|q| sa.iter().any(|p| self.le_pattern(p, q)))
    }

    /// [`EventGraph::le_pattern_sets`] with slack and an observer context.
    pub fn le_pattern_sets_ctx(
        &self,
        sa: &[Pattern],
        sb: &[Pattern],
        slack: i64,
        observer: Option<EventId>,
    ) -> bool {
        sb.iter().all(|q| {
            sa.iter()
                .any(|p| self.le_pattern_ctx(p, q, slack, observer))
        })
    }

    /// Renders the graph in Graphviz dot format (for debugging and the
    /// Fig. 8 bench).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph event_graph {\n");
        for (id, k) in self.iter() {
            let label = match k {
                EventKind::Root => "root".to_string(),
                EventKind::Delay { cycles, .. } => format!("#{cycles}"),
                EventKind::Sync { msg, is_send, .. } => {
                    format!("{}{}", if *is_send { "send " } else { "recv " }, msg)
                }
                EventKind::Branch { cond, taken, .. } => {
                    format!("&c{}={}", cond.0, taken)
                }
                EventKind::JoinAll { .. } => "join-all".to_string(),
                EventKind::JoinAny { .. } => "⊕".to_string(),
            };
            let _ = writeln!(s, "  e{} [label=\"e{}: {label}\"];", id.0, id.0);
            for p in k.preds() {
                let _ = writeln!(s, "  e{} -> e{};", p.0, id.0);
            }
        }
        s.push_str("}\n");
        s
    }

    /// Samples a concrete timestamp function (Def. C.9) with the given
    /// per-sync delays, resolving branches with `take`: used by property
    /// tests to validate `≤G` soundness. Returns `τ` for every event
    /// (`None` for events on untaken branches).
    pub fn sample_timestamps(
        &self,
        mut sync_delay: impl FnMut(EventId) -> u64,
        mut take: impl FnMut(CondId) -> bool,
    ) -> Vec<Option<i64>> {
        let mut taken: HashMap<CondId, bool> = HashMap::new();
        let mut tau: Vec<Option<i64>> = vec![None; self.events.len()];
        for i in 0..self.events.len() {
            let t = match &self.events[i] {
                EventKind::Root => Some(0),
                EventKind::Delay { pred, cycles } => tau[pred.0].map(|t| t + *cycles as i64),
                EventKind::Sync {
                    pred,
                    min_delay,
                    max_delay,
                    ..
                } => tau[pred.0].map(|t| {
                    let d = sync_delay(EventId(i)).max(*min_delay);
                    let d = match max_delay {
                        Some(m) => d.min(*m),
                        None => d,
                    };
                    t + d as i64
                }),
                EventKind::Branch {
                    pred,
                    cond,
                    taken: want,
                } => {
                    let dir = *taken.entry(*cond).or_insert_with(|| take(*cond));
                    if dir == *want {
                        tau[pred.0]
                    } else {
                        None
                    }
                }
                EventKind::JoinAll { preds } => preds
                    .iter()
                    .map(|p| tau[p.0])
                    .collect::<Option<Vec<_>>>()
                    .and_then(|v| v.into_iter().max()),
                EventKind::JoinAny { preds } => preds.iter().filter_map(|p| tau[p.0]).min(),
            };
            tau[i] = t;
        }
        tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(ep: &str, m: &str) -> MsgRef {
        MsgRef::new(ep, m)
    }

    /// root -> delay#2 -> sync(recv m) -> delay#1
    fn chain() -> (EventGraph, EventId, EventId, EventId, EventId) {
        let mut g = EventGraph::new();
        let e0 = g.add_root();
        let e1 = g.push(EventKind::Delay {
            pred: e0,
            cycles: 2,
        });
        let e2 = g.push(EventKind::Sync {
            pred: e1,
            msg: msg("ep", "m"),
            is_send: false,
            min_delay: 0,
            max_delay: None,
        });
        let e3 = g.push(EventKind::Delay {
            pred: e2,
            cycles: 1,
        });
        (g, e0, e1, e2, e3)
    }

    #[test]
    fn chain_ordering() {
        let (g, e0, e1, e2, e3) = chain();
        assert!(g.le(e0, e1));
        assert!(g.lt(e0, e1));
        assert!(g.le(e1, e2)); // sync takes >= 0 cycles
        assert!(!g.lt(e1, e2)); // could be 0
        assert!(g.lt(e2, e3));
        assert!(g.le(e0, e3));
        assert!(!g.le(e3, e0));
        assert_eq!(g.min_gap(e0, e3), Some(3));
        assert_eq!(g.max_gap(e0, e3), None); // dynamic sync unbounded
        assert_eq!(g.max_gap(e0, e1), Some(2));
    }

    #[test]
    fn bounded_sync_gives_max_gap() {
        let mut g = EventGraph::new();
        let e0 = g.add_root();
        let e1 = g.push(EventKind::Sync {
            pred: e0,
            msg: msg("ep", "m"),
            is_send: true,
            min_delay: 0,
            max_delay: Some(2),
        });
        let e2 = g.push(EventKind::Delay {
            pred: e0,
            cycles: 3,
        });
        // e1 happens within [0,2] of e0; e2 exactly 3 after: e1 < e2 always.
        assert!(g.lt(e1, e2));
        assert!(!g.le(e2, e1));
    }

    #[test]
    fn join_all_is_latest() {
        let mut g = EventGraph::new();
        let e0 = g.add_root();
        let a = g.push(EventKind::Delay {
            pred: e0,
            cycles: 1,
        });
        let b = g.push(EventKind::Sync {
            pred: e0,
            msg: msg("ep", "m"),
            is_send: false,
            min_delay: 0,
            max_delay: None,
        });
        let j = g.push(EventKind::JoinAll { preds: vec![a, b] });
        assert!(g.le(a, j));
        assert!(g.le(b, j));
        assert!(g.le(e0, j));
        // j is not bounded above relative to a (b may be late).
        assert_eq!(g.max_gap(a, j), None);
        assert_eq!(g.min_gap(e0, j), Some(1));
    }

    #[test]
    fn join_any_is_taken_branch() {
        let mut g = EventGraph::new();
        let e0 = g.add_root();
        let c = g.fresh_cond();
        let bt = g.push(EventKind::Branch {
            pred: e0,
            cond: c,
            taken: true,
        });
        let bf = g.push(EventKind::Branch {
            pred: e0,
            cond: c,
            taken: false,
        });
        let t_end = g.push(EventKind::Delay {
            pred: bt,
            cycles: 3,
        });
        let f_end = g.push(EventKind::Delay {
            pred: bf,
            cycles: 1,
        });
        let m = g.push(EventKind::JoinAny {
            preds: vec![t_end, f_end],
        });
        assert!(g.le(e0, m));
        assert_eq!(g.min_gap(e0, m), Some(1));
        assert_eq!(g.max_gap(e0, m), Some(3));
        let after = g.push(EventKind::Delay { pred: m, cycles: 0 });
        assert!(g.le(e0, after));
        // Branch contexts: t_end is guarded, m is not.
        assert_eq!(g.context(t_end).len(), 1);
        assert_eq!(g.context(m).len(), 0);
        assert!(g.always_follows(e0, m));
        assert!(!g.always_follows(e0, t_end));
        assert!(g.always_follows(bt, t_end));
    }

    #[test]
    fn join_any_with_no_side_live_from_the_reference_is_unbounded_from_it() {
        // From `t` (cond taken), both sides of `j` contradict `t`'s guard:
        // `j` never fires with `t`, so `t`'s row bounds nothing for `j`,
        // and only `s`'s row bounds τ(j) − τ(t).
        let mut g = EventGraph::new();
        let e0 = g.add_root();
        let s = g.push(EventKind::Sync {
            pred: e0,
            msg: msg("ep", "m"),
            is_send: false,
            min_delay: 0,
            max_delay: None,
        });
        let c = g.fresh_cond();
        let t = g.push(EventKind::Branch {
            pred: s,
            cond: c,
            taken: true,
        });
        let f = g.push(EventKind::Branch {
            pred: s,
            cond: c,
            taken: false,
        });
        let f5 = g.push(EventKind::Delay { pred: f, cycles: 5 });
        let t_never = g.push(EventKind::Branch {
            pred: t,
            cond: c,
            taken: false,
        });
        let j = g.push(EventKind::JoinAny {
            preds: vec![t_never, f5],
        });
        assert_eq!(g.max_gap(t, j), Some(5));
        assert_eq!(g.min_gap(t, j), Some(0));
    }

    #[test]
    fn pattern_comparisons() {
        let (g, e0, e1, e2, _e3) = chain();
        // e0 ⊲ #2 == e1 exactly.
        assert!(g.le_pattern(&Pattern::cycles(e0, 2), &Pattern::cycles(e1, 0)));
        assert!(g.le_pattern(&Pattern::cycles(e1, 0), &Pattern::cycles(e0, 2)));
        // e0 ⊲ #1 < e1 ⊲ #1
        assert!(g.le_pattern(&Pattern::cycles(e0, 1), &Pattern::cycles(e1, 1)));
        assert!(!g.le_pattern(&Pattern::cycles(e1, 1), &Pattern::cycles(e0, 1)));
        // #k ≤ base ⊲ msg when #k ≤ base.
        let m = msg("ep", "m");
        assert!(g.le_pattern(&Pattern::cycles(e0, 2), &Pattern::msg(e1, m)));
        // first-m-after monotone in base.
        assert!(g.le_pattern(&Pattern::msg(e0, m), &Pattern::msg(e1, m)));
        // m-sync e2 always follows e0, so e0 ⊲ m ≤ e2 ⊲ #0-style bounds.
        assert!(g.le_pattern(&Pattern::msg(e0, m), &Pattern::cycles(e2, 0)));
        assert!(g.le_pattern(&Pattern::msg(e0, m), &Pattern::cycles(e2, 5)));
    }

    #[test]
    fn pattern_sets_earliest_semantics() {
        let (g, e0, e1, _e2, _e3) = chain();
        let a = vec![Pattern::cycles(e0, 1), Pattern::cycles(e1, 5)];
        let b = vec![Pattern::cycles(e1, 0)];
        // earliest(a) ≤ e0+1 ≤ e1 = earliest(b)
        assert!(g.le_pattern_sets(&a, &b));
        // Eternal on the right: anything ≤ ∞.
        assert!(g.le_pattern_sets(&a, &[]));
        // Eternal on the left only beats eternal.
        assert!(!g.le_pattern_sets(&[], &b));
        assert!(g.le_pattern_sets(&[], &[]));
    }

    #[test]
    fn sampled_timestamps_respect_graph() {
        let (g, e0, _e1, e2, e3) = chain();
        let tau = g.sample_timestamps(|_| 7, |_| true);
        assert_eq!(tau[e0.0], Some(0));
        assert_eq!(tau[e2.0], Some(9));
        assert_eq!(tau[e3.0], Some(10));
    }

    #[test]
    fn dot_output() {
        let (g, ..) = chain();
        let dot = g.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("recv ep.m"));
    }
}

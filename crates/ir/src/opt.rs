//! Event-graph optimization passes (paper §6.1, Fig. 8).
//!
//! Each pass shrinks the event graph while preserving its timing semantics;
//! fewer events mean a smaller generated FSM. The four passes from the
//! paper are implemented, plus a dead-event sweep used as cleanup:
//!
//! * **(a) merge identical outbound edge labels** — two `#N` delays (or two
//!   synchronisations of the same message) hanging off the same predecessor
//!   always fire together, so they are one event;
//! * **(b) remove unbalanced joins** — a latest-of join where one input
//!   provably never trails the other collapses to the later input;
//! * **(c) shift branch joins** — `⊕{a ⊲ #N, b ⊲ #N}` with action-free
//!   delay events becomes `(⊕{a, b}) ⊲ #N`;
//! * **(d) remove branch joins** — a `⊕` joining two zero-delay branches of
//!   the same condition fires exactly when the branch point does.
//!
//! Passes run to a fixed point via [`optimize`]; [`OptStats`] records how
//! many events each pass removed (regenerating the Fig. 8 ablation).

use std::collections::HashMap;

use crate::build::{ActionIr, ThreadIr};
use crate::graph::{EventGraph, EventId, EventKind};
use crate::value::Val;

/// How many events each pass eliminated during [`optimize`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Events before optimization.
    pub before: usize,
    /// Events after optimization.
    pub after: usize,
    /// Removed by pass (a): merging identical outbound edges.
    pub merged_identical: usize,
    /// Removed by pass (b): unbalanced join removal.
    pub unbalanced_joins: usize,
    /// Removed by pass (c): branch-join shifting.
    pub shifted_joins: usize,
    /// Removed by pass (d): branch-join removal.
    pub removed_joins: usize,
    /// Removed by the dead-event sweep.
    pub dead: usize,
}

/// Which passes to run (for the ablation bench).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptConfig {
    /// Enable pass (a).
    pub merge_identical: bool,
    /// Enable pass (b).
    pub remove_unbalanced: bool,
    /// Enable pass (c).
    pub shift_branch_joins: bool,
    /// Enable pass (d).
    pub remove_branch_joins: bool,
    /// Enable the dead-event sweep.
    pub sweep_dead: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            merge_identical: true,
            remove_unbalanced: true,
            shift_branch_joins: true,
            remove_branch_joins: true,
            sweep_dead: true,
        }
    }
}

impl OptConfig {
    /// All passes disabled (identity transform).
    pub fn none() -> Self {
        OptConfig {
            merge_identical: false,
            remove_unbalanced: false,
            shift_branch_joins: false,
            remove_branch_joins: false,
            sweep_dead: false,
        }
    }
}

/// Optimizes a thread IR to a fixed point, returning the new IR and stats.
///
/// The passes read and rewrite only the event graph and the set of pinned
/// events (those carrying actions, conditions or handshakes); each
/// rewrite reports where every old event went. The composed map is
/// applied to the thread's actions and conditions once, at the end, in
/// place.
///
/// The returned IR carries no check sites: `uses`, `sends`, `assigns`
/// and `ready_checks` are empty. They are for the type checker, which
/// reads them before optimization, and lowering never does.
pub fn optimize(mut ir: ThreadIr, config: OptConfig) -> (ThreadIr, OptStats) {
    let mut stats = OptStats {
        before: ir.graph.len(),
        ..OptStats::default()
    };
    let pins = pinned(&ir);
    let map = (0..ir.graph.len()).map(EventId).collect();
    let mut cur = Current {
        graph: std::mem::take(&mut ir.graph),
        pins,
        map,
    };
    loop {
        let mut changed = false;
        if config.merge_identical {
            let n = cur.apply(merge_identical(&cur.graph));
            stats.merged_identical += n;
            changed |= n > 0;
        }
        if config.remove_unbalanced {
            let n = cur.apply(remove_unbalanced(&cur.graph));
            stats.unbalanced_joins += n;
            changed |= n > 0;
        }
        if config.shift_branch_joins {
            let n = cur.apply(shift_branch_joins(&cur.graph, &cur.pins));
            stats.shifted_joins += n;
            changed |= n > 0;
        }
        if config.remove_branch_joins {
            let n = cur.apply(remove_branch_joins(&cur.graph, &cur.pins));
            stats.removed_joins += n;
            changed |= n > 0;
        }
        if !changed {
            break;
        }
    }
    if config.sweep_dead {
        stats.dead = cur.apply(sweep_dead(&cur.graph, &cur.pins));
    }
    stats.after = cur.graph.len();
    let map = cur.map;
    ir.graph = cur.graph;
    // Optimized IR lives on in the query cache and lowering asks no
    // timing queries: drop the gap rows and the builder's spare capacity.
    ir.graph.shrink_to_fit();
    ir.actions.shrink_to_fit();
    ir.conds.shrink_to_fit();
    ir.uses = Vec::new();
    ir.sends = Vec::new();
    ir.assigns = Vec::new();
    ir.ready_checks = Vec::new();
    remap_events(&mut ir, |e| map[e.0]);
    (ir, stats)
}

/// The graph being optimized, its pinned events, and where each event of
/// the input graph sits in it.
struct Current {
    graph: EventGraph,
    pins: Vec<bool>,
    map: Vec<EventId>,
}

impl Current {
    /// Adopts a pass's rewrite (if any); returns the events it removed.
    fn apply(&mut self, rewrite: Option<Rewrite>) -> usize {
        let Some(Rewrite {
            graph,
            map,
            removed,
        }) = rewrite
        else {
            return 0;
        };
        let mut pins = vec![false; graph.len()];
        for (old, pinned) in self.pins.iter().enumerate() {
            if *pinned {
                pins[map[old].0] = true;
            }
        }
        for e in &mut self.map {
            *e = map[e.0];
        }
        self.pins = pins;
        self.graph = graph;
        removed
    }
}

/// A pass's output: the rewritten graph, the new id of every old event,
/// and how many events the pass removed.
struct Rewrite {
    graph: EventGraph,
    map: Vec<EventId>,
    removed: usize,
}

/// Moves every event reference of the thread (outside its graph) through
/// `m`.
fn remap_events(ir: &mut ThreadIr, m: impl Fn(EventId) -> EventId) {
    let m = &m;
    ir.root = m(ir.root);
    ir.finish = m(ir.finish);
    for (e, a) in &mut ir.actions {
        *e = m(*e);
        match a {
            ActionIr::Assign { index, value, .. } => {
                if let Some(i) = index {
                    remap_val(i, m);
                }
                remap_val(value, m);
            }
            ActionIr::SendData { value, done, .. } => {
                remap_val(value, m);
                *done = m(*done);
            }
            ActionIr::DPrint { value, .. } => {
                if let Some(v) = value {
                    remap_val(v, m);
                }
            }
            ActionIr::Recurse => {}
        }
    }
    for c in &mut ir.conds {
        remap_val(&mut c.val, m);
        c.at = m(c.at);
    }
}

fn remap_val(v: &mut Val, m: &impl Fn(EventId) -> EventId) {
    match v {
        Val::MsgData { recv, .. } => *recv = m(*recv),
        Val::Binop(_, a, b) => {
            remap_val(a, m);
            remap_val(b, m);
        }
        Val::Unop(_, a) | Val::Slice { base: a, .. } => remap_val(a, m),
        Val::Concat(parts) | Val::ExternCall { args: parts, .. } => {
            parts.iter_mut().for_each(|p| remap_val(p, m))
        }
        Val::Mux { then_v, else_v, .. } => {
            remap_val(then_v, m);
            remap_val(else_v, m);
        }
        Val::RegRead { index: Some(i), .. } => remap_val(i, m),
        Val::RegRead { index: None, .. } | Val::Const { .. } | Val::Unit | Val::Ready { .. } => {}
    }
}

/// Events that must not be removed even when structurally idle: they carry
/// actions, conditions, or handshakes.
fn pinned(ir: &ThreadIr) -> Vec<bool> {
    let mut p = vec![false; ir.graph.len()];
    p[ir.root.0] = true;
    p[ir.finish.0] = true;
    for (e, a) in &ir.actions {
        p[e.0] = true;
        if let ActionIr::SendData { done, .. } = a {
            p[done.0] = true;
        }
    }
    for c in &ir.conds {
        p[c.at.0] = true;
    }
    for (id, k) in ir.graph.iter() {
        if matches!(k, EventKind::Sync { .. }) {
            p[id.0] = true;
        }
    }
    p
}

/// A graph with the same conditions as `g` and no events yet.
fn empty_like(g: &EventGraph) -> EventGraph {
    let mut graph = EventGraph::new();
    for _ in 0..g.cond_count() {
        graph.fresh_cond();
    }
    graph
}

/// Rebuilds the graph keeping every event, but with `alias[e] = Some(t)`
/// redirecting `e` (and its dependents) to target `t < e`.
///
/// Returns `None` when the rebuild would reproduce `g` exactly: nothing
/// is aliased and every latest-of join already lists distinct
/// predecessors in ascending order.
fn rebuild_with_aliases(g: &EventGraph, alias: &HashMap<usize, EventId>) -> Option<Rewrite> {
    let canonical = g.iter().all(|(_, k)| match k {
        EventKind::JoinAll { preds } => preds.windows(2).all(|w| w[0] < w[1]),
        _ => true,
    });
    if alias.is_empty() && canonical {
        return None;
    }
    let mut graph = empty_like(g);
    let mut map: Vec<EventId> = Vec::with_capacity(g.len());
    let mut removed = 0;
    for (id, kind) in g.iter() {
        if let Some(target) = alias.get(&id.0) {
            map.push(map[target.0]);
            removed += 1;
            continue;
        }
        let remapped = remap_kind(kind, &map);
        map.push(graph.push(remapped));
    }
    Some(Rewrite {
        graph,
        map,
        removed,
    })
}

fn remap_kind(kind: &EventKind, map: &[EventId]) -> EventKind {
    match kind {
        EventKind::Root => EventKind::Root,
        EventKind::Delay { pred, cycles } => EventKind::Delay {
            pred: map[pred.0],
            cycles: *cycles,
        },
        EventKind::Sync {
            pred,
            msg,
            is_send,
            min_delay,
            max_delay,
        } => EventKind::Sync {
            pred: map[pred.0],
            msg: *msg,
            is_send: *is_send,
            min_delay: *min_delay,
            max_delay: *max_delay,
        },
        EventKind::Branch { pred, cond, taken } => EventKind::Branch {
            pred: map[pred.0],
            cond: *cond,
            taken: *taken,
        },
        EventKind::JoinAll { preds } => EventKind::JoinAll {
            preds: dedup(preds.iter().map(|p| map[p.0]).collect()),
        },
        EventKind::JoinAny { preds } => EventKind::JoinAny {
            preds: preds.iter().map(|p| map[p.0]).collect(),
        },
    }
}

fn dedup(mut v: Vec<EventId>) -> Vec<EventId> {
    v.sort();
    v.dedup();
    v
}

/// Pass (a): merge events with identical kinds (same predecessor, same
/// label). They provably fire at the same time.
fn merge_identical(g: &EventGraph) -> Option<Rewrite> {
    let mut seen: HashMap<&EventKind, EventId> = HashMap::new();
    let mut alias: HashMap<usize, EventId> = HashMap::new();
    for (id, kind) in g.iter() {
        let mergeable = matches!(
            kind,
            EventKind::Delay { .. } | EventKind::Branch { .. } | EventKind::JoinAll { .. }
        );
        if !mergeable {
            continue;
        }
        match seen.get(kind) {
            Some(first) => {
                alias.insert(id.0, *first);
            }
            None => {
                seen.insert(kind, id);
            }
        }
    }
    rebuild_with_aliases(g, &alias)
}

/// Pass (b): a `JoinAll` where one input never trails another is the later
/// input alone.
fn remove_unbalanced(g: &EventGraph) -> Option<Rewrite> {
    let mut alias: HashMap<usize, EventId> = HashMap::new();
    for (id, kind) in g.iter() {
        let EventKind::JoinAll { preds } = kind else {
            continue;
        };
        if preds.len() != 2 {
            continue;
        }
        let (a, b) = (preds[0], preds[1]);
        if g.le(a, b) {
            alias.insert(id.0, b);
        } else if g.le(b, a) {
            alias.insert(id.0, a);
        }
    }
    rebuild_with_aliases(g, &alias)
}

/// Pass (c): `⊕{Delay(a,N), Delay(b,N)}` with action-free delays becomes
/// `Delay(⊕{a,b}, N)`.
fn shift_branch_joins(g: &EventGraph, pins: &[bool]) -> Option<Rewrite> {
    // Find one candidate per run (rebuilding invalidates indices).
    let mut candidate: Option<(usize, EventId, EventId, u64)> = None;
    for (id, kind) in g.iter() {
        let EventKind::JoinAny { preds } = kind else {
            continue;
        };
        if preds.len() != 2 {
            continue;
        }
        let (a, b) = (preds[0], preds[1]);
        let (
            EventKind::Delay {
                pred: pa,
                cycles: na,
            },
            EventKind::Delay {
                pred: pb,
                cycles: nb,
            },
        ) = (g.kind(a), g.kind(b))
        else {
            continue;
        };
        if na != nb || *na == 0 || pins[a.0] || pins[b.0] {
            continue;
        }
        candidate = Some((id.0, *pa, *pb, *na));
        break;
    }
    let (join_idx, pa, pb, n) = candidate?;
    // Rebuild: at the join, emit ⊕{pa, pb} then a delay.
    let mut graph = empty_like(g);
    let mut map: Vec<EventId> = Vec::with_capacity(g.len());
    for (id, kind) in g.iter() {
        if id.0 == join_idx {
            let j = graph.push(EventKind::JoinAny {
                preds: vec![map[pa.0], map[pb.0]],
            });
            map.push(graph.push(EventKind::Delay { pred: j, cycles: n }));
        } else {
            let remapped = remap_kind(kind, &map);
            map.push(graph.push(remapped));
        }
    }
    Some(Rewrite {
        graph,
        map,
        removed: 1,
    })
}

/// Pass (d): a `⊕` joining two action-free branch heads of the same
/// condition fires with the branch point itself.
fn remove_branch_joins(g: &EventGraph, pins: &[bool]) -> Option<Rewrite> {
    let mut alias: HashMap<usize, EventId> = HashMap::new();
    for (id, kind) in g.iter() {
        let EventKind::JoinAny { preds } = kind else {
            continue;
        };
        if preds.len() != 2 {
            continue;
        }
        let (a, b) = (preds[0], preds[1]);
        let (
            EventKind::Branch {
                pred: pa, cond: ca, ..
            },
            EventKind::Branch {
                pred: pb, cond: cb, ..
            },
        ) = (g.kind(a), g.kind(b))
        else {
            continue;
        };
        if pa == pb && ca == cb && !pins[a.0] && !pins[b.0] {
            alias.insert(id.0, *pa);
        }
    }
    rebuild_with_aliases(g, &alias)
}

/// Cleanup: drop events nothing observes (no dependents, no actions, no
/// handshakes, not root/finish).
fn sweep_dead(g: &EventGraph, pins: &[bool]) -> Option<Rewrite> {
    let mut live = pins.to_vec();
    // Backward closure: predecessors of live events are live.
    for i in (0..g.len()).rev() {
        if live[i] {
            for p in g.kind(EventId(i)).preds() {
                live[p.0] = true;
            }
        }
    }
    if live.iter().all(|l| *l) {
        return None;
    }
    let mut graph = empty_like(g);
    let mut map: Vec<EventId> = Vec::with_capacity(g.len());
    let mut removed = 0;
    for (id, kind) in g.iter() {
        if !live[id.0] {
            // Dead events keep a placeholder mapping to their (live)
            // predecessor chain; they are never referenced.
            let fallback = kind.preds().first().map(|p| map[p.0]).unwrap_or(EventId(0));
            map.push(fallback);
            removed += 1;
            continue;
        }
        let remapped = remap_kind(kind, &map);
        map.push(graph.push(remapped));
    }
    Some(Rewrite {
        graph,
        map,
        removed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_thread, BuildCtx};
    use anvil_syntax::{parse, Thread};

    fn build(src: &str) -> ThreadIr {
        let prog = parse(src).unwrap();
        let proc = &prog.procs[0];
        let ctx = BuildCtx {
            program: &prog,
            proc,
        };
        let (Thread::Loop(term) | Thread::Recursive(term)) = &proc.threads[0];
        build_thread(&ctx, term, 1, false).unwrap()
    }

    #[test]
    fn optimize_preserves_iteration_length() {
        let src = "chan c { left m : (logic[8]@#4) }
            proc p(ep : left c) {
                reg r : logic[8];
                loop {
                    let x = recv ep.m >>
                    if x == 0 { set r := x } else { set r := x + 1 } >>
                    cycle 1
                }
            }";
        let ir = build(src);
        let (opt, stats) = optimize(ir.clone(), OptConfig::default());
        assert!(stats.after <= stats.before);
        // Root-to-finish timing must be identical.
        assert_eq!(
            ir.graph.min_gap(ir.root, ir.finish),
            opt.graph.min_gap(opt.root, opt.finish)
        );
        assert_eq!(
            ir.graph.max_gap(ir.root, ir.finish),
            opt.graph.max_gap(opt.root, opt.finish)
        );
    }

    #[test]
    fn optimized_ir_carries_no_check_sites() {
        let src = "chan c { left m : (logic[8]@#4), right res : (logic[8]@#1) }
            proc p(ep : left c) {
                reg r : logic[8];
                loop { let x = recv ep.m >> set r := x >> send ep.res (*r) >> cycle 1 }
            }";
        let ir = build(src);
        assert!(!ir.uses.is_empty() && !ir.sends.is_empty() && !ir.assigns.is_empty());
        let (opt, _) = optimize(ir, OptConfig::default());
        assert!(opt.uses.is_empty() && opt.sends.is_empty());
        assert!(opt.assigns.is_empty() && opt.ready_checks.is_empty());
    }

    #[test]
    fn pass_a_merges_same_delay() {
        // Two parallel `cycle 2` branches produce identical Delay events.
        let src = "proc p() {
                reg r : logic[8];
                loop { (cycle 2); (cycle 2) >> set r := 1 }
            }";
        let ir = build(src);
        let (_, stats) = optimize(
            ir,
            OptConfig {
                remove_unbalanced: false,
                shift_branch_joins: false,
                remove_branch_joins: false,
                sweep_dead: false,
                ..OptConfig::default()
            },
        );
        assert!(stats.merged_identical >= 1);
    }

    #[test]
    fn pass_b_removes_join_of_ordered_events() {
        // The builder already collapses obviously ordered joins, so build
        // the unbalanced join by hand (as earlier passes can produce it).
        use crate::graph::EventGraph;
        let mut graph = EventGraph::new();
        let root = graph.add_root();
        let a = graph.push(EventKind::Delay {
            pred: root,
            cycles: 1,
        });
        let b = graph.push(EventKind::Delay {
            pred: root,
            cycles: 2,
        });
        let j = graph.push(EventKind::JoinAll { preds: vec![a, b] });
        let finish = graph.push(EventKind::Delay { pred: j, cycles: 1 });
        let ir = ThreadIr {
            graph,
            root,
            finish,
            actions: vec![],
            conds: vec![],
            uses: vec![],
            sends: vec![],
            assigns: vec![],
            ready_checks: vec![],
            is_recursive: false,
        };
        let n_joins = |ir: &ThreadIr| {
            ir.graph
                .iter()
                .filter(|(_, k)| matches!(k, EventKind::JoinAll { .. }))
                .count()
        };
        assert_eq!(n_joins(&ir), 1);
        let (opt, stats) = optimize(ir, OptConfig::default());
        assert_eq!(n_joins(&opt), 0);
        assert!(stats.unbalanced_joins >= 1);
        assert_eq!(opt.graph.min_gap(opt.root, opt.finish), Some(3));
        assert_eq!(opt.graph.max_gap(opt.root, opt.finish), Some(3));
    }

    #[test]
    fn pass_cd_collapse_balanced_branches() {
        // Both branches are action-free and equal-length: the whole if
        // should reduce to (nearly) nothing.
        let src = "chan c { left m : (logic[8]@#4) }
            proc p(ep : left c) {
                reg r : logic[8];
                loop {
                    let x = recv ep.m >>
                    if x == 0 { cycle 2 } else { cycle 2 } >>
                    set r := x
                }
            }";
        let ir = build(src);
        let (opt, stats) = optimize(ir.clone(), OptConfig::default());
        assert!(stats.shifted_joins >= 1 || stats.removed_joins >= 1);
        assert!(opt.graph.len() < ir.graph.len());
        // recv (>=0) + if (2) + assign (1)
        assert_eq!(opt.graph.min_gap(opt.root, opt.finish), Some(3));
    }

    #[test]
    fn disabled_config_is_identity() {
        let src = "proc p() { reg r : logic[8]; loop { set r := *r + 1 >> cycle 1 } }";
        let ir = build(src);
        let (opt, stats) = optimize(ir.clone(), OptConfig::none());
        assert_eq!(stats.before, stats.after);
        assert_eq!(opt.graph.len(), ir.graph.len());
    }

    #[test]
    fn timing_preserved_under_random_latency_samples() {
        let src = "chan c { left m : (logic[8]@#4), right res : (logic[8]@#1) }
            proc p(ep : left c) {
                reg r : logic[8];
                loop {
                    let x = recv ep.m >>
                    if x == 0 { cycle 1 >> set r := x } else { set r := x + 1 } >>
                    send ep.res (*r) >>
                    cycle 1
                }
            }";
        let ir = build(src);
        let (opt, _) = optimize(ir.clone(), OptConfig::default());
        // Same sync delays and same branch decisions must give the same
        // finish time in both graphs.
        for delays in [[0u64, 0], [3, 1], [7, 2]] {
            for taken in [true, false] {
                let t1 = {
                    let mut i = 0;
                    ir.graph.sample_timestamps(
                        |_| {
                            i += 1;
                            delays[(i - 1) % 2]
                        },
                        |_| taken,
                    )[ir.finish.0]
                };
                let t2 = {
                    let mut i = 0;
                    opt.graph.sample_timestamps(
                        |_| {
                            i += 1;
                            delays[(i - 1) % 2]
                        },
                        |_| taken,
                    )[opt.finish.0]
                };
                assert_eq!(t1, t2, "delays {delays:?} taken {taken}");
            }
        }
    }
}

//! Property test: the event graph's gap table, extended on demand as the
//! graph grows, answers every `min_gap`/`max_gap` query exactly like a
//! direct recomputation from the graph as it stands ([`Reference`]).
//!
//! Queries run between pushes, so later pushes extend rows that earlier
//! queries started. The generator also leaves branches open, reuses
//! conditions and merges any two events with `⊕`, so joins range over
//! contradictory branches, or over no side compatible with a reference.

mod common;

use anvil_ir::{CondId, EventGraph, EventId, EventKind, MsgRef};
use common::Reference;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Delay {
        pred: usize,
        cycles: u64,
    },
    Sync {
        pred: usize,
        bounded: Option<u64>,
    },
    /// Both sides of a condition, left open: a fresh one, or one already
    /// branched on (so a side can contradict a guard above it).
    Branch {
        pred: usize,
        cond: usize,
    },
    JoinAll {
        a: usize,
        b: usize,
    },
    JoinAny {
        a: usize,
        b: usize,
    },
}

fn index() -> impl Strategy<Value = usize> {
    any::<prop::sample::Index>().prop_map(|i| i.index(usize::MAX))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (index(), 0u64..4).prop_map(|(pred, cycles)| Op::Delay { pred, cycles }),
        (index(), prop::option::of(0u64..3)).prop_map(|(pred, bounded)| Op::Sync { pred, bounded }),
        (index(), index()).prop_map(|(pred, cond)| Op::Branch { pred, cond }),
        (index(), index()).prop_map(|(a, b)| Op::JoinAll { a, b }),
        (index(), index()).prop_map(|(a, b)| Op::JoinAny { a, b }),
    ]
}

/// Applies `op` to `g`; every new event joins `pool`, the events later
/// ops pick from.
fn apply(g: &mut EventGraph, pool: &mut Vec<EventId>, op: &Op) {
    let pick = |i: &usize| pool[i % pool.len()];
    let new: Vec<EventKind> = match op {
        Op::Delay { pred, cycles } => vec![EventKind::Delay {
            pred: pick(pred),
            cycles: *cycles,
        }],
        Op::Sync { pred, bounded } => vec![EventKind::Sync {
            pred: pick(pred),
            msg: MsgRef::new("ep", "m"),
            is_send: false,
            min_delay: 0,
            max_delay: *bounded,
        }],
        Op::Branch { pred, cond } => {
            let c = match cond % (g.cond_count() + 1) {
                k if k == g.cond_count() => g.fresh_cond(),
                k => CondId(k),
            };
            [true, false]
                .map(|taken| EventKind::Branch {
                    pred: pick(pred),
                    cond: c,
                    taken,
                })
                .to_vec()
        }
        Op::JoinAll { a, b } | Op::JoinAny { a, b } if pick(a) == pick(b) => vec![],
        Op::JoinAll { a, b } => vec![EventKind::JoinAll {
            preds: vec![pick(a), pick(b)],
        }],
        Op::JoinAny { a, b } => vec![EventKind::JoinAny {
            preds: vec![pick(a), pick(b)],
        }],
    };
    for kind in new {
        let e = g.push(kind);
        pool.push(e);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gap_table_matches_the_reference_between_pushes(
        ops in prop::collection::vec(op_strategy(), 1..16),
        probes in prop::collection::vec((index(), index()), 16),
    ) {
        let mut g = EventGraph::new();
        let mut pool = vec![g.add_root()];
        for (i, op) in ops.iter().enumerate() {
            apply(&mut g, &mut pool, op);
            // A few queries after every op extend table rows to
            // different lengths; later pushes must leave them valid.
            let reference = Reference::new(&g);
            let newest = EventId(g.len() - 1);
            let (a, b) = probes[i % probes.len()];
            let (a, b) = (EventId(a % g.len()), EventId(b % g.len()));
            reference.check_pair(&g, a, b, "between pushes");
            reference.check_pair(&g, a, newest, "between pushes");
            reference.check_pair(&g, newest, b, "between pushes");
        }
        Reference::new(&g).check_all(&g, "finished graph");
    }
}

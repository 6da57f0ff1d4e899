//! The per-reference gap computation of App. C.3.1 written out directly:
//! for every candidate common ancestor `r`, propagate min/max bounds
//! forward over the whole graph, then combine them per query. The event
//! graph answers the same queries from an incrementally extended table;
//! this is the slow, obviously-faithful reference that its answers are
//! compared against.

use anvil_ir::{EventGraph, EventId, EventKind};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Min,
    Max,
}

/// Gap vectors from every event of one graph snapshot.
pub struct Reference {
    lo: Vec<Vec<Option<i64>>>,
    hi: Vec<Vec<Option<i64>>>,
}

impl Reference {
    /// Computes both gap vectors from every event of `g` as it stands.
    pub fn new(g: &EventGraph) -> Reference {
        let from = |mode| (0..g.len()).map(|r| gaps(g, EventId(r), mode)).collect();
        Reference {
            lo: from(Mode::Min),
            hi: from(Mode::Max),
        }
    }

    /// Reference lower bound on `τ(b) − τ(a)`.
    pub fn min_gap(&self, a: EventId, b: EventId) -> Option<i64> {
        let mut best: Option<i64> = None;
        for r in 0..self.lo.len() {
            if r > a.0 && r > b.0 {
                break;
            }
            if let (Some(lb), Some(ha)) = (self.lo[r][b.0], self.hi[r][a.0]) {
                let cand = lb - ha;
                best = Some(best.map_or(cand, |x| x.max(cand)));
            }
        }
        best
    }

    /// Reference upper bound on `τ(b) − τ(a)`.
    pub fn max_gap(&self, a: EventId, b: EventId) -> Option<i64> {
        let mut best: Option<i64> = None;
        for r in 0..self.lo.len() {
            if r > a.0 && r > b.0 {
                break;
            }
            if let (Some(hb), Some(la)) = (self.hi[r][b.0], self.lo[r][a.0]) {
                let cand = hb - la;
                best = Some(best.map_or(cand, |x| x.min(cand)));
            }
        }
        best
    }

    /// Asserts that `g` answers `min_gap`/`max_gap` like the reference for
    /// the pair `(a, b)`.
    pub fn check_pair(&self, g: &EventGraph, a: EventId, b: EventId, what: &str) {
        assert_eq!(
            g.min_gap(a, b),
            self.min_gap(a, b),
            "{what}: min_gap(e{}, e{})\n{}",
            a.0,
            b.0,
            g.to_dot()
        );
        assert_eq!(
            g.max_gap(a, b),
            self.max_gap(a, b),
            "{what}: max_gap(e{}, e{})\n{}",
            a.0,
            b.0,
            g.to_dot()
        );
    }

    /// [`Reference::check_pair`] on every ordered pair of events.
    pub fn check_all(&self, g: &EventGraph, what: &str) {
        for a in 0..g.len() {
            for b in 0..g.len() {
                self.check_pair(g, EventId(a), EventId(b), what);
            }
        }
    }
}

fn gaps(g: &EventGraph, from: EventId, mode: Mode) -> Vec<Option<i64>> {
    let mut gap: Vec<Option<i64>> = vec![None; g.len()];
    gap[from.0] = Some(0);
    // Conditioned on `from` occurring, events on contradictory branches
    // never fire; joins range over the compatible predecessors only.
    let compatible = |p: &EventId| !g.contexts_disjoint(*p, from);
    for i in 0..g.len() {
        if i == from.0 {
            continue;
        }
        gap[i] = match g.kind(EventId(i)) {
            EventKind::Root => None,
            EventKind::Delay { pred, cycles } => gap[pred.0].map(|x| x + *cycles as i64),
            EventKind::Sync {
                pred,
                min_delay,
                max_delay,
                ..
            } => match mode {
                Mode::Min => gap[pred.0].map(|x| x + *min_delay as i64),
                Mode::Max => max_delay.and_then(|d| gap[pred.0].map(|x| x + d as i64)),
            },
            EventKind::Branch { pred, .. } => gap[pred.0],
            EventKind::JoinAll { preds } => match mode {
                Mode::Min => preds.iter().filter_map(|p| gap[p.0]).max(),
                Mode::Max => preds
                    .iter()
                    .map(|p| gap[p.0])
                    .collect::<Option<Vec<_>>>()
                    .and_then(|v| v.into_iter().max()),
            },
            EventKind::JoinAny { preds } => {
                let live: Option<Vec<i64>> = preds
                    .iter()
                    .filter(|p| compatible(p))
                    .map(|p| gap[p.0])
                    .collect();
                match (live, mode) {
                    (Some(v), Mode::Min) => v.into_iter().min(),
                    (Some(v), Mode::Max) => v.into_iter().max(),
                    (None, _) => None,
                }
            }
        };
    }
    gap
}

//! A bounded model checker over flattened netlists (paper Appendix A).
//!
//! The paper contrasts Anvil's instant, compositional type check against
//! verification of the same property on the generated RTL: bounded model
//! checking "fails to report a violation even at large depths because of
//! the prohibitive size of the model". This module reproduces that
//! comparison: an explicit-state breadth-first model checker that unrolls
//! the design cycle by cycle, branching over all input assignments, and
//! checks a 1-bit assertion expression each cycle.
//!
//! On Appendix A's Listing 1/2 design — where the violation needs the
//! 32-bit counter to pass `0x100000` — the checker exhausts any realistic
//! depth/state budget without finding the bug, while `anvil-typeck`
//! rejects the source immediately.

use std::collections::HashSet;

use anvil_rtl::{Bits, Expr, Module};
use anvil_sim::{Backend, Sim, SimError};

use crate::prove::trace_inputs;

/// Outcome of a bounded model-checking run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BmcResult {
    /// The assertion can be violated; the input trace (one vector of input
    /// values per cycle) reproduces it.
    Violation {
        /// Depth at which the violation occurs.
        depth: usize,
        /// Input assignments per cycle, in port order.
        trace: Vec<Vec<u64>>,
    },
    /// No violation within the given depth.
    ExhaustedDepth {
        /// States explored.
        states: usize,
    },
    /// The state budget ran out before the depth bound.
    ExhaustedStates {
        /// Depth reached when the budget ran out.
        depth: usize,
    },
}

/// Bounded model checking statistics.
#[derive(Clone, Debug, Default)]
pub struct BmcStats {
    /// Total states visited.
    pub states_visited: usize,
    /// Deepest level fully explored.
    pub depth_reached: usize,
}

/// Explicit-state BMC: explores every input assignment up to `depth`
/// cycles, checking that `assertion` (a 1-bit expression over the module's
/// signals) holds in every settled cycle.
///
/// Inputs wider than 1 bit are sampled at two corner values (0 and
/// all-ones) to keep the branching factor finite — matching how SMT-based
/// BMC behaves when it cannot enumerate: coverage is partial, which is
/// exactly the weakness Appendix A highlights. An input wider than 64
/// bits gets only its low 64 bits set at the all-ones corner: a trace
/// holds one `u64` per input per cycle, the limit
/// [`ProveError::WideCounterexample`](crate::ProveError::WideCounterexample)
/// names for the symbolic engines.
///
/// # Errors
///
/// Propagates simulator preparation errors.
pub fn bmc(
    module: &Module,
    assertion: &Expr,
    depth: usize,
    max_states: usize,
) -> Result<(BmcResult, BmcStats), SimError> {
    bmc_with_backend(module, assertion, depth, max_states, Backend::from_env()?)
}

/// [`bmc`] on an explicitly chosen simulation backend.
///
/// The module is lowered once and every candidate trace replays through
/// [`Sim::reset`], so the compiled backend's one-time tape lowering is
/// amortized across the whole state search — this is the path that makes
/// brute-forcing deep schedules practical.
///
/// # Errors
///
/// Propagates simulator preparation errors.
pub fn bmc_with_backend(
    module: &Module,
    assertion: &Expr,
    depth: usize,
    max_states: usize,
    backend: Backend,
) -> Result<(BmcResult, BmcStats), SimError> {
    let (inputs, choices) = input_corners(module);
    let mut stats = BmcStats::default();
    // Frontier of (input trace so far). Replaying each path from reset
    // keeps memory bounded; state hashing prunes converged paths. One
    // simulation is prepared up front and rewound per path, so the
    // compiled backend lowers its tape exactly once.
    let mut frontier: Vec<Vec<Vec<u64>>> = vec![vec![]];
    let mut seen: HashSet<u64> = HashSet::new();
    let mut sim = Sim::with_backend(module, backend)?;

    for d in 0..depth {
        let mut next = Vec::new();
        for prefix in &frontier {
            for combo in cartesian(&choices) {
                let mut trace = prefix.clone();
                trace.push(combo);
                // Replay the trace.
                sim.reset();
                let mut violated = false;
                for step in &trace {
                    for ((name, width), v) in inputs.iter().zip(step) {
                        sim.poke(name, Bits::from_u64(*v, *width))?;
                    }
                    if sim.eval(assertion).is_zero() {
                        violated = true;
                        break;
                    }
                    sim.step()?;
                }
                stats.states_visited += 1;
                if violated {
                    stats.depth_reached = d + 1;
                    return Ok((
                        BmcResult::Violation {
                            depth: trace.len(),
                            trace,
                        },
                        stats,
                    ));
                }
                if stats.states_visited >= max_states {
                    stats.depth_reached = d;
                    return Ok((BmcResult::ExhaustedStates { depth: d }, stats));
                }
                // Prune states we have seen at any depth.
                let h = sim.state_fingerprint();
                if seen.insert(h) {
                    next.push(trace);
                }
            }
        }
        stats.depth_reached = d + 1;
        if next.is_empty() {
            break; // full state space covered
        }
        frontier = next;
    }
    Ok((
        BmcResult::ExhaustedDepth {
            states: stats.states_visited,
        },
        stats,
    ))
}

/// The input enumeration: `(name, width)` per input port
/// ([`trace_inputs`]), and the candidate values per input — 0 and
/// all-ones, which for a 1-bit input is every value.
fn input_corners(module: &Module) -> (Vec<(String, usize)>, Vec<Vec<u64>>) {
    let inputs = trace_inputs(module);
    let choices = inputs
        .iter()
        .map(|(_, w)| vec![0, u64::MAX >> (64 - (*w).min(64))])
        .collect();
    (inputs, choices)
}

fn cartesian(choices: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = vec![vec![]];
    for c in choices {
        let mut next = Vec::new();
        for prefix in &out {
            for v in c {
                let mut p = prefix.clone();
                p.push(*v);
                next.push(p);
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_rtl::Module;

    /// A design with a shallow bug: asserts `q != 3`, q counts up.
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

    /// Appendix A shape: the bug needs the counter to exceed a huge bound.
    fn deep_bug(threshold: u64) -> (Module, Expr) {
        let mut m = Module::new("deep");
        let q = m.reg("cnt", 32);
        m.set_next(q, Expr::Signal(q).add(Expr::lit(1, 32)));
        let ok = m.wire_from("ok", Expr::Signal(q).lt(Expr::lit(threshold, 32)));
        let o = m.output("o", 1);
        m.assign(o, Expr::Signal(ok));
        let assertion = Expr::Signal(m.find("ok").unwrap());
        (m, assertion)
    }

    #[test]
    fn finds_shallow_violation() {
        let (m, a) = shallow_bug();
        let (result, _) = bmc(&m, &a, 10, 100_000).unwrap();
        match result {
            BmcResult::Violation { depth, trace } => {
                assert_eq!(depth, 4); // q reaches 3 after 3 enabled cycles
                assert_eq!(trace.len(), 4);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn misses_deep_violation_within_budget() {
        // Like Appendix A: violation needs 2^20 cycles; budget is tiny.
        let (m, a) = deep_bug(0x100000);
        let (result, stats) = bmc(&m, &a, 50, 10_000).unwrap();
        assert!(
            !matches!(result, BmcResult::Violation { .. }),
            "must not find the deep bug at depth 50"
        );
        assert!(stats.states_visited > 0);
    }

    #[test]
    fn finds_deep_bug_only_with_enough_depth() {
        let (m, a) = deep_bug(40);
        let (result, _) = bmc(&m, &a, 64, 1_000_000).unwrap();
        assert!(matches!(result, BmcResult::Violation { depth, .. } if depth == 41));
    }

    #[test]
    fn backends_agree_on_bmc_outcome() {
        let (m, a) = shallow_bug();
        let (tree, tree_stats) = bmc_with_backend(&m, &a, 10, 100_000, Backend::Tree).unwrap();
        let (tape, tape_stats) = bmc_with_backend(&m, &a, 10, 100_000, Backend::Compiled).unwrap();
        assert_eq!(tree, tape);
        assert_eq!(tree_stats.states_visited, tape_stats.states_visited);
        assert_eq!(tree_stats.depth_reached, tape_stats.depth_reached);
    }

    #[test]
    fn all_ones_corner_sets_the_top_bit_of_a_64_bit_input() {
        // The violation needs bit 63 of `x` set, so the all-ones corner
        // must reach it.
        let mut m = Module::new("top_bit");
        let x = m.input("x", 64);
        let ok = m.wire_from("ok", Expr::Signal(x).slice(63, 1).eq(Expr::lit(0, 1)));
        let o = m.output("o", 1);
        m.assign(o, Expr::Signal(ok));
        let a = Expr::Signal(m.find("ok").unwrap());
        let (result, _) = bmc(&m, &a, 1, 1000).unwrap();
        assert_eq!(
            result,
            BmcResult::Violation {
                depth: 1,
                trace: vec![vec![u64::MAX]],
            }
        );
    }

    #[test]
    fn stops_once_the_state_space_is_covered() {
        // A 2-bit counter wraps after four cycles: the fifth state is one
        // already seen, so the frontier empties long before the depth
        // bound.
        let mut m = Module::new("wrap");
        let q = m.reg("q", 2);
        m.set_next(q, Expr::Signal(q).add(Expr::lit(1, 2)));
        let ok = m.wire_from("ok", Expr::lit(1, 1));
        let o = m.output("o", 1);
        m.assign(o, Expr::Signal(ok));
        let a = Expr::Signal(m.find("ok").unwrap());
        let (result, stats) = bmc(&m, &a, 40, 100_000).unwrap();
        assert_eq!(result, BmcResult::ExhaustedDepth { states: 5 });
        assert_eq!(stats.depth_reached, 5);
    }
}

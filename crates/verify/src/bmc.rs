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

use anvil_rtl::{Bits, Expr, Module, SignalKind};
use anvil_sim::{sweep_chunks, Backend, Sim, SimBatch, SimError, TapeProgram};

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
/// exactly the weakness Appendix A highlights.
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

/// The input enumeration both checkers share: `(name, width)` per input
/// port, and the candidate values per input — exhaustive for 1-bit
/// inputs, the 0 / all-ones corners otherwise.
fn input_corners(module: &Module) -> (Vec<(String, usize)>, Vec<Vec<u64>>) {
    let inputs: Vec<(String, usize)> = module
        .iter_signals()
        .filter(|(_, s)| s.kind == SignalKind::Input)
        .map(|(_, s)| (s.name.clone(), s.width))
        .collect();
    let choices: Vec<Vec<u64>> = inputs
        .iter()
        .map(|(_, w)| {
            if *w == 1 {
                vec![0, 1]
            } else {
                vec![0, (1u64 << (*w).min(63)) - 1]
            }
        })
        .collect();
    (inputs, choices)
}

/// Multi-lane parallel [`bmc`]: explores `lanes` candidate stimulus
/// schedules per tape pass on the SIMD-style batch executor, with
/// lane-chunks spread across up to `workers` scoped threads.
///
/// The frontier search is *identical* to sequential [`bmc`] — candidates
/// are enumerated in the same order, each wave's results are folded back
/// sequentially for violation reporting, the state budget, and
/// fingerprint pruning — so the outcome (including the counterexample
/// trace and the visited-state counts) is exactly what [`bmc`] returns on
/// the compiled backend; only the wall-clock changes. The design is
/// lowered once ([`TapeProgram`]) and shared by every worker.
///
/// # Errors
///
/// Propagates simulator preparation errors.
pub fn bmc_sweep(
    module: &Module,
    assertion: &Expr,
    depth: usize,
    max_states: usize,
    lanes: usize,
    workers: usize,
) -> Result<(BmcResult, BmcStats), SimError> {
    let lanes = lanes.max(1);
    let program = TapeProgram::compile(module)?;
    let (inputs, choices) = input_corners(module);
    let combos = cartesian(&choices);

    let mut stats = BmcStats::default();
    let mut frontier: Vec<Vec<Vec<u64>>> = vec![vec![]];
    let mut seen: HashSet<u64> = HashSet::new();

    for d in 0..depth {
        // The wave: every frontier prefix extended by every input combo,
        // in the exact order sequential `bmc` enumerates them, held as
        // `(prefix, combo)` index pairs — a candidate's inputs at cycle
        // `c` are `frontier[pi][c]` for `c < d` and `combos[ci]` at the
        // final cycle, so no trace is materialized until it survives into
        // the next frontier (or is the counterexample). Truncated to the
        // remaining state budget — candidates past it would never be
        // visited sequentially either.
        let budget = max_states.saturating_sub(stats.states_visited);
        let mut wave: Vec<(usize, usize)> =
            Vec::with_capacity((frontier.len() * combos.len()).min(budget.max(1)));
        'build: for pi in 0..frontier.len() {
            for ci in 0..combos.len() {
                wave.push((pi, ci));
                if wave.len() >= budget {
                    break 'build;
                }
            }
        }

        // Replay every candidate of the wave: `lanes` schedules per batch,
        // chunks across workers. Each lane reports the earliest violating
        // cycle (if any) and its end-of-trace state fingerprint.
        let wave_ref = &wave;
        let frontier_ref = &frontier;
        let inputs_ref = &inputs;
        let combos_ref = &combos;
        let chunk_results = sweep_chunks(
            &program,
            wave.len(),
            lanes,
            workers.max(1),
            |first, batch: &mut SimBatch| {
                let n = batch.lanes();
                // Input ids resolve once per chunk; each cycle then costs
                // one row poke per input ([`SimBatch::poke_u64s`]) instead
                // of a name lookup per (lane, input).
                let ids: Vec<_> = inputs_ref
                    .iter()
                    .map(|(name, _)| batch.input_id(name))
                    .collect::<Result<_, SimError>>()?;
                let mut violated = vec![false; n];
                let mut vals = vec![0u64; n];
                // `c` indexes a different `frontier_ref[pi]` per lane, so
                // iterator-chaining it away is not possible.
                #[allow(clippy::needless_range_loop)]
                for c in 0..=d {
                    // Poke every lane first, then evaluate: the lazy
                    // batch settles once per cycle for all lanes.
                    let steps: Vec<&Vec<u64>> = (first..first + n)
                        .map(|w| {
                            let (pi, ci) = wave_ref[w];
                            if c < d {
                                &frontier_ref[pi][c]
                            } else {
                                &combos_ref[ci]
                            }
                        })
                        .collect();
                    for (k, id) in ids.iter().enumerate() {
                        for (l, step) in steps.iter().enumerate() {
                            vals[l] = step[k];
                        }
                        batch.poke_u64s(*id, &vals);
                    }
                    for (l, v) in violated.iter_mut().enumerate() {
                        if !*v && batch.eval(l, assertion).is_zero() {
                            *v = true;
                        }
                    }
                    batch.step();
                }
                let fps = batch.fingerprints();
                Ok((violated, fps))
            },
        )?;
        let mut verdicts = chunk_results
            .into_iter()
            .flat_map(|(v, f)| v.into_iter().zip(f));

        // Sequential fold, mirroring `bmc`'s per-candidate bookkeeping.
        let materialize = |pi: usize, ci: usize| {
            let mut trace = frontier[pi].clone();
            trace.push(combos[ci].clone());
            trace
        };
        let mut next = Vec::new();
        for &(pi, ci) in &wave {
            let (violated, fp) = verdicts.next().expect("one verdict per candidate");
            stats.states_visited += 1;
            if violated {
                stats.depth_reached = d + 1;
                let trace = materialize(pi, ci);
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
            if seen.insert(fp) {
                next.push(materialize(pi, ci));
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

    /// `bmc_sweep` must reproduce sequential `bmc` exactly — result,
    /// counterexample trace, and bookkeeping — for every lane/worker
    /// split, on every outcome class (violation, depth exhaustion, state
    /// budget exhaustion).
    fn assert_sweep_matches(m: &Module, a: &Expr, depth: usize, max_states: usize) {
        let (seq, seq_stats) =
            bmc_with_backend(m, a, depth, max_states, Backend::Compiled).unwrap();
        for lanes in [1, 3, 8, 16] {
            for workers in [1, 4] {
                let (swept, sweep_stats) =
                    bmc_sweep(m, a, depth, max_states, lanes, workers).unwrap();
                assert_eq!(
                    seq, swept,
                    "sweep diverged from sequential bmc at lanes={lanes} workers={workers}"
                );
                assert_eq!(seq_stats.states_visited, sweep_stats.states_visited);
                assert_eq!(seq_stats.depth_reached, sweep_stats.depth_reached);
            }
        }
    }

    #[test]
    fn sweep_finds_the_same_shallow_violation() {
        let (m, a) = shallow_bug();
        assert_sweep_matches(&m, &a, 10, 100_000);
    }

    #[test]
    fn sweep_misses_the_same_deep_violation_within_budget() {
        let (m, a) = deep_bug(0x100000);
        assert_sweep_matches(&m, &a, 12, 2_000);
    }

    #[test]
    fn sweep_finds_the_same_deep_bug_with_enough_depth() {
        let (m, a) = deep_bug(40);
        assert_sweep_matches(&m, &a, 64, 1_000_000);
    }

    #[test]
    fn sweep_covers_exhausted_state_space() {
        // 4-bit counter wraps: the full reachable state space is covered
        // before the depth bound, exercising the early-exit path.
        let mut m = Module::new("wrap");
        let q = m.reg("q", 2);
        m.set_next(q, Expr::Signal(q).add(Expr::lit(1, 2)));
        let ok = m.wire_from("ok", Expr::lit(1, 1));
        let o = m.output("o", 1);
        m.assign(o, Expr::Signal(ok));
        let a = Expr::Signal(m.find("ok").unwrap());
        assert_sweep_matches(&m, &a, 40, 100_000);
    }
}

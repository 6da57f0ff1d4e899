//! Differential property tests between the symbolic and explicit-state
//! bounded model checkers.
//!
//! For randomly generated sequential designs whose inputs are all one
//! bit wide — exactly the designs the explicit-state checker enumerates
//! *exhaustively* — the two engines are checked to agree on every
//! verdict: a violation found by one must be found by the other at the
//! same (minimal) depth, and "no violation within the bound" must match.
//! Every counterexample trace from the symbolic engine must replay to a
//! concrete violation on both the tree-walking and compiled simulation
//! backends. PDR alone and the two-engine `prove_portfolio` (which no
//! longer runs the explicit-state search itself) are held to the same
//! exhaustive reference.

use anvil_rtl::{Expr, Module};
use anvil_sim::Backend;
use anvil_smt::{optimize, Aig, AigCircuit};
use anvil_verify::{
    bmc_with_backend, prove_bounded, prove_pdr, prove_portfolio, replay_trace, BmcResult, Control,
    ProveResult,
};
use proptest::prelude::*;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random small sequential design with 1-bit inputs, plus a 1-bit
/// assertion over one of its registers.
fn random_design(seed: u64) -> (Module, Expr) {
    let mut rng = Rng(seed | 1);
    let mut m = Module::new("rand");
    let n_inputs = 1 + rng.below(2) as usize; // 1..=2 (keeps enumeration exhaustive & cheap)
    let inputs: Vec<_> = (0..n_inputs)
        .map(|i| m.input(format!("in{i}"), 1))
        .collect();
    let n_regs = 1 + rng.below(2) as usize; // 1..=2
    let mut regs = Vec::new();
    for r in 0..n_regs {
        let w = 2 + rng.below(3) as usize; // 2..=4 bits
        regs.push((m.reg(format!("r{r}"), w), w));
    }
    for &(reg, w) in &regs {
        let gate = Expr::Signal(inputs[rng.below(n_inputs as u64) as usize]);
        let update = match rng.below(3) {
            0 => Expr::Signal(reg).add(Expr::lit(1, w)),
            1 => Expr::Signal(reg).xor(Expr::lit(rng.below(1 << w), w)),
            _ => Expr::lit(rng.below(1 << w), w),
        };
        // Sometimes gate on a two-input condition.
        let cond = if n_inputs > 1 && rng.below(2) == 0 {
            gate.and(Expr::Signal(
                inputs[1 - rng.below(n_inputs as u64) as usize % n_inputs],
            ))
        } else {
            gate
        };
        m.update_when(reg, cond, update);
    }
    // Assertion: a chosen register avoids a chosen value (may or may not
    // be reachable within the bound).
    let (reg, w) = regs[rng.below(n_regs as u64) as usize];
    let target = rng.below(1 << w);
    let ok = m.wire_from("ok", Expr::Signal(reg).ne(Expr::lit(target, w)));
    let o = m.output("o", 1);
    m.assign(o, Expr::Signal(ok));
    let assertion = Expr::Signal(m.find("ok").unwrap());
    (m, assertion)
}

fn assert_engines_agree(seed: u64, depth: usize) -> Result<(), TestCaseError> {
    let (m, a) = random_design(seed);
    // Budget far above the reachable-state count, so the explicit search
    // never truncates (agreement would be vacuous under a cut-off).
    let (explicit, _) = bmc_with_backend(&m, &a, depth, 1_000_000, Backend::Compiled).unwrap();
    prop_assert!(
        !matches!(explicit, BmcResult::ExhaustedStates { .. }),
        "state budget must not truncate the differential harness"
    );
    let (symbolic, _) = prove_bounded(&AigCircuit::from_module(&m).unwrap(), &a, depth).unwrap();

    match (&explicit, &symbolic) {
        (
            BmcResult::Violation {
                depth: ed,
                trace: etrace,
            },
            ProveResult::Falsified {
                depth: sd,
                trace: strace,
            },
        ) => {
            prop_assert_eq!(ed, sd, "violation depths diverged (seed {})", seed);
            // Both traces replay to violations at the same cycle on both
            // backends.
            for backend in [Backend::Tree, Backend::Compiled] {
                for trace in [etrace, strace] {
                    let violated = replay_trace(&m, &a, trace, backend).unwrap();
                    prop_assert_eq!(violated, Some(sd - 1), "seed {} on {}", seed, backend);
                }
            }
        }
        (BmcResult::ExhaustedDepth { .. }, ProveResult::Unknown { depth: sd }) => {
            prop_assert!(*sd >= depth, "symbolic checked fewer frames (seed {seed})");
        }
        // A constant-true assertion lets the symbolic side prove without
        // induction; the explicit side must have found nothing.
        (BmcResult::ExhaustedDepth { .. }, ProveResult::Proved { .. }) => {}
        (e, s) => {
            return Err(TestCaseError::fail(format!(
                "engines diverged on seed {seed}: explicit {e:?} vs symbolic {s:?}"
            )))
        }
    }
    Ok(())
}

/// The rewrite → fraig → sweep pipeline must be a pure *function*
/// transform: for any joint valuation of inputs and latches (latches
/// are free combinational leaves during optimization), the optimized
/// graph computes bit-identical values for the property root and for
/// every surviving latch's next-state function.
fn assert_optimize_is_bit_identical(seed: u64, word_seed: u64) -> Result<(), TestCaseError> {
    let (m, a) = random_design(seed);
    let mut circuit = AigCircuit::from_module(&m).unwrap();
    let ok = circuit.blast_assertion(&a).unwrap();
    let orig = circuit.aig();
    let (rw, stats) = optimize(orig, &[ok], false);
    prop_assert!(
        stats.nodes_after <= stats.nodes_before,
        "pipeline grew the graph on seed {seed}: {} -> {}",
        stats.nodes_before,
        stats.nodes_after
    );

    // 64 random stimulus patterns per word-parallel pass.
    let mut rng = Rng(word_seed | 1);
    let in_words: Vec<u64> = (0..orig.n_inputs()).map(|_| rng.next()).collect();
    let latch_words: Vec<u64> = (0..orig.n_latches()).map(|_| rng.next()).collect();
    let opt_latch_words: Vec<u64> = rw
        .latch_origin
        .iter()
        .map(|&o| latch_words[o as usize])
        .collect();
    let vals = orig.simulate(&in_words, &latch_words);
    let opt_vals = rw.aig.simulate(&in_words, &opt_latch_words);

    // The property root.
    let ok_opt = rw.map_lit(ok).expect("live root survives optimization");
    prop_assert_eq!(
        Aig::lit_value(&vals, ok),
        Aig::lit_value(&opt_vals, ok_opt),
        "property root diverged on seed {} / vectors {}",
        seed,
        word_seed
    );
    // Every surviving latch's next-state function, against its origin's.
    for (n, latch) in rw.aig.latches().iter().enumerate() {
        let origin = &orig.latches()[rw.latch_origin[n] as usize];
        prop_assert_eq!(latch.init, origin.init, "init flipped on seed {}", seed);
        let (Some(next), Some(orig_next)) = (latch.next, origin.next) else {
            continue;
        };
        prop_assert_eq!(
            Aig::lit_value(&opt_vals, next),
            Aig::lit_value(&vals, orig_next),
            "latch {} next-state diverged on seed {} / vectors {}",
            n,
            seed,
            word_seed
        );
    }
    Ok(())
}

/// IC3/PDR against the two bounded engines on the same random designs:
/// a violation reachable within the explicit bound must be falsified by
/// PDR at the identical minimal depth (with a replaying trace); when
/// the bounded engines find nothing, PDR must not claim a shallow
/// counterexample.
fn assert_pdr_agrees(seed: u64, depth: usize) -> Result<(), TestCaseError> {
    let (m, a) = random_design(seed);
    let (explicit, _) = bmc_with_backend(&m, &a, depth, 1_000_000, Backend::Compiled).unwrap();
    let (pdr, _) = prove_pdr(&AigCircuit::from_module(&m).unwrap(), &a, 24).unwrap();
    match (&explicit, &pdr) {
        (BmcResult::Violation { depth: ed, .. }, ProveResult::Falsified { depth: pd, trace }) => {
            prop_assert_eq!(ed, pd, "PDR depth diverged on seed {}", seed);
            for backend in [Backend::Tree, Backend::Compiled] {
                let violated = replay_trace(&m, &a, trace, backend).unwrap();
                prop_assert_eq!(violated, Some(pd - 1), "seed {} on {}", seed, backend);
            }
        }
        (BmcResult::Violation { depth: ed, .. }, other) => {
            return Err(TestCaseError::fail(format!(
                "PDR missed a depth-{ed} violation on seed {seed}: {other:?}"
            )))
        }
        (BmcResult::ExhaustedDepth { .. }, ProveResult::Falsified { depth: pd, .. }) => {
            prop_assert!(
                *pd > depth,
                "PDR claims a depth-{} violation the exhaustive search refutes (seed {})",
                pd,
                seed
            );
        }
        // Proved for all time, or frames exhausted — both consistent
        // with a clean bounded search.
        (BmcResult::ExhaustedDepth { .. }, ProveResult::Proved { .. })
        | (BmcResult::ExhaustedDepth { .. }, ProveResult::Unknown { .. }) => {}
        (e, p) => {
            return Err(TestCaseError::fail(format!(
                "engines diverged on seed {seed}: explicit {e:?} vs PDR {p:?}"
            )))
        }
    }
    Ok(())
}

/// The two-engine portfolio against the exhaustive explicit-state
/// search it no longer runs: a violation within the bound comes back
/// falsified at the identical minimal depth, with a trace that replays
/// on both backends, and a clean bounded search is never contradicted by
/// a falsification at or below the bound.
fn assert_portfolio_agrees(seed: u64, depth: usize, max_k: usize) -> Result<(), TestCaseError> {
    let (m, a) = random_design(seed);
    let (explicit, _) = bmc_with_backend(&m, &a, depth, 1_000_000, Backend::Compiled).unwrap();
    let circuit = AigCircuit::from_module(&m).unwrap();
    let out = prove_portfolio(&circuit, &a, max_k, &Control::none()).unwrap();
    match (&explicit, &out.result) {
        (BmcResult::Violation { depth: ed, .. }, ProveResult::Falsified { depth: pd, trace }) => {
            prop_assert_eq!(ed, pd, "portfolio depth diverged on seed {}", seed);
            for backend in [Backend::Tree, Backend::Compiled] {
                let violated = replay_trace(&m, &a, trace, backend).unwrap();
                prop_assert_eq!(violated, Some(pd - 1), "seed {} on {}", seed, backend);
            }
        }
        (BmcResult::Violation { depth: ed, .. }, other) => {
            return Err(TestCaseError::fail(format!(
                "portfolio (max_k {max_k}) missed a depth-{ed} violation on seed {seed}: {other:?}"
            )))
        }
        (BmcResult::ExhaustedDepth { .. }, ProveResult::Falsified { depth: pd, .. }) => {
            prop_assert!(
                *pd > depth,
                "portfolio claims a depth-{} violation the exhaustive search refutes (seed {})",
                pd,
                seed
            );
        }
        (BmcResult::ExhaustedDepth { .. }, ProveResult::Proved { .. })
        | (BmcResult::ExhaustedDepth { .. }, ProveResult::Unknown { .. }) => {}
        (e, p) => {
            return Err(TestCaseError::fail(format!(
                "engines diverged on seed {seed}: explicit {e:?} vs portfolio {p:?}"
            )))
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random designs, random depths: verdict agreement plus concrete
    /// replay of every counterexample.
    #[test]
    fn symbolic_and_explicit_bmc_agree(seed in any::<u64>(), depth_sel in any::<u64>()) {
        let depth = 1 + (depth_sel % 5) as usize;
        assert_engines_agree(seed, depth)?;
    }

    /// Random designs × random 64-pattern stimulus words: the optimized
    /// AIG is bit-identical to the original on the property root and
    /// every surviving latch's next-state function.
    #[test]
    fn optimize_pipeline_is_bit_identical(seed in any::<u64>(), words in any::<u64>()) {
        assert_optimize_is_bit_identical(seed, words)?;
    }

    /// Random designs: IC3/PDR verdicts agree with the bounded engines,
    /// down to the minimal counterexample depth.
    #[test]
    fn pdr_and_bounded_engines_agree(seed in any::<u64>(), depth_sel in any::<u64>()) {
        let depth = 1 + (depth_sel % 5) as usize;
        assert_pdr_agrees(seed, depth)?;
    }

    /// Random designs, depths and induction windows: the two-engine
    /// portfolio loses no violation the exhaustive explicit-state search
    /// finds, and invents none it refutes.
    #[test]
    fn portfolio_and_exhaustive_bmc_agree(
        seed in any::<u64>(),
        depth_sel in any::<u64>(),
        k_sel in any::<u64>(),
    ) {
        let depth = 1 + (depth_sel % 5) as usize;
        let max_k = (k_sel % 6) as usize;
        assert_portfolio_agrees(seed, depth, max_k)?;
    }
}

/// PDR falsifies the two seeded suite bugs at their known minimal
/// depths (6 and 13), with traces that replay on both backends.
#[test]
fn pdr_falsifies_seeded_bugs_at_known_depths() {
    let expected = [6usize, 13];
    let seeded = anvil_designs::props::seeded_violations();
    assert_eq!(seeded.len(), expected.len());
    for (prop, want) in seeded.iter().zip(expected) {
        let (result, _) = prove_pdr(
            &AigCircuit::from_module(&prop.module).unwrap(),
            &prop.assertion,
            32,
        )
        .unwrap_or_else(|e| panic!("PDR failed on `{}`: {e}", prop.design));
        let ProveResult::Falsified { depth, trace } = result else {
            panic!("PDR missed `{}`: {result:?}", prop.design);
        };
        assert_eq!(depth, want, "`{}` depth", prop.design);
        for backend in [Backend::Tree, Backend::Compiled] {
            assert_eq!(
                replay_trace(&prop.module, &prop.assertion, &trace, backend).unwrap(),
                Some(depth - 1),
                "`{}` trace on {backend}",
                prop.design
            );
        }
    }
}

/// The seeded suite violations agree across engines too (wide data
/// inputs, but the violations are reachable through the sampled
/// corners).
#[test]
fn seeded_violations_agree_across_engines() {
    for prop in anvil_designs::props::seeded_violations() {
        let (explicit, _) = bmc_with_backend(
            &prop.module,
            &prop.assertion,
            16,
            2_000_000,
            Backend::Compiled,
        )
        .unwrap();
        let (symbolic, _) = prove_bounded(
            &AigCircuit::from_module(&prop.module).unwrap(),
            &prop.assertion,
            16,
        )
        .unwrap();
        let BmcResult::Violation { depth: ed, .. } = explicit else {
            panic!("explicit BMC missed `{}`", prop.design);
        };
        let ProveResult::Falsified { depth: sd, trace } = symbolic else {
            panic!("symbolic BMC missed `{}`", prop.design);
        };
        assert_eq!(ed, sd, "depths diverged on `{}`", prop.design);
        for backend in [Backend::Tree, Backend::Compiled] {
            assert_eq!(
                replay_trace(&prop.module, &prop.assertion, &trace, backend).unwrap(),
                Some(sd - 1)
            );
        }
    }
}

//! The symbolic verification engine against the paper's evaluation suite:
//! every safety property in `anvil_designs::props` must be **proved for
//! all time** by k-induction — verdicts the explicit-state checker can
//! never produce (its result type has no "proved"; it only exhausts depth
//! or state budgets) — and every seeded violation must be falsified with
//! a trace that concretely replays on both simulation backends.

use std::sync::Arc;

use anvil_designs::props::{seeded_violations, suite_properties};
use anvil_rtl::Expr;
use anvil_sim::{Backend, SimBatch, Waveform};
use anvil_smt::{optimize, AigCircuit, Pdr, PdrOptions, PdrOutcome, ProofCert};
use anvil_verify::{
    bmc, bmc_with_backend, prove, prove_portfolio, replay_trace, BmcResult, Control, Deadline,
    ProveResult, Prover,
};

const MAX_K: usize = 8;

#[test]
fn suite_properties_prove_for_all_time() {
    let mut proved = 0;
    for prop in suite_properties() {
        let (result, stats) = prove(
            &AigCircuit::from_module(&prop.module).unwrap(),
            &prop.assertion,
            MAX_K,
        )
        .unwrap_or_else(|e| panic!("prove failed on `{}`: {e}", prop.design));
        match result {
            ProveResult::Proved { k } => {
                assert!(k <= MAX_K, "`{}` needed k={k}", prop.design);
                proved += 1;
            }
            other => panic!(
                "`{}` ({}): expected a proof, got {other:?} \
                 ({} aig nodes, {} conflicts)",
                prop.design, prop.property, stats.aig_nodes, stats.conflicts
            ),
        }
    }
    // The acceptance bar is three suite designs; the suite currently
    // proves all ten.
    assert!(proved >= 3, "only {proved} suite designs proved");
}

#[test]
fn rewrite_pipeline_shrinks_aes_at_least_3x() {
    // The headline optimization target: the AES round-counter property
    // cone. Cone-of-influence restriction, constant sweeping, two-level
    // rewriting, and fraiging together must shed at least 3x of the
    // bit-blasted graph before any unrolling happens.
    let prop = suite_properties()
        .into_iter()
        .find(|p| p.design.contains("AES"))
        .expect("AES property in the suite");
    let mut circuit = AigCircuit::from_module(&prop.module).unwrap();
    let ok = circuit.blast_assertion(&prop.assertion).unwrap();
    let (_, stats) = optimize(circuit.aig(), &[ok], false);
    println!(
        "AES: {} -> {} nodes ({:.1}x), {} -> {} levels",
        stats.nodes_before,
        stats.nodes_after,
        stats.nodes_before as f64 / stats.nodes_after.max(1) as f64,
        stats.level_before,
        stats.level_after,
    );
    assert!(
        stats.nodes_after * 3 <= stats.nodes_before,
        "AES shrink below 3x: {} -> {} nodes",
        stats.nodes_before,
        stats.nodes_after
    );
}

#[test]
fn explicit_state_bmc_cannot_conclude_on_proved_properties() {
    // The comparison the paper's Appendix A draws: on the same
    // assertions the explicit-state checker only ever reports a bounded
    // "no violation so far" — never a proof.
    for prop in suite_properties().into_iter().take(3) {
        let (result, _) =
            bmc_with_backend(&prop.module, &prop.assertion, 6, 5_000, Backend::Compiled).unwrap();
        assert!(
            matches!(
                result,
                BmcResult::ExhaustedDepth { .. } | BmcResult::ExhaustedStates { .. }
            ),
            "`{}`: explicit-state BMC unexpectedly returned {result:?}",
            prop.design
        );
    }
}

#[test]
fn seeded_violations_falsify_and_replay_on_both_backends() {
    for prop in seeded_violations() {
        let (result, _) = prove(
            &AigCircuit::from_module(&prop.module).unwrap(),
            &prop.assertion,
            16,
        )
        .unwrap_or_else(|e| panic!("prove failed on `{}`: {e}", prop.design));
        let ProveResult::Falsified { depth, trace } = result else {
            panic!("`{}`: expected falsification, got {result:?}", prop.design);
        };
        assert_eq!(trace.len(), depth);
        for backend in [Backend::Tree, Backend::Compiled] {
            let violated = replay_trace(&prop.module, &prop.assertion, &trace, backend)
                .unwrap_or_else(|e| panic!("replay failed on `{}`: {e}", prop.design));
            assert_eq!(
                violated,
                Some(depth - 1),
                "`{}` trace did not replay on {backend}",
                prop.design
            );
        }
    }
}

#[test]
fn counterexample_lane_dumps_to_vcd() {
    // A falsified trace drives one lane of a SimBatch and is dumped to
    // VCD — the waveform-inspection path for sweep/proof counterexamples.
    let prop = &seeded_violations()[0];
    let (result, _) = prove(
        &AigCircuit::from_module(&prop.module).unwrap(),
        &prop.assertion,
        16,
    )
    .unwrap();
    let ProveResult::Falsified { depth, trace } = result else {
        panic!("expected falsification");
    };

    let inputs = anvil_verify::trace_inputs(&prop.module);
    let mut batch = SimBatch::new(&prop.module, 4).unwrap();
    let mut wave = Waveform::probe_all_batch(&batch);
    let lane = 2;
    for step in &trace {
        for ((name, width), v) in inputs.iter().zip(step) {
            batch
                .poke(lane, name, anvil_rtl::Bits::from_u64(*v, *width))
                .unwrap();
        }
        wave.sample_lane(&mut batch, lane);
        batch.step();
    }
    assert_eq!(wave.len(), depth);
    // The assertion signal goes low exactly at the final sampled cycle.
    let ok = wave.series("ok").expect("seeded designs expose `ok`");
    assert!(ok[depth - 1].is_zero());
    assert!(ok[..depth - 1].iter().all(|b| !b.is_zero()));
    let vcd = wave.to_vcd(&prop.module.name);
    assert!(vcd.contains("$enddefinitions $end"));
    assert!(vcd.contains(&format!("#{}", depth - 1)));
}

#[test]
fn portfolio_settles_suite_and_seeded_designs() {
    // Proved property: one of the two engines must win (whichever
    // concludes first cancels the other).
    let prop = &suite_properties()[0];
    let circuit = AigCircuit::from_module(&prop.module).unwrap();
    let out = prove_portfolio(&circuit, &prop.assertion, MAX_K, &Control::none()).unwrap();
    assert!(
        matches!(out.result, ProveResult::Proved { .. }),
        "{:?}",
        out.result
    );
    assert!(matches!(out.winner, Some(Prover::Symbolic | Prover::Pdr)));
    // A proof leaves a checkable certificate for the proof cache.
    assert!(out.certificate.is_some());

    // Seeded bug: some engine falsifies, and the combined trace replays.
    let prop = &seeded_violations()[0];
    let circuit = AigCircuit::from_module(&prop.module).unwrap();
    let out = prove_portfolio(&circuit, &prop.assertion, 16, &Control::none()).unwrap();
    let ProveResult::Falsified { depth, trace } = &out.result else {
        panic!("expected falsification, got {:?}", out.result);
    };
    assert!(out.winner.is_some());
    let violated = replay_trace(&prop.module, &prop.assertion, trace, Backend::Compiled).unwrap();
    assert_eq!(violated, Some(depth - 1));
}

#[test]
fn aes_prove_with_a_10ms_deadline_bails_out_well_under_a_second() {
    // The robustness acceptance bar: the AES round-counter cone is far
    // too big to settle in 10ms, so a deadlined portfolio must give up
    // with Unknown (the daemon maps this to DEADLINE_EXCEEDED) orders
    // of magnitude before the un-deadlined prove would finish.
    let prop = suite_properties()
        .into_iter()
        .find(|p| p.design.contains("AES"))
        .expect("AES property in the suite");
    let started = std::time::Instant::now();
    let control = Control {
        stop: None,
        deadline: Deadline::in_ms(10),
    };
    let circuit = AigCircuit::from_module(&prop.module).unwrap();
    let out = prove_portfolio(&circuit, &prop.assertion, 4096, &control).expect("portfolio");
    let elapsed = started.elapsed();
    assert!(
        matches!(out.result, ProveResult::Unknown { .. }),
        "expected a deadline bail-out, got {:?}",
        out.result
    );
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "deadline overrun: {elapsed:?}"
    );
}

/// The FIFO occupancy monitor, built exactly as the `prove_mix`
/// benchmark builds its `fifo_mon` target: the FIFO source plus a `mon`
/// register that keeps `(wr - rd) <= DEPTH`. Returns the flattened
/// circuit and the monitor register.
fn fifo_monitor() -> (AigCircuit, anvil_rtl::SignalId) {
    let src = anvil_designs::fifo::anvil_source().replace("fifo_anvil", "fifo_mon");
    let reg_at = src.find("reg ").expect("the design declares registers");
    let end = src.rfind('}').expect("the proc is closed");
    let text = format!(
        "{}reg mon : logic := 1;\n            {}    loop {{ set mon := (*wr - *rd) <= {} }}\n{}",
        &src[..reg_at],
        &src[reg_at..end],
        anvil_designs::fifo::DEPTH,
        &src[end..]
    );
    let flat = anvil_core::Session::new()
        .compile_flat_aig(&text, "fifo_mon", &Control::none())
        .unwrap_or_else(|e| panic!("{}", e.render(&text)));
    let circuit = (*flat.circuit).clone();
    let mon = circuit.module().find("mon").expect("monitor register");
    (circuit, mon)
}

/// Standalone PDR on the FIFO monitor's optimized cone (17 latches)
/// proves it within 11 frames and at most 2,000 SAT calls; with
/// full-state obligation cubes it took 7,675. Returns the engine and
/// the size of the invariant it found.
fn fifo_monitor_pdr() -> (Pdr, usize) {
    let (mut circuit, mon) = fifo_monitor();
    let ok0 = circuit.blast_assertion(&Expr::Signal(mon)).unwrap();
    let (rw, _) = optimize(circuit.aig(), &[ok0], false);
    let ok = rw.map_lit(ok0).expect("property root survives");
    let seq = Arc::new(rw.aig);
    assert_eq!(seq.n_latches(), 17);
    let mut pdr = Pdr::new(Arc::clone(&seq), ok, PdrOptions::default());
    let PdrOutcome::Proved { invariant } = pdr.run() else {
        panic!("PDR must prove the FIFO monitor: {:?}", pdr.stats());
    };
    assert!(ProofCert::revalidate_inductive(&seq, ok, &invariant));
    (pdr, invariant.len())
}

#[test]
fn pdr_proves_the_fifo_monitor_within_its_work_pin() {
    let (pdr, invariant) = fifo_monitor_pdr();
    let stats = pdr.stats();
    assert!(stats.frames <= 11, "{stats:?}");
    // 65 clauses before PDR retired subsumed cubes, 32 of them subsumed.
    assert!(invariant <= 40, "{invariant} invariant clauses");
    assert!(stats.sat_calls <= 2_000, "{stats:?}");
    assert!(stats.lifted_away > 0, "{stats:?}");
}

/// The exact search on the FIFO monitor: standalone PDR's work and its
/// solver's counters, and k-induction's solver counters at `maxK` 12
/// (the window `prove_mix` gives the monitors; k-induction alone stops
/// at `unknown` there). The solver, PDR and k-induction are
/// deterministic, so these equal the values on every machine. A change
/// that alters the search (branching, learning, clause order, PDR's
/// generalization) updates these pins in the same change and says why,
/// as with `ci/perfbench-counts/`; a change that only makes the search
/// faster leaves them alone.
///
/// The PDR values changed when PDR began retiring subsumed cubes (a
/// retired cube is never pushed again): 1,744 SAT calls, 223
/// obligations and 373 blocking clauses before, with 544 conflicts,
/// 26,264 decisions, 159,840 propagations and 1,422,901 ticks.
#[test]
fn fifo_monitor_search_is_pinned_exactly() {
    let (pdr, invariant) = fifo_monitor_pdr();
    let pdr = pdr.stats();
    let work = (pdr.frames, pdr.sat_calls, pdr.obligations, pdr.clauses);
    assert_eq!(work, (11, 1_555, 225, 231), "{pdr:?}");
    assert_eq!((invariant, pdr.retired), (33, 40), "{pdr:?}");
    let s = pdr.solver;
    let search = (s.conflicts, s.decisions, s.propagations, s.ticks, s.learned);
    assert_eq!(search, (530, 25_164, 150_454, 1_261_341, 530), "{s:?}");

    let (circuit, mon) = fifo_monitor();
    let (result, kind) = prove(&circuit, &Expr::Signal(mon), 12).unwrap();
    assert!(
        matches!(result, ProveResult::Unknown { depth: 13 }),
        "{result:?}"
    );
    let search = (kind.conflicts, kind.decisions, kind.propagations);
    assert_eq!(search, (998, 1_768, 67_312), "{kind:?}");
}

/// Explicit-state `bmc` prunes by state fingerprint, so its visited-state
/// count moves whenever the fingerprint starts merging or splitting
/// states. These are the counts at `bench_prove`'s bound (depth 8,
/// 20,000 states) for the suite properties whose designs have memories:
/// the FIFOs' and the TLB's memories are writable, the AES S-boxes are
/// ROMs that fingerprint as one digest each.
#[test]
fn explicit_bmc_state_counts_hold_on_designs_with_memories() {
    let pins = [
        ("FIFO Buffer", 2_832),
        ("Passthrough Stream FIFO", 392),
        ("Translation Lookaside Buffer", 544),
        ("AES Cipher Core", 128),
    ];
    let props = suite_properties();
    for prop in props.iter().filter(|p| !p.module.arrays.is_empty()) {
        let want = pins
            .iter()
            .find(|(design, _)| *design == prop.design)
            .unwrap_or_else(|| panic!("no state-count pin for `{}`", prop.design))
            .1;
        let (_, stats) = bmc(&prop.module, &prop.assertion, 8, 20_000).unwrap();
        assert_eq!(stats.states_visited, want, "`{}`", prop.design);
    }
}

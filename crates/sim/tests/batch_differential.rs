//! Differential matrix over the tape optimization layer: the paper's
//! ten-design evaluation suite runs under **every** (lane width ×
//! fusion on/off × dirty-region skipping on/off) configuration, against
//! per-lane tree-engine [`Sim`]s consuming bit-identical stimulus.
//! Outputs, state fingerprints, debug prints, and toggle counts must
//! match bit-for-bit — the optimizations are pure speedups, never
//! observable, and the executor agrees with the reference semantics.

use anvil_designs::tb::{input_ports, xorshift64};
use anvil_rtl::{Bits, SignalKind};
use anvil_sim::{Backend, Sim, TapeOptions, TapeProgram};

const CYCLES: u64 = 32;
/// Not a multiple of any monomorphized width: every configuration
/// exercises a tail group (and stride 4 also stacks a full group).
const LANES: usize = 6;

/// Decorrelated nonzero xorshift seed for one (design, lane) stream.
fn stream_seed(design: usize, lane: usize) -> u64 {
    let s = 0xA11C_E5ED_5EED_0001u64
        ^ (design as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (lane as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    if s == 0 {
        0xDEAD_BEEF
    } else {
        s
    }
}

/// Everything observable about one lane's run.
#[derive(Debug, PartialEq)]
struct Observed {
    outputs: Vec<(String, Bits)>,
    fingerprint: u64,
    log: Vec<(u64, String)>,
    toggles: Vec<u64>,
}

#[test]
fn every_optimization_config_matches_scalar_sims() {
    let mut configs = Vec::new();
    for stride in [4usize, 8, 16, 32] {
        for fuse in [false, true] {
            for dirty_regions in [false, true] {
                configs.push(TapeOptions {
                    fuse,
                    dirty_regions,
                    stride: Some(stride),
                });
            }
        }
    }

    for (d, design) in anvil_designs::registry().into_iter().enumerate() {
        let m = (design.anvil)();
        let inputs = input_ports(&m);
        let outputs: Vec<String> = m
            .iter_signals()
            .filter(|(_, s)| s.kind == SignalKind::Output)
            .map(|(_, s)| s.name.clone())
            .collect();

        // Reference: one tree-walking `Sim` per lane. Not the compiled
        // backend — that is the same tape executor at one lane, so an
        // executor bug would show on both sides of the comparison.
        let reference: Vec<Observed> = (0..LANES)
            .map(|l| {
                let mut sim = Sim::with_backend(&m, Backend::Tree).expect("suite simulates");
                let mut rng = stream_seed(d, l);
                for _ in 0..CYCLES {
                    for (name, width) in &inputs {
                        sim.poke(name, Bits::from_u64(xorshift64(&mut rng), *width))
                            .expect("poking input");
                    }
                    sim.step().expect("stepping");
                }
                Observed {
                    outputs: outputs
                        .iter()
                        .map(|o| (o.clone(), sim.peek(o).expect("peeking output")))
                        .collect(),
                    fingerprint: sim.state_fingerprint(),
                    log: sim.log.clone(),
                    toggles: sim.toggle_counts().to_vec(),
                }
            })
            .collect();

        for opts in &configs {
            let program =
                TapeProgram::compile_with(&m, *opts).expect("suite lowers under every config");
            let mut batch = program.batch(LANES);
            let ids: Vec<_> = inputs
                .iter()
                .map(|(name, _)| batch.input_id(name).expect("input id"))
                .collect();
            let mut rngs: Vec<u64> = (0..LANES).map(|l| stream_seed(d, l)).collect();
            let mut vals = vec![0u64; LANES];
            for _ in 0..CYCLES {
                for id in &ids {
                    for (l, rng) in rngs.iter_mut().enumerate() {
                        vals[l] = xorshift64(rng);
                    }
                    batch.poke_u64s(*id, &vals);
                }
                batch.step();
            }
            for (l, expect) in reference.iter().enumerate() {
                let got = Observed {
                    outputs: outputs
                        .iter()
                        .map(|o| (o.clone(), batch.peek(l, o).expect("peeking output")))
                        .collect(),
                    fingerprint: batch.state_fingerprint(l),
                    log: batch.log(l).to_vec(),
                    toggles: batch.toggle_counts(l),
                };
                assert_eq!(
                    &got, expect,
                    "design `{}` lane {l} diverged under {opts:?}",
                    design.name
                );
            }
        }
    }
}

/// A non-multiple lane count gets a tail group of the smallest
/// monomorphized width that covers the remainder — the arena footprint
/// must shrink versus padding the tail to a full stride.
#[test]
fn tail_groups_use_the_smallest_covering_width() {
    let design = &anvil_designs::registry()[0];
    let m = (design.anvil)();
    let opts = TapeOptions {
        stride: Some(16),
        ..TapeOptions::default()
    };
    let program = TapeProgram::compile_with(&m, opts).expect("design lowers");

    // 17 lanes = one full 16-wide group + one lane of tail → a 4-wide
    // tail group, not a second full 16-wide group.
    let seventeen = program.batch(17);
    assert_eq!(seventeen.group_strides(), vec![16, 4]);
    let full = program.batch(16);
    let padded = 2 * full.arena_words();
    assert!(
        seventeen.arena_words() < padded,
        "tail footprint {} should shrink below padded {}",
        seventeen.arena_words(),
        padded
    );

    // 22 lanes → remainder 6 → an 8-wide tail; 29 lanes → remainder 13
    // → a 16-wide tail (smallest covering width each time).
    assert_eq!(program.batch(22).group_strides(), vec![16, 8]);
    assert_eq!(program.batch(29).group_strides(), vec![16, 16]);

    // Tail lanes behave identically to full-group lanes.
    let mut batch = program.batch(17);
    let inputs = input_ports(&m);
    let mut rngs: Vec<u64> = (0..17).map(|l| stream_seed(0, l % 6)).collect();
    let mut vals = vec![0u64; 17];
    let ids: Vec<_> = inputs
        .iter()
        .map(|(name, _)| batch.input_id(name).expect("input id"))
        .collect();
    for _ in 0..8 {
        for id in &ids {
            for (l, rng) in rngs.iter_mut().enumerate() {
                vals[l] = xorshift64(rng);
            }
            batch.poke_u64s(*id, &vals);
        }
        batch.step();
    }
    // Lane 16 (tail) consumed the same stream as lane 4 of group 0
    // (16 % 6 == 4 in the seed map above): identical observables.
    assert_eq!(batch.state_fingerprint(16), batch.state_fingerprint(4));
    assert_eq!(batch.toggle_counts(16), batch.toggle_counts(4));
}

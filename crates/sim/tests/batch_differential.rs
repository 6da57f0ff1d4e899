//! Differential matrix over the tape optimization layer: the paper's
//! ten-design evaluation suite runs under **every** (fusion on/off ×
//! dirty-region skipping on/off) configuration, and through the chunked
//! multi-worker sweep driver, against per-lane tree-engine [`Sim`]s
//! consuming bit-identical stimulus. Outputs, state fingerprints, debug
//! prints, and toggle counts must match bit-for-bit — the optimizations
//! are pure speedups, never observable, and the executor agrees with the
//! reference semantics.

use anvil_designs::tb::{input_ports, xorshift64};
use anvil_rtl::{Bits, SignalKind};
use anvil_sim::{sweep_chunks, Backend, Sim, SimBatch, TapeOptions, TapeProgram};

const CYCLES: u64 = 32;
/// One full 32-lane group and a tail of 6 lanes in a second group.
const LANES: usize = 38;
/// Sweep chunk size: 38 lanes are two full chunks and a ragged one.
const CHUNK: usize = 16;

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

/// Drives batch lane `l` with the stimulus of logical lane `first + l`
/// of design `d` for [`CYCLES`] cycles, and observes every lane.
fn run_lanes(
    batch: &mut SimBatch,
    d: usize,
    first: usize,
    inputs: &[(String, usize)],
    outputs: &[String],
) -> Vec<Observed> {
    let lanes = batch.lanes();
    let ids: Vec<_> = inputs
        .iter()
        .map(|(name, _)| batch.input_id(name).expect("input id"))
        .collect();
    let mut rngs: Vec<u64> = (first..first + lanes).map(|l| stream_seed(d, l)).collect();
    let mut vals = vec![0u64; lanes];
    for _ in 0..CYCLES {
        for id in &ids {
            for (v, rng) in vals.iter_mut().zip(&mut rngs) {
                *v = xorshift64(rng);
            }
            batch.poke_u64s(*id, &vals);
        }
        batch.step();
    }
    (0..lanes)
        .map(|l| Observed {
            outputs: outputs
                .iter()
                .map(|o| (o.clone(), batch.peek(l, o).expect("peeking output")))
                .collect(),
            fingerprint: batch.state_fingerprint(l),
            log: batch.log(l).to_vec(),
            toggles: batch.toggle_counts(l),
        })
        .collect()
}

#[test]
fn every_optimization_config_matches_scalar_sims() {
    let mut configs = Vec::new();
    for fuse in [false, true] {
        for dirty_regions in [false, true] {
            configs.push(TapeOptions {
                fuse,
                dirty_regions,
            });
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
        let check = |got: Vec<Observed>, run: &str| {
            assert_eq!(got.len(), LANES, "design `{}` under {run}", design.name);
            for (l, (got, expect)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got, expect,
                    "design `{}` lane {l} diverged under {run}",
                    design.name
                );
            }
        };

        for opts in &configs {
            let program =
                TapeProgram::compile_with(&m, *opts).expect("suite lowers under every config");
            let got = run_lanes(&mut program.batch(LANES), d, 0, &inputs, &outputs);
            check(got, &format!("{opts:?}"));
        }

        // The same lanes through the sweep driver: each worker keeps one
        // batch and resets it between chunks, and the ragged last chunk
        // gets a batch of its own.
        let program = TapeProgram::compile(&m).expect("design lowers");
        for workers in [1, 3] {
            let chunks = sweep_chunks(&program, LANES, CHUNK, workers, |first, batch| {
                Ok(run_lanes(batch, d, first, &inputs, &outputs))
            })
            .expect("sweep runs");
            let got = chunks.into_iter().flatten().collect();
            check(
                got,
                &format!("sweep_chunks in {CHUNK}-lane chunks on {workers} workers"),
            );
        }
    }
}

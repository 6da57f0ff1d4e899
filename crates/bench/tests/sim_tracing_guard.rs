//! The simulator's disabled-tracing overhead guard.
//!
//! `SimBatch` settles open `sim.settle` and `sim.region` spans on every
//! step, so with no capture open those span sites must cost under
//! [`tracing_guard::MAX_OVERHEAD`] of the pass they sit in. One pass
//! drives the ten suite designs at 32 lanes × 256 cycles of seeded
//! random stimulus; the guard weighs the spans one traced pass records
//! against the best of several untraced passes.
//!
//! This binary holds exactly one test: `disabled_span_cost` asserts that
//! no capture is open, and a `Capture` records every thread's spans.

use std::time::Instant;

use anvil_bench::tracing_guard;
use anvil_designs::tb::{input_ports, xorshift64};
use anvil_rtl::SignalId;
use anvil_sim::{SimBatch, TapeProgram};

const LANES: usize = 32;
const CYCLES: u64 = 256;
const UNTRACED_PASSES: usize = 5;

/// A nonzero xorshift seed for one (design, lane) stream.
fn stream_seed(design: usize, lane: usize) -> u64 {
    ((design * LANES + lane) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One suite design's batch and its input ids.
struct Rig {
    batch: SimBatch,
    inputs: Vec<SignalId>,
}

/// Runs every design from power-on for [`CYCLES`] cycles, each lane on
/// its own xorshift stream, and returns every lane's end-state
/// fingerprint.
fn pass(rigs: &mut [Rig]) -> Vec<u64> {
    let mut vals = vec![0u64; LANES];
    let mut fingerprints = Vec::with_capacity(rigs.len() * LANES);
    for (d, rig) in rigs.iter_mut().enumerate() {
        rig.batch.reset();
        let mut rngs: Vec<u64> = (0..LANES).map(|l| stream_seed(d, l)).collect();
        for _ in 0..CYCLES {
            for &id in &rig.inputs {
                for (v, rng) in vals.iter_mut().zip(&mut rngs) {
                    *v = xorshift64(rng);
                }
                rig.batch.poke_u64s(id, &vals);
            }
            rig.batch.step();
        }
        fingerprints.extend(rig.batch.fingerprints());
    }
    fingerprints
}

#[test]
fn disabled_sim_spans_stay_under_the_overhead_bound() {
    let mut rigs: Vec<Rig> = anvil_designs::registry()
        .into_iter()
        .map(|design| {
            let module = (design.anvil)();
            let batch = TapeProgram::compile(&module)
                .expect("suite design lowers")
                .batch(LANES);
            let inputs = input_ports(&module)
                .iter()
                .map(|(name, _)| batch.input_id(name).expect("input id"))
                .collect();
            Rig { batch, inputs }
        })
        .collect();

    // Every pass, traced or not, must reach the same end states.
    let expect = pass(&mut rigs);
    let best = (0..UNTRACED_PASSES)
        .map(|_| {
            let t = Instant::now();
            let got = pass(&mut rigs);
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(got, expect, "an untraced pass diverged");
            secs
        })
        .fold(f64::INFINITY, f64::min);

    let capture = anvil_trace::Capture::start();
    let got = pass(&mut rigs);
    let spans = capture.finish().len();
    assert_eq!(got, expect, "the traced pass diverged");
    assert!(spans > 0, "a traced pass records the settle spans");

    tracing_guard::assert_overhead("sim", spans, best);
}

//! Differential property tests between the multi-lane batch executor and
//! independent reference simulations.
//!
//! [`SimBatch`] runs L stimulus lanes in lockstep over one laned arena;
//! every lane must be observationally identical to a [`Sim`] on the
//! tree-walking reference engine fed the same stimulus: settled outputs,
//! state fingerprints, debug prints, and toggle counts — cycle for cycle,
//! bit for bit, for arbitrary lane counts up to 11, which leave spare
//! lanes in the one 32-lane group. The reference is `Backend::Tree` because
//! `Backend::Compiled` runs the same tape executor as the batch, so it
//! could not catch an executor bug. The whole evaluation suite
//! (Anvil-compiled designs *and* handwritten baselines) plus the
//! motivating-example systems are driven with lane-divergent random
//! stimulus every run.

use anvil_designs::tb::{input_ports, xorshift64};
use anvil_rtl::{Bits, Module, SignalKind};
use anvil_sim::{Backend, Sim, SimBatch, LANE_STRIDE};
use proptest::prelude::*;

/// Lane-decorrelated xorshift stream seeds (xorshift64 must never see a
/// zero state).
fn lane_seeds(seed: u64, lanes: usize) -> Vec<u64> {
    (0..lanes)
        .map(|l| {
            let s = seed ^ (l as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if s == 0 {
                0xDEAD_BEEF + l as u64
            } else {
                s
            }
        })
        .collect()
}

/// Drives a `lanes`-wide batch and `lanes` tree-engine sims with
/// identical per-lane random stimulus, asserting per-cycle agreement.
fn assert_batch_agrees(
    module: &Module,
    seed: u64,
    lanes: usize,
    cycles: u64,
) -> Result<(), TestCaseError> {
    let mut batch = SimBatch::new(module, lanes)
        .unwrap_or_else(|e| panic!("batch rejects `{}`: {e}", module.name));
    let mut scalars: Vec<Sim> = (0..lanes)
        .map(|_| {
            Sim::with_backend(module, Backend::Tree)
                .unwrap_or_else(|e| panic!("tree backend rejects `{}`: {e}", module.name))
        })
        .collect();
    let inputs = input_ports(module);
    let outputs: Vec<(anvil_rtl::SignalId, String)> = module
        .iter_signals()
        .filter(|(_, s)| s.kind == SignalKind::Output)
        .map(|(id, s)| (id, s.name.clone()))
        .collect();

    let mut rngs = lane_seeds(seed, lanes);
    for cycle in 0..cycles {
        for (lane, sim) in scalars.iter_mut().enumerate() {
            for (name, width) in &inputs {
                let v = Bits::from_u64(xorshift64(&mut rngs[lane]), *width);
                sim.poke(name, v.clone()).unwrap();
                batch.poke(lane, name, v).unwrap();
            }
        }
        for (lane, sim) in scalars.iter_mut().enumerate() {
            prop_assert_eq!(
                sim.state_fingerprint(),
                batch.state_fingerprint(lane),
                "fingerprint diverged on `{}` lane {} at cycle {}",
                module.name,
                lane,
                cycle
            );
            for (id, name) in &outputs {
                prop_assert_eq!(
                    sim.peek_id(*id),
                    batch.peek_id(lane, *id),
                    "output `{}` of `{}` diverged on lane {} at cycle {}",
                    name,
                    module.name,
                    lane,
                    cycle
                );
            }
            sim.step().unwrap();
        }
        batch.step();
    }
    for (lane, sim) in scalars.iter().enumerate() {
        prop_assert_eq!(
            &sim.log,
            &batch.log(lane).to_vec(),
            "debug prints diverged on `{}` lane {}",
            module.name,
            lane
        );
        prop_assert_eq!(
            sim.toggle_counts(),
            &batch.toggle_counts(lane)[..],
            "toggle counts diverged on `{}` lane {}",
            module.name,
            lane
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Every design in the evaluation suite — the Anvil-compiled module
    /// *and* its handwritten baseline — agrees lane-for-lane between the
    /// batch executor and scalar simulation, for arbitrary lane counts
    /// under lane-divergent random stimulus.
    #[test]
    fn batch_matches_scalar_across_the_design_suite(
        (seed, lanes) in (any::<u64>(), 1usize..=11)
    ) {
        for entry in anvil_designs::registry() {
            assert_batch_agrees(&(entry.anvil)(), seed, lanes, 96)?;
            assert_batch_agrees(&(entry.baseline)(), seed.rotate_left(17), lanes, 96)?;
        }
    }

    /// The motivating-example systems (Fig. 1 hazard, Fig. 4 caches)
    /// agree too — memories and dynamic-latency handshakes under lane
    /// divergence.
    #[test]
    fn batch_matches_scalar_on_motivating_examples(
        (seed, lanes) in (any::<u64>(), 1usize..=11)
    ) {
        let designs = [
            anvil_designs::hazard::fig1_system(),
            anvil_designs::hazard::cache_dyn_flat(),
            anvil_designs::hazard::cache_static_flat(),
        ];
        for m in &designs {
            assert_batch_agrees(m, seed, lanes, 96)?;
        }
    }
}

/// The AES core reads its S-boxes from ROMs (memories with no write
/// port). A batch reads every ROM from the program's one shared image,
/// so a 40-lane batch (a full 32-lane group and 8 lanes of a second)
/// holds no laned memory words — not after stepping, not after a reset —
/// until a poke writes a ROM; then only the poked lane's group holds a
/// copy of that one ROM, until the next reset.
#[test]
fn aes_batch_holds_no_laned_rom_words_until_a_rom_is_poked() {
    let m = anvil_designs::aes::anvil_flat();
    assert_eq!(m.arrays.len(), 20, "twenty S-box instances");
    assert!(m.array_writes.is_empty());
    let mut batch = SimBatch::new(&m, 40).unwrap();
    assert_eq!(batch.memory_words(), 0);
    let mut rngs = lane_seeds(7, 40);
    for _ in 0..12 {
        for (name, _) in input_ports(&m) {
            let vals: Vec<u64> = rngs.iter_mut().map(xorshift64).collect();
            batch.poke_u64s(batch.input_id(&name).unwrap(), &vals);
        }
        batch.step();
    }
    batch.fingerprints();
    assert_eq!(batch.memory_words(), 0);
    batch.reset();
    assert_eq!(batch.memory_words(), 0);
    let rom = anvil_rtl::ArrayId(3);
    let depth = m.arrays[rom.0].depth;
    batch.poke_array(36, rom, 7, Bits::from_u64(0x5A, 8));
    assert_eq!(batch.memory_words(), depth * LANE_STRIDE);
    batch.reset();
    assert_eq!(batch.memory_words(), 0);
}

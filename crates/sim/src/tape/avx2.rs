//! The lane executor compiled for AVX2, picked at run time.
//!
//! The release build targets baseline x86-64, where the lane loops of
//! [`LaneEngine`] compile to 128-bit SSE2 code. [`Avx2`] wraps an engine
//! and runs its hot entry points — `settle`, `commit`, `poke_rows_u64` and
//! `state_fingerprint_lane` — through `#[target_feature(enable = "avx2")]`
//! shims over the same generic bodies. Those bodies are
//! `#[inline(always)]` down to `exec_op_lanes` and its row helpers, so
//! each shim holds its own 256-bit copy of the loops rather than a call
//! into the portable one. The group's other methods run the portable code.
//!
//! This module holds the crate's only `unsafe`: the calls into the shims.
//! They are sound because [`Avx2::new`], the only constructor, builds a
//! group only after `is_x86_feature_detected!("avx2")` answered yes.

use std::sync::Arc;

use anvil_rtl::{ArrayId, Bits, Expr, SignalId};

use super::{LaneEngine, LaneGroup, Tape};

/// A lane engine whose settle, commit, row-poke and fingerprint loops run
/// as AVX2 code. The field is private to this module, so every `Avx2` was
/// built by [`Avx2::new`] on a CPU with AVX2.
pub(super) struct Avx2<const L: usize>(LaneEngine<L>);

impl<const L: usize> Avx2<L> {
    /// An engine over `tape`, or `None` when this CPU lacks AVX2.
    pub(super) fn new(tape: &Arc<Tape>) -> Option<Self> {
        std::is_x86_feature_detected!("avx2").then(|| Avx2(LaneEngine::new(Arc::clone(tape))))
    }
}

#[target_feature(enable = "avx2")]
fn settle<const L: usize>(engine: &mut LaneEngine<L>) {
    engine.settle();
}

#[target_feature(enable = "avx2")]
fn commit<const L: usize>(engine: &mut LaneEngine<L>, sink: &mut dyn FnMut(usize, String)) {
    engine.commit(sink);
}

#[target_feature(enable = "avx2")]
fn poke_rows_u64<const L: usize>(engine: &mut LaneEngine<L>, id: SignalId, vals: &[u64]) {
    engine.poke_rows_u64(id, vals);
}

#[target_feature(enable = "avx2")]
fn state_fingerprint_lane<const L: usize>(engine: &mut LaneEngine<L>, lane: usize) -> u64 {
    engine.state_fingerprint_lane(lane)
}

impl<const L: usize> LaneGroup for Avx2<L> {
    fn stride(&self) -> usize {
        L
    }

    fn arena_words(&self) -> usize {
        LaneGroup::arena_words(&self.0)
    }

    fn memory_words(&self) -> usize {
        self.0.memory_words()
    }

    fn settle(&mut self) {
        // SAFETY: `Avx2::new` built this group only on a CPU with AVX2.
        unsafe { settle(&mut self.0) }
    }

    fn commit(&mut self, sink: &mut dyn FnMut(usize, String)) {
        // SAFETY: `Avx2::new` built this group only on a CPU with AVX2.
        unsafe { commit(&mut self.0, sink) }
    }

    fn peek_lane(&self, id: SignalId, lane: usize) -> Bits {
        self.0.peek_lane(id, lane)
    }

    fn poke_lane(&mut self, id: SignalId, value: &Bits, lane: usize) {
        self.0.poke_lane(id, value, lane)
    }

    fn poke_rows_u64(&mut self, id: SignalId, vals: &[u64]) {
        // SAFETY: `Avx2::new` built this group only on a CPU with AVX2.
        unsafe { poke_rows_u64(&mut self.0, id, vals) }
    }

    fn peek_array_lane(&self, array: ArrayId, index: usize, lane: usize) -> Bits {
        self.0.peek_array_lane(array, index, lane)
    }

    fn poke_array_lane(&mut self, array: ArrayId, index: usize, value: &Bits, lane: usize) {
        self.0.poke_array_lane(array, index, value, lane)
    }

    fn eval_lane(&self, e: &Expr, lane: usize) -> Bits {
        self.0.eval_lane(e, lane)
    }

    fn state_fingerprint_lane(&mut self, lane: usize) -> u64 {
        // SAFETY: `Avx2::new` built this group only on a CPU with AVX2.
        unsafe { state_fingerprint_lane(&mut self.0, lane) }
    }

    fn toggle_counts_lane(&self, lane: usize) -> Vec<u64> {
        self.0.toggle_counts_lane(lane)
    }

    fn reset(&mut self) {
        self.0.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::TapeOptions;
    use anvil_rtl::{Module, SignalKind};

    const CYCLES: usize = 24;

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// A wide input, a written memory and a valued debug print: the commit
    /// paths the suite designs leave quiet (none of them prints).
    fn printer() -> Module {
        let mut m = Module::new("printer");
        let en = m.input("en", 1);
        let wide = m.input("wide", 100);
        let addr = m.input("addr", 3);
        let q = m.reg("q", 100);
        let out = m.output("out", 16);
        let mem = m.array("mem", 16, 8);
        m.update_when(q, Expr::Signal(en), Expr::Signal(q).add(Expr::Signal(wide)));
        m.array_write(
            mem,
            Expr::Signal(en),
            Expr::Signal(addr),
            Expr::Signal(q).slice(0, 16),
        );
        m.assign(
            out,
            Expr::ArrayRead {
                array: mem,
                index: Box::new(Expr::Signal(addr)),
            },
        );
        m.dprint(Expr::Signal(en), "q", Some(Expr::Signal(q)));
        m
    }

    /// Drives the portable engine and its AVX2 copy with one seeded
    /// stimulus and compares every observable on every cycle: each
    /// signal of each lane after the settle, the fingerprints, the toggle
    /// counts and the prints the commit delivers.
    fn side_by_side<const L: usize>(module: &Module, seed: u64) {
        let name = &module.name;
        let tape = Arc::new(
            Tape::compile_with(Arc::new(module.clone()), TapeOptions::default())
                .expect("design lowers"),
        );
        let mut engines: [Box<dyn LaneGroup>; 2] = [
            Box::new(LaneEngine::<L>::new(Arc::clone(&tape))),
            Box::new(Avx2::<L>::new(&tape).expect("the caller checked for AVX2")),
        ];
        let inputs: Vec<(SignalId, usize)> = module
            .iter_signals()
            .filter(|(_, s)| s.kind == SignalKind::Input)
            .map(|(id, s)| (id, s.width))
            .collect();
        let mut rng = seed;
        for cycle in 0..CYCLES {
            for &(id, width) in &inputs {
                let vals: Vec<u64> = (0..L).map(|_| xorshift(&mut rng)).collect();
                for e in &mut engines {
                    e.poke_rows_u64(id, &vals);
                }
                if width > 64 && cycle % 2 == 1 {
                    for lane in 0..L {
                        let words: Vec<u64> = (0..width.div_ceil(64))
                            .map(|_| xorshift(&mut rng))
                            .collect();
                        let v = Bits::from_words(width, &words);
                        for e in &mut engines {
                            e.poke_lane(id, &v, lane);
                        }
                    }
                }
            }
            for e in &mut engines {
                e.settle();
            }
            let [portable, avx2] = &mut engines;
            for (id, s) in module.iter_signals() {
                for lane in 0..L {
                    assert_eq!(
                        portable.peek_lane(id, lane),
                        avx2.peek_lane(id, lane),
                        "{name} at {L} lanes, cycle {cycle}: `{}` on lane {lane}",
                        s.name
                    );
                }
            }
            for lane in 0..L {
                assert_eq!(
                    portable.state_fingerprint_lane(lane),
                    avx2.state_fingerprint_lane(lane),
                    "{name} at {L} lanes, cycle {cycle}: fingerprint of lane {lane}"
                );
                assert_eq!(
                    portable.toggle_counts_lane(lane),
                    avx2.toggle_counts_lane(lane),
                    "{name} at {L} lanes, cycle {cycle}: toggles of lane {lane}"
                );
            }
            let mut logs = [Vec::new(), Vec::new()];
            for (e, log) in engines.iter_mut().zip(&mut logs) {
                e.commit(&mut |lane, msg| log.push((lane, msg)));
            }
            assert_eq!(
                logs[0], logs[1],
                "{name} at {L} lanes, cycle {cycle}: prints"
            );
        }
    }

    #[test]
    fn avx2_engine_matches_the_portable_engine_on_every_suite_design() {
        if !std::is_x86_feature_detected!("avx2") {
            eprintln!("note: this CPU lacks AVX2, so there is no AVX2 engine to compare");
            return;
        }
        let mut modules: Vec<Module> = anvil_designs::registry()
            .iter()
            .map(|d| (d.anvil)())
            .collect();
        modules.push(printer());
        for (i, m) in modules.iter().enumerate() {
            let seed = 0x5EED_0000_0000_0001 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            side_by_side::<4>(m, seed);
            side_by_side::<8>(m, seed);
            side_by_side::<16>(m, seed);
            side_by_side::<32>(m, seed);
        }
    }
}

//! Multi-lane batch simulation: one compiled tape, many stimulus lanes.
//!
//! [`SimBatch`] drives the multi-lane tape executor
//! (`crate::tape::LaneEngine`): the design is lowered to its instruction
//! tape **once**, and the word-packed state arena is widened into a
//! structure-of-arrays holding [`LANE_STRIDE`] (32) independent lanes per
//! engine group, with groups stacked for larger batches; a lane count
//! that is not a multiple of 32 leaves spare lanes in the last group,
//! which run but are never observed. Each settle decodes every op once
//! and runs its inner loop across all
//! lanes over contiguous memory, so the per-op dispatch cost is amortized
//! and the lane loops auto-vectorize — aggregate stimulus throughput
//! (cycles·lanes/sec) scales with SIMD width where a scalar
//! [`Sim`](crate::Sim) per stimulus pays full dispatch per lane. On
//! x86-64 CPUs with AVX2, detected when each group is built, the groups
//! run an AVX2 copy of the executor's loops; elsewhere they run the
//! portable (baseline SSE2 on x86-64) code. Both give identical results.
//!
//! Memories with no write port (ROMs, such as the AES core's S-boxes) are
//! not widened: every lane of every batch reads the one image the
//! [`TapeProgram`] holds, so building, resetting and fingerprinting a
//! batch costs nothing per ROM element.
//!
//! Lane-divergent behaviour is fully supported: every lane has its own
//! inputs ([`SimBatch::poke`]), outputs ([`SimBatch::peek`]), debug-print
//! log ([`SimBatch::log`]), toggle counters, and state fingerprint, and
//! every observable is bit-identical to running the same stimulus on a
//! `Sim` (differentially property-tested against the tree-walking
//! reference engine over the paper's ten-design evaluation suite in
//! `tests/batch_differential.rs`).
//!
//! Like [`Sim`](crate::Sim), `SimBatch` settles *lazily*: pokes only mark
//! lanes dirty and the laned settle runs once per step or read. Its reads
//! take `&mut self`, since the settle they may run mutates the group.
//!
//! For multi-core sweeps, [`TapeProgram`] shares one lowered tape across
//! threads and [`sweep_chunks`] is the `std::thread::scope` chunked
//! driver: it carves a logical lane range into chunks, and each worker
//! runs a caller-supplied closure on its chunks with one [`SimBatch`] it
//! keeps and resets between them. perfbench's `sim_sweep` workload is
//! built on it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use anvil_rtl::{ArrayId, Bits, Expr, Module, SignalId, SignalKind};

use crate::engine::{check_driver_widths, SimError};
use crate::tape::{new_lane_group, LaneGroup, Tape, TapeOptions};

/// Number of lanes one laned engine group executes in lockstep (the
/// SIMD-style stride of the multi-lane executor). [`SimBatch`] accepts
/// any lane count and stacks `lanes.div_ceil(LANE_STRIDE)` groups; the
/// last group's spare lanes run but are never observed. A 32-lane sweep
/// chunk is one group, so each op is decoded once per chunk, and 32
/// one-word lanes are eight AVX2 registers.
pub const LANE_STRIDE: usize = 32;

/// A module lowered once to its instruction tape, shareable across
/// threads.
///
/// Lowering is the expensive part of preparing a compiled simulation;
/// `TapeProgram` performs it once and hands out as many [`SimBatch`]es as
/// needed (each with its own state, e.g. one per sweep worker). The
/// program is cheap to share: all heavy pieces sit behind `Arc`s, and the
/// type is `Send + Sync`.
///
/// # Examples
///
/// ```
/// use anvil_rtl::{Bits, Expr, Module};
/// use anvil_sim::TapeProgram;
///
/// let mut m = Module::new("counter");
/// let en = m.input("en", 1);
/// let q = m.reg("q", 8);
/// let out = m.output("out", 8);
/// m.update_when(q, Expr::Signal(en), Expr::Signal(q).add(Expr::lit(1, 8)));
/// m.assign(out, Expr::Signal(q));
///
/// let program = TapeProgram::compile(&m)?;
/// let mut batch = program.batch(4);
/// for lane in 0..4 {
///     batch.poke(lane, "en", Bits::bit(lane % 2 == 0))?;
/// }
/// batch.run(5);
/// assert_eq!(batch.peek(0, "out")?.to_u64(), 5);
/// assert_eq!(batch.peek(1, "out")?.to_u64(), 0);
/// # Ok::<(), anvil_sim::SimError>(())
/// ```
#[derive(Clone)]
pub struct TapeProgram {
    module: Arc<Module>,
    names: Arc<HashMap<String, SignalId>>,
    /// Compact per-signal width table for the hot poke paths (avoids
    /// touching the `Signal` structs and their name strings per poke).
    widths: Arc<Vec<u32>>,
    tape: Arc<Tape>,
}

impl TapeProgram {
    /// Lowers a flattened module into a shareable tape program with the
    /// default optimization options (fusion and dirty-region skipping on).
    ///
    /// # Errors
    ///
    /// Same contract as [`Sim::new`](crate::Sim::new):
    /// [`SimError::NotFlat`], [`SimError::CombinationalLoop`],
    /// [`SimError::DriverWidth`], or [`SimError::MalformedExpr`].
    pub fn compile(module: &Module) -> Result<TapeProgram, SimError> {
        TapeProgram::compile_with(module, TapeOptions::default())
    }

    /// [`TapeProgram::compile`] with explicit [`TapeOptions`] — the
    /// differential test matrix drives every (fusion × dirty-region)
    /// combination through this entry point.
    ///
    /// # Errors
    ///
    /// As [`TapeProgram::compile`].
    pub fn compile_with(module: &Module, opts: TapeOptions) -> Result<TapeProgram, SimError> {
        if !module.instances.is_empty() {
            return Err(SimError::NotFlat(module.name.clone()));
        }
        check_driver_widths(module)?;
        let _sp = anvil_trace::span("sim", "tape.lower").detail_with(|| module.name.clone());
        let module = Arc::new(module.clone());
        let names = Arc::new(module.name_index());
        let widths = Arc::new(module.signals.iter().map(|s| s.width as u32).collect());
        let tape = Arc::new(Tape::compile_with(Arc::clone(&module), opts)?);
        Ok(TapeProgram {
            module,
            names,
            widths,
            tape,
        })
    }

    /// The lowered module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Histogram of op mnemonics in the optimized settle program, sorted
    /// by mnemonic — the profile future fusion candidates are chosen
    /// from (perfbench's `sim.tape_ops` count is its total).
    pub fn op_mix(&self) -> Vec<(&'static str, usize)> {
        self.tape.op_mix()
    }

    /// Number of settle regions the tape was partitioned into.
    pub fn region_count(&self) -> usize {
        self.tape.region_count()
    }

    /// Creates a batch simulation with `lanes` independent stimulus lanes
    /// over this program's (already lowered) tape, in
    /// `lanes.div_ceil(LANE_STRIDE)` groups of [`LANE_STRIDE`] lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn batch(&self, lanes: usize) -> SimBatch {
        assert!(lanes > 0, "a batch needs at least one lane");
        let groups = (0..lanes.div_ceil(LANE_STRIDE))
            .map(|_| new_lane_group(Arc::clone(&self.tape)))
            .collect();
        SimBatch {
            module: Arc::clone(&self.module),
            names: Arc::clone(&self.names),
            widths: Arc::clone(&self.widths),
            groups,
            lanes,
            cycle: 0,
            logs: vec![Vec::new(); lanes],
        }
    }
}

/// A batch of independent simulations of one module, executed in lockstep
/// by the multi-lane tape engine.
///
/// Execution model: lanes share one lowered tape; each settle decodes
/// every op once and covers all lanes. The batch settles *lazily* —
/// pokes mark lanes dirty and reads settle on demand, which is why reads
/// take `&mut self`.
pub struct SimBatch {
    module: Arc<Module>,
    names: Arc<HashMap<String, SignalId>>,
    /// Per-signal widths, indexed by `SignalId` (poke-path width checks).
    widths: Arc<Vec<u32>>,
    /// Lane engines of [`LANE_STRIDE`] lanes each: lane `i` is sublane
    /// `i % LANE_STRIDE` of group `i / LANE_STRIDE`. Sublanes of the last
    /// group beyond `lanes` execute but are never observed.
    groups: Vec<Box<dyn LaneGroup>>,
    lanes: usize,
    cycle: u64,
    /// Per-lane debug-print logs, `(cycle, message)`.
    logs: Vec<Vec<(u64, String)>>,
}

impl SimBatch {
    /// Lowers `module` and prepares a batch of `lanes` simulations.
    ///
    /// When several batches (or sweep workers) need the same design,
    /// lower once via [`TapeProgram::compile`] instead.
    ///
    /// # Errors
    ///
    /// See [`TapeProgram::compile`].
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(module: &Module, lanes: usize) -> Result<SimBatch, SimError> {
        Ok(TapeProgram::compile(module)?.batch(lanes))
    }

    /// Number of stimulus lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Total laned memory words across all groups. Writable memories are
    /// laned in every group. A ROM — a memory with no write port — is not:
    /// every lane reads the one image the program's tape holds, until
    /// [`SimBatch::poke_array`] writes it and that lane's group makes a
    /// laned copy, which [`SimBatch::reset`] drops again.
    pub fn memory_words(&self) -> usize {
        self.groups.iter().map(|g| g.memory_words()).sum()
    }

    /// Resolves an input port's id for the hot poke path
    /// ([`SimBatch::poke_id`]): resolve once, poke every cycle without
    /// the name lookup.
    ///
    /// # Errors
    ///
    /// Fails on unknown names and non-input signals.
    pub fn input_id(&self, name: &str) -> Result<SignalId, SimError> {
        let id = self.resolve(name)?;
        if self.module.signal(id).kind != SignalKind::Input {
            return Err(SimError::NotAnInput(name.to_string()));
        }
        Ok(id)
    }

    /// Sets an input port on one lane by pre-resolved id (see
    /// [`SimBatch::input_id`]). Width-checked like [`SimBatch::poke`].
    ///
    /// # Errors
    ///
    /// Fails on width mismatches.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn poke_id(&mut self, lane: usize, id: SignalId, value: &Bits) -> Result<(), SimError> {
        if self.widths[id.0] as usize != value.width() {
            let sig = self.module.signal(id);
            return Err(SimError::WidthMismatch {
                signal: sig.name.clone(),
                expected: sig.width,
                found: value.width(),
            });
        }
        let sub = lane % LANE_STRIDE;
        self.group(lane).poke_lane(id, value, sub);
        Ok(())
    }

    /// Sets an input port on **every** lane from one `u64` per lane, in a
    /// single call — the sweep-driver hot path. `vals[l]` is truncated to
    /// the port width and zero-extended, exactly like
    /// `poke_id(l, id, &Bits::from_u64(vals[l], width))` per lane, but
    /// the slot and dirty-region lookups are amortized over each lane
    /// group's whole row.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != self.lanes()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use anvil_rtl::{Expr, Module};
    /// use anvil_sim::SimBatch;
    ///
    /// let mut m = Module::new("inc");
    /// let x = m.input("x", 8);
    /// let out = m.output("out", 8);
    /// m.assign(out, Expr::Signal(x).add(Expr::lit(1, 8)));
    ///
    /// let mut batch = SimBatch::new(&m, 3)?;
    /// let id = batch.input_id("x")?;
    /// batch.poke_u64s(id, &[10, 20, 0xFFF]);
    /// assert_eq!(batch.peek(2, "out")?.to_u64(), 0); // 0xFF + 1 wraps
    /// # Ok::<(), anvil_sim::SimError>(())
    /// ```
    pub fn poke_u64s(&mut self, id: SignalId, vals: &[u64]) {
        assert_eq!(vals.len(), self.lanes, "one value per lane");
        for (g, chunk) in vals.chunks(LANE_STRIDE).enumerate() {
            self.groups[g].poke_rows_u64(id, chunk);
        }
    }

    /// Current cycle number (clock edges so far; all lanes step together).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Debug prints fired on one lane so far, as `(cycle, message)`.
    pub fn log(&self, lane: usize) -> &[(u64, String)] {
        &self.logs[lane]
    }

    fn resolve(&self, name: &str) -> Result<SignalId, SimError> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| SimError::UnknownSignal(name.to_string()))
    }

    #[inline]
    fn group(&mut self, lane: usize) -> &mut dyn LaneGroup {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        &mut *self.groups[lane / LANE_STRIDE]
    }

    /// Sets an input port on one lane for the current cycle. Lazy: the
    /// lane group is only re-settled on the next read or step.
    ///
    /// # Errors
    ///
    /// Fails on unknown names, non-input signals, or width mismatches.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn poke(&mut self, lane: usize, name: &str, value: Bits) -> Result<(), SimError> {
        let id = self.resolve(name)?;
        let sig = self.module.signal(id);
        if sig.kind != SignalKind::Input {
            return Err(SimError::NotAnInput(name.to_string()));
        }
        if sig.width != value.width() {
            return Err(SimError::WidthMismatch {
                signal: name.to_string(),
                expected: sig.width,
                found: value.width(),
            });
        }
        let sub = lane % LANE_STRIDE;
        self.group(lane).poke_lane(id, &value, sub);
        Ok(())
    }

    /// Sets an input port to the same value on every lane.
    ///
    /// # Errors
    ///
    /// See [`SimBatch::poke`].
    pub fn poke_all(&mut self, name: &str, value: Bits) -> Result<(), SimError> {
        for lane in 0..self.lanes {
            self.poke(lane, name, value.clone())?;
        }
        Ok(())
    }

    /// Reads a signal's settled value on one lane.
    ///
    /// # Errors
    ///
    /// Fails on unknown signal names.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn peek(&mut self, lane: usize, name: &str) -> Result<Bits, SimError> {
        let id = self.resolve(name)?;
        Ok(self.peek_id(lane, id))
    }

    /// Reads a signal by id on one lane (no name lookup).
    pub fn peek_id(&mut self, lane: usize, id: SignalId) -> Bits {
        let sub = lane % LANE_STRIDE;
        let g = self.group(lane);
        g.settle();
        g.peek_lane(id, sub)
    }

    /// Reads one element of a memory on one lane.
    pub fn peek_array(&mut self, lane: usize, array: ArrayId, index: usize) -> Bits {
        let sub = lane % LANE_STRIDE;
        let g = self.group(lane);
        g.settle();
        g.peek_array_lane(array, index, sub)
    }

    /// Writes one element of a memory on one lane (test setup). The value
    /// is resized to the declared element width. Poking a ROM gives the
    /// lane's group a laned copy of it (see [`SimBatch::memory_words`]);
    /// the other lanes' contents do not change.
    pub fn poke_array(&mut self, lane: usize, array: ArrayId, index: usize, value: Bits) {
        let width = self.module.arrays[array.0].width;
        let value = if value.width() == width {
            value
        } else {
            value.resize(width)
        };
        let sub = lane % LANE_STRIDE;
        self.group(lane).poke_array_lane(array, index, &value, sub);
    }

    /// Evaluates an arbitrary expression against one lane's settled state.
    pub fn eval(&mut self, lane: usize, e: &Expr) -> Bits {
        let sub = lane % LANE_STRIDE;
        let g = self.group(lane);
        g.settle();
        g.eval_lane(e, sub)
    }

    /// Architectural-state hash of one lane — identical to
    /// [`Sim::state_fingerprint`](crate::Sim::state_fingerprint) for
    /// identical per-lane state, under the same rule: registers and
    /// writable memories hash their words, and a ROM adds one digest of
    /// its contents. The digest of a ROM's shared image is taken once per
    /// program, so a lane's fingerprint costs nothing per ROM element;
    /// a ROM that [`SimBatch::poke_array`] wrote is digested from the
    /// lane's own copy until [`SimBatch::reset`].
    pub fn state_fingerprint(&mut self, lane: usize) -> u64 {
        let sub = lane % LANE_STRIDE;
        self.group(lane).state_fingerprint_lane(sub)
    }

    /// State fingerprints of every lane, in lane order (see
    /// [`SimBatch::state_fingerprint`]; shared ROMs add no per-lane
    /// hashing work).
    pub fn fingerprints(&mut self) -> Vec<u64> {
        (0..self.lanes).map(|l| self.state_fingerprint(l)).collect()
    }

    /// Total observed bit toggles per signal on one lane, in signal-id
    /// order (matches [`Sim::toggle_counts`](crate::Sim::toggle_counts)).
    pub fn toggle_counts(&self, lane: usize) -> Vec<u64> {
        assert!(lane < self.lanes, "lane {lane} out of {}", self.lanes);
        self.groups[lane / LANE_STRIDE].toggle_counts_lane(lane % LANE_STRIDE)
    }

    /// Advances every lane one clock edge: settles, fires per-lane debug
    /// prints, counts per-lane toggles, commits registers and memories.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        let lanes = self.lanes;
        let logs = &mut self.logs;
        for (g, eng) in self.groups.iter_mut().enumerate() {
            let base = g * LANE_STRIDE;
            eng.settle();
            eng.commit(&mut |sub, msg| {
                if base + sub < lanes {
                    logs[base + sub].push((cycle, msg));
                }
            });
        }
        self.cycle += 1;
    }

    /// Runs `n` clock cycles with the current per-lane inputs.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Restores every lane to power-on state, clears the per-lane logs
    /// and toggle counters, and rewinds the cycle counter. The lowered
    /// tape is reused — this is the cheap path sweep drivers replay
    /// thousands of schedules through.
    pub fn reset(&mut self) {
        for g in &mut self.groups {
            g.reset();
        }
        for l in &mut self.logs {
            l.clear();
        }
        self.cycle = 0;
    }
}

/// The `std::thread::scope` chunked sweep driver: carves `total` logical
/// lanes into [`SimBatch`]es of at most `chunk` lanes and runs `f` on
/// every chunk across up to `workers` threads (the calling thread is one
/// of them), sharing one lowered tape.
///
/// Workers claim chunks from one atomic counter, so one descheduled
/// thread delays a sweep less than a fixed split would. `f` receives the
/// chunk's first logical lane index and a batch of
/// `min(chunk, total - first)` lanes in its power-on state: each worker
/// keeps one batch and [`SimBatch::reset`]s it between chunks, building a
/// new one only when the lane count changes (the ragged last chunk).
/// Results are returned **in chunk order** regardless of which worker ran
/// which chunk, so callers can fold over them deterministically.
///
/// # Errors
///
/// The first `Err` from `f` (in chunk order) is propagated.
///
/// # Panics
///
/// Panics if `chunk` is zero, or if a worker thread panics.
pub fn sweep_chunks<R, F>(
    program: &TapeProgram,
    total: usize,
    chunk: usize,
    workers: usize,
    f: F,
) -> Result<Vec<R>, SimError>
where
    R: Send,
    F: Fn(usize, &mut SimBatch) -> Result<R, SimError> + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let n = total.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut kept: Option<SimBatch> = None;
        let mut got = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let first = i * chunk;
            let lanes = chunk.min(total - first);
            let batch = match &mut kept {
                Some(batch) if batch.lanes() == lanes => {
                    batch.reset();
                    batch
                }
                _ => kept.insert(program.batch(lanes)),
            };
            got.push((i, f(first, batch)));
        }
        got
    };
    let mut slots: Vec<Option<Result<R, SimError>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(n)).map(|_| s.spawn(work)).collect();
        let mut store = |got: Vec<(usize, Result<R, SimError>)>| {
            for (i, r) in got {
                slots[i] = Some(r);
            }
        };
        store(work());
        for h in helpers {
            store(h.join().expect("sweep worker panicked"));
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every chunk was claimed by a worker"))
        .collect()
}

// The program and batch cross thread boundaries (sweep workers).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TapeProgram>();
    assert_send_sync::<SimBatch>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Sim};
    use anvil_rtl::Expr;

    fn counter() -> Module {
        let mut m = Module::new("counter");
        let en = m.input("en", 1);
        let q = m.reg("q", 8);
        let out = m.output("out", 8);
        m.update_when(q, Expr::Signal(en), Expr::Signal(q).add(Expr::lit(1, 8)));
        m.assign(out, Expr::Signal(q));
        m
    }

    #[test]
    fn lanes_diverge_independently() {
        // 40 lanes: one full group and 8 lanes of a second, so the lanes
        // cross a group boundary.
        let mut b = TapeProgram::compile(&counter()).unwrap().batch(40);
        assert_eq!(b.groups.len(), 2);
        for lane in 0..40 {
            b.poke(lane, "en", Bits::bit(lane % 3 == 0)).unwrap();
        }
        b.run(6);
        for lane in 0..40 {
            let expect = if lane % 3 == 0 { 6 } else { 0 };
            assert_eq!(b.peek(lane, "out").unwrap().to_u64(), expect, "lane {lane}");
        }
    }

    #[test]
    fn matches_scalar_sim_per_lane() {
        let m = counter();
        let mut b = SimBatch::new(&m, 5).unwrap();
        let mut scalars: Vec<Sim> = (0..5)
            .map(|_| Sim::with_backend(&m, Backend::Compiled).unwrap())
            .collect();
        let mut seed = 0x1234_5678_9abc_def0u64;
        for _ in 0..50 {
            for (lane, s) in scalars.iter_mut().enumerate() {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let v = Bits::from_u64(seed, 1);
                s.poke("en", v.clone()).unwrap();
                b.poke(lane, "en", v).unwrap();
            }
            for (lane, s) in scalars.iter_mut().enumerate() {
                assert_eq!(s.peek("out").unwrap(), b.peek(lane, "out").unwrap());
                assert_eq!(s.state_fingerprint(), b.state_fingerprint(lane));
                s.step().unwrap();
            }
            b.step();
        }
        for (lane, s) in scalars.iter().enumerate() {
            assert_eq!(s.toggle_counts(), &b.toggle_counts(lane)[..]);
        }
    }

    #[test]
    fn per_lane_prints() {
        let mut m = Module::new("p");
        let en = m.input("en", 1);
        let o = m.output("o", 1);
        m.assign(o, Expr::Signal(en));
        m.dprint(Expr::Signal(en), "fired", Some(Expr::lit(0x5, 4)));
        let mut b = SimBatch::new(&m, 3).unwrap();
        b.poke(1, "en", Bits::bit(true)).unwrap();
        b.step();
        assert!(b.log(0).is_empty());
        assert_eq!(b.log(1), &[(0, "fired: 5".to_string())]);
        assert!(b.log(2).is_empty());
    }

    #[test]
    fn reset_restores_every_lane() {
        let mut b = SimBatch::new(&counter(), 4).unwrap();
        b.poke_all("en", Bits::bit(true)).unwrap();
        b.run(3);
        assert_eq!(b.peek(2, "out").unwrap().to_u64(), 3);
        b.reset();
        assert_eq!(b.cycle(), 0);
        for lane in 0..4 {
            assert_eq!(b.peek(lane, "out").unwrap().to_u64(), 0);
        }
    }

    #[test]
    fn sweep_chunks_returns_in_chunk_order() {
        let program = TapeProgram::compile(&counter()).unwrap();
        let out = sweep_chunks(&program, 30, 8, 4, |first, batch| {
            batch.poke_all("en", Bits::bit(true))?;
            batch.run(u64::try_from(first).unwrap() % 5 + 1);
            Ok((first, batch.lanes(), batch.peek(0, "out")?.to_u64()))
        })
        .unwrap();
        assert_eq!(out, vec![(0, 8, 1), (8, 8, 4), (16, 8, 2), (24, 6, 5)],);
    }

    #[test]
    fn sweep_chunks_agree_across_worker_counts() {
        // 30 lanes in chunks of 8: the last chunk is ragged (6 lanes), so
        // a worker that kept an 8-lane batch builds a new one for it.
        let program = TapeProgram::compile(&counter()).unwrap();
        let pass = |workers| {
            sweep_chunks(&program, 30, 8, workers, |first, batch| {
                assert_eq!(batch.cycle(), 0);
                assert_eq!(batch.peek(0, "out")?.to_u64(), 0);
                batch.poke_all("en", Bits::bit(true))?;
                batch.run(u64::try_from(first).unwrap() % 5 + 1);
                Ok((first, batch.lanes(), batch.peek(0, "out")?.to_u64()))
            })
            .unwrap()
        };
        let one = pass(1);
        assert_eq!(one, vec![(0, 8, 1), (8, 8, 4), (16, 8, 2), (24, 6, 5)]);
        assert_eq!(pass(2), one);
        assert_eq!(pass(3), one);
    }

    /// A ROM, a memory with a write port and a debug print: the state a
    /// chunk can leave behind in the batch its worker keeps.
    fn stateful() -> Module {
        let mut m = Module::new("stateful");
        let en = m.input("en", 1);
        let addr = m.input("addr", 2);
        let q = m.reg("q", 8);
        let out = m.output("out", 8);
        let image = (1..=4).map(|v| Bits::from_u64(v * 0x11, 8)).collect();
        let rom = m.array_init("rom", 8, 4, image);
        let mem = m.array("mem", 8, 4);
        let read = |array| Expr::ArrayRead {
            array,
            index: Box::new(Expr::Signal(addr)),
        };
        m.update_when(q, Expr::Signal(en), Expr::Signal(q).add(read(rom)));
        m.array_write(mem, Expr::Signal(en), Expr::Signal(addr), Expr::Signal(q));
        m.assign(out, read(mem));
        m.dprint(Expr::Signal(en), "q", Some(Expr::Signal(q)));
        m
    }

    #[test]
    fn sweep_chunks_hand_every_chunk_a_power_on_batch() {
        let m = stateful();
        let (rom, mem) = (m.find_array("rom").unwrap(), m.find_array("mem").unwrap());
        let program = TapeProgram::compile(&m).unwrap();
        let mut fresh = program.batch(8);
        let (fresh_words, fresh_fps) = (fresh.memory_words(), fresh.fingerprints());
        for workers in [1, 2] {
            let firsts = sweep_chunks(&program, 40, 8, workers, |first, batch| {
                assert_eq!(batch.cycle(), 0, "chunk {first}");
                assert_eq!(batch.memory_words(), fresh_words, "chunk {first}: ROM copy");
                assert_eq!(batch.fingerprints(), fresh_fps, "chunk {first}");
                for lane in 0..batch.lanes() {
                    assert!(batch.log(lane).is_empty(), "chunk {first}");
                    assert!(batch.toggle_counts(lane).iter().all(|&t| t == 0));
                    assert_eq!(batch.peek_array(lane, rom, 2).to_u64(), 0x33);
                    assert_eq!(batch.peek_array(lane, mem, 2).to_u64(), 0);
                }
                batch.poke_array(3, rom, 2, Bits::from_u64(0xEE, 8));
                batch.poke_all("en", Bits::bit(true))?;
                batch.poke_all("addr", Bits::from_u64(2, 2))?;
                batch.run(3);
                assert!(batch.memory_words() > fresh_words, "a laned ROM copy");
                assert_eq!(batch.log(0).len(), 3);
                assert_eq!(batch.peek_array(3, mem, 2).to_u64(), 0xEE * 2 % 256);
                Ok(first)
            })
            .unwrap();
            assert_eq!(firsts, vec![0, 8, 16, 24, 32]);
        }
    }

    #[test]
    fn poke_errors_match_sim() {
        let mut b = SimBatch::new(&counter(), 2).unwrap();
        assert!(matches!(
            b.poke(0, "nope", Bits::bit(true)),
            Err(SimError::UnknownSignal(_))
        ));
        assert!(matches!(
            b.poke(0, "out", Bits::from_u64(0, 8)),
            Err(SimError::NotAnInput(_))
        ));
        assert!(matches!(
            b.poke(0, "en", Bits::from_u64(0, 2)),
            Err(SimError::WidthMismatch { .. })
        ));
    }
}

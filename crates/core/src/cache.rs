//! The fingerprint-keyed query cache behind incremental compilation.
//!
//! The [`Session`](crate::Session) owns one [`QueryCache`] holding per-proc
//! artifacts at every stage boundary of the pipeline:
//!
//! | stage  | artifact                                                   |
//! |--------|------------------------------------------------------------|
//! | check  | the [`ProcReport`] (derived from the two-iteration IR)     |
//! | opt-ir | optimized single-iteration event graphs + event counts     |
//! | lower  | the lowered RTL [`Module`]                                 |
//! | emit   | the emitted SystemVerilog chunk for that module            |
//! | aig    | the bit-blasted [`AigCircuit`] of a flattened top unit     |
//! | proof  | a proof certificate for one (unit, property) pair          |
//!
//! Keys are 64-bit fingerprints computed by [`crate::units`] from the
//! item's span-independent content hash, the content hashes of the
//! channel/extern definitions it depends on, the codegen options, and (for
//! lower/emit) the transitive fingerprints of spawned children plus the
//! extern-library generation. Values are `Arc`-shared and immutable, so a
//! hit is a pointer clone.
//!
//! The cache is sharded — each shard is an independent `Mutex<HashMap>` —
//! so concurrent `compile_batch` workers contend only on the shard a key
//! lands in, and it is `Send + Sync` (statically asserted in `lib.rs`).
//! Eviction is least-recently-used per shard, driven by a global logical
//! clock; hits, misses, and evictions are counted per stage in
//! [`CacheStats`].
//!
//! # Poisoned-shard recovery
//!
//! The cache is the one piece of state shared across every compile of a
//! long-running service, so a panicking compile must never take it down.
//! If a thread panics while holding a shard lock, the shard mutex is
//! poisoned; instead of propagating the poison (which would make *every*
//! future compile that touches the shard panic too), `get`/`insert`
//! recover: the poisoned shard's entries are discarded — a panic mid
//! mutation could have left them half-updated — the poison is cleared,
//! and the event is counted in [`CacheStats::poisoned`]. Artifacts are
//! immutable `Arc`s, so dropping a shard only costs warm-path misses;
//! correctness is unaffected (recomputed artifacts are byte-identical).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::fault::{FaultKind, FaultPlan};

use anvil_ir::ThreadIr;
use anvil_rtl::Module;
use anvil_smt::{AigCircuit, ProofCert};
use anvil_typeck::ProcReport;

/// Number of independent shards (power of two; keys are well-mixed FNV
/// hashes, so low bits select shards uniformly).
const SHARDS: usize = 16;

/// Default total capacity in artifacts. Four artifacts per compilation
/// unit means the default comfortably holds a few hundred procs.
pub(crate) const DEFAULT_CAPACITY: usize = 4096;

/// Pipeline stages with a cache boundary, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Parse-independent elaboration + timing-safety checking (unroll 2).
    Check,
    /// Single-iteration IR build + §6.1 event-graph optimization.
    OptIr,
    /// FSM generation / RTL lowering.
    Lower,
    /// Per-module SystemVerilog emission.
    Emit,
    /// Bit-blasting of a flattened top-level unit into an And-Inverter
    /// Graph (the symbolic-verification artifact).
    Aig,
    /// Proof certificates (inductive invariants, k-induction depths,
    /// replayable counterexamples) keyed by unit fingerprint × property.
    Proof,
}

impl Stage {
    pub(crate) const ALL: [Stage; 6] = [
        Stage::Check,
        Stage::OptIr,
        Stage::Lower,
        Stage::Emit,
        Stage::Aig,
        Stage::Proof,
    ];

    fn index(self) -> usize {
        match self {
            Stage::Check => 0,
            Stage::OptIr => 1,
            Stage::Lower => 2,
            Stage::Emit => 3,
            Stage::Aig => 4,
            Stage::Proof => 5,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Stage::Check => "check",
            Stage::OptIr => "opt-ir",
            Stage::Lower => "lower",
            Stage::Emit => "emit",
            Stage::Aig => "aig",
            Stage::Proof => "proof",
        }
    }
}

/// Hit/miss/eviction counters for one pipeline stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to recompute the artifact.
    pub misses: u64,
    /// Artifacts dropped to stay under the capacity.
    pub evictions: u64,
}

impl std::ops::Sub for StageCounters {
    type Output = StageCounters;

    fn sub(self, rhs: StageCounters) -> StageCounters {
        StageCounters {
            hits: self.hits.saturating_sub(rhs.hits),
            misses: self.misses.saturating_sub(rhs.misses),
            evictions: self.evictions.saturating_sub(rhs.evictions),
        }
    }
}

/// A snapshot of the query cache's counters, per stage.
///
/// Counters are cumulative over the session's lifetime; subtract two
/// snapshots (the `Sub` impl is element-wise) to measure one compile:
///
/// ```
/// use anvil_core::Session;
///
/// let session = Session::new();
/// let src = "proc p() { reg r : logic; loop { set r := ~*r >> cycle 1 } }";
/// session.compile(src)?;
/// let warm = session.cache_stats();
/// session.compile(src)?;
/// let delta = session.cache_stats() - warm;
/// assert_eq!(delta.misses(), 0); // everything served from cache
/// assert_eq!(delta.hits(), 4); // one unit, four stage artifacts
/// # Ok::<(), anvil_core::CompileError>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Counters for the check stage.
    pub check: StageCounters,
    /// Counters for the IR build + optimize stage.
    pub opt_ir: StageCounters,
    /// Counters for the lowering stage.
    pub lower: StageCounters,
    /// Counters for SystemVerilog chunk emission.
    pub emit: StageCounters,
    /// Counters for AIG bit-blasting of flattened units.
    pub aig: StageCounters,
    /// Counters for proof-certificate lookups.
    pub proof: StageCounters,
    /// Shards recovered from mutex poisoning: a compile panicked while
    /// holding a shard lock, and the shard was cleared and kept serving
    /// instead of cascading the panic into every future compile.
    pub poisoned: u64,
}

impl CacheStats {
    /// Counters for one stage.
    pub fn stage(&self, stage: Stage) -> StageCounters {
        match stage {
            Stage::Check => self.check,
            Stage::OptIr => self.opt_ir,
            Stage::Lower => self.lower,
            Stage::Emit => self.emit,
            Stage::Aig => self.aig,
            Stage::Proof => self.proof,
        }
    }

    /// Total hits across stages.
    pub fn hits(&self) -> u64 {
        Stage::ALL.iter().map(|&s| self.stage(s).hits).sum()
    }

    /// Total misses across stages.
    pub fn misses(&self) -> u64 {
        Stage::ALL.iter().map(|&s| self.stage(s).misses).sum()
    }

    /// Total evictions across stages.
    pub fn evictions(&self) -> u64 {
        Stage::ALL.iter().map(|&s| self.stage(s).evictions).sum()
    }
}

impl std::ops::Sub for CacheStats {
    type Output = CacheStats;

    fn sub(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            check: self.check - rhs.check,
            opt_ir: self.opt_ir - rhs.opt_ir,
            lower: self.lower - rhs.lower,
            emit: self.emit - rhs.emit,
            aig: self.aig - rhs.aig,
            proof: self.proof - rhs.proof,
            poisoned: self.poisoned.saturating_sub(rhs.poisoned),
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for stage in Stage::ALL {
            let c = self.stage(stage);
            if !first {
                write!(f, " | ")?;
            }
            first = false;
            write!(
                f,
                "{} {}h/{}m/{}e",
                stage.name(),
                c.hits,
                c.misses,
                c.evictions
            )?;
        }
        write!(
            f,
            " | total {} hits, {} misses, {} evictions",
            self.hits(),
            self.misses(),
            self.evictions()
        )?;
        if self.poisoned > 0 {
            write!(f, ", {} poisoned shard(s) recovered", self.poisoned)?;
        }
        Ok(())
    }
}

/// The optimized-IR artifact for one compilation unit: single-iteration
/// thread graphs ready for lowering, plus the event counts the pass
/// statistics report.
#[derive(Debug)]
pub(crate) struct IrUnit {
    /// Optimized (or verbatim, when optimization is off) thread IRs.
    pub irs: Vec<ThreadIr>,
    /// Total events before optimization.
    pub events_before: usize,
    /// Total events after optimization.
    pub events_after: usize,
}

/// One cached artifact. All payloads are `Arc`-shared immutable values, so
/// cache hits and the LRU bookkeeping never deep-copy. The check stage
/// caches only the derived [`ProcReport`] — the two-iteration thread IRs
/// it came from are never read downstream (codegen rebuilds with a
/// one-iteration unroll), so retaining them would only bloat the LRU.
#[derive(Clone, Debug)]
pub(crate) enum Artifact {
    Checked(Arc<ProcReport>),
    OptIr(Arc<IrUnit>),
    Lowered(Arc<Module>),
    Sv(Arc<String>),
    Aig(Arc<AigCircuit>),
    Proof(Arc<ProofCert>),
}

struct Entry {
    value: Artifact,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
}

/// The sharded, `Send + Sync`, LRU-evicting artifact cache.
pub(crate) struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    /// Total artifact capacity, spread evenly over shards.
    capacity: AtomicUsize,
    /// Global logical clock for LRU recency.
    tick: AtomicU64,
    /// `[stage][hit|miss|evict]`.
    counters: [[AtomicU64; 3]; 6],
    /// Shards recovered from a poisoning panic (see the module docs).
    poisoned: AtomicU64,
    /// Chaos-test fault schedule for the `cache.get` / `cache.insert`
    /// seams; `None` in production. The armed flag keeps the
    /// not-installed fast path to one relaxed atomic load per access.
    faults: Mutex<Option<Arc<FaultPlan>>>,
    faults_armed: AtomicBool,
}

impl fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryCache")
            .field("capacity", &self.capacity.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache::with_capacity(DEFAULT_CAPACITY)
    }
}

impl QueryCache {
    pub(crate) fn with_capacity(capacity: usize) -> QueryCache {
        QueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity: AtomicUsize::new(capacity),
            tick: AtomicU64::new(0),
            counters: Default::default(),
            poisoned: AtomicU64::new(0),
            faults: Mutex::new(None),
            faults_armed: AtomicBool::new(false),
        }
    }

    /// Test support: installs (or clears) the fault schedule consulted
    /// at every `get`/`insert`. See [`crate::fault`].
    pub(crate) fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        self.faults_armed.store(plan.is_some(), Ordering::Relaxed);
        *self.faults.lock().unwrap_or_else(|p| p.into_inner()) = plan;
    }

    /// Executes any fault scheduled for `op` at this occurrence, before
    /// the shard lock is taken (so an injected panic never poisons a
    /// shard by accident — [`FaultKind::PoisonShard`] poisons the
    /// accessed key's shard deliberately, and the very next
    /// [`QueryCache::lock_shard`] exercises recovery).
    fn fault_point(&self, op: &str, key: u64) {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return;
        }
        let plan = self
            .faults
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        match plan.and_then(|p| p.take(op)) {
            Some(FaultKind::Panic) => panic!("injected fault: panic at {op}"),
            Some(FaultKind::Stall(d)) => std::thread::sleep(d),
            Some(FaultKind::PoisonShard) => self.poison_shard_for_tests(key),
            Some(FaultKind::MalformedFrame) | None => {}
        }
    }

    /// Sets the total capacity. An over-full cache trims lazily on the
    /// next insert into each shard.
    pub(crate) fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
    }

    /// Artifacts each shard may hold (at least one, so a unit's artifact
    /// survives long enough to be used within the same compile).
    fn per_shard_capacity(&self) -> usize {
        (self.capacity.load(Ordering::Relaxed) / SHARDS).max(1)
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key as usize) % SHARDS]
    }

    /// Locks the shard `key` maps to, recovering from poisoning.
    ///
    /// A panicking compile that died while holding this lock may have
    /// left the shard's bookkeeping half-updated, so the recovered
    /// shard is cleared before reuse: one panicked request costs warm
    /// misses, never a wedged or panicking cache (the daemon-fatal
    /// failure mode this guards against).
    fn lock_shard(&self, key: u64) -> std::sync::MutexGuard<'_, Shard> {
        let mutex = self.shard(key);
        match mutex.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.map.clear();
                mutex.clear_poison();
                self.poisoned.fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Test support: poisons the shard `key` maps to exactly as a compile
    /// panicking under the lock would (a helper thread panics while
    /// holding it). Used by the poisoned-shard regression tests.
    #[doc(hidden)]
    pub(crate) fn poison_shard_for_tests(&self, key: u64) {
        let mutex = self.shard(key);
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = mutex.lock().expect("shard not yet poisoned");
                    panic!("injected shard poisoning");
                })
                .join()
        });
        assert!(result.is_err(), "poisoning thread must panic");
    }

    fn bump(&self, stage: Stage, kind: usize) {
        self.counters[stage.index()][kind].fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up an artifact, counting a hit or miss for `stage`.
    pub(crate) fn get(&self, stage: Stage, key: u64) -> Option<Artifact> {
        self.fault_point("cache.get", key);
        let mut shard = self.lock_shard(key);
        match shard.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.bump(stage, 0);
                Some(entry.value.clone())
            }
            None => {
                self.bump(stage, 1);
                None
            }
        }
    }

    /// Stores an artifact, evicting least-recently-used entries from the
    /// key's shard while it exceeds its share of the capacity. Evictions
    /// are attributed to the inserting stage's counters.
    pub(crate) fn insert(&self, stage: Stage, key: u64, value: Artifact) {
        self.fault_point("cache.insert", key);
        let cap = self.per_shard_capacity();
        let mut shard = self.lock_shard(key);
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        shard.map.insert(key, Entry { value, last_used });
        while shard.map.len() > cap {
            let oldest = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty shard has an oldest entry");
            shard.map.remove(&oldest);
            self.bump(stage, 2);
        }
    }

    /// A snapshot of the cumulative counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let read = |stage: Stage| StageCounters {
            hits: self.counters[stage.index()][0].load(Ordering::Relaxed),
            misses: self.counters[stage.index()][1].load(Ordering::Relaxed),
            evictions: self.counters[stage.index()][2].load(Ordering::Relaxed),
        };
        CacheStats {
            check: read(Stage::Check),
            opt_ir: read(Stage::OptIr),
            lower: read(Stage::Lower),
            emit: read(Stage::Emit),
            aig: read(Stage::Aig),
            proof: read(Stage::Proof),
            poisoned: self.poisoned.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(s: &str) -> Artifact {
        Artifact::Sv(Arc::new(s.to_string()))
    }

    fn chunk(a: &Artifact) -> String {
        match a {
            Artifact::Sv(s) => s.as_str().to_string(),
            _ => panic!("expected SV artifact"),
        }
    }

    #[test]
    fn hits_and_misses_are_counted_per_stage() {
        let cache = QueryCache::with_capacity(64);
        assert!(cache.get(Stage::Emit, 1).is_none());
        cache.insert(Stage::Emit, 1, sv("a"));
        let got = cache.get(Stage::Emit, 1).expect("hit");
        assert_eq!(chunk(&got), "a");
        let stats = cache.stats();
        assert_eq!(stats.emit.hits, 1);
        assert_eq!(stats.emit.misses, 1);
        assert_eq!(stats.check, StageCounters::default());
        assert_eq!(stats.hits(), 1);
        assert_eq!(stats.misses(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = QueryCache::with_capacity(SHARDS); // one entry per shard
                                                       // Same shard: keys differing by SHARDS.
        let (a, b) = (0u64, SHARDS as u64);
        cache.insert(Stage::Lower, a, sv("a"));
        cache.insert(Stage::Lower, b, sv("b")); // evicts `a` (older)
        assert!(cache.get(Stage::Lower, a).is_none());
        assert!(cache.get(Stage::Lower, b).is_some());
        assert_eq!(cache.stats().lower.evictions, 1);
    }

    #[test]
    fn recency_is_updated_on_hit() {
        let cache = QueryCache::with_capacity(2 * SHARDS); // two entries per shard
        let (a, b, c) = (0u64, SHARDS as u64, 2 * SHARDS as u64);
        cache.insert(Stage::Check, a, sv("a"));
        cache.insert(Stage::Check, b, sv("b"));
        // Touch `a`, making `b` the LRU entry.
        assert!(cache.get(Stage::Check, a).is_some());
        cache.insert(Stage::Check, c, sv("c"));
        assert!(cache.get(Stage::Check, a).is_some());
        assert!(cache.get(Stage::Check, b).is_none());
        assert!(cache.get(Stage::Check, c).is_some());
    }

    #[test]
    fn stats_subtraction_is_elementwise() {
        let cache = QueryCache::with_capacity(64);
        cache.insert(Stage::OptIr, 7, sv("x"));
        let before = cache.stats();
        assert!(cache.get(Stage::OptIr, 7).is_some());
        assert!(cache.get(Stage::OptIr, 8).is_none());
        let delta = cache.stats() - before;
        assert_eq!(delta.opt_ir.hits, 1);
        assert_eq!(delta.opt_ir.misses, 1);
        assert_eq!(delta.lower, StageCounters::default());
    }

    #[test]
    fn poisoned_shard_recovers_and_keeps_serving() {
        let cache = QueryCache::with_capacity(64);
        let (key, other) = (3u64, 5u64); // different shards
        cache.insert(Stage::Emit, key, sv("a"));
        cache.insert(Stage::Emit, other, sv("b"));

        cache.poison_shard_for_tests(key);

        // The poisoned shard's entries are discarded, the event is
        // counted, and both lookups *work* (the pre-fix code panicked
        // right here with "cache shard poisoned").
        assert!(cache.get(Stage::Emit, key).is_none());
        assert_eq!(cache.stats().poisoned, 1);
        // Other shards are untouched.
        assert_eq!(chunk(&cache.get(Stage::Emit, other).expect("hit")), "b");

        // The shard is fully usable again: insert + hit, no re-count.
        cache.insert(Stage::Emit, key, sv("a2"));
        assert_eq!(chunk(&cache.get(Stage::Emit, key).expect("hit")), "a2");
        assert_eq!(cache.stats().poisoned, 1);
    }

    #[test]
    fn display_names_every_stage() {
        let line = CacheStats::default().to_string();
        for name in ["check", "opt-ir", "lower", "emit", "aig", "proof", "total"] {
            assert!(line.contains(name), "{line}");
        }
    }
}

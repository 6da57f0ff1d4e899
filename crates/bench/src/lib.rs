//! Evaluation harness regenerating every table and figure of the Anvil
//! paper. Each binary under `src/bin/` prints one artifact:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1: area/power/fmax/latency, Anvil vs baseline |
//! | `fig1_hazard` | Fig. 1: the timing-hazard waveform |
//! | `fig2_bsv` | Fig. 2: conflict-free-but-unsafe rule schedules |
//! | `fig4_cache` | Fig. 4: static vs dynamic cache contract latencies |
//! | `fig5_checks` | Fig. 5: compile-time derivations for unsafe/safe Top |
//! | `fig6_encrypt` | Fig. 6: inferred lifetimes/loans for Encrypt |
//! | `fig8_opt` | Fig. 8: event-graph optimization pass ablation |
//! | `appendix_a_bmc` | App. A: BMC vs type checking |
//! | `table2_cases` | App. B Table 2: real-world bug case studies |
//!
//! Criterion benches under `benches/` measure compile/check/simulate speed.

pub mod tracing_guard {
    //! The disabled-tracing overhead guard shared by `bench_sim` and
    //! `bench_prove`.
    //!
    //! Span instrumentation is compiled permanently into the compiler,
    //! solver, and simulator inner loops, so its disabled cost must stay
    //! near zero. The guard is analytic rather than differential: it
    //! times the disabled `span()` fast path directly (create + drop,
    //! many iterations), counts how many spans one *traced* workload
    //! pass actually produces, and asserts that `spans × per_span_cost`
    //! is under [`MAX_OVERHEAD`] of the untraced pass wall time.
    //! Differencing two noisy end-to-end timings would need the bound
    //! itself to exceed run-to-run jitter; the analytic form is stable
    //! in CI at the 2% threshold.

    /// Maximum tolerated disabled-tracing overhead, as a fraction of
    /// the untraced pass wall time.
    pub const MAX_OVERHEAD: f64 = 0.02;

    /// Measured wall cost of one disabled `span()` create + drop, in
    /// seconds. Panics if a capture is active: the point is the fast
    /// path.
    pub fn disabled_span_cost() -> f64 {
        const CALLS: u64 = 10_000_000;
        assert!(
            !anvil_trace::enabled(),
            "the overhead guard must run with tracing disabled"
        );
        let t = std::time::Instant::now();
        for _ in 0..CALLS {
            drop(std::hint::black_box(anvil_trace::span("bench", "disabled")));
        }
        t.elapsed().as_secs_f64() / CALLS as f64
    }

    /// The guard verdict, embedded in the bench JSON records.
    pub struct Overhead {
        /// Spans one traced pass of the workload produced.
        pub spans_per_pass: usize,
        /// Disabled fast-path cost per span site, nanoseconds.
        pub disabled_ns_per_span: f64,
        /// `spans × cost / pass` — the bounded fraction.
        pub fraction: f64,
    }

    /// Asserts the analytic bound for one workload and returns the
    /// measurement: `spans_per_pass` span sites hit per pass, against a
    /// pass that takes `untraced_pass_secs` wall with tracing off.
    pub fn assert_overhead(
        label: &str,
        spans_per_pass: usize,
        untraced_pass_secs: f64,
    ) -> Overhead {
        let per_span = disabled_span_cost();
        let fraction = spans_per_pass as f64 * per_span / untraced_pass_secs.max(1e-12);
        println!(
            "tracing guard [{label}]: {spans_per_pass} spans/pass x {:.1} ns \
             = {:.4}% of a {:.2} ms untraced pass",
            per_span * 1e9,
            fraction * 100.0,
            untraced_pass_secs * 1e3
        );
        assert!(
            fraction < MAX_OVERHEAD,
            "disabled-tracing overhead guard tripped for `{label}`: \
             {spans_per_pass} spans x {:.1} ns/span = {:.2}% of the pass (bound: {:.0}%)",
            per_span * 1e9,
            fraction * 100.0,
            MAX_OVERHEAD * 100.0
        );
        Overhead {
            spans_per_pass,
            disabled_ns_per_span: per_span * 1e9,
            fraction,
        }
    }
}

/// Formats a ± percentage delta for the Table 1 style columns.
pub fn pct(anvil: f64, baseline: f64) -> String {
    if baseline == 0.0 {
        return "n/a".to_string();
    }
    let d = (anvil - baseline) / baseline * 100.0;
    format!("{d:+.1}%")
}

pub mod simload {
    //! The shared multi-stimulus simulation workload measured by the
    //! `sim_batch` criterion bench and the `bench_sim` binary (which emits
    //! the machine-readable `BENCH_sim.json` CI artifact).
    //!
    //! One *pass* = every design of the ten-design evaluation suite driven
    //! with [`LANES_TOTAL`] independent pseudo-random stimulus schedules
    //! for [`CYCLES`] cycles each — the unit the three execution modes
    //! (scalar tape per stimulus, multi-lane [`SimBatch`], thread-chunked
    //! sweep) are compared on, in aggregate stimulus throughput
    //! (cycles·lanes/sec). Every mode consumes bit-identical stimulus
    //! streams and returns a fold of all end-state fingerprints, so the
    //! harness can assert the modes computed the same thing before timing
    //! them.

    use anvil_designs::tb::{input_ports, xorshift64};
    use anvil_rtl::{Bits, Module};
    use anvil_sim::{sweep_chunks, Backend, Sim, SimBatch, TapeOptions, TapeProgram};

    /// Cycles each stimulus schedule runs.
    pub const CYCLES: u64 = 256;
    /// Independent stimulus schedules per design — wide enough to fill
    /// the widest monomorphized lane engine.
    pub const LANES_TOTAL: usize = 32;
    /// Lane stride the suite programs are compiled at: the widest
    /// monomorphized engine, so one decoded op covers all 32 schedules
    /// (AVX-512-class row width at 64-bit words).
    pub const BENCH_STRIDE: usize = 32;

    /// Decorrelated nonzero xorshift seed for one (design, lane) stream.
    fn stream_seed(seed: u64, design: usize, lane: usize) -> u64 {
        let s = seed
            ^ (design as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (lane as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        if s == 0 {
            0xDEAD_BEEF
        } else {
            s
        }
    }

    /// The prepared suite: flattened modules, their input port lists, and
    /// one lowered [`TapeProgram`] per design (lowering is the one-time
    /// cost every mode amortizes).
    pub struct SimWorkload {
        /// Flattened evaluation-suite modules.
        pub modules: Vec<Module>,
        /// Input `(name, width)` lists, one per design.
        pub inputs: Vec<Vec<(String, usize)>>,
        /// Lowered tapes, shared by batches and sweep workers.
        pub programs: Vec<TapeProgram>,
    }

    impl SimWorkload {
        /// Builds and lowers the ten-design suite.
        pub fn prepare() -> SimWorkload {
            let modules: Vec<Module> = anvil_designs::registry()
                .into_iter()
                .map(|d| (d.anvil)())
                .collect();
            let inputs = modules.iter().map(input_ports).collect();
            let opts = TapeOptions {
                stride: Some(BENCH_STRIDE),
                ..TapeOptions::default()
            };
            let programs = modules
                .iter()
                .map(|m| TapeProgram::compile_with(m, opts).expect("suite design lowers"))
                .collect();
            SimWorkload {
                modules,
                inputs,
                programs,
            }
        }

        /// One scalar `Sim` per (design, lane) — prepared once, rewound
        /// per pass.
        pub fn make_scalars(&self) -> Vec<Vec<Sim>> {
            self.modules
                .iter()
                .map(|m| {
                    (0..LANES_TOTAL)
                        .map(|_| Sim::with_backend(m, Backend::Compiled).expect("design simulates"))
                        .collect()
                })
                .collect()
        }

        /// One [`LANES_TOTAL`]-lane batch per design.
        pub fn make_batches(&self) -> Vec<SimBatch> {
            self.programs.iter().map(|p| p.batch(LANES_TOTAL)).collect()
        }

        /// One pass in scalar mode: each stimulus schedule on its own
        /// compiled-backend `Sim` (the tape executor at one lane).
        /// Returns the fingerprint fold.
        pub fn run_scalar(&self, sims: &mut [Vec<Sim>], seed: u64) -> u64 {
            let mut acc = 0u64;
            for (d, lanes) in sims.iter_mut().enumerate() {
                for (l, sim) in lanes.iter_mut().enumerate() {
                    sim.reset();
                    let mut rng = stream_seed(seed, d, l);
                    for _ in 0..CYCLES {
                        for (name, width) in &self.inputs[d] {
                            sim.poke(name, Bits::from_u64(xorshift64(&mut rng), *width))
                                .expect("poking input");
                        }
                        sim.step().expect("stepping");
                    }
                    acc ^= sim.state_fingerprint().rotate_left((l % 63) as u32);
                }
            }
            acc
        }

        /// One pass in multi-lane mode: all schedules of a design advance
        /// in lockstep on one [`SimBatch`]. Input ids are resolved once
        /// per pass ([`SimBatch::input_id`]) and each input is poked for
        /// all lanes in one row call ([`SimBatch::poke_u64s`]), so the
        /// per-cycle stimulus cost is two tight loops, not a name hash
        /// per (lane, input).
        pub fn run_batch(&self, batches: &mut [SimBatch], seed: u64) -> u64 {
            let mut acc = 0u64;
            let mut vals = vec![0u64; LANES_TOTAL];
            for (d, batch) in batches.iter_mut().enumerate() {
                batch.reset();
                let ids: Vec<anvil_rtl::SignalId> = self.inputs[d]
                    .iter()
                    .map(|(name, _)| batch.input_id(name).expect("input id"))
                    .collect();
                let mut rngs: Vec<u64> =
                    (0..LANES_TOTAL).map(|l| stream_seed(seed, d, l)).collect();
                for _ in 0..CYCLES {
                    // Lane-major draws per input preserve each lane's
                    // per-stream xorshift sequence (one rng per lane).
                    for id in &ids {
                        for (l, rng) in rngs.iter_mut().enumerate() {
                            vals[l] = xorshift64(rng);
                        }
                        batch.poke_u64s(*id, &vals);
                    }
                    batch.step();
                }
                for l in 0..LANES_TOTAL {
                    acc ^= batch.state_fingerprint(l).rotate_left((l % 63) as u32);
                }
            }
            acc
        }

        /// One pass in thread-chunked sweep mode: per design, the
        /// [`LANES_TOTAL`] schedules are carved into [`BENCH_STRIDE`]-lane
        /// chunks spread across `workers` scoped threads (the pattern
        /// `bmc_sweep` and fuzzing drivers use, including per-worker
        /// batch setup).
        pub fn run_threaded(&self, workers: usize, seed: u64) -> u64 {
            let mut acc = 0u64;
            for (d, program) in self.programs.iter().enumerate() {
                let inputs = &self.inputs[d];
                let folds = sweep_chunks(
                    program,
                    LANES_TOTAL,
                    BENCH_STRIDE,
                    workers,
                    |first, batch| {
                        let n = batch.lanes();
                        let ids: Vec<anvil_rtl::SignalId> = inputs
                            .iter()
                            .map(|(name, _)| batch.input_id(name))
                            .collect::<Result<_, anvil_sim::SimError>>()?;
                        let mut rngs: Vec<u64> =
                            (0..n).map(|l| stream_seed(seed, d, first + l)).collect();
                        let mut vals = vec![0u64; n];
                        for _ in 0..CYCLES {
                            for id in &ids {
                                for (l, rng) in rngs.iter_mut().enumerate() {
                                    vals[l] = xorshift64(rng);
                                }
                                batch.poke_u64s(*id, &vals);
                            }
                            batch.step();
                        }
                        let mut fold = 0u64;
                        for l in 0..n {
                            fold ^= batch
                                .state_fingerprint(l)
                                .rotate_left(((first + l) % 63) as u32);
                        }
                        Ok(fold)
                    },
                )
                .expect("sweep pass");
                for f in folds {
                    acc ^= f;
                }
            }
            acc
        }

        /// Aggregate stimulus volume of one pass, in cycle·lanes.
        pub fn cycle_lanes(&self) -> u64 {
            CYCLES * (LANES_TOTAL * self.modules.len()) as u64
        }
    }
}

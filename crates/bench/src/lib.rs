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
//! `bench_prove` writes the prover's per-engine work record,
//! `BENCH_prove.json`, and `bench_prove_compare` checks a fresh record
//! against the committed one. Timing is measured in one place, the
//! standalone `perfbench` package (`perfbench/README.md`).

#![forbid(unsafe_code)]

pub mod tracing_guard {
    //! The disabled-tracing overhead guard shared by `bench_prove` and the
    //! simulator's guard test (`tests/sim_tracing_guard.rs`).
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

    /// The guard verdict, embedded in `BENCH_prove.json`.
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

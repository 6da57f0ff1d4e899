//! Emits `BENCH_prove.json`: the machine-readable formal-verification
//! record archived by CI from this PR onward.
//!
//! For every design in the safety-property suite
//! (`anvil_designs::props`), five engines run on the same assertion:
//!
//! * `explicit_bmc` — the explicit-state bounded search (corner-sampled
//!   inputs, bounded depth and state budget),
//! * `symbolic_bmc` — SAT-based bounded model checking (all inputs, same
//!   depth bound),
//! * `k_induction` — the full [`anvil_verify::prove()`] loop, which can
//!   return *proved for all time*,
//! * `pdr` — the IC3/PDR engine ([`anvil_verify::prove_pdr()`]),
//! * `portfolio_cold` / `warm_cache` — the proof-cache pair: a cold
//!   run of the two-engine portfolio (k-induction racing PDR, the
//!   `anvild` cold path) that yields a certificate, then the
//!   certificate *revalidated* against the circuit — the exact work a
//!   warm `anvild` re-prove performs. The record's `warm_speedup` is
//!   total cold over total warm wall time.
//!
//! Per engine the record carries the verdict and wall time; the symbolic
//! engines also report SAT clause, conflict, decision and propagation
//! counts. The seeded-violation designs ride along so the falsification
//! path is timed too. The four single-engine rows are deterministic, and
//! `bench_prove_compare` gates them exactly against the committed record.
//! The `portfolio_cold` row names its `winner` and carries the winner's
//! own counters: the racing engines share only a stop flag, so the
//! winner ran exactly its standalone search (k-induction at the same
//! `MAX_K`; PDR under an 18-frame cap instead of 32, which changes
//! nothing for a search that concluded below 18 frames), and the gate
//! requires the row to equal that engine's standalone row. The
//! `warm_cache` row is not gated.
//!
//! Usage: `bench_prove [output-path]` (default `BENCH_prove.json`).

use std::fmt::Write as _;
use std::time::Instant;

use anvil_designs::props::{seeded_violations, suite_properties, SafetyProperty};
use anvil_verify::{
    bmc, prove, prove_bounded, prove_pdr, prove_portfolio, revalidate_certificate, AigCircuit,
    BmcResult, Control, ProveResult, Prover,
};

/// Depth bound shared by both bounded engines.
const DEPTH: usize = 8;
/// Explicit-state search budget.
const MAX_STATES: usize = 20_000;
/// k-induction window budget (deep enough to falsify the seeded
/// hazard counter at depth 13).
const MAX_K: usize = 16;

struct Row {
    design: String,
    property: String,
    engine: &'static str,
    verdict: String,
    millis: f64,
    clauses: u64,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    /// The portfolio row's winning engine (`symbolic`, `pdr` or
    /// `none`).
    winner: Option<&'static str>,
}

fn verdict_of(r: &ProveResult) -> String {
    match r {
        ProveResult::Proved { k } => format!("proved(k={k})"),
        ProveResult::Falsified { depth, .. } => format!("falsified(depth={depth})"),
        ProveResult::Unknown { depth } => format!("unknown(depth={depth})"),
    }
}

/// Per-design cold (portfolio) and warm (certificate revalidation) wall
/// times, in milliseconds.
struct CachePair {
    cold: f64,
    warm: f64,
}

fn blast(prop: &SafetyProperty) -> AigCircuit {
    AigCircuit::from_module(&prop.module).expect("suite design blasts")
}

fn run_design(prop: &SafetyProperty, rows: &mut Vec<Row>) -> Option<CachePair> {
    // Explicit-state bounded search.
    let t = Instant::now();
    let (explicit, _) = bmc(&prop.module, &prop.assertion, DEPTH, MAX_STATES)
        .expect("explicit BMC prepares every suite design");
    rows.push(Row {
        design: prop.design.to_string(),
        property: prop.property.to_string(),
        engine: "explicit_bmc",
        verdict: match &explicit {
            BmcResult::Violation { depth, .. } => format!("falsified(depth={depth})"),
            BmcResult::ExhaustedDepth { .. } => format!("unknown(depth={DEPTH})"),
            BmcResult::ExhaustedStates { depth } => format!("budget(depth={depth})"),
        },
        millis: t.elapsed().as_secs_f64() * 1e3,
        clauses: 0,
        conflicts: 0,
        decisions: 0,
        propagations: 0,
        winner: None,
    });

    // Symbolic bounded model checking. Each row's timer includes the
    // blasting of its circuit.
    let t = Instant::now();
    let (sym, stats) =
        prove_bounded(&blast(prop), &prop.assertion, DEPTH).expect("symbolic BMC runs");
    rows.push(Row {
        design: prop.design.to_string(),
        property: prop.property.to_string(),
        engine: "symbolic_bmc",
        verdict: verdict_of(&sym),
        millis: t.elapsed().as_secs_f64() * 1e3,
        clauses: stats.clauses,
        conflicts: stats.conflicts,
        decisions: stats.decisions,
        propagations: stats.propagations,
        winner: None,
    });

    // Full prove: interleaved BMC + k-induction.
    let t = Instant::now();
    let (full, stats) = prove(&blast(prop), &prop.assertion, MAX_K).expect("k-induction runs");
    rows.push(Row {
        design: prop.design.to_string(),
        property: prop.property.to_string(),
        engine: "k_induction",
        verdict: verdict_of(&full),
        millis: t.elapsed().as_secs_f64() * 1e3,
        clauses: stats.clauses,
        conflicts: stats.conflicts,
        decisions: stats.decisions,
        propagations: stats.propagations,
        winner: None,
    });

    // IC3/PDR.
    let t = Instant::now();
    let (pdr, stats) = prove_pdr(&blast(prop), &prop.assertion, MAX_K * 2).expect("PDR runs");
    rows.push(Row {
        design: prop.design.to_string(),
        property: prop.property.to_string(),
        engine: "pdr",
        verdict: verdict_of(&pdr),
        millis: t.elapsed().as_secs_f64() * 1e3,
        clauses: stats.clauses,
        conflicts: stats.conflicts,
        decisions: stats.decisions,
        propagations: stats.propagations,
        winner: None,
    });

    // The proof-cache pair: a cold portfolio run (blasting included)
    // leaves a certificate; revalidating that certificate is the warm
    // `anvild` re-prove path.
    let t = Instant::now();
    let mut circuit = blast(prop);
    let out = prove_portfolio(&circuit, &prop.assertion, MAX_K, &Control::none())
        .expect("portfolio runs");
    let cold = t.elapsed().as_secs_f64() * 1e3;
    let (winner, stats) = match out.winner {
        Some(Prover::Symbolic) => ("symbolic", &out.symbolic_stats),
        Some(Prover::Pdr) => ("pdr", &out.pdr_stats),
        None => ("none", &out.symbolic_stats),
    };
    rows.push(Row {
        design: prop.design.to_string(),
        property: prop.property.to_string(),
        engine: "portfolio_cold",
        verdict: verdict_of(&out.result),
        millis: cold,
        clauses: stats.clauses,
        conflicts: stats.conflicts,
        decisions: stats.decisions,
        propagations: stats.propagations,
        winner: Some(winner),
    });
    let cert = out.certificate?;
    circuit
        .blast_assertion(&prop.assertion)
        .expect("assertion blasts");
    let t = Instant::now();
    let warm = revalidate_certificate(&circuit, &prop.assertion, &cert)
        .expect("revalidation runs")
        .expect("fresh certificate revalidates");
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    rows.push(Row {
        design: prop.design.to_string(),
        property: prop.property.to_string(),
        engine: "warm_cache",
        verdict: verdict_of(&warm),
        millis: warm_ms,
        clauses: 0,
        conflicts: 0,
        decisions: 0,
        propagations: 0,
        winner: None,
    });
    Some(CachePair {
        cold,
        warm: warm_ms,
    })
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_prove.json".to_string());

    let mut rows = Vec::new();
    let mut cold_total = 0.0;
    let mut warm_total = 0.0;
    for prop in suite_properties().iter().chain(seeded_violations().iter()) {
        if let Some(pair) = run_design(prop, &mut rows) {
            cold_total += pair.cold;
            warm_total += pair.warm;
        }
    }
    let warm_speedup = cold_total / warm_total.max(1e-9);

    // Disabled-tracing overhead guard: re-run the first suite property
    // untraced (timed) and traced (counting spans), then assert the
    // disabled span fast path costs <2% of the untraced wall. Runs
    // after the recorded measurements so the capture cannot skew them.
    let guard_prop = &suite_properties()[0];
    let mut scratch = Vec::new();
    let t = Instant::now();
    run_design(guard_prop, &mut scratch);
    let untraced = t.elapsed().as_secs_f64();
    let cap = anvil_trace::Capture::start();
    scratch.clear();
    run_design(guard_prop, &mut scratch);
    let spans_per_pass = cap.finish().len();
    let overhead = anvil_bench::tracing_guard::assert_overhead("prove", spans_per_pass, untraced);

    let proved = rows
        .iter()
        .filter(|r| r.engine == "k_induction" && r.verdict.starts_with("proved"))
        .count();
    let falsified = rows
        .iter()
        .filter(|r| r.engine == "k_induction" && r.verdict.starts_with("falsified"))
        .count();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"anvil-bench-prove-v1\",");
    let _ = writeln!(json, "  \"depth\": {DEPTH},");
    let _ = writeln!(json, "  \"max_states\": {MAX_STATES},");
    let _ = writeln!(json, "  \"max_k\": {MAX_K},");
    let _ = writeln!(json, "  \"proved_by_induction\": {proved},");
    let _ = writeln!(json, "  \"falsified\": {falsified},");
    let _ = writeln!(json, "  \"cold_millis_total\": {cold_total:.3},");
    let _ = writeln!(json, "  \"warm_millis_total\": {warm_total:.3},");
    let _ = writeln!(json, "  \"warm_speedup\": {warm_speedup:.2},");
    let _ = writeln!(
        json,
        "  \"tracing\": {{\"spans_per_pass\": {}, \"disabled_ns_per_span\": {:.2}, \
         \"overhead_fraction\": {:.6}}},",
        overhead.spans_per_pass, overhead.disabled_ns_per_span, overhead.fraction
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let winner = r
            .winner
            .map(|w| format!(", \"winner\": \"{w}\""))
            .unwrap_or_default();
        let _ = writeln!(
            json,
            "    {{\"design\": \"{}\", \"property\": \"{}\", \"engine\": \"{}\", \
             \"verdict\": \"{}\", \"millis\": {:.3}, \"clauses\": {}, \
             \"conflicts\": {}, \"decisions\": {}, \"propagations\": {}{winner}}}{comma}",
            r.design,
            r.property,
            r.engine,
            r.verdict,
            r.millis,
            r.clauses,
            r.conflicts,
            r.decisions,
            r.propagations
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("writing BENCH_prove.json");

    println!("wrote {out_path}");
    println!(
        "{:<28} {:<13} {:<22} {:>9} {:>9} {:>10} {:>10} {:>12}",
        "design", "engine", "verdict", "ms", "clauses", "conflicts", "decisions", "propagations"
    );
    for r in &rows {
        println!(
            "{:<28} {:<13} {:<22} {:>9.2} {:>9} {:>10} {:>10} {:>12}",
            r.design,
            r.engine,
            r.verdict,
            r.millis,
            r.clauses,
            r.conflicts,
            r.decisions,
            r.propagations
        );
    }
    println!("k-induction: {proved} proved for all time, {falsified} falsified");
    println!(
        "proof cache: cold {cold_total:.1} ms, warm {warm_total:.1} ms \
         ({warm_speedup:.1}x speedup)"
    );
    assert!(
        proved >= 3,
        "regression: fewer than 3 suite designs proved by induction"
    );
    assert!(
        warm_speedup >= 5.0,
        "regression: warm re-prove only {warm_speedup:.1}x faster than cold"
    );
}

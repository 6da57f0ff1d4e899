//! Verification substrates for the Anvil reproduction.
//!
//! Independent pieces, each standing in for infrastructure the paper's
//! evaluation leaned on (see DESIGN.md §1):
//!
//! * [`oracle`] — the dynamic timing-safety oracle implementing the
//!   execution-log safety conditions of Appendix C (Def. C.15). Used to
//!   property-test the paper's central theorem (C.20): well-typed
//!   programs stay safe under *every* sampled latency/branch assignment.
//! * [`bmc()`](bmc::bmc) — an explicit-state bounded model checker over flattened
//!   netlists, reproducing Appendix A's comparison: BMC misses deep
//!   violations that Anvil's type system flags instantly.
//! * [`rules`] — a Bluespec-style guarded-atomic-rule scheduler,
//!   reproducing Fig. 2: per-cycle conflict-free schedules that are
//!   nonetheless timing-unsafe across cycles.
//! * [`prove()`](prove::prove) — **symbolic** bounded model checking,
//!   k-induction, and IC3/PDR ([`prove_pdr`]) over bit-blasted,
//!   rewrite+fraig-optimized netlists (`anvil-smt`): unlike the
//!   explicit-state checker they reason about all inputs at once and can
//!   return *proved for all time*, with SAT counterexamples reconstructed
//!   into the explicit checker's replayable trace format and confirmed on
//!   the simulator. Every prove entry point takes a blasted
//!   [`AigCircuit`], so a caller holding a cached one never blasts it
//!   again. [`prove_portfolio`] races the symbolic engine and PDR, each
//!   running its standalone search under one [`Control`], and emits
//!   proof certificates for caching ([`revalidate_certificate`]); the
//!   explicit-state checker stays out of it, as the Appendix A
//!   reproduction and the reference the symbolic engines are
//!   differentially tested against.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bmc;
pub mod oracle;
pub mod prove;
pub mod rules;

pub use bmc::{bmc, bmc_with_backend, BmcResult, BmcStats};
pub use oracle::{check_run, fuzz_thread, sample_run, ConcreteRun, DynViolation};
pub use prove::{
    prove, prove_bounded, prove_pdr, prove_portfolio, render_trace, replay_trace,
    revalidate_certificate, trace_inputs, PortfolioOutcome, ProveError, ProveResult, ProveStats,
    Prover,
};
pub use rules::{fig2_contract_violations, fig2_engine, Rule, RuleEngine, State};

// Re-exported so proof-cache clients (anvild, benches) can build
// circuits and handle certificates without a direct `anvil-smt` edge.
pub use anvil_smt::{optimize, AigCircuit, CertKind, Control, Deadline, ProofCert};

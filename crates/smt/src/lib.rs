//! Symbolic verification substrate: AIG bit-blasting, an embedded CDCL
//! SAT solver, and transition-relation unrolling.
//!
//! This crate turns the repo's flattened netlists into objects a SAT
//! solver can reason about *for all inputs at once*, the substrate under
//! `anvil_verify::prove`'s symbolic bounded model checking and
//! k-induction:
//!
//! * [`Aig`] / [`AigCircuit`] — And-Inverter Graphs with structural
//!   hashing and constant folding; [`AigCircuit::from_module`] bit-blasts
//!   a flattened [`anvil_rtl::Module`] through the generic
//!   [`anvil_rtl::blast_module`] lowering (registers and writable memory
//!   elements become latches, ROMs fold to constants).
//! * [`Solver`] — a self-contained MiniSat-style CDCL solver (two watched
//!   literals, VSIDS branching, first-UIP learning, Luby restarts,
//!   incremental solving under assumptions). No crates.io dependency, in
//!   the same spirit as `crates/shims`.
//! * [`Unroller`] / [`CnfEncoder`] — time-expansion of the latch
//!   transition relation with cross-frame constant propagation, and lazy
//!   cone-of-influence Tseitin encoding into the solver.
//!
//! The semantic contract: a blasted circuit agrees bit-for-bit with both
//! simulation backends on every cycle, so SAT counterexamples replay
//! concretely on [`anvil_sim`](https://docs.rs/anvil-sim)'s engines.

#![warn(missing_docs)]

mod aig;
mod cert;
mod cnf;
mod deadline;
mod fraig;
mod pdr;
mod rewrite;
mod solver;
#[cfg(test)]
mod testgen;

pub use aig::{Aig, AigCircuit, Lit, Node};
pub use cert::{CertKind, LatchLit, ProofCert};
pub use cnf::{CnfEncoder, Unroller};
pub use deadline::{Control, Deadline, Interrupt};
pub use fraig::{fraig, FraigStats};
pub use pdr::{Pdr, PdrOptions, PdrOutcome, PdrStats};
pub use rewrite::{optimize, rewrite, OptimizeStats, RewriteStats, Rewritten};
pub use solver::{SLit, SolveResult, Solver, SolverStats, Var};

//! Anvil: a general-purpose timing-safe hardware description language —
//! a from-scratch Rust reproduction of the ASPLOS 2026 paper.
//!
//! This facade crate re-exports the whole workspace; see the individual
//! crates for details:
//!
//! * [`anvil_core`] — the compiler pipeline: [`Session`], the pass
//!   manager, the parallel [`Session::compile_batch`], and [`Control`],
//!   the stop flag and deadline one request's compile and prove share,
//! * [`anvil_intern`] — the global [`Symbol`] string interner,
//! * [`anvil_syntax`] / [`anvil_ir`] / [`anvil_typeck`] /
//!   [`anvil_codegen`] — the compiler stages,
//! * [`anvil_rtl`] — the netlist IR and SystemVerilog emitter,
//! * [`anvil_sim`] — the cycle-accurate simulator ([`Sim`]) and the
//!   multi-lane batch executor ([`SimBatch`]),
//! * [`anvil_smt`] — AIG bit-blasting, the embedded CDCL SAT solver, and
//!   transition-relation unrolling,
//! * [`anvil_synth`] — the synthesis cost model,
//! * [`anvil_verify`] — safety oracle, explicit-state BMC (the
//!   Appendix A reproduction), rule scheduler, and the symbolic
//!   [`verify::prove()`] engine and [`verify::prove_portfolio`], which
//!   races k-induction against PDR,
//! * [`anvil_designs`] — the ten evaluation designs (and their safety
//!   properties, `anvil_designs::props`),
//! * [`anvil_trace`] — hierarchical span tracing and the process-wide
//!   metrics registry behind `--self-profile` and the daemon's
//!   `metrics` method,
//! * [`anvild`] — the persistent JSON-RPC compile server behind the
//!   `anvild` daemon ([`anvild::CompileService`]).
//!
//! # Examples
//!
//! ```
//! use anvil::Session;
//!
//! let out = Session::new().compile(
//!     "proc blink() { reg led : logic; loop { set led := ~*led >> cycle 1 } }",
//! )?;
//! assert!(out.systemverilog.contains("module blink"));
//! # Ok::<(), anvil::CompileError>(())
//! ```

pub use anvil_core::{
    CacheStats, CodegenDiag, CompileError, CompileOutput, Control, FlatAig, Options, PassStats,
    Session, Stage, StageCounters,
};
pub use anvil_intern::Symbol;
pub use anvil_rtl::{Expr, Module};
pub use anvil_sim::{Sim, SimBatch, SimError, TapeProgram, Waveform};
pub use anvil_smt::AigCircuit;
pub use anvil_verify as verify;

pub use anvil_codegen;
pub use anvil_core;
pub use anvil_designs;
pub use anvil_intern;
pub use anvil_ir;
pub use anvil_rtl;
pub use anvil_sim;
pub use anvil_smt;
pub use anvil_syntax;
pub use anvil_synth;
pub use anvil_trace;
pub use anvil_typeck;
pub use anvil_verify;
pub use anvild;

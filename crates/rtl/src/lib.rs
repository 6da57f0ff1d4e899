//! RTL netlist infrastructure for the Anvil HDL reproduction.
//!
//! This crate is the substrate every other crate builds on:
//!
//! * [`Bits`] — arbitrary-width bit-vector values,
//! * [`Expr`] — combinational expression trees,
//! * [`Module`] / [`ModuleLibrary`] — a synthesizable synchronous netlist
//!   IR with registers, memories, instances, and debug prints,
//! * [`elaborate`] — hierarchy flattening for simulation and synthesis
//!   analysis,
//! * [`emit_module`] / [`emit_library`] — SystemVerilog emission, the
//!   Anvil compiler's final output format (paper §6).
//!
//! The Anvil code generator (`anvil-codegen`) lowers event graphs onto this
//! IR; the handwritten evaluation baselines (`anvil-designs`) construct it
//! directly; the simulator (`anvil-sim`) executes flattened designs; the
//! synthesis model (`anvil-synth`) estimates their area, power, and
//! maximum frequency.
//!
//! # Examples
//!
//! ```
//! use anvil_rtl::{emit_module, Bits, Expr, Module};
//!
//! // A 2-bit counter with enable.
//! let mut m = Module::new("counter2");
//! let en = m.input("en", 1);
//! let q = m.reg("q", 2);
//! let out = m.output("out", 2);
//! m.update_when(q, Expr::Signal(en), Expr::Signal(q).add(Expr::lit(1, 2)));
//! m.assign(out, Expr::Signal(q));
//!
//! let sv = emit_module(&m);
//! assert!(sv.contains("module counter2"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bits;
mod blast;
mod elab;
mod emit;
mod expr;
mod netlist;

pub use bits::Bits;
pub use blast::{blast_expr, blast_module, BlastError, Blasted, NetBuilder};
pub use elab::{elaborate, ElabError};
pub use emit::{emit_library, emit_module, emit_order, sv_expr};
pub use expr::{BinaryOp, Expr, UnaryOp};
pub use netlist::{
    ArrayDecl, ArrayId, ArrayWrite, DebugPrint, Instance, Module, ModuleLibrary, NetlistError,
    Signal, SignalId, SignalKind,
};

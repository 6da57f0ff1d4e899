//! Event-graph intermediate representation for the Anvil compiler.
//!
//! The event graph (paper §5.3) is the Anvil compiler's IR from
//! elaboration through type checking to code generation. This crate
//! provides:
//!
//! * [`EventGraph`] — events, their timing relations (`≤G`, `<G`) decided
//!   by the sound min/max-gap approximation of App. C.3.1, and concrete
//!   timestamp sampling (Def. C.9) used to property-test that
//!   approximation;
//! * [`build_thread`] / [`build_proc`] — elaboration of AST terms into
//!   event graphs with inferred value lifetimes, register dependency sets,
//!   and the check sites the type checker consumes;
//! * [`optimize`] — the event-count reduction passes of §6.1 / Fig. 8.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod build;
mod graph;
mod opt;
mod value;

pub use build::{
    build_proc, build_thread, index_width, ActionIr, AssignSite, BuildCtx, CondSite, IrError,
    ReadyCheck, SendSite, ThreadIr, UseSite,
};
pub use graph::{CondId, EventGraph, EventId, EventKind, MsgRef, Pattern, PatternDur};
pub use opt::{optimize, OptConfig, OptStats};
pub use value::{Info, Val};

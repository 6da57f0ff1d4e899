//! Cycle-accurate simulation of flattened RTL netlists.
//!
//! This crate substitutes for the commercial SystemVerilog simulator the
//! paper's evaluation used (see DESIGN.md §1): a two-phase (combinational
//! settle, clock edge) engine that is bit- and cycle-accurate for the
//! synthesizable subset `anvil-rtl` can express.
//!
//! * [`Sim`] — poke/peek/step execution of one flattened [`anvil_rtl::Module`],
//! * [`Waveform`] — VCD and ASCII waveform capture (paper Figs. 1 and 4),
//! * [`Testbench`] / [`SenderBfm`] / [`ReceiverBfm`] — channel
//!   bus-functional models speaking the `data`/`valid`/`ack` handshake the
//!   Anvil compiler emits (paper §6.2), with configurable latencies for
//!   exploring dynamic timing behaviours.
//!
//! # Two backends
//!
//! [`Sim`] drives one of two interchangeable engines behind the
//! [`SimBackend`] trait, selected per run with [`Sim::with_backend`] (or
//! the `ANVIL_SIM_BACKEND` environment variable for [`Sim::new`]):
//!
//! * [`Backend::Tree`] — the reference engine. Walks the module's
//!   recursive [`anvil_rtl::Expr`] trees every cycle; simple, and kept as
//!   the semantic baseline.
//! * [`Backend::Compiled`] — the default. A one-time lowering of the
//!   module into a linear instruction tape: combinational ops
//!   topologically scheduled, all signal/array references pre-resolved to
//!   word offsets in a flat `u64` arena, executed by a tight non-recursive
//!   loop with no per-cycle allocation. It is the multi-lane executor
//!   behind [`SimBatch`] run at one lane, so a settle skips every region
//!   whose inputs did not change. perfbench's `sim_sweep` workload times
//!   it in its scalar testbenches (`sim.scalar_ns_per_cycle`).
//!
//! The two engines produce bit-identical values, debug prints, toggle
//! counts, and [`Sim::state_fingerprint`]s; a differential property test
//! drives both over the paper's ten-design evaluation suite with random
//! stimulus every run. The tree engine is the only semantics independent
//! of the tape executor, so the batch differential tests compare against
//! it too.

//! # Multi-lane batch simulation
//!
//! [`SimBatch`] executes many independent stimulus lanes over **one**
//! lowered tape: the state arena becomes a structure-of-arrays in groups
//! of [`LANE_STRIDE`] (32) lanes, so each op decodes once and its inner
//! loop covers a compile-time-known row over contiguous memory. A lane
//! count that is not a multiple of 32 leaves spare lanes in the last
//! group; they run but are never observed. On x86-64
//! CPUs with AVX2, detected when each lane group is built, those loops
//! run as an AVX2 copy of the same code (the crate's only `unsafe` is the
//! calls into it, in the `tape::avx2` module); elsewhere, and in `Sim`'s
//! one-lane engine, they run the portable build. A
//! superinstruction fusion pass and dirty-region settle-skipping
//! ([`TapeOptions`]) cut the op count and the per-cycle work further —
//! all bit-identical to the tree engine.
//! [`TapeProgram`] shares the one-time lowering across threads, and
//! [`sweep_chunks`] spreads lane-chunks over `std::thread::scope` workers
//! (perfbench's `sim_sweep` workload runs on it). Per-lane observables
//! are bit-identical to [`Sim`]s on either backend.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod batch;
mod bfm;
mod engine;
mod tape;
mod vcd;

pub use batch::{sweep_chunks, SimBatch, TapeProgram, LANE_STRIDE};
pub use bfm::{AckPolicy, Agent, MsgPorts, ReceiverBfm, SenderBfm, Testbench};
pub use engine::{Backend, Sim, SimBackend, SimError};
pub use tape::TapeOptions;
pub use vcd::Waveform;

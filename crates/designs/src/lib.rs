//! The ten evaluation designs of the Anvil paper (Table 1), plus the
//! motivating-example systems of Figs. 1 and 4.
//!
//! Every Table 1 design exists twice with identical port interfaces:
//!
//! * compiled from Anvil source through the full `anvil-core` pipeline
//!   (type check → event graph optimization → FSM generation), and
//! * handwritten directly against the `anvil-rtl` builder, playing the
//!   role of the paper's open-source SystemVerilog / Filament baselines.
//!
//! The per-design tests drive both with the same bus-functional models and
//! assert value-for-value equivalence (§7.1's methodology); the
//! `anvil-bench` crate feeds both sides to the synthesis cost model to
//! regenerate Table 1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aes;
pub mod alu;
pub mod axi;
pub mod fifo;
pub mod hazard;
pub mod props;
pub mod ptw;
pub mod spill;
pub mod stream_fifo;
pub mod systolic;
pub mod tb;
pub mod tlb;

use anvil_rtl::Module;

/// One Table 1 row: a design with its two implementations.
pub struct DesignEntry {
    /// Design name as it appears in Table 1.
    pub name: &'static str,
    /// What the baseline stands in for ("SystemVerilog" or "Filament").
    pub baseline_kind: &'static str,
    /// Whether the design's latency varies at run time.
    pub dynamic_latency: bool,
    /// Builds the flattened Anvil-compiled module.
    pub anvil: fn() -> Module,
    /// Builds the flattened handwritten baseline.
    pub baseline: fn() -> Module,
}

/// The ten evaluation designs as Anvil *sources*, `(name, source)`, in
/// the paper's row order — the input set for batch-compilation tests and
/// benches. AES calls the S-box as foreign IP, so compilers consuming
/// this suite must register [`aes::sbox_module`] as an extern.
pub fn suite_sources() -> Vec<(&'static str, String)> {
    vec![
        ("fifo", fifo::anvil_source()),
        ("spill", spill::anvil_source()),
        ("stream_fifo", stream_fifo::anvil_source()),
        ("tlb", tlb::anvil_source()),
        ("ptw", ptw::anvil_source()),
        ("aes", aes::anvil_source()),
        ("axi_demux", axi::demux_source()),
        ("axi_mux", axi::mux_source()),
        ("alu", alu::anvil_source()),
        ("systolic", systolic::anvil_source()),
    ]
}

/// All Table 1 designs, in the paper's row order.
pub fn registry() -> Vec<DesignEntry> {
    vec![
        DesignEntry {
            name: "FIFO Buffer",
            baseline_kind: "SV",
            dynamic_latency: true,
            anvil: fifo::anvil_flat,
            baseline: fifo::baseline,
        },
        DesignEntry {
            name: "Spill Register",
            baseline_kind: "SV",
            dynamic_latency: true,
            anvil: spill::anvil_flat,
            baseline: spill::baseline,
        },
        DesignEntry {
            name: "Passthrough Stream FIFO",
            baseline_kind: "SV",
            dynamic_latency: false,
            anvil: stream_fifo::anvil_flat,
            baseline: stream_fifo::baseline,
        },
        DesignEntry {
            name: "Translation Lookaside Buffer",
            baseline_kind: "SV",
            dynamic_latency: true,
            anvil: tlb::anvil_flat,
            baseline: tlb::baseline,
        },
        DesignEntry {
            name: "Page Table Walker",
            baseline_kind: "SV",
            dynamic_latency: true,
            anvil: ptw::anvil_flat,
            baseline: ptw::baseline,
        },
        DesignEntry {
            name: "AES Cipher Core",
            baseline_kind: "SV",
            dynamic_latency: true,
            anvil: aes::anvil_flat,
            baseline: aes::baseline_flat,
        },
        DesignEntry {
            name: "AXI-Lite Demux Router",
            baseline_kind: "SV",
            dynamic_latency: true,
            anvil: axi::demux_anvil_flat,
            baseline: axi::demux_baseline,
        },
        DesignEntry {
            name: "AXI-Lite Mux Router",
            baseline_kind: "SV",
            dynamic_latency: true,
            anvil: axi::mux_anvil_flat,
            baseline: axi::mux_baseline,
        },
        DesignEntry {
            name: "Pipelined ALU",
            baseline_kind: "Filament",
            dynamic_latency: false,
            anvil: alu::anvil_flat,
            baseline: alu::baseline,
        },
        DesignEntry {
            name: "Systolic Array",
            baseline_kind: "Filament",
            dynamic_latency: false,
            anvil: systolic::anvil_flat,
            baseline: systolic::baseline,
        },
    ]
}

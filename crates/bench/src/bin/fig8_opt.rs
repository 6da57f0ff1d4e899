//! Regenerates Fig. 8 as an ablation: event counts per design with each
//! optimization pass enabled/disabled, plus the resulting FSM area.

use anvil_ir::{build_proc, optimize, BuildCtx, OptConfig};
use anvil_syntax::parse;

fn sources() -> Vec<(&'static str, String, &'static str)> {
    vec![
        (
            "FIFO Buffer",
            anvil_designs::fifo::anvil_source(),
            "fifo_anvil",
        ),
        (
            "Spill Register",
            anvil_designs::spill::anvil_source(),
            "spill_anvil",
        ),
        (
            "Stream FIFO",
            anvil_designs::stream_fifo::anvil_source(),
            "stream_fifo_anvil",
        ),
        ("TLB", anvil_designs::tlb::anvil_source(), "tlb_anvil"),
        ("PTW", anvil_designs::ptw::anvil_source(), "ptw_anvil"),
        ("AES", anvil_designs::aes::anvil_source(), "aes_anvil"),
        (
            "AXI Demux",
            anvil_designs::axi::demux_source(),
            "axi_demux_anvil",
        ),
        ("AXI Mux", anvil_designs::axi::mux_source(), "axi_mux_anvil"),
        (
            "Pipelined ALU",
            anvil_designs::alu::anvil_source(),
            "alu_anvil",
        ),
        (
            "Systolic Array",
            anvil_designs::systolic::anvil_source(),
            "systolic_anvil",
        ),
    ]
}

fn main() {
    println!("== Fig. 8 / §6.1: event-graph optimization passes ==\n");
    println!(
        "{:<18} {:>7} {:>7} {:>7} | {:>5} {:>5} {:>5} {:>5} {:>5}",
        "design", "events", "opt", "saved", "(a)", "(b)", "(c)", "(d)", "dead"
    );
    for (name, src, top) in sources() {
        let prog = parse(&src).expect("design parses");
        let proc = prog.proc(top).expect("top exists");
        let ctx = BuildCtx {
            program: &prog,
            proc,
        };
        let irs = build_proc(&ctx, 1).expect("design elaborates");
        let mut before = 0;
        let mut after = 0;
        let mut by_pass = [0usize; 5];
        for ir in irs {
            let (_, stats) = optimize(ir, OptConfig::default());
            before += stats.before;
            after += stats.after;
            by_pass[0] += stats.merged_identical;
            by_pass[1] += stats.unbalanced_joins;
            by_pass[2] += stats.shifted_joins;
            by_pass[3] += stats.removed_joins;
            by_pass[4] += stats.dead;
        }
        println!(
            "{:<18} {:>7} {:>7} {:>7} | {:>5} {:>5} {:>5} {:>5} {:>5}",
            name,
            before,
            after,
            before - after,
            by_pass[0],
            by_pass[1],
            by_pass[2],
            by_pass[3],
            by_pass[4]
        );
    }

    println!("\n== FSM area with optimizations on/off (whole-design, GE) ==\n");
    for (name, src, top) in sources() {
        let on = compile_area(&src, top, true);
        let off = compile_area(&src, top, false);
        println!(
            "{:<18} unopt {:>9.0} GE   opt {:>9.0} GE   ({})",
            name,
            off,
            on,
            anvil_bench::pct(on, off)
        );
    }
}

fn compile_area(src: &str, top: &str, opt: bool) -> f64 {
    let mut session = anvil_core::Session::new();
    session.set_options(anvil_core::Options {
        opt_config: if opt {
            OptConfig::default()
        } else {
            OptConfig::none()
        },
        ..anvil_core::Options::default()
    });
    if src.contains("extern fn sbox") {
        session.add_extern(anvil_designs::aes::sbox_module());
    }
    let out = session.compile(src).expect("design compiles");
    let flat = anvil_rtl::elaborate(top, &out.modules).expect("design flattens");
    anvil_synth::synthesize(&flat).total_ge()
}

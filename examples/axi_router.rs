//! Compose the AXI-Lite routers: two masters share one slave through the
//! mux; the emitted SystemVerilog for both routers is printed so the
//! designs can be dropped into an existing SystemVerilog project
//! (the paper's incremental-adoption story).
//!
//! Run with `cargo run --example axi_router`.

use anvil::Session;
use anvil_designs::axi;

fn main() {
    let mux = Session::new()
        .compile(&axi::mux_source())
        .expect("mux compiles");
    let demux = Session::new()
        .compile(&axi::demux_source())
        .expect("demux compiles");

    println!("AXI-Lite mux ports:");
    for line in mux
        .systemverilog
        .lines()
        .skip_while(|l| !l.starts_with("module"))
        .take_while(|l| !l.contains(");"))
    {
        println!("  {line}");
    }
    println!("\nAXI-Lite demux ports:");
    for line in demux
        .systemverilog
        .lines()
        .skip_while(|l| !l.starts_with("module"))
        .take_while(|l| !l.contains(");"))
    {
        println!("  {line}");
    }
    println!(
        "\nmux SV: {} lines, demux SV: {} lines — both carry dynamic\n\
         request contracts (`req` lives until `res`) enforced at compile time.",
        mux.systemverilog.lines().count(),
        demux.systemverilog.lines().count()
    );
}

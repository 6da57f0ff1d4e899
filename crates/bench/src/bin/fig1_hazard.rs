//! Regenerates Fig. 1: the opening timing hazard.
//!
//! Simulates the raw-RTL `Top`+`Memory` system (the one Anvil refuses to
//! compile), prints the expected-vs-observed read values, and then shows
//! the Anvil compiler rejecting the equivalent source and accepting the
//! corrected version.

use anvil_core::Session;
use anvil_designs::hazard;

fn main() {
    println!("== Fig. 1: Top against a 2-cycle memory (raw RTL simulation) ==\n");
    let pairs = hazard::fig1_observed(24);
    println!(
        "{:>6} {:>10} {:>10} {:>6}",
        "read#", "expected", "observed", "ok?"
    );
    let mut bad = 0;
    for (i, (e, o)) in pairs.iter().enumerate() {
        let ok = e == o;
        if !ok {
            bad += 1;
        }
        println!(
            "{:>6} {:>10} {:>10} {:>6}",
            i,
            format!("{e:#04x}"),
            format!("{o:#04x}"),
            if ok { "yes" } else { "NO" }
        );
    }
    println!(
        "\n{bad}/{} reads returned the wrong value — the Fig. 1 waveform: only\n\
         half the requested addresses are ever dereferenced.\n",
        pairs.len()
    );

    println!("== The same Top in Anvil ==\n");
    let unsafe_src = hazard::fig1_top_unsafe_anvil();
    match Session::new().compile(&unsafe_src) {
        Err(e) => {
            println!("top_unsafe: REJECTED at compile time:");
            for line in e.render(&unsafe_src).lines() {
                println!("  {line}");
            }
        }
        Ok(_) => println!("top_unsafe: unexpectedly accepted (BUG)"),
    }
    let safe_src = hazard::fig1_top_safe_anvil();
    match Session::new().compile(&safe_src) {
        Ok(_) => println!("\ntop_safe (dynamic contract): accepted — compiles to SystemVerilog."),
        Err(e) => println!("\ntop_safe unexpectedly rejected: {e}"),
    }
}

//! The paper's Fig. 1 hazard, end to end: simulate the raw-RTL system
//! that skips half its reads, then watch Anvil reject the same design
//! and accept the contract-respecting fix.
//!
//! Run with `cargo run --example memory_hazard`.

use anvil::Session;
use anvil_designs::hazard;

fn main() {
    println!("Simulating Fig. 1's Top against a 2-cycle memory:\n");
    for (i, (expected, observed)) in hazard::fig1_observed(16).iter().enumerate() {
        println!(
            "  read {i}: expected {expected:#04x}, observed {observed:#04x}{}",
            if expected == observed {
                ""
            } else {
                "   <-- hazard"
            }
        );
    }

    println!("\nThe same Top in Anvil is a compile error:");
    let src = hazard::fig1_top_unsafe_anvil();
    if let Err(e) = Session::new().compile(&src) {
        println!("{}", e.render(&src));
    }

    println!("\n...and the dynamic-contract version compiles:");
    let safe = hazard::fig1_top_safe_anvil();
    let out = Session::new().compile(&safe).expect("safe Top compiles");
    println!(
        "  emitted module `top_safe` with {} lines of SystemVerilog",
        out.systemverilog.lines().count()
    );
}

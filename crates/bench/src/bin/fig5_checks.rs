//! Regenerates Fig. 5: the compile-time derivation for the unsafe and
//! safe `Top`, including the per-register loan inference the paper's
//! "Checks at Compile Time" panels show.

use anvil_core::{Control, Session};
use anvil_designs::hazard;

fn report(label: &str, src: &str) {
    println!("== {label} ==\n");
    let session = Session::new();
    match session.check(src, &Control::none()) {
        Ok((_prog, reports)) => {
            for (proc, rep) in &reports {
                for (tid, thread) in rep.threads.iter().enumerate() {
                    println!("process `{proc}`, thread {tid}:");
                    for (reg, loans) in &thread.loans {
                        for loan in loans {
                            println!(
                                "  loan: `{reg}` held from e{} ({})",
                                loan.start.0, loan.origin
                            );
                        }
                    }
                    if thread.errors.is_empty() {
                        println!("  all timing-contract checks hold");
                    }
                    for e in &thread.errors {
                        println!("  CHECK FAILED: {e}");
                    }
                }
                println!(
                    "  Final decision: {}\n",
                    if rep.is_safe() { "SAFE" } else { "UNSAFE" }
                );
            }
        }
        Err(e) => println!("  {}\n", e.render(src)),
    }
}

fn main() {
    report(
        "Fig. 5 left: Top_Unsafe against the static memory contract",
        &hazard::fig1_top_unsafe_anvil(),
    );
    report(
        "Fig. 5 right: Top_Safe against the dynamic cache contract",
        &hazard::fig1_top_safe_anvil(),
    );
}

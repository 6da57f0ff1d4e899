//! Regenerates Appendix A: the same timing-safety property checked two
//! ways — bounded model checking on the generated RTL versus Anvil's
//! type system on the source.
//!
//! The Listing 1/2 design hides its violation behind a 32-bit counter
//! crossing `0x100000`: BMC exhausts any realistic budget, the type
//! checker answers instantly.

use std::time::Instant;

use anvil_core::Session;
use anvil_rtl::{Expr, Module};
use anvil_verify::{bmc, BmcResult};

/// The Listing 1 program (grandchild drives data valid for one cycle; the
/// child forwards a value derived from it under a longer contract).
const LISTING1: &str = "
    chan ch {
        right data : (logic@res),
        left res : (logic@#1)
    }
    chan ch_s {
        right data : (logic@#1)
    }
    proc child(ep : right ch_s, up : left ch) {
        reg r : logic;
        loop {
            set r := ~*r >>
            let d = recv ep.data >>
            send up.data (*r & d) >>
            let x = recv up.res >>
            cycle 1
        }
    }";

/// The Listing 2 RTL shape: a deep counter guards the assertion.
fn listing2_rtl(threshold: u64) -> (Module, Expr) {
    let mut m = Module::new("listing2");
    let cnt = m.reg("cnt", 32);
    m.set_next(cnt, Expr::Signal(cnt).add(Expr::lit(1, 32)));
    // `data` flips once the counter passes the threshold; the assertion
    // `data == $past(data)` then fails.
    let data = m.reg("data", 1);
    m.set_next(
        data,
        Expr::Signal(cnt).lt(Expr::lit(threshold, 32)).logic_not(),
    );
    let past = m.reg("past_data", 1);
    m.set_next(past, Expr::Signal(data));
    let started = m.reg("started", 1);
    m.set_next(started, Expr::bit(true));
    let ok = m.wire_from(
        "ok",
        Expr::Signal(started)
            .logic_not()
            .or(Expr::Signal(data).eq(Expr::Signal(past))),
    );
    let o = m.output("o", 1);
    m.assign(o, Expr::Signal(ok));
    let assertion = Expr::Signal(ok);
    (m, assertion)
}

fn main() {
    println!("== Appendix A: language-based vs verification-based checking ==\n");

    // --- Anvil type check ---
    let t0 = Instant::now();
    let result = Session::new().compile(LISTING1);
    let anvil_time = t0.elapsed();
    match result {
        Err(e) => {
            println!("Anvil type check: REJECTED in {anvil_time:?}:");
            for line in e.render(LISTING1).lines().take(4) {
                println!("  {line}");
            }
        }
        Ok(_) => println!("Anvil: unexpectedly accepted (BUG)"),
    }

    // --- BMC on the RTL ---
    println!("\nBounded model checking the equivalent RTL (violation at depth 2^20):\n");
    println!(
        "{:>8} {:>12} {:>14} {:>12}",
        "depth", "states", "result", "time"
    );
    for depth in [10usize, 25, 50, 100] {
        let (m, a) = listing2_rtl(0x100000);
        let t0 = Instant::now();
        let (result, stats) = bmc(&m, &a, depth, 200_000).expect("bmc runs");
        let dt = t0.elapsed();
        let verdict = match result {
            BmcResult::Violation { depth, .. } => format!("VIOLATION @{depth}"),
            BmcResult::ExhaustedDepth { .. } => "no violation".to_string(),
            BmcResult::ExhaustedStates { .. } => "state budget".to_string(),
        };
        println!(
            "{:>8} {:>12} {:>14} {:>12?}",
            depth, stats.states_visited, verdict, dt
        );
    }
    println!(
        "\nWith a shallow threshold the same checker does find the bug\n\
         (sanity check that it is not simply broken):"
    );
    let (m, a) = listing2_rtl(20);
    let t0 = Instant::now();
    let (result, _) = bmc(&m, &a, 64, 1_000_000).expect("bmc runs");
    println!("  threshold 20: {result:?} in {:?}", t0.elapsed());
    println!(
        "\nAnvil rejects the source in {anvil_time:?}; BMC cannot reach the\n\
         violation depth (2^20 cycles) under any practical budget — the\n\
         Appendix A comparison."
    );
}

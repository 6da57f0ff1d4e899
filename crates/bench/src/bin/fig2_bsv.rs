//! Regenerates Fig. 2: Bluespec-style rule schedules that are
//! conflict-free every cycle yet timing-unsafe across cycles, next to
//! Anvil's compile-time rejection of the same interleaving.

use anvil_core::Session;
use anvil_verify::{fig2_contract_violations, fig2_engine};

fn main() {
    println!("== Fig. 2: per-cycle conflict-free scheduling vs timing contracts ==\n");
    println!("Scenario: Top reads from a 2-cycle cache and enqueues into a FIFO.");
    println!("Cache contract: the address must stay constant from request to response.\n");

    let schedules: [(&str, Vec<usize>); 3] = [
        (
            "schedule 1: send_req >> change_address >> get_res",
            vec![0, 1, 2, 3],
        ),
        (
            "schedule 2: change_address >> send_req >> get_res",
            vec![1, 0, 2, 3],
        ),
        (
            "schedule 3: send_req >> get_res >> change_address",
            vec![0, 2, 1, 3],
        ),
    ];
    for (name, priority) in schedules {
        let mut e = fig2_engine(2);
        e.run(&priority, 6);
        let (violated, enq) = fig2_contract_violations(&e);
        println!(
            "{name}\n  conflict-free every cycle: yes   timing contract: {}   enqueued: {:?}",
            if violated { "VIOLATED" } else { "upheld" },
            enq
        );
        println!("  fired: {:?}\n", e.history.first().unwrap_or(&vec![]));
    }
    println!("Every conflict-free schedule that lets `change_address` fire while the");
    println!("request is in flight corrupts the enqueued value (the cache read 0x05,");
    println!("not 0x00) - and per-cycle scheduling has no way to rule that out.\n");

    println!("== The same design in Anvil ==\n");
    let src = "
        chan cache_ch {
            right req : (logic[8]@res),
            left res : (logic[8]@req)
        }
        chan fifo_ch { right enq_req : (logic[8]@#1) }
        proc top(cache : left cache_ch, fifo : left fifo_ch) {
            reg address : logic[8];
            loop {
                send cache.req (*address) >>
                set address := *address + 1 >>
                let data = recv cache.res >>
                send fifo.enq_req (data) >>
                cycle 1
            }
        }";
    match Session::new().compile(src) {
        Err(e) => {
            println!("eager-address-change version: REJECTED:");
            for line in e.render(src).lines() {
                println!("  {line}");
            }
        }
        Ok(_) => println!("unexpectedly accepted (BUG)"),
    }

    let safe = "
        chan cache_ch {
            right req : (logic[8]@res),
            left res : (logic[8]@req)
        }
        chan fifo_ch { right enq_req : (logic[8]@#1) }
        proc top(cache : left cache_ch, fifo : left fifo_ch) {
            reg address : logic[8];
            reg enq_data : logic[8];
            loop {
                send cache.req (*address) >>
                let data = recv cache.res >>
                set address := *address + 1 ;
                set enq_data := data >>
                send fifo.enq_req (*enq_data) >>
                cycle 1
            }
        }";
    match Session::new().compile(safe) {
        Ok(_) => println!("\ncontract-respecting version (Fig. 2 top-right): accepted."),
        Err(e) => println!("\nsafe version unexpectedly rejected:\n{}", e.render(safe)),
    }
}

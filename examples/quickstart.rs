//! Quickstart: write an Anvil process, type-check it, generate
//! SystemVerilog, and simulate the generated RTL — the full pipeline in
//! one file.
//!
//! Run with `cargo run --example quickstart`.

use anvil::{Session, Sim};
use anvil_rtl::Bits;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A process that receives a byte and replies with its double. The
    // channel contract says the reply only needs to live for the
    // handshake cycle (`@#1`), while the request must stay valid until
    // the response (`@res`) — a *dynamic* timing contract.
    let source = "
        chan io {
            left req : (logic[8]@res),
            right res : (logic[8]@#1)
        }
        proc doubler(ep : left io) {
            reg hold : logic[8];
            loop {
                let x = recv ep.req >>
                set hold := x + x >>
                send ep.res (*hold) >>
                cycle 1
            }
        }";

    // 1. Compile: parse -> event graph -> timing-safety checks ->
    //    optimization -> RTL -> SystemVerilog.
    let out = Session::new().compile(source)?;
    println!("--- generated SystemVerilog ---");
    println!("{}", out.systemverilog);

    // 2. Simulate the generated hardware.
    let flat = anvil_rtl::elaborate("doubler", &out.modules)?;
    let mut sim = Sim::new(&flat)?;
    sim.poke("ep_res_ack", Bits::bit(true))?;
    sim.poke("ep_req_valid", Bits::bit(true))?;
    sim.poke("ep_req_data", Bits::from_u64(21, 8))?;
    for _ in 0..6 {
        if sim.peek("ep_res_valid")?.is_truthy() {
            println!(
                "cycle {}: response = {}",
                sim.cycle(),
                sim.peek("ep_res_data")?.to_u64()
            );
            break;
        }
        sim.step()?;
    }

    // 3. Timing hazards do not get this far: mutating `hold` while the
    //    response is still owed is rejected at compile time.
    let unsafe_source = source.replace(
        "send ep.res (*hold) >>",
        "send ep.res (*hold) ; set hold := 0 >>",
    );
    match Session::new().compile(&unsafe_source) {
        Err(e) => println!(
            "\nhazardous variant rejected:\n{}",
            e.render(&unsafe_source)
        ),
        Ok(_) => println!("\nunexpectedly accepted"),
    }
    Ok(())
}

//! The parallel batch-compile front door: one shared [`anvil::Session`],
//! many designs, per-design event counts, and determinism against
//! sequential compilation.
//!
//! ```sh
//! cargo run --release --example batch_compile
//! ```

use anvil::Session;

fn main() {
    let suite = anvil_designs::suite_sources();
    let names: Vec<&str> = suite.iter().map(|(n, _)| *n).collect();
    let refs: Vec<&str> = suite.iter().map(|(_, s)| s.as_str()).collect();

    let mut session = Session::new();
    session.add_extern(anvil_designs::aes::sbox_module());

    println!("== sequential ==");
    let t = std::time::Instant::now();
    let sequential: Vec<_> = refs.iter().map(|s| session.compile(s)).collect();
    let seq_wall = t.elapsed();
    for (name, r) in names.iter().zip(&sequential) {
        match r {
            Ok(out) => println!(
                "  {name:<12} {} bytes SV | {} -> {} events",
                out.systemverilog.len(),
                out.stats.events_before,
                out.stats.events_after
            ),
            Err(e) => println!("  {name:<12} FAILED: {e}"),
        }
    }
    println!("  wall: {seq_wall:?}");

    println!("== batch (4 workers) ==");
    let t = std::time::Instant::now();
    let batch = session.compile_batch_with_workers(&refs, 4);
    let batch_wall = t.elapsed();
    println!("  wall: {batch_wall:?}");

    let mut identical = 0;
    for (seq, par) in sequential.iter().zip(&batch) {
        if let (Ok(a), Ok(b)) = (seq, par) {
            assert_eq!(a.systemverilog, b.systemverilog, "batch output diverged");
            identical += 1;
        }
    }
    println!(
        "  {identical}/{} outputs byte-identical to sequential",
        refs.len()
    );
}

//! Regenerates Table 1: area, power, fmax, and latency class for the ten
//! evaluation designs, Anvil-compiled versus handwritten baseline.
//!
//! Power is reported at `min(fmax(Anvil), fmax(baseline)) / 2` with
//! switching activity measured under a shared random-input workload —
//! the paper's §7.3 setup, with the synthesis cost model standing in for
//! the commercial 22 nm flow (DESIGN.md §1).
//!
//! Pass `--force-dyn-handshake` to re-run the Anvil side with handshake
//! port omission disabled (the §6.2 ablation).

use anvil_designs::{registry, tb};
use anvil_synth::{estimate_power_mw, synthesize};

fn main() {
    let force_dyn = std::env::args().any(|a| a == "--force-dyn-handshake");
    if force_dyn {
        println!("(ablation: handshake omission disabled — see DESIGN.md)");
    }
    println!(
        "{:<28} {:>10} {:>10} {:>7} | {:>8} {:>8} {:>7} | {:>9} {:>9} | {:>4}",
        "Design (baseline kind)",
        "B area",
        "A area",
        "Δ",
        "B mW",
        "A mW",
        "Δ",
        "B fmax",
        "A fmax",
        "lat"
    );
    let mut area_deltas = Vec::new();
    let mut power_deltas = Vec::new();
    for d in registry() {
        let anvil = (d.anvil)();
        let base = (d.baseline)();
        let ra = synthesize(&anvil);
        let rb = synthesize(&base);
        let f = ra.fmax_mhz.min(rb.fmax_mhz) / 2.0;
        let act_a = tb::random_activity(&anvil, 200, 42);
        let act_b = tb::random_activity(&base, 200, 42);
        let pa = estimate_power_mw(&ra, act_a, f);
        let pb = estimate_power_mw(&rb, act_b, f);
        area_deltas.push((ra.area_um2 - rb.area_um2) / rb.area_um2 * 100.0);
        power_deltas.push((pa - pb) / pb * 100.0);
        println!(
            "{:<28} {:>9.0}u {:>9.0}u {:>7} | {:>8.3} {:>8.3} {:>7} | {:>8.0}M {:>8.0}M | {:>4}",
            format!("{} ({})", d.name, d.baseline_kind),
            rb.area_um2,
            ra.area_um2,
            anvil_bench::pct(ra.area_um2, rb.area_um2),
            pb,
            pa,
            anvil_bench::pct(pa, pb),
            rb.fmax_mhz,
            ra.fmax_mhz,
            if d.dynamic_latency { "dyn" } else { "fix" },
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nAverage overhead vs baselines:  Area = {:+.2}%   Power = {:+.2}%",
        avg(&area_deltas),
        avg(&power_deltas)
    );
    println!("(paper reports: Area = +4.50%, Power = +3.75%, latency overhead 0)");

    if force_dyn {
        println!("\n== §6.2 ablation: handshake-port omission ==\n");
        for (name, src, top) in [
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
        ] {
            let omitted = area_with(&src, top, false);
            let forced = area_with(&src, top, true);
            println!(
                "{name:<18} omitted {omitted:>8.0} GE   forced-dyn {forced:>8.0} GE   ({})",
                anvil_bench::pct(forced, omitted)
            );
        }
    }
}

fn area_with(src: &str, top: &str, force: bool) -> f64 {
    let mut session = anvil_core::Session::new();
    session.set_options(anvil_core::Options {
        force_dynamic_handshake: force,
        ..anvil_core::Options::default()
    });
    let out = session.compile(src).expect("design compiles");
    let flat = anvil_rtl::elaborate(top, &out.modules).expect("design flattens");
    anvil_synth::synthesize(&flat).total_ge()
}

//! Cross-crate integration: the full compile-simulate-synthesize pipeline
//! on every evaluation design, plus SystemVerilog emission sanity.

use anvil::Session;
use anvil_designs::registry;

#[test]
fn every_design_flattens_simulates_and_synthesizes() {
    for d in registry() {
        let anvil = (d.anvil)();
        let base = (d.baseline)();
        // Both sides simulate from reset without errors.
        let mut sa = anvil_sim::Sim::new(&anvil).expect(d.name);
        let mut sb = anvil_sim::Sim::new(&base).expect(d.name);
        sa.run(50).unwrap();
        sb.run(50).unwrap();
        // Both sides synthesize to nonzero area.
        let ra = anvil_synth::synthesize(&anvil);
        let rb = anvil_synth::synthesize(&base);
        assert!(ra.area_um2 > 0.0, "{}: anvil area", d.name);
        assert!(rb.area_um2 > 0.0, "{}: baseline area", d.name);
        assert!(ra.fmax_mhz > 0.0 && rb.fmax_mhz > 0.0, "{}", d.name);
    }
}

#[test]
fn emitted_sv_has_one_module_per_proc() {
    let out = Session::new()
        .compile(&anvil_designs::axi::mux_source())
        .unwrap();
    assert_eq!(out.systemverilog.matches("\nendmodule").count() + 1, 1 + 1);
    assert!(out.systemverilog.contains("module axi_mux_anvil"));
}

#[test]
fn generated_fsms_have_no_lifetime_bookkeeping_overhead() {
    // §6.2: no lifetime counters are emitted. The generated module's
    // registers are exactly: user registers + FSM state (started/pending/
    // delay/arrival/branch bits). Nothing scales with the number of
    // lifetimes, which we check by comparing two designs whose lifetime
    // counts differ but whose control structure is identical.
    let short = "chan c { right o : (logic[8]@#1) }
        proc p(ep : left c) {
            reg r : logic[8];
            loop { send ep.o (*r) >> set r := *r + 1 >> cycle 1 }
        }";
    let long = "chan c { right o : (logic[8]@#3) }
        proc p(ep : left c) {
            reg r : logic[8];
            loop { send ep.o (*r) >> cycle 2 >> set r := *r + 1 >> cycle 1 }
        }";
    let a = Session::new().compile_flat(short, "p").unwrap();
    let b = Session::new().compile_flat(long, "p").unwrap();
    let regs = |m: &anvil_rtl::Module| {
        m.iter_signals()
            .filter(|(_, s)| s.kind == anvil_rtl::SignalKind::Reg)
            .count()
    };
    // The longer contract costs the delay counter it asked for (cycle 2),
    // not any lifetime machinery.
    assert!(regs(&b) <= regs(&a) + 2, "{} vs {}", regs(&b), regs(&a));
}

#[test]
fn incremental_adoption_sv_compiles_into_library() {
    // Anvil modules and handwritten RTL coexist in one library and
    // elaborate together (the paper's integration story).
    let out = Session::new()
        .compile(&anvil_designs::fifo::anvil_source())
        .unwrap();
    let mut lib = out.modules.clone();
    let mut wrapper = anvil_rtl::Module::new("sv_wrapper");
    let enq_d = wrapper.input("enq_d", 16);
    let enq_v = wrapper.input("enq_v", 1);
    let enq_a = wrapper.wire("enq_a", 1);
    let deq_d = wrapper.wire("deq_d", 16);
    let deq_v = wrapper.wire("deq_v", 1);
    let deq_a = wrapper.wire("deq_a", 1);
    let out_port = wrapper.output("o", 16);
    wrapper.assign(deq_a, anvil_rtl::Expr::bit(true));
    wrapper.assign(out_port, anvil_rtl::Expr::Signal(deq_d));
    let o2 = wrapper.output("o_valid", 1);
    wrapper.assign(o2, anvil_rtl::Expr::Signal(deq_v));
    let o3 = wrapper.output("o_ack", 1);
    wrapper.assign(o3, anvil_rtl::Expr::Signal(enq_a));
    wrapper.instance(
        "u_fifo",
        "fifo_anvil",
        vec![
            ("in_ep_enq_data".into(), enq_d),
            ("in_ep_enq_valid".into(), enq_v),
            ("in_ep_enq_ack".into(), enq_a),
            ("out_ep_deq_data".into(), deq_d),
            ("out_ep_deq_valid".into(), deq_v),
            ("out_ep_deq_ack".into(), deq_a),
        ],
    );
    lib.add(wrapper);
    let flat = anvil_rtl::elaborate("sv_wrapper", &lib).unwrap();
    let mut sim = anvil_sim::Sim::new(&flat).unwrap();
    sim.poke("enq_v", anvil_rtl::Bits::bit(true)).unwrap();
    sim.poke("enq_d", anvil_rtl::Bits::from_u64(0xAB, 16))
        .unwrap();
    for _ in 0..6 {
        sim.step().unwrap();
    }
    assert!(sim.peek("o_valid").unwrap().is_truthy());
    assert_eq!(sim.peek("o").unwrap().to_u64(), 0xAB);
}

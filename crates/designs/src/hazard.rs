//! The motivating-example systems: Fig. 1's timing hazard and Fig. 4's
//! static-vs-dynamic cache contracts.
//!
//! * [`fig1_system`] builds the paper's opening example in raw RTL — a
//!   `Top` that assumes a one-cycle memory against a memory that takes
//!   two — because Anvil *refuses to compile it*
//!   ([`fig1_top_unsafe_anvil`] is the equivalent source, rejected by the
//!   type checker). Simulating the raw-RTL version reproduces the bottom
//!   waveform of Fig. 1: half the addresses are skipped.
//! * [`cache_dyn_source`] / [`cache_static_source`] give the same cached
//!   memory twice: once under a dynamic contract (`req -> res`), once
//!   under a static worst-case contract. Fig. 4's point — the static
//!   contract wastes every cache hit — falls out as measured latencies.

use anvil_rtl::{Expr, Module, ModuleLibrary};

/// Memory contents in all of these systems.
pub fn mem_value(addr: u64) -> u64 {
    (addr ^ 0x5A) & 0xFF
}

/// The Fig. 1 memory: two cycles from request to output, ignores new
/// requests while busy.
pub fn fig1_memory() -> Module {
    let mut m = Module::new("fig1_memory");
    let inp = m.input("inp", 8);
    let req = m.input("req", 1);
    let out = m.output("out", 8);

    let busy = m.reg("busy", 1);
    let cnt = m.reg("cnt", 2);
    let latched = m.reg("latched", 8);
    let result = m.reg("result", 8);

    let start = m.wire_from(
        "start",
        Expr::Signal(req).and(Expr::Signal(busy).logic_not()),
    );
    m.update_when(latched, Expr::Signal(start), Expr::Signal(inp));
    let done = m.wire_from(
        "done",
        Expr::Signal(busy).and(Expr::Signal(cnt).eq(Expr::lit(0, 2))),
    );
    // "RAM": value = addr ^ 0x5A.
    m.update_when(
        result,
        Expr::Signal(done),
        Expr::Signal(latched).xor(Expr::lit(0x5A, 8)),
    );
    m.update_when(cnt, Expr::Signal(start), Expr::lit(1, 2));
    m.update_when(
        cnt,
        Expr::Signal(busy),
        Expr::Signal(cnt).sub(Expr::lit(1, 2)),
    );
    let busy_next = Expr::mux(
        Expr::Signal(start),
        Expr::bit(true),
        Expr::mux(Expr::Signal(done), Expr::bit(false), Expr::Signal(busy)),
    );
    m.set_next(busy, busy_next);
    m.assign(out, Expr::Signal(result));
    m
}

/// The Fig. 1 `Top`: toggles `req` every cycle, assuming the memory
/// answers in exactly one cycle. This is the design Anvil rejects.
pub fn fig1_top_unsafe() -> Module {
    let mut m = Module::new("fig1_top");
    let out_in = m.input("mem_out", 8);
    let inp = m.output("mem_inp", 8);
    let req = m.output("mem_req", 1);
    let observed = m.output("observed", 8);
    let observe_valid = m.output("observe_valid", 1);

    let addr = m.reg("address", 8);
    let phase = m.reg("phase", 1); // 0: request, 1: read output
    m.set_next(phase, Expr::Signal(phase).not());
    let requesting = m.wire_from("requesting", Expr::Signal(phase).logic_not());
    m.assign(req, Expr::Signal(requesting));
    m.assign(inp, Expr::Signal(addr));
    m.update_when(
        addr,
        Expr::Signal(requesting),
        Expr::Signal(addr).add(Expr::lit(1, 8)),
    );
    m.assign(observed, Expr::Signal(out_in));
    m.assign(observe_valid, Expr::Signal(phase));
    m
}

/// The composed Fig. 1 system, flattened for simulation.
pub fn fig1_system() -> Module {
    let mut lib = ModuleLibrary::new();
    lib.add(fig1_memory());
    lib.add(fig1_top_unsafe());
    let mut top = Module::new("fig1_system");
    let inp = top.wire("inp", 8);
    let req = top.wire("req", 1);
    let out = top.wire("out", 8);
    let observed = top.output("observed", 8);
    let observe_valid = top.output("observe_valid", 1);
    let obs_w = top.wire("obs_w", 8);
    let obsv_w = top.wire("obsv_w", 1);
    top.instance(
        "u_top",
        "fig1_top",
        vec![
            ("mem_out".into(), out),
            ("mem_inp".into(), inp),
            ("mem_req".into(), req),
            ("observed".into(), obs_w),
            ("observe_valid".into(), obsv_w),
        ],
    );
    top.instance(
        "u_mem",
        "fig1_memory",
        vec![
            ("inp".into(), inp),
            ("req".into(), req),
            ("out".into(), out),
        ],
    );
    top.assign(observed, Expr::Signal(obs_w));
    top.assign(observe_valid, Expr::Signal(obsv_w));
    lib.add(top);
    anvil_rtl::elaborate("fig1_system", &lib).expect("fig1 system flattens")
}

/// Runs the Fig. 1 system and returns `(expected, observed)` value pairs:
/// what `Top` *should* read for each address versus what it actually
/// reads. The mismatches are the timing hazard.
pub fn fig1_observed(cycles: u64) -> Vec<(u64, u64)> {
    let mut sim = anvil_sim::Sim::new(&fig1_system()).expect("fig1 simulates");
    let mut out = Vec::new();
    let mut addr = 0u64;
    for _ in 0..cycles {
        if sim.peek("observe_valid").unwrap().is_truthy() {
            out.push((mem_value(addr), sim.peek("observed").unwrap().to_u64()));
            addr += 1;
        }
        sim.step().unwrap();
    }
    out
}

/// The Anvil equivalent of Fig. 1's `Top` against the 2-cycle memory
/// contract — the version the type checker rejects (Fig. 5, left).
pub fn fig1_top_unsafe_anvil() -> String {
    "chan memory_ch {
        right address : (logic[8]@#2),
        left data : (logic[8]@#1)
     }
     proc top_unsafe(mem : left memory_ch) {
        reg addr : logic[8];
        loop {
            send mem.address (*addr) >>
            set addr := *addr + 1 >>
            let d = recv mem.data >>
            cycle 1
        }
     }"
    .to_string()
}

/// The corrected `Top` under the dynamic contract (Fig. 5, right) — the
/// version the type checker accepts.
pub fn fig1_top_safe_anvil() -> String {
    "chan cache_ch {
        right req : (logic[8]@res),
        left res : (logic[8]@req)
     }
     proc top_safe(c : left cache_ch) {
        reg addr : logic[8];
        loop {
            send c.req (*addr) >>
            let d = recv c.res >>
            set addr := *addr + 1 >>
            cycle 1
        }
     }"
    .to_string()
}

/// The Fig. 4 cached memory under a *dynamic* contract: hits respond
/// after one lookup cycle, misses take a 2-cycle refill. The requester's
/// address stays valid `[req, req->res)` — however long the miss takes.
pub fn cache_dyn_source() -> String {
    "chan cache_ch {
        right req : (logic[8]@res),
        left res : (logic[8]@req)
     }
     proc cache_dyn(cpu : right cache_ch) {
        reg tags : logic[6][4];
        reg data : logic[8][4];
        reg vld : logic[4];
        reg hout : logic[8];
        loop {
            let a = recv cpu.req >>
            if ((*vld >>> (a)[1:0]) & 4'd1)[0:0] & (*tags[(a)[1:0]] == (a)[7:2]) {
                set hout := *data[(a)[1:0]] >>
                send cpu.res (*hout) >>
                cycle 1
            } else {
                cycle 2 >>
                set data[(a)[1:0]] := (a) ^ 8'd90 ;
                set tags[(a)[1:0]] := (a)[7:2] ;
                set vld := *vld | (4'd1 << (a)[1:0]) ;
                set hout := (a) ^ 8'd90 >>
                send cpu.res (*hout) >>
                cycle 1
            }
        }
     }"
    .to_string()
}

/// The same cache under a *static* worst-case contract: every request is
/// answered exactly four cycles after it is accepted (dependent sync), so
/// hits gain nothing — Fig. 4 (left).
pub fn cache_static_source() -> String {
    "chan cache_ch_s {
        right req : (logic[8]@#4) @dyn-@dyn,
        left res : (logic[8]@#1) @#req+4-@#req+4
     }
     proc cache_static(cpu : right cache_ch_s) {
        reg out : logic[8];
        loop {
            let a = recv cpu.req >>
            set out := (a) ^ 8'd90 >>
            cycle 2 >>
            send cpu.res (*out) >>
            cycle 1
        }
     }"
    .to_string()
}

/// Compiles and flattens the dynamic cache.
pub fn cache_dyn_flat() -> Module {
    anvil_core::Session::new()
        .compile_flat(&cache_dyn_source(), "cache_dyn")
        .expect("dynamic cache compiles")
}

/// Compiles and flattens the static cache.
pub fn cache_static_flat() -> Module {
    anvil_core::Session::new()
        .compile_flat(&cache_static_source(), "cache_static")
        .expect("static cache compiles")
}

/// Drives an address trace through a cache and returns the per-request
/// latency (request-accept to response) and response value.
pub fn measure_cache(m: &Module, addrs: &[u64], is_static: bool) -> Vec<(u64, u64)> {
    use anvil_rtl::Bits;
    let mut sim = anvil_sim::Sim::new(m).expect("cache simulates");
    let mut results = Vec::new();
    let mut idx = 0usize;
    let mut accepted_at: Option<u64> = None;
    if !is_static {
        sim.poke("cpu_res_ack", Bits::bit(true)).unwrap();
    }
    for _ in 0..400 {
        if results.len() >= addrs.len() {
            break;
        }
        if idx < addrs.len() && accepted_at.is_none() {
            sim.poke("cpu_req_data", Bits::from_u64(addrs[idx], 8))
                .unwrap();
            sim.poke("cpu_req_valid", Bits::bit(true)).unwrap();
        } else {
            sim.poke("cpu_req_valid", Bits::bit(false)).unwrap();
        }
        // Accept detection.
        let accepting = sim.peek("cpu_req_ack").unwrap().is_truthy()
            && sim.peek("cpu_req_valid").unwrap().is_truthy();
        // Response detection: handshaken for the dynamic cache; exactly
        // four cycles after accept for the static one.
        let response = if is_static {
            matches!(accepted_at, Some(t) if sim.cycle() == t + 4)
        } else {
            sim.peek("cpu_res_valid").unwrap().is_truthy()
        };
        if response {
            let v = sim.peek("cpu_res_data").unwrap().to_u64();
            let lat = sim.cycle() - accepted_at.expect("response implies request");
            results.push((lat, v));
            accepted_at = None;
        }
        if accepting && accepted_at.is_none() {
            accepted_at = Some(sim.cycle());
            idx += 1;
        }
        sim.step().unwrap();
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_core::{CompileError, Session};

    #[test]
    fn fig1_hazard_reproduced() {
        let pairs = fig1_observed(40);
        assert!(pairs.len() >= 8);
        let mismatches = pairs.iter().filter(|(e, o)| e != o).count();
        // The Fig. 1 waveform: only about half the reads return the value
        // the designer expected.
        assert!(
            mismatches * 2 >= pairs.len(),
            "expected rampant mismatches, got {mismatches}/{} in {pairs:?}",
            pairs.len()
        );
    }

    #[test]
    fn fig1_anvil_rejects_unsafe_accepts_safe() {
        let err = Session::new()
            .compile(&fig1_top_unsafe_anvil())
            .unwrap_err();
        assert!(matches!(err, CompileError::TimingUnsafe(_)));
        Session::new()
            .compile(&fig1_top_safe_anvil())
            .expect("safe Top compiles");
    }

    #[test]
    fn dynamic_cache_hits_fast_misses_slow() {
        let m = cache_dyn_flat();
        // Miss, hit, hit, miss (conflict), hit.
        let addrs = [0x10u64, 0x10, 0x10, 0x50, 0x50];
        let res = measure_cache(&m, &addrs, false);
        assert_eq!(res.len(), 5);
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(res[i].1, mem_value(*a), "value for {a:#x}");
        }
        let lats: Vec<u64> = res.iter().map(|(l, _)| *l).collect();
        assert!(lats[0] > lats[1], "miss slower than hit: {lats:?}");
        assert_eq!(lats[1], lats[2]);
        assert!(lats[3] > lats[4]);
    }

    #[test]
    fn static_cache_always_pays_worst_case() {
        let m = cache_static_flat();
        let addrs = [0x10u64, 0x10, 0x10];
        let res = measure_cache(&m, &addrs, true);
        assert_eq!(res.len(), 3);
        for (lat, _) in &res {
            assert_eq!(*lat, 4, "static contract fixes the latency");
        }
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(res[i].1, mem_value(*a));
        }
    }

    #[test]
    fn both_cache_sources_typecheck() {
        for (src, top) in [
            (cache_dyn_source(), "cache_dyn"),
            (cache_static_source(), "cache_static"),
        ] {
            let (_, reports) = Session::new()
                .check(&src, &anvil_core::Control::none())
                .unwrap();
            let report = &reports[&anvil_intern::Symbol::intern(top)];
            assert!(report.is_safe(), "{top}: {:?}", report.errors());
        }
    }
}

//! Page table walker (paper Table 1, row 5).
//!
//! Modelled on the CVA6 MMU's PTW: translates a 27-bit virtual page number
//! by walking up to three page-table levels through a memory port whose
//! latency varies at run time. A walk can terminate early at any level
//! when it finds a leaf PTE — the "respond to requests with varying
//! latencies" behaviour that needs Anvil's *dynamic* timing contracts
//! (the CPU's request must stay stable until the response, however many
//! memory round-trips that takes).
//!
//! PTE format: `{leaf[1], base[21]}`; memory request: `{base[22], vpn_i[9]}`.

use anvil_core::Session;
use anvil_rtl::{Expr, Module};

/// Virtual page number width (3 levels × 9 bits).
pub const VA_W: usize = 27;
/// PTE / response width.
pub const PTE_W: usize = 22;
/// Memory request width.
pub const MREQ_W: usize = 31;

/// The Anvil source for the page table walker.
pub fn anvil_source() -> String {
    format!(
        "chan ptw_ch {{
            left vreq : (logic[{va}]@vres),
            right vres : (logic[{pte}]@vreq)
         }}
         chan pmem_ch {{
            right mreq : (logic[{mr}]@mres),
            left mres : (logic[{pte}]@mreq)
         }}
         proc ptw_anvil(cpu : left ptw_ch, mem : left pmem_ch) {{
            reg base : logic[{pte}];
            reg out : logic[{pte}];
            loop {{
                let va = recv cpu.vreq >>
                set base := {pte}'d0 >>
                send mem.mreq (concat((*base)[21:0], (va)[26:18])) >>
                let pte0 = recv mem.mres >>
                if (pte0)[21:21] == 1 {{ set out := pte0 }}
                else {{
                    set base := concat(1'd0, (pte0)[20:0]) >>
                    send mem.mreq (concat((*base)[21:0], (va)[17:9])) >>
                    let pte1 = recv mem.mres >>
                    if (pte1)[21:21] == 1 {{ set out := pte1 }}
                    else {{
                        set base := concat(1'd0, (pte1)[20:0]) >>
                        send mem.mreq (concat((*base)[21:0], (va)[8:0])) >>
                        let pte2 = recv mem.mres >>
                        set out := pte2
                    }}
                }} >>
                send cpu.vres (*out) >>
                cycle 1
            }}
         }}",
        va = VA_W,
        pte = PTE_W,
        mr = MREQ_W,
    )
}

/// Compiles and flattens the Anvil PTW.
pub fn anvil_flat() -> Module {
    Session::new()
        .compile_flat(&anvil_source(), "ptw_anvil")
        .expect("PTW compiles")
}

/// The handwritten baseline FSM with the same interface and per-level
/// timing (request level i, wait for PTE, descend or respond).
pub fn baseline() -> Module {
    let mut m = Module::new("ptw_baseline");
    let vreq_data = m.input("cpu_vreq_data", VA_W);
    let vreq_valid = m.input("cpu_vreq_valid", 1);
    let vreq_ack = m.output("cpu_vreq_ack", 1);
    let vres_data = m.output("cpu_vres_data", PTE_W);
    let vres_valid = m.output("cpu_vres_valid", 1);
    let vres_ack = m.input("cpu_vres_ack", 1);
    let mreq_data = m.output("mem_mreq_data", MREQ_W);
    let mreq_valid = m.output("mem_mreq_valid", 1);
    let mreq_ack = m.input("mem_mreq_ack", 1);
    let mres_data = m.input("mem_mres_data", PTE_W);
    let mres_valid = m.input("mem_mres_valid", 1);
    let mres_ack = m.output("mem_mres_ack", 1);

    // States: 0 idle, 1 set-base, 2 send-req, 3 wait-pte, 4 respond.
    let st = m.reg("st", 3);
    let level = m.reg("level", 2);
    let va_q = m.reg("va_q", VA_W);
    let base = m.reg("base", PTE_W);
    let out = m.reg("out", PTE_W);

    let in_idle = m.wire_from("in_idle", Expr::Signal(st).eq(Expr::lit(0, 3)));
    let in_setb = m.wire_from("in_setb", Expr::Signal(st).eq(Expr::lit(1, 3)));
    let in_send = m.wire_from("in_send", Expr::Signal(st).eq(Expr::lit(2, 3)));
    let in_wait = m.wire_from("in_wait", Expr::Signal(st).eq(Expr::lit(3, 3)));
    let in_resp = m.wire_from("in_resp", Expr::Signal(st).eq(Expr::lit(4, 3)));

    m.assign(vreq_ack, Expr::Signal(in_idle));
    let take = m.wire_from("take", Expr::Signal(in_idle).and(Expr::Signal(vreq_valid)));
    m.update_when(va_q, Expr::Signal(take), Expr::Signal(vreq_data));
    m.update_when(level, Expr::Signal(take), Expr::lit(0, 2));
    m.update_when(base, Expr::Signal(in_setb), Expr::lit(0, PTE_W));

    // VPN slice by level.
    let vpn = m.wire_from(
        "vpn",
        Expr::mux(
            Expr::Signal(level).eq(Expr::lit(0, 2)),
            Expr::Signal(va_q).slice(18, 9),
            Expr::mux(
                Expr::Signal(level).eq(Expr::lit(1, 2)),
                Expr::Signal(va_q).slice(9, 9),
                Expr::Signal(va_q).slice(0, 9),
            ),
        ),
    );
    m.assign(mreq_valid, Expr::Signal(in_send));
    m.assign(
        mreq_data,
        Expr::Concat(vec![Expr::Signal(base), Expr::Signal(vpn)]),
    );
    let sent = m.wire_from("sent", Expr::Signal(in_send).and(Expr::Signal(mreq_ack)));

    m.assign(mres_ack, Expr::Signal(in_wait));
    let got_pte = m.wire_from(
        "got_pte",
        Expr::Signal(in_wait).and(Expr::Signal(mres_valid)),
    );
    let leaf = m.wire_from("leaf", Expr::Signal(mres_data).slice(21, 1));
    let last = m.wire_from("last", Expr::Signal(level).eq(Expr::lit(2, 2)));
    let done_walk = m.wire_from(
        "done_walk",
        Expr::Signal(got_pte).and(Expr::Signal(leaf).or(Expr::Signal(last))),
    );
    let descend = m.wire_from(
        "descend",
        Expr::Signal(got_pte).and(Expr::Signal(done_walk).logic_not()),
    );
    m.update_when(out, Expr::Signal(done_walk), Expr::Signal(mres_data));
    m.update_when(
        base,
        Expr::Signal(descend),
        Expr::Concat(vec![Expr::lit(0, 1), Expr::Signal(mres_data).slice(0, 21)]),
    );
    m.update_when(
        level,
        Expr::Signal(descend),
        Expr::Signal(level).add(Expr::lit(1, 2)),
    );

    m.assign(vres_valid, Expr::Signal(in_resp));
    m.assign(vres_data, Expr::Signal(out));
    let responded = m.wire_from(
        "responded",
        Expr::Signal(in_resp).and(Expr::Signal(vres_ack)),
    );

    // State transitions. Priority: later updates win, so order carefully.
    let next = Expr::mux(
        Expr::Signal(take),
        Expr::lit(1, 3), // idle -> set-base
        Expr::mux(
            Expr::Signal(in_setb),
            Expr::lit(2, 3), // set-base -> send (one cycle, as in Anvil)
            Expr::mux(
                Expr::Signal(sent),
                Expr::lit(3, 3), // send -> wait
                Expr::mux(
                    Expr::Signal(done_walk),
                    Expr::lit(4, 3), // wait -> respond (+1 for `out` reg)
                    Expr::mux(
                        Expr::Signal(descend),
                        Expr::lit(2, 3), // wait -> send next level
                        Expr::mux(Expr::Signal(responded), Expr::lit(0, 3), Expr::Signal(st)),
                    ),
                ),
            ),
        ),
    );
    m.set_next(st, next);
    m
}

/// A behavioural page-table model used by the tests: maps a `(base, vpn)`
/// request to a PTE. Level-`l` tables live at base `l * 0x100`; the walk
/// terminates early for VPNs whose level-0 entry has the leaf bit.
pub fn pte_for(req: u64) -> u64 {
    let vpn = req & 0x1ff;
    let base = (req >> 9) & 0x3f_ffff;
    let leaf = 1u64 << 21;
    match base {
        // Root table: VPN0 < 8 are 1 GiB leaf pages; others descend.
        0 => {
            if vpn < 8 {
                leaf | (0x1000 + vpn)
            } else {
                0x100 // next-level table base
            }
        }
        // Level-1 table: even VPN1s are 2 MiB leaves; odd descend.
        0x100 => {
            if vpn.is_multiple_of(2) {
                leaf | (0x2000 + vpn)
            } else {
                0x200
            }
        }
        // Level-2 table: always leaves.
        _ => leaf | (0x3000 + vpn),
    }
}

/// Walks the model in software: the reference for both RTL versions.
pub fn reference_walk(va: u64) -> u64 {
    let mut base = 0u64;
    for level in 0..3 {
        let vpn = (va >> (18 - 9 * level)) & 0x1ff;
        let pte = pte_for((base << 9) | vpn);
        if pte >> 21 == 1 || level == 2 {
            return pte & 0x3f_ffff;
        }
        base = pte & 0x1f_ffff;
    }
    unreachable!("walk terminates at level 2");
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_rtl::Bits;
    use anvil_sim::Sim;

    /// Runs a walk per VA with a memory BFM of the given latency;
    /// returns `(response, walk cycles)` per request.
    ///
    /// The CPU driver honours the dynamic timing contract
    /// `vreq : (logic[27]@vres)`: it holds the address *until the
    /// response*, not merely until the request handshake. (Driving this
    /// interface with a fire-and-forget sender reproduces exactly the
    /// Fig. 1 hazard: the PTW reads the request wire statelessly, so a
    /// prematurely-advanced address makes walk N return walk N+1's
    /// translation. The type checker enforces this obligation on Anvil
    /// *processes*; a raw-RTL testbench has to uphold it by hand.)
    pub fn run_walks(m: &Module, vas: &[u64], mem_latency: u64) -> Vec<(u64, u64)> {
        let mut sim = Sim::new(m).unwrap();
        let mut results = Vec::new();
        let mut pending_mem: Option<(u64, u64)> = None; // (pte, due-cycle)
        let mut walk_start: Option<u64> = None;
        let mut idx = 0usize;
        sim.poke("cpu_vres_ack", Bits::bit(true)).unwrap();
        for _ in 0..400 {
            if results.len() >= vas.len() {
                break;
            }
            // Contract-honouring CPU: present the address and keep it on
            // the wire until the response arrives.
            sim.poke(
                "cpu_vreq_data",
                Bits::from_u64(vas[idx.min(vas.len() - 1)], VA_W),
            )
            .unwrap();
            sim.poke("cpu_vreq_valid", Bits::bit(walk_start.is_none()))
                .unwrap();
            // Memory BFM: accept a request, respond after `mem_latency`.
            let (mres_valid, mres_data) = match pending_mem {
                Some((pte, due)) if sim.cycle() >= due => (true, pte),
                _ => (false, 0),
            };
            sim.poke("mem_mres_valid", Bits::bit(mres_valid)).unwrap();
            sim.poke("mem_mres_data", Bits::from_u64(mres_data, PTE_W))
                .unwrap();
            let accept_req = pending_mem.is_none();
            sim.poke("mem_mreq_ack", Bits::bit(accept_req)).unwrap();
            // The walk starts when the vreq handshake completes.
            if walk_start.is_none()
                && sim.peek("cpu_vreq_valid").unwrap().is_truthy()
                && sim.peek("cpu_vreq_ack").unwrap().is_truthy()
            {
                walk_start = Some(sim.cycle());
            }
            if accept_req && sim.peek("mem_mreq_valid").unwrap().is_truthy() {
                let req = sim.peek("mem_mreq_data").unwrap().to_u64();
                pending_mem = Some((pte_for(req), sim.cycle() + mem_latency));
            }
            if mres_valid && sim.peek("mem_mres_ack").unwrap().is_truthy() {
                pending_mem = None;
            }
            if sim.peek("cpu_vres_valid").unwrap().is_truthy() {
                let v = sim.peek("cpu_vres_data").unwrap().to_u64();
                let start = walk_start.take().expect("response implies a request");
                results.push((v, sim.cycle() - start));
                idx += 1;
            }
            sim.step().unwrap();
        }
        results
    }

    #[test]
    fn walks_match_reference_at_all_levels() {
        let m = anvil_flat();
        // Level-0 leaf, level-1 leaf, full 3-level walk.
        let vas = [
            3u64 << 18,                     // vpn0=3 -> 1-level walk
            (9u64 << 18) | (4 << 9),        // vpn0=9, vpn1=4 -> 2-level
            (9u64 << 18) | (5 << 9) | 0x42, // vpn1 odd -> 3-level
        ];
        let got = run_walks(&m, &vas, 1);
        assert_eq!(got.len(), 3);
        for (va, (pa, _)) in vas.iter().zip(&got) {
            assert_eq!(*pa, reference_walk(*va), "va {va:#x}");
        }
        // Deeper walks take longer (dynamic latency).
        assert!(got[1].1 > got[0].1);
        assert!(got[2].1 > got[1].1);
    }

    #[test]
    fn anvil_matches_baseline_values_across_latencies() {
        let vas = [
            2u64 << 18,
            (8u64 << 18) | (6 << 9),
            (10u64 << 18) | (3 << 9) | 0x7,
        ];
        for lat in [1u64, 3] {
            let a: Vec<u64> = run_walks(&anvil_flat(), &vas, lat)
                .iter()
                .map(|(v, _)| *v)
                .collect();
            let b: Vec<u64> = run_walks(&baseline(), &vas, lat)
                .iter()
                .map(|(v, _)| *v)
                .collect();
            assert_eq!(a, b, "latency {lat}");
            let expect: Vec<u64> = vas.iter().map(|v| reference_walk(*v)).collect();
            assert_eq!(a, expect);
        }
    }

    #[test]
    fn ptw_source_is_timing_safe() {
        let (_, reports) = anvil_core::Session::new()
            .check(&anvil_source(), &anvil_core::Control::none())
            .unwrap();
        let report = &reports[&anvil_intern::Symbol::intern("ptw_anvil")];
        assert!(report.is_safe(), "{:?}", report.errors());
    }
}

//! Translation lookaside buffer (paper Table 1, row 4).
//!
//! Modelled on the CVA6 MMU's TLB, reduced to the timing-relevant core: a
//! four-entry direct-mapped translation cache with a lookup stream and an
//! install stream running concurrently. A lookup responds with
//! `{hit, ppn}`; installs update an entry. The request's VPN must stay
//! stable until the response — exactly the dynamic contract
//! `(logic[8]@res)` that the paper's static-only type systems cannot
//! express.

use anvil_core::Session;
use anvil_rtl::{Expr, Module};

/// VPN width.
pub const VPN_W: usize = 8;
/// PPN width.
pub const PPN_W: usize = 8;
/// Number of entries (direct-mapped on the low VPN bits).
pub const ENTRIES: usize = 4;

/// The Anvil source for the TLB.
pub fn anvil_source() -> String {
    format!(
        "chan tlb_ch {{
            left lookup : (logic[{v}]@res),
            right res : (logic[{r}]@lookup)
         }}
         chan fill_ch {{ right install : (logic[{iw}]@#1) }}
         proc tlb_anvil(cpu : left tlb_ch, fill : right fill_ch) {{
            reg tags : logic[6][{n}];
            reg ppns : logic[{p}][{n}];
            reg vld : logic[{n}];
            reg hout : logic[{r}];
            loop {{
                let vpn = recv cpu.lookup >>
                set hout := concat(
                    ((*vld >>> (vpn)[1:0]) & 4'd1)[0:0] &
                        (*tags[(vpn)[1:0]] == (vpn)[7:2]),
                    *ppns[(vpn)[1:0]]) >>
                send cpu.res (*hout) >>
                cycle 1
            }}
            loop {{
                let e = recv fill.install >>
                set tags[(e)[9:8]] := (e)[15:10] ;
                set ppns[(e)[9:8]] := (e)[7:0] ;
                set vld := *vld | (4'd1 << (e)[9:8])
            }}
         }}",
        v = VPN_W,
        p = PPN_W,
        r = PPN_W + 1,
        n = ENTRIES,
        iw = 16,
    )
}

/// Compiles and flattens the Anvil TLB.
pub fn anvil_flat() -> Module {
    Session::new()
        .compile_flat(&anvil_source(), "tlb_anvil")
        .expect("TLB compiles")
}

/// The handwritten baseline with the same interface and timing.
pub fn baseline() -> Module {
    let mut m = Module::new("tlb_baseline");
    let lk_data = m.input("cpu_lookup_data", VPN_W);
    let lk_valid = m.input("cpu_lookup_valid", 1);
    let lk_ack = m.output("cpu_lookup_ack", 1);
    let res_data = m.output("cpu_res_data", PPN_W + 1);
    let res_valid = m.output("cpu_res_valid", 1);
    let res_ack = m.input("cpu_res_ack", 1);
    let in_data = m.input("fill_install_data", 16);
    let in_valid = m.input("fill_install_valid", 1);
    let in_ack = m.output("fill_install_ack", 1);

    let tags = m.array("tags", 6, ENTRIES);
    let ppns = m.array("ppns", PPN_W, ENTRIES);
    let vld = m.reg("vld", ENTRIES);

    // Lookup FSM: idle -> respond (mirrors the Anvil thread's two states).
    let busy = m.reg("busy", 1);
    let vpn_q = m.reg("vpn_q", VPN_W);
    let accept = m.wire_from(
        "accept",
        Expr::Signal(lk_valid).and(Expr::Signal(busy).logic_not()),
    );
    m.assign(lk_ack, Expr::Signal(busy).logic_not());
    m.update_when(vpn_q, Expr::Signal(accept), Expr::Signal(lk_data));

    let idx = m.wire_from("idx", Expr::Signal(vpn_q).slice(0, 2));
    let hit = m.wire_from(
        "hit",
        Expr::Signal(vld)
            .shr_dyn(Expr::Signal(idx))
            .slice(0, 1)
            .and(
                Expr::ArrayRead {
                    array: tags,
                    index: Box::new(Expr::Signal(idx)),
                }
                .eq(Expr::Signal(vpn_q).slice(2, 6)),
            ),
    );
    m.assign(res_valid, Expr::Signal(busy));
    m.assign(
        res_data,
        Expr::Concat(vec![
            Expr::Signal(hit),
            Expr::ArrayRead {
                array: ppns,
                index: Box::new(Expr::Signal(idx)),
            },
        ]),
    );
    let res_fire = m.wire_from("res_fire", Expr::Signal(busy).and(Expr::Signal(res_ack)));
    let busy_next = Expr::mux(
        Expr::Signal(accept),
        Expr::bit(true),
        Expr::mux(Expr::Signal(res_fire), Expr::bit(false), Expr::Signal(busy)),
    );
    m.set_next(busy, busy_next);

    // Install path (always ready).
    m.assign(in_ack, Expr::bit(true));
    let fire = m.wire_from("in_fire", Expr::Signal(in_valid));
    let widx = Expr::Signal(in_data).slice(8, 2);
    m.array_write(
        tags,
        Expr::Signal(fire),
        widx.clone(),
        Expr::Signal(in_data).slice(10, 6),
    );
    m.array_write(
        ppns,
        Expr::Signal(fire),
        widx.clone(),
        Expr::Signal(in_data).slice(0, PPN_W),
    );
    m.update_when(
        vld,
        Expr::Signal(fire),
        Expr::Signal(vld).or(Expr::bin(
            anvil_rtl::BinaryOp::Shl,
            Expr::lit(1, ENTRIES),
            widx,
        )),
    );
    m
}

/// Helper extension: dynamic shift-right on expressions.
trait ShrDyn {
    fn shr_dyn(self, amount: Expr) -> Expr;
}

impl ShrDyn for Expr {
    fn shr_dyn(self, amount: Expr) -> Expr {
        Expr::bin(anvil_rtl::BinaryOp::Shr, self, amount)
    }
}

/// Encodes an install payload `{tag[6], idx[2], ppn[8]}`.
pub fn install_word(vpn: u64, ppn: u64) -> u64 {
    let tag = (vpn >> 2) & 0x3f;
    let idx = vpn & 0x3;
    (tag << 10) | (idx << 8) | (ppn & 0xff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_rtl::Bits;
    use anvil_sim::{AckPolicy, Agent, MsgPorts, ReceiverBfm, SenderBfm, Sim};

    /// Installs a mapping, then looks up hits and misses on one module.
    fn exercise(m: &Module) -> Vec<(u64, u64)> {
        let mut sim = Sim::new(m).unwrap();
        let mut install = SenderBfm::new(MsgPorts::conventional(&sim, "fill", "install"));
        let mut lookup = SenderBfm::new(MsgPorts::conventional(&sim, "cpu", "lookup"));
        let mut res = ReceiverBfm::new(
            MsgPorts::conventional(&sim, "cpu", "res"),
            AckPolicy::AlwaysReady,
        );
        install.push(Bits::from_u64(install_word(0x4A, 0x77), 16), 0);
        install.push(Bits::from_u64(install_word(0x13, 0x21), 16), 0);
        // Wait for installs, then look up: hit, hit, miss (wrong tag),
        // miss (empty slot).
        for v in [0x4Au64, 0x13, 0x7A, 0x02] {
            lookup.push(Bits::from_u64(v, VPN_W), 4);
        }
        for _ in 0..60 {
            install.drive(&mut sim).unwrap();
            lookup.drive(&mut sim).unwrap();
            res.drive(&mut sim).unwrap();
            install.observe(&sim).unwrap();
            lookup.observe(&sim).unwrap();
            res.observe(&sim).unwrap();
            sim.step().unwrap();
        }
        res.values()
            .iter()
            .map(|b| (b.slice(PPN_W, 1).to_u64(), b.slice(0, PPN_W).to_u64()))
            .collect()
    }

    #[test]
    fn tlb_hits_and_misses() {
        let got = exercise(&anvil_flat());
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], (1, 0x77)); // hit
        assert_eq!(got[1], (1, 0x21)); // hit
        assert_eq!(got[2].0, 0); // tag mismatch -> miss
        assert_eq!(got[3].0, 0); // invalid entry -> miss
    }

    #[test]
    fn tlb_matches_baseline() {
        let a = exercise(&anvil_flat());
        let b = exercise(&baseline());
        assert_eq!(a, b);
    }
}

//! AXI-Lite demux and mux routers (paper Table 1, rows 7–8).
//!
//! The AXI protocol is channel-shaped by construction, which is why the
//! paper uses it to show off Anvil's channel abstraction. We model the
//! read path of AXI-Lite as a request/response pair:
//! request `{addr[16], wdata[16]}`, response `{rdata[16]}`.
//!
//! * **Demux**: one master port fans out to two slave ports by the
//!   address MSB; the response routes back. The request payload must stay
//!   valid until the *slave's* response — a dynamic contract chained
//!   across two channels.
//! * **Mux**: two master ports share one slave port with fair (alternating
//!   round-robin) arbitration, implemented with `ready(...)` peeks — the
//!   "fair arbitration" configuration of the paper.

use anvil_core::Session;
use anvil_rtl::{Expr, Module};

/// Request width (`{addr[16], wdata[16]}`).
pub const REQ_W: usize = 32;
/// Response width.
pub const RES_W: usize = 16;

/// The Anvil source for the demux router (1 master, 2 slaves).
pub fn demux_source() -> String {
    format!(
        "chan axi_ch {{
            left req : (logic[{rq}]@res),
            right res : (logic[{rs}]@#1)
         }}
         proc axi_demux_anvil(m : left axi_ch, s0 : right axi_ch, s1 : right axi_ch) {{
            reg hold : logic[{rs}];
            loop {{
                let rq = recv m.req >>
                if (rq)[31:31] == 0 {{
                    send s0.req (rq) >>
                    let r0 = recv s0.res >>
                    set hold := r0
                }} else {{
                    send s1.req (rq) >>
                    let r1 = recv s1.res >>
                    set hold := r1
                }} >>
                send m.res (*hold) >>
                cycle 1
            }}
         }}",
        rq = REQ_W,
        rs = RES_W,
    )
}

/// The Anvil source for the mux router (2 masters, 1 slave, fair).
pub fn mux_source() -> String {
    format!(
        "chan axi_ch {{
            left req : (logic[{rq}]@res),
            right res : (logic[{rs}]@#1)
         }}
         proc axi_mux_anvil(m0 : left axi_ch, m1 : left axi_ch, s : right axi_ch) {{
            reg hold : logic[{rs}];
            reg turn : logic;
            loop {{
                if ready(m0.req) & ((!ready(m1.req)) | (*turn == 0)) {{
                    let rq = recv m0.req >>
                    send s.req (rq) >>
                    let rs0 = recv s.res >>
                    set hold := rs0 ;
                    set turn := 1 >>
                    send m0.res (*hold) >>
                    cycle 1
                }} else {{
                    if ready(m1.req) {{
                        let rq = recv m1.req >>
                        send s.req (rq) >>
                        let rs1 = recv s.res >>
                        set hold := rs1 ;
                        set turn := 0 >>
                        send m1.res (*hold) >>
                        cycle 1
                    }} else {{ cycle 1 }}
                }}
            }}
         }}",
        rq = REQ_W,
        rs = RES_W,
    )
}

/// Compiles and flattens the Anvil demux.
pub fn demux_anvil_flat() -> Module {
    Session::new()
        .compile_flat(&demux_source(), "axi_demux_anvil")
        .expect("AXI demux compiles")
}

/// Compiles and flattens the Anvil mux.
pub fn mux_anvil_flat() -> Module {
    Session::new()
        .compile_flat(&mux_source(), "axi_mux_anvil")
        .expect("AXI mux compiles")
}

/// The handwritten demux baseline: an FSM tracking which slave owns the
/// in-flight transaction.
pub fn demux_baseline() -> Module {
    let mut m = Module::new("axi_demux_baseline");
    let mreq_d = m.input("m_req_data", REQ_W);
    let mreq_v = m.input("m_req_valid", 1);
    let mreq_a = m.output("m_req_ack", 1);
    let mres_d = m.output("m_res_data", RES_W);
    let mres_v = m.output("m_res_valid", 1);
    let mres_a = m.input("m_res_ack", 1);
    let mut s_ports = Vec::new();
    for i in 0..2 {
        let rq_d = m.output(format!("s{i}_req_data"), REQ_W);
        let rq_v = m.output(format!("s{i}_req_valid"), 1);
        let rq_a = m.input(format!("s{i}_req_ack"), 1);
        let rs_d = m.input(format!("s{i}_res_data"), RES_W);
        let rs_v = m.input(format!("s{i}_res_valid"), 1);
        let rs_a = m.output(format!("s{i}_res_ack"), 1);
        s_ports.push((rq_d, rq_v, rq_a, rs_d, rs_v, rs_a));
    }

    // States: 0 idle, 1 fwd-req, 2 wait-res, 3 respond.
    let st = m.reg("st", 2);
    let sel = m.reg("sel", 1);
    let rq_q = m.reg("rq_q", REQ_W);
    let hold = m.reg("hold", RES_W);

    let idle = m.wire_from("idle", Expr::Signal(st).eq(Expr::lit(0, 2)));
    let fwd = m.wire_from("fwd", Expr::Signal(st).eq(Expr::lit(1, 2)));
    let wait = m.wire_from("wait_s", Expr::Signal(st).eq(Expr::lit(2, 2)));
    let resp = m.wire_from("resp", Expr::Signal(st).eq(Expr::lit(3, 2)));

    m.assign(mreq_a, Expr::Signal(idle));
    let take = m.wire_from("take", Expr::Signal(idle).and(Expr::Signal(mreq_v)));
    m.update_when(rq_q, Expr::Signal(take), Expr::Signal(mreq_d));
    m.update_when(
        sel,
        Expr::Signal(take),
        Expr::Signal(mreq_d).slice(REQ_W - 1, 1),
    );

    let sel_e = Expr::Signal(sel);
    let mut fwd_done = Expr::bit(false);
    let mut res_here = Expr::bit(false);
    let mut res_data_mux = Expr::lit(0, RES_W);
    for (i, (rq_d, rq_v, rq_a, rs_d, rs_v, rs_a)) in s_ports.iter().enumerate() {
        let this = if i == 0 {
            sel_e.clone().logic_not()
        } else {
            sel_e.clone()
        };
        m.assign(*rq_d, Expr::Signal(rq_q));
        m.assign(*rq_v, Expr::Signal(fwd).and(this.clone()));
        fwd_done = fwd_done.or(Expr::Signal(fwd).and(this.clone()).and(Expr::Signal(*rq_a)));
        m.assign(*rs_a, Expr::Signal(wait).and(this.clone()));
        res_here = res_here.or(Expr::Signal(wait)
            .and(this.clone())
            .and(Expr::Signal(*rs_v)));
        res_data_mux = Expr::mux(this, Expr::Signal(*rs_d), res_data_mux);
    }
    let fwd_done = m.wire_from("fwd_done", fwd_done);
    let res_here = m.wire_from("res_here", res_here);
    m.update_when(hold, Expr::Signal(res_here), res_data_mux);

    m.assign(mres_v, Expr::Signal(resp));
    m.assign(mres_d, Expr::Signal(hold));
    let responded = m.wire_from("responded", Expr::Signal(resp).and(Expr::Signal(mres_a)));

    let next = Expr::mux(
        Expr::Signal(take),
        Expr::lit(1, 2),
        Expr::mux(
            Expr::Signal(fwd_done),
            Expr::lit(2, 2),
            Expr::mux(
                Expr::Signal(res_here),
                Expr::lit(3, 2),
                Expr::mux(Expr::Signal(responded), Expr::lit(0, 2), Expr::Signal(st)),
            ),
        ),
    );
    m.set_next(st, next);
    m
}

/// The handwritten mux baseline: alternating-priority arbiter FSM.
pub fn mux_baseline() -> Module {
    let mut m = Module::new("axi_mux_baseline");
    let mut m_ports = Vec::new();
    for i in 0..2 {
        let rq_d = m.input(format!("m{i}_req_data"), REQ_W);
        let rq_v = m.input(format!("m{i}_req_valid"), 1);
        let rq_a = m.output(format!("m{i}_req_ack"), 1);
        let rs_d = m.output(format!("m{i}_res_data"), RES_W);
        let rs_v = m.output(format!("m{i}_res_valid"), 1);
        let rs_a = m.input(format!("m{i}_res_ack"), 1);
        m_ports.push((rq_d, rq_v, rq_a, rs_d, rs_v, rs_a));
    }
    let sreq_d = m.output("s_req_data", REQ_W);
    let sreq_v = m.output("s_req_valid", 1);
    let sreq_a = m.input("s_req_ack", 1);
    let sres_d = m.input("s_res_data", RES_W);
    let sres_v = m.input("s_res_valid", 1);
    let sres_a = m.output("s_res_ack", 1);

    // States: 0 arbitrate, 1 fwd-req, 2 wait-res, 3 respond.
    let st = m.reg("st", 2);
    let grant = m.reg("grant", 1);
    let turn = m.reg("turn", 1);
    let rq_q = m.reg("rq_q", REQ_W);
    let hold = m.reg("hold", RES_W);

    let idle = m.wire_from("idle", Expr::Signal(st).eq(Expr::lit(0, 2)));
    let fwd = m.wire_from("fwd", Expr::Signal(st).eq(Expr::lit(1, 2)));
    let wait = m.wire_from("wait_s", Expr::Signal(st).eq(Expr::lit(2, 2)));
    let resp = m.wire_from("resp", Expr::Signal(st).eq(Expr::lit(3, 2)));

    let (m0, m1) = (&m_ports[0], &m_ports[1]);
    let pick0 = m.wire_from(
        "pick0",
        Expr::Signal(m0.1).and(
            Expr::Signal(m1.1)
                .logic_not()
                .or(Expr::Signal(turn).eq(Expr::lit(0, 1))),
        ),
    );
    let pick1 = m.wire_from(
        "pick1",
        Expr::Signal(m1.1).and(Expr::Signal(pick0).logic_not()),
    );
    m.assign(m0.2, Expr::Signal(idle).and(Expr::Signal(pick0)));
    m.assign(m1.2, Expr::Signal(idle).and(Expr::Signal(pick1)));
    let take = m.wire_from(
        "take",
        Expr::Signal(idle).and(Expr::Signal(pick0).or(Expr::Signal(pick1))),
    );
    m.update_when(grant, Expr::Signal(take), Expr::Signal(pick1));
    m.update_when(turn, Expr::Signal(take), Expr::Signal(pick0));
    m.update_when(
        rq_q,
        Expr::Signal(take),
        Expr::mux(Expr::Signal(pick0), Expr::Signal(m0.0), Expr::Signal(m1.0)),
    );

    m.assign(sreq_v, Expr::Signal(fwd));
    m.assign(sreq_d, Expr::Signal(rq_q));
    let fwd_done = m.wire_from("fwd_done", Expr::Signal(fwd).and(Expr::Signal(sreq_a)));
    m.assign(sres_a, Expr::Signal(wait));
    let res_here = m.wire_from("res_here", Expr::Signal(wait).and(Expr::Signal(sres_v)));
    m.update_when(hold, Expr::Signal(res_here), Expr::Signal(sres_d));

    let g = Expr::Signal(grant);
    m.assign(m0.4, Expr::Signal(resp).and(g.clone().logic_not()));
    m.assign(m0.3, Expr::Signal(hold));
    m.assign(m1.4, Expr::Signal(resp).and(g));
    m.assign(m1.3, Expr::Signal(hold));
    let responded = m.wire_from(
        "responded",
        Expr::Signal(resp).and(Expr::mux(
            Expr::Signal(grant),
            Expr::Signal(m1.5),
            Expr::Signal(m0.5),
        )),
    );

    let next = Expr::mux(
        Expr::Signal(take),
        Expr::lit(1, 2),
        Expr::mux(
            Expr::Signal(fwd_done),
            Expr::lit(2, 2),
            Expr::mux(
                Expr::Signal(res_here),
                Expr::lit(3, 2),
                Expr::mux(Expr::Signal(responded), Expr::lit(0, 2), Expr::Signal(st)),
            ),
        ),
    );
    m.set_next(st, next);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_rtl::Bits;
    use anvil_sim::{Agent, MsgPorts, SenderBfm, Sim};

    /// A behavioural slave: responds `addr ^ wdata` after `latency`.
    struct SlaveBfm {
        prefix: String,
        latency: u64,
        pending: Option<(u64, u64)>,
    }

    impl SlaveBfm {
        fn new(prefix: &str, latency: u64) -> Self {
            SlaveBfm {
                prefix: prefix.into(),
                latency,
                pending: None,
            }
        }

        fn tick(&mut self, sim: &mut Sim) {
            let (v, d) = match self.pending {
                Some((resp, due)) if sim.cycle() >= due => (true, resp),
                _ => (false, 0),
            };
            sim.poke(&format!("{}_res_valid", self.prefix), Bits::bit(v))
                .unwrap();
            sim.poke(
                &format!("{}_res_data", self.prefix),
                Bits::from_u64(d, RES_W),
            )
            .unwrap();
            sim.poke(
                &format!("{}_req_ack", self.prefix),
                Bits::bit(self.pending.is_none()),
            )
            .unwrap();
            if self.pending.is_none()
                && sim
                    .peek(&format!("{}_req_valid", self.prefix))
                    .unwrap()
                    .is_truthy()
            {
                let rq = sim
                    .peek(&format!("{}_req_data", self.prefix))
                    .unwrap()
                    .to_u64();
                let resp = ((rq >> 16) ^ rq) & 0xffff;
                self.pending = Some((resp, sim.cycle() + self.latency));
            }
            if v && sim
                .peek(&format!("{}_res_ack", self.prefix))
                .unwrap()
                .is_truthy()
            {
                self.pending = None;
            }
        }
    }

    fn expect_res(addr: u64, wdata: u64) -> u64 {
        (addr ^ wdata) & 0xffff
    }

    fn run_demux(m: &Module, reqs: &[(u64, u64)]) -> Vec<u64> {
        let mut sim = Sim::new(m).unwrap();
        let mut master = SenderBfm::new(MsgPorts::conventional(&sim, "m", "req"));
        for (a, d) in reqs {
            master.push(Bits::from_u64((a << 16) | d, REQ_W), 0);
        }
        let mut s0 = SlaveBfm::new("s0", 1);
        let mut s1 = SlaveBfm::new("s1", 3);
        let mut out = Vec::new();
        sim.poke("m_res_ack", Bits::bit(true)).unwrap();
        for _ in 0..200 {
            master.drive(&mut sim).unwrap();
            s0.tick(&mut sim);
            s1.tick(&mut sim);
            master.observe(&sim).unwrap();
            if sim.peek("m_res_valid").unwrap().is_truthy() {
                out.push(sim.peek("m_res_data").unwrap().to_u64());
            }
            sim.step().unwrap();
        }
        out
    }

    #[test]
    fn demux_routes_by_address_msb() {
        let reqs = [(0x0001u64, 0x00FF), (0x8002, 0x0F0F), (0x0003, 0x1111)];
        for m in [demux_anvil_flat(), demux_baseline()] {
            let got = run_demux(&m, &reqs);
            let expect: Vec<u64> = reqs.iter().map(|(a, d)| expect_res(*a, *d)).collect();
            assert_eq!(got, expect, "module {}", m.name);
        }
    }

    fn run_mux(m: &Module, reqs0: &[(u64, u64)], reqs1: &[(u64, u64)]) -> (Vec<u64>, Vec<u64>) {
        let mut sim = Sim::new(m).unwrap();
        let mut m0 = SenderBfm::new(MsgPorts::conventional(&sim, "m0", "req"));
        let mut m1 = SenderBfm::new(MsgPorts::conventional(&sim, "m1", "req"));
        for (a, d) in reqs0 {
            m0.push(Bits::from_u64((a << 16) | d, REQ_W), 0);
        }
        for (a, d) in reqs1 {
            m1.push(Bits::from_u64((a << 16) | d, REQ_W), 0);
        }
        let mut slave = SlaveBfm::new("s", 2);
        let (mut out0, mut out1) = (Vec::new(), Vec::new());
        sim.poke("m0_res_ack", Bits::bit(true)).unwrap();
        sim.poke("m1_res_ack", Bits::bit(true)).unwrap();
        for _ in 0..300 {
            m0.drive(&mut sim).unwrap();
            m1.drive(&mut sim).unwrap();
            slave.tick(&mut sim);
            m0.observe(&sim).unwrap();
            m1.observe(&sim).unwrap();
            if sim.peek("m0_res_valid").unwrap().is_truthy() {
                out0.push(sim.peek("m0_res_data").unwrap().to_u64());
            }
            if sim.peek("m1_res_valid").unwrap().is_truthy() {
                out1.push(sim.peek("m1_res_data").unwrap().to_u64());
            }
            sim.step().unwrap();
        }
        (out0, out1)
    }

    #[test]
    fn mux_arbitrates_fairly_and_routes_responses_back() {
        let reqs0 = [(0x1u64, 0x10), (0x2, 0x20), (0x3, 0x30)];
        let reqs1 = [(0x4u64, 0x40), (0x5, 0x50), (0x6, 0x60)];
        for m in [mux_anvil_flat(), mux_baseline()] {
            let (o0, o1) = run_mux(&m, &reqs0, &reqs1);
            let e0: Vec<u64> = reqs0.iter().map(|(a, d)| expect_res(*a, *d)).collect();
            let e1: Vec<u64> = reqs1.iter().map(|(a, d)| expect_res(*a, *d)).collect();
            assert_eq!(o0, e0, "master 0 through {}", m.name);
            assert_eq!(o1, e1, "master 1 through {}", m.name);
        }
    }

    #[test]
    fn sources_are_timing_safe() {
        for (src, top) in [
            (demux_source(), "axi_demux_anvil"),
            (mux_source(), "axi_mux_anvil"),
        ] {
            let (_, reports) = anvil_core::Session::new()
                .check(&src, &anvil_core::Control::none())
                .unwrap();
            let report = &reports[&anvil_intern::Symbol::intern(top)];
            assert!(report.is_safe(), "{top}: {:?}", report.errors());
        }
    }
}

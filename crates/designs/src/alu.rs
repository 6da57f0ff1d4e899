//! Pipelined ALU (paper Table 1, row 9 — Filament baseline).
//!
//! A two-stage, fully pipelined ALU with initiation interval 1 and a
//! *static* timing contract: operands arrive every cycle (`@#1` sync) and
//! the result appears exactly two cycles after the request
//! (`@#req+2` dependent sync). With every sync mode static or dependent,
//! the compiler omits all handshake wires (§6.2) — the interface is pure
//! data, exactly like a Filament pipeline.
//!
//! The Anvil version uses a `recursive` thread (§4.3): it starts handling
//! the next request one cycle in while the previous result is still in
//! flight.

use anvil_core::Session;
use anvil_rtl::{Expr, Module};

/// Operand width.
pub const W: usize = 16;
/// Request width: `{op[2], a[W], b[W]}`.
pub const REQ_W: usize = 2 + 2 * W;

/// The Anvil source for the pipelined ALU.
pub fn anvil_source() -> String {
    format!(
        "chan alu_ch {{
            left req : (logic[{rw}]@#2) @#1-@#1,
            right res : (logic[{w}]@#1) @#req+2-@#req+2
         }}
         proc alu_anvil(ep : left alu_ch) {{
            reg s1 : logic[{w}];
            reg s2 : logic[{w}];
            recursive {{
                let rq = recv ep.req >>
                {{
                    set s1 := if (rq)[33:32] == 0 {{ (rq)[31:16] + (rq)[15:0] }}
                              else {{ if (rq)[33:32] == 1 {{ (rq)[31:16] - (rq)[15:0] }}
                              else {{ if (rq)[33:32] == 2 {{ (rq)[31:16] & (rq)[15:0] }}
                              else {{ (rq)[31:16] ^ (rq)[15:0] }} }} }} >>
                    set s2 := *s1 >>
                    send ep.res (*s2)
                }} ;
                {{ cycle 1 >> recurse }}
            }}
         }}",
        rw = REQ_W,
        w = W,
    )
}

/// Compiles and flattens the Anvil pipelined ALU.
pub fn anvil_flat() -> Module {
    Session::new()
        .compile_flat(&anvil_source(), "alu_anvil")
        .expect("ALU compiles")
}

/// Reference function.
pub fn alu_ref(op: u64, a: u64, b: u64) -> u64 {
    let mask = (1u64 << W) - 1;
    (match op & 3 {
        0 => a.wrapping_add(b),
        1 => a.wrapping_sub(b),
        2 => a & b,
        _ => a ^ b,
    }) & mask
}

/// The handwritten baseline: a classic two-stage pipeline with no
/// handshakes (data-only, one result per cycle, latency 2).
pub fn baseline() -> Module {
    let mut m = Module::new("alu_baseline");
    let req = m.input("ep_req_data", REQ_W);
    let res = m.output("ep_res_data", W);

    let s1 = m.reg("s1", W);
    let s2 = m.reg("s2", W);
    let op = Expr::Signal(req).slice(2 * W, 2);
    let a = Expr::Signal(req).slice(W, W);
    let b = Expr::Signal(req).slice(0, W);
    let result = Expr::mux(
        op.clone().eq(Expr::lit(0, 2)),
        a.clone().add(b.clone()),
        Expr::mux(
            op.clone().eq(Expr::lit(1, 2)),
            a.clone().sub(b.clone()),
            Expr::mux(op.eq(Expr::lit(2, 2)), a.clone().and(b.clone()), a.xor(b)),
        ),
    );
    m.set_next(s1, result);
    m.set_next(s2, Expr::Signal(s1));
    m.assign(res, Expr::Signal(s2));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_rtl::Bits;
    use anvil_sim::Sim;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn encode(op: u64, a: u64, b: u64) -> u64 {
        (op << (2 * W)) | (a << W) | b
    }

    /// Feeds one request per cycle and records the output stream.
    fn run(m: &Module, reqs: &[u64]) -> Vec<u64> {
        let mut sim = Sim::new(m).unwrap();
        let mut out = Vec::new();
        for i in 0..reqs.len() + 4 {
            let r = reqs.get(i).copied().unwrap_or(0);
            sim.poke("ep_req_data", Bits::from_u64(r, REQ_W)).unwrap();
            out.push(sim.peek("ep_res_data").unwrap().to_u64());
            sim.step().unwrap();
        }
        out
    }

    #[test]
    fn handshake_free_interface() {
        let m = anvil_flat();
        assert!(m.find("ep_req_valid").is_none());
        assert!(m.find("ep_req_ack").is_none());
        assert!(m.find("ep_res_valid").is_none());
        assert!(m.find("ep_res_ack").is_none());
    }

    #[test]
    fn pipelined_alu_matches_baseline_and_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        let ops: Vec<(u64, u64, u64)> = (0..12)
            .map(|_| {
                (
                    rng.gen_range(0..4),
                    rng.gen::<u64>() & 0xffff,
                    rng.gen::<u64>() & 0xffff,
                )
            })
            .collect();
        let reqs: Vec<u64> = ops.iter().map(|(o, a, b)| encode(*o, *a, *b)).collect();
        let a_out = run(&anvil_flat(), &reqs);
        let b_out = run(&baseline(), &reqs);
        // Request i is answered exactly 2 cycles later in both versions —
        // the zero-latency-overhead claim for static pipelines (§7.1).
        for (i, (o, x, y)) in ops.iter().enumerate() {
            let expect = alu_ref(*o, *x, *y);
            assert_eq!(a_out[i + 2], expect, "anvil op {i}");
            assert_eq!(b_out[i + 2], expect, "baseline op {i}");
        }
    }
}

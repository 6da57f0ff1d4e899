//! Systolic array (paper Table 1, row 10 — Filament baseline).
//!
//! A 2×2 weight-stationary matrix-vector engine with a fully static
//! pipeline: the input vector `{x1, x0}` streams in every cycle, and
//! `y = W·x` emerges exactly three cycles later (multiply stage, reduce
//! stage, output register). Weights are preloaded through a side channel.
//! As with the pipelined ALU, every sync mode is static or dependent, so
//! the compiled interface is pure data — the Filament comparison point.

use anvil_core::Session;
use anvil_rtl::{Expr, Module};

/// Element width.
pub const W: usize = 8;
/// Accumulator width.
pub const ACC_W: usize = 18;
/// Input vector width (`{x1, x0}`).
pub const VEC_W: usize = 2 * W;
/// Output vector width (`{y1, y0}`).
pub const OUT_W: usize = 2 * ACC_W;

/// The Anvil source for the systolic array.
pub fn anvil_source() -> String {
    format!(
        "chan sa_ch {{
            left vec : (logic[{vw}]@#2) @#1-@#1,
            right out : (logic[{ow}]@#1) @#vec+2-@#vec+2
         }}
         chan w_ch {{ right wload : (logic[{ww}]@#1) }}
         proc systolic_anvil(ep : left sa_ch, cfg : right w_ch) {{
            reg w00 : logic[{w}]; reg w01 : logic[{w}];
            reg w10 : logic[{w}]; reg w11 : logic[{w}];
            reg p00 : logic[{aw}]; reg p01 : logic[{aw}];
            reg p10 : logic[{aw}]; reg p11 : logic[{aw}];
            reg y0 : logic[{aw}]; reg y1 : logic[{aw}];
            recursive {{
                let x = recv ep.vec >>
                {{
                    set p00 := concat({z}'d0, (x)[7:0]) * concat({z}'d0, *w00) ;
                    set p01 := concat({z}'d0, (x)[15:8]) * concat({z}'d0, *w01) ;
                    set p10 := concat({z}'d0, (x)[7:0]) * concat({z}'d0, *w10) ;
                    set p11 := concat({z}'d0, (x)[15:8]) * concat({z}'d0, *w11) >>
                    set y0 := *p00 + *p01 ;
                    set y1 := *p10 + *p11 >>
                    send ep.out (concat(*y1, *y0))
                }} ;
                {{ cycle 1 >> recurse }}
            }}
            loop {{
                let wv = recv cfg.wload >>
                set w00 := (wv)[7:0] ;
                set w01 := (wv)[15:8] ;
                set w10 := (wv)[23:16] ;
                set w11 := (wv)[31:24]
            }}
         }}",
        vw = VEC_W,
        ow = OUT_W,
        ww = 4 * W,
        w = W,
        aw = ACC_W,
        z = ACC_W - W,
    )
}

/// Compiles and flattens the Anvil systolic array.
pub fn anvil_flat() -> Module {
    Session::new()
        .compile_flat(&anvil_source(), "systolic_anvil")
        .expect("systolic array compiles")
}

/// Reference: `y = W · x` with the row-major weight packing of `wload`.
pub fn reference(w: [u64; 4], x0: u64, x1: u64) -> (u64, u64) {
    let mask = (1u64 << ACC_W) - 1;
    let y0 = (w[0] * x0 + w[1] * x1) & mask;
    let y1 = (w[2] * x0 + w[3] * x1) & mask;
    (y0, y1)
}

/// The handwritten baseline: the same three-stage static pipeline.
pub fn baseline() -> Module {
    let mut m = Module::new("systolic_baseline");
    let vec = m.input("ep_vec_data", VEC_W);
    let out = m.output("ep_out_data", OUT_W);
    let wl_data = m.input("cfg_wload_data", 4 * W);
    let wl_valid = m.input("cfg_wload_valid", 1);
    let wl_ack = m.output("cfg_wload_ack", 1);

    let weights: Vec<_> = (0..4).map(|i| m.reg(format!("w{i}"), W)).collect();
    m.assign(wl_ack, Expr::bit(true));
    for (i, w) in weights.iter().enumerate() {
        m.update_when(
            *w,
            Expr::Signal(wl_valid),
            Expr::Signal(wl_data).slice(i * W, W),
        );
    }

    let x0 = Expr::Signal(vec).slice(0, W).resize(ACC_W);
    let x1 = Expr::Signal(vec).slice(W, W).resize(ACC_W);
    let ps: Vec<_> = (0..4).map(|i| m.reg(format!("p{i}"), ACC_W)).collect();
    m.set_next(
        ps[0],
        x0.clone().mul(Expr::Signal(weights[0]).resize(ACC_W)),
    );
    m.set_next(
        ps[1],
        x1.clone().mul(Expr::Signal(weights[1]).resize(ACC_W)),
    );
    m.set_next(ps[2], x0.mul(Expr::Signal(weights[2]).resize(ACC_W)));
    m.set_next(ps[3], x1.mul(Expr::Signal(weights[3]).resize(ACC_W)));
    let y0 = m.reg("y0", ACC_W);
    let y1 = m.reg("y1", ACC_W);
    m.set_next(y0, Expr::Signal(ps[0]).add(Expr::Signal(ps[1])));
    m.set_next(y1, Expr::Signal(ps[2]).add(Expr::Signal(ps[3])));
    m.assign(out, Expr::Concat(vec![Expr::Signal(y1), Expr::Signal(y0)]));
    m
}

/// Helper extension for multiply on expressions.
trait MulExt {
    fn mul(self, rhs: Expr) -> Expr;
}

impl MulExt for Expr {
    fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(anvil_rtl::BinaryOp::Mul, self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_rtl::Bits;
    use anvil_sim::Sim;

    const WEIGHTS: [u64; 4] = [2, 3, 5, 7];

    fn load_weights(sim: &mut Sim) {
        let packed = WEIGHTS[0] | (WEIGHTS[1] << 8) | (WEIGHTS[2] << 16) | (WEIGHTS[3] << 24);
        sim.poke("cfg_wload_data", Bits::from_u64(packed, 4 * W))
            .unwrap();
        sim.poke("cfg_wload_valid", Bits::bit(true)).unwrap();
        sim.step().unwrap();
        sim.poke("cfg_wload_valid", Bits::bit(false)).unwrap();
        // Let the weight registers settle.
        sim.step().unwrap();
    }

    fn run(m: &Module, vecs: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut sim = Sim::new(m).unwrap();
        load_weights(&mut sim);
        let mut outs = Vec::new();
        for i in 0..vecs.len() + 5 {
            let (x0, x1) = vecs.get(i).copied().unwrap_or((0, 0));
            sim.poke("ep_vec_data", Bits::from_u64((x1 << W) | x0, VEC_W))
                .unwrap();
            let o = sim.peek("ep_out_data").unwrap();
            outs.push((o.slice(0, ACC_W).to_u64(), o.slice(ACC_W, ACC_W).to_u64()));
            sim.step().unwrap();
        }
        outs
    }

    #[test]
    fn fully_pipelined_and_matches_reference() {
        let vecs: Vec<(u64, u64)> = vec![(1, 2), (3, 4), (10, 20), (255, 255), (7, 0)];
        let a = run(&anvil_flat(), &vecs);
        let b = run(&baseline(), &vecs);
        for (i, (x0, x1)) in vecs.iter().enumerate() {
            let expect = reference(WEIGHTS, *x0, *x1);
            // Fixed 2-cycle latency, one result per cycle, both versions.
            assert_eq!(a[i + 2], expect, "anvil vec {i}");
            assert_eq!(b[i + 2], expect, "baseline vec {i}");
        }
    }

    #[test]
    fn static_interface_has_no_handshake_on_datapath() {
        let m = anvil_flat();
        assert!(m.find("ep_vec_valid").is_none());
        assert!(m.find("ep_out_ack").is_none());
        // The weight-load side stays dynamic.
        assert!(m.find("cfg_wload_valid").is_some());
    }
}

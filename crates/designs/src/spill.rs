//! Spill register (paper Table 1, row 2).
//!
//! Modelled on `spill_register` from the PULP Common Cells IP: a two-deep
//! elastic buffer that registers both the payload and the handshake,
//! cutting all combinational paths between producer and consumer while
//! sustaining full throughput. Structurally it is a depth-2 FIFO with two
//! storage registers (the "primary" and the "spill" slot).

use anvil_core::Session;
use anvil_rtl::{Expr, Module};

/// Payload width (matches the 32-bit configuration reported in Table 1).
pub const WIDTH: usize = 32;

/// The Anvil source for the spill register.
pub fn anvil_source() -> String {
    format!(
        "chan push_ch {{ right enq : (logic[{w}]@#1) }}
         chan pop_ch {{ right deq : (logic[{w}]@#1) }}
         proc spill_anvil(in_ep : right push_ch, out_ep : left pop_ch) {{
            reg slot : logic[{w}][2];
            reg wr : logic[2];
            reg rd : logic[2];
            loop {{
                if (*wr - *rd) != 2 {{
                    let x = recv in_ep.enq >>
                    set slot[(*wr)[0:0]] := x ;
                    set wr := *wr + 1
                }} else {{ cycle 1 }}
            }}
            loop {{
                if *wr != *rd {{
                    send out_ep.deq (*slot[(*rd)[0:0]]) >>
                    set rd := *rd + 1
                }} else {{ cycle 1 }}
            }}
         }}",
        w = WIDTH
    )
}

/// Compiles and flattens the Anvil spill register.
pub fn anvil_flat() -> Module {
    Session::new()
        .compile_flat(&anvil_source(), "spill_anvil")
        .expect("spill register compiles")
}

/// The handwritten baseline: explicit A/B slot registers as in the
/// Common Cells implementation.
pub fn baseline() -> Module {
    let mut m = Module::new("spill_baseline");
    let enq_data = m.input("in_ep_enq_data", WIDTH);
    let enq_valid = m.input("in_ep_enq_valid", 1);
    let enq_ack = m.output("in_ep_enq_ack", 1);
    let deq_data = m.output("out_ep_deq_data", WIDTH);
    let deq_valid = m.output("out_ep_deq_valid", 1);
    let deq_ack = m.input("out_ep_deq_ack", 1);

    let a_q = m.reg("a_q", WIDTH);
    let a_full = m.reg("a_full", 1);
    let b_q = m.reg("b_q", WIDTH);
    let b_full = m.reg("b_full", 1);

    // Accept while the spill slot is free.
    let ready = m.wire_from("ready", Expr::Signal(b_full).logic_not());
    m.assign(enq_ack, Expr::Signal(ready));
    let fire_in = m.wire_from("fire_in", Expr::Signal(enq_valid).and(Expr::Signal(ready)));
    let fire_out = m.wire_from("fire_out", Expr::Signal(a_full).and(Expr::Signal(deq_ack)));

    // New data lands in A when A is empty or being drained; otherwise it
    // spills into B. B refills A when A drains.
    let a_loads_new = m.wire_from(
        "a_loads_new",
        Expr::Signal(fire_in).and(
            Expr::Signal(a_full)
                .logic_not()
                .or(Expr::Signal(fire_out).and(Expr::Signal(b_full).logic_not())),
        ),
    );
    let a_loads_b = m.wire_from(
        "a_loads_b",
        Expr::Signal(fire_out).and(Expr::Signal(b_full)),
    );
    let b_loads_new = m.wire_from(
        "b_loads_new",
        Expr::Signal(fire_in).and(Expr::Signal(a_loads_new).logic_not()),
    );

    m.update_when(a_q, Expr::Signal(a_loads_b), Expr::Signal(b_q));
    m.update_when(a_q, Expr::Signal(a_loads_new), Expr::Signal(enq_data));
    m.update_when(b_q, Expr::Signal(b_loads_new), Expr::Signal(enq_data));

    // Occupancy updates.
    let a_next = Expr::Signal(a_loads_new)
        .or(Expr::Signal(a_loads_b))
        .or(Expr::Signal(a_full).and(Expr::Signal(fire_out).logic_not()));
    m.set_next(a_full, a_next);
    let b_next =
        Expr::Signal(b_loads_new).or(Expr::Signal(b_full).and(Expr::Signal(a_loads_b).logic_not()));
    m.set_next(b_full, b_next);

    m.assign(deq_valid, Expr::Signal(a_full));
    m.assign(deq_data, Expr::Signal(a_q));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tb::assert_equivalent;
    use anvil_rtl::Bits;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn workload(seed: u64, n: usize) -> Vec<(Bits, u64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (Bits::from_u64(rng.gen(), WIDTH), rng.gen_range(0..2)))
            .collect()
    }

    #[test]
    fn spill_matches_baseline() {
        let a = anvil_flat();
        let b = baseline();
        let reqs = workload(11, 16);
        let (ta, _) =
            assert_equivalent(&a, &b, ("in_ep", "enq"), ("out_ep", "deq"), &reqs, &[], 200);
        assert_eq!(ta.len(), reqs.len());
    }

    #[test]
    fn spill_matches_baseline_with_stalls() {
        let a = anvil_flat();
        let b = baseline();
        let reqs = workload(12, 12);
        assert_equivalent(
            &a,
            &b,
            ("in_ep", "enq"),
            ("out_ep", "deq"),
            &reqs,
            &[3],
            300,
        );
    }

    #[test]
    fn spill_decouples_streams() {
        // With the consumer stalled, the producer can still hand over two
        // items before blocking (the defining property of a spill reg).
        let a = anvil_flat();
        let mut sim = anvil_sim::Sim::new(&a).unwrap();
        let mut accepted = 0;
        sim.poke("out_ep_deq_ack", Bits::bit(false)).unwrap();
        sim.poke("in_ep_enq_valid", Bits::bit(true)).unwrap();
        sim.poke("in_ep_enq_data", Bits::from_u64(5, WIDTH))
            .unwrap();
        for _ in 0..10 {
            if sim.peek("in_ep_enq_ack").unwrap().is_truthy() {
                accepted += 1;
            }
            sim.step().unwrap();
        }
        assert_eq!(accepted, 2);
    }
}

//! Passthrough stream FIFO (paper Table 1, row 3; §7.2 safety case).
//!
//! Modelled on `stream_fifo` from the PULP Common Cells IP in passthrough
//! configuration: a depth-2 FIFO that additionally accepts a write in the
//! same cycle as a read even when full (the "read and write in the same
//! cycle" behaviour §7.1 describes).
//!
//! §7.2 observes that the original IP documents "writes only when not
//! full" but does not *enforce* it — it relies on warning assertions.
//! The Anvil version enforces the contract by construction: the enqueue
//! `recv` is simply not reached (so not acknowledged) unless there is
//! room or the consumer is taking an element this cycle (`ready(...)`).

use anvil_core::Session;
use anvil_rtl::{Expr, Module};

/// Payload width.
pub const WIDTH: usize = 16;
/// FIFO depth.
pub const DEPTH: usize = 2;

/// The Anvil source for the passthrough stream FIFO.
pub fn anvil_source() -> String {
    format!(
        "chan push_ch {{ right enq : (logic[{w}]@#1) }}
         chan pop_ch {{ right deq : (logic[{w}]@#1) }}
         proc stream_fifo_anvil(in_ep : right push_ch, out_ep : left pop_ch) {{
            reg mem : logic[{w}][{d}];
            reg wr : logic[2];
            reg rd : logic[2];
            loop {{
                if ((*wr - *rd) != {d}) | ready(out_ep.deq) {{
                    let x = recv in_ep.enq >>
                    set mem[(*wr)[0:0]] := x ;
                    set wr := *wr + 1
                }} else {{ cycle 1 }}
            }}
            loop {{
                if *wr != *rd {{
                    send out_ep.deq (*mem[(*rd)[0:0]]) >>
                    set rd := *rd + 1
                }} else {{ cycle 1 }}
            }}
         }}",
        w = WIDTH,
        d = DEPTH
    )
}

/// Compiles and flattens the Anvil stream FIFO.
pub fn anvil_flat() -> Module {
    Session::new()
        .compile_flat(&anvil_source(), "stream_fifo_anvil")
        .expect("stream FIFO compiles")
}

/// The handwritten baseline with the same passthrough-when-full rule.
pub fn baseline() -> Module {
    let mut m = Module::new("stream_fifo_baseline");
    let enq_data = m.input("in_ep_enq_data", WIDTH);
    let enq_valid = m.input("in_ep_enq_valid", 1);
    let enq_ack = m.output("in_ep_enq_ack", 1);
    let deq_data = m.output("out_ep_deq_data", WIDTH);
    let deq_valid = m.output("out_ep_deq_valid", 1);
    let deq_ack = m.input("out_ep_deq_ack", 1);

    let mem = m.array("mem", WIDTH, DEPTH);
    let wr = m.reg("wr", 2);
    let rd = m.reg("rd", 2);

    let full = m.wire_from(
        "full",
        Expr::Signal(wr)
            .sub(Expr::Signal(rd))
            .eq(Expr::lit(DEPTH as u64, 2)),
    );
    let not_empty = m.wire_from("not_empty", Expr::Signal(wr).ne(Expr::Signal(rd)));

    // Accept when not full, or when full but the consumer reads this cycle.
    let accept = m.wire_from(
        "accept",
        Expr::Signal(full).logic_not().or(Expr::Signal(deq_ack)),
    );
    m.assign(enq_ack, Expr::Signal(accept));
    let enq_fire = m.wire_from(
        "enq_fire",
        Expr::Signal(enq_valid).and(Expr::Signal(accept)),
    );
    m.array_write(
        mem,
        Expr::Signal(enq_fire),
        Expr::Signal(wr).slice(0, 1),
        Expr::Signal(enq_data),
    );
    m.update_when(
        wr,
        Expr::Signal(enq_fire),
        Expr::Signal(wr).add(Expr::lit(1, 2)),
    );

    m.assign(deq_valid, Expr::Signal(not_empty));
    m.assign(
        deq_data,
        Expr::ArrayRead {
            array: mem,
            index: Box::new(Expr::Signal(rd).slice(0, 1)),
        },
    );
    let deq_fire = m.wire_from(
        "deq_fire",
        Expr::Signal(not_empty).and(Expr::Signal(deq_ack)),
    );
    m.update_when(
        rd,
        Expr::Signal(deq_fire),
        Expr::Signal(rd).add(Expr::lit(1, 2)),
    );
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
    fn stream_fifo_matches_baseline() {
        let a = anvil_flat();
        let b = baseline();
        let reqs = workload(21, 16);
        assert_equivalent(&a, &b, ("in_ep", "enq"), ("out_ep", "deq"), &reqs, &[], 200);
    }

    #[test]
    fn stream_fifo_matches_baseline_with_stalls() {
        let a = anvil_flat();
        let b = baseline();
        let reqs = workload(22, 12);
        assert_equivalent(
            &a,
            &b,
            ("in_ep", "enq"),
            ("out_ep", "deq"),
            &reqs,
            &[2],
            300,
        );
    }

    #[test]
    fn write_while_full_accepted_only_with_simultaneous_read() {
        let a = anvil_flat();
        let mut sim = anvil_sim::Sim::new(&a).unwrap();
        // Fill the FIFO (consumer stalled).
        sim.poke("out_ep_deq_ack", Bits::bit(false)).unwrap();
        sim.poke("in_ep_enq_valid", Bits::bit(true)).unwrap();
        sim.poke("in_ep_enq_data", Bits::from_u64(1, WIDTH))
            .unwrap();
        let mut accepted = 0;
        for _ in 0..8 {
            if sim.peek("in_ep_enq_ack").unwrap().is_truthy() {
                accepted += 1;
            }
            sim.step().unwrap();
        }
        assert_eq!(accepted, DEPTH as u32, "fills to depth then refuses");
        // Now full: no ack without a simultaneous read...
        assert!(!sim.peek("in_ep_enq_ack").unwrap().is_truthy());
        // ...but with the consumer reading, the write is accepted.
        sim.poke("out_ep_deq_ack", Bits::bit(true)).unwrap();
        assert!(sim.peek("in_ep_enq_ack").unwrap().is_truthy());
    }
}

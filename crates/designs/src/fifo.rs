//! FIFO buffer (paper Table 1, row 1).
//!
//! Modelled on `fifo_v3` from the PULP Common Cells IP: depth 4, 16-bit
//! payload, one enqueue and one dequeue stream with full/empty
//! backpressure, simultaneous enqueue+dequeue allowed, one-cycle
//! enqueue-to-dequeue latency.
//!
//! The Anvil version uses two concurrent threads — one per stream — with
//! occupancy tracked by free-running pointers; backpressure falls out of
//! *when each thread reaches its blocking `recv`/`send`*, not from
//! hand-wired ready logic. The baseline is the conventional handwritten
//! pointer FIFO with the same port interface.

use anvil_core::Session;
use anvil_rtl::{Expr, Module};

/// Payload width.
pub const WIDTH: usize = 16;
/// FIFO depth.
pub const DEPTH: usize = 4;

/// The Anvil source for the FIFO buffer.
pub fn anvil_source() -> String {
    format!(
        "chan push_ch {{ right enq : (logic[{w}]@#1) }}
         chan pop_ch {{ right deq : (logic[{w}]@#1) }}
         proc fifo_anvil(in_ep : right push_ch, out_ep : left pop_ch) {{
            reg mem : logic[{w}][{d}];
            reg wr : logic[3];
            reg rd : logic[3];
            loop {{
                if (*wr - *rd) != {d} {{
                    let x = recv in_ep.enq >>
                    set mem[(*wr)[1:0]] := x ;
                    set wr := *wr + 1
                }} else {{ cycle 1 }}
            }}
            loop {{
                if *wr != *rd {{
                    send out_ep.deq (*mem[(*rd)[1:0]]) >>
                    set rd := *rd + 1
                }} else {{ cycle 1 }}
            }}
         }}",
        w = WIDTH,
        d = DEPTH
    )
}

/// Compiles and flattens the Anvil FIFO.
pub fn anvil_flat() -> Module {
    Session::new()
        .compile_flat(&anvil_source(), "fifo_anvil")
        .expect("FIFO compiles")
}

/// The handwritten baseline with the same interface.
pub fn baseline() -> Module {
    let mut m = Module::new("fifo_baseline");
    let enq_data = m.input("in_ep_enq_data", WIDTH);
    let enq_valid = m.input("in_ep_enq_valid", 1);
    let enq_ack = m.output("in_ep_enq_ack", 1);
    let deq_data = m.output("out_ep_deq_data", WIDTH);
    let deq_valid = m.output("out_ep_deq_valid", 1);
    let deq_ack = m.input("out_ep_deq_ack", 1);

    let mem = m.array("mem", WIDTH, DEPTH);
    let wr = m.reg("wr", 3);
    let rd = m.reg("rd", 3);

    let not_full = m.wire_from(
        "not_full",
        Expr::Signal(wr)
            .sub(Expr::Signal(rd))
            .ne(Expr::lit(DEPTH as u64, 3)),
    );
    let not_empty = m.wire_from("not_empty", Expr::Signal(wr).ne(Expr::Signal(rd)));

    m.assign(enq_ack, Expr::Signal(not_full));
    let enq_fire = m.wire_from(
        "enq_fire",
        Expr::Signal(enq_valid).and(Expr::Signal(not_full)),
    );
    m.array_write(
        mem,
        Expr::Signal(enq_fire),
        Expr::Signal(wr).slice(0, 2),
        Expr::Signal(enq_data),
    );
    m.update_when(
        wr,
        Expr::Signal(enq_fire),
        Expr::Signal(wr).add(Expr::lit(1, 3)),
    );

    m.assign(deq_valid, Expr::Signal(not_empty));
    m.assign(
        deq_data,
        Expr::ArrayRead {
            array: mem,
            index: Box::new(Expr::Signal(rd).slice(0, 2)),
        },
    );
    let deq_fire = m.wire_from(
        "deq_fire",
        Expr::Signal(not_empty).and(Expr::Signal(deq_ack)),
    );
    m.update_when(
        rd,
        Expr::Signal(deq_fire),
        Expr::Signal(rd).add(Expr::lit(1, 3)),
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
            .map(|_| (Bits::from_u64(rng.gen(), WIDTH), rng.gen_range(0..3)))
            .collect()
    }

    #[test]
    fn fifo_preserves_order_and_matches_baseline() {
        let a = anvil_flat();
        let b = baseline();
        let reqs = workload(1, 20);
        let (ta, _tb) =
            assert_equivalent(&a, &b, ("in_ep", "enq"), ("out_ep", "deq"), &reqs, &[], 200);
        // All values delivered, in order.
        let sent: Vec<u64> = reqs.iter().map(|(v, _)| v.to_u64()).collect();
        let got: Vec<u64> = ta.iter().map(|(_, v)| v.to_u64()).collect();
        assert_eq!(got, sent);
    }

    #[test]
    fn fifo_backpressures_slow_consumer() {
        let a = anvil_flat();
        let b = baseline();
        let reqs = workload(2, 12);
        // Consumer acks every 4th cycle only.
        let (ta, _) = assert_equivalent(
            &a,
            &b,
            ("in_ep", "enq"),
            ("out_ep", "deq"),
            &reqs,
            &[4],
            400,
        );
        assert_eq!(ta.len(), reqs.len());
    }

    #[test]
    fn fifo_sustains_full_throughput() {
        // Back-to-back enqueues with an always-ready consumer: the Anvil
        // FIFO must accept one element per cycle (no added latency, §7.1).
        let a = anvil_flat();
        let reqs: Vec<(Bits, u64)> = (0..10u64).map(|i| (Bits::from_u64(i, WIDTH), 0)).collect();
        let trace = crate::tb::run_req_res(&a, ("in_ep", "enq"), ("out_ep", "deq"), &reqs, &[], 60)
            .unwrap();
        assert_eq!(trace.len(), 10);
        // Steady-state: one dequeue per cycle.
        let cycles: Vec<u64> = trace.iter().map(|(c, _)| *c).collect();
        for w in cycles.windows(2).skip(2) {
            assert_eq!(w[1] - w[0], 1, "dequeues not back-to-back: {cycles:?}");
        }
    }
}

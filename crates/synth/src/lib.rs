//! Synthesis cost model: the substitute for the paper's commercial 22 nm
//! ASIC flow (see DESIGN.md §1).
//!
//! Table 1 of the paper compares Anvil-generated designs against
//! handwritten baselines on area (µm²), power (mW), and maximum frequency
//! (MHz). Those absolute numbers require a proprietary PDK; what the
//! paper's claim rests on is the *relative* comparison — Anvil within a
//! few percent of the baselines. This crate provides a deterministic,
//! technology-calibrated cost model applied identically to both sides of
//! every comparison:
//!
//! * **area** — every combinational operator is mapped to NAND2-equivalent
//!   gate counts (GE) using standard-cell ratios; flip-flops and memory
//!   bits get their usual GE weights; one GE is scaled to a 22 nm-class
//!   footprint;
//! * **fmax** — the longest register-to-register combinational path,
//!   measured in gate delays with per-operator logic depths;
//! * **power** — dynamic power from switching activity (measured by the
//!   simulator's toggle counters) plus GE-proportional leakage.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use anvil_rtl::{BinaryOp, Expr, Module, SignalId, SignalKind, UnaryOp};

/// Area of one NAND2-equivalent gate in µm² (22 nm-class standard cell).
pub const UM2_PER_GE: f64 = 0.25;
/// Gate-equivalents per flip-flop bit.
pub const GE_PER_FF: f64 = 6.0;
/// Gate-equivalents per memory bit (register-file style storage).
pub const GE_PER_MEM_BIT: f64 = 2.0;
/// Propagation delay of one gate level in picoseconds.
pub const PS_PER_LEVEL: f64 = 18.0;
/// Dynamic energy per gate toggle in femtojoules (switching一 full node).
pub const FJ_PER_TOGGLE: f64 = 1.1;
/// Leakage power per GE in nanowatts.
pub const NW_LEAK_PER_GE: f64 = 1.8;

/// The synthesis estimate for one flattened module.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SynthReport {
    /// Combinational gate-equivalents.
    pub comb_ge: f64,
    /// Sequential gate-equivalents (flip-flops).
    pub seq_ge: f64,
    /// Memory gate-equivalents (register arrays).
    pub mem_ge: f64,
    /// Total area in µm².
    pub area_um2: f64,
    /// Longest register-to-register path in gate levels.
    pub critical_path_levels: f64,
    /// Maximum frequency in MHz implied by the critical path.
    pub fmax_mhz: f64,
    /// Number of flip-flop bits.
    pub ff_bits: usize,
}

impl SynthReport {
    /// Total gate-equivalents.
    pub fn total_ge(&self) -> f64 {
        self.comb_ge + self.seq_ge + self.mem_ge
    }
}

/// Estimates area and timing of a flattened module.
///
/// # Panics
///
/// Panics if the module still contains instances (flatten with
/// [`anvil_rtl::elaborate`] first).
pub fn synthesize(m: &Module) -> SynthReport {
    assert!(
        m.instances.is_empty(),
        "synthesize requires a flattened module"
    );
    let mut comb_ge = 0.0;
    let mut ff_bits = 0usize;
    let mut mem_bits = 0usize;

    for (_, sig) in m.iter_signals() {
        if sig.kind == SignalKind::Reg {
            ff_bits += sig.width;
        }
    }
    for arr in &m.arrays {
        mem_bits += arr.width * arr.depth;
    }
    // Structurally identical subexpressions are shared (synthesis CSE):
    // each unique subtree contributes its root operator once.
    let mut seen: HashSet<u64> = HashSet::new();
    {
        let mut add = |e: &Expr| comb_ge += expr_ge_dedup(m, e, &mut seen);
        for e in m.assigns.values() {
            add(e);
        }
        for e in m.reg_next.values() {
            add(e);
        }
        for w in &m.array_writes {
            add(&w.enable);
            add(&w.index);
            add(&w.data);
        }
    }
    for w in &m.array_writes {
        // Write decoder.
        if let Some(arr) = m.arrays.get(w.array.0) {
            comb_ge += arr.depth as f64 * 0.5;
        }
    }

    let seq_ge = ff_bits as f64 * GE_PER_FF;
    let mem_ge = mem_bits as f64 * GE_PER_MEM_BIT;
    let area_um2 = (comb_ge + seq_ge + mem_ge) * UM2_PER_GE;

    let critical_path_levels = critical_path(m);
    // Clock period: path delay plus FF clk-to-q and setup (~3 levels).
    let period_ps = (critical_path_levels + 3.0) * PS_PER_LEVEL;
    let fmax_mhz = 1.0e6 / period_ps;

    SynthReport {
        comb_ge,
        seq_ge,
        mem_ge,
        area_um2,
        critical_path_levels,
        fmax_mhz,
        ff_bits,
    }
}

/// Estimates total power in mW at the given clock frequency.
///
/// `toggles_per_cycle` is average bit toggles per cycle across the design,
/// as measured by `anvil_sim::Sim::switching_activity` on a
/// representative workload.
pub fn estimate_power_mw(report: &SynthReport, toggles_per_cycle: f64, f_mhz: f64) -> f64 {
    // Each signal toggle re-charges a handful of downstream gate inputs;
    // scale toggles by average fan-out of ~2.
    let toggles_per_second = toggles_per_cycle * 2.0 * f_mhz * 1.0e6;
    let dynamic_mw = toggles_per_second * FJ_PER_TOGGLE * 1.0e-12; // fJ -> mJ
    let leakage_mw = report.total_ge() * NW_LEAK_PER_GE * 1.0e-6;
    dynamic_mw + leakage_mw
}

/// Gate-equivalent cost of the not-yet-seen subtrees of one expression.
fn expr_ge_dedup(m: &Module, e: &Expr, seen: &mut HashSet<u64>) -> f64 {
    let h = structural_hash(e);
    if !seen.insert(h) {
        return 0.0;
    }
    let mut total = node_ge(m, e);
    match e {
        Expr::Unary(_, a) | Expr::Slice { base: a, .. } | Expr::Resize { base: a, .. } => {
            total += expr_ge_dedup(m, a, seen);
        }
        Expr::Binary(_, a, b) => {
            total += expr_ge_dedup(m, a, seen) + expr_ge_dedup(m, b, seen);
        }
        Expr::Mux {
            cond,
            then_e,
            else_e,
        } => {
            total += expr_ge_dedup(m, cond, seen)
                + expr_ge_dedup(m, then_e, seen)
                + expr_ge_dedup(m, else_e, seen);
        }
        Expr::Concat(parts) => {
            for p in parts {
                total += expr_ge_dedup(m, p, seen);
            }
        }
        Expr::ArrayRead { index, .. } => total += expr_ge_dedup(m, index, seen),
        Expr::Const(_) | Expr::Signal(_) => {}
    }
    total
}

fn structural_hash(e: &Expr) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    e.hash(&mut h);
    h.finish()
}

fn node_ge(m: &Module, e: &Expr) -> f64 {
    let w = m.expr_width(e).unwrap_or(1) as f64;
    match e {
        Expr::Const(_) | Expr::Signal(_) => 0.0,
        Expr::Unary(op, a) => {
            let aw = m.expr_width(a).unwrap_or(1) as f64;
            match op {
                UnaryOp::Not | UnaryOp::Neg => aw * 0.7,
                UnaryOp::RedAnd | UnaryOp::RedOr | UnaryOp::RedXor | UnaryOp::LogicNot => {
                    (aw - 1.0).max(0.0)
                }
            }
        }
        Expr::Binary(op, a, _) => {
            let aw = m.expr_width(a).unwrap_or(1) as f64;
            match op {
                BinaryOp::Add | BinaryOp::Sub => aw * 6.0,
                BinaryOp::Mul => aw * aw * 6.0,
                BinaryOp::And | BinaryOp::Or => aw * 1.0,
                BinaryOp::Xor => aw * 2.2,
                BinaryOp::Eq | BinaryOp::Ne => aw * 2.2 + (aw - 1.0).max(0.0),
                BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => aw * 3.0,
                // Barrel shifter: log2(w) mux stages.
                BinaryOp::Shl | BinaryOp::Shr => aw * (aw.log2().max(1.0)) * 2.5,
            }
        }
        Expr::Mux { .. } => w * 2.5,
        // Pure wiring.
        Expr::Concat(_) | Expr::Slice { .. } | Expr::Resize { .. } => 0.0,
        Expr::ArrayRead { array, .. } => {
            // Read mux tree across the array depth.
            let depth = m.arrays.get(array.0).map(|a| a.depth).unwrap_or(1) as f64;
            w * (depth - 1.0).max(0.0) * 0.8
        }
    }
}

/// Logic depth (gate levels) contributed by one operator node.
fn node_levels(m: &Module, e: &Expr) -> f64 {
    let w = m.expr_width(e).unwrap_or(1) as f64;
    match e {
        Expr::Const(_) | Expr::Signal(_) => 0.0,
        Expr::Unary(op, a) => {
            let aw = m.expr_width(a).unwrap_or(1) as f64;
            match op {
                UnaryOp::Not | UnaryOp::Neg => 1.0,
                UnaryOp::RedAnd | UnaryOp::RedOr | UnaryOp::RedXor | UnaryOp::LogicNot => {
                    aw.log2().max(1.0)
                }
            }
        }
        Expr::Binary(op, a, _) => {
            let aw = m.expr_width(a).unwrap_or(1) as f64;
            match op {
                // Carry-lookahead-ish depth.
                BinaryOp::Add | BinaryOp::Sub => aw.log2().max(1.0) + 2.0,
                BinaryOp::Mul => 2.0 * aw.log2().max(1.0) + 4.0,
                BinaryOp::And | BinaryOp::Or => 1.0,
                BinaryOp::Xor => 1.5,
                BinaryOp::Eq | BinaryOp::Ne => aw.log2().max(1.0) + 1.5,
                BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
                    aw.log2().max(1.0) + 2.0
                }
                BinaryOp::Shl | BinaryOp::Shr => aw.log2().max(1.0) * 1.5,
            }
        }
        Expr::Mux { .. } => 1.5,
        Expr::Concat(_) | Expr::Slice { .. } | Expr::Resize { .. } => 0.0,
        Expr::ArrayRead { array, .. } => {
            let depth = m.arrays.get(array.0).map(|a| a.depth).unwrap_or(1) as f64;
            let _ = w;
            depth.log2().max(1.0) * 1.5
        }
    }
}

/// Depth of an expression given the settled depths of its leaf signals.
fn expr_depth(m: &Module, e: &Expr, sig_depth: &HashMap<SignalId, f64>) -> f64 {
    let own = node_levels(m, e);
    let base = match e {
        Expr::Signal(s) => *sig_depth.get(s).unwrap_or(&0.0),
        Expr::Unary(_, a) | Expr::Slice { base: a, .. } | Expr::Resize { base: a, .. } => {
            expr_depth(m, a, sig_depth)
        }
        Expr::Binary(_, a, b) => expr_depth(m, a, sig_depth).max(expr_depth(m, b, sig_depth)),
        Expr::Mux {
            cond,
            then_e,
            else_e,
        } => expr_depth(m, cond, sig_depth)
            .max(expr_depth(m, then_e, sig_depth))
            .max(expr_depth(m, else_e, sig_depth)),
        Expr::Concat(parts) => parts
            .iter()
            .map(|p| expr_depth(m, p, sig_depth))
            .fold(0.0, f64::max),
        Expr::ArrayRead { index, .. } => expr_depth(m, index, sig_depth),
        Expr::Const(_) => 0.0,
    };
    base + own
}

/// Longest register-to-register (or port-to-register) combinational path.
fn critical_path(m: &Module) -> f64 {
    // Settle comb signals in dependency order (same approach as the
    // simulator, but propagating depths instead of values).
    let mut depth: HashMap<SignalId, f64> = HashMap::new();
    // Iterate to a fixed point (assignments are acyclic).
    let mut remaining: Vec<SignalId> = m.assigns.keys().copied().collect();
    remaining.sort();
    let mut progress = true;
    while progress && !remaining.is_empty() {
        progress = false;
        remaining.retain(|id| {
            let e = &m.assigns[id];
            let ready = e
                .signals()
                .iter()
                .all(|s| !m.assigns.contains_key(s) || depth.contains_key(s));
            if ready {
                depth.insert(*id, expr_depth(m, e, &depth));
                progress = true;
                false
            } else {
                true
            }
        });
    }
    let mut worst = depth.values().copied().fold(0.0, f64::max);
    for e in m.reg_next.values() {
        worst = worst.max(expr_depth(m, e, &depth));
    }
    for w in &m.array_writes {
        worst = worst
            .max(expr_depth(m, &w.enable, &depth))
            .max(expr_depth(m, &w.index, &depth))
            .max(expr_depth(m, &w.data, &depth));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_rtl::Bits;

    fn counter(width: usize) -> Module {
        let mut m = Module::new("counter");
        let q = m.reg("q", width);
        let out = m.output("out", width);
        m.set_next(q, Expr::Signal(q).add(Expr::lit(1, width)));
        m.assign(out, Expr::Signal(q));
        m
    }

    #[test]
    fn area_scales_with_width() {
        let small = synthesize(&counter(8));
        let big = synthesize(&counter(32));
        assert!(big.area_um2 > small.area_um2 * 2.0);
        assert_eq!(small.ff_bits, 8);
        assert_eq!(big.ff_bits, 32);
    }

    #[test]
    fn fmax_decreases_with_logic_depth() {
        let shallow = synthesize(&counter(8));
        // A deep design: chain of adders.
        let mut m = Module::new("deep");
        let q = m.reg("q", 32);
        let mut e = Expr::Signal(q);
        for _ in 0..8 {
            e = e.add(Expr::Signal(q));
        }
        m.set_next(q, e);
        let out = m.output("out", 32);
        m.assign(out, Expr::Signal(q));
        let deep = synthesize(&m);
        assert!(deep.fmax_mhz < shallow.fmax_mhz);
        assert!(deep.critical_path_levels > shallow.critical_path_levels);
    }

    #[test]
    fn memory_bits_counted() {
        let mut m = Module::new("mem");
        let addr = m.input("addr", 4);
        let q = m.output("q", 8);
        let a = m.array("ram", 8, 16);
        m.assign(
            q,
            Expr::ArrayRead {
                array: a,
                index: Box::new(Expr::Signal(addr)),
            },
        );
        let r = synthesize(&m);
        assert_eq!(r.mem_ge, 8.0 * 16.0 * GE_PER_MEM_BIT);
        assert!(r.comb_ge > 0.0); // read mux
    }

    #[test]
    fn power_grows_with_activity_and_frequency() {
        let r = synthesize(&counter(16));
        let idle = estimate_power_mw(&r, 0.0, 1000.0);
        let busy = estimate_power_mw(&r, 20.0, 1000.0);
        let busier = estimate_power_mw(&r, 20.0, 2000.0);
        assert!(idle > 0.0); // leakage
        assert!(busy > idle);
        assert!(busier > busy);
    }

    #[test]
    fn wiring_is_free() {
        let mut m = Module::new("wires");
        let a = m.input("a", 8);
        let o = m.output("o", 16);
        m.assign(
            o,
            Expr::Concat(vec![
                Expr::Signal(a).slice(4, 4),
                Expr::Signal(a),
                Expr::Const(Bits::zero(4)),
            ]),
        );
        let r = synthesize(&m);
        assert_eq!(r.comb_ge, 0.0);
        assert_eq!(r.critical_path_levels, 0.0);
    }

    #[test]
    fn deterministic() {
        let a = synthesize(&counter(24));
        let b = synthesize(&counter(24));
        assert_eq!(a, b);
    }
}

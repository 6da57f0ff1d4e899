//! The dynamic timing-safety oracle (paper Appendix C.4).
//!
//! The paper's safety theorem (C.20) says: a well-typed program is safe in
//! *every* execution log, i.e. under every possible assignment of message
//! latencies and branch outcomes. This module makes that statement
//! testable: it samples a concrete timestamp function for a thread's event
//! graph (Def. C.9), resolves every lifetime pattern to concrete cycle
//! windows, and checks the safety conditions of Def. C.15 directly —
//! uses within lifetimes, no register mutation inside a value's stability
//! window, and send windows covered and disjoint.
//!
//! The `anvil-verify` property tests then assert: programs accepted by the
//! static checker never produce a violation here, across thousands of
//! random latency/branch samples; the paper's unsafe examples do.

use anvil_intern::Symbol;
use anvil_ir::{EventId, Pattern, PatternDur, ThreadIr};
use rand::Rng;

/// A concrete run: timestamps for every event (None = untaken branch).
#[derive(Clone, Debug)]
pub struct ConcreteRun {
    /// τ per event.
    pub tau: Vec<Option<i64>>,
}

/// A violation of the dynamic safety conditions in one concrete run.
#[derive(Clone, Debug)]
pub struct DynViolation {
    /// Which condition failed.
    pub what: String,
    /// The cycle window involved.
    pub window: (i64, i64),
}

/// Samples a concrete run of the thread with random synchronisation
/// latencies in `0..=max_latency` and random branch outcomes.
pub fn sample_run(ir: &ThreadIr, rng: &mut impl Rng, max_latency: u64) -> ConcreteRun {
    // Pre-draw randomness so the two sampling closures don't both need
    // the generator.
    let delays: Vec<u64> = (0..ir.graph.len())
        .map(|_| rng.gen_range(0..=max_latency))
        .collect();
    let branches: Vec<bool> = (0..ir.graph.len().max(1))
        .map(|_| rng.gen_bool(0.5))
        .collect();
    let mut di = 0usize;
    let mut bi = 0usize;
    let tau = ir.graph.sample_timestamps(
        move |_| {
            di = (di + 1) % delays.len().max(1);
            delays[di]
        },
        move |_| {
            bi = (bi + 1) % branches.len();
            branches[bi]
        },
    );
    ConcreteRun { tau }
}

/// Resolves the end of a lifetime pattern in a concrete run: the first
/// matching time at/after the base event. Returns `None` for ∞ (no such
/// sync occurs) or if the base never fired.
fn resolve_pattern(ir: &ThreadIr, run: &ConcreteRun, p: &Pattern) -> Option<i64> {
    let base = run.tau[p.base.0]?;
    match &p.dur {
        PatternDur::Cycles(k) => Some(base + *k as i64),
        // "The next synchronisation of m": among syncs that do not
        // causally precede the base (the request that *caused* a response
        // must not expire it), the earliest at/after the base.
        PatternDur::Msg(m) => ir
            .graph
            .sync_events(m)
            .iter()
            .filter(|e| !ir.graph.le(**e, p.base))
            .filter_map(|e| run.tau[e.0])
            .filter(|t| *t >= base)
            .min(),
    }
}

/// The earliest end among a pattern set; `None` = eternal.
fn resolve_ends(ir: &ThreadIr, run: &ConcreteRun, ends: &[Pattern]) -> Option<i64> {
    ends.iter()
        .filter_map(|p| resolve_pattern(ir, run, p))
        .min()
}

/// All cycles at which a register is mutated in this run (the mutation
/// takes effect between `t` and `t+1`).
fn mutation_times(ir: &ThreadIr, run: &ConcreteRun, reg: Symbol) -> Vec<i64> {
    ir.assigns
        .iter()
        .filter(|a| a.reg == reg)
        .filter_map(|a| run.tau[a.at.0])
        .collect()
}

/// Checks one concrete run against the Def. C.15 safety conditions.
///
/// Returns every violation found (empty = this run is safe).
pub fn check_run(ir: &ThreadIr, run: &ConcreteRun) -> Vec<DynViolation> {
    let mut out = Vec::new();

    // A window [a, b) needs: within every lifetime window of the value,
    // and no dependency register mutating m with a <= m && m+1 < b.
    let check_window = |what: &str,
                        created: EventId,
                        a: i64,
                        b: i64,
                        ends: &[Pattern],
                        regs: &std::collections::BTreeSet<Symbol>,
                        out: &mut Vec<DynViolation>| {
        if let Some(limit) = resolve_ends(ir, run, ends) {
            // One cycle of slack: a value stays physically stable through
            // its expiry-sync cycle (mutations land the cycle after).
            if b > limit + 1 {
                out.push(DynViolation {
                    what: format!("{what}: window ends at {b} but value dies at {limit}"),
                    window: (a, b),
                });
            }
        }
        let start = run.tau[created.0].unwrap_or(a);
        for &reg in regs {
            for m in mutation_times(ir, run, reg) {
                if m >= start && m + 1 < b {
                    out.push(DynViolation {
                        what: format!(
                            "{what}: register `{reg}` mutated at {m} inside stability window"
                        ),
                        window: (start, b),
                    });
                }
            }
        }
    };

    for u in &ir.uses {
        let (Some(at), Some(end)) = (run.tau[u.at.0], resolve_pattern(ir, run, &u.end)) else {
            continue; // untaken branch
        };
        check_window(&u.desc, u.created, at, end, &u.ends, &u.regs, &mut out);
    }

    // Sends: required windows covered by value lifetime and register
    // stability, and pairwise disjoint per message.
    let mut windows: Vec<(&anvil_ir::MsgRef, i64, i64)> = Vec::new();
    for s in &ir.sends {
        let (Some(start), Some(done)) = (run.tau[s.start.0], run.tau[s.done.0]) else {
            continue;
        };
        let required_end = match &s.dur {
            Some(d) => resolve_pattern(
                ir,
                run,
                &Pattern {
                    base: s.done,
                    dur: d.clone(),
                },
            ),
            None => None,
        };
        let b = required_end.unwrap_or(i64::MAX / 2);
        check_window(
            &format!("send of {}", s.msg),
            s.created,
            start,
            b,
            &s.ends,
            &s.regs,
            &mut out,
        );
        let _ = done;
        windows.push((&s.msg, start, b));
    }
    windows.sort_by_key(|(m, a, _)| (format!("{m}"), *a));
    for w in windows.windows(2) {
        let (m1, a1, b1) = &w[0];
        let (m2, a2, _) = &w[1];
        if m1 == m2 && a2 < b1 && a1 != a2 {
            out.push(DynViolation {
                what: format!("overlapping sends of {m1}"),
                window: (*a2, *b1),
            });
        }
    }
    out
}

/// Convenience: samples `runs` random executions and returns the first
/// run's violations found, if any.
pub fn fuzz_thread(
    ir: &ThreadIr,
    runs: usize,
    max_latency: u64,
    rng: &mut impl Rng,
) -> Option<(ConcreteRun, Vec<DynViolation>)> {
    for _ in 0..runs {
        let run = sample_run(ir, rng, max_latency);
        let violations = check_run(ir, &run);
        if !violations.is_empty() {
            return Some((run, violations));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_ir::{build_proc, BuildCtx};
    use anvil_syntax::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ir_for(src: &str) -> Vec<ThreadIr> {
        let prog = parse(src).unwrap();
        let proc = &prog.procs[0];
        let ctx = BuildCtx {
            program: &prog,
            proc,
        };
        build_proc(&ctx, 3).unwrap()
    }

    #[test]
    fn safe_program_has_no_dynamic_violations() {
        let irs = ir_for(
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
            }",
        );
        let mut rng = StdRng::seed_from_u64(7);
        for ir in &irs {
            assert!(fuzz_thread(ir, 200, 5, &mut rng).is_none());
        }
    }

    #[test]
    fn unsafe_program_caught_dynamically() {
        // Fig. 5 Top_Unsafe: mutation during the 2-cycle address hold.
        let irs = ir_for(
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
            }",
        );
        let mut rng = StdRng::seed_from_u64(7);
        let found = irs
            .iter()
            .any(|ir| fuzz_thread(ir, 200, 5, &mut rng).is_some());
        assert!(found, "dynamic oracle should catch the Fig. 5 hazard");
    }

    #[test]
    fn short_lived_send_caught_dynamically() {
        let irs = ir_for(
            "chan ch {
                right data : (logic@res),
                left res : (logic@#1)
            }
            chan ch_s { right data : (logic@#1) }
            proc child(ep : right ch_s, up : left ch) {
                loop {
                    let d = recv ep.data >>
                    send up.data (d) >>
                    let r = recv up.res >>
                    cycle 1
                }
            }",
        );
        let mut rng = StdRng::seed_from_u64(3);
        let found = irs
            .iter()
            .any(|ir| fuzz_thread(ir, 300, 6, &mut rng).is_some());
        assert!(found);
    }
}

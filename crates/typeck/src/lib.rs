//! The Anvil type checker: static timing safety (paper §5).
//!
//! Given a thread's event-graph IR (built with a two-iteration unrolling,
//! per Lemma C.19), this crate enforces the three checks of §5.4 plus the
//! readiness obligations of dependent sync modes:
//!
//! 1. **Valid Value Use** — every use of a value falls within its lifetime;
//! 2. **Valid Register Mutation** — no register is mutated while loaned
//!    (loan times are inferred here, from uses and sends of
//!    register-sourced values, exactly as in the paper's `Encrypt`
//!    walk-through of §5.2);
//! 3. **Valid Message Send** — sent values live as long as the message
//!    contract demands, and successive sends of the same message have
//!    disjoint required windows.
//!
//! Any well-typed process can be composed with other well-typed processes
//! without timing hazards (Theorem C.20); the `anvil-verify` crate
//! property-tests that guarantee end-to-end against randomized-latency
//! simulations.

#![warn(missing_docs)]

use std::collections::BTreeMap;

use anvil_intern::Symbol;
use anvil_ir::{build_proc, BuildCtx, EventId, IrError, Pattern, PatternDur, ThreadIr};
use anvil_syntax::{Program, Span};

/// Which of the safety checks a diagnostic comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// Valid Value Use (§5.4).
    ValueUse,
    /// Valid Register Mutation (§5.4).
    RegisterMutation,
    /// Valid Message Send: payload lifetime (§5.4).
    MessageSend,
    /// Valid Message Send: overlapping required windows (§5.4).
    SendOverlap,
    /// Dependent sync mode reached too late (§4.1).
    DependentReady,
}

/// A timing-safety violation.
#[derive(Clone, Debug)]
pub struct TypeError {
    /// Which check failed.
    pub kind: CheckKind,
    /// Human-readable description (matches the paper's diagnostics, e.g.
    /// "Value does not live long enough in message send").
    pub message: String,
    /// Source location of the offending term.
    pub span: Span,
}

impl TypeError {
    /// Renders the error with `line:col` resolved against the source.
    pub fn render(&self, source: &str) -> String {
        self.render_with(&anvil_syntax::LineIndex::new(source))
    }

    /// [`TypeError::render`] against a prebuilt [`anvil_syntax::LineIndex`]:
    /// drivers that render many violations build the index once and resolve
    /// each span in O(log lines) instead of rescanning the source.
    pub fn render_with(&self, index: &anvil_syntax::LineIndex<'_>) -> String {
        let source = index.source();
        let (line, col) = index.span_start(self.span);
        let snippet: String = source
            [self.span.start.min(source.len())..self.span.end.min(source.len())]
            .chars()
            .take(48)
            .collect();
        format!("{line}:{col}: {}\n  | {snippet}", self.message)
    }
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for TypeError {}

/// A register loan interval `[start, end)` with its origin, for
/// diagnostics and for the Fig. 6-style inference dump.
#[derive(Clone, Debug)]
pub struct Loan {
    /// Loaned register.
    pub reg: Symbol,
    /// Loan start (value creation).
    pub start: EventId,
    /// Loan end pattern.
    pub end: Pattern,
    /// Why the register is loaned.
    pub origin: String,
    /// Where the loaning use/send is.
    pub span: Span,
}

/// The inferred timing facts for one thread: loans per register, plus the
/// diagnostics. Exposed so the Fig. 5 / Fig. 6 benches can print the same
/// derivations the paper shows.
#[derive(Clone, Debug, Default)]
pub struct ThreadReport {
    /// All inferred loans, grouped by register.
    pub loans: BTreeMap<Symbol, Vec<Loan>>,
    /// All violations found.
    pub errors: Vec<TypeError>,
}

/// Runs all timing-safety checks on one thread IR.
///
/// The IR must have been built with `unroll >= 2` for cross-iteration
/// hazards to be visible (Lemma C.19).
pub fn check_thread(ir: &ThreadIr) -> ThreadReport {
    let mut report = ThreadReport::default();
    let g = &ir.graph;

    // ---- Loan inference (§5.2). ----
    // Every use of a register-sourced value loans the register from the
    // value's creation to the end of the use window; every send loans it
    // until the contract expiry.
    for u in &ir.uses {
        for &reg in &u.regs {
            report.loans.entry(reg).or_default().push(Loan {
                reg,
                start: u.created,
                end: u.end.clone(),
                origin: u.desc.clone(),
                span: u.span,
            });
        }
    }
    for s in &ir.sends {
        let end = match &s.dur {
            Some(d) => Pattern {
                base: s.done,
                dur: d.clone(),
            },
            // An eternal contract would loan forever; model as a huge
            // static hold (flagged separately if mutated at all).
            None => Pattern::cycles(s.done, u64::MAX / 2),
        };
        for &reg in &s.regs {
            report.loans.entry(reg).or_default().push(Loan {
                reg,
                start: s.created,
                end: end.clone(),
                origin: format!("value sent through {}", s.msg),
                span: s.span,
            });
        }
    }

    // ---- 1. Valid Value Use. ----
    // The use window may extend one cycle past a value's expiry sync:
    // the earliest mutation at the sync lands one cycle later (slack 1).
    for u in &ir.uses {
        if !g.le_pattern_sets_ctx(std::slice::from_ref(&u.end), &u.ends, 1, Some(u.at)) {
            report.errors.push(TypeError {
                kind: CheckKind::ValueUse,
                message: format!(
                    "Value not live long enough: {} may already be dead when used",
                    u.desc
                ),
                span: u.span,
            });
        }
    }

    // ---- 2. Valid Register Mutation. ----
    // A mutation at `e_c` changes the register between `e_c` and
    // `e_c ⊲ #1`; it conflicts with any loan interval containing both.
    for a in &ir.assigns {
        if let Some(loans) = report.loans.get(&a.reg) {
            for loan in loans {
                if g.contexts_disjoint(a.at, loan.start) {
                    continue; // different branches never co-occur
                }
                let ok = g.le_pattern_ctx(&loan.end, &Pattern::cycles(a.at, 1), 0, Some(a.at))
                    || g.lt(a.at, loan.start);
                if !ok {
                    report.errors.push(TypeError {
                        kind: CheckKind::RegisterMutation,
                        message: format!(
                            "Attempted assignment to a loaned register: `{}` is loaned ({}) when mutated",
                            a.reg, loan.origin
                        ),
                        span: a.span,
                    });
                }
            }
        }
    }

    // ---- 3a. Valid Message Send: payload lifetime. ----
    for s in &ir.sends {
        let required = match &s.dur {
            Some(d) => Pattern {
                base: s.done,
                dur: d.clone(),
            },
            None => {
                // Eternal requirement: the payload lifetime must itself be
                // eternal.
                if !s.ends.is_empty() {
                    report.errors.push(TypeError {
                        kind: CheckKind::MessageSend,
                        message: format!(
                            "Value does not live long enough in message send: `{}` requires an eternal value",
                            s.msg
                        ),
                        span: s.span,
                    });
                }
                continue;
            }
        };
        if !g.le_pattern_sets_ctx(std::slice::from_ref(&required), &s.ends, 1, Some(s.start)) {
            report.errors.push(TypeError {
                kind: CheckKind::MessageSend,
                message: format!(
                    "Value does not live long enough in message send: `{}` requires the payload until {}",
                    s.msg,
                    render_pattern(&required)
                ),
                span: s.span,
            });
        }
    }

    // ---- 3b. Valid Message Send: disjoint windows. ----
    let mut by_msg: BTreeMap<&anvil_ir::MsgRef, Vec<&anvil_ir::SendSite>> = BTreeMap::new();
    for s in &ir.sends {
        by_msg.entry(&s.msg).or_default().push(s);
    }
    for (msg, sends) in by_msg {
        for i in 0..sends.len() {
            for j in (i + 1)..sends.len() {
                let (a, b) = (sends[i], sends[j]);
                if g.contexts_disjoint(a.start, b.start) {
                    continue;
                }
                let disjoint = match (&a.dur, &b.dur) {
                    (Some(da), Some(db)) => {
                        let ea = Pattern {
                            base: a.done,
                            dur: da.clone(),
                        };
                        let eb = Pattern {
                            base: b.done,
                            dur: db.clone(),
                        };
                        g.le_pattern_ctx(&ea, &Pattern::cycles(b.start, 0), 0, Some(b.start))
                            || g.le_pattern_ctx(&eb, &Pattern::cycles(a.start, 0), 0, Some(a.start))
                    }
                    // An eternal contract admits a single send.
                    _ => false,
                };
                if !disjoint {
                    report.errors.push(TypeError {
                        kind: CheckKind::SendOverlap,
                        message: format!(
                            "Successive sends of `{msg}` may overlap: the previous message has not expired"
                        ),
                        span: b.span,
                    });
                }
            }
        }
    }

    // ---- Dependent sync readiness. ----
    for r in &ir.ready_checks {
        if !g.le(r.start, r.at) {
            report.errors.push(TypeError {
                kind: CheckKind::DependentReady,
                message: format!(
                    "Process may not be ready in time for the dependent synchronisation of `{}`",
                    r.msg
                ),
                span: r.span,
            });
        }
    }

    report
}

fn render_pattern(p: &Pattern) -> String {
    match &p.dur {
        PatternDur::Cycles(n) => format!("e{} + {n} cycles", p.base.0),
        PatternDur::Msg(m) => format!("the next `{m}` after e{}", p.base.0),
    }
}

/// Everything the checker found for one process.
#[derive(Clone, Debug, Default)]
pub struct ProcReport {
    /// Per-thread reports.
    pub threads: Vec<ThreadReport>,
}

impl ProcReport {
    /// All errors across threads.
    pub fn errors(&self) -> Vec<&TypeError> {
        self.threads.iter().flat_map(|t| t.errors.iter()).collect()
    }

    /// True when no check failed.
    pub fn is_safe(&self) -> bool {
        self.threads.iter().all(|t| t.errors.is_empty())
    }
}

/// Builds (two-iteration unroll) and checks every thread of a process.
///
/// # Errors
///
/// Returns elaboration errors (unknown names, width mismatches) as `Err`;
/// timing-safety violations are reported inside the `Ok` report.
pub fn check_proc(program: &Program, proc_name: &str) -> Result<ProcReport, IrError> {
    let proc = program.proc(proc_name).ok_or_else(|| IrError {
        message: format!("unknown process `{proc_name}`"),
        span: Span::default(),
    })?;
    let ctx = BuildCtx { program, proc };
    let irs = build_proc(&ctx, 2)?;
    Ok(ProcReport {
        threads: irs.iter().map(check_thread).collect(),
    })
}

/// Checks every process in a program; returns per-process reports keyed
/// by interned process name.
///
/// # Errors
///
/// Propagates the first elaboration error.
pub fn check_program(program: &Program) -> Result<BTreeMap<Symbol, ProcReport>, IrError> {
    let mut out = BTreeMap::new();
    for p in &program.procs {
        out.insert(Symbol::intern(&p.name), check_proc(program, &p.name)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_syntax::parse;

    fn check(src: &str) -> ProcReport {
        let prog = parse(src).unwrap();
        let name = prog.procs[0].name.clone();
        check_proc(&prog, &name).unwrap()
    }

    #[test]
    fn counter_loop_is_safe() {
        let r = check("proc p() { reg c : logic[8]; loop { set c := *c + 1 >> cycle 1 } }");
        assert!(r.is_safe(), "{:?}", r.errors());
    }

    #[test]
    fn same_cycle_read_modify_write_is_safe() {
        // `set r := *r + 1` loans r only for the assignment cycle.
        let r = check("proc p() { reg r : logic[8]; loop { set r := *r + 1 } }");
        assert!(r.is_safe(), "{:?}", r.errors());
    }

    /// Fig. 5 (left): Top_Unsafe against the static memory contract.
    /// The address must stay constant for 2 cycles after the request is
    /// acknowledged, but Top mutates it immediately.
    #[test]
    fn fig5_top_unsafe_rejected() {
        let src = "
            chan memory_ch {
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
            }";
        let r = check(src);
        assert!(!r.is_safe());
        assert!(
            r.errors()
                .iter()
                .any(|e| e.kind == CheckKind::RegisterMutation),
            "{:?}",
            r.errors()
        );
    }

    /// Fig. 5 (right): Top_Safe against the dynamic cache contract.
    /// The address lives until the response arrives; mutation happens
    /// after the response, so the loan has expired.
    #[test]
    fn fig5_top_safe_accepted() {
        let src = "
            chan cache_ch {
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
            }";
        let r = check(src);
        assert!(r.is_safe(), "{:?}", r.errors());
    }

    /// Appendix A (Listing 1), reduced: the received value lives one cycle
    /// but is sent onward under a contract that needs it until a response.
    #[test]
    fn appendix_a_short_lived_value_in_send_rejected() {
        let src = "
            chan ch {
                right data : (logic@res),
                left res : (logic@#1)
            }
            chan ch_s {
                right data : (logic@#1)
            }
            proc child(ep : right ch_s, up : left ch) {
                loop {
                    let d = recv ep.data >>
                    send up.data (d) >>
                    let r = recv up.res >>
                    cycle 1
                }
            }";
        let prog = parse(src).unwrap();
        let r = check_proc(&prog, "child").unwrap();
        assert!(!r.is_safe());
        let errs = r.errors();
        assert!(
            errs.iter().any(|e| e.kind == CheckKind::MessageSend
                && e.message.contains("does not live long enough")),
            "{errs:?}"
        );
    }

    /// Registering the short-lived value first makes the same design safe
    /// (the fix Anvil's diagnostic guides the designer towards).
    #[test]
    fn appendix_a_fixed_with_register() {
        let src = "
            chan ch {
                right data : (logic@res),
                left res : (logic@#1)
            }
            chan ch_s {
                right data : (logic@#1)
            }
            proc child(ep : right ch_s, up : left ch) {
                reg held : logic;
                loop {
                    let d = recv ep.data >>
                    set held := d >>
                    send up.data (*held) >>
                    let r = recv up.res >>
                    cycle 1
                }
            }";
        let prog = parse(src).unwrap();
        let r = check_proc(&prog, "child").unwrap();
        assert!(r.is_safe(), "{:?}", r.errors());
    }

    #[test]
    fn mutation_of_register_loaned_to_send_rejected() {
        // Register is loaned until the response; mutating it right after
        // the send (before the response) is the CWE-1298 DMA bug shape.
        let src = "
            chan dma_ch {
                right req : (logic[8]@gnt),
                left gnt : (logic[8]@#1)
            }
            proc foo(dma : left dma_ch) {
                reg address : logic[8];
                loop {
                    send dma.req (*address) >>
                    set address := *address + 1 >>
                    let x = recv dma.gnt >>
                    cycle 1
                }
            }";
        let r = check(src);
        assert!(!r.is_safe());
        assert!(r
            .errors()
            .iter()
            .any(|e| e.message.contains("loaned register")));
    }

    #[test]
    fn overlapping_sends_rejected() {
        // Fig. 6 tail: a second send before the first expired.
        let src = "
            chan ch {
                right out : (logic[8]@ack),
                left ack : (logic[8]@#1)
            }
            proc p(ep : left ch) {
                loop {
                    send ep.out (8'd1) >>
                    send ep.out (8'd2) >>
                    let a = recv ep.ack >>
                    cycle 1
                }
            }";
        let r = check(src);
        assert!(!r.is_safe());
        assert!(r.errors().iter().any(|e| e.kind == CheckKind::SendOverlap));
    }

    #[test]
    fn sends_in_disjoint_branches_allowed() {
        let src = "
            chan ch {
                right out : (logic[8]@#1)
            }
            proc p(ep : left ch) {
                reg r : logic[8];
                loop {
                    if *r == 0 { send ep.out (8'd1) >> cycle 1 }
                    else { send ep.out (8'd2) >> cycle 1 } >>
                    set r := *r + 1
                }
            }";
        let r = check(src);
        assert!(r.is_safe(), "{:?}", r.errors());
    }

    #[test]
    fn value_dead_after_dynamic_wait_rejected() {
        // A 1-cycle value combined with a dynamically-delayed one
        // (Fig. 6's `noise` hazard).
        let src = "
            chan ch {
                left a : (logic[8]@#1),
                left b : (logic[8]@b_done),
                right b_done : (logic[8]@#1)
            }
            proc p(ep : left ch) {
                reg r : logic[8];
                loop {
                    let quick = recv ep.a;
                    let slow = recv ep.b;
                    slow >>
                    set r := quick + slow >>
                    send ep.b_done (*r) >>
                    cycle 1
                }
            }";
        let r = check(src);
        assert!(!r.is_safe());
        assert!(r.errors().iter().any(|e| e.kind == CheckKind::ValueUse));
    }

    #[test]
    fn cross_iteration_loan_violation_caught() {
        // The send's contract outlives the loop body: iteration 2's
        // mutation lands inside iteration 1's loan.
        let src = "
            chan ch {
                right out : (logic[8]@#4)
            }
            proc p(ep : left ch) {
                reg r : logic[8];
                loop {
                    send ep.out (*r) >>
                    set r := *r + 1
                }
            }";
        let r = check(src);
        assert!(!r.is_safe());
        assert!(r.errors().iter().any(|e| {
            e.kind == CheckKind::RegisterMutation || e.kind == CheckKind::SendOverlap
        }));
    }

    #[test]
    fn loan_report_records_origins() {
        let src = "
            chan ch { right out : (logic[8]@#2) }
            proc p(ep : left ch) {
                reg r : logic[8];
                loop { send ep.out (*r) >> cycle 2 >> set r := *r + 1 }
            }";
        let prog = parse(src).unwrap();
        let rep = check_proc(&prog, "p").unwrap();
        assert!(rep.is_safe(), "{:?}", rep.errors());
        let loans = &rep.threads[0].loans[&Symbol::intern("r")];
        assert!(loans.iter().any(|l| l.origin.contains("ep.out")));
    }

    /// `if *r == 0 { set r := 1; cycle 1 } else if *r == 1 { … } …`
    /// with `links` arms: each arm nests one level deeper.
    fn set_chain(links: usize) -> String {
        let arms: Vec<String> = (0..links)
            .map(|i| format!("if *r == {i} {{ set r := {}; cycle 1 }}", (i + 1) % links))
            .collect();
        format!(
            "proc p() {{ reg r : logic[8]; loop {{ {} }} }}",
            arms.join(" else ")
        )
    }

    /// Gap-table entries computed to build and check `src`'s only thread.
    fn gap_entries_to_check(src: &str) -> usize {
        let prog = parse(src).unwrap();
        let ctx = BuildCtx {
            program: &prog,
            proc: &prog.procs[0],
        };
        let irs = build_proc(&ctx, 2).unwrap();
        let report = check_thread(&irs[0]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        irs[0].graph.gap_entries_computed()
    }

    #[test]
    fn gap_work_grows_with_the_square_of_the_chain() {
        // The graph only grows, so no gap entry is computed twice: the
        // work is bounded by the table's size, quadratic in the events.
        let short = gap_entries_to_check(&set_chain(20));
        let long = gap_entries_to_check(&set_chain(40));
        assert!(
            long <= 4 * short,
            "40 links computed {long} gap entries, 20 links {short}"
        );
    }

    #[test]
    fn dependent_sync_too_early_rejected() {
        // res arrives exactly 1 cycle after req, but the process only
        // looks for it after waiting 3 cycles.
        let src = "
            chan ch {
                right req : (logic[8]@#1) @dyn-@dyn,
                left res : (logic[8]@#1) @#req+1-@#req+1
            }
            proc p(ep : left ch) {
                loop {
                    send ep.req (8'd1) >>
                    cycle 3 >>
                    let x = recv ep.res >>
                    cycle 1
                }
            }";
        let r = check(src);
        assert!(!r.is_safe());
        assert!(r
            .errors()
            .iter()
            .any(|e| e.kind == CheckKind::DependentReady));
    }
}

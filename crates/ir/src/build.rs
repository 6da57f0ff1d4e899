//! Event-graph construction from the AST.
//!
//! This is the Anvil compiler's central pass: it elaborates each thread's
//! term into an [`EventGraph`] (paper §5.3), inferring for every value its
//! lifetime `(e_l, S_d)` and register dependency set along the way (§5.2),
//! and recording the *sites* the type checker must validate — value uses,
//! message sends, and register mutations (§5.4).
//!
//! Per Lemma C.19 ("two iterations are sufficient"), the type checker asks
//! for a two-iteration unrolling (`unroll = 2`); code generation uses the
//! single-iteration graph.

use std::collections::{BTreeSet, HashMap};

use anvil_intern::Symbol;
use anvil_syntax::{
    BinOp, ChanDef, Dir, Duration, MessageDef, ProcDef, Program, SeqOp, Span, SyncMode, Term,
    TermKind, Thread,
};

use crate::graph::{EventGraph, EventId, EventKind, MsgRef, Pattern, PatternDur};
use crate::value::{Info, Val};

/// An error found while elaborating a process (name resolution, width
/// mismatches, direction misuse).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IrError {
    /// Description.
    pub message: String,
    /// Source location.
    pub span: Span,
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for IrError {}

/// An action attached to an event (performed when the event fires).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ActionIr {
    /// Register (or register-array element) assignment; takes one cycle.
    Assign {
        /// Target register.
        reg: Symbol,
        /// Element index for arrays.
        index: Option<Val>,
        /// Assigned value.
        value: Val,
    },
    /// Drive a message's data lines from this event until `done`.
    SendData {
        /// The message.
        msg: MsgRef,
        /// Payload.
        value: Val,
        /// Completion (synchronisation) event.
        done: EventId,
    },
    /// Simulation-only print.
    DPrint {
        /// Label text.
        label: String,
        /// Optional value.
        value: Option<Val>,
    },
    /// Re-trigger the thread root (only in `recursive` threads).
    Recurse,
}

/// A value use the type checker must validate (Valid Value Use, §5.4).
#[derive(Clone, Debug)]
pub struct UseSite {
    /// What is being used (for diagnostics).
    pub desc: String,
    /// Source location.
    pub span: Span,
    /// When the value was created.
    pub created: EventId,
    /// When it is used.
    pub at: EventId,
    /// End of the window it must stay live for.
    pub end: Pattern,
    /// The value's lifetime end patterns (empty = eternal).
    pub ends: Vec<Pattern>,
    /// Registers the value depends on (loaned for the use window).
    pub regs: BTreeSet<Symbol>,
}

/// A message send the type checker must validate (Valid Message Send).
#[derive(Clone, Debug)]
pub struct SendSite {
    /// The message.
    pub msg: MsgRef,
    /// Source location.
    pub span: Span,
    /// When data starts being driven.
    pub start: EventId,
    /// The synchronisation (completion) event.
    pub done: EventId,
    /// Contract duration the payload must stay live after `done`
    /// (`None` = eternal contract).
    pub dur: Option<PatternDur>,
    /// When the payload value was created.
    pub created: EventId,
    /// The payload's lifetime end patterns.
    pub ends: Vec<Pattern>,
    /// Registers the payload depends on.
    pub regs: BTreeSet<Symbol>,
}

/// A register mutation the type checker must validate (Valid Register
/// Mutation).
#[derive(Clone, Debug)]
pub struct AssignSite {
    /// Mutated register.
    pub reg: Symbol,
    /// Event at which the mutation starts (commits one cycle later).
    pub at: EventId,
    /// Source location.
    pub span: Span,
}

/// A readiness obligation for dependent sync modes: the thread must reach
/// the operation no later than the dependent synchronisation time.
#[derive(Clone, Debug)]
pub struct ReadyCheck {
    /// The message with the dependent sync mode.
    pub msg: MsgRef,
    /// When the thread arrives at the operation.
    pub start: EventId,
    /// The fixed synchronisation event.
    pub at: EventId,
    /// Source location.
    pub span: Span,
}

/// A branch condition: its selecting value and evaluation event.
#[derive(Clone, Debug)]
pub struct CondSite {
    /// The 1-bit (truthy) selector.
    pub val: Val,
    /// When it is evaluated (and latched).
    pub at: EventId,
}

/// The intermediate representation of one thread.
#[derive(Clone, Debug)]
pub struct ThreadIr {
    /// The event graph.
    pub graph: EventGraph,
    /// The iteration-start event.
    pub root: EventId,
    /// Completion of the first iteration (loop-back point).
    pub finish: EventId,
    /// Actions, attached to their trigger events.
    pub actions: Vec<(EventId, ActionIr)>,
    /// Branch conditions, indexed by [`crate::CondId`].
    pub conds: Vec<CondSite>,
    /// Use sites for Valid Value Use checking. This and the other three
    /// check-site lists are empty once [`crate::optimize`] has run.
    pub uses: Vec<UseSite>,
    /// Send sites for Valid Message Send checking.
    pub sends: Vec<SendSite>,
    /// Mutation sites for Valid Register Mutation checking.
    pub assigns: Vec<AssignSite>,
    /// Dependent-sync readiness obligations.
    pub ready_checks: Vec<ReadyCheck>,
    /// Whether this is a `recursive` thread.
    pub is_recursive: bool,
}

/// The IR is built once and then shared read-only across type checking,
/// optimization, lowering, and batch-compile worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ThreadIr>();
    assert_send_sync::<ActionIr>();
    assert_send_sync::<UseSite>();
    assert_send_sync::<SendSite>();
};

/// Name-resolution context for building one process.
#[derive(Clone, Copy)]
pub struct BuildCtx<'a> {
    /// The whole program (for channel and extern lookups).
    pub program: &'a Program,
    /// The process being built.
    pub proc: &'a ProcDef,
}

impl<'a> BuildCtx<'a> {
    /// Resolves an endpoint name to its side and channel definition.
    pub fn endpoint(&self, name: &str) -> Option<(Dir, &'a ChanDef)> {
        for p in &self.proc.params {
            if p.name == name {
                return self.program.chan(&p.chan).map(|c| (p.side, c));
            }
        }
        for c in &self.proc.chans {
            if c.left == name {
                return self.program.chan(&c.chan).map(|cd| (Dir::Left, cd));
            }
            if c.right == name {
                return self.program.chan(&c.chan).map(|cd| (Dir::Right, cd));
            }
        }
        None
    }

    /// Resolves a register declaration.
    pub fn reg(&self, name: &str) -> Option<&'a anvil_syntax::RegDef> {
        self.proc.regs.iter().find(|r| r.name == name)
    }
}

/// Builds every thread of a process.
///
/// # Errors
///
/// Fails on unresolved names, direction misuse (receiving a message this
/// endpoint sends), or width mismatches.
pub fn build_proc(ctx: &BuildCtx, unroll: usize) -> Result<Vec<ThreadIr>, IrError> {
    ctx.proc
        .threads
        .iter()
        .map(|t| match t {
            Thread::Loop(term) => build_thread(ctx, term, unroll, false),
            Thread::Recursive(term) => build_thread(ctx, term, unroll, true),
        })
        .collect()
}

/// Builds one thread's event graph, unrolled `unroll` times.
///
/// # Errors
///
/// See [`build_proc`].
pub fn build_thread(
    ctx: &BuildCtx,
    term: &Term,
    unroll: usize,
    is_recursive: bool,
) -> Result<ThreadIr, IrError> {
    assert!(unroll >= 1);
    let mut b = Builder {
        ctx,
        graph: EventGraph::new(),
        actions: Vec::new(),
        conds: Vec::new(),
        uses: Vec::new(),
        sends: Vec::new(),
        assigns: Vec::new(),
        ready_checks: Vec::new(),
        env: Vec::new(),
        last_sync: HashMap::new(),
    };
    let root = b.graph.add_root();
    let mut cur = root;
    let mut finish = root;
    for i in 0..unroll {
        b.env.clear(); // let-bindings do not cross iterations
        let built = b.term(term, cur)?;
        if i == 0 {
            finish = built.end;
        }
        cur = built.end;
    }
    Ok(ThreadIr {
        graph: b.graph,
        root,
        finish,
        actions: b.actions,
        conds: b.conds,
        uses: b.uses,
        sends: b.sends,
        assigns: b.assigns,
        ready_checks: b.ready_checks,
        is_recursive,
    })
}

struct Built {
    end: EventId,
    info: Info,
}

struct Builder<'a> {
    ctx: &'a BuildCtx<'a>,
    graph: EventGraph,
    actions: Vec<(EventId, ActionIr)>,
    conds: Vec<CondSite>,
    uses: Vec<UseSite>,
    sends: Vec<SendSite>,
    assigns: Vec<AssignSite>,
    ready_checks: Vec<ReadyCheck>,
    env: Vec<(String, Built2)>,
    last_sync: HashMap<MsgRef, EventId>,
}

/// Stored binding (like `Built` but cloneable info + end).
#[derive(Clone)]
struct Built2 {
    end: EventId,
    info: Info,
}

impl<'a> Builder<'a> {
    fn err<T>(&self, span: Span, message: impl Into<String>) -> Result<T, IrError> {
        Err(IrError {
            message: message.into(),
            span,
        })
    }

    /// Joins two events with a latest-of join, collapsing trivial cases.
    fn join_all(&mut self, a: EventId, b: EventId) -> EventId {
        if a == b {
            return a;
        }
        if self.graph.le(b, a) {
            // b never trails a: the latest of the two is a.
            return a;
        }
        if self.graph.le(a, b) {
            return b;
        }
        self.graph.push(EventKind::JoinAll { preds: vec![a, b] })
    }

    fn lookup(&self, name: &str) -> Option<Built2> {
        self.env
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.clone())
    }

    fn record_use(&mut self, info: &Info, at: EventId, end: Pattern, desc: &str, span: Span) {
        if info.val.is_unit() {
            return;
        }
        self.uses.push(UseSite {
            desc: desc.to_string(),
            span,
            created: info.created,
            at,
            end,
            ends: info.ends.clone(),
            regs: info.regs.clone(),
        });
    }

    /// Resolves a message reference and validates the operation direction.
    fn resolve_msg(
        &self,
        ep: &str,
        msg: &str,
        sending: bool,
        span: Span,
    ) -> Result<(MsgRef, MessageDef, Dir), IrError> {
        let Some((side, chan)) = self.ctx.endpoint(ep) else {
            return self.err(span, format!("unknown endpoint `{ep}`"));
        };
        let Some(mdef) = chan.message(msg) else {
            return self.err(
                span,
                format!("channel `{}` has no message `{msg}`", chan.name),
            );
        };
        // A message travelling `Right` goes left -> right: the left
        // endpoint sends it.
        let sender_side = match mdef.dir {
            Dir::Right => Dir::Left,
            Dir::Left => Dir::Right,
        };
        if sending && side != sender_side {
            return self.err(
                span,
                format!("endpoint `{ep}` receives `{msg}`; it cannot send it"),
            );
        }
        if !sending && side == sender_side {
            return self.err(
                span,
                format!("endpoint `{ep}` sends `{msg}`; it cannot receive it"),
            );
        }
        Ok((MsgRef::new(ep, msg), mdef.clone(), side))
    }

    /// Creates the synchronisation event for a send/recv starting at
    /// `start`, honouring sync modes (paper §4.1):
    /// dependent modes become exact delays from the referenced message's
    /// last synchronisation; static modes bound the handshake delay.
    fn sync_event(
        &mut self,
        start: EventId,
        mref: &MsgRef,
        mdef: &MessageDef,
        side: Dir,
        is_send: bool,
        span: Span,
    ) -> EventId {
        let (ours, theirs) = match side {
            Dir::Left => (&mdef.sync_left, &mdef.sync_right),
            Dir::Right => (&mdef.sync_right, &mdef.sync_left),
        };
        // A dependent mode pins the synchronisation to a fixed offset from
        // another message of the same channel.
        for m in [ours, theirs] {
            if let SyncMode::Dependent { msg: m2, offset } = m {
                let anchor = MsgRef {
                    ep: mref.ep,
                    msg: Symbol::intern(m2),
                };
                if let Some(prev) = self.last_sync.get(&anchor).copied() {
                    let ev = self.graph.push(EventKind::Delay {
                        pred: prev,
                        cycles: *offset,
                    });
                    self.ready_checks.push(ReadyCheck {
                        msg: *mref,
                        start,
                        at: ev,
                        span,
                    });
                    self.last_sync.insert(*mref, ev);
                    return ev;
                }
            }
        }
        let max_delay = [ours, theirs]
            .iter()
            .filter_map(|m| match m {
                SyncMode::Static(k) => Some(*k),
                _ => None,
            })
            .min();
        let ev = self.graph.push(EventKind::Sync {
            pred: start,
            msg: *mref,
            is_send,
            min_delay: 0,
            max_delay,
        });
        self.last_sync.insert(*mref, ev);
        ev
    }

    fn contract_ends(&self, mref: &MsgRef, mdef: &MessageDef, done: EventId) -> Vec<Pattern> {
        match &mdef.lifetime {
            Duration::Cycles(k) => vec![Pattern::cycles(done, *k)],
            Duration::Message(m2) => vec![Pattern::msg(
                done,
                MsgRef {
                    ep: mref.ep,
                    msg: Symbol::intern(m2),
                },
            )],
            Duration::Eternal => vec![],
        }
    }

    fn contract_dur(&self, mref: &MsgRef, mdef: &MessageDef) -> Option<PatternDur> {
        match &mdef.lifetime {
            Duration::Cycles(k) => Some(PatternDur::Cycles(*k)),
            Duration::Message(m2) => Some(PatternDur::Msg(MsgRef {
                ep: mref.ep,
                msg: Symbol::intern(m2),
            })),
            Duration::Eternal => None,
        }
    }

    fn term(&mut self, t: &Term, start: EventId) -> Result<Built, IrError> {
        match &t.kind {
            TermKind::Lit { value, width } => Ok(Built {
                end: start,
                info: Info::pure(
                    Val::Const {
                        value: *value,
                        width: width.unwrap_or(0),
                    },
                    width.unwrap_or(0),
                    start,
                ),
            }),
            TermKind::Unit => Ok(Built {
                end: start,
                info: Info::unit(start),
            }),
            TermKind::Var(name) => {
                let Some(binding) = self.lookup(name) else {
                    return self.err(t.span, format!("unbound name `{name}`"));
                };
                let end = self.join_all(start, binding.end);
                Ok(Built {
                    end,
                    info: binding.info,
                })
            }
            TermKind::RegRead { reg, index } => {
                let Some(rdef) = self.ctx.reg(reg) else {
                    return self.err(t.span, format!("unknown register `{reg}`"));
                };
                let mut info = Info {
                    val: Val::Unit,
                    width: rdef.width,
                    created: start,
                    ends: Vec::new(),
                    regs: BTreeSet::from([Symbol::intern(reg)]),
                };
                let idx_val = match (index, rdef.depth) {
                    (Some(i), Some(depth)) => {
                        let bi = self.term(i, start)?;
                        if bi.end != start {
                            return self.err(i.span, "array index must be instantaneous");
                        }
                        let iw = index_width(depth);
                        Some(Box::new(info.absorb(bi.info.coerce(iw))))
                    }
                    (Some(_), None) => {
                        return self.err(t.span, format!("register `{reg}` is not an array"))
                    }
                    (None, Some(_)) => {
                        return self.err(t.span, format!("register array `{reg}` must be indexed"))
                    }
                    (None, None) => None,
                };
                info.val = Val::RegRead {
                    reg: Symbol::intern(reg),
                    index: idx_val,
                };
                Ok(Built { end: start, info })
            }
            TermKind::Seq { first, op, rest } => {
                let b1 = self.term(first, start)?;
                match op {
                    SeqOp::Wait => {
                        let b2 = self.term(rest, b1.end)?;
                        Ok(b2)
                    }
                    SeqOp::Join => {
                        let b2 = self.term(rest, start)?;
                        let end = self.join_all(b1.end, b2.end);
                        Ok(Built { end, info: b2.info })
                    }
                }
            }
            TermKind::Let {
                name,
                value,
                op,
                body,
            } => {
                let bv = self.term(value, start)?;
                let binding = Built2 {
                    end: bv.end,
                    info: bv.info,
                };
                let body_start = match op {
                    SeqOp::Wait => bv.end,
                    SeqOp::Join => start,
                };
                self.env.push((name.clone(), binding));
                let bb = self.term(body, body_start)?;
                self.env.pop();
                let end = match op {
                    SeqOp::Wait => bb.end,
                    SeqOp::Join => self.join_all(bv.end, bb.end),
                };
                Ok(Built { end, info: bb.info })
            }
            TermKind::If {
                cond,
                then_t,
                else_t,
            } => {
                let bc = self.term(cond, start)?;
                let bc_info = bc.info.coerce(1);
                self.record_use(
                    &bc_info,
                    bc.end,
                    Pattern::cycles(bc.end, 1),
                    "branch condition",
                    cond.span,
                );
                let c = self.graph.fresh_cond();
                self.conds.push(CondSite {
                    val: bc_info.val,
                    at: bc.end,
                });
                let bt_ev = self.graph.push(EventKind::Branch {
                    pred: bc.end,
                    cond: c,
                    taken: true,
                });
                let bf_ev = self.graph.push(EventKind::Branch {
                    pred: bc.end,
                    cond: c,
                    taken: false,
                });
                let bthen = self.term(then_t, bt_ev)?;
                let belse = match else_t {
                    Some(e) => self.term(e, bf_ev)?,
                    None => Built {
                        end: bf_ev,
                        info: Info::unit(bf_ev),
                    },
                };
                let merge = self.graph.push(EventKind::JoinAny {
                    preds: vec![bthen.end, belse.end],
                });
                let info = if bthen.info.val.is_unit() || belse.info.val.is_unit() {
                    let mut i = Info::unit(merge);
                    i.absorb(bthen.info);
                    i.absorb(belse.info);
                    i
                } else {
                    let (ti, ei) = coerce_pair(bthen.info, belse.info, t.span)?;
                    Info::combine(ti.width, merge, [ti, ei], |[then_v, else_v]| Val::Mux {
                        cond: c,
                        then_v: Box::new(then_v),
                        else_v: Box::new(else_v),
                    })
                };
                Ok(Built { end: merge, info })
            }
            TermKind::Send { ep, msg, value } => {
                let (mref, mdef, side) = self.resolve_msg(ep, msg, true, t.span)?;
                let bv = self.term(value, start)?;
                let payload = bv.info.coerce(mdef.width);
                if payload.width != mdef.width && !payload.val.is_unit() {
                    return self.err(
                        value.span,
                        format!(
                            "message `{mref}` carries {} bits but payload has {}",
                            mdef.width, payload.width
                        ),
                    );
                }
                let sstart = bv.end;
                let done = self.sync_event(sstart, &mref, &mdef, side, true, t.span);
                self.sends.push(SendSite {
                    msg: mref,
                    span: t.span,
                    start: sstart,
                    done,
                    dur: self.contract_dur(&mref, &mdef),
                    created: payload.created,
                    ends: payload.ends,
                    regs: payload.regs,
                });
                self.actions.push((
                    sstart,
                    ActionIr::SendData {
                        msg: mref,
                        value: payload.val,
                        done,
                    },
                ));
                Ok(Built {
                    end: done,
                    info: Info::unit(done),
                })
            }
            TermKind::Recv { ep, msg } => {
                let (mref, mdef, side) = self.resolve_msg(ep, msg, false, t.span)?;
                let done = self.sync_event(start, &mref, &mdef, side, false, t.span);
                let ends = self.contract_ends(&mref, &mdef, done);
                Ok(Built {
                    end: done,
                    info: Info {
                        val: Val::MsgData {
                            msg: mref,
                            recv: done,
                        },
                        width: mdef.width,
                        created: done,
                        ends,
                        regs: BTreeSet::new(),
                    },
                })
            }
            TermKind::Assign { reg, index, value } => {
                let Some(rdef) = self.ctx.reg(reg) else {
                    return self.err(t.span, format!("unknown register `{reg}`"));
                };
                let bv = self.term(value, start)?;
                let vinfo = bv.info.coerce(rdef.width);
                if vinfo.width != rdef.width {
                    return self.err(
                        value.span,
                        format!(
                            "register `{reg}` is {} bits but value has {}",
                            rdef.width, vinfo.width
                        ),
                    );
                }
                let mut at = bv.end;
                let idx_val = match (index, rdef.depth) {
                    (Some(i), Some(depth)) => {
                        let bi = self.term(i, start)?;
                        at = self.join_all(at, bi.end);
                        let ii = bi.info.coerce(index_width(depth));
                        self.record_use(&ii, at, Pattern::cycles(at, 1), "array index", i.span);
                        Some(ii.val)
                    }
                    (Some(_), None) => {
                        return self.err(t.span, format!("register `{reg}` is not an array"))
                    }
                    (None, Some(_)) => {
                        return self.err(t.span, format!("register array `{reg}` must be indexed"))
                    }
                    (None, None) => None,
                };
                self.record_use(
                    &vinfo,
                    at,
                    Pattern::cycles(at, 1),
                    &format!("value assigned to `{reg}`"),
                    value.span,
                );
                let reg_sym = Symbol::intern(reg);
                self.assigns.push(AssignSite {
                    reg: reg_sym,
                    at,
                    span: t.span,
                });
                self.actions.push((
                    at,
                    ActionIr::Assign {
                        reg: reg_sym,
                        index: idx_val,
                        value: vinfo.val,
                    },
                ));
                let end = self.graph.push(EventKind::Delay {
                    pred: at,
                    cycles: 1,
                });
                Ok(Built {
                    end,
                    info: Info::unit(end),
                })
            }
            TermKind::Cycle(n) => {
                let end = self.graph.push(EventKind::Delay {
                    pred: start,
                    cycles: *n,
                });
                Ok(Built {
                    end,
                    info: Info::unit(end),
                })
            }
            TermKind::Ready { ep, msg } => {
                // Readiness is observable regardless of direction.
                let Some((_side, chan)) = self.ctx.endpoint(ep) else {
                    return self.err(t.span, format!("unknown endpoint `{ep}`"));
                };
                if chan.message(msg).is_none() {
                    return self.err(
                        t.span,
                        format!("channel `{}` has no message `{msg}`", chan.name),
                    );
                }
                let mref = MsgRef::new(ep.as_str(), msg.as_str());
                Ok(Built {
                    end: start,
                    info: Info {
                        val: Val::Ready { msg: mref },
                        width: 1,
                        created: start,
                        ends: vec![Pattern::cycles(start, 1)],
                        regs: BTreeSet::new(),
                    },
                })
            }
            TermKind::Binop(op, a, b) => {
                let ba = self.term(a, start)?;
                let bb = self.term(b, start)?;
                let end = self.join_all(ba.end, bb.end);
                // Shift amounts keep their own width; everything else
                // must match.
                let (ia, ib) = if matches!(op, BinOp::Shl | BinOp::Shr) {
                    (ba.info.coerce(32), bb.info.coerce(8))
                } else {
                    coerce_pair(ba.info, bb.info, t.span)?
                };
                let width = match op {
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 1,
                    _ => ia.width,
                };
                let info = Info::combine(width, end, [ia, ib], |[a, b]| {
                    Val::Binop(*op, Box::new(a), Box::new(b))
                });
                Ok(Built { end, info })
            }
            TermKind::Unop(op, a) => {
                let ba = self.term(a, start)?;
                let ia = ba.info.coerce(32);
                let width = match op {
                    anvil_syntax::UnOp::Not => ia.width,
                    anvil_syntax::UnOp::LogicNot => 1,
                };
                let info = Info::combine(width, ba.end, [ia], |[a]| Val::Unop(*op, Box::new(a)));
                Ok(Built { end: ba.end, info })
            }
            TermKind::Slice { base, hi, lo } => {
                let bb = self.term(base, start)?;
                let ib = bb.info;
                if ib.is_adaptive() {
                    return self.err(base.span, "cannot slice an unsized literal");
                }
                if *hi >= ib.width {
                    return self.err(
                        t.span,
                        format!("slice [{hi}:{lo}] out of range for {} bits", ib.width),
                    );
                }
                let info = Info::combine(hi - lo + 1, bb.end, [ib], |[base]| Val::Slice {
                    base: Box::new(base),
                    hi: *hi,
                    lo: *lo,
                });
                Ok(Built { end: bb.end, info })
            }
            TermKind::Concat(parts) => {
                let mut end = start;
                let mut infos = Vec::new();
                for p in parts {
                    let bp = self.term(p, start)?;
                    if bp.info.is_adaptive() {
                        return self.err(p.span, "unsized literal in concat; give it a width");
                    }
                    end = self.join_all(end, bp.end);
                    infos.push(bp.info);
                }
                let width = infos.iter().map(|i| i.width).sum();
                let info = Info::combine_all(width, end, infos, Val::Concat);
                Ok(Built { end, info })
            }
            TermKind::ExternCall { func, args } => {
                let Some(f) = self.ctx.program.extern_fn(func) else {
                    return self.err(t.span, format!("unknown function `{func}`"));
                };
                if f.arg_widths.len() != args.len() {
                    return self.err(
                        t.span,
                        format!(
                            "`{func}` takes {} arguments, {} given",
                            f.arg_widths.len(),
                            args.len()
                        ),
                    );
                }
                let mut end = start;
                let mut infos = Vec::new();
                for (a, w) in args.iter().zip(&f.arg_widths) {
                    let ba = self.term(a, start)?;
                    end = self.join_all(end, ba.end);
                    let ia = ba.info.coerce(*w);
                    if ia.width != *w {
                        return self.err(
                            a.span,
                            format!("`{func}` argument is {} bits, got {}", w, ia.width),
                        );
                    }
                    infos.push(ia);
                }
                let func = Symbol::intern(func);
                let info = Info::combine_all(f.ret_width, end, infos, |args| Val::ExternCall {
                    func,
                    args,
                });
                Ok(Built { end, info })
            }
            TermKind::Dprint { label, value } => {
                let (val, end) = match value {
                    Some(v) => {
                        let bv = self.term(v, start)?;
                        let iv = bv.info.coerce(32);
                        self.record_use(
                            &iv,
                            bv.end,
                            Pattern::cycles(bv.end, 1),
                            "dprint value",
                            v.span,
                        );
                        (Some(iv.val), bv.end)
                    }
                    None => (None, start),
                };
                self.actions.push((
                    end,
                    ActionIr::DPrint {
                        label: label.clone(),
                        value: val,
                    },
                ));
                Ok(Built {
                    end,
                    info: Info::unit(end),
                })
            }
            TermKind::Recurse => {
                self.actions.push((start, ActionIr::Recurse));
                Ok(Built {
                    end: start,
                    info: Info::unit(start),
                })
            }
        }
    }
}

/// Width of an index into a `depth`-element array.
pub fn index_width(depth: usize) -> usize {
    (usize::BITS - (depth.max(2) - 1).leading_zeros()) as usize
}

fn coerce_pair(a: Info, b: Info, span: Span) -> Result<(Info, Info), IrError> {
    let (a, b) = match (a.is_adaptive(), b.is_adaptive()) {
        (true, true) => (a.coerce(32), b.coerce(32)),
        (true, false) => {
            let w = b.width;
            (a.coerce(w), b)
        }
        (false, true) => {
            let w = a.width;
            (a, b.coerce(w))
        }
        (false, false) => (a, b),
    };
    if a.width != b.width {
        return Err(IrError {
            message: format!("operand widths differ: {} vs {}", a.width, b.width),
            span,
        });
    }
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anvil_syntax::parse;

    fn build_first_thread(src: &str, unroll: usize) -> Result<ThreadIr, IrError> {
        let prog = parse(src).unwrap();
        let proc = &prog.procs[0];
        let ctx = BuildCtx {
            program: &prog,
            proc,
        };
        let (Thread::Loop(term) | Thread::Recursive(term)) = &proc.threads[0];
        build_thread(
            &ctx,
            term,
            unroll,
            matches!(proc.threads[0], Thread::Recursive(_)),
        )
    }

    #[test]
    fn counter_loop_builds() {
        let ir = build_first_thread(
            "proc p() { reg c : logic[8]; loop { set c := *c + 1 >> cycle 1 } }",
            1,
        )
        .unwrap();
        // root, delay(+1 assign), delay(+1 cycle) at minimum
        assert!(ir.graph.len() >= 3);
        assert_eq!(ir.assigns.len(), 1);
        assert_eq!(ir.uses.len(), 1);
        // finish is 2 cycles after root.
        assert_eq!(ir.graph.min_gap(ir.root, ir.finish), Some(2));
        assert_eq!(ir.graph.max_gap(ir.root, ir.finish), Some(2));
    }

    #[test]
    fn unsized_literal_adapts_to_register() {
        let ir = build_first_thread(
            "proc p() { reg c : logic[8]; loop { set c := *c + 1 >> cycle 1 } }",
            1,
        )
        .unwrap();
        let (_, ActionIr::Assign { value, .. }) = &ir.actions[0] else {
            panic!()
        };
        let Val::Binop(_, _, rhs) = value else {
            panic!()
        };
        assert_eq!(**rhs, Val::Const { value: 1, width: 8 });
    }

    #[test]
    fn recv_lifetime_from_contract() {
        let ir = build_first_thread(
            "chan c { left m : (logic[8]@#2), right res : (logic[8]@m) }
             proc p(ep : left c) {
                loop { let x = recv ep.m >> send ep.res (x) }
             }",
            1,
        )
        .unwrap();
        assert_eq!(ir.sends.len(), 1);
        let s = &ir.sends[0];
        // The payload (recv'd x) has a 2-cycle contract lifetime.
        assert_eq!(s.ends.len(), 1);
        assert!(matches!(s.ends[0].dur, PatternDur::Cycles(2)));
        // The send's own required duration is "until m next syncs".
        assert!(matches!(s.dur, Some(PatternDur::Msg(_))));
    }

    #[test]
    fn direction_misuse_rejected() {
        // `left m` is received by the left endpoint; the right endpoint
        // sends it and must not `recv` it.
        let err = build_first_thread(
            "chan c { left m : (logic[8]@#1) }
             proc p(ep : right c) { loop { let x = recv ep.m >> cycle 1 } }",
            1,
        )
        .unwrap_err();
        assert!(err.message.contains("cannot receive"));
    }

    #[test]
    fn unknown_names_rejected() {
        assert!(build_first_thread("proc p() { loop { set r := 1 } }", 1).is_err());
        assert!(build_first_thread("proc p() { loop { let x = recv nope.m >> x } }", 1).is_err());
        assert!(build_first_thread("proc p() { loop { y >> cycle 1 } }", 1).is_err());
    }

    #[test]
    fn width_mismatch_rejected() {
        let err = build_first_thread(
            "proc p() { reg a : logic[8]; reg b : logic[4]; loop { set a := *b } }",
            1,
        )
        .unwrap_err();
        assert!(err.message.contains("8 bits"));
    }

    #[test]
    fn if_produces_mux_and_joinany() {
        let ir = build_first_thread(
            "chan c { left m : (logic[8]@#4) }
             proc p(ep : left c) {
                reg r : logic[8];
                loop {
                    let x = recv ep.m >>
                    let y = if x == 0 { cycle 1 >> x } else { x + 1 } >>
                    set r := y
                }
             }",
            1,
        )
        .unwrap();
        assert_eq!(ir.conds.len(), 1);
        assert!(ir
            .graph
            .iter()
            .any(|(_, k)| matches!(k, EventKind::JoinAny { .. })));
        // Branches have different lengths: merge has min 0, max 1 from cond.
        let merge = ir
            .graph
            .iter()
            .find_map(|(id, k)| matches!(k, EventKind::JoinAny { .. }).then_some(id))
            .unwrap();
        let cond_at = ir.conds[0].at;
        assert_eq!(ir.graph.min_gap(cond_at, merge), Some(0));
        assert_eq!(ir.graph.max_gap(cond_at, merge), Some(1));
    }

    #[test]
    fn dependent_sync_is_exact_delay() {
        let ir = build_first_thread(
            "chan c {
                right req : (logic[8]@#1) @dyn-@dyn,
                left res : (logic[8]@#1) @#req+2-@#req+2
             }
             proc p(ep : left c) {
                loop { send ep.req (8'd1) >> let x = recv ep.res >> cycle 1 }
             }",
            1,
        )
        .unwrap();
        // The recv of res is pinned 2 cycles after req's sync: max_gap defined.
        let req_sync = ir
            .graph
            .iter()
            .find_map(|(id, k)| match k {
                EventKind::Sync { msg, .. } if msg.msg == "req" => Some(id),
                _ => None,
            })
            .unwrap();
        assert_eq!(ir.ready_checks.len(), 1);
        let rc = &ir.ready_checks[0];
        assert_eq!(ir.graph.min_gap(req_sync, rc.at), Some(2));
        assert_eq!(ir.graph.max_gap(req_sync, rc.at), Some(2));
    }

    #[test]
    fn two_iteration_unroll_duplicates_syncs() {
        let ir = build_first_thread(
            "chan c { left m : (logic[8]@#1) }
             proc p(ep : left c) { loop { let x = recv ep.m >> cycle 1 } }",
            2,
        )
        .unwrap();
        let syncs = ir.graph.sync_events(&MsgRef::new("ep", "m"));
        assert_eq!(syncs.len(), 2);
        assert!(ir.graph.lt(syncs[0], syncs[1]));
    }

    #[test]
    fn index_width_rule() {
        assert_eq!(index_width(2), 1);
        assert_eq!(index_width(16), 4);
        assert_eq!(index_width(17), 5);
        assert_eq!(index_width(1), 1);
    }
}

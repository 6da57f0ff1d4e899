//! Signal-level values carried by the event graph.
//!
//! A [`Val`] is a combinational expression over register reads and received
//! message payloads — precisely the stateless signals whose timing the
//! Anvil type system polices. Each value in the IR is paired with its
//! inferred lifetime (start event + set of end patterns) and its *register
//! dependency set*, from which register loan times are inferred
//! (paper §5.2).

use std::collections::BTreeSet;

use anvil_intern::Symbol;
use anvil_syntax::{BinOp, UnOp};

use crate::graph::{CondId, EventId, MsgRef, Pattern};

/// A combinational signal expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Val {
    /// Constant with definite width.
    Const {
        /// The value.
        value: u64,
        /// Width in bits; `0` marks an unsized literal still awaiting
        /// width inference (none survive a successful build).
        width: usize,
    },
    /// The empty value.
    Unit,
    /// Current value of a register (or one element of a register array).
    RegRead {
        /// Register name.
        reg: Symbol,
        /// Element index for arrays.
        index: Option<Box<Val>>,
    },
    /// Payload of a message whose receive completed at `recv`.
    MsgData {
        /// The message.
        msg: MsgRef,
        /// The receive completion event.
        recv: EventId,
    },
    /// `ready(π.m)`: whether the peer is ready to synchronise.
    Ready {
        /// The message.
        msg: MsgRef,
    },
    /// Binary operator application.
    Binop(BinOp, Box<Val>, Box<Val>),
    /// Unary operator application.
    Unop(UnOp, Box<Val>),
    /// Static bit slice.
    Slice {
        /// Sliced value.
        base: Box<Val>,
        /// High bit (inclusive).
        hi: usize,
        /// Low bit (inclusive).
        lo: usize,
    },
    /// Concatenation, most-significant first.
    Concat(Vec<Val>),
    /// Foreign combinational function application.
    ExternCall {
        /// Function name.
        func: Symbol,
        /// Arguments.
        args: Vec<Val>,
    },
    /// Value of an `if`: selected by which branch of `cond` executed.
    Mux {
        /// Which branch condition selects.
        cond: CondId,
        /// Value from the taken branch.
        then_v: Box<Val>,
        /// Value from the untaken branch.
        else_v: Box<Val>,
    },
}

impl Val {
    /// True when the value is (or collapses to) the empty value.
    pub fn is_unit(&self) -> bool {
        matches!(self, Val::Unit)
    }

    /// Walks the tree.
    pub fn visit(&self, f: &mut impl FnMut(&Val)) {
        f(self);
        match self {
            Val::Binop(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Val::Unop(_, a) | Val::Slice { base: a, .. } => a.visit(f),
            Val::Concat(parts) | Val::ExternCall { args: parts, .. } => {
                parts.iter().for_each(|p| p.visit(f))
            }
            Val::Mux { then_v, else_v, .. } => {
                then_v.visit(f);
                else_v.visit(f);
            }
            Val::RegRead { index: Some(i), .. } => i.visit(f),
            _ => {}
        }
    }
}

/// A value with its inferred timing metadata: the analogue of the paper's
/// typed term `(e_l, S_d)` plus the register dependency set of Def. C.14.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Info {
    /// The signal expression.
    pub val: Val,
    /// Width in bits (0 for `Unit` or still-unsized literals).
    pub width: usize,
    /// Event at which the value is created / first meaningful (`e_l`).
    pub created: EventId,
    /// Lifetime end patterns (`S_d`): the value expires at the earliest
    /// match. Empty = eternal.
    pub ends: Vec<Pattern>,
    /// Registers the value combinationally depends on.
    pub regs: BTreeSet<Symbol>,
}

impl Info {
    /// An eternal, register-free value (literals).
    pub fn pure(val: Val, width: usize, created: EventId) -> Info {
        Info {
            val,
            width,
            created,
            ends: Vec::new(),
            regs: BTreeSet::new(),
        }
    }

    /// The empty value at an event.
    pub fn unit(created: EventId) -> Info {
        Info::pure(Val::Unit, 0, created)
    }

    /// True if the width is still adaptive (unsized literal).
    pub fn is_adaptive(&self) -> bool {
        self.width == 0 && matches!(self.val, Val::Const { .. })
    }

    /// Forces an adaptive literal to a concrete width (no-op otherwise).
    pub fn coerce(mut self, width: usize) -> Info {
        if self.is_adaptive() {
            if let Val::Const { value, .. } = self.val {
                self.val = Val::Const { value, width };
                self.width = width;
            }
        }
        self
    }

    /// Merges the lifetime metadata of an operand into this value
    /// (intersection of lifetimes = union of end patterns; union of
    /// register dependencies) and hands back the operand's signal, so the
    /// caller can move it into the combined expression.
    pub(crate) fn absorb(&mut self, other: Info) -> Val {
        if self.ends.is_empty() {
            // End patterns are kept duplicate-free, so the operand's list
            // is already the union.
            self.ends = other.ends;
        } else {
            for e in other.ends {
                if !self.ends.contains(&e) {
                    self.ends.push(e);
                }
            }
        }
        let mut regs = other.regs;
        if regs.len() > self.regs.len() {
            std::mem::swap(&mut self.regs, &mut regs);
        }
        self.regs.extend(regs);
        other.val
    }

    /// The value `make(operand signals)` of the given width, created at
    /// `created`: each operand's signal moves into the result and its
    /// metadata is absorbed, in operand order.
    pub(crate) fn combine<const N: usize>(
        width: usize,
        created: EventId,
        operands: [Info; N],
        make: impl FnOnce([Val; N]) -> Val,
    ) -> Info {
        let mut info = Info::pure(Val::Unit, width, created);
        let vals = operands.map(|o| info.absorb(o));
        info.val = make(vals);
        info
    }

    /// [`Info::combine`] over a variable number of operands.
    pub(crate) fn combine_all(
        width: usize,
        created: EventId,
        operands: Vec<Info>,
        make: impl FnOnce(Vec<Val>) -> Val,
    ) -> Info {
        let mut info = Info::pure(Val::Unit, width, created);
        // Pushed one by one, not collected: a collect would reuse the
        // larger operand buffer for the signals.
        let mut vals = Vec::with_capacity(operands.len());
        for o in operands {
            vals.push(info.absorb(o));
        }
        info.val = make(vals);
        info
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coerce_fixes_adaptive_literals() {
        let i = Info::pure(
            Val::Const {
                value: 25,
                width: 0,
            },
            0,
            EventId(0),
        );
        assert!(i.is_adaptive());
        let i = i.coerce(8);
        assert_eq!(i.width, 8);
        assert_eq!(
            i.val,
            Val::Const {
                value: 25,
                width: 8
            }
        );
        // Sized values are untouched.
        let j = Info::pure(Val::Const { value: 1, width: 4 }, 4, EventId(0)).coerce(9);
        assert_eq!(j.width, 4);
    }

    #[test]
    fn absorb_unions_deps() {
        let mut a = Info::pure(Val::Unit, 0, EventId(0));
        a.regs.insert(Symbol::intern("r1"));
        a.ends.push(Pattern::cycles(EventId(0), 1));
        let mut b = Info::pure(Val::Unit, 0, EventId(0));
        b.regs.insert(Symbol::intern("r2"));
        b.ends.push(Pattern::cycles(EventId(0), 1));
        b.ends.push(Pattern::cycles(EventId(0), 2));
        a.absorb(b);
        assert_eq!(a.regs.len(), 2);
        assert_eq!(a.ends.len(), 2); // duplicate pattern not re-added
    }
}

//! Abstract syntax tree for the Anvil language (paper §4, Fig. 7).
//!
//! The surface language follows the paper: `chan` definitions carry message
//! contracts (data type, expiry duration, per-endpoint sync modes), `proc`
//! definitions hold registers, channel instantiations, spawns, and threads
//! (`loop` / `recursive`), and terms compose with the wait (`>>`) and join
//! (`;`) operators.
//!
//! Two small notational deviations from the paper, documented in the README:
//! logical shift right is written `>>>` (because `>>` is the wait operator),
//! and concatenation is the builtin `concat(a, b)` (because `{}` delimits
//! blocks).

use std::fmt;

/// The widest `logic[N]` type or sized literal (`N'h…`) the language
/// accepts, in bits: 2^16, the vector width IEEE 1800 §6.9.1 requires
/// every tool to support. Wider declarations are rejected at parse time,
/// before any later stage allocates storage for them.
pub const MAX_WIDTH: usize = 1 << 16;

/// The most bits a register array (`reg m : logic[W][D]`) may hold:
/// `W × D ≤ 2^16`, the same bound as one [`MAX_WIDTH`] vector, so the
/// depth is at most 2^16 too. Every array bit becomes a simulator
/// storage bit and a latch of the prover's circuit, and an indexed
/// access decodes every entry. With one indexed read and one indexed
/// write, a 2^16-bit array's circuit builds in 0.5 s and 55 MB on a
/// 2-vCPU x86-64 container; a 2^20-bit one took 5.5 s.
pub const MAX_ARRAY_BITS: usize = MAX_WIDTH;

/// The deepest nesting the parser accepts. One level is a nested
/// expression (a parenthesised term, a block, an `if` condition, a
/// call argument…), a prefix operator, a `let` value, or an item of a
/// `>>`/`;` sequence (sequences nest to the right). Deeper sources are
/// rejected at parse time, before the recursive parser — or any later
/// pass walking the tree — can exhaust a thread's stack. The costliest
/// kind, nested parentheses or blocks, takes about 4.7 KiB of stack per
/// level in an optimised build, so a source at the limit parses and
/// compiles in 1.2 MiB, inside a default 2 MiB thread stack.
pub const MAX_NESTING: usize = 256;

/// A half-open byte range into the source text, for diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// The smallest span covering both operands.
    pub fn join(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Computes 1-based `(line, column)` of the span start in `source`.
    ///
    /// Builds a throwaway [`crate::LineIndex`] — O(source) per call. When
    /// rendering several diagnostics against the same source, build one
    /// index and use [`crate::LineIndex::line_col`] for each span instead.
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        crate::LineIndex::new(source).line_col(self.start)
    }
}

/// Which way a message travels through a channel (paper §4.1): `Left`
/// messages travel from the right endpoint to the left endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Travels right-to-left; the left endpoint receives.
    Left,
    /// Travels left-to-right; the right endpoint receives.
    Right,
}

impl Dir {
    /// The other direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::Left => Dir::Right,
            Dir::Right => Dir::Left,
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dir::Left => write!(f, "left"),
            Dir::Right => write!(f, "right"),
        }
    }
}

/// A duration: how long after an anchor event something holds or happens
/// (paper §5.1). Static durations are cycle counts `#N`; dynamic durations
/// name a message whose next synchronisation ends the window.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Duration {
    /// `#N`: exactly `N` cycles.
    Cycles(u64),
    /// `msg`: until the named message (on the same channel) next
    /// synchronises.
    Message(String),
    /// `eternal`: never expires (constants).
    Eternal,
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Duration::Cycles(n) => write!(f, "#{n}"),
            Duration::Message(m) => write!(f, "{m}"),
            Duration::Eternal => write!(f, "eternal"),
        }
    }
}

/// Synchronisation mode of one endpoint for one message (paper §4.1).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SyncMode {
    /// `@dyn`: a run-time handshake wire is generated.
    Dynamic,
    /// `@#N`: the endpoint is ready within at most `N` cycles of the
    /// previous synchronisation of this message.
    Static(u64),
    /// `@#msg+N`: synchronises exactly `N` cycles after message `msg`.
    Dependent {
        /// The message this one is timed against.
        msg: String,
        /// Fixed offset in cycles.
        offset: u64,
    },
}

impl fmt::Display for SyncMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncMode::Dynamic => write!(f, "@dyn"),
            SyncMode::Static(n) => write!(f, "@#{n}"),
            SyncMode::Dependent { msg, offset } => write!(f, "@#{msg}+{offset}"),
        }
    }
}

/// One message in a channel definition, with its contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageDef {
    /// Message identifier, unique within the channel.
    pub name: String,
    /// Direction of travel.
    pub dir: Dir,
    /// Payload width in bits (`logic[N]`).
    pub width: usize,
    /// How long after synchronisation the payload stays unchanged.
    pub lifetime: Duration,
    /// Sync mode of the left endpoint.
    pub sync_left: SyncMode,
    /// Sync mode of the right endpoint.
    pub sync_right: SyncMode,
    /// Source location.
    pub span: Span,
}

/// A channel type definition (`chan name { ... }`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChanDef {
    /// Channel type name.
    pub name: String,
    /// Messages carried by channels of this type.
    pub messages: Vec<MessageDef>,
    /// Source location.
    pub span: Span,
}

impl ChanDef {
    /// Looks up a message by name.
    pub fn message(&self, name: &str) -> Option<&MessageDef> {
        self.messages.iter().find(|m| m.name == name)
    }
}

/// A register declaration inside a process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegDef {
    /// Register name.
    pub name: String,
    /// Width in bits.
    pub width: usize,
    /// `Some(depth)` declares a register array `logic[W][D]`.
    pub depth: Option<usize>,
    /// Optional initial value.
    pub init: Option<u64>,
    /// Source location.
    pub span: Span,
}

/// An endpoint parameter of a process: `name : left chan_type`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EndpointParam {
    /// Endpoint name inside the process body.
    pub name: String,
    /// Which side of the channel this endpoint is.
    pub side: Dir,
    /// Channel type name.
    pub chan: String,
    /// Source location.
    pub span: Span,
}

/// A channel instantiation: `chan l -- r : type;` creates both endpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChanInst {
    /// Name bound to the left endpoint.
    pub left: String,
    /// Name bound to the right endpoint.
    pub right: String,
    /// Channel type name.
    pub chan: String,
    /// Source location.
    pub span: Span,
}

/// A child process instantiation: `spawn p(ep1, ep2);`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spawn {
    /// Process to spawn.
    pub proc_name: String,
    /// Endpoint names passed as arguments.
    pub args: Vec<String>,
    /// Source location.
    pub span: Span,
}

/// A thread of a process (paper §4.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Thread {
    /// `loop { t }`: restarts after `t` completes.
    Loop(Term),
    /// `recursive { t }`: may restart earlier via `recurse`.
    Recursive(Term),
}

/// A process definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcDef {
    /// Process name.
    pub name: String,
    /// Endpoint parameters supplied at spawn time.
    pub params: Vec<EndpointParam>,
    /// Register declarations.
    pub regs: Vec<RegDef>,
    /// Locally instantiated channels.
    pub chans: Vec<ChanInst>,
    /// Child processes.
    pub spawns: Vec<Spawn>,
    /// Concurrent threads.
    pub threads: Vec<Thread>,
    /// Source location.
    pub span: Span,
}

/// An imported combinational function (`extern fn`), mirroring the paper's
/// integration of foreign SystemVerilog IP such as the OpenTitan S-box.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExternFn {
    /// Function name.
    pub name: String,
    /// Argument widths.
    pub arg_widths: Vec<usize>,
    /// Result width.
    pub ret_width: usize,
    /// Source location.
    pub span: Span,
}

/// A whole compilation unit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// Channel type definitions.
    pub chans: Vec<ChanDef>,
    /// Process definitions.
    pub procs: Vec<ProcDef>,
    /// Imported combinational functions.
    pub externs: Vec<ExternFn>,
}

impl Program {
    /// Looks up a channel definition by name.
    pub fn chan(&self, name: &str) -> Option<&ChanDef> {
        self.chans.iter().find(|c| c.name == name)
    }

    /// Looks up a process definition by name.
    pub fn proc(&self, name: &str) -> Option<&ProcDef> {
        self.procs.iter().find(|p| p.name == name)
    }

    /// Looks up an extern function by name.
    pub fn extern_fn(&self, name: &str) -> Option<&ExternFn> {
        self.externs.iter().find(|e| e.name == name)
    }
}

/// Binary operators on signal values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<<`
    Shl,
    /// `>>>` (wait operator owns `>>`)
    Shr,
}

impl BinOp {
    /// Binding power: a higher power binds tighter, and every level is
    /// left-associative. The parser builds trees by it and the printer
    /// adds parentheses by it.
    pub(crate) fn power(self) -> u8 {
        match self {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 1,
            BinOp::Or => 2,
            BinOp::Xor => 3,
            BinOp::And => 4,
            BinOp::Shl | BinOp::Shr => 5,
            BinOp::Add | BinOp::Sub => 6,
            BinOp::Mul => 7,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>>",
        };
        write!(f, "{s}")
    }
}

/// Unary operators on signal values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `~` bitwise complement
    Not,
    /// `!` logical not
    LogicNot,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Not => write!(f, "~"),
            UnOp::LogicNot => write!(f, "!"),
        }
    }
}

/// How two sequence items compose (paper §4.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SeqOp {
    /// `>>`: the second starts when the first completes.
    Wait,
    /// `;`: both start together.
    Join,
}

/// A term with its source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Term {
    /// The term proper.
    pub kind: TermKind,
    /// Source location.
    pub span: Span,
}

impl Term {
    /// Wraps a kind with a span.
    pub fn new(kind: TermKind, span: Span) -> Term {
        Term { kind, span }
    }
}

/// The syntax of terms (paper §4.4 / Fig. 7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TermKind {
    /// Integer literal; `width` is `None` for unsized decimals, which adapt
    /// to their context.
    Lit {
        /// The literal value.
        value: u64,
        /// Explicit width (`8'hff` style), if given.
        width: Option<usize>,
    },
    /// The empty value `()`.
    Unit,
    /// A let-bound name.
    Var(String),
    /// Register read `*r`, optionally indexed `*r[idx]` for arrays.
    RegRead {
        /// Register name.
        reg: String,
        /// Index term for register arrays.
        index: Option<Box<Term>>,
    },
    /// Sequencing: `first >> rest` or `first ; rest`.
    Seq {
        /// The first term.
        first: Box<Term>,
        /// Wait or join.
        op: SeqOp,
        /// The rest of the sequence.
        rest: Box<Term>,
    },
    /// `let name = value` followed (via `op`) by `body`, which sees `name`.
    Let {
        /// Bound identifier.
        name: String,
        /// Bound term.
        value: Box<Term>,
        /// How the body is sequenced after the binding.
        op: SeqOp,
        /// Scope of the binding.
        body: Box<Term>,
    },
    /// `if cond { then } else { else }`; the else branch defaults to `()`.
    If {
        /// 1-bit condition.
        cond: Box<Term>,
        /// Taken when the condition is non-zero.
        then_t: Box<Term>,
        /// Taken otherwise.
        else_t: Option<Box<Term>>,
    },
    /// `send ep.msg (value)`.
    Send {
        /// Endpoint name.
        ep: String,
        /// Message name.
        msg: String,
        /// Payload.
        value: Box<Term>,
    },
    /// `recv ep.msg`.
    Recv {
        /// Endpoint name.
        ep: String,
        /// Message name.
        msg: String,
    },
    /// Register assignment `set r := value` (completes after one cycle).
    Assign {
        /// Target register.
        reg: String,
        /// Index for register arrays.
        index: Option<Box<Term>>,
        /// Assigned value.
        value: Box<Term>,
    },
    /// `cycle N`: pure delay.
    Cycle(u64),
    /// `ready(ep.msg)`: 1-bit signal, whether the peer is ready.
    Ready {
        /// Endpoint name.
        ep: String,
        /// Message name.
        msg: String,
    },
    /// Binary operator application.
    Binop(BinOp, Box<Term>, Box<Term>),
    /// Unary operator application.
    Unop(UnOp, Box<Term>),
    /// Static bit slice `t[hi:lo]`.
    Slice {
        /// Sliced term.
        base: Box<Term>,
        /// High bit (inclusive).
        hi: usize,
        /// Low bit (inclusive).
        lo: usize,
    },
    /// `concat(a, b, ...)`, most-significant first.
    Concat(Vec<Term>),
    /// Call to an `extern fn`.
    ExternCall {
        /// Function name.
        func: String,
        /// Arguments.
        args: Vec<Term>,
    },
    /// `dprint "label" (value)?` — simulation-only print.
    Dprint {
        /// Message label.
        label: String,
        /// Optional printed value.
        value: Option<Box<Term>>,
    },
    /// `recurse` (only in `recursive` threads).
    Recurse,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_and_line_col() {
        let a = Span::new(4, 8);
        let b = Span::new(6, 12);
        assert_eq!(a.join(b), Span::new(4, 12));
        let src = "ab\ncd\nef";
        assert_eq!(Span::new(4, 5).line_col(src), (2, 2));
    }

    #[test]
    fn dir_flip() {
        assert_eq!(Dir::Left.flip(), Dir::Right);
        assert_eq!(Dir::Right.flip(), Dir::Left);
    }

    #[test]
    fn displays() {
        assert_eq!(Duration::Cycles(3).to_string(), "#3");
        assert_eq!(
            SyncMode::Dependent {
                msg: "wr".into(),
                offset: 1
            }
            .to_string(),
            "@#wr+1"
        );
        assert_eq!(BinOp::Shr.to_string(), ">>>");
    }
}

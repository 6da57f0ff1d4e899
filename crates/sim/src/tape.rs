//! The compiled simulation backend: a one-time lowering of a flattened
//! [`Module`] into a linear instruction tape.
//!
//! [`Tape::compile`] topologically schedules every combinational driver
//! (via [`Module::comb_schedule`]), width-checks it, and flattens its
//! recursive [`Expr`] tree into word-level ops over a flat `u64` arena:
//! every signal, register next-value, debug-print operand, array-write
//! operand, constant, and intermediate gets a pre-resolved *slot* (word
//! offset + width). [`LaneEngine`] then executes one settle as a single
//! non-recursive pass over the op list — no name lookups, no `HashMap`
//! probes, no per-node heap allocation — which is what makes brute-forcing
//! many stimulus schedules (BMC, differential fuzzing, scenario sweeps)
//! practical. It is the only tape executor: `SimBatch` runs it at a lane
//! stride of 4 to 32, and `Sim`'s compiled backend runs it at one lane.
//!
//! Lowering re-derives every expression width while allocating slots, so
//! it enforces the same driver width discipline as the facade's shared
//! pre-check ([`SimError::DriverWidth`] / [`SimError::MalformedExpr`]) —
//! a malformed module can never reach the executor.
//!
//! # Superinstructions
//!
//! After lowering, [`TapeOptions::fuse`] runs a peephole fusion pass over
//! the op list. Single-use temporaries produced by one op and consumed by
//! exactly the next tier of the dataflow collapse into *superinstructions*
//! that decode once and keep their intermediate in registers instead of
//! round-tripping through the arena:
//!
//! | superinstruction | replaces | pattern |
//! |---|---|---|
//! | `slice`/`resize` folds | 2 ops | `slice∘slice`, `slice∘resize`, `resize∘slice`, `resize∘resize` |
//! | `add3` | 2 ops | `(a + b) + c` add ladders |
//! | `logic3` | 2 ops | `(a ⊕ b) ⊕ c` for `⊕ ∈ {&, \|, ^}`, all widths equal |
//! | `mux_chain` | n ops | nested 2-way mux trees (priority selects) |
//! | `gather` | n+1 ops | `concat` of single-use `slice`/`resize` parts — one bit-field shuffle |
//! | `copy_range` | n ops | adjacent-slot copies coalesced after partitioning |
//!
//! Fusion is exact: every rule requires the producer to be an unprotected
//! single-def/single-use temp, so observable slots (signals, register
//! next-values, print/array operands) are never rewritten, and
//! out-of-range `slice` reads keep their zero-extension semantics.
//!
//! # Settle regions
//!
//! [`TapeOptions::dirty_regions`] partitions the scheduled op list into
//! *input-cone regions* — the weakly connected components of the
//! slot-dataflow graph, each contiguous in topological order. Invariants
//! the partition maintains (and the engines rely on):
//!
//! - ops in different regions share **no** slots, so regions settle
//!   independently and in any order;
//! - every input signal, register, and array maps to the set of regions
//!   that read it; a poke that changes a value, a register commit that
//!   lands a new value, or an array write marks exactly those regions
//!   dirty;
//! - a clean region's slots already hold their settled values, so the
//!   settle loop skips it entirely — the basis of settle-skipping for
//!   designs with quiet subgraphs.

#[cfg(target_arch = "x86_64")]
mod avx2;

use std::sync::Arc;

use anvil_rtl::{ArrayId, BinaryOp, Bits, Expr, Module, SignalId, SignalKind, UnaryOp};

use crate::engine::{
    eval_expr, rom_digest, rom_flags, Backend, SimBackend, SimError, StateHasher, ValueSource,
};

/// A pre-resolved storage location in the arena: `words` little-endian
/// `u64`s starting at word offset `off`, holding a `width`-bit value with
/// the unused high bits of the top word kept zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    off: u32,
    words: u32,
    width: u32,
}

impl Slot {
    #[inline(always)]
    fn off(self) -> usize {
        self.off as usize
    }

    #[inline(always)]
    fn words(self) -> usize {
        self.words as usize
    }

    #[inline(always)]
    fn width(self) -> usize {
        self.width as usize
    }

    fn range(self) -> std::ops::Range<usize> {
        self.off()..self.off() + self.words()
    }

    /// Mask keeping only the valid bits of the top word.
    #[inline(always)]
    fn top_mask(self) -> u64 {
        let r = self.width % 64;
        if r == 0 {
            u64::MAX
        } else {
            (1u64 << r) - 1
        }
    }
}

fn words_for(width: usize) -> usize {
    width.div_ceil(64).max(1)
}

/// Comparison selector for [`Op::Cmp`].
#[derive(Clone, Copy, Debug)]
enum CmpKind {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Bitwise operator selector for [`Op::Logic3`].
#[derive(Clone, Copy, Debug)]
enum BwKind {
    And,
    Or,
    Xor,
}

/// Reduction selector for [`Op::Red`].
#[derive(Clone, Copy, Debug)]
enum RedKind {
    And,
    Or,
    Xor,
    LogicNot,
}

/// One word-level instruction. All operands are pre-resolved slots; the
/// executor is a single flat `match` loop with no recursion.
#[derive(Clone, Debug)]
enum Op {
    /// `dst = src` (equal widths).
    Copy { dst: Slot, src: Slot },
    /// `dst = ~a`.
    Not { dst: Slot, a: Slot },
    /// `dst = -a` (two's complement, wrapping).
    Neg { dst: Slot, a: Slot },
    /// `dst = a + b` (wrapping).
    Add { dst: Slot, a: Slot, b: Slot },
    /// `dst = a - b` (wrapping).
    Sub { dst: Slot, a: Slot, b: Slot },
    /// `dst = a * b` (wrapping; uses the engine scratch buffer).
    Mul { dst: Slot, a: Slot, b: Slot },
    /// `dst = a & b`.
    And { dst: Slot, a: Slot, b: Slot },
    /// `dst = a | b`.
    Or { dst: Slot, a: Slot, b: Slot },
    /// `dst = a ^ b`.
    Xor { dst: Slot, a: Slot, b: Slot },
    /// 1-bit comparison result.
    Cmp {
        dst: Slot,
        a: Slot,
        b: Slot,
        kind: CmpKind,
    },
    /// 1-bit reduction result.
    Red { dst: Slot, a: Slot, kind: RedKind },
    /// `dst = a << amt` / `a >> amt`; amount read from a slot at run time.
    Shift {
        dst: Slot,
        a: Slot,
        amt: Slot,
        left: bool,
    },
    /// `dst = cond ? t : e` (truthy = any bit set).
    Mux {
        dst: Slot,
        cond: Slot,
        t: Slot,
        e: Slot,
    },
    /// `dst = src[lo +: dst.width]`, zero-extending past the top of `src`.
    Slice { dst: Slot, src: Slot, lo: u32 },
    /// Concatenation: each part is OR-ed into `dst` at its bit offset
    /// (parts tile `dst` exactly; `dst` is zeroed first).
    Concat {
        dst: Slot,
        parts: Box<[(Slot, u32)]>,
    },
    /// Zero-extension or truncation.
    Resize { dst: Slot, src: Slot },
    /// Superinstruction: a bit-field gather. Each part ORs `width` bits
    /// of `src` starting at `src_lo` into `dst` at `dst_lo` (bits past
    /// the top of `src` read as zero; parts tile `dst`, which is zeroed
    /// first). Fused from single-use [`Op::Slice`]/[`Op::Resize`] temps
    /// feeding one [`Op::Concat`] — the byte-shuffle pattern (cipher
    /// state permutations, bus packing) — so each shuffled field moves
    /// source→destination in one pass instead of materializing a temp.
    Gather { dst: Slot, parts: Box<[GatherPart]> },
    /// Asynchronous memory read; out-of-range indices yield zero.
    ArrayRead { dst: Slot, array: u32, index: Slot },
    /// Superinstruction: `dst = a + b + c` (wrapping; all widths equal).
    /// Fused from an add-with-carry ladder — one decode, one carry chain,
    /// and the intermediate sum's slot is never materialized.
    Add3 {
        dst: Slot,
        a: Slot,
        b: Slot,
        c: Slot,
    },
    /// Superinstruction: `dst = (a <first> b) <second> c` for bitwise
    /// operators (all five widths equal). Fused from bitwise reduction
    /// trees — XOR ladders in ciphers and CRCs, AND/OR enable chains —
    /// so one decode covers two ops and the intermediate result is never
    /// materialized. Exact because bitwise ops are word-local and the
    /// equal widths make the intermediate mask a no-op.
    Logic3 {
        dst: Slot,
        a: Slot,
        b: Slot,
        c: Slot,
        first: BwKind,
        second: BwKind,
    },
    /// Superinstruction: a priority mux tree. The first case whose
    /// condition is truthy selects its value; otherwise `default`. Fused
    /// from an else-chained run of [`Op::Mux`]es — one decode and one
    /// copy replace `cases.len()` mux blends through eliminated temps.
    MuxChain {
        dst: Slot,
        /// `(cond, value)` pairs, highest priority first.
        cases: Box<[(Slot, Slot)]>,
        default: Slot,
    },
    /// Superinstruction: one contiguous block copy covering what was a
    /// run of adjacent [`Op::Copy`]s (raw word offsets, not slots).
    CopyRange {
        dst_off: u32,
        src_off: u32,
        words: u32,
    },
}

impl Op {
    /// Short stable name of the variant (op-mix histograms).
    fn mnemonic(&self) -> &'static str {
        match self {
            Op::Copy { .. } => "copy",
            Op::Not { .. } => "not",
            Op::Neg { .. } => "neg",
            Op::Add { .. } => "add",
            Op::Sub { .. } => "sub",
            Op::Mul { .. } => "mul",
            Op::And { .. } => "and",
            Op::Or { .. } => "or",
            Op::Xor { .. } => "xor",
            Op::Cmp { .. } => "cmp",
            Op::Red { .. } => "red",
            Op::Shift { .. } => "shift",
            Op::Mux { .. } => "mux",
            Op::Slice { .. } => "slice",
            Op::Concat { .. } => "concat",
            Op::Resize { .. } => "resize",
            Op::Gather { .. } => "gather",
            Op::ArrayRead { .. } => "array_read",
            Op::Add3 { .. } => "add3",
            Op::Logic3 { .. } => "logic3",
            Op::MuxChain { .. } => "mux_chain",
            Op::CopyRange { .. } => "copy_range",
        }
    }

    /// All slots this op touches (destination first). `CopyRange` is
    /// created only after region partitioning, so it never appears here.
    fn slots(&self, out: &mut Vec<Slot>) {
        out.clear();
        match self {
            Op::Copy { dst, src } => out.extend([*dst, *src]),
            Op::Not { dst, a } | Op::Neg { dst, a } | Op::Red { dst, a, .. } => {
                out.extend([*dst, *a])
            }
            Op::Add { dst, a, b }
            | Op::Sub { dst, a, b }
            | Op::Mul { dst, a, b }
            | Op::And { dst, a, b }
            | Op::Or { dst, a, b }
            | Op::Xor { dst, a, b }
            | Op::Cmp { dst, a, b, .. } => out.extend([*dst, *a, *b]),
            Op::Shift { dst, a, amt, .. } => out.extend([*dst, *a, *amt]),
            Op::Mux { dst, cond, t, e } => out.extend([*dst, *cond, *t, *e]),
            Op::Slice { dst, src, .. } | Op::Resize { dst, src } => out.extend([*dst, *src]),
            Op::Concat { dst, parts } => {
                out.push(*dst);
                out.extend(parts.iter().map(|(s, _)| *s));
            }
            Op::Gather { dst, parts } => {
                out.push(*dst);
                out.extend(parts.iter().map(|p| p.src));
            }
            Op::ArrayRead { dst, index, .. } => out.extend([*dst, *index]),
            Op::Add3 { dst, a, b, c } | Op::Logic3 { dst, a, b, c, .. } => {
                out.extend([*dst, *a, *b, *c])
            }
            Op::MuxChain {
                dst,
                cases,
                default,
            } => {
                out.extend([*dst, *default]);
                for (c, v) in cases.iter() {
                    out.extend([*c, *v]);
                }
            }
            Op::CopyRange { .. } => unreachable!("CopyRange exists only post-partitioning"),
        }
    }

    fn dst_off(&self) -> Option<u32> {
        match self {
            Op::Copy { dst, .. }
            | Op::Not { dst, .. }
            | Op::Neg { dst, .. }
            | Op::Add { dst, .. }
            | Op::Sub { dst, .. }
            | Op::Mul { dst, .. }
            | Op::And { dst, .. }
            | Op::Or { dst, .. }
            | Op::Xor { dst, .. }
            | Op::Cmp { dst, .. }
            | Op::Red { dst, .. }
            | Op::Shift { dst, .. }
            | Op::Mux { dst, .. }
            | Op::Slice { dst, .. }
            | Op::Concat { dst, .. }
            | Op::Resize { dst, .. }
            | Op::Gather { dst, .. }
            | Op::ArrayRead { dst, .. }
            | Op::Add3 { dst, .. }
            | Op::Logic3 { dst, .. }
            | Op::MuxChain { dst, .. } => Some(dst.off),
            Op::CopyRange { .. } => None,
        }
    }
}

/// One part of an [`Op::Gather`]: `width` bits of `src` starting at bit
/// `src_lo`, placed into the destination at bit `dst_lo`.
#[derive(Clone, Copy, Debug)]
struct GatherPart {
    src: Slot,
    dst_lo: u32,
    src_lo: u32,
    width: u32,
}

/// A lowered synchronous array write port.
#[derive(Clone, Debug)]
struct TapeWrite {
    array: u32,
    enable: Slot,
    index: Slot,
    data: Slot,
}

/// A lowered debug print.
#[derive(Clone, Debug)]
struct TapePrint {
    enable: Slot,
    label: String,
    value: Option<Slot>,
}

/// One memory of the tape: its shape and its word-packed power-on image,
/// element `e` at `init[e * wpe .. (e + 1) * wpe]`.
///
/// A memory that no write port targets is a ROM. Its image lives only
/// here, once per tape: every [`LaneEngine`] sharing the tape reads `init`
/// directly, and only a test poke makes a laned copy. Its fingerprint
/// entry is `rom_digest`, taken once at lowering.
#[derive(Clone, Debug)]
struct TapeArray {
    width: u32,
    depth: u32,
    wpe: u32,
    init: Vec<u64>,
    /// `Some(digest of init)` for a ROM, `None` for a writable memory.
    rom_digest: Option<u64>,
}

/// Compile-time knobs for the tape optimization layer. The defaults
/// (everything on, auto stride) are what
/// [`TapeProgram::compile`](crate::TapeProgram::compile) and `Sim` use;
/// the differential test matrix exercises every combination against the
/// tree-walking reference engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TapeOptions {
    /// Run the superinstruction fusion pass (slice/resize folds,
    /// add-ladder fusion, mux-chain fusion, copy coalescing).
    pub fuse: bool,
    /// Partition the tape into input-cone regions and let the tape
    /// executor skip settling regions whose inputs did not change — in
    /// `SimBatch` lane groups and in `Sim`'s compiled backend alike.
    pub dirty_regions: bool,
    /// Lane-engine stride override. `None` consults `ANVIL_SIM_LANES`
    /// and falls back to the default stride; `Some(w)` must be one of
    /// the monomorphized widths {4, 8, 16, 32}.
    pub stride: Option<usize>,
}

impl Default for TapeOptions {
    fn default() -> Self {
        TapeOptions {
            fuse: true,
            dirty_regions: true,
            stride: None,
        }
    }
}

/// The monomorphized lane-engine widths.
pub(crate) const LANE_WIDTHS: [usize; 4] = [4, 8, 16, 32];

/// Validates a lane stride against the monomorphized widths.
pub(crate) fn check_lane_width(w: usize) -> Result<usize, SimError> {
    if LANE_WIDTHS.contains(&w) {
        Ok(w)
    } else {
        Err(SimError::UnknownLaneWidth(w.to_string()))
    }
}

/// Stride requested through `ANVIL_SIM_LANES`, if any. Mirrors
/// [`Backend::from_env`]: an unset variable means "no preference", and
/// anything unparseable or outside {4, 8, 16, 32} is a structured error
/// rather than a silently-applied default.
pub(crate) fn lane_width_from_env() -> Result<Option<usize>, SimError> {
    use std::env::VarError;
    match std::env::var("ANVIL_SIM_LANES") {
        Err(VarError::NotPresent) => Ok(None),
        Err(VarError::NotUnicode(raw)) => Err(SimError::UnknownLaneWidth(
            raw.to_string_lossy().into_owned(),
        )),
        Ok(v) if v.is_empty() => Ok(None),
        Ok(v) => match v.parse::<usize>() {
            Ok(n) => check_lane_width(n).map(Some),
            Err(_) => Err(SimError::UnknownLaneWidth(v)),
        },
    }
}

/// The immutable compiled program: share one `Arc<Tape>` across as many
/// [`LaneEngine`] instances (and threads) as needed — e.g. the bounded
/// model checker lowers once and replays thousands of traces.
pub(crate) struct Tape {
    /// The settle program: region-contiguous, and topologically ordered
    /// within each region (fused superinstructions included).
    ops: Vec<Op>,
    /// Op-index ranges of the settle regions (see the module docs):
    /// `ops[r.0 as usize .. r.1 as usize]` is one region; regions share
    /// no dynamic slots, so a lane engine may skip any clean region.
    regions: Vec<(u32, u32)>,
    /// Region reading each signal's slot, indexed by [`SignalId`]
    /// (`u32::MAX` when no op reads it — poking it dirties nothing).
    sig_region: Vec<u32>,
    /// Region reading each committed register's current-value slot,
    /// parallel to `reg_commits` (`u32::MAX` when unread).
    commit_region: Vec<u32>,
    /// Regions containing an [`Op::ArrayRead`] of each array: a write to
    /// the array (committed port or test poke) dirties all of them.
    array_regions: Vec<Vec<u32>>,
    /// Current-value slot of every signal, indexed by [`SignalId`].
    sig_slots: Vec<Slot>,
    /// `(current, next)` slot pairs for registers with next-value drivers.
    reg_commits: Vec<(Slot, Slot)>,
    /// Current-value slots of all registers in id order (fingerprints).
    reg_fp: Vec<Slot>,
    writes: Vec<TapeWrite>,
    prints: Vec<TapePrint>,
    arrays: Vec<TapeArray>,
    /// Power-on arena image: zeros, register inits, and materialized
    /// constants.
    init_arena: Vec<u64>,
}

/// Bump-allocating tape builder.
struct Builder {
    arena: Vec<u64>,
    ops: Vec<Op>,
    sig_slots: Vec<Slot>,
}

impl Builder {
    fn alloc(&mut self, width: usize) -> Slot {
        let words = words_for(width);
        let off = self.arena.len();
        self.arena.resize(off + words, 0);
        Slot {
            off: off as u32,
            words: words as u32,
            width: width as u32,
        }
    }

    /// Materializes a constant into the arena image (no op emitted; the
    /// slot is never written at run time).
    fn alloc_const(&mut self, value: &Bits) -> Slot {
        let slot = self.alloc(value.width());
        self.write_const(slot, value);
        slot
    }

    fn write_const(&mut self, slot: Slot, value: &Bits) {
        let words = value.as_words();
        self.arena[slot.range()].copy_from_slice(&words[..slot.words()]);
    }

    /// Lowers `e`, returning the slot holding its value. When `want` is
    /// given and matches the expression's width, the result is computed
    /// directly into it (leaf expressions ignore `want`; the caller copies).
    fn expr(&mut self, m: &Module, e: &Expr, want: Option<Slot>) -> Result<Slot, SimError> {
        let dst_for = |b: &mut Builder, w: usize| match want {
            Some(d) if d.width() == w => d,
            _ => b.alloc(w),
        };
        match e {
            Expr::Const(b) => Ok(self.alloc_const(b)),
            Expr::Signal(s) => self
                .sig_slots
                .get(s.0)
                .copied()
                .ok_or_else(|| SimError::MalformedExpr(format!("unknown signal {s:?}"))),
            Expr::Unary(op, a) => {
                let sa = self.expr(m, a, None)?;
                match op {
                    UnaryOp::Not => {
                        let dst = dst_for(self, sa.width());
                        self.ops.push(Op::Not { dst, a: sa });
                        Ok(dst)
                    }
                    UnaryOp::Neg => {
                        let dst = dst_for(self, sa.width());
                        self.ops.push(Op::Neg { dst, a: sa });
                        Ok(dst)
                    }
                    UnaryOp::RedAnd | UnaryOp::RedOr | UnaryOp::RedXor | UnaryOp::LogicNot => {
                        let dst = dst_for(self, 1);
                        let kind = match op {
                            UnaryOp::RedAnd => RedKind::And,
                            UnaryOp::RedOr => RedKind::Or,
                            UnaryOp::RedXor => RedKind::Xor,
                            _ => RedKind::LogicNot,
                        };
                        self.ops.push(Op::Red { dst, a: sa, kind });
                        Ok(dst)
                    }
                }
            }
            Expr::Binary(op, a, b) => {
                let sa = self.expr(m, a, None)?;
                let sb = self.expr(m, b, None)?;
                match op {
                    BinaryOp::Shl | BinaryOp::Shr => {
                        let dst = dst_for(self, sa.width());
                        self.ops.push(Op::Shift {
                            dst,
                            a: sa,
                            amt: sb,
                            left: matches!(op, BinaryOp::Shl),
                        });
                        Ok(dst)
                    }
                    _ => {
                        if sa.width != sb.width {
                            return Err(SimError::MalformedExpr(format!(
                                "operand width mismatch {} vs {} in {op:?}",
                                sa.width, sb.width
                            )));
                        }
                        if op.is_comparison() {
                            let dst = dst_for(self, 1);
                            let kind = match op {
                                BinaryOp::Eq => CmpKind::Eq,
                                BinaryOp::Ne => CmpKind::Ne,
                                BinaryOp::Lt => CmpKind::Lt,
                                BinaryOp::Le => CmpKind::Le,
                                BinaryOp::Gt => CmpKind::Gt,
                                _ => CmpKind::Ge,
                            };
                            self.ops.push(Op::Cmp {
                                dst,
                                a: sa,
                                b: sb,
                                kind,
                            });
                            Ok(dst)
                        } else {
                            let dst = dst_for(self, sa.width());
                            self.ops.push(match op {
                                BinaryOp::Add => Op::Add { dst, a: sa, b: sb },
                                BinaryOp::Sub => Op::Sub { dst, a: sa, b: sb },
                                BinaryOp::Mul => Op::Mul { dst, a: sa, b: sb },
                                BinaryOp::And => Op::And { dst, a: sa, b: sb },
                                BinaryOp::Or => Op::Or { dst, a: sa, b: sb },
                                _ => Op::Xor { dst, a: sa, b: sb },
                            });
                            Ok(dst)
                        }
                    }
                }
            }
            Expr::Mux {
                cond,
                then_e,
                else_e,
            } => {
                let sc = self.expr(m, cond, None)?;
                let st = self.expr(m, then_e, None)?;
                let se = self.expr(m, else_e, None)?;
                if st.width != se.width {
                    return Err(SimError::MalformedExpr(format!(
                        "mux branch width mismatch {} vs {}",
                        st.width, se.width
                    )));
                }
                let dst = dst_for(self, st.width());
                self.ops.push(Op::Mux {
                    dst,
                    cond: sc,
                    t: st,
                    e: se,
                });
                Ok(dst)
            }
            Expr::Concat(parts) => {
                if parts.is_empty() {
                    return Err(SimError::MalformedExpr("empty concat".into()));
                }
                let slots = parts
                    .iter()
                    .map(|p| self.expr(m, p, None))
                    .collect::<Result<Vec<_>, _>>()?;
                let width: usize = slots.iter().map(|s| s.width()).sum();
                // Parts are given most-significant first; compute each
                // part's bit offset in the result.
                let mut placed = Vec::with_capacity(slots.len());
                let mut lo = width;
                for s in &slots {
                    lo -= s.width();
                    placed.push((*s, lo as u32));
                }
                let dst = dst_for(self, width);
                self.ops.push(Op::Concat {
                    dst,
                    parts: placed.into_boxed_slice(),
                });
                Ok(dst)
            }
            Expr::Slice { base, lo, width } => {
                if *width == 0 {
                    return Err(SimError::MalformedExpr("zero-width slice".into()));
                }
                let src = self.expr(m, base, None)?;
                let dst = dst_for(self, *width);
                self.ops.push(Op::Slice {
                    dst,
                    src,
                    lo: *lo as u32,
                });
                Ok(dst)
            }
            Expr::ArrayRead { array, index } => {
                let decl = m
                    .arrays
                    .get(array.0)
                    .ok_or_else(|| SimError::MalformedExpr(format!("unknown array {array:?}")))?;
                let index = self.expr(m, index, None)?;
                let dst = dst_for(self, decl.width);
                self.ops.push(Op::ArrayRead {
                    dst,
                    array: array.0 as u32,
                    index,
                });
                Ok(dst)
            }
            Expr::Resize { base, width } => {
                if *width == 0 {
                    return Err(SimError::MalformedExpr("zero-width resize".into()));
                }
                let src = self.expr(m, base, None)?;
                let dst = dst_for(self, *width);
                self.ops.push(Op::Resize { dst, src });
                Ok(dst)
            }
        }
    }

    /// Lowers a driver expression into `target`, enforcing the declared
    /// width (`name` labels the error).
    ///
    /// Constant drivers still lower to a `Copy` from a materialized const
    /// slot rather than being baked into the arena image: the signal slot
    /// must start at zero so first-cycle toggle counts match the tree
    /// engine exactly.
    fn drive(&mut self, m: &Module, e: &Expr, target: Slot, name: &str) -> Result<(), SimError> {
        let s = self.expr(m, e, Some(target))?;
        if s.width != target.width {
            return Err(SimError::DriverWidth {
                signal: name.to_string(),
                expected: target.width(),
                found: s.width(),
            });
        }
        if s != target {
            self.ops.push(Op::Copy {
                dst: target,
                src: s,
            });
        }
        Ok(())
    }
}

impl Tape {
    /// Lowers a flattened module into an instruction tape.
    ///
    /// # Errors
    ///
    /// [`SimError::NotFlat`] if instances remain,
    /// [`SimError::CombinationalLoop`] on a cyclic combinational graph,
    /// [`SimError::DriverWidth`] / [`SimError::MalformedExpr`] when a
    /// driver fails the width check.
    pub(crate) fn compile(module: Arc<Module>) -> Result<Tape, SimError> {
        Tape::compile_with(module, TapeOptions::default())
    }

    /// [`Tape::compile`] with explicit optimization options (the
    /// differential test matrix runs every combination).
    pub(crate) fn compile_with(module: Arc<Module>, opts: TapeOptions) -> Result<Tape, SimError> {
        if !module.instances.is_empty() {
            return Err(SimError::NotFlat(module.name.clone()));
        }
        let order = module
            .comb_schedule()
            .map_err(|sid| SimError::CombinationalLoop(module.signal(sid).name.clone()))?;

        let mut b = Builder {
            arena: Vec::new(),
            ops: Vec::new(),
            sig_slots: Vec::new(),
        };

        // 1. A current-value slot per signal; register inits materialized.
        for s in &module.signals {
            let slot = b.alloc(s.width);
            if let (SignalKind::Reg, Some(init)) = (&s.kind, &s.init) {
                b.write_const(slot, init);
            }
            b.sig_slots.push(slot);
        }

        // 2. Combinational drivers in topological order.
        for id in &order {
            let target = b.sig_slots[id.0];
            let name = module.signal(*id).name.clone();
            b.drive(&module, &module.assigns[id], target, &name)?;
        }

        // 3. Debug-print operands (read the settled state).
        let mut prints = Vec::with_capacity(module.prints.len());
        for p in &module.prints {
            let enable = b.expr(&module, &p.enable, None)?;
            let value = match &p.value {
                Some(v) => Some(b.expr(&module, v, None)?),
                None => None,
            };
            prints.push(TapePrint {
                enable,
                label: p.label.clone(),
                value,
            });
        }

        // 4. Register next-values into dedicated `next` slots, in id order.
        let mut reg_ids: Vec<SignalId> = module.reg_next.keys().copied().collect();
        reg_ids.sort();
        let mut reg_commits = Vec::with_capacity(reg_ids.len());
        for id in reg_ids {
            let sig = module.signal(id);
            let next = b.alloc(sig.width);
            b.drive(&module, &module.reg_next[&id], next, &sig.name)?;
            reg_commits.push((b.sig_slots[id.0], next));
        }

        // 5. Array-write operands.
        let mut writes = Vec::with_capacity(module.array_writes.len());
        for w in &module.array_writes {
            let decl = &module.arrays[w.array.0];
            let enable = b.expr(&module, &w.enable, None)?;
            let index = b.expr(&module, &w.index, None)?;
            let data = b.expr(&module, &w.data, None)?;
            if data.width() != decl.width {
                return Err(SimError::DriverWidth {
                    signal: decl.name.clone(),
                    expected: decl.width,
                    found: data.width(),
                });
            }
            writes.push(TapeWrite {
                array: w.array.0 as u32,
                enable,
                index,
                data,
            });
        }

        // 6. Word-packed memory images; each ROM's digested once here.
        let arrays = module
            .arrays
            .iter()
            .zip(rom_flags(&module))
            .map(|(a, rom)| {
                let wpe = words_for(a.width);
                let mut init = vec![0u64; wpe * a.depth];
                for (i, v) in a.init.iter().enumerate() {
                    let words = v.as_words();
                    init[i * wpe..i * wpe + words.len().min(wpe)]
                        .copy_from_slice(&words[..words.len().min(wpe)]);
                }
                TapeArray {
                    width: a.width as u32,
                    depth: a.depth as u32,
                    wpe: wpe as u32,
                    rom_digest: rom.then(|| rom_digest(a.width, &init)),
                    init,
                }
            })
            .collect();

        let reg_fp = module
            .iter_signals()
            .filter(|(_, s)| s.kind == SignalKind::Reg)
            .map(|(id, _)| b.sig_slots[id.0])
            .collect();

        let mut tape = Tape {
            ops: b.ops,
            regions: Vec::new(),
            sig_region: Vec::new(),
            commit_region: Vec::new(),
            array_regions: Vec::new(),
            sig_slots: b.sig_slots,
            reg_commits,
            reg_fp,
            writes,
            prints,
            arrays,
            init_arena: b.arena,
        };
        if opts.fuse {
            let protected = protected_offs(&tape);
            tape.ops = fuse_ops(std::mem::take(&mut tape.ops), &protected);
        }
        partition_regions(&mut tape, opts.dirty_regions, opts.fuse);
        Ok(tape)
    }

    /// Histogram of op mnemonics over the settle program (data for
    /// choosing future fusion candidates; `bench_sim --op-mix`).
    pub(crate) fn op_mix(&self) -> Vec<(&'static str, usize)> {
        let mut counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
        for op in &self.ops {
            *counts.entry(op.mnemonic()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Number of settle regions (1 when dirty-region partitioning is off
    /// or the whole design is one connected input cone).
    pub(crate) fn region_count(&self) -> usize {
        self.regions.len()
    }
}

// ---- tape optimization: superinstruction fusion + region partition ------

/// Slot offsets that must keep their lowered values: signal slots,
/// register next-value slots, and every commit-time operand (print
/// enables/values, array-write enables/indices/data). Everything else is
/// a lowering temp, eligible for elimination when written and read
/// exactly once.
fn protected_offs(t: &Tape) -> std::collections::HashSet<u32> {
    let mut p: std::collections::HashSet<u32> = t.sig_slots.iter().map(|s| s.off).collect();
    for (cur, next) in &t.reg_commits {
        p.insert(cur.off);
        p.insert(next.off);
    }
    for pr in &t.prints {
        p.insert(pr.enable.off);
        if let Some(v) = pr.value {
            p.insert(v.off);
        }
    }
    for w in &t.writes {
        p.insert(w.enable.off);
        p.insert(w.index.off);
        p.insert(w.data.off);
    }
    p
}

/// The superinstruction fusion pass: repeated peephole rewrites over the
/// op list until a fixpoint (bounded). Each rewrite eliminates a
/// single-def single-use unprotected temp, so values in every observable
/// slot — and therefore outputs, prints, toggle counts, and fingerprints
/// — are bit-identical to the unfused tape.
fn fuse_ops(mut ops: Vec<Op>, protected: &std::collections::HashSet<u32>) -> Vec<Op> {
    for _ in 0..4 {
        let before = ops.len();
        ops = fuse_pass(ops, protected);
        if ops.len() == before {
            break;
        }
    }
    ops
}

/// Views an op as a two-input bitwise op, for the `Logic3` fusion rule.
fn as_bw(op: &Op) -> Option<(Slot, Slot, Slot, BwKind)> {
    match op {
        Op::And { dst, a, b } => Some((*dst, *a, *b, BwKind::And)),
        Op::Or { dst, a, b } => Some((*dst, *a, *b, BwKind::Or)),
        Op::Xor { dst, a, b } => Some((*dst, *a, *b, BwKind::Xor)),
        _ => None,
    }
}

fn fuse_pass(ops: Vec<Op>, protected: &std::collections::HashSet<u32>) -> Vec<Op> {
    use std::collections::HashMap;
    let mut defs: HashMap<u32, u32> = HashMap::new();
    let mut uses: HashMap<u32, u32> = HashMap::new();
    let mut slots = Vec::new();
    for op in &ops {
        if let Some(d) = op.dst_off() {
            *defs.entry(d).or_insert(0) += 1;
        }
        op.slots(&mut slots);
        for s in &slots[1..] {
            *uses.entry(s.off).or_insert(0) += 1;
        }
    }
    let temp = |off: u32| -> bool {
        !protected.contains(&off)
            && defs.get(&off).copied().unwrap_or(0) == 1
            && uses.get(&off).copied().unwrap_or(0) == 1
    };

    let mut out = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        if i + 1 < ops.len() {
            let fused = match (&ops[i], &ops[i + 1]) {
                // slice → resize: keep only the kept bits of the slice.
                (Op::Slice { dst: t, src, lo }, Op::Resize { dst, src: s2 })
                    if s2.off == t.off && temp(t.off) && dst.width <= t.width =>
                {
                    Some(Op::Slice {
                        dst: *dst,
                        src: *src,
                        lo: *lo,
                    })
                }
                // slice of slice: offsets add while the inner window covers
                // the outer read.
                (
                    Op::Slice {
                        dst: t,
                        src,
                        lo: lo1,
                    },
                    Op::Slice {
                        dst,
                        src: s2,
                        lo: lo2,
                    },
                ) if s2.off == t.off && temp(t.off) && lo2 + dst.width <= t.width => {
                    Some(Op::Slice {
                        dst: *dst,
                        src: *src,
                        lo: lo1 + lo2,
                    })
                }
                // resize of resize: the middle hop is redundant when it
                // either keeps all final bits or all source bits.
                (Op::Resize { dst: t, src }, Op::Resize { dst, src: s2 })
                    if s2.off == t.off
                        && temp(t.off)
                        && (dst.width <= t.width || t.width >= src.width) =>
                {
                    Some(Op::Resize {
                        dst: *dst,
                        src: *src,
                    })
                }
                // resize → slice: read straight from the source when the
                // slice window lies inside the resize (or the resize was a
                // pure zero-extension).
                (Op::Resize { dst: t, src }, Op::Slice { dst, src: s2, lo })
                    if s2.off == t.off
                        && temp(t.off)
                        && (lo + dst.width <= t.width || t.width >= src.width) =>
                {
                    Some(Op::Slice {
                        dst: *dst,
                        src: *src,
                        lo: *lo,
                    })
                }
                // add ladder: (a + b) + c with the intermediate sum
                // unobservable. Exact because all widths are equal, so the
                // intermediate mod-2^w reduction commutes with the outer add.
                (Op::Add { dst: t, a, b }, Op::Add { dst, a: x, b: y })
                    if temp(t.off) && (x.off == t.off) != (y.off == t.off) =>
                {
                    let c = if x.off == t.off { *y } else { *x };
                    Some(Op::Add3 {
                        dst: *dst,
                        a: *a,
                        b: *b,
                        c,
                    })
                }
                _ => None,
            };
            // Bitwise chain: (a <op> b) <op> c with the intermediate
            // unobservable, any mix of and/or/xor. Requires all five
            // widths equal: bitwise ops are word-local, so with equal
            // widths the intermediate mask is a no-op and the fused
            // result is bit-identical.
            let fused = fused.or_else(|| {
                let (t, a, b, first) = as_bw(&ops[i])?;
                let (dst, x, y, second) = as_bw(&ops[i + 1])?;
                if !temp(t.off) || (x.off == t.off) == (y.off == t.off) {
                    return None;
                }
                let c = if x.off == t.off { y } else { x };
                if [t.width, a.width, b.width, c.width]
                    .iter()
                    .any(|w| *w != dst.width)
                {
                    return None;
                }
                Some(Op::Logic3 {
                    dst,
                    a,
                    b,
                    c,
                    first,
                    second,
                })
            });
            if let Some(op) = fused {
                out.push(op);
                i += 2;
                continue;
            }
        }
        // concat of slice/resize temps → one bit-field gather. Each
        // foldable part's defining op is removed from the already-emitted
        // prefix (safe: ops are side-effect-free and single-assignment,
        // the temp has no other reader, and the part source's def
        // precedes the removed op, hence also the gather). Non-foldable
        // parts become whole-source fields (src_lo 0), exactly the
        // original concat semantics.
        if let Op::Concat { dst, parts } = &ops[i] {
            let mut gparts = Vec::with_capacity(parts.len());
            let mut remove = Vec::new();
            for (part, lo) in parts.iter() {
                let def = if temp(part.off) {
                    out.iter()
                        .enumerate()
                        .rev()
                        .find(|(_, o)| o.dst_off() == Some(part.off))
                        .and_then(|(j, o)| match o {
                            Op::Slice { src, lo: slo, .. } => Some((j, *src, *slo)),
                            Op::Resize { src, .. } => Some((j, *src, 0)),
                            _ => None,
                        })
                } else {
                    None
                };
                match def {
                    Some((j, src, src_lo)) => {
                        remove.push(j);
                        gparts.push(GatherPart {
                            src,
                            dst_lo: *lo,
                            src_lo,
                            width: part.width,
                        });
                    }
                    None => gparts.push(GatherPart {
                        src: *part,
                        dst_lo: *lo,
                        src_lo: 0,
                        width: part.width,
                    }),
                }
            }
            if !remove.is_empty() {
                remove.sort_unstable();
                for j in remove.into_iter().rev() {
                    out.remove(j);
                }
                out.push(Op::Gather {
                    dst: *dst,
                    parts: gparts.into_boxed_slice(),
                });
                i += 1;
                continue;
            }
        }
        // else-chained mux run → one priority-select superinstruction.
        if let Op::Mux { dst, cond, t, e } = &ops[i] {
            let mut cases = vec![(*cond, *t)];
            let mut cur = *dst;
            let default = *e;
            let mut j = i + 1;
            while j < ops.len() {
                if let Op::Mux {
                    dst: d2,
                    cond: c2,
                    t: t2,
                    e: e2,
                } = &ops[j]
                {
                    if e2.off == cur.off && temp(cur.off) {
                        cases.push((*c2, *t2));
                        cur = *d2;
                        j += 1;
                        continue;
                    }
                }
                break;
            }
            if cases.len() >= 2 {
                // The outermost (last-lowered) mux has highest priority.
                cases.reverse();
                out.push(Op::MuxChain {
                    dst: cur,
                    cases: cases.into_boxed_slice(),
                    default,
                });
                i = j;
                continue;
            }
        }
        out.push(ops[i].clone());
        i += 1;
    }
    out
}

/// Partitions the op list into settle regions — the weakly connected
/// components of the op graph under "shares a dynamic slot" — then
/// reorders it region-contiguous (stably, preserving each region's
/// topological order) and coalesces adjacent copies within regions.
///
/// Dynamic slots are those whose value can change between settles:
/// anything an op writes, plus every signal slot (inputs change via
/// pokes, register currents via commits). Materialized constants are
/// excluded, so sharing a constant does not merge unrelated cones.
/// Because components are maximal, ops in different regions share *no*
/// dynamic slot — a clean region's outputs are already settled, and
/// skipping it can never be observed by another region.
fn partition_regions(tape: &mut Tape, enabled: bool, coalesce: bool) {
    use std::collections::HashMap;
    let nops = tape.ops.len();

    fn find(uf: &mut [usize], mut x: usize) -> usize {
        while uf[x] != x {
            uf[x] = uf[uf[x]];
            x = uf[x];
        }
        x
    }
    fn union(uf: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (find(uf, a), find(uf, b));
        if ra != rb {
            uf[ra] = rb;
        }
    }

    let mut uf: Vec<usize> = (0..nops).collect();
    let mut slots = Vec::new();
    if enabled {
        let mut dynamic: std::collections::HashSet<u32> =
            tape.sig_slots.iter().map(|s| s.off).collect();
        for op in &tape.ops {
            if let Some(d) = op.dst_off() {
                dynamic.insert(d);
            }
        }
        let mut owner: HashMap<u32, usize> = HashMap::new();
        for (i, op) in tape.ops.iter().enumerate() {
            op.slots(&mut slots);
            for s in &slots {
                if !dynamic.contains(&s.off) {
                    continue;
                }
                match owner.entry(s.off) {
                    std::collections::hash_map::Entry::Occupied(o) => union(&mut uf, *o.get(), i),
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(i);
                    }
                }
            }
        }
    } else if nops > 0 {
        for i in 1..nops {
            union(&mut uf, 0, i);
        }
    }

    // Region ids in order of first appearance; ops bucketed stably.
    let mut region_of_root: HashMap<usize, u32> = HashMap::new();
    let mut op_region: Vec<u32> = Vec::with_capacity(nops);
    let mut buckets: Vec<Vec<Op>> = Vec::new();
    for (i, op) in tape.ops.iter().enumerate() {
        let root = find(&mut uf, i);
        let next_id = region_of_root.len() as u32;
        let rid = *region_of_root.entry(root).or_insert(next_id);
        if rid as usize == buckets.len() {
            buckets.push(Vec::new());
        }
        op_region.push(rid);
        buckets[rid as usize].push(op.clone());
    }

    // Slot offset → region (before coalescing erases Copy slots).
    let mut slot_region: HashMap<u32, u32> = HashMap::new();
    for (i, op) in tape.ops.iter().enumerate() {
        op.slots(&mut slots);
        for s in &slots {
            slot_region.entry(s.off).or_insert(op_region[i]);
        }
    }

    // Within-region copy coalescing: adjacent Copy ops over contiguous
    // word ranges become one block copy (safe: same region, same order).
    if coalesce {
        for ops in &mut buckets {
            let mut merged: Vec<Op> = Vec::with_capacity(ops.len());
            for op in ops.drain(..) {
                if let Op::Copy { dst, src } = op {
                    match merged.last_mut() {
                        Some(Op::Copy { dst: d1, src: s1 })
                            if dst.off == d1.off + d1.words && src.off == s1.off + s1.words =>
                        {
                            let repl = Op::CopyRange {
                                dst_off: d1.off,
                                src_off: s1.off,
                                words: d1.words + dst.words,
                            };
                            *merged.last_mut().unwrap() = repl;
                            continue;
                        }
                        Some(Op::CopyRange {
                            dst_off,
                            src_off,
                            words,
                        }) if dst.off == *dst_off + *words && src.off == *src_off + *words => {
                            *words += dst.words;
                            continue;
                        }
                        _ => {}
                    }
                    merged.push(Op::Copy { dst, src });
                } else {
                    merged.push(op);
                }
            }
            *ops = merged;
        }
    }

    let mut ops = Vec::with_capacity(nops);
    let mut regions = Vec::with_capacity(buckets.len());
    for bucket in buckets {
        let start = ops.len() as u32;
        ops.extend(bucket);
        regions.push((start, ops.len() as u32));
    }
    tape.ops = ops;
    tape.regions = regions;

    tape.sig_region = tape
        .sig_slots
        .iter()
        .map(|s| slot_region.get(&s.off).copied().unwrap_or(u32::MAX))
        .collect();
    tape.commit_region = tape
        .reg_commits
        .iter()
        .map(|(cur, _)| slot_region.get(&cur.off).copied().unwrap_or(u32::MAX))
        .collect();
    let mut array_regions: Vec<Vec<u32>> = vec![Vec::new(); tape.arrays.len()];
    for (i, op) in tape.ops.iter().enumerate() {
        if let Op::ArrayRead { array, .. } = op {
            // Recompute the region from the final (reordered) index.
            let rid = tape
                .regions
                .iter()
                .position(|(s, e)| (*s as usize..*e as usize).contains(&i))
                .expect("op inside some region") as u32;
            let regs = &mut array_regions[*array as usize];
            if !regs.contains(&rid) {
                regs.push(rid);
            }
        }
    }
    tape.array_regions = array_regions;
}

// ---- execution ------------------------------------------------------------
//
// The one tape executor, running `L` independent stimulus lanes at once.
// The state arena is a structure-of-arrays at word granularity: logical
// arena word `w` of lane `l` lives at `arena[w * L + l]`, so a slot's
// storage is the contiguous range `s.off()*L .. (s.off() + s.words())*L`.
// Every op decodes once and its inner loop runs across all lanes over
// contiguous memory — the dispatch cost is amortized `L`-fold and the
// lane loops auto-vectorize.
//
// `L` is a const generic, monomorphized for every width in
// [`LANE_WIDTHS`]; wider strides amortize the decode further. The
// [`LaneGroup`] trait object erases the width so `SimBatch` can mix
// strides — full-width groups plus a narrower tail. `L = 1` is `Sim`'s
// compiled backend: at one lane the laned layout is the flat scalar one.
//
// Instruction set: the release build targets baseline x86-64, so the
// portable engine's lane loops compile to 128-bit SSE2 (two `u64` lanes
// per instruction) and `count_ones` to a bit-twiddling sequence. On a CPU
// with AVX2, `new_lane_group` wraps each group in `avx2::Avx2`, whose
// settle, commit, row-poke and fingerprint entry points are
// `#[target_feature(enable = "avx2")]` copies of the same bodies: 256-bit
// lane loops (four lanes per instruction) and a byte-table popcount. The
// bodies are `#[inline(always)]` from those entry points down to
// `exec_op_lanes` and its row helpers so that the copies really are
// AVX2 code. `Sim` and other targets run the portable engine.
//
// Lane-divergent behaviour (mux selects, shift amounts, memory indices,
// print enables, toggle counts, fingerprints) is handled per lane, so
// every lane observes exactly what a one-lane engine fed the same
// stimulus does.
//
// Settle-skipping: the tape's regions (see [`Tape::regions`]) each carry
// a dirty bit. A poke that changes an input dirties the region reading
// it; a commit dirties the regions reading each register that actually
// changed and each memory actually written; settle executes only dirty
// regions. Clean regions' slots already hold settled values, and no
// region reads another's slots, so the skip is unobservable.

#[inline(always)]
fn lane_base<const L: usize>(s: Slot, k: usize) -> usize {
    (s.off() + k) * L
}

/// Loads one laned word row as a fixed-size array (16 SSE2 or 8 AVX2
/// loads at `L = 32`). The copy decouples source reads from destination
/// writes: the per-op lane loops then carry no aliasing or bounds checks
/// and compile to straight vector code.
#[inline(always)]
fn row<const L: usize>(arena: &[u64], base: usize) -> [u64; L] {
    arena[base..base + L].try_into().unwrap()
}

/// Mutable view of one laned word row with compile-time length.
#[inline(always)]
fn row_mut<const L: usize>(arena: &mut [u64], base: usize) -> &mut [u64; L] {
    (&mut arena[base..base + L]).try_into().unwrap()
}

#[inline(always)]
fn zero_slot_lane<const L: usize>(arena: &mut [u64], s: Slot, l: usize) {
    for k in 0..s.words() {
        arena[lane_base::<L>(s, k) + l] = 0;
    }
}

#[inline(always)]
fn any_set_lane<const L: usize>(arena: &[u64], s: Slot, l: usize) -> bool {
    (0..s.words()).any(|k| arena[lane_base::<L>(s, k) + l] != 0)
}

/// Reads `n` (≤ 64) bits of lane `l` of `s` starting at bit `lo`; bits
/// past the slot's storage are zero (slot values keep their high bits
/// masked).
#[inline(always)]
fn read_chunk_lane<const L: usize>(arena: &[u64], s: Slot, lo: usize, n: usize, l: usize) -> u64 {
    let total = s.words() * 64;
    if lo >= total {
        return 0;
    }
    let wi = lo / 64;
    let sh = lo % 64;
    let mut v = arena[lane_base::<L>(s, wi) + l] >> sh;
    if sh != 0 && wi + 1 < s.words() {
        v |= arena[lane_base::<L>(s, wi + 1) + l] << (64 - sh);
    }
    if n < 64 {
        v &= (1u64 << n) - 1;
    }
    v
}

/// ORs `n` (≤ 64) bits into lane `l` of `s` starting at bit `lo`; the
/// target bits must currently be zero.
#[inline(always)]
fn or_chunk_lane<const L: usize>(
    arena: &mut [u64],
    s: Slot,
    lo: usize,
    n: usize,
    val: u64,
    l: usize,
) {
    let wi = lo / 64;
    let sh = lo % 64;
    let v = if n < 64 { val & ((1u64 << n) - 1) } else { val };
    arena[lane_base::<L>(s, wi) + l] |= v << sh;
    if sh != 0 && sh + n > 64 {
        arena[lane_base::<L>(s, wi + 1) + l] |= v >> (64 - sh);
    }
}

/// ORs `n` bits of lane `l` of `src` (from `src_lo`) into `dst` at
/// `dst_lo` (used where the bit offset differs per lane, i.e. run-time
/// shifts).
#[inline(always)]
fn or_bits_lane<const L: usize>(
    arena: &mut [u64],
    dst: Slot,
    dst_lo: usize,
    src: Slot,
    src_lo: usize,
    n: usize,
    l: usize,
) {
    let mut k = 0;
    while k < n {
        let step = (n - k).min(64);
        let v = read_chunk_lane::<L>(arena, src, src_lo + k, step, l);
        or_chunk_lane::<L>(arena, dst, dst_lo + k, step, v, l);
        k += step;
    }
}

/// All-lane funnel-shift extract for [`Op::Slice`]: each destination word
/// is `(src[wi+k] >> sh) | (src[wi+k+1] << (64-sh))`, so the shift
/// arithmetic is decided once per word and the lane loops are straight
/// (branch-free, auto-vectorizable) passes over contiguous words.
#[inline(always)]
fn slice_lanes<const L: usize>(arena: &mut [u64], dst: Slot, src: Slot, lo: usize) {
    let (wi, sh) = (lo / 64, lo % 64);
    let sw = src.words();
    for k in 0..dst.words() {
        let db = lane_base::<L>(dst, k);
        if wi + k >= sw {
            *row_mut::<L>(arena, db) = [0u64; L];
            continue;
        }
        let lo_r = row::<L>(arena, lane_base::<L>(src, wi + k));
        if sh == 0 {
            *row_mut::<L>(arena, db) = lo_r;
        } else {
            let hi_r = if wi + k + 1 < sw {
                row::<L>(arena, lane_base::<L>(src, wi + k + 1))
            } else {
                [0u64; L]
            };
            let out = row_mut::<L>(arena, db);
            for l in 0..L {
                out[l] = (lo_r[l] >> sh) | (hi_r[l] << (64 - sh));
            }
        }
    }
    mask_top_lanes::<L>(arena, dst);
}

/// All-lane bit deposit for [`Op::Concat`]/[`Op::Resize`]: ORs the low
/// `n` bits of `src` into `dst` starting at bit `dst_lo` (target bits
/// must be zero). One shift decision per source word, branch-free lane
/// loops.
#[inline(always)]
fn deposit_lanes<const L: usize>(arena: &mut [u64], dst: Slot, dst_lo: usize, src: Slot, n: usize) {
    let mut k = 0;
    while k * 64 < n {
        let bits = (n - k * 64).min(64);
        let m = if bits < 64 {
            (1u64 << bits) - 1
        } else {
            u64::MAX
        };
        let lo = dst_lo + k * 64;
        let (wi, sh) = (lo / 64, lo % 64);
        let s_r = row::<L>(arena, lane_base::<L>(src, k));
        let d = row_mut::<L>(arena, lane_base::<L>(dst, wi));
        if sh == 0 {
            for l in 0..L {
                d[l] |= s_r[l] & m;
            }
        } else {
            for l in 0..L {
                d[l] |= (s_r[l] & m) << sh;
            }
            if sh + bits > 64 {
                let d2 = row_mut::<L>(arena, lane_base::<L>(dst, wi + 1));
                for l in 0..L {
                    d2[l] |= (s_r[l] & m) >> (64 - sh);
                }
            }
        }
        k += 1;
    }
}

/// All-lane bit-field move for one [`Op::Gather`] part: ORs `n` bits of
/// `src` starting at `src_lo` into `dst` at `dst_lo` (bits past the top
/// of `src` read as zero; target bits must be zero). A funnel-shift read
/// feeds a shifted deposit, 64 bits per chunk — shift decisions happen
/// once per chunk, the lane loops are branch-free.
#[inline(always)]
fn gather_lanes<const L: usize>(
    arena: &mut [u64],
    dst: Slot,
    dst_lo: usize,
    src: Slot,
    src_lo: usize,
    n: usize,
) {
    let sw = src.words();
    let mut k = 0;
    while k < n {
        let bits = (n - k).min(64);
        let m = if bits < 64 {
            (1u64 << bits) - 1
        } else {
            u64::MAX
        };
        let (swi, ssh) = ((src_lo + k) / 64, (src_lo + k) % 64);
        let mut v = [0u64; L];
        if swi < sw {
            let lo_r = row::<L>(arena, lane_base::<L>(src, swi));
            if ssh == 0 {
                v = lo_r;
            } else if ssh + bits <= 64 || swi + 1 >= sw {
                // The masked chunk lives entirely in the lo word (the
                // common case for byte-granular shuffles) — skip the hi
                // row read, the mask below kills those bits anyway.
                for l in 0..L {
                    v[l] = lo_r[l] >> ssh;
                }
            } else {
                let hi_r = row::<L>(arena, lane_base::<L>(src, swi + 1));
                for l in 0..L {
                    v[l] = (lo_r[l] >> ssh) | (hi_r[l] << (64 - ssh));
                }
            }
        }
        let (dwi, dsh) = ((dst_lo + k) / 64, (dst_lo + k) % 64);
        let d = row_mut::<L>(arena, lane_base::<L>(dst, dwi));
        if dsh == 0 {
            for l in 0..L {
                d[l] |= v[l] & m;
            }
        } else {
            for l in 0..L {
                d[l] |= (v[l] & m) << dsh;
            }
            if dsh + bits > 64 {
                let d2 = row_mut::<L>(arena, lane_base::<L>(dst, dwi + 1));
                for l in 0..L {
                    d2[l] |= (v[l] & m) >> (64 - dsh);
                }
            }
        }
        k += bits;
    }
}

/// All ones on every lane where `s` has a bit set, zero elsewhere: the
/// select mask of [`Op::Mux`] and [`Op::MuxChain`].
#[inline(always)]
fn truthy_mask<const L: usize>(arena: &[u64], s: Slot) -> [u64; L] {
    let mut mask = [0u64; L];
    for k in 0..s.words() {
        let r = row::<L>(arena, lane_base::<L>(s, k));
        for l in 0..L {
            mask[l] |= r[l];
        }
    }
    for m in &mut mask {
        *m = if *m != 0 { u64::MAX } else { 0 };
    }
    mask
}

/// `dst = g(f(a, b), c)` over every word row of every lane
/// ([`Op::Logic3`]). `f` and `g` are fixed per call, so each operator
/// pair gets its own straight row loop.
#[inline(always)]
fn logic3_lanes<const L: usize>(
    arena: &mut [u64],
    [dst, a, b, c]: [Slot; 4],
    f: impl Fn(u64, u64) -> u64,
    g: impl Fn(u64, u64) -> u64,
) {
    for k in 0..dst.words() {
        let a_r = row::<L>(arena, lane_base::<L>(a, k));
        let b_r = row::<L>(arena, lane_base::<L>(b, k));
        let c_r = row::<L>(arena, lane_base::<L>(c, k));
        let d = row_mut::<L>(arena, lane_base::<L>(dst, k));
        for l in 0..L {
            d[l] = g(f(a_r[l], b_r[l]), c_r[l]);
        }
    }
}

#[inline(always)]
fn unsigned_lt_lane<const L: usize>(arena: &[u64], a: Slot, b: Slot, l: usize) -> bool {
    for k in (0..a.words()).rev() {
        let (x, y) = (
            arena[lane_base::<L>(a, k) + l],
            arena[lane_base::<L>(b, k) + l],
        );
        if x != y {
            return x < y;
        }
    }
    false
}

/// Masks the top word of every lane of `s` down to its valid bits.
#[inline(always)]
fn mask_top_lanes<const L: usize>(arena: &mut [u64], s: Slot) {
    let m = s.top_mask();
    if m == u64::MAX {
        return;
    }
    let top = row_mut::<L>(arena, lane_base::<L>(s, s.words() - 1));
    for v in top.iter_mut() {
        *v &= m;
    }
}

/// Zeroes every lane of `s` (fixed-size rows: plain vector stores, no
/// `memset` call for the typical one/two-word slot).
#[inline(always)]
fn zero_slot_lanes<const L: usize>(arena: &mut [u64], s: Slot) {
    for k in 0..s.words() {
        *row_mut::<L>(arena, lane_base::<L>(s, k)) = [0u64; L];
    }
}

/// One asynchronous memory read on every lane: lane `l` copies element
/// `arena[index][l]` into `dst`, or zeros `dst` when the index is out of
/// range. `word(w, l)` is word `w` of the memory's flat image as lane
/// `l` sees it.
#[inline(always)]
fn read_lanes<const L: usize>(
    arena: &mut [u64],
    dst: Slot,
    index: Slot,
    meta: &TapeArray,
    word: impl Fn(usize, usize) -> u64,
) {
    let wpe = meta.wpe as usize;
    for l in 0..L {
        let idx = arena[index.off() * L + l] as usize;
        if idx < meta.depth as usize {
            for k in 0..wpe {
                arena[lane_base::<L>(dst, k) + l] = word(idx * wpe + k, l);
            }
        } else {
            zero_slot_lane::<L>(arena, dst, l);
        }
    }
}

/// Executes one op across all lanes. `scratch` holds `L` lane-major
/// segments for multi-word multiplication; `arrays` is the engine's
/// memory store (see [`LaneEngine`]).
#[inline(always)]
fn exec_op_lanes<const L: usize>(
    op: &Op,
    arena: &mut [u64],
    scratch: &mut [u64],
    arrays: &[Option<Vec<u64>>],
    metas: &[TapeArray],
) {
    match op {
        Op::Copy { dst, src } => {
            for k in 0..src.words() {
                let r = row::<L>(arena, lane_base::<L>(*src, k));
                *row_mut::<L>(arena, lane_base::<L>(*dst, k)) = r;
            }
        }
        Op::Not { dst, a } => {
            for k in 0..dst.words() {
                let a_r = row::<L>(arena, lane_base::<L>(*a, k));
                let d = row_mut::<L>(arena, lane_base::<L>(*dst, k));
                for l in 0..L {
                    d[l] = !a_r[l];
                }
            }
            mask_top_lanes::<L>(arena, *dst);
        }
        Op::Neg { dst, a } => {
            let mut borrow = [0u64; L];
            for k in 0..dst.words() {
                let a_r = row::<L>(arena, lane_base::<L>(*a, k));
                let d = row_mut::<L>(arena, lane_base::<L>(*dst, k));
                for l in 0..L {
                    let (d1, b1) = 0u64.overflowing_sub(a_r[l]);
                    let (d2, b2) = d1.overflowing_sub(borrow[l]);
                    d[l] = d2;
                    borrow[l] = u64::from(b1) | u64::from(b2);
                }
            }
            mask_top_lanes::<L>(arena, *dst);
        }
        Op::Add { dst, a, b } => {
            let mut carry = [0u64; L];
            for k in 0..dst.words() {
                let a_r = row::<L>(arena, lane_base::<L>(*a, k));
                let b_r = row::<L>(arena, lane_base::<L>(*b, k));
                let d = row_mut::<L>(arena, lane_base::<L>(*dst, k));
                for l in 0..L {
                    let (s1, c1) = a_r[l].overflowing_add(b_r[l]);
                    let (s2, c2) = s1.overflowing_add(carry[l]);
                    d[l] = s2;
                    carry[l] = u64::from(c1) | u64::from(c2);
                }
            }
            mask_top_lanes::<L>(arena, *dst);
        }
        Op::Sub { dst, a, b } => {
            let mut borrow = [0u64; L];
            for k in 0..dst.words() {
                let a_r = row::<L>(arena, lane_base::<L>(*a, k));
                let b_r = row::<L>(arena, lane_base::<L>(*b, k));
                let d = row_mut::<L>(arena, lane_base::<L>(*dst, k));
                for l in 0..L {
                    let (d1, b1) = a_r[l].overflowing_sub(b_r[l]);
                    let (d2, b2) = d1.overflowing_sub(borrow[l]);
                    d[l] = d2;
                    borrow[l] = u64::from(b1) | u64::from(b2);
                }
            }
            mask_top_lanes::<L>(arena, *dst);
        }
        Op::Mul { dst, a, b } => {
            let w = dst.words();
            for l in 0..L {
                let acc = l * w;
                scratch[acc..acc + w].fill(0);
                for i in 0..w {
                    let ai = arena[lane_base::<L>(*a, i) + l];
                    if ai == 0 {
                        continue;
                    }
                    let mut carry: u128 = 0;
                    for j in 0..w - i {
                        let cur = scratch[acc + i + j] as u128
                            + (ai as u128) * (arena[lane_base::<L>(*b, j) + l] as u128)
                            + carry;
                        scratch[acc + i + j] = cur as u64;
                        carry = cur >> 64;
                    }
                }
                for k in 0..w {
                    arena[lane_base::<L>(*dst, k) + l] = scratch[acc + k];
                }
            }
            mask_top_lanes::<L>(arena, *dst);
        }
        Op::And { dst, a, b } => {
            for k in 0..dst.words() {
                let a_r = row::<L>(arena, lane_base::<L>(*a, k));
                let b_r = row::<L>(arena, lane_base::<L>(*b, k));
                let d = row_mut::<L>(arena, lane_base::<L>(*dst, k));
                for l in 0..L {
                    d[l] = a_r[l] & b_r[l];
                }
            }
        }
        Op::Or { dst, a, b } => {
            for k in 0..dst.words() {
                let a_r = row::<L>(arena, lane_base::<L>(*a, k));
                let b_r = row::<L>(arena, lane_base::<L>(*b, k));
                let d = row_mut::<L>(arena, lane_base::<L>(*dst, k));
                for l in 0..L {
                    d[l] = a_r[l] | b_r[l];
                }
            }
        }
        Op::Xor { dst, a, b } => {
            for k in 0..dst.words() {
                let a_r = row::<L>(arena, lane_base::<L>(*a, k));
                let b_r = row::<L>(arena, lane_base::<L>(*b, k));
                let d = row_mut::<L>(arena, lane_base::<L>(*dst, k));
                for l in 0..L {
                    d[l] = a_r[l] ^ b_r[l];
                }
            }
        }
        Op::Cmp { dst, a, b, kind } => {
            match kind {
                CmpKind::Eq | CmpKind::Ne => {
                    let mut diff = [0u64; L];
                    for k in 0..a.words() {
                        let a_r = row::<L>(arena, lane_base::<L>(*a, k));
                        let b_r = row::<L>(arena, lane_base::<L>(*b, k));
                        for l in 0..L {
                            diff[l] |= a_r[l] ^ b_r[l];
                        }
                    }
                    let want_eq = matches!(kind, CmpKind::Eq);
                    let d = row_mut::<L>(arena, dst.off() * L);
                    for l in 0..L {
                        d[l] = u64::from((diff[l] == 0) == want_eq);
                    }
                }
                // Ordered compares: branch-free single-word fast path
                // (the common case), word-scan per lane otherwise.
                _ if a.words() == 1 => {
                    let a_r = row::<L>(arena, a.off() * L);
                    let b_r = row::<L>(arena, b.off() * L);
                    let d = row_mut::<L>(arena, dst.off() * L);
                    for l in 0..L {
                        d[l] = u64::from(match kind {
                            CmpKind::Lt => a_r[l] < b_r[l],
                            CmpKind::Le => a_r[l] <= b_r[l],
                            CmpKind::Gt => a_r[l] > b_r[l],
                            _ => a_r[l] >= b_r[l],
                        });
                    }
                }
                CmpKind::Lt => {
                    for l in 0..L {
                        arena[dst.off() * L + l] =
                            u64::from(unsigned_lt_lane::<L>(arena, *a, *b, l));
                    }
                }
                CmpKind::Le => {
                    for l in 0..L {
                        arena[dst.off() * L + l] =
                            u64::from(!unsigned_lt_lane::<L>(arena, *b, *a, l));
                    }
                }
                CmpKind::Gt => {
                    for l in 0..L {
                        arena[dst.off() * L + l] =
                            u64::from(unsigned_lt_lane::<L>(arena, *b, *a, l));
                    }
                }
                CmpKind::Ge => {
                    for l in 0..L {
                        arena[dst.off() * L + l] =
                            u64::from(!unsigned_lt_lane::<L>(arena, *a, *b, l));
                    }
                }
            }
        }
        Op::Red { dst, a, kind } => match kind {
            RedKind::Or | RedKind::LogicNot => {
                let mut acc = [0u64; L];
                for k in 0..a.words() {
                    let a_r = row::<L>(arena, lane_base::<L>(*a, k));
                    for l in 0..L {
                        acc[l] |= a_r[l];
                    }
                }
                let want_any = matches!(kind, RedKind::Or);
                let d = row_mut::<L>(arena, dst.off() * L);
                for l in 0..L {
                    d[l] = u64::from((acc[l] != 0) == want_any);
                }
            }
            RedKind::Xor => {
                let mut acc = [0u64; L];
                for k in 0..a.words() {
                    let a_r = row::<L>(arena, lane_base::<L>(*a, k));
                    for l in 0..L {
                        acc[l] ^= a_r[l];
                    }
                }
                let d = row_mut::<L>(arena, dst.off() * L);
                for l in 0..L {
                    d[l] = u64::from(acc[l].count_ones() % 2 == 1);
                }
            }
            RedKind::And => {
                let mut all = [true; L];
                for k in 0..a.words() {
                    let a_r = row::<L>(arena, lane_base::<L>(*a, k));
                    let expect = if k + 1 == a.words() {
                        a.top_mask()
                    } else {
                        u64::MAX
                    };
                    for l in 0..L {
                        all[l] &= a_r[l] == expect;
                    }
                }
                let d = row_mut::<L>(arena, dst.off() * L);
                for l in 0..L {
                    d[l] = u64::from(all[l]);
                }
            }
        },
        Op::Shift { dst, a, amt, left } => {
            let width = dst.width();
            // Shift amounts are frequently lane-uniform (constant
            // rotations, shared control): detect it and run the all-lane
            // funnel-shift path instead of the per-lane bit walk.
            let amt_r = row::<L>(arena, amt.off() * L);
            if amt.words() == 1 && amt_r.iter().all(|&v| v == amt_r[0]) {
                let n = amt_r[0].min(u64::from(u32::MAX)) as usize;
                if n >= width {
                    zero_slot_lanes::<L>(arena, *dst);
                } else if *left {
                    zero_slot_lanes::<L>(arena, *dst);
                    deposit_lanes::<L>(arena, *dst, n, *a, width - n);
                } else {
                    slice_lanes::<L>(arena, *dst, *a, n);
                }
                return;
            }
            for l in 0..L {
                let n = arena[amt.off() * L + l].min(u64::from(u32::MAX)) as usize;
                zero_slot_lane::<L>(arena, *dst, l);
                if n < width {
                    if *left {
                        or_bits_lane::<L>(arena, *dst, n, *a, 0, width - n, l);
                    } else {
                        or_bits_lane::<L>(arena, *dst, 0, *a, n, width - n, l);
                    }
                }
            }
        }
        Op::Mux { dst, cond, t, e } => {
            let mask = truthy_mask::<L>(arena, *cond);
            for k in 0..dst.words() {
                let t_r = row::<L>(arena, lane_base::<L>(*t, k));
                let e_r = row::<L>(arena, lane_base::<L>(*e, k));
                let d = row_mut::<L>(arena, lane_base::<L>(*dst, k));
                for l in 0..L {
                    d[l] = (t_r[l] & mask[l]) | (e_r[l] & !mask[l]);
                }
            }
        }
        Op::Slice { dst, src, lo } => {
            slice_lanes::<L>(arena, *dst, *src, *lo as usize);
        }
        Op::Concat { dst, parts } => {
            zero_slot_lanes::<L>(arena, *dst);
            for (part, lo) in parts.iter() {
                deposit_lanes::<L>(arena, *dst, *lo as usize, *part, part.width());
            }
        }
        Op::Resize { dst, src } => {
            zero_slot_lanes::<L>(arena, *dst);
            let n = dst.width().min(src.width());
            deposit_lanes::<L>(arena, *dst, 0, *src, n);
        }
        Op::Gather { dst, parts } => {
            if dst.words() == 1 {
                // Single-word destination (the byte-shuffle common case):
                // every part is a single ≤64-bit chunk, so the whole
                // gather accumulates in one local row and the destination
                // is written exactly once — no zero pass, no per-part
                // read-modify-write of the destination row.
                let mut acc = [0u64; L];
                for p in parts.iter() {
                    let (bits, ssh) = (p.width as usize, p.src_lo as usize % 64);
                    let swi = p.src_lo as usize / 64;
                    let sw = p.src.words();
                    let m = if bits < 64 {
                        (1u64 << bits) - 1
                    } else {
                        u64::MAX
                    };
                    if swi >= sw {
                        continue;
                    }
                    let lo_r = row::<L>(arena, lane_base::<L>(p.src, swi));
                    let dsh = p.dst_lo as usize;
                    if ssh == 0 {
                        for l in 0..L {
                            acc[l] |= (lo_r[l] & m) << dsh;
                        }
                    } else if ssh + bits <= 64 || swi + 1 >= sw {
                        for l in 0..L {
                            acc[l] |= ((lo_r[l] >> ssh) & m) << dsh;
                        }
                    } else {
                        let hi_r = row::<L>(arena, lane_base::<L>(p.src, swi + 1));
                        for l in 0..L {
                            acc[l] |= (((lo_r[l] >> ssh) | (hi_r[l] << (64 - ssh))) & m) << dsh;
                        }
                    }
                }
                *row_mut::<L>(arena, dst.off() * L) = acc;
            } else {
                zero_slot_lanes::<L>(arena, *dst);
                for p in parts.iter() {
                    gather_lanes::<L>(
                        arena,
                        *dst,
                        p.dst_lo as usize,
                        p.src,
                        p.src_lo as usize,
                        p.width as usize,
                    );
                }
            }
        }
        Op::ArrayRead { dst, array, index } => {
            let meta = &metas[*array as usize];
            match &arrays[*array as usize] {
                Some(store) => read_lanes::<L>(arena, *dst, *index, meta, |w, l| store[w * L + l]),
                // A ROM no poke has copied: every lane reads the shared image.
                None => read_lanes::<L>(arena, *dst, *index, meta, |w, _| meta.init[w]),
            }
        }
        Op::Add3 { dst, a, b, c } => {
            let mut carry = [0u64; L];
            for k in 0..dst.words() {
                let (ab, bb, cb, db) = (
                    lane_base::<L>(*a, k),
                    lane_base::<L>(*b, k),
                    lane_base::<L>(*c, k),
                    lane_base::<L>(*dst, k),
                );
                for l in 0..L {
                    let cur = arena[ab + l] as u128
                        + arena[bb + l] as u128
                        + arena[cb + l] as u128
                        + carry[l] as u128;
                    arena[db + l] = cur as u64;
                    carry[l] = (cur >> 64) as u64;
                }
            }
            mask_top_lanes::<L>(arena, *dst);
        }
        Op::Logic3 {
            dst,
            a,
            b,
            c,
            first,
            second,
        } => {
            // One dispatch per op, not per lane: each operator pair runs
            // its own row loop.
            use std::ops::{BitAnd, BitOr, BitXor};
            use BwKind::{And, Or, Xor};
            let slots = [*dst, *a, *b, *c];
            match (first, second) {
                (And, And) => logic3_lanes::<L>(arena, slots, u64::bitand, u64::bitand),
                (And, Or) => logic3_lanes::<L>(arena, slots, u64::bitand, u64::bitor),
                (And, Xor) => logic3_lanes::<L>(arena, slots, u64::bitand, u64::bitxor),
                (Or, And) => logic3_lanes::<L>(arena, slots, u64::bitor, u64::bitand),
                (Or, Or) => logic3_lanes::<L>(arena, slots, u64::bitor, u64::bitor),
                (Or, Xor) => logic3_lanes::<L>(arena, slots, u64::bitor, u64::bitxor),
                (Xor, And) => logic3_lanes::<L>(arena, slots, u64::bitxor, u64::bitand),
                (Xor, Or) => logic3_lanes::<L>(arena, slots, u64::bitxor, u64::bitor),
                (Xor, Xor) => logic3_lanes::<L>(arena, slots, u64::bitxor, u64::bitxor),
            }
        }
        Op::MuxChain {
            dst,
            cases,
            default,
        } => {
            // Branch-free row blend: start from the default row and blend
            // the cases in from last to first, so on every lane the first
            // case whose condition is set is blended last and wins.
            for k in 0..dst.words() {
                let mut out = row::<L>(arena, lane_base::<L>(*default, k));
                for (c, v) in cases.iter().rev() {
                    let mask = truthy_mask::<L>(arena, *c);
                    let v_r = row::<L>(arena, lane_base::<L>(*v, k));
                    for l in 0..L {
                        out[l] = (v_r[l] & mask[l]) | (out[l] & !mask[l]);
                    }
                }
                *row_mut::<L>(arena, lane_base::<L>(*dst, k)) = out;
            }
        }
        Op::CopyRange {
            dst_off,
            src_off,
            words,
        } => {
            let (d, s) = (*dst_off as usize * L, *src_off as usize * L);
            arena.copy_within(s..s + *words as usize * L, d);
        }
    }
}

/// The tape executor: one laned arena holding [`L`] independent copies
/// of the design's state, all advanced by a single pass over the op list
/// per settle. `SimBatch` groups run at `L` ∈ [`LANE_WIDTHS`]; `Sim`'s
/// compiled backend is `LaneEngine<1>` (see its [`SimBackend`] impl).
/// Every lane is differentially property-tested against the tree-walking
/// reference engine over the whole evaluation suite.
pub(crate) struct LaneEngine<const L: usize> {
    tape: Arc<Tape>,
    /// Laned arena: logical word `w`, lane `l` ↦ `arena[w * L + l]`.
    arena: Vec<u64>,
    /// Previous settled arena (per-lane toggle counting).
    prev_arena: Vec<u64>,
    /// The memory store, one entry per memory. A writable memory is
    /// laned: element `e`, word `k`, lane `l` ↦
    /// `arrays[a][(e * wpe + k) * L + l]`. A ROM is `None`: every lane
    /// reads the tape's shared image ([`TapeArray::init`]), so building,
    /// resetting and fingerprinting an engine costs nothing per ROM
    /// element. A poke into a ROM makes a laned copy (`Some`), which the
    /// next reset drops again.
    arrays: Vec<Option<Vec<u64>>>,
    /// Per-signal, per-lane toggle counters (`sig * L + lane`).
    toggles: Vec<u64>,
    /// Lane-major multiplication scratch (`L` segments).
    scratch: Vec<u64>,
    /// Pre-sized gather buffer reused by every fingerprint call.
    fp_scratch: Vec<u64>,
    dirty: DirtyRegions,
}

/// Per-region dirty bits (settle-skipping): a region executes on the next
/// settle only if one of its inputs changed since the last one.
struct DirtyRegions {
    regions: Vec<bool>,
    /// Fast path: true iff any region is dirty.
    any: bool,
}

impl DirtyRegions {
    #[inline(always)]
    fn mark(&mut self, r: u32) {
        if r != u32::MAX {
            self.regions[r as usize] = true;
            self.any = true;
        }
    }
}

impl<const L: usize> LaneEngine<L> {
    pub(crate) fn new(tape: Arc<Tape>) -> Self {
        let arena = Bits::broadcast_slab(&tape.init_arena, L);
        let arrays = tape
            .arrays
            .iter()
            .map(|a| {
                a.rom_digest
                    .is_none()
                    .then(|| Bits::broadcast_slab(&a.init, L))
            })
            .collect();
        let n = tape.sig_slots.len();
        let mul_words = tape
            .ops
            .iter()
            .map(|op| match op {
                Op::Mul { dst, .. } => dst.words(),
                _ => 0,
            })
            .max()
            .unwrap_or(0)
            .max(1);
        let fp_words = tape
            .reg_fp
            .iter()
            .map(|s| s.words())
            .chain(tape.arrays.iter().map(|a| a.wpe as usize))
            .max()
            .unwrap_or(1);
        LaneEngine {
            prev_arena: arena.clone(),
            arena,
            arrays,
            toggles: vec![0; n * L],
            scratch: vec![0; mul_words * L],
            fp_scratch: vec![0; fp_words],
            dirty: DirtyRegions {
                regions: vec![true; tape.regions.len()],
                any: true,
            },
            tape,
        }
    }

    /// Settles all lanes: one pass over the dirty regions' op ranges,
    /// every op's inner loop covering all `L` lanes. Clean regions are
    /// skipped entirely — their slots already hold settled values.
    #[inline(always)]
    pub(crate) fn settle(&mut self) {
        if !self.dirty.any {
            return;
        }
        // Opened only when there is work — the settle-skip early return
        // stays untraced — and the per-region children gate on one
        // enabled() check for the whole pass. Region children are batch
        // detail only: a traced `Sim` (`L = 1`) keeps one span per settle,
        // that is one per step or per read after a change. `L` is a
        // constant, so the check folds away.
        let _sp = anvil_trace::span("sim", "settle");
        let traced = L > 1 && anvil_trace::enabled();
        let tape = &*self.tape;
        for (ri, (s, e)) in tape.regions.iter().enumerate() {
            if !self.dirty.regions[ri] {
                continue;
            }
            let _sp_region = if traced {
                Some(anvil_trace::span("sim", "region").detail_with(|| format!("r{ri}")))
            } else {
                None
            };
            for op in &tape.ops[*s as usize..*e as usize] {
                exec_op_lanes::<L>(
                    op,
                    &mut self.arena,
                    &mut self.scratch,
                    &self.arrays,
                    &tape.arrays,
                );
            }
            self.dirty.regions[ri] = false;
        }
        self.dirty.any = false;
    }

    /// One clock edge for every lane: per-lane debug prints (delivered to
    /// `sink` as `(lane, message)`), per-lane toggle counting, per-lane
    /// array writes, and the register commit. The engine must be settled
    /// (every caller settles first).
    #[inline(always)]
    pub(crate) fn commit(&mut self, sink: &mut dyn FnMut(usize, String)) {
        debug_assert!(!self.dirty.any, "commit on an unsettled engine");
        let tape = &*self.tape;

        for p in &tape.prints {
            for l in 0..L {
                if any_set_lane::<L>(&self.arena, p.enable, l) {
                    let msg = match p.value {
                        Some(v) => format!("{}: {:x}", p.label, self.slot_bits_lane(v, l)),
                        None => p.label.clone(),
                    };
                    sink(l, msg);
                }
            }
        }

        // One fused pass: count toggles against the previous edge and
        // refresh the per-signal snapshot in place. Only signal slots are
        // touched — temp slots never enter the toggle observables.
        for (i, s) in tape.sig_slots.iter().enumerate() {
            let tg = row_mut::<L>(&mut self.toggles, i * L);
            for k in 0..s.words() {
                let base = lane_base::<L>(*s, k);
                let cur = row::<L>(&self.arena, base);
                let prev = row_mut::<L>(&mut self.prev_arena, base);
                for l in 0..L {
                    tg[l] += u64::from((cur[l] ^ prev[l]).count_ones());
                }
                *prev = cur;
            }
        }

        // Array writes read the pre-edge arena (their operand slots may
        // alias register current-value slots), so they commit before the
        // register next-values land. A write that actually lands dirties
        // every region reading the array.
        for w in &tape.writes {
            let meta = &tape.arrays[w.array as usize];
            let wpe = meta.wpe as usize;
            let store = self.arrays[w.array as usize]
                .as_mut()
                .expect("a memory with a write port is laned");
            let mut wrote = false;
            for l in 0..L {
                if any_set_lane::<L>(&self.arena, w.enable, l) {
                    let idx = self.arena[w.index.off() * L + l] as usize;
                    if idx < meta.depth as usize {
                        for k in 0..wpe {
                            store[(idx * wpe + k) * L + l] =
                                self.arena[lane_base::<L>(w.data, k) + l];
                        }
                        wrote = true;
                    }
                }
            }
            if wrote {
                for r in &tape.array_regions[w.array as usize] {
                    self.dirty.mark(*r);
                }
            }
        }
        // Register commit with settle-skipping: only registers whose next
        // value differs from the current one (on any lane) are copied, and
        // only their reader regions are re-settled next cycle.
        for (i, (cur, next)) in tape.reg_commits.iter().enumerate() {
            let (d, s) = (cur.off() * L, next.off() * L);
            let n = next.words() * L;
            if self.arena[d..d + n] != self.arena[s..s + n] {
                self.arena.copy_within(s..s + n, d);
                self.dirty.mark(tape.commit_region[i]);
            }
        }
    }

    fn slot_bits_lane(&self, s: Slot, lane: usize) -> Bits {
        let base = s.off() * L;
        Bits::from_lane_slab(s.width(), &self.arena[base..base + s.words() * L], L, lane)
    }

    /// Reads one lane of a signal. The caller is responsible for settling
    /// first (the `SimBatch` facade does).
    pub(crate) fn peek_lane(&self, id: SignalId, lane: usize) -> Bits {
        self.slot_bits_lane(self.tape.sig_slots[id.0], lane)
    }

    /// Writes one lane of an input signal (width pre-checked by the
    /// facade). Skips the dirty marking when the lane already holds
    /// `value`; otherwise only the region reading this input re-settles.
    pub(crate) fn poke_lane(&mut self, id: SignalId, value: &Bits, lane: usize) {
        let s = self.tape.sig_slots[id.0];
        let base = s.off() * L;
        let words = value.as_words();
        if (0..s.words()).all(|k| self.arena[base + k * L + lane] == words[k]) {
            return;
        }
        value.write_lane_slab(&mut self.arena[base..base + s.words() * L], L, lane);
        self.dirty.mark(self.tape.sig_region[id.0]);
    }

    /// Writes one `u64`-sourced value per sublane of an input signal in a
    /// single call (the sweep drivers' hot path): the slot, mask, and
    /// dirty-region lookup are resolved once for the whole row instead of
    /// per lane. Values are truncated to the signal width and
    /// zero-extended across higher words — exactly
    /// [`Bits::from_u64`] + [`LaneEngine::poke_lane`] per lane. `vals`
    /// may be shorter than `L` (tail groups); missing sublanes keep their
    /// value.
    #[inline(always)]
    pub(crate) fn poke_rows_u64(&mut self, id: SignalId, vals: &[u64]) {
        let s = self.tape.sig_slots[id.0];
        let base = s.off() * L;
        let mask = if s.width() >= 64 {
            u64::MAX
        } else {
            (1u64 << s.width()) - 1
        };
        let mut changed = false;
        for (l, &raw) in vals.iter().enumerate() {
            let v = raw & mask;
            if self.arena[base + l] != v {
                self.arena[base + l] = v;
                changed = true;
            }
        }
        for k in 1..s.words() {
            for l in 0..vals.len() {
                let w = &mut self.arena[base + k * L + l];
                if *w != 0 {
                    *w = 0;
                    changed = true;
                }
            }
        }
        if changed {
            self.dirty.mark(self.tape.sig_region[id.0]);
        }
    }

    /// One lane's value of an in-range memory element: from the laned
    /// store, or from the tape's shared image for an uncopied ROM.
    fn array_elem_lane(&self, array: usize, index: usize, lane: usize) -> Bits {
        let meta = &self.tape.arrays[array];
        let (width, wpe) = (meta.width as usize, meta.wpe as usize);
        match &self.arrays[array] {
            Some(store) => Bits::from_lane_slab(
                width,
                &store[index * wpe * L..(index + 1) * wpe * L],
                L,
                lane,
            ),
            None => Bits::from_words(width, &meta.init[index * wpe..(index + 1) * wpe]),
        }
    }

    /// Reads one lane of one memory element.
    pub(crate) fn peek_array_lane(&self, array: ArrayId, index: usize, lane: usize) -> Bits {
        let meta = &self.tape.arrays[array.0];
        assert!(
            index < meta.depth as usize,
            "array index {index} out of range for depth {}",
            meta.depth
        );
        self.array_elem_lane(array.0, index, lane)
    }

    /// Writes one lane of one memory element (width pre-matched by the
    /// facade). The first poke into a ROM gives this engine a laned copy
    /// of the shared image; the other lanes keep reading the same
    /// contents, from the copy.
    pub(crate) fn poke_array_lane(
        &mut self,
        array: ArrayId,
        index: usize,
        value: &Bits,
        lane: usize,
    ) {
        let tape = &*self.tape;
        let meta = &tape.arrays[array.0];
        assert!(
            index < meta.depth as usize,
            "array index {index} out of range for depth {}",
            meta.depth
        );
        let wpe = meta.wpe as usize;
        let store = self.arrays[array.0].get_or_insert_with(|| Bits::broadcast_slab(&meta.init, L));
        value.write_lane_slab(&mut store[index * wpe * L..(index + 1) * wpe * L], L, lane);
        for r in &tape.array_regions[array.0] {
            self.dirty.mark(*r);
        }
    }

    /// Laned memory words this engine holds: every writable memory, plus
    /// the copy of each ROM a poke has written since the last reset.
    pub(crate) fn memory_words(&self) -> usize {
        self.arrays.iter().flatten().map(Vec::len).sum()
    }

    /// Evaluates an expression against one settled lane.
    pub(crate) fn eval_lane(&self, e: &Expr, lane: usize) -> Bits {
        eval_expr(e, &LaneView { engine: self, lane })
    }

    /// Canonical architectural-state hash of one lane — equal to
    /// [`SimBackend::state_fingerprint`] for equal states. Reuses the
    /// engine's pre-sized gather scratch, so the call is allocation-free
    /// unless a poke has copied a ROM.
    #[inline(always)]
    pub(crate) fn state_fingerprint_lane(&mut self, lane: usize) -> u64 {
        let tape = &*self.tape;
        let mut h = StateHasher::new();
        for s in &tape.reg_fp {
            let n = s.words();
            for k in 0..n {
                self.fp_scratch[k] = self.arena[lane_base::<L>(*s, k) + lane];
            }
            h.add(s.width(), &self.fp_scratch[..n]);
        }
        for (meta, store) in tape.arrays.iter().zip(&self.arrays) {
            let (width, wpe) = (meta.width as usize, meta.wpe as usize);
            match (store, meta.rom_digest) {
                (None, Some(digest)) => h.add(width, &[digest]),
                (Some(copy), Some(_)) => {
                    let image: Vec<u64> = copy.iter().skip(lane).step_by(L).copied().collect();
                    h.add(width, &[rom_digest(width, &image)]);
                }
                (Some(store), None) => {
                    for e in 0..meta.depth as usize {
                        for k in 0..wpe {
                            self.fp_scratch[k] = store[(e * wpe + k) * L + lane];
                        }
                        h.add(width, &self.fp_scratch[..wpe]);
                    }
                }
                (None, None) => unreachable!("a writable memory is always laned"),
            }
        }
        h.finish()
    }

    /// Total observed bit toggles per signal on one lane, in signal-id
    /// order (matches [`SimBackend::toggle_counts`]).
    pub(crate) fn toggle_counts_lane(&self, lane: usize) -> Vec<u64> {
        (0..self.tape.sig_slots.len())
            .map(|i| self.toggles[i * L + lane])
            .collect()
    }

    /// Restores every lane to power-on state: writable memories refill
    /// from their images, and a poked ROM's copy is dropped so its lanes
    /// read the shared image again.
    pub(crate) fn reset(&mut self) {
        let tape = &*self.tape;
        for (k, w) in tape.init_arena.iter().enumerate() {
            self.arena[k * L..(k + 1) * L].fill(*w);
        }
        self.prev_arena.copy_from_slice(&self.arena);
        for (store, meta) in self.arrays.iter_mut().zip(&tape.arrays) {
            match store {
                Some(store) if meta.rom_digest.is_none() => {
                    for (k, w) in meta.init.iter().enumerate() {
                        store[k * L..(k + 1) * L].fill(*w);
                    }
                }
                _ => *store = None,
            }
        }
        self.toggles.fill(0);
        self.dirty.regions.fill(true);
        self.dirty.any = true;
    }
}

/// Width-erasing interface over [`LaneEngine`]: one monomorphized
/// executor per width in [`LANE_WIDTHS`], boxed so `SimBatch` can stack
/// heterogeneous strides (full-width groups plus a smaller tail group).
pub(crate) trait LaneGroup: Send + Sync {
    /// Number of lanes this group executes in lockstep.
    fn stride(&self) -> usize;
    /// Words of laned arena storage this group owns (tail-group sizing
    /// tests assert the footprint shrinks with the stride).
    fn arena_words(&self) -> usize;
    /// Words of laned memory storage this group owns (ROMs share the
    /// tape's image until poked).
    fn memory_words(&self) -> usize;
    fn settle(&mut self);
    /// One clock edge of a settled group (see [`LaneEngine::commit`]).
    fn commit(&mut self, sink: &mut dyn FnMut(usize, String));
    fn peek_lane(&self, id: SignalId, lane: usize) -> Bits;
    fn poke_lane(&mut self, id: SignalId, value: &Bits, lane: usize);
    fn poke_rows_u64(&mut self, id: SignalId, vals: &[u64]);
    fn peek_array_lane(&self, array: ArrayId, index: usize, lane: usize) -> Bits;
    fn poke_array_lane(&mut self, array: ArrayId, index: usize, value: &Bits, lane: usize);
    fn eval_lane(&self, e: &Expr, lane: usize) -> Bits;
    fn state_fingerprint_lane(&mut self, lane: usize) -> u64;
    fn toggle_counts_lane(&self, lane: usize) -> Vec<u64>;
    fn reset(&mut self);
}

impl<const L: usize> LaneGroup for LaneEngine<L> {
    fn stride(&self) -> usize {
        L
    }

    fn arena_words(&self) -> usize {
        self.arena.len()
    }

    fn memory_words(&self) -> usize {
        LaneEngine::memory_words(self)
    }

    fn settle(&mut self) {
        LaneEngine::settle(self)
    }

    fn commit(&mut self, sink: &mut dyn FnMut(usize, String)) {
        LaneEngine::commit(self, sink)
    }

    fn peek_lane(&self, id: SignalId, lane: usize) -> Bits {
        LaneEngine::peek_lane(self, id, lane)
    }

    fn poke_lane(&mut self, id: SignalId, value: &Bits, lane: usize) {
        LaneEngine::poke_lane(self, id, value, lane)
    }

    fn poke_rows_u64(&mut self, id: SignalId, vals: &[u64]) {
        LaneEngine::poke_rows_u64(self, id, vals)
    }

    fn peek_array_lane(&self, array: ArrayId, index: usize, lane: usize) -> Bits {
        LaneEngine::peek_array_lane(self, array, index, lane)
    }

    fn poke_array_lane(&mut self, array: ArrayId, index: usize, value: &Bits, lane: usize) {
        LaneEngine::poke_array_lane(self, array, index, value, lane)
    }

    fn eval_lane(&self, e: &Expr, lane: usize) -> Bits {
        LaneEngine::eval_lane(self, e, lane)
    }

    fn state_fingerprint_lane(&mut self, lane: usize) -> u64 {
        LaneEngine::state_fingerprint_lane(self, lane)
    }

    fn toggle_counts_lane(&self, lane: usize) -> Vec<u64> {
        LaneEngine::toggle_counts_lane(self, lane)
    }

    fn reset(&mut self) {
        LaneEngine::reset(self)
    }
}

/// Instantiates the monomorphized lane engine for a validated width.
pub(crate) fn new_lane_group(tape: Arc<Tape>, width: usize) -> Box<dyn LaneGroup> {
    match width {
        4 => lane_group::<4>(tape),
        8 => lane_group::<8>(tape),
        16 => lane_group::<16>(tape),
        32 => lane_group::<32>(tape),
        other => unreachable!("unvalidated lane width {other}"),
    }
}

/// The AVX2 copy of the engine where the CPU has AVX2 (checked here, once
/// per group), the portable one everywhere else.
fn lane_group<const L: usize>(tape: Arc<Tape>) -> Box<dyn LaneGroup> {
    #[cfg(target_arch = "x86_64")]
    if let Some(group) = avx2::Avx2::<L>::new(&tape) {
        return Box::new(group);
    }
    Box::new(LaneEngine::<L>::new(tape))
}

/// Smallest monomorphized width that covers `lanes` (tail groups), or
/// the widest when even that is too small.
pub(crate) fn tail_width(lanes: usize) -> usize {
    for w in LANE_WIDTHS {
        if w >= lanes {
            return w;
        }
    }
    LANE_WIDTHS[LANE_WIDTHS.len() - 1]
}

/// `Backend::Compiled`: `Sim` drives the executor at one lane. At
/// `L = 1` the laned arena, memories and toggle counters have the flat
/// scalar layout, so the slice-returning observables read them directly.
impl SimBackend for LaneEngine<1> {
    fn kind(&self) -> Backend {
        Backend::Compiled
    }

    fn settle(&mut self) {
        LaneEngine::settle(self)
    }

    fn commit(&mut self, cycle: u64, log: &mut Vec<(u64, String)>) {
        LaneEngine::commit(self, &mut |_, msg| log.push((cycle, msg)))
    }

    fn peek_id(&self, id: SignalId) -> Bits {
        self.peek_lane(id, 0)
    }

    fn poke_id(&mut self, id: SignalId, value: Bits) {
        self.poke_lane(id, &value, 0)
    }

    fn peek_array(&self, array: ArrayId, index: usize) -> Bits {
        self.peek_array_lane(array, index, 0)
    }

    fn poke_array(&mut self, array: ArrayId, index: usize, value: Bits) {
        self.poke_array_lane(array, index, &value, 0)
    }

    fn eval(&self, e: &Expr) -> Bits {
        self.eval_lane(e, 0)
    }

    fn state_fingerprint(&self) -> u64 {
        let mut h = StateHasher::new();
        for s in &self.tape.reg_fp {
            h.add(s.width(), &self.arena[s.range()]);
        }
        for (store, meta) in self.arrays.iter().zip(&self.tape.arrays) {
            let (width, wpe) = (meta.width as usize, meta.wpe as usize);
            match (store, meta.rom_digest) {
                (None, Some(digest)) => h.add(width, &[digest]),
                (Some(copy), Some(_)) => h.add(width, &[rom_digest(width, copy)]),
                (Some(store), None) => {
                    for elem in store.chunks_exact(wpe) {
                        h.add(width, elem);
                    }
                }
                (None, None) => unreachable!("a writable memory is always laned"),
            }
        }
        h.finish()
    }

    fn toggle_counts(&self) -> &[u64] {
        &self.toggles
    }

    fn reset(&mut self) {
        LaneEngine::reset(self)
    }
}

/// Read view of one lane, backing [`LaneEngine::eval_lane`] through the
/// shared expression evaluator.
struct LaneView<'a, const L: usize> {
    engine: &'a LaneEngine<L>,
    lane: usize,
}

impl<const L: usize> ValueSource for LaneView<'_, L> {
    fn signal(&self, id: SignalId) -> Bits {
        self.engine
            .slot_bits_lane(self.engine.tape.sig_slots[id.0], self.lane)
    }

    fn array_read(&self, array: ArrayId, index: usize) -> Bits {
        let meta = &self.engine.tape.arrays[array.0];
        if index < meta.depth as usize {
            self.engine.array_elem_lane(array.0, index, self.lane)
        } else {
            Bits::zero(meta.width as usize)
        }
    }
}

// The tape and its engines cross thread boundaries (batch simulation,
// BMC sweep workers).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Tape>();
    assert_send_sync::<LaneEngine<1>>();
    assert_send_sync::<LaneEngine<8>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    /// 128-bit datapath: multi-word add, mul, slice, concat, shift.
    #[test]
    fn wide_ops_match_tree() {
        use crate::engine::Sim;
        let mut m = Module::new("wide");
        let a = m.input("a", 128);
        let b = m.input("b", 128);
        let sum = m.output("sum", 128);
        let prod = m.output("prod", 128);
        let hi = m.output("hi", 64);
        let cat = m.output("cat", 192);
        let shl = m.output("shl", 128);
        let shr = m.output("shr", 128);
        let red = m.output("red", 1);
        m.assign(sum, Expr::Signal(a).add(Expr::Signal(b)));
        m.assign(
            prod,
            Expr::bin(BinaryOp::Mul, Expr::Signal(a), Expr::Signal(b)),
        );
        m.assign(
            hi,
            Expr::Slice {
                base: Box::new(Expr::Signal(a)),
                lo: 64,
                width: 64,
            },
        );
        m.assign(
            cat,
            Expr::Concat(vec![Expr::Signal(b).slice(0, 64), Expr::Signal(a)]),
        );
        m.assign(
            shl,
            Expr::bin(BinaryOp::Shl, Expr::Signal(a), Expr::lit(65, 8)),
        );
        m.assign(
            shr,
            Expr::bin(BinaryOp::Shr, Expr::Signal(a), Expr::lit(3, 8)),
        );
        m.assign(red, Expr::Unary(UnaryOp::RedXor, Box::new(Expr::Signal(a))));

        let mut tree = Sim::with_backend(&m, Backend::Tree).unwrap();
        let mut tape = Sim::with_backend(&m, Backend::Compiled).unwrap();
        let va = Bits::from_u128(0xDEAD_BEEF_0123_4567_89AB_CDEF_FEDC_BA98, 128);
        let vb = Bits::from_u128(0x1111_2222_3333_4444_5555_6666_7777_8888, 128);
        for s in [&mut tree, &mut tape] {
            s.poke("a", va.clone()).unwrap();
            s.poke("b", vb.clone()).unwrap();
        }
        for out in ["sum", "prod", "hi", "cat", "shl", "shr", "red"] {
            assert_eq!(
                tree.peek(out).unwrap(),
                tape.peek(out).unwrap(),
                "output `{out}` diverged"
            );
        }
    }

    /// Bit widths at which a row loop changes shape: one bit, one full
    /// word, a second word holding one bit, two full words.
    const ROW_WIDTHS: [usize; 4] = [1, 64, 65, 128];
    const ROW_LANES: usize = 32;
    const ROW_CYCLES: usize = 16;

    /// Priority-mux chains of 2 to 8 cases at every [`ROW_WIDTHS`] width
    /// (conditions and values alike), and `(a f b) s c` for all nine
    /// and/or/xor pairs at 1, 64 and 128 bits. Each output is one
    /// unshared expression tree, so each fuses whole. Also returns each
    /// condition input with its case index.
    fn row_ops_module() -> (Module, Vec<(SignalId, usize)>) {
        let mut m = Module::new("row_ops");
        let mut case_of = Vec::new();
        for w in ROW_WIDTHS {
            let conds: Vec<SignalId> = (0..8).map(|i| m.input(format!("c{w}_{i}"), w)).collect();
            case_of.extend(conds.iter().copied().zip(0..));
            let vals: Vec<SignalId> = (0..8).map(|i| m.input(format!("v{w}_{i}"), w)).collect();
            let default = m.input(format!("d{w}"), w);
            for n in 2..=8 {
                let chain = (0..n).rev().fold(Expr::Signal(default), |e, i| {
                    Expr::mux(Expr::Signal(conds[i]), Expr::Signal(vals[i]), e)
                });
                let o = m.output(format!("chain{w}_{n}"), w);
                m.assign(o, chain);
            }
        }
        let bitwise = [BinaryOp::And, BinaryOp::Or, BinaryOp::Xor];
        for w in [1, 64, 128] {
            let [a, b, c] = ["a", "b", "c"].map(|x| m.input(format!("{x}{w}"), w));
            for f in bitwise {
                for s in bitwise {
                    let o = m.output(format!("l{w}_{f:?}_{s:?}"), w);
                    let ab = Expr::bin(f, Expr::Signal(a), Expr::Signal(b));
                    m.assign(o, Expr::bin(s, ab, Expr::Signal(c)));
                }
            }
        }
        (m, case_of)
    }

    /// Seeded stimulus for [`row_ops_module`], `[cycle][lane]` → one value
    /// per input. Each lane and cycle draws the case `j` in 0..=8 that wins
    /// the 8-case chains: conditions before `j` are zero, condition `j` is
    /// set (half the time only in its top bit, so a set bit in the second
    /// word alone must count), and later ones are random. A chain of `n`
    /// cases so takes its first case, a middle one or the default.
    fn row_ops_stimulus(
        m: &Module,
        case_of: &[(SignalId, usize)],
    ) -> Vec<Vec<Vec<(SignalId, Bits)>>> {
        let mut rng = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let inputs: Vec<(SignalId, usize)> = m
            .iter_signals()
            .filter(|(_, s)| s.kind == SignalKind::Input)
            .map(|(id, s)| (id, s.width))
            .collect();
        (0..ROW_CYCLES)
            .map(|_| {
                (0..ROW_LANES)
                    .map(|_| {
                        let winner = (next() % 9) as usize;
                        inputs
                            .iter()
                            .map(|(id, w)| {
                                let mut v = Bits::from_words(*w, &[next(), next()]);
                                let case = case_of.iter().find(|(c, _)| c == id);
                                if let Some(&(_, i)) = case {
                                    if i < winner {
                                        v = Bits::zero(*w);
                                    } else if i == winner && (v.is_zero() || next() % 2 == 0) {
                                        v = Bits::from_u64(1, *w).shl(*w - 1);
                                    }
                                }
                                (*id, v)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Runs the stimulus through one lane group of width `L` and checks
    /// every output of every lane against `expected[cycle][lane]`.
    fn check_lane_group<const L: usize>(
        label: &str,
        mut group: Box<dyn LaneGroup>,
        m: &Module,
        stimulus: &[Vec<Vec<(SignalId, Bits)>>],
        expected: &[Vec<Vec<Bits>>],
    ) {
        let outputs: Vec<(SignalId, &str)> = m
            .iter_signals()
            .filter(|(_, s)| s.kind == SignalKind::Output)
            .map(|(id, s)| (id, s.name.as_str()))
            .collect();
        for (cycle, lanes) in stimulus.iter().enumerate() {
            for (lane, pokes) in lanes.iter().take(L).enumerate() {
                for (id, v) in pokes {
                    group.poke_lane(*id, v, lane);
                }
            }
            group.settle();
            for (lane, wants) in expected[cycle].iter().take(L).enumerate() {
                for ((id, name), want) in outputs.iter().zip(wants) {
                    assert_eq!(
                        &group.peek_lane(*id, lane),
                        want,
                        "{label} at {L} lanes, cycle {cycle}, lane {lane}: `{name}`"
                    );
                }
            }
            group.commit(&mut |_, _| {});
        }
    }

    /// Runs the portable engine and the group `SimBatch` would build (the
    /// AVX2 copy where the CPU has AVX2) at width `L`.
    fn check_width<const L: usize>(
        tape: &Arc<Tape>,
        m: &Module,
        stimulus: &[Vec<Vec<(SignalId, Bits)>>],
        expected: &[Vec<Vec<Bits>>],
    ) {
        let portable = Box::new(LaneEngine::<L>::new(Arc::clone(tape)));
        check_lane_group::<L>("portable", portable, m, stimulus, expected);
        let picked = new_lane_group(Arc::clone(tape), L);
        check_lane_group::<L>("picked", picked, m, stimulus, expected);
    }

    /// `MuxChain` and `Logic3` run as row loops: the fused ops match the
    /// tree engine on `Sim` and at every lane width, portable and AVX2.
    #[test]
    fn mux_chains_and_logic3_match_tree() {
        use crate::batch::TapeProgram;
        use crate::engine::Sim;
        let (m, case_of) = row_ops_module();
        let mix = TapeProgram::compile(&m).unwrap().op_mix();
        assert!(
            mix.contains(&("mux_chain", 7 * ROW_WIDTHS.len())),
            "{mix:?}"
        );
        assert!(mix.contains(&("logic3", 27)), "{mix:?}");
        assert!(
            !mix.iter()
                .any(|(k, _)| matches!(*k, "mux" | "and" | "or" | "xor")),
            "{mix:?}"
        );

        let stimulus = row_ops_stimulus(&m, &case_of);
        let outputs: Vec<SignalId> = m
            .iter_signals()
            .filter(|(_, s)| s.kind == SignalKind::Output)
            .map(|(id, _)| id)
            .collect();
        let mut expected = vec![Vec::new(); ROW_CYCLES];
        for lane in 0..ROW_LANES {
            let mut tree = Sim::with_backend(&m, Backend::Tree).unwrap();
            let mut tape = Sim::with_backend(&m, Backend::Compiled).unwrap();
            for (cycle, lanes) in stimulus.iter().enumerate() {
                for s in [&mut tree, &mut tape] {
                    for (id, v) in &lanes[lane] {
                        s.poke(&m.signal(*id).name, v.clone()).unwrap();
                    }
                }
                let want: Vec<Bits> = outputs.iter().map(|id| tree.peek_id(*id)).collect();
                for (id, w) in outputs.iter().zip(&want) {
                    let name = &m.signal(*id).name;
                    assert_eq!(
                        &tape.peek_id(*id),
                        w,
                        "Sim, cycle {cycle}, lane {lane}: `{name}`"
                    );
                }
                expected[cycle].push(want);
                tree.step().unwrap();
                tape.step().unwrap();
            }
        }

        let tape = Arc::new(Tape::compile(Arc::new(m.clone())).unwrap());
        check_width::<4>(&tape, &m, &stimulus, &expected);
        check_width::<8>(&tape, &m, &stimulus, &expected);
        check_width::<16>(&tape, &m, &stimulus, &expected);
        check_width::<32>(&tape, &m, &stimulus, &expected);
    }

    /// `(a ^ b) & c` with an unobservable intermediate fuses into one
    /// [`Op::Logic3`], and the fused tape matches the tree engine.
    #[test]
    fn bitwise_chains_fuse_to_logic3() {
        use crate::batch::TapeProgram;
        use crate::engine::Sim;
        let mut m = Module::new("bwchain");
        let a = m.input("a", 32);
        let b = m.input("b", 32);
        let c = m.input("c", 32);
        let o = m.output("o", 32);
        m.assign(
            o,
            Expr::bin(
                BinaryOp::And,
                Expr::bin(BinaryOp::Xor, Expr::Signal(a), Expr::Signal(b)),
                Expr::Signal(c),
            ),
        );

        let mix = TapeProgram::compile(&m).unwrap().op_mix();
        assert!(mix.contains(&("logic3", 1)), "{mix:?}");
        assert!(
            !mix.iter().any(|(k, _)| *k == "xor" || *k == "and"),
            "{mix:?}"
        );

        let mut tree = Sim::with_backend(&m, Backend::Tree).unwrap();
        let mut tape = Sim::with_backend(&m, Backend::Compiled).unwrap();
        for s in [&mut tree, &mut tape] {
            s.poke("a", Bits::from_u64(0xDEAD_BEEF, 32)).unwrap();
            s.poke("b", Bits::from_u64(0x0123_4567, 32)).unwrap();
            s.poke("c", Bits::from_u64(0xF0F0_F0F0, 32)).unwrap();
        }
        assert_eq!(tree.peek("o").unwrap(), tape.peek("o").unwrap());
        assert_eq!(
            tape.peek("o").unwrap().to_u64(),
            (0xDEAD_BEEFu64 ^ 0x0123_4567) & 0xF0F0_F0F0
        );
    }

    /// A concat of slice temps (the byte-shuffle pattern) fuses into one
    /// [`Op::Gather`] — no slices or concats remain — and the fused tape
    /// matches the tree engine, including zero-extension past the top of
    /// a sliced source.
    #[test]
    fn slice_concat_shuffles_fuse_to_gather() {
        use crate::batch::TapeProgram;
        use crate::engine::Sim;
        let mut m = Module::new("shuffle");
        let a = m.input("a", 64);
        let o = m.output("o", 40);
        // Three fields gathered out of `a`, one reading past its top bit
        // (slice zero-extends).
        m.assign(
            o,
            Expr::Concat(vec![
                Expr::Signal(a).slice(56, 16),
                Expr::Signal(a).slice(8, 16),
                Expr::Signal(a).slice(32, 8),
            ]),
        );

        let mix = TapeProgram::compile(&m).unwrap().op_mix();
        assert!(mix.contains(&("gather", 1)), "{mix:?}");
        assert!(
            !mix.iter().any(|(k, _)| *k == "slice" || *k == "concat"),
            "{mix:?}"
        );

        let mut tree = Sim::with_backend(&m, Backend::Tree).unwrap();
        let mut tape = Sim::with_backend(&m, Backend::Compiled).unwrap();
        let v = Bits::from_u64(0xFEDC_BA98_7654_3210, 64);
        for s in [&mut tree, &mut tape] {
            s.poke("a", v.clone()).unwrap();
        }
        assert_eq!(tree.peek("o").unwrap(), tape.peek("o").unwrap());
    }

    #[test]
    fn width_mismatched_driver_rejected() {
        use crate::engine::Sim;
        let mut m = Module::new("bad");
        let o = m.output("o", 4);
        m.assign(o, Expr::lit(0, 5));
        let err = match Sim::with_backend(&m, Backend::Compiled) {
            Err(e) => e,
            Ok(_) => panic!("expected a width error"),
        };
        assert_eq!(
            err,
            SimError::DriverWidth {
                signal: "o".into(),
                expected: 4,
                found: 5
            }
        );
    }
}

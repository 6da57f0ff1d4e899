//! Pretty-printer: renders an AST back to parseable Anvil source.
//!
//! Used by the round-trip property tests (`parse(pretty(parse(s)))` equals
//! `parse(s)` up to spans) and by diagnostic output.

use std::fmt::Write as _;

use crate::ast::*;

/// Renders a whole program.
pub fn pretty_program(p: &Program) -> String {
    let mut out = String::new();
    for e in &p.externs {
        let args: Vec<String> = e.arg_widths.iter().map(|w| logic(*w)).collect();
        let _ = writeln!(
            out,
            "extern fn {}({}) -> {};",
            e.name,
            args.join(", "),
            logic(e.ret_width)
        );
    }
    for c in &p.chans {
        out.push_str(&pretty_chan(c));
    }
    for pr in &p.procs {
        out.push_str(&pretty_proc(pr));
    }
    out
}

fn logic(width: usize) -> String {
    if width == 1 {
        "logic".to_string()
    } else {
        format!("logic[{width}]")
    }
}

/// Renders one channel definition.
pub fn pretty_chan(c: &ChanDef) -> String {
    let mut out = format!("chan {} {{\n", c.name);
    let msgs: Vec<String> = c
        .messages
        .iter()
        .map(|m| {
            let mut s = format!(
                "  {} {} : ({}@{})",
                m.dir,
                m.name,
                logic(m.width),
                m.lifetime
            );
            if !(m.sync_left == SyncMode::Dynamic && m.sync_right == SyncMode::Dynamic) {
                let _ = write!(s, " {}-{}", m.sync_left, m.sync_right);
            }
            s
        })
        .collect();
    out.push_str(&msgs.join(",\n"));
    out.push_str("\n}\n");
    out
}

/// Renders one process definition.
pub fn pretty_proc(p: &ProcDef) -> String {
    let params: Vec<String> = p
        .params
        .iter()
        .map(|ep| format!("{} : {} {}", ep.name, ep.side, ep.chan))
        .collect();
    let mut out = format!("proc {}({}) {{\n", p.name, params.join(", "));
    for r in &p.regs {
        let depth = r.depth.map(|d| format!("[{d}]")).unwrap_or_default();
        let init = r.init.map(|v| format!(" := {v}")).unwrap_or_default();
        let _ = writeln!(
            out,
            "  reg {} : {}{}{};",
            r.name,
            logic(r.width),
            depth,
            init
        );
    }
    for c in &p.chans {
        let _ = writeln!(out, "  chan {} -- {} : {};", c.left, c.right, c.chan);
    }
    for s in &p.spawns {
        let _ = writeln!(out, "  spawn {}({});", s.proc_name, s.args.join(", "));
    }
    for t in &p.threads {
        match t {
            Thread::Loop(t) => {
                let _ = writeln!(out, "  loop {{ {} }}", pretty_term(t));
            }
            Thread::Recursive(t) => {
                let _ = writeln!(out, "  recursive {{ {} }}", pretty_term(t));
            }
        }
    }
    out.push_str("}\n");
    out
}

fn seq_op(op: SeqOp) -> &'static str {
    match op {
        SeqOp::Wait => ">>",
        SeqOp::Join => ";",
    }
}

/// Renders a term as parseable source.
pub fn pretty_term(t: &Term) -> String {
    match &t.kind {
        TermKind::Lit { value, width } => match width {
            Some(w) => format!("{w}'d{value}"),
            None => format!("{value}"),
        },
        TermKind::Unit => "()".to_string(),
        TermKind::Var(x) => x.clone(),
        TermKind::RegRead { reg, index } => match index {
            Some(i) => format!("*{reg}[{}]", pretty_term(i)),
            None => format!("*{reg}"),
        },
        TermKind::Seq { first, op, rest } => {
            format!(
                "{} {} {}",
                wrap_seq_item(first),
                seq_op(*op),
                pretty_term(rest)
            )
        }
        TermKind::Let {
            name,
            value,
            op,
            body,
        } => {
            if matches!(body.kind, TermKind::Unit) {
                format!("let {name} = {}", wrap_seq_item(value))
            } else {
                format!(
                    "let {name} = {} {} {}",
                    wrap_seq_item(value),
                    seq_op(*op),
                    pretty_term(body)
                )
            }
        }
        TermKind::If {
            cond,
            then_t,
            else_t,
        } => {
            let mut s = format!("if {} {{ {} }}", pretty_term(cond), pretty_term(then_t));
            if let Some(e) = else_t {
                let _ = write!(s, " else {{ {} }}", pretty_term(e));
            }
            s
        }
        TermKind::Send { ep, msg, value } => {
            format!("send {ep}.{msg} ({})", pretty_term(value))
        }
        TermKind::Recv { ep, msg } => format!("recv {ep}.{msg}"),
        TermKind::Assign { reg, index, value } => match index {
            Some(i) => format!("set {reg}[{}] := {}", pretty_term(i), pretty_term(value)),
            None => format!("set {reg} := {}", pretty_term(value)),
        },
        TermKind::Cycle(n) => format!("cycle {n}"),
        TermKind::Ready { ep, msg } => format!("ready({ep}.{msg})"),
        // Left-associative: an equal-power right operand needs parentheses.
        TermKind::Binop(op, a, b) => {
            format!(
                "{} {op} {}",
                operand(a, op.power()),
                operand(b, op.power() + 1)
            )
        }
        TermKind::Unop(op, a) => format!("{op}{}", operand(a, PREFIX)),
        TermKind::Slice { base, hi, lo } => {
            let base = match &base.kind {
                // `*r[…]` would read the brackets as the register's index.
                TermKind::RegRead { index: None, .. } => format!("({})", pretty_term(base)),
                _ => operand(base, CLOSED),
            };
            format!("{base}[{hi}:{lo}]")
        }
        TermKind::Concat(parts) => {
            let inner: Vec<String> = parts.iter().map(pretty_term).collect();
            format!("concat({})", inner.join(", "))
        }
        TermKind::ExternCall { func, args } => {
            let inner: Vec<String> = args.iter().map(pretty_term).collect();
            format!("{func}({})", inner.join(", "))
        }
        TermKind::Dprint { label, value } => match value {
            Some(v) => format!("dprint \"{label}\" ({})", pretty_term(v)),
            None => format!("dprint \"{label}\""),
        },
        TermKind::Recurse => "recurse".to_string(),
    }
}

/// How tightly a prefix operator holds its operand: above every binary
/// operator's [`BinOp::power`].
const PREFIX: u8 = 8;
/// How tightly the closed forms hold together (literals, names, register
/// reads, calls, `concat`, `recv`, …, and slices of them): above prefix
/// operators.
const CLOSED: u8 = 9;

/// How tightly `t` holds together as an operand, on the scale of
/// [`BinOp::power`]. Sequence-level terms (`>>`, `let`, `set`, `if`,
/// `dprint`) are 0: as operands they are always parenthesized.
fn power(t: &Term) -> u8 {
    match &t.kind {
        TermKind::Binop(op, ..) => op.power(),
        TermKind::Unop(..) => PREFIX,
        TermKind::Lit { .. }
        | TermKind::Unit
        | TermKind::Var(_)
        | TermKind::RegRead { .. }
        | TermKind::Slice { .. }
        | TermKind::Concat(_)
        | TermKind::ExternCall { .. }
        | TermKind::Recv { .. }
        | TermKind::Send { .. }
        | TermKind::Ready { .. }
        | TermKind::Cycle(_)
        | TermKind::Recurse => CLOSED,
        _ => 0,
    }
}

/// `t` printed where it must bind at least as tightly as `min`: in
/// parentheses only where the parser would otherwise bind it differently,
/// so printing adds no nesting levels the source did not need.
fn operand(t: &Term, min: u8) -> String {
    if power(t) >= min {
        pretty_term(t)
    } else {
        format!("({})", pretty_term(t))
    }
}

/// Items inside sequences need braces when they are themselves sequences
/// (so the separators re-associate identically on re-parse).
fn wrap_seq_item(t: &Term) -> String {
    match &t.kind {
        TermKind::Seq { .. } | TermKind::Let { .. } => format!("{{ {} }}", pretty_term(t)),
        _ => pretty_term(t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn strip_spans_prog(p: &mut Program) {
        for c in &mut p.chans {
            c.span = Span::default();
            for m in &mut c.messages {
                m.span = Span::default();
            }
        }
        for e in &mut p.externs {
            e.span = Span::default();
        }
        for pr in &mut p.procs {
            pr.span = Span::default();
            for x in &mut pr.params {
                x.span = Span::default();
            }
            for x in &mut pr.regs {
                x.span = Span::default();
            }
            for x in &mut pr.chans {
                x.span = Span::default();
            }
            for x in &mut pr.spawns {
                x.span = Span::default();
            }
            for t in &mut pr.threads {
                match t {
                    Thread::Loop(t) | Thread::Recursive(t) => strip_spans(t),
                }
            }
        }
    }

    fn strip_spans(t: &mut Term) {
        t.span = Span::default();
        match &mut t.kind {
            TermKind::Seq { first, rest, .. } => {
                strip_spans(first);
                strip_spans(rest);
            }
            TermKind::Let { value, body, .. } => {
                strip_spans(value);
                strip_spans(body);
            }
            TermKind::If {
                cond,
                then_t,
                else_t,
            } => {
                strip_spans(cond);
                strip_spans(then_t);
                if let Some(e) = else_t {
                    strip_spans(e);
                }
            }
            TermKind::Send { value, .. } => strip_spans(value),
            TermKind::Assign { index, value, .. } => {
                if let Some(i) = index {
                    strip_spans(i);
                }
                strip_spans(value);
            }
            TermKind::Binop(_, a, b) => {
                strip_spans(a);
                strip_spans(b);
            }
            TermKind::Unop(_, a) | TermKind::Slice { base: a, .. } => strip_spans(a),
            TermKind::Concat(parts) => parts.iter_mut().for_each(strip_spans),
            TermKind::ExternCall { args, .. } => args.iter_mut().for_each(strip_spans),
            TermKind::Dprint { value: Some(v), .. } => strip_spans(v),
            TermKind::RegRead { index: Some(i), .. } => strip_spans(i),
            _ => {}
        }
    }

    fn roundtrip(src: &str) {
        let mut once = parse(src).unwrap();
        let printed = pretty_program(&once);
        let mut twice =
            parse(&printed).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed}"));
        strip_spans_prog(&mut once);
        strip_spans_prog(&mut twice);
        assert_eq!(once, twice, "roundtrip mismatch via:\n{printed}");
    }

    #[test]
    fn roundtrips() {
        roundtrip(
            "chan mem_ch {
                left rd_req : (logic[8]@#1) @#2-@dyn,
                right rd_res : (logic[8]@rd_req) @#rd_req+1-@#rd_req+1
            }
            extern fn sbox(logic[8]) -> logic[8];
            proc p(ep : left mem_ch) {
                reg r : logic[8] := 3;
                reg mem : logic[8][16];
                chan l -- rr : mem_ch;
                spawn q(l);
                loop {
                    let x = recv ep.rd_res >>
                    if (x ^ *r) == 0 { set mem[x] := sbox(x) } else { set r := (x)[3:0] + 1 };
                    dprint \"val\" (x) >>
                    send ep.rd_req (concat(x, ~x)) >>
                    cycle 2
                }
                recursive { let y = recv ep.rd_res >> { cycle 1 >> recurse } }
            }",
        );
    }

    /// Parentheses go only where precedence needs them, so deep but valid
    /// programs print within the parser's nesting limit.
    #[test]
    fn printing_adds_only_the_parentheses_precedence_needs() {
        let body = |expr: &str| {
            format!("proc p() {{ reg r : logic[8]; loop {{ set r := {expr} >> cycle 1 }} }}")
        };
        let sum = vec!["*r"; 300].join(" + ");
        roundtrip(&body(&sum));
        let nots = format!("{}*r", "~".repeat(140));
        roundtrip(&body(&nots));
        let printed = |expr: &str| {
            let p = parse(&body(expr)).unwrap();
            let Thread::Loop(t) = &p.procs[0].threads[0] else {
                unreachable!("one loop thread")
            };
            let TermKind::Seq { first, .. } = &t.kind else {
                unreachable!("set >> cycle")
            };
            let TermKind::Assign { value, .. } = &first.kind else {
                unreachable!("set r := …")
            };
            pretty_term(value)
        };
        // Each is written with exactly the parentheses it needs, so it
        // prints as written.
        for expr in [
            "*r + *r + *r",
            "*r + (*r + *r)",
            "(*r | *r) & *r",
            "*r - *r * *r == 1",
            "~(*r + 1)",
            "!~(*r)[3:0]",
            "(~*r)[3:0]",
            "(*r)[7:0][3:0] + *r[1]",
            "(if *r == 1 { 2 } else { 3 }) + *r",
            "(cycle 1 >> *r) + 1",
        ] {
            assert_eq!(printed(expr), expr);
            roundtrip(&body(expr));
        }
    }

    #[test]
    fn roundtrip_parallel_lets() {
        roundtrip(
            "proc p(a : left c, b : left c) {
                loop {
                    let x = recv a.m;
                    let y = recv b.m;
                    x >> y >> ready(a.m)
                }
            }",
        );
    }
}

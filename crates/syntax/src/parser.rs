//! Recursive-descent parser for the Anvil language.
//!
//! The grammar follows the paper's concrete syntax (§4, Figs. 5 and 6),
//! with sequences built from the wait (`>>`) and join (`;`) operators and
//! `let` bindings scoping over the remainder of their enclosing sequence —
//! exactly the shape of the paper's examples, where
//! `let r = recv ep.rd_req >> t` binds `r` for `t`.

use std::fmt;

use crate::ast::*;
use crate::lexer::{lex, LexError, SpannedTok, Tok};

/// A parse (or lex) error with location information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub span: Span,
}

impl ParseError {
    /// Renders the error with `line:col` resolved against the source text.
    pub fn render(&self, source: &str) -> String {
        self.render_with(&crate::LineIndex::new(source))
    }

    /// The error as a JSON-serializable [`crate::WireDiagnostic`], for
    /// compile services streaming diagnostics over a wire protocol.
    pub fn to_wire(&self, index: &crate::LineIndex<'_>) -> crate::WireDiagnostic {
        crate::WireDiagnostic::error_at(&self.message, self.span, index)
    }

    /// [`ParseError::render`] against a prebuilt [`crate::LineIndex`], so a
    /// driver rendering many diagnostics resolves lines in O(log n) each
    /// instead of rescanning the source per error.
    pub fn render_with(&self, index: &crate::LineIndex<'_>) -> String {
        let source = index.source();
        let (line, col) = index.span_start(self.span);
        let snippet: String = source
            [self.span.start.min(source.len())..self.span.end.min(source.len())]
            .chars()
            .take(40)
            .collect();
        format!("{line}:{col}: {} (at `{snippet}`)", self.message)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            span: e.span,
        }
    }
}

/// Parses a whole compilation unit.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Examples
///
/// ```
/// use anvil_syntax::parse;
///
/// let prog = parse(
///     "chan ch { left req : (logic[8]@#1) }
///      proc top(ep : right ch) { loop { let v = recv ep.req >> cycle 1 } }",
/// )?;
/// assert_eq!(prog.chans.len(), 1);
/// assert_eq!(prog.procs.len(), 1);
/// # Ok::<(), anvil_syntax::ParseError>(())
/// ```
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let toks = lex(source)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    p.program()
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Current nesting level (see [`MAX_NESTING`]).
    depth: usize,
}

enum Item {
    Plain(Term),
    Binding {
        name: String,
        value: Term,
        span: Span,
    },
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<Span, ParseError> {
        if self.peek() == t {
            let s = self.span();
            self.bump();
            Ok(s)
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    /// Runs `parse` one nesting level deeper, rejecting the source past
    /// [`MAX_NESTING`] levels. An error ends the whole parse, so the
    /// level need not be restored on that path.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.err(format!(
                "nesting deeper than the maximum of {MAX_NESTING} levels"
            )));
        }
        let out = parse(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            message,
            span: self.span(),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn int(&mut self) -> Result<u64, ParseError> {
        match self.peek().clone() {
            Tok::Int { value, .. } => {
                self.bump();
                Ok(value)
            }
            other => Err(self.err(format!("expected integer, found {other}"))),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Chan => prog.chans.push(self.chan_def()?),
                Tok::Proc => prog.procs.push(self.proc_def()?),
                Tok::Extern => prog.externs.push(self.extern_fn()?),
                other => {
                    return Err(self.err(format!(
                        "expected `chan`, `proc`, or `extern`, found {other}"
                    )))
                }
            }
        }
        Ok(prog)
    }

    // chan name { left m : (logic[8]@#1) @#2-@dyn, ... }
    fn chan_def(&mut self) -> Result<ChanDef, ParseError> {
        let start = self.expect(&Tok::Chan)?;
        let name = self.ident()?;
        self.expect(&Tok::LBrace)?;
        let mut messages = Vec::new();
        while !matches!(self.peek(), Tok::RBrace) {
            messages.push(self.message_def()?);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        let end = self.expect(&Tok::RBrace)?;
        Ok(ChanDef {
            name,
            messages,
            span: start.join(end),
        })
    }

    fn message_def(&mut self) -> Result<MessageDef, ParseError> {
        let start = self.span();
        let dir = match self.bump() {
            Tok::Left => Dir::Left,
            Tok::Right => Dir::Right,
            other => return Err(self.err(format!("expected `left` or `right`, found {other}"))),
        };
        let name = self.ident()?;
        self.expect(&Tok::Colon)?;
        self.expect(&Tok::LParen)?;
        let width = self.logic_type()?;
        self.expect(&Tok::At)?;
        let lifetime = self.duration()?;
        self.expect(&Tok::RParen)?;
        let (sync_left, sync_right) = if self.eat(&Tok::At) {
            let l = self.sync_mode()?;
            self.expect(&Tok::Minus)?;
            self.expect(&Tok::At)?;
            let r = self.sync_mode()?;
            (l, r)
        } else {
            (SyncMode::Dynamic, SyncMode::Dynamic)
        };
        let end = self.toks[self.pos.saturating_sub(1)].span;
        Ok(MessageDef {
            name,
            dir,
            width,
            lifetime,
            sync_left,
            sync_right,
            span: start.join(end),
        })
    }

    // logic or logic[N]
    fn logic_type(&mut self) -> Result<usize, ParseError> {
        self.expect(&Tok::Logic)?;
        if self.eat(&Tok::LBracket) {
            let at = self.span();
            let w = self.int()?;
            self.expect(&Tok::RBracket)?;
            if w == 0 {
                return Err(self.err("zero-width logic type".into()));
            }
            if w > MAX_WIDTH as u64 {
                return Err(ParseError {
                    message: format!("logic width {w} exceeds the maximum of {MAX_WIDTH} bits"),
                    span: at,
                });
            }
            Ok(w as usize)
        } else {
            Ok(1)
        }
    }

    // #N | msg | eternal
    fn duration(&mut self) -> Result<Duration, ParseError> {
        if self.eat(&Tok::Hash) {
            Ok(Duration::Cycles(self.int()?))
        } else if self.eat(&Tok::Eternal) {
            Ok(Duration::Eternal)
        } else {
            Ok(Duration::Message(self.ident()?))
        }
    }

    // dyn | #N | #msg+N
    fn sync_mode(&mut self) -> Result<SyncMode, ParseError> {
        if self.eat(&Tok::Dyn) {
            return Ok(SyncMode::Dynamic);
        }
        self.expect(&Tok::Hash)?;
        match self.peek().clone() {
            Tok::Int { value, .. } => {
                self.bump();
                Ok(SyncMode::Static(value))
            }
            Tok::Ident(msg) => {
                self.bump();
                let offset = if self.eat(&Tok::Plus) { self.int()? } else { 0 };
                Ok(SyncMode::Dependent { msg, offset })
            }
            other => Err(self.err(format!("expected sync mode, found {other}"))),
        }
    }

    // extern fn name(logic[8], logic[8]) -> logic[8];
    fn extern_fn(&mut self) -> Result<ExternFn, ParseError> {
        let start = self.expect(&Tok::Extern)?;
        self.expect(&Tok::Fn)?;
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut arg_widths = Vec::new();
        while !matches!(self.peek(), Tok::RParen) {
            arg_widths.push(self.logic_type()?);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Arrow)?;
        let ret_width = self.logic_type()?;
        let end = self.expect(&Tok::Semi)?;
        Ok(ExternFn {
            name,
            arg_widths,
            ret_width,
            span: start.join(end),
        })
    }

    fn proc_def(&mut self) -> Result<ProcDef, ParseError> {
        let start = self.expect(&Tok::Proc)?;
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        while !matches!(self.peek(), Tok::RParen) {
            let pstart = self.span();
            let pname = self.ident()?;
            self.expect(&Tok::Colon)?;
            let side = match self.bump() {
                Tok::Left => Dir::Left,
                Tok::Right => Dir::Right,
                other => return Err(self.err(format!("expected `left` or `right`, found {other}"))),
            };
            let chan = self.ident()?;
            params.push(EndpointParam {
                name: pname,
                side,
                chan,
                span: pstart.join(self.toks[self.pos - 1].span),
            });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::LBrace)?;

        let mut regs = Vec::new();
        let mut chans = Vec::new();
        let mut spawns = Vec::new();
        let mut threads = Vec::new();
        loop {
            match self.peek() {
                Tok::RBrace => break,
                Tok::Reg => regs.push(self.reg_def()?),
                Tok::Chan => chans.push(self.chan_inst()?),
                Tok::Spawn => spawns.push(self.spawn()?),
                Tok::Loop => {
                    self.bump();
                    self.expect(&Tok::LBrace)?;
                    let t = self.seq()?;
                    self.expect(&Tok::RBrace)?;
                    threads.push(Thread::Loop(t));
                }
                Tok::Recursive => {
                    self.bump();
                    self.expect(&Tok::LBrace)?;
                    let t = self.seq()?;
                    self.expect(&Tok::RBrace)?;
                    threads.push(Thread::Recursive(t));
                }
                other => {
                    return Err(self.err(format!(
                        "expected `reg`, `chan`, `spawn`, `loop`, or `recursive`, found {other}"
                    )))
                }
            }
        }
        let end = self.expect(&Tok::RBrace)?;
        Ok(ProcDef {
            name,
            params,
            regs,
            chans,
            spawns,
            threads,
            span: start.join(end),
        })
    }

    // reg r : logic[8]; | reg mem : logic[8][16]; | reg r : logic[8] := 3;
    fn reg_def(&mut self) -> Result<RegDef, ParseError> {
        let start = self.expect(&Tok::Reg)?;
        let name = self.ident()?;
        self.expect(&Tok::Colon)?;
        let width = self.logic_type()?;
        let depth = if self.eat(&Tok::LBracket) {
            let at = self.span();
            let d = self.int()?;
            self.expect(&Tok::RBracket)?;
            if d > (MAX_ARRAY_BITS / width) as u64 {
                return Err(ParseError {
                    message: format!(
                        "register array of {d} × {width}-bit entries exceeds the maximum of \
                         {MAX_ARRAY_BITS} bits"
                    ),
                    span: at,
                });
            }
            Some(d as usize)
        } else {
            None
        };
        let init = if self.eat(&Tok::ColonEq) {
            Some(self.int()?)
        } else {
            None
        };
        let end = self.expect(&Tok::Semi)?;
        Ok(RegDef {
            name,
            width,
            depth,
            init,
            span: start.join(end),
        })
    }

    // chan l -- r : type;
    fn chan_inst(&mut self) -> Result<ChanInst, ParseError> {
        let start = self.expect(&Tok::Chan)?;
        let left = self.ident()?;
        self.expect(&Tok::DashDash)?;
        let right = self.ident()?;
        self.expect(&Tok::Colon)?;
        let chan = self.ident()?;
        let end = self.expect(&Tok::Semi)?;
        Ok(ChanInst {
            left,
            right,
            chan,
            span: start.join(end),
        })
    }

    // spawn p(a, b);
    fn spawn(&mut self) -> Result<Spawn, ParseError> {
        let start = self.expect(&Tok::Spawn)?;
        let proc_name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        while !matches!(self.peek(), Tok::RParen) {
            args.push(self.ident()?);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        let end = self.expect(&Tok::Semi)?;
        Ok(Spawn {
            proc_name,
            args,
            span: start.join(end),
        })
    }

    /// Parses a sequence of items separated by `>>` / `;`, building the
    /// right-nested term with `let` scoping over the remainder.
    fn seq(&mut self) -> Result<Term, ParseError> {
        let item = self.item()?;
        let op = match self.peek() {
            Tok::WaitOp => SeqOp::Wait,
            Tok::Semi => SeqOp::Join,
            _ => {
                return Ok(match item {
                    Item::Plain(t) => t,
                    Item::Binding { name, value, span } => Term::new(
                        TermKind::Let {
                            name,
                            value: Box::new(value),
                            op: SeqOp::Wait,
                            body: Box::new(Term::new(TermKind::Unit, span)),
                        },
                        span,
                    ),
                })
            }
        };
        self.bump();
        // Allow a trailing separator before a closing brace/paren.
        if matches!(self.peek(), Tok::RBrace | Tok::RParen | Tok::Eof) {
            return Ok(match item {
                Item::Plain(t) => t,
                Item::Binding { name, value, span } => Term::new(
                    TermKind::Let {
                        name,
                        value: Box::new(value),
                        op,
                        body: Box::new(Term::new(TermKind::Unit, span)),
                    },
                    span,
                ),
            });
        }
        let rest = self.nested(Parser::seq)?;
        Ok(match item {
            Item::Plain(t) => {
                let span = t.span.join(rest.span);
                Term::new(
                    TermKind::Seq {
                        first: Box::new(t),
                        op,
                        rest: Box::new(rest),
                    },
                    span,
                )
            }
            Item::Binding { name, value, span } => {
                let span = span.join(rest.span);
                Term::new(
                    TermKind::Let {
                        name,
                        value: Box::new(value),
                        op,
                        body: Box::new(rest),
                    },
                    span,
                )
            }
        })
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        match self.peek() {
            Tok::Let => {
                let start = self.span();
                self.bump();
                let name = self.ident()?;
                self.expect(&Tok::Equals)?;
                let value = match self.nested(Parser::item)? {
                    Item::Plain(t) => t,
                    Item::Binding { .. } => {
                        return Err(self.err("`let` cannot directly bind another `let`".into()))
                    }
                };
                let span = start.join(value.span);
                Ok(Item::Binding { name, value, span })
            }
            Tok::Set => {
                let start = self.span();
                self.bump();
                let reg = self.ident()?;
                let index = if self.eat(&Tok::LBracket) {
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    Some(Box::new(idx))
                } else {
                    None
                };
                self.expect(&Tok::ColonEq)?;
                let value = self.expr()?;
                let span = start.join(value.span);
                Ok(Item::Plain(Term::new(
                    TermKind::Assign {
                        reg,
                        index,
                        value: Box::new(value),
                    },
                    span,
                )))
            }
            // Bare `r := v` assignment (paper Fig. 6 allows both forms).
            Tok::Ident(_) if *self.peek2() == Tok::ColonEq => {
                let start = self.span();
                let reg = self.ident()?;
                self.bump(); // :=
                let value = self.expr()?;
                let span = start.join(value.span);
                Ok(Item::Plain(Term::new(
                    TermKind::Assign {
                        reg,
                        index: None,
                        value: Box::new(value),
                    },
                    span,
                )))
            }
            _ => Ok(Item::Plain(self.expr()?)),
        }
    }

    // Precedence climbing. Lowest: comparisons; highest: unary.
    fn expr(&mut self) -> Result<Term, ParseError> {
        self.nested(Parser::cmp_expr)
    }

    fn cmp_expr(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.or_expr()?;
        loop {
            let op = match self.peek() {
                Tok::EqEq => BinOp::Eq,
                Tok::NotEq => BinOp::Ne,
                Tok::LessThan => BinOp::Lt,
                Tok::LessEq => BinOp::Le,
                Tok::GreaterThan => BinOp::Gt,
                Tok::GreaterEq => BinOp::Ge,
                _ => break,
            };
            self.bump();
            let rhs = self.or_expr()?;
            let span = lhs.span.join(rhs.span);
            lhs = Term::new(TermKind::Binop(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn or_expr(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.xor_expr()?;
        while matches!(self.peek(), Tok::Pipe) {
            self.bump();
            let rhs = self.xor_expr()?;
            let span = lhs.span.join(rhs.span);
            lhs = Term::new(
                TermKind::Binop(BinOp::Or, Box::new(lhs), Box::new(rhs)),
                span,
            );
        }
        Ok(lhs)
    }

    fn xor_expr(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), Tok::Caret) {
            self.bump();
            let rhs = self.and_expr()?;
            let span = lhs.span.join(rhs.span);
            lhs = Term::new(
                TermKind::Binop(BinOp::Xor, Box::new(lhs), Box::new(rhs)),
                span,
            );
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.shift_expr()?;
        while matches!(self.peek(), Tok::Amp) {
            self.bump();
            let rhs = self.shift_expr()?;
            let span = lhs.span.join(rhs.span);
            lhs = Term::new(
                TermKind::Binop(BinOp::And, Box::new(lhs), Box::new(rhs)),
                span,
            );
        }
        Ok(lhs)
    }

    fn shift_expr(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.add_expr()?;
        loop {
            let op = match self.peek() {
                Tok::ShlOp => BinOp::Shl,
                Tok::ShrOp => BinOp::Shr,
                _ => break,
            };
            self.bump();
            let rhs = self.add_expr()?;
            let span = lhs.span.join(rhs.span);
            lhs = Term::new(TermKind::Binop(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            let span = lhs.span.join(rhs.span);
            lhs = Term::new(TermKind::Binop(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    // `*` in operand position multiplies; as a prefix it reads a register.
    fn mul_expr(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.unary_expr()?;
        while matches!(self.peek(), Tok::Star) {
            self.bump();
            let rhs = self.unary_expr()?;
            let span = lhs.span.join(rhs.span);
            lhs = Term::new(
                TermKind::Binop(BinOp::Mul, Box::new(lhs), Box::new(rhs)),
                span,
            );
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Term, ParseError> {
        let start = self.span();
        let op = match self.peek() {
            Tok::Tilde => Some(UnOp::Not),
            Tok::Bang => Some(UnOp::LogicNot),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let inner = self.nested(Parser::unary_expr)?;
            let span = start.join(inner.span);
            return Ok(Term::new(TermKind::Unop(op, Box::new(inner)), span));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Term, ParseError> {
        let mut t = self.atom()?;
        // Static slices: t[hi:lo] or t[bit].
        while matches!(self.peek(), Tok::LBracket) {
            self.bump();
            let hi = self.int()? as usize;
            let lo = if self.eat(&Tok::Colon) {
                self.int()? as usize
            } else {
                hi
            };
            let end = self.expect(&Tok::RBracket)?;
            if lo > hi {
                return Err(self.err(format!("slice [{hi}:{lo}] has low bit above high bit")));
            }
            let span = t.span.join(end);
            t = Term::new(
                TermKind::Slice {
                    base: Box::new(t),
                    hi,
                    lo,
                },
                span,
            );
        }
        Ok(t)
    }

    fn atom(&mut self) -> Result<Term, ParseError> {
        let start = self.span();
        match self.peek().clone() {
            Tok::Int { value, width } => {
                self.bump();
                Ok(Term::new(
                    TermKind::Lit {
                        value,
                        width: width.filter(|w| *w > 0),
                    },
                    start,
                ))
            }
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Ok(Term::new(TermKind::Unit, start));
                }
                let inner = self.seq()?;
                self.expect(&Tok::RParen)?;
                Ok(inner)
            }
            Tok::LBrace => {
                self.bump();
                if self.eat(&Tok::RBrace) {
                    return Ok(Term::new(TermKind::Unit, start));
                }
                let inner = self.seq()?;
                self.expect(&Tok::RBrace)?;
                Ok(inner)
            }
            Tok::Star => {
                self.bump();
                let reg = self.ident()?;
                let index = if self.eat(&Tok::LBracket) {
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    Some(Box::new(idx))
                } else {
                    None
                };
                let end = self.toks[self.pos - 1].span;
                Ok(Term::new(TermKind::RegRead { reg, index }, start.join(end)))
            }
            Tok::Recv => {
                self.bump();
                let ep = self.ident()?;
                self.expect(&Tok::Dot)?;
                let msg = self.ident()?;
                let end = self.toks[self.pos - 1].span;
                Ok(Term::new(TermKind::Recv { ep, msg }, start.join(end)))
            }
            Tok::Send => {
                self.bump();
                let ep = self.ident()?;
                self.expect(&Tok::Dot)?;
                let msg = self.ident()?;
                self.expect(&Tok::LParen)?;
                let value = self.seq()?;
                let end = self.expect(&Tok::RParen)?;
                Ok(Term::new(
                    TermKind::Send {
                        ep,
                        msg,
                        value: Box::new(value),
                    },
                    start.join(end),
                ))
            }
            Tok::Cycle => {
                self.bump();
                let n = self.int()?;
                let end = self.toks[self.pos - 1].span;
                Ok(Term::new(TermKind::Cycle(n), start.join(end)))
            }
            Tok::Ready => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let ep = self.ident()?;
                self.expect(&Tok::Dot)?;
                let msg = self.ident()?;
                let end = self.expect(&Tok::RParen)?;
                Ok(Term::new(TermKind::Ready { ep, msg }, start.join(end)))
            }
            Tok::Concat => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let mut parts = Vec::new();
                while !matches!(self.peek(), Tok::RParen) {
                    parts.push(self.expr()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                let end = self.expect(&Tok::RParen)?;
                if parts.is_empty() {
                    return Err(self.err("empty concat".into()));
                }
                Ok(Term::new(TermKind::Concat(parts), start.join(end)))
            }
            Tok::Dprint => {
                self.bump();
                let label = match self.bump() {
                    Tok::Str(s) => s,
                    other => return Err(self.err(format!("expected string label, found {other}"))),
                };
                let value = if self.eat(&Tok::LParen) {
                    let v = self.expr()?;
                    self.expect(&Tok::RParen)?;
                    Some(Box::new(v))
                } else {
                    None
                };
                let end = self.toks[self.pos - 1].span;
                Ok(Term::new(
                    TermKind::Dprint { label, value },
                    start.join(end),
                ))
            }
            Tok::Recurse => {
                self.bump();
                Ok(Term::new(TermKind::Recurse, start))
            }
            Tok::If => {
                self.bump();
                let cond = self.expr()?;
                self.expect(&Tok::LBrace)?;
                let then_t = if self.eat(&Tok::RBrace) {
                    Term::new(TermKind::Unit, start)
                } else {
                    let t = self.seq()?;
                    self.expect(&Tok::RBrace)?;
                    t
                };
                let else_t = if self.eat(&Tok::Else) {
                    if matches!(self.peek(), Tok::If) {
                        Some(Box::new(self.nested(Parser::atom)?))
                    } else {
                        self.expect(&Tok::LBrace)?;
                        if self.eat(&Tok::RBrace) {
                            None
                        } else {
                            let t = self.seq()?;
                            self.expect(&Tok::RBrace)?;
                            Some(Box::new(t))
                        }
                    }
                } else {
                    None
                };
                let end = self.toks[self.pos - 1].span;
                Ok(Term::new(
                    TermKind::If {
                        cond: Box::new(cond),
                        then_t: Box::new(then_t),
                        else_t,
                    },
                    start.join(end),
                ))
            }
            Tok::Ident(name) => {
                self.bump();
                if matches!(self.peek(), Tok::LParen) {
                    // extern function call
                    self.bump();
                    let mut args = Vec::new();
                    while !matches!(self.peek(), Tok::RParen) {
                        args.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    let end = self.expect(&Tok::RParen)?;
                    Ok(Term::new(
                        TermKind::ExternCall { func: name, args },
                        start.join(end),
                    ))
                } else {
                    Ok(Term::new(TermKind::Var(name), start))
                }
            }
            other => Err(self.err(format!("expected a term, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_channel_with_contracts() {
        let prog = parse(
            "chan mem_ch {
                left rd_req : (logic[8]@#1) @#2-@dyn,
                left wr_req : (logic[16]@#1),
                right rd_res : (logic[8]@rd_req) @#rd_req+1-@#rd_req+1,
                right wr_res : (logic@#1) @#wr_req+1-@#wr_req+1
            }",
        )
        .unwrap();
        let ch = prog.chan("mem_ch").unwrap();
        assert_eq!(ch.messages.len(), 4);
        let rd_req = ch.message("rd_req").unwrap();
        assert_eq!(rd_req.dir, Dir::Left);
        assert_eq!(rd_req.width, 8);
        assert_eq!(rd_req.lifetime, Duration::Cycles(1));
        assert_eq!(rd_req.sync_left, SyncMode::Static(2));
        assert_eq!(rd_req.sync_right, SyncMode::Dynamic);
        let rd_res = ch.message("rd_res").unwrap();
        assert_eq!(rd_res.lifetime, Duration::Message("rd_req".into()));
        assert_eq!(
            rd_res.sync_left,
            SyncMode::Dependent {
                msg: "rd_req".into(),
                offset: 1
            }
        );
        let wr_req = ch.message("wr_req").unwrap();
        assert_eq!(wr_req.sync_left, SyncMode::Dynamic);
    }

    #[test]
    fn parses_proc_with_threads() {
        let prog = parse(
            "chan c { left m : (logic[8]@#1) }
             proc counter(ep : right c) {
                reg counter : logic[32];
                loop { set counter := *counter + 1 >> cycle 1 }
             }",
        )
        .unwrap();
        let p = prog.proc("counter").unwrap();
        assert_eq!(p.regs.len(), 1);
        assert_eq!(p.regs[0].width, 32);
        assert_eq!(p.threads.len(), 1);
        match &p.threads[0] {
            Thread::Loop(t) => match &t.kind {
                TermKind::Seq { op, .. } => assert_eq!(*op, SeqOp::Wait),
                other => panic!("expected Seq, got {other:?}"),
            },
            Thread::Recursive(_) => panic!("expected loop"),
        }
    }

    #[test]
    fn let_scopes_over_rest_of_sequence() {
        let prog = parse(
            "proc p(ep : left c) {
                loop { let r = recv ep.m >> send ep.res (r + 1) }
             }",
        )
        .unwrap();
        let Thread::Loop(t) = &prog.procs[0].threads[0] else {
            panic!()
        };
        match &t.kind {
            TermKind::Let { name, op, body, .. } => {
                assert_eq!(name, "r");
                assert_eq!(*op, SeqOp::Wait);
                assert!(matches!(body.kind, TermKind::Send { .. }));
            }
            other => panic!("expected Let, got {other:?}"),
        }
    }

    #[test]
    fn parallel_lets_with_join() {
        // Fig. 6 shape: two receives started in parallel.
        let prog = parse(
            "proc p(a : left c, b : left c) {
                loop {
                    let x = recv a.m;
                    let y = recv b.m;
                    x >> y >> cycle 1
                }
             }",
        )
        .unwrap();
        let Thread::Loop(t) = &prog.procs[0].threads[0] else {
            panic!()
        };
        let TermKind::Let { name, op, body, .. } = &t.kind else {
            panic!("outer let");
        };
        assert_eq!(name, "x");
        assert_eq!(*op, SeqOp::Join);
        assert!(matches!(&body.kind, TermKind::Let { .. }));
    }

    #[test]
    fn operators_and_slices() {
        // Slicing a register read needs parens: `(*r)[0:0]`.
        parse(
            "proc p() { reg r : logic[8]; loop { set r := (*r ^ 8'h1f) + concat(2'd1, (*r)[0:0]) >> cycle 1 } }",
        )
        .unwrap();
        let prog2 =
            parse("proc p() { reg r : logic[8]; loop { set r := (*r)[3:0] << 1 } }").unwrap();
        drop(prog2);
    }

    #[test]
    fn if_else_chain() {
        let prog = parse(
            "proc p() {
                reg r : logic[8];
                loop {
                    if *r == 0 { set r := 1 } else if *r == 1 { set r := 2 } else { set r := 0 }
                }
             }",
        )
        .unwrap();
        let Thread::Loop(t) = &prog.procs[0].threads[0] else {
            panic!()
        };
        let TermKind::If { else_t, .. } = &t.kind else {
            panic!()
        };
        assert!(matches!(else_t.as_ref().unwrap().kind, TermKind::If { .. }));
    }

    #[test]
    fn extern_fn_and_calls() {
        let prog = parse(
            "extern fn sbox(logic[8]) -> logic[8];
             proc p(ep : left c) { loop { let x = recv ep.m >> send ep.res (sbox(x)) } }",
        )
        .unwrap();
        assert_eq!(prog.externs.len(), 1);
        assert_eq!(prog.externs[0].arg_widths, vec![8]);
    }

    #[test]
    fn chan_inst_and_spawn() {
        let prog = parse(
            "proc top() {
                chan l -- r : mem_ch;
                spawn child(l);
                loop { cycle 1 }
             }",
        )
        .unwrap();
        assert_eq!(prog.procs[0].chans.len(), 1);
        assert_eq!(prog.procs[0].spawns[0].args, vec!["l".to_string()]);
    }

    #[test]
    fn logic_widths_are_capped() {
        let src = |w: &str| format!("proc p() {{ reg r : logic[{w}]; loop {{ cycle 1 }} }}");
        let prog = parse(&src("65536")).unwrap();
        assert_eq!(prog.procs[0].regs[0].width, MAX_WIDTH);
        for w in ["65537", "18446744073709551615"] {
            let text = src(w);
            let err = parse(&text).unwrap_err();
            assert!(err.message.contains("exceeds the maximum"), "{w}: {err:?}");
            assert_eq!(&text[err.span.start..err.span.end], w);
            assert!(err.render(&text).starts_with("1:"));
        }
    }

    #[test]
    fn register_arrays_are_capped() {
        let src = |w: usize, d: &str| {
            format!("proc p() {{ reg m : logic[{w}][{d}]; loop {{ cycle 1 }} }}")
        };
        // At the cap: 2^16 bits in total, however they are shaped.
        let prog = parse(&src(1, "65536")).unwrap();
        assert_eq!(prog.procs[0].regs[0].depth, Some(MAX_ARRAY_BITS));
        parse(&src(16, "4096")).unwrap();
        parse(&src(MAX_WIDTH, "1")).unwrap();
        for (w, d) in [
            (8, "4294967296"),
            (8, "18446744073709551615"),
            (1, "65537"),
            (17, "4096"),
            (MAX_WIDTH, "2"),
        ] {
            let text = src(w, d);
            let err = parse(&text).unwrap_err();
            assert!(
                err.message.contains("exceeds the maximum"),
                "{w}×{d}: {err:?}"
            );
            assert_eq!(&text[err.span.start..err.span.end], d);
            assert!(err.render(&text).starts_with("1:"));
        }
    }

    /// A loop body whose deepest nesting level is exactly `depth`, built
    /// from `kind`'s nesting construct.
    fn nested(kind: &str, depth: usize) -> String {
        let body = match kind {
            // The loop body's expression is level 1; each `(…)` adds one.
            "parens" => format!("{}1{}", "(".repeat(depth - 1), ")".repeat(depth - 1)),
            // Level 1 is the `~1` expression, each `~` adds one.
            "unary" => format!("{}1", "~".repeat(depth - 1)),
            // A sequence nests to the right: item `n` sits at level `n`.
            "sequence" => vec!["cycle 1"; depth].join(" >> "),
            // Each block adds one level around its body.
            "blocks" => format!(
                "{}cycle 1{}",
                "{ ".repeat(depth - 1),
                " }".repeat(depth - 1)
            ),
            // Each `else if` adds one level.
            "else_if" => format!(
                "{}{{ cycle 1 }}",
                "if 1 { cycle 1 } else ".repeat(depth - 1)
            ),
            _ => unreachable!("unknown nesting kind {kind}"),
        };
        format!("proc p() {{ loop {{ {body} }} }}")
    }

    #[test]
    fn nesting_is_capped_at_256_levels() {
        for kind in ["parens", "unary", "sequence", "blocks", "else_if"] {
            let ok = nested(kind, MAX_NESTING);
            parse(&ok).unwrap_or_else(|e| panic!("{kind} at {MAX_NESTING}: {}", e.render(&ok)));
            let deep = nested(kind, MAX_NESTING + 1);
            let err = parse(&deep).unwrap_err();
            assert!(
                err.message.contains("nesting deeper than"),
                "{kind}: {err:?}"
            );
            assert!(err.render(&deep).starts_with("1:"), "{kind}: {err:?}");
        }
    }

    #[test]
    fn let_chains_count_toward_nesting() {
        // `let` cannot bind a `let`, but the parser must reject a long
        // chain of them by depth before it recurses into the whole chain.
        let src = format!("proc p() {{ loop {{ {}1 }} }}", "let x = ".repeat(10_000));
        let err = parse(&src).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err:?}");
    }

    #[test]
    fn trailing_separator_ok() {
        parse("proc p() { reg r : logic; loop { set r := 1 >> cycle 1; } }").unwrap();
    }

    #[test]
    fn error_reporting_has_location() {
        let src = "proc p() { loop { set := 1 } }";
        let err = parse(src).unwrap_err();
        assert!(err.render(src).contains("1:"));
    }

    #[test]
    fn dprint_forms() {
        parse(r#"proc p() { loop { dprint "hello" >> cycle 1 } }"#).unwrap();
        let prog =
            parse(r#"proc p() { reg r : logic[8]; loop { dprint "v" (*r) >> cycle 1 } }"#).unwrap();
        let Thread::Loop(t) = &prog.procs[0].threads[0] else {
            panic!()
        };
        let TermKind::Seq { first, .. } = &t.kind else {
            panic!()
        };
        assert!(matches!(
            &first.kind,
            TermKind::Dprint { value: Some(_), .. }
        ));
    }

    #[test]
    fn recursive_thread_with_recurse() {
        let prog = parse(
            "proc p(ep : left c) {
                recursive {
                    let r = recv ep.rd_req >>
                    { send ep.rd_res (r) };
                    { cycle 1 >> recurse }
                }
             }",
        )
        .unwrap();
        assert!(matches!(prog.procs[0].threads[0], Thread::Recursive(_)));
    }
}

//! Recursive-descent parser for the Anvil language.
//!
//! The grammar follows the paper's concrete syntax (§4, Figs. 5 and 6),
//! with sequences built from the wait (`>>`) and join (`;`) operators and
//! `let` bindings scoping over the remainder of their enclosing sequence —
//! exactly the shape of the paper's examples, where
//! `let r = recv ep.rd_req >> t` binds `r` for `t`. Binary operators are
//! parsed by one operator-precedence loop over a table of binding powers,
//! and each token is moved out of the token stream as it is consumed.

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
    /// instead of rescanning the source per error. Like
    /// [`crate::LineIndex::line_col`], it clamps the span to the source and
    /// to character boundaries.
    pub fn render_with(&self, index: &crate::LineIndex<'_>) -> String {
        let source = index.source();
        let (line, col) = index.span_start(self.span);
        let start = source.floor_char_boundary(self.span.start);
        let end = source.floor_char_boundary(self.span.end).max(start);
        let snippet: String = source[start..end].chars().take(40).collect();
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
        pending: Vec::new(),
    };
    p.program()
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Current nesting level (see [`MAX_NESTING`]).
    depth: usize,
    /// Left operands waiting for their right operands (see
    /// [`Parser::binary`]).
    pending: Vec<(Term, BinOp, u8)>,
}

/// One item of a sequence: a term, or a `let` binding, which scopes over
/// the items after it.
enum Item {
    Plain(Term),
    Binding {
        name: String,
        value: Term,
        span: Span,
    },
}

impl Item {
    /// The item followed by `rest` through `op`, or ending its sequence
    /// when there is no `rest`; a binding then scopes over `()`.
    fn then(self, op: SeqOp, rest: Option<Term>) -> Term {
        match (self, rest) {
            (Item::Plain(first), None) => first,
            (Item::Plain(first), Some(rest)) => {
                let span = first.span.join(rest.span);
                let (first, rest) = (Box::new(first), Box::new(rest));
                Term::new(TermKind::Seq { first, op, rest }, span)
            }
            (Item::Binding { name, value, span }, rest) => {
                let body = rest.unwrap_or_else(|| Term::new(TermKind::Unit, span));
                let span = span.join(body.span);
                let (value, body) = (Box::new(value), Box::new(body));
                Term::new(
                    TermKind::Let {
                        name,
                        value,
                        op,
                        body,
                    },
                    span,
                )
            }
        }
    }
}

/// The binary operator a token spells, with its binding power
/// ([`BinOp::power`]).
fn binary_op(t: &Tok) -> Option<(BinOp, u8)> {
    let op = match t {
        Tok::EqEq => BinOp::Eq,
        Tok::NotEq => BinOp::Ne,
        Tok::LessThan => BinOp::Lt,
        Tok::LessEq => BinOp::Le,
        Tok::GreaterThan => BinOp::Gt,
        Tok::GreaterEq => BinOp::Ge,
        Tok::Pipe => BinOp::Or,
        Tok::Caret => BinOp::Xor,
        Tok::Amp => BinOp::And,
        Tok::ShlOp => BinOp::Shl,
        Tok::ShrOp => BinOp::Shr,
        Tok::Plus => BinOp::Add,
        Tok::Minus => BinOp::Sub,
        // `*` after an operand multiplies; as a prefix it reads a register.
        Tok::Star => BinOp::Mul,
        _ => return None,
    };
    Some((op, op.power()))
}

/// "expected `what`, found `found`", located at `span`.
fn expected(what: impl fmt::Display, found: &Tok, span: Span) -> ParseError {
    ParseError {
        message: format!("expected {what}, found {found}"),
        span,
    }
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

    /// The span of the last token consumed.
    fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    /// Moves the current token out of the stream and advances past it.
    /// The final `Eof` is never passed, so reading it leaves it in place.
    fn bump(&mut self) -> (Tok, Span) {
        let t = &mut self.toks[self.pos];
        let out = (std::mem::replace(&mut t.tok, Tok::Eof), t.span);
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        out
    }

    fn eat(&mut self, t: &Tok) -> bool {
        let found = self.peek() == t;
        if found {
            self.bump();
        }
        found
    }

    fn expect(&mut self, t: &Tok) -> Result<Span, ParseError> {
        if self.peek() == t {
            Ok(self.bump().1)
        } else {
            Err(expected(t, self.peek(), self.span()))
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
        match self.bump() {
            (Tok::Ident(s), _) => Ok(s),
            (other, span) => Err(expected("identifier", &other, span)),
        }
    }

    fn int(&mut self) -> Result<u64, ParseError> {
        match self.bump() {
            (Tok::Int { value, .. }, _) => Ok(value),
            (other, span) => Err(expected("integer", &other, span)),
        }
    }

    // left | right
    fn dir(&mut self) -> Result<Dir, ParseError> {
        match self.bump() {
            (Tok::Left, _) => Ok(Dir::Left),
            (Tok::Right, _) => Ok(Dir::Right),
            (other, span) => Err(expected("`left` or `right`", &other, span)),
        }
    }

    /// Parses `item`s separated by commas (a trailing one allowed) up to
    /// and including `close`; returns them and the span of `close`.
    fn list<T>(
        &mut self,
        close: &Tok,
        mut item: impl FnMut(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<(Vec<T>, Span), ParseError> {
        let mut items = Vec::new();
        while self.peek() != close {
            items.push(item(self)?);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok((items, self.expect(close)?))
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Chan => prog.chans.push(self.chan_def()?),
                Tok::Proc => prog.procs.push(self.proc_def()?),
                Tok::Extern => prog.externs.push(self.extern_fn()?),
                other => return Err(expected("`chan`, `proc`, or `extern`", other, self.span())),
            }
        }
        Ok(prog)
    }

    // chan name { left m : (logic[8]@#1) @#2-@dyn, ... }
    fn chan_def(&mut self) -> Result<ChanDef, ParseError> {
        let start = self.expect(&Tok::Chan)?;
        let name = self.ident()?;
        self.expect(&Tok::LBrace)?;
        let (messages, end) = self.list(&Tok::RBrace, Parser::message_def)?;
        Ok(ChanDef {
            name,
            messages,
            span: start.join(end),
        })
    }

    fn message_def(&mut self) -> Result<MessageDef, ParseError> {
        let start = self.span();
        let dir = self.dir()?;
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
        Ok(MessageDef {
            name,
            dir,
            width,
            lifetime,
            sync_left,
            sync_right,
            span: start.join(self.prev_span()),
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
        match self.bump() {
            (Tok::Int { value, .. }, _) => Ok(SyncMode::Static(value)),
            (Tok::Ident(msg), _) => {
                let offset = if self.eat(&Tok::Plus) { self.int()? } else { 0 };
                Ok(SyncMode::Dependent { msg, offset })
            }
            (other, span) => Err(expected("sync mode", &other, span)),
        }
    }

    // extern fn name(logic[8], logic[8]) -> logic[8];
    fn extern_fn(&mut self) -> Result<ExternFn, ParseError> {
        let start = self.expect(&Tok::Extern)?;
        self.expect(&Tok::Fn)?;
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let (arg_widths, _) = self.list(&Tok::RParen, Parser::logic_type)?;
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
        let (params, _) = self.list(&Tok::RParen, Parser::endpoint_param)?;
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
                Tok::Loop | Tok::Recursive => {
                    let (kind, _) = self.bump();
                    self.expect(&Tok::LBrace)?;
                    let t = self.seq()?;
                    self.expect(&Tok::RBrace)?;
                    threads.push(match kind {
                        Tok::Loop => Thread::Loop(t),
                        _ => Thread::Recursive(t),
                    });
                }
                other => {
                    return Err(expected(
                        "`reg`, `chan`, `spawn`, `loop`, or `recursive`",
                        other,
                        self.span(),
                    ))
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

    // ep : left ch
    fn endpoint_param(&mut self) -> Result<EndpointParam, ParseError> {
        let start = self.span();
        let name = self.ident()?;
        self.expect(&Tok::Colon)?;
        let side = self.dir()?;
        let chan = self.ident()?;
        Ok(EndpointParam {
            name,
            side,
            chan,
            span: start.join(self.prev_span()),
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
        let (args, _) = self.list(&Tok::RParen, Parser::ident)?;
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
            _ => return Ok(item.then(SeqOp::Wait, None)),
        };
        self.bump();
        // Allow a trailing separator before a closing brace/paren.
        let rest = if matches!(self.peek(), Tok::RBrace | Tok::RParen | Tok::Eof) {
            None
        } else {
            Some(self.nested(Parser::seq)?)
        };
        Ok(item.then(op, rest))
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        let start = self.span();
        match self.peek() {
            Tok::Let => {
                self.bump();
                let name = self.ident()?;
                self.expect(&Tok::Equals)?;
                let Item::Plain(value) = self.nested(Parser::item)? else {
                    return Err(self.err("`let` cannot directly bind another `let`".into()));
                };
                let span = start.join(value.span);
                Ok(Item::Binding { name, value, span })
            }
            Tok::Set => {
                self.bump();
                self.assign(start)
            }
            // Bare `r := v` assignment (paper Fig. 6 allows both forms).
            Tok::Ident(_) if *self.peek2() == Tok::ColonEq => self.assign(start),
            _ => Ok(Item::Plain(self.expr()?)),
        }
    }

    // r := v | r[i] := v, after `set` if there is one
    fn assign(&mut self, start: Span) -> Result<Item, ParseError> {
        let reg = self.ident()?;
        let index = self.index()?;
        self.expect(&Tok::ColonEq)?;
        let value = Box::new(self.expr()?);
        let span = start.join(value.span);
        Ok(Item::Plain(Term::new(
            TermKind::Assign { reg, index, value },
            span,
        )))
    }

    // An optional `[i]` after a register name.
    fn index(&mut self) -> Result<Option<Box<Term>>, ParseError> {
        if !self.eat(&Tok::LBracket) {
            return Ok(None);
        }
        let i = self.expr()?;
        self.expect(&Tok::RBracket)?;
        Ok(Some(Box::new(i)))
    }

    fn expr(&mut self) -> Result<Term, ParseError> {
        self.nested(Parser::binary)
    }

    /// Operands joined by binary operators, by operator precedence: an
    /// operator waits on `pending`, with its left operand, until the next
    /// operator binds no tighter. Waiting operators therefore bind more
    /// tightly going up the stack, and equal powers apply left to right.
    /// All nesting levels share the stack and each call uses only what it
    /// pushed, so a level takes one call whatever operators it holds.
    fn binary(&mut self) -> Result<Term, ParseError> {
        let base = self.pending.len();
        let mut term = self.unary()?;
        loop {
            let next = binary_op(self.peek());
            // No operator has power 0: at the end, every waiting one applies.
            let power = next.map_or(0, |(_, power)| power);
            while self.pending[base..].last().is_some_and(|w| w.2 >= power) {
                let (lhs, op, _) = self.pending.pop().expect("checked above");
                let span = lhs.span.join(term.span);
                term = Term::new(TermKind::Binop(op, Box::new(lhs), Box::new(term)), span);
            }
            let Some((op, power)) = next else {
                return Ok(term);
            };
            self.bump();
            self.pending.push((term, op, power));
            term = self.unary()?;
        }
    }

    /// A prefix operator and its operand, or an atom and its static
    /// slices (`t[hi:lo]`, `t[bit]`).
    fn unary(&mut self) -> Result<Term, ParseError> {
        let op = match self.peek() {
            Tok::Tilde => UnOp::Not,
            Tok::Bang => UnOp::LogicNot,
            _ => {
                let mut t = self.atom()?;
                while self.eat(&Tok::LBracket) {
                    let hi = self.int()? as usize;
                    let lo = if self.eat(&Tok::Colon) {
                        self.int()? as usize
                    } else {
                        hi
                    };
                    let end = self.expect(&Tok::RBracket)?;
                    if lo > hi {
                        return Err(
                            self.err(format!("slice [{hi}:{lo}] has low bit above high bit"))
                        );
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
                return Ok(t);
            }
        };
        let (_, start) = self.bump();
        let inner = self.nested(Parser::unary)?;
        let span = start.join(inner.span);
        Ok(Term::new(TermKind::Unop(op, Box::new(inner)), span))
    }

    /// The sequence up to `close`, after the bracket that opens it, or
    /// `None` if the brackets are empty.
    fn block(&mut self, close: &Tok) -> Result<Option<Term>, ParseError> {
        if self.eat(close) {
            return Ok(None);
        }
        let t = self.seq()?;
        self.expect(close)?;
        Ok(Some(t))
    }

    // ep.msg
    fn endpoint_msg(&mut self) -> Result<(String, String), ParseError> {
        let ep = self.ident()?;
        self.expect(&Tok::Dot)?;
        Ok((ep, self.ident()?))
    }

    // if cond { … } | if cond { … } else { … } | if cond { … } else if …
    fn if_else(&mut self, start: Span) -> Result<Term, ParseError> {
        let cond = Box::new(self.expr()?);
        self.expect(&Tok::LBrace)?;
        let then_t = self.block(&Tok::RBrace)?;
        let then_t = Box::new(then_t.unwrap_or_else(|| Term::new(TermKind::Unit, start)));
        let else_t = if !self.eat(&Tok::Else) {
            None
        } else if matches!(self.peek(), Tok::If) {
            Some(Box::new(self.nested(Parser::atom)?))
        } else {
            self.expect(&Tok::LBrace)?;
            self.block(&Tok::RBrace)?.map(Box::new)
        };
        let span = start.join(self.prev_span());
        Ok(Term::new(
            TermKind::If {
                cond,
                then_t,
                else_t,
            },
            span,
        ))
    }

    fn atom(&mut self) -> Result<Term, ParseError> {
        let (tok, start) = self.bump();
        let unit = || Term::new(TermKind::Unit, start);
        match tok {
            Tok::Int { value, width } => Ok(Term::new(
                TermKind::Lit {
                    value,
                    width: width.filter(|w| *w > 0),
                },
                start,
            )),
            Tok::LParen => Ok(self.block(&Tok::RParen)?.unwrap_or_else(unit)),
            Tok::LBrace => Ok(self.block(&Tok::RBrace)?.unwrap_or_else(unit)),
            Tok::Star => {
                let reg = self.ident()?;
                let index = self.index()?;
                let span = start.join(self.prev_span());
                Ok(Term::new(TermKind::RegRead { reg, index }, span))
            }
            Tok::Recv => {
                let (ep, msg) = self.endpoint_msg()?;
                let span = start.join(self.prev_span());
                Ok(Term::new(TermKind::Recv { ep, msg }, span))
            }
            Tok::Send => {
                let (ep, msg) = self.endpoint_msg()?;
                self.expect(&Tok::LParen)?;
                let value = Box::new(self.seq()?);
                let end = self.expect(&Tok::RParen)?;
                Ok(Term::new(
                    TermKind::Send { ep, msg, value },
                    start.join(end),
                ))
            }
            Tok::Cycle => {
                let n = self.int()?;
                Ok(Term::new(TermKind::Cycle(n), start.join(self.prev_span())))
            }
            Tok::Ready => {
                self.expect(&Tok::LParen)?;
                let (ep, msg) = self.endpoint_msg()?;
                let end = self.expect(&Tok::RParen)?;
                Ok(Term::new(TermKind::Ready { ep, msg }, start.join(end)))
            }
            Tok::Concat => {
                self.expect(&Tok::LParen)?;
                let (parts, end) = self.list(&Tok::RParen, Parser::expr)?;
                if parts.is_empty() {
                    return Err(self.err("empty concat".into()));
                }
                Ok(Term::new(TermKind::Concat(parts), start.join(end)))
            }
            Tok::Dprint => {
                let label = match self.bump() {
                    (Tok::Str(s), _) => s,
                    (other, span) => return Err(expected("string label", &other, span)),
                };
                let value = if self.eat(&Tok::LParen) {
                    let v = self.expr()?;
                    self.expect(&Tok::RParen)?;
                    Some(Box::new(v))
                } else {
                    None
                };
                let span = start.join(self.prev_span());
                Ok(Term::new(TermKind::Dprint { label, value }, span))
            }
            Tok::Recurse => Ok(Term::new(TermKind::Recurse, start)),
            Tok::If => self.if_else(start),
            Tok::Ident(name) => {
                if !self.eat(&Tok::LParen) {
                    return Ok(Term::new(TermKind::Var(name), start));
                }
                // An extern function call.
                let (args, end) = self.list(&Tok::RParen, Parser::expr)?;
                Ok(Term::new(
                    TermKind::ExternCall { func: name, args },
                    start.join(end),
                ))
            }
            other => Err(expected("a term", &other, start)),
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

    /// The 14 binary operators, each with its binding power: a higher
    /// power binds tighter, and every level is left-associative.
    const BINARY: [(&str, u8); 14] = [
        ("==", 1),
        ("!=", 1),
        ("<", 1),
        ("<=", 1),
        (">", 1),
        (">=", 1),
        ("|", 2),
        ("^", 3),
        ("&", 4),
        ("<<", 5),
        (">>>", 5),
        ("+", 6),
        ("-", 6),
        ("*", 7),
    ];

    /// The loop body's term with every operator application in
    /// parentheses: the shape of the tree the parser built.
    fn shape(expr: &str) -> String {
        let src = format!("proc p() {{ loop {{ {expr} }} }}");
        let prog = parse(&src).unwrap_or_else(|e| panic!("{expr}: {}", e.render(&src)));
        let Thread::Loop(t) = &prog.procs[0].threads[0] else {
            panic!("{expr}: expected a loop")
        };
        parenthesized(t)
    }

    fn parenthesized(t: &Term) -> String {
        match &t.kind {
            TermKind::Binop(op, a, b) => {
                format!("({} {op} {})", parenthesized(a), parenthesized(b))
            }
            TermKind::Unop(op, a) => format!("({op}{})", parenthesized(a)),
            TermKind::Slice { base, hi, lo } => format!("({})[{hi}:{lo}]", parenthesized(base)),
            _ => crate::pretty_term(t),
        }
    }

    #[test]
    fn binary_operators_bind_by_the_precedence_table() {
        for (op1, p1) in BINARY {
            for (op2, p2) in BINARY {
                let expected = if p1 >= p2 {
                    format!("((a {op1} b) {op2} c)")
                } else {
                    format!("(a {op1} (b {op2} c))")
                };
                assert_eq!(shape(&format!("a {op1} b {op2} c")), expected);
            }
        }
    }

    #[test]
    fn unary_operators_and_slices_bind_tighter_than_binary_ones() {
        assert_eq!(shape("~a[3:0] + b"), "((~(a)[3:0]) + b)");
        assert_eq!(shape("!a == b"), "((!a) == b)");
        assert_eq!(shape("~!a * b[0]"), "((~(!a)) * (b)[0:0])");
    }

    /// The error's line, column and source text.
    fn error_at(src: &str) -> (usize, usize, &str) {
        let err = parse(src).unwrap_err();
        let (line, col) = err.span.line_col(src);
        (line, col, &src[err.span.start..err.span.end])
    }

    #[test]
    fn message_direction_errors_point_at_the_direction() {
        let src = "chan c { foo m : (logic@#1) }";
        assert_eq!(error_at(src), (1, 10, "foo"));
    }

    #[test]
    fn endpoint_side_errors_point_at_the_side() {
        let src = "proc p(ep : up c) { loop { cycle 1 } }";
        assert_eq!(error_at(src), (1, 13, "up"));
    }

    #[test]
    fn dprint_label_errors_point_at_the_label() {
        let src = "proc p() { loop { dprint 5 >> cycle 1 } }";
        assert_eq!(error_at(src), (1, 26, "5"));
    }

    #[test]
    fn non_ascii_characters_render_whole() {
        let src = "proc p() { reg r : logic; loop { set r := é >> cycle 1 } }";
        let err = parse(src).unwrap_err();
        assert_eq!(err.render(src), "1:43: unexpected character `é` (at `é`)");
        // Spans that end inside a character, or past the source, clamp.
        for (start, end) in [(42, 43), (43, 44), (0, 999), (999, 9999)] {
            let err = ParseError {
                message: "m".into(),
                span: Span::new(start, end),
            };
            assert!(err.render(src).starts_with("1:"), "{start}..{end}");
        }
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

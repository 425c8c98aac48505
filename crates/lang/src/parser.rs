//! Recursive-descent parser: tokens → [`FileAst`].
//!
//! The parser is purely syntactic — names stay unresolved strings and every
//! AST node keeps the [`Span`] it was read from, so the lowering stage can
//! report resolution errors against the source.  Grammar summary (see the
//! repository README for the full EBNF):
//!
//! ```text
//! file      := { header | clock | channel | const | var | automaton | control }
//! header    := "system" name
//! clock     := "clock" name
//! channel   := ("input" | "output" | "internal") name
//! const     := "const" name "=" int
//! var       := "var" name [ "[" int "]" ] ":" "int" "[" int "," int "]" "=" int
//! automaton := "automaton" name "{" { location | edge } "}"
//! location  := ["init"] ["urgent"] "location" name [ "{" "inv" constraints
//!              { ";" "inv" constraints } [";"] "}" ]
//! edge      := "edge" name "->" name [ "on" name ("?" | "!") ]
//!              [ "{" clause { ";" clause } [";"] "}" ]
//! clause    := "guard" constraints | "when" expr | "reset" name [":=" expr]
//!            | "set" name ["[" expr "]"] ":=" expr
//!            | "controllable" | "uncontrollable"
//! constraints := constraint { "," constraint }
//! constraint  := name ["-" name] ("<" | "<=" | ">" | ">=" | "==" | "!=") expr
//! control   := "control" ":" <tiga-tctl formula, to end of line>
//! ```

use crate::ast::{
    ArithOp, AutomatonAst, ChannelKindAst, ConstraintAst, ControlAst, EdgeAst, ExprAst, ExprKind,
    FileAst, LocationAst, ResetAst, Spanned, SyncAst, UpdateAst, VarDeclAst,
};
use crate::error::{LangError, Span};
use crate::lexer::{tokenize, Token, TokenKind};
use tiga_model::CmpOp;

/// Reserved words of the `.tg` language.  The pretty-printer quotes any
/// model name that collides with one of these (or is not an identifier), so
/// arbitrary systems still round-trip.
pub const KEYWORDS: &[&str] = &[
    "system",
    "clock",
    "input",
    "output",
    "internal",
    "const",
    "var",
    "int",
    "automaton",
    "location",
    "init",
    "urgent",
    "inv",
    "edge",
    "on",
    "guard",
    "when",
    "reset",
    "set",
    "controllable",
    "uncontrollable",
    "control",
    "true",
    "false",
];

/// Deepest expression nesting the parser accepts.  Every level of
/// parentheses, brackets or conditional branches, every prefix operator and
/// every comparison's right-hand side counts one level: these are the
/// constructs the parser recurses on, so the limit bounds its stack.  Deeper
/// input is a spanned error, not a stack overflow.
const MAX_NESTING: usize = 64;

/// Most binary operators one expression may chain (`&&`, `||`, `+`, `-`,
/// `*`, `/`, `%`).  A flat chain `a && b && …` is parsed in a loop, but it
/// builds a left-leaning tree one level deeper per operator, and the later
/// recursive passes (lowering, printing, evaluation, dropping) walk that
/// tree.  With [`MAX_NESTING`] this bounds the tree's depth.
const MAX_OPERATORS: usize = 256;

/// Returns `true` if `name` can be written bare (unquoted) in `.tg` source.
#[must_use]
pub fn is_bare_name(name: &str) -> bool {
    !name.is_empty()
        && !KEYWORDS.contains(&name)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Applies the sign to a lexed literal magnitude, enforcing the `i64` range.
///
/// The lexer stores magnitudes as `u64` precisely so that
/// `-9223372036854775808` (`i64::MIN`) folds exactly — its magnitude `2⁶³`
/// has no positive `i64` representation, so negation must happen on the
/// unsigned value.  Both `i32` and `i64` boundary literals round-trip
/// through print → parse this way.
fn fold_literal(magnitude: u64, negative: bool, span: Span) -> Result<i64, LangError> {
    if negative {
        if magnitude > i64::MIN.unsigned_abs() {
            return Err(LangError::parse("integer literal overflows i64", span));
        }
        Ok(magnitude.wrapping_neg() as i64)
    } else {
        i64::try_from(magnitude)
            .map_err(|_| LangError::parse("integer literal overflows i64", span))
    }
}

/// Parses `.tg` source into an unresolved [`FileAst`].
///
/// # Errors
///
/// Returns a span-carrying [`LangError`] on lexical or grammatical problems.
pub fn parse_file(source: &str) -> Result<FileAst, LangError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        end: source.len(),
        depth: 0,
        operators: 0,
    };
    parser.file()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Byte length of the source, for end-of-input spans.
    end: usize,
    /// Current expression nesting, bounded by [`MAX_NESTING`].
    depth: usize,
    /// Binary operators in the current top-level expression, bounded by
    /// [`MAX_OPERATORS`].
    operators: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> Span {
        self.peek().map_or(Span::at(self.end), |t| t.span)
    }

    fn unexpected(&self, expected: &str) -> LangError {
        match self.peek() {
            Some(t) => LangError::parse(
                format!("expected {expected}, found {}", t.kind.describe()),
                t.span,
            ),
            None => LangError::parse(
                format!("expected {expected}, found end of input"),
                Span::at(self.end),
            ),
        }
    }

    /// Counts one more binary operator of the current expression.
    fn link(&mut self) -> Result<(), LangError> {
        if self.operators >= MAX_OPERATORS {
            return Err(LangError::parse(
                format!("expression chains more than {MAX_OPERATORS} binary operators"),
                self.here(),
            ));
        }
        self.operators += 1;
        Ok(())
    }

    /// Runs `parse` one nesting level deeper.  An error abandons the whole
    /// parse, so only the success path restores `depth`.
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<ExprAst, LangError>,
    ) -> Result<ExprAst, LangError> {
        if self.depth >= MAX_NESTING {
            return Err(LangError::parse(
                format!("expression nested deeper than {MAX_NESTING} levels"),
                self.here(),
            ));
        }
        self.depth += 1;
        let expr = parse(self)?;
        self.depth -= 1;
        Ok(expr)
    }

    fn expect(&mut self, kind: &TokenKind, expected: &str) -> Result<Span, LangError> {
        match self.peek() {
            Some(t) if &t.kind == kind => Ok(self.bump().expect("peeked").span),
            _ => Err(self.unexpected(expected)),
        }
    }

    /// Consumes the keyword `kw` (an identifier with that exact text).
    fn expect_keyword(&mut self, kw: &str) -> Result<Span, LangError> {
        match self.peek() {
            Some(t) if matches!(&t.kind, TokenKind::Ident(name) if name == kw) => {
                Ok(self.bump().expect("peeked").span)
            }
            _ => Err(self.unexpected(&format!("`{kw}`"))),
        }
    }

    /// Is the next token the given keyword?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(t) if matches!(&t.kind, TokenKind::Ident(name) if name == kw))
    }

    /// A name: a non-keyword identifier or a quoted string.
    fn name(&mut self, what: &str) -> Result<Spanned<String>, LangError> {
        match self.peek() {
            Some(t) => match &t.kind {
                TokenKind::Ident(name) if !KEYWORDS.contains(&name.as_str()) => {
                    let name = name.clone();
                    let span = self.bump().expect("peeked").span;
                    Ok(Spanned::new(name, span))
                }
                TokenKind::Ident(name) => Err(LangError::parse(
                    format!("keyword `{name}` cannot be used as {what} (quote it: \"{name}\")"),
                    t.span,
                )),
                TokenKind::Str(name) => {
                    let name = name.clone();
                    let span = self.bump().expect("peeked").span;
                    Ok(Spanned::new(name, span))
                }
                _ => Err(self.unexpected(&format!("a {what} name"))),
            },
            None => Err(self.unexpected(&format!("a {what} name"))),
        }
    }

    /// A possibly negative integer literal.
    fn int(&mut self, what: &str) -> Result<Spanned<i64>, LangError> {
        let negative = matches!(self.peek(), Some(t) if t.kind == TokenKind::Minus);
        let minus_span = if negative {
            Some(self.bump().expect("peeked").span)
        } else {
            None
        };
        match self.peek() {
            Some(t) => {
                if let TokenKind::Number(n) = t.kind {
                    let span = self.bump().expect("peeked").span;
                    let span = minus_span.map_or(span, |m| m.to(span));
                    Ok(Spanned::new(fold_literal(n, negative, span)?, span))
                } else {
                    Err(self.unexpected(&format!("an integer {what}")))
                }
            }
            None => Err(self.unexpected(&format!("an integer {what}"))),
        }
    }

    fn file(&mut self) -> Result<FileAst, LangError> {
        let mut file = FileAst::default();
        while let Some(token) = self.peek() {
            match &token.kind {
                TokenKind::ControlLine(raw) => {
                    if file.control.is_some() {
                        return Err(LangError::parse(
                            "duplicate `control:` line (a .tg file has one objective)",
                            token.span,
                        ));
                    }
                    file.control = Some(ControlAst {
                        raw: raw.clone(),
                        span: token.span,
                    });
                    self.bump();
                }
                TokenKind::Ident(kw) => match kw.as_str() {
                    "system" => {
                        self.bump();
                        let name = self.name("system")?;
                        if file.system_name.is_some() {
                            return Err(LangError::parse("duplicate `system` header", name.span));
                        }
                        file.system_name = Some(name);
                    }
                    "clock" => {
                        self.bump();
                        file.clocks.push(self.name("clock")?);
                    }
                    "input" => {
                        self.bump();
                        file.channels
                            .push((ChannelKindAst::Input, self.name("channel")?));
                    }
                    "output" => {
                        self.bump();
                        file.channels
                            .push((ChannelKindAst::Output, self.name("channel")?));
                    }
                    "internal" => {
                        self.bump();
                        file.channels
                            .push((ChannelKindAst::Internal, self.name("channel")?));
                    }
                    "const" => file.vars.push(self.const_decl()?),
                    "var" => file.vars.push(self.var_decl()?),
                    "automaton" => file.automata.push(self.automaton()?),
                    other => {
                        return Err(LangError::parse(
                            format!(
                                "unknown declaration `{other}` (expected `system`, `clock`, \
                                 `input`, `output`, `internal`, `const`, `var`, `automaton` \
                                 or `control:`)"
                            ),
                            token.span,
                        ));
                    }
                },
                _ => return Err(self.unexpected("a declaration")),
            }
        }
        Ok(file)
    }

    fn const_decl(&mut self) -> Result<VarDeclAst, LangError> {
        let start = self.expect_keyword("const")?;
        let name = self.name("constant")?;
        self.expect(&TokenKind::Eq, "`=`")?;
        let value = self.int("value")?;
        let span = start.to(value.span);
        Ok(VarDeclAst {
            name,
            size: None,
            lower: value.node,
            upper: value.node,
            initial: value.node,
            is_const: true,
            span,
        })
    }

    fn var_decl(&mut self) -> Result<VarDeclAst, LangError> {
        let start = self.expect_keyword("var")?;
        let name = self.name("variable")?;
        let size = if matches!(self.peek(), Some(t) if t.kind == TokenKind::LBracket) {
            self.bump();
            let size = self.int("array size")?;
            self.expect(&TokenKind::RBracket, "`]`")?;
            Some(size)
        } else {
            None
        };
        self.expect(&TokenKind::Colon, "`:`")?;
        self.expect_keyword("int")?;
        self.expect(&TokenKind::LBracket, "`[` starting the range")?;
        let lower = self.int("lower bound")?;
        self.expect(&TokenKind::Comma, "`,`")?;
        let upper = self.int("upper bound")?;
        self.expect(&TokenKind::RBracket, "`]` closing the range")?;
        self.expect(&TokenKind::Eq, "`=`")?;
        let initial = self.int("initial value")?;
        let span = start.to(initial.span);
        Ok(VarDeclAst {
            name,
            size,
            lower: lower.node,
            upper: upper.node,
            initial: initial.node,
            is_const: false,
            span,
        })
    }

    fn automaton(&mut self) -> Result<AutomatonAst, LangError> {
        self.expect_keyword("automaton")?;
        let name = self.name("automaton")?;
        self.expect(&TokenKind::LBrace, "`{`")?;
        let mut locations = Vec::new();
        let mut edges = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.unexpected("`}` closing the automaton")),
                Some(t) if t.kind == TokenKind::RBrace => {
                    self.bump();
                    break;
                }
                Some(t)
                    if matches!(&t.kind, TokenKind::Ident(kw)
                        if kw == "location" || kw == "init" || kw == "urgent") =>
                {
                    locations.push(self.location()?);
                }
                Some(t) if matches!(&t.kind, TokenKind::Ident(kw) if kw == "edge") => {
                    edges.push(self.edge()?);
                }
                _ => return Err(self.unexpected("`location`, `edge` or `}`")),
            }
        }
        Ok(AutomatonAst {
            name,
            locations,
            edges,
        })
    }

    fn location(&mut self) -> Result<LocationAst, LangError> {
        let start = self.here();
        let mut init = false;
        let mut urgent = false;
        loop {
            if !init && self.at_keyword("init") {
                self.bump();
                init = true;
            } else if !urgent && self.at_keyword("urgent") {
                self.bump();
                urgent = true;
            } else {
                break;
            }
        }
        self.expect_keyword("location")?;
        let name = self.name("location")?;
        let mut invariant = Vec::new();
        let mut span = start.to(name.span);
        if matches!(self.peek(), Some(t) if t.kind == TokenKind::LBrace) {
            self.bump();
            loop {
                match self.peek() {
                    Some(t) if t.kind == TokenKind::RBrace => break,
                    Some(t) if t.kind == TokenKind::Semi => {
                        self.bump();
                    }
                    _ => {
                        self.expect_keyword("inv")?;
                        invariant.extend(self.constraints()?);
                    }
                }
            }
            span = span.to(self.expect(&TokenKind::RBrace, "`}`")?);
        }
        Ok(LocationAst {
            name,
            init,
            urgent,
            invariant,
            span,
        })
    }

    fn edge(&mut self) -> Result<EdgeAst, LangError> {
        let start = self.expect_keyword("edge")?;
        let source = self.name("location")?;
        self.expect(&TokenKind::Arrow, "`->`")?;
        let target = self.name("location")?;
        let mut span = start.to(target.span);
        let sync = if self.at_keyword("on") {
            self.bump();
            let channel = self.name("channel")?;
            let receive = match self.peek() {
                Some(t) if t.kind == TokenKind::Question => {
                    span = span.to(self.bump().expect("peeked").span);
                    true
                }
                Some(t) if t.kind == TokenKind::Bang => {
                    span = span.to(self.bump().expect("peeked").span);
                    false
                }
                _ => return Err(self.unexpected("`?` (receive) or `!` (emit)")),
            };
            Some(SyncAst { channel, receive })
        } else {
            None
        };
        let mut edge = EdgeAst {
            source,
            target,
            sync,
            guard: Vec::new(),
            when: Vec::new(),
            resets: Vec::new(),
            updates: Vec::new(),
            controllable: None,
            span,
        };
        if matches!(self.peek(), Some(t) if t.kind == TokenKind::LBrace) {
            self.bump();
            loop {
                match self.peek() {
                    Some(t) if t.kind == TokenKind::RBrace => break,
                    Some(t) if t.kind == TokenKind::Semi => {
                        self.bump();
                    }
                    _ => self.edge_clause(&mut edge)?,
                }
            }
            self.expect(&TokenKind::RBrace, "`}`")?;
        }
        Ok(edge)
    }

    fn edge_clause(&mut self, edge: &mut EdgeAst) -> Result<(), LangError> {
        if self.at_keyword("guard") {
            self.bump();
            edge.guard.extend(self.constraints()?);
        } else if self.at_keyword("when") {
            self.bump();
            edge.when.push(self.expr()?);
        } else if self.at_keyword("reset") {
            self.bump();
            let clock = self.name("clock")?;
            let value = if matches!(self.peek(), Some(t) if t.kind == TokenKind::Assign) {
                self.bump();
                Some(self.expr()?)
            } else {
                None
            };
            edge.resets.push(ResetAst { clock, value });
        } else if self.at_keyword("set") {
            self.bump();
            let target = self.name("variable")?;
            let index = if matches!(self.peek(), Some(t) if t.kind == TokenKind::LBracket) {
                self.bump();
                let idx = self.expr()?;
                self.expect(&TokenKind::RBracket, "`]`")?;
                Some(idx)
            } else {
                None
            };
            self.expect(&TokenKind::Assign, "`:=`")?;
            let value = self.expr()?;
            edge.updates.push(UpdateAst {
                target,
                index,
                value,
            });
        } else if self.at_keyword("controllable") {
            let span = self.bump().expect("peeked").span;
            if edge.controllable.is_some() {
                return Err(LangError::parse("duplicate controllability clause", span));
            }
            edge.controllable = Some(true);
        } else if self.at_keyword("uncontrollable") {
            let span = self.bump().expect("peeked").span;
            if edge.controllable.is_some() {
                return Err(LangError::parse("duplicate controllability clause", span));
            }
            edge.controllable = Some(false);
        } else {
            return Err(self.unexpected(
                "an edge clause (`guard`, `when`, `reset`, `set`, `controllable` \
                 or `uncontrollable`)",
            ));
        }
        Ok(())
    }

    fn constraints(&mut self) -> Result<Vec<ConstraintAst>, LangError> {
        let mut out = vec![self.constraint()?];
        while matches!(self.peek(), Some(t) if t.kind == TokenKind::Comma) {
            self.bump();
            out.push(self.constraint()?);
        }
        Ok(out)
    }

    fn constraint(&mut self) -> Result<ConstraintAst, LangError> {
        let left = self.name("clock")?;
        let minus = if matches!(self.peek(), Some(t) if t.kind == TokenKind::Minus) {
            self.bump();
            Some(self.name("clock")?)
        } else {
            None
        };
        let op = self.cmp_op()?;
        let bound = self.expr()?;
        let span = left.span.to(bound.span);
        Ok(ConstraintAst {
            left,
            minus,
            op,
            bound,
            span,
        })
    }

    fn cmp_op(&mut self) -> Result<CmpOp, LangError> {
        let op = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Lt) => CmpOp::Lt,
            Some(TokenKind::Le) => CmpOp::Le,
            Some(TokenKind::Gt) => CmpOp::Gt,
            Some(TokenKind::Ge) => CmpOp::Ge,
            Some(TokenKind::EqEq) => CmpOp::Eq,
            Some(TokenKind::NotEq) => CmpOp::Ne,
            _ => return Err(self.unexpected("a comparison operator")),
        };
        self.bump();
        Ok(op)
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<ExprAst, LangError> {
        if self.depth == 0 {
            self.operators = 0;
        }
        self.nested(Self::ite_expr)
    }

    /// Ternary conditional, right-associative, lowest precedence.
    fn ite_expr(&mut self) -> Result<ExprAst, LangError> {
        let cond = self.or_expr()?;
        if matches!(self.peek(), Some(t) if t.kind == TokenKind::Question) {
            self.bump();
            let then = self.expr()?;
            self.expect(&TokenKind::Colon, "`:` of the conditional")?;
            let otherwise = self.expr()?;
            let span = cond.span.to(otherwise.span);
            Ok(ExprAst {
                kind: ExprKind::Ite(Box::new(cond), Box::new(then), Box::new(otherwise)),
                span,
            })
        } else {
            Ok(cond)
        }
    }

    fn or_expr(&mut self) -> Result<ExprAst, LangError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), Some(t) if t.kind == TokenKind::OrOr) {
            self.bump();
            self.link()?;
            let rhs = self.and_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = ExprAst {
                kind: ExprKind::Or(Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<ExprAst, LangError> {
        let mut lhs = self.cmp_expr()?;
        while matches!(self.peek(), Some(t) if t.kind == TokenKind::AndAnd) {
            self.bump();
            self.link()?;
            let rhs = self.cmp_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = ExprAst {
                kind: ExprKind::And(Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    /// A single (non-associative) comparison.
    fn cmp_expr(&mut self) -> Result<ExprAst, LangError> {
        let lhs = self.add_expr()?;
        let op = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Lt) => Some(CmpOp::Lt),
            Some(TokenKind::Le) => Some(CmpOp::Le),
            Some(TokenKind::Gt) => Some(CmpOp::Gt),
            Some(TokenKind::Ge) => Some(CmpOp::Ge),
            Some(TokenKind::EqEq) => Some(CmpOp::Eq),
            Some(TokenKind::NotEq) => Some(CmpOp::Ne),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.nested(Self::add_expr)?;
            let span = lhs.span.to(rhs.span);
            Ok(ExprAst {
                kind: ExprKind::Cmp(op, Box::new(lhs), Box::new(rhs)),
                span,
            })
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<ExprAst, LangError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Plus) => ArithOp::Add,
                Some(TokenKind::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            self.link()?;
            let rhs = self.mul_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = ExprAst {
                kind: ExprKind::Arith(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<ExprAst, LangError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Star) => ArithOp::Mul,
                Some(TokenKind::Slash) => ArithOp::Div,
                Some(TokenKind::Percent) => ArithOp::Mod,
                _ => break,
            };
            self.bump();
            self.link()?;
            let rhs = self.unary_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = ExprAst {
                kind: ExprKind::Arith(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<ExprAst, LangError> {
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Bang) => {
                let start = self.bump().expect("peeked").span;
                let inner = self.nested(Self::unary_expr)?;
                let span = start.to(inner.span);
                Ok(ExprAst {
                    kind: ExprKind::Not(Box::new(inner)),
                    span,
                })
            }
            Some(TokenKind::Minus) => {
                // `-` directly followed by a number literal folds into a
                // negative constant; anything else (notably `-(e)`) builds an
                // arithmetic negation node.  This distinction is what lets
                // `Const(-7)` and `Neg(Const(7))` round-trip differently.
                if let Some(Token {
                    kind: TokenKind::Number(n),
                    ..
                }) = self.peek2()
                {
                    let n = *n;
                    let start = self.bump().expect("peeked").span;
                    let num = self.bump().expect("peeked").span;
                    let span = start.to(num);
                    Ok(ExprAst {
                        kind: ExprKind::Num(fold_literal(n, true, span)?),
                        span,
                    })
                } else {
                    let start = self.bump().expect("peeked").span;
                    let inner = self.nested(Self::unary_expr)?;
                    let span = start.to(inner.span);
                    Ok(ExprAst {
                        kind: ExprKind::Neg(Box::new(inner)),
                        span,
                    })
                }
            }
            _ => self.primary_expr(),
        }
    }

    fn primary_expr(&mut self) -> Result<ExprAst, LangError> {
        match self.peek() {
            Some(t) => match &t.kind {
                TokenKind::Number(n) => {
                    let n = *n;
                    let span = self.bump().expect("peeked").span;
                    Ok(ExprAst {
                        kind: ExprKind::Num(fold_literal(n, false, span)?),
                        span,
                    })
                }
                TokenKind::LParen => {
                    self.bump();
                    let inner = self.expr()?;
                    self.expect(&TokenKind::RParen, "`)`")?;
                    // Parentheses only group; they leave no AST node, so the
                    // fully parenthesized printer output re-parses to an
                    // identical tree.
                    Ok(inner)
                }
                TokenKind::Ident(name) if name == "true" => {
                    let span = self.bump().expect("peeked").span;
                    Ok(ExprAst {
                        kind: ExprKind::Num(1),
                        span,
                    })
                }
                TokenKind::Ident(name) if name == "false" => {
                    let span = self.bump().expect("peeked").span;
                    Ok(ExprAst {
                        kind: ExprKind::Num(0),
                        span,
                    })
                }
                TokenKind::Ident(_) | TokenKind::Str(_) => {
                    let name = self.name("variable")?;
                    if matches!(self.peek(), Some(t) if t.kind == TokenKind::LBracket) {
                        self.bump();
                        let idx = self.expr()?;
                        let close = self.expect(&TokenKind::RBracket, "`]`")?;
                        let span = name.span.to(close);
                        Ok(ExprAst {
                            kind: ExprKind::Index(name.node, Box::new(idx)),
                            span,
                        })
                    } else {
                        Ok(ExprAst {
                            kind: ExprKind::Name(name.node.clone()),
                            span: name.span,
                        })
                    }
                }
                _ => Err(self.unexpected("an expression")),
            },
            None => Err(self.unexpected("an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_file() {
        let src = r#"
system "demo"
clock x
input press
automaton M {
    init location Idle
    location Busy { inv x <= 3 }
    edge Idle -> Busy on press? { guard x >= 1; reset x }
}
control: A<> M.Busy
"#;
        let file = parse_file(src).unwrap();
        assert_eq!(file.system_name.as_ref().unwrap().node, "demo");
        assert_eq!(file.clocks.len(), 1);
        assert_eq!(file.channels.len(), 1);
        let m = &file.automata[0];
        assert_eq!(m.locations.len(), 2);
        assert!(m.locations[0].init);
        assert_eq!(m.locations[1].invariant.len(), 1);
        assert_eq!(m.edges.len(), 1);
        let edge = &m.edges[0];
        assert_eq!(edge.guard.len(), 1);
        assert_eq!(edge.resets.len(), 1);
        assert!(edge.sync.as_ref().unwrap().receive);
        assert_eq!(file.control.as_ref().unwrap().raw, "control: A<> M.Busy");
    }

    #[test]
    fn negative_literal_vs_negation() {
        let src = "automaton A { init location L edge L -> L { when -7 == -(7) } }";
        let file = parse_file(src).unwrap();
        let when = &file.automata[0].edges[0].when[0];
        let ExprKind::Cmp(CmpOp::Eq, lhs, rhs) = &when.kind else {
            panic!("expected comparison, got {when:?}");
        };
        assert!(matches!(lhs.kind, ExprKind::Num(-7)));
        assert!(matches!(&rhs.kind, ExprKind::Neg(inner)
            if matches!(inner.kind, ExprKind::Num(7))));
    }

    #[test]
    fn precedence_and_associativity() {
        let src = "automaton A { init location L edge L -> L { when 1 + 2 * 3 == 7 && v < 2 } }";
        let file = parse_file(src).unwrap();
        let when = &file.automata[0].edges[0].when[0];
        let ExprKind::And(cmp, _) = &when.kind else {
            panic!("`&&` binds loosest here: {when:?}");
        };
        let ExprKind::Cmp(CmpOp::Eq, sum, _) = &cmp.kind else {
            panic!("expected `==` under `&&`");
        };
        assert!(
            matches!(&sum.kind, ExprKind::Arith(ArithOp::Add, _, mul)
                if matches!(mul.kind, ExprKind::Arith(ArithOp::Mul, _, _))),
            "`*` binds tighter than `+`"
        );
    }

    #[test]
    fn diagonal_constraints() {
        let src = "automaton A { init location L { inv x - y <= 2, x <= 5 } }";
        let file = parse_file(src).unwrap();
        let inv = &file.automata[0].locations[0].invariant;
        assert_eq!(inv.len(), 2);
        assert_eq!(inv[0].minus.as_ref().unwrap().node, "y");
        assert!(inv[1].minus.is_none());
    }

    #[test]
    fn errors_carry_spans() {
        let err = parse_file("clock").unwrap_err();
        assert!(err.message.contains("clock name"), "{err}");
        assert_eq!(err.span, Span::at(5));

        let src = "automaton A { init location L edge L -> L { guard x >= (1 } }";
        let err = parse_file(src).unwrap_err();
        assert!(err.message.contains("`)`"), "{err}");
        assert_eq!(&src[err.span.start..err.span.end], "}");

        let err = parse_file("frobnicate x").unwrap_err();
        assert!(err.message.contains("unknown declaration"), "{err}");
        assert_eq!(err.span, Span::new(0, 10));
    }

    #[test]
    fn keywords_rejected_as_names_unless_quoted() {
        let err = parse_file("clock guard").unwrap_err();
        assert!(err.message.contains("keyword"), "{err}");
        let file = parse_file("clock \"guard\"").unwrap();
        assert_eq!(file.clocks[0].node, "guard");
    }

    #[test]
    fn duplicate_control_rejected() {
        let err = parse_file("control: A<> x\ncontrol: A<> y\n").unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }
}

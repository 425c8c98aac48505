//! Recursive-descent parser and name resolver for the test-purpose language.
//!
//! Parsing proceeds in two stages: first an untyped syntax tree is built from
//! the tokens, then names are resolved against the [`System`] while bounded
//! quantifiers (`forall`/`exists`) are expanded into finite conjunctions /
//! disjunctions with the bound variable substituted by constants.

use crate::ast::{PathQuantifier, StatePredicate, TestPurpose};
use crate::error::TctlError;
use crate::lexer::{tokenize, Token, TokenKind};
use tiga_model::{CmpOp, Expr, System};

/// Untyped syntax tree produced by the parser before name resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Raw {
    Num(i64),
    Ident(String),
    Qualified(String, String),
    Index(String, Box<Raw>),
    Neg(Box<Raw>),
    Not(Box<Raw>),
    Bin(RawOp, Box<Raw>, Box<Raw>),
    Forall(String, RawRange, Box<Raw>),
    Exists(String, RawRange, Box<Raw>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RawOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Cmp(CmpOp),
    And,
    Or,
    Imply,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum RawRange {
    /// `forall (i : Name)` — `Name` resolves to an array (its size) or to a
    /// named constant.
    Named(String),
    /// `forall (i : 4)` — indices `0..4`.
    Size(i64),
    /// `forall (i : 2..5)` — inclusive span.
    Span(i64, i64),
}

/// Deepest formula nesting the parser accepts.  Every level of parentheses
/// or brackets, every `not`, quantifier, unary minus, `imply` and
/// comparison right-hand side counts one level: these are the constructs
/// the parser recurses on, so the limit bounds its stack.  Deeper input is
/// a positioned error, not a stack overflow.
const MAX_NESTING: usize = 64;

/// Most binary operators one formula may chain (`and`, `or`, `+`, `-`, `*`,
/// `/`, `%`).  A flat chain `p and q and …` is parsed in a loop, but it
/// builds a left-leaning tree one level deeper per operator, and resolution
/// and every later pass over the predicate walk that tree.  With
/// [`MAX_NESTING`] this bounds the tree's depth.
const MAX_OPERATORS: usize = 256;

struct Parser<'t> {
    tokens: &'t [Token],
    pos: usize,
    /// Current nesting, bounded by [`MAX_NESTING`].
    depth: usize,
    /// Binary operators parsed so far, bounded by [`MAX_OPERATORS`].
    operators: usize,
}

impl<'t> Parser<'t> {
    fn new(tokens: &'t [Token]) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            operators: 0,
        }
    }

    /// Counts one more binary operator of the formula.
    fn link(&mut self) -> Result<(), TctlError> {
        if self.operators >= MAX_OPERATORS {
            return Err(TctlError::Parse {
                position: self.position(),
                expected: format!("at most {MAX_OPERATORS} binary operators"),
                found: "a longer chain".to_string(),
            });
        }
        self.operators += 1;
        Ok(())
    }

    /// Runs `parse` one nesting level deeper.  An error abandons the whole
    /// parse, so only the success path restores `depth`.
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Raw, TctlError>,
    ) -> Result<Raw, TctlError> {
        if self.depth >= MAX_NESTING {
            return Err(TctlError::Parse {
                position: self.position(),
                expected: format!("at most {MAX_NESTING} levels of nesting"),
                found: "a deeper sub-formula".to_string(),
            });
        }
        self.depth += 1;
        let raw = parse(self)?;
        self.depth -= 1;
        Ok(raw)
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn position(&self) -> usize {
        self.tokens.get(self.pos).map_or_else(
            || self.tokens.last().map_or(0, |t| t.position + 1),
            |t| t.position,
        )
    }

    fn found(&self) -> String {
        match self.peek() {
            None => "end of input".to_string(),
            Some(k) => format!("{k:?}"),
        }
    }

    fn error(&self, expected: &str) -> TctlError {
        TctlError::Parse {
            position: self.position(),
            expected: expected.to_string(),
            found: self.found(),
        }
    }

    fn bump(&mut self) -> Option<&TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| &t.kind);
        self.pos += 1;
        t
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), TctlError> {
        if self.peek() == Some(kind) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, TctlError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error(what)),
        }
    }

    /// Parses the `T` of a `<=T` time bound (the `<=` is already consumed),
    /// rejecting negative values and values above
    /// [`tiga_model::MAX_CONSTANT`] with a spanned error instead of letting
    /// them panic deep inside the DBM layer.
    fn parse_time_bound(&mut self) -> Result<i64, TctlError> {
        let position = self.position();
        let negative = if self.peek() == Some(&TokenKind::Minus) {
            self.pos += 1;
            true
        } else {
            false
        };
        let value = match self.peek() {
            Some(TokenKind::Number(n)) => {
                let n = *n;
                self.pos += 1;
                n
            }
            _ => return Err(self.error("a time bound (non-negative integer)")),
        };
        let value = if negative { -value } else { value };
        if !(0..=i64::from(tiga_model::MAX_CONSTANT)).contains(&value) {
            return Err(TctlError::Parse {
                position,
                expected: format!("a time bound in 0..={}", tiga_model::MAX_CONSTANT),
                found: value.to_string(),
            });
        }
        Ok(value)
    }

    /// `imply` has the lowest precedence and associates to the right.
    fn parse_imply(&mut self) -> Result<Raw, TctlError> {
        let lhs = self.parse_or()?;
        if self.peek() == Some(&TokenKind::Imply) {
            self.pos += 1;
            let rhs = self.nested(Self::parse_imply)?;
            Ok(Raw::Bin(RawOp::Imply, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self) -> Result<Raw, TctlError> {
        let mut lhs = self.parse_and()?;
        while self.peek() == Some(&TokenKind::Or) {
            self.pos += 1;
            self.link()?;
            let rhs = self.parse_and()?;
            lhs = Raw::Bin(RawOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Raw, TctlError> {
        let mut lhs = self.parse_quantified()?;
        while self.peek() == Some(&TokenKind::And) {
            self.pos += 1;
            self.link()?;
            let rhs = self.parse_quantified()?;
            lhs = Raw::Bin(RawOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_quantified(&mut self) -> Result<Raw, TctlError> {
        match self.peek() {
            Some(TokenKind::Not) => {
                self.pos += 1;
                Ok(Raw::Not(Box::new(self.nested(Self::parse_quantified)?)))
            }
            Some(TokenKind::Ident(name)) if name == "forall" || name == "exists" => {
                let is_forall = name == "forall";
                self.pos += 1;
                self.expect(&TokenKind::LParen, "`(` after quantifier")?;
                let var = self.expect_ident("bound variable name")?;
                self.expect(&TokenKind::Colon, "`:` in quantifier binder")?;
                let range = self.parse_range()?;
                self.expect(&TokenKind::RParen, "`)` closing the quantifier binder")?;
                let body = Box::new(self.nested(Self::parse_quantified)?);
                Ok(if is_forall {
                    Raw::Forall(var, range, body)
                } else {
                    Raw::Exists(var, range, body)
                })
            }
            _ => self.parse_cmp(),
        }
    }

    fn parse_range(&mut self) -> Result<RawRange, TctlError> {
        match self.peek().cloned() {
            Some(TokenKind::Ident(name)) => {
                self.pos += 1;
                Ok(RawRange::Named(name))
            }
            Some(TokenKind::Number(n)) => {
                self.pos += 1;
                if self.peek() == Some(&TokenKind::DotDot) {
                    self.pos += 1;
                    match self.bump() {
                        Some(TokenKind::Number(m)) => Ok(RawRange::Span(n, *m)),
                        _ => Err(self.error("upper bound of range")),
                    }
                } else {
                    Ok(RawRange::Size(n))
                }
            }
            _ => Err(self.error("range (array name, size or `lo..hi`)")),
        }
    }

    fn parse_cmp(&mut self) -> Result<Raw, TctlError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Some(TokenKind::EqEq) => Some(CmpOp::Eq),
            Some(TokenKind::NotEq) => Some(CmpOp::Ne),
            Some(TokenKind::Lt) => Some(CmpOp::Lt),
            Some(TokenKind::Le) => Some(CmpOp::Le),
            Some(TokenKind::Gt) => Some(CmpOp::Gt),
            Some(TokenKind::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        match op {
            None => Ok(lhs),
            Some(op) => {
                self.pos += 1;
                let rhs = self.nested(Self::parse_add)?;
                Ok(Raw::Bin(RawOp::Cmp(op), Box::new(lhs), Box::new(rhs)))
            }
        }
    }

    fn parse_add(&mut self) -> Result<Raw, TctlError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Plus) => RawOp::Add,
                Some(TokenKind::Minus) => RawOp::Sub,
                _ => break,
            };
            self.pos += 1;
            self.link()?;
            let rhs = self.parse_mul()?;
            lhs = Raw::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Raw, TctlError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Star) => RawOp::Mul,
                Some(TokenKind::Slash) => RawOp::Div,
                Some(TokenKind::Percent) => RawOp::Mod,
                _ => break,
            };
            self.pos += 1;
            self.link()?;
            let rhs = self.parse_unary()?;
            lhs = Raw::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Raw, TctlError> {
        if self.peek() == Some(&TokenKind::Minus) {
            self.pos += 1;
            Ok(Raw::Neg(Box::new(self.nested(Self::parse_unary)?)))
        } else {
            self.parse_atom()
        }
    }

    fn parse_atom(&mut self) -> Result<Raw, TctlError> {
        match self.peek().cloned() {
            Some(TokenKind::Number(n)) => {
                self.pos += 1;
                Ok(Raw::Num(n))
            }
            Some(TokenKind::LParen) => {
                self.pos += 1;
                let inner = self.nested(Self::parse_imply)?;
                self.expect(&TokenKind::RParen, "closing `)`")?;
                Ok(inner)
            }
            Some(TokenKind::Ident(name)) => {
                self.pos += 1;
                match name.as_str() {
                    "true" => return Ok(Raw::Num(1)),
                    "false" => return Ok(Raw::Num(0)),
                    _ => {}
                }
                match self.peek() {
                    Some(TokenKind::Dot) => {
                        self.pos += 1;
                        let loc = self.expect_ident("location name after `.`")?;
                        Ok(Raw::Qualified(name, loc))
                    }
                    Some(TokenKind::LBracket) => {
                        self.pos += 1;
                        let idx = self.nested(Self::parse_add)?;
                        self.expect(&TokenKind::RBracket, "closing `]`")?;
                        Ok(Raw::Index(name, Box::new(idx)))
                    }
                    _ => Ok(Raw::Ident(name)),
                }
            }
            _ => Err(self.error("an atom (number, name, location or `(`)")),
        }
    }
}

/// Bindings of quantifier variables to concrete values during resolution.
type Env<'a> = Vec<(&'a str, i64)>;

fn lookup_env(env: &Env<'_>, name: &str) -> Option<i64> {
    env.iter()
        .rev()
        .find_map(|(n, v)| if *n == name { Some(*v) } else { None })
}

fn range_values(range: &RawRange, system: &System) -> Result<Vec<i64>, TctlError> {
    match range {
        RawRange::Size(n) => {
            if *n <= 0 {
                return Err(TctlError::Invalid(format!("empty quantifier range {n}")));
            }
            Ok((0..*n).collect())
        }
        RawRange::Span(lo, hi) => {
            if lo > hi {
                return Err(TctlError::Invalid(format!(
                    "empty quantifier range {lo}..{hi}"
                )));
            }
            Ok((*lo..=*hi).collect())
        }
        RawRange::Named(name) => {
            if let Some(var) = system.vars().lookup(name) {
                let decl = system.vars().decl(var);
                if decl.is_array() {
                    return Ok((0..decl.size() as i64).collect());
                }
                // A named constant denotes the size of the range.
                if decl.lower() == decl.upper() {
                    let n = decl.lower();
                    if n <= 0 {
                        return Err(TctlError::Invalid(format!(
                            "constant `{name}` does not describe a non-empty range"
                        )));
                    }
                    return Ok((0..n).collect());
                }
            }
            // `BufferId`-style index types: `<array>Id` refers to the indices
            // of `<array>` if such an array exists (paper notation).
            if let Some(stripped) = name.strip_suffix("Id") {
                for decl in system.vars().iter() {
                    if decl.is_array() && decl.name().eq_ignore_ascii_case(stripped) {
                        return Ok((0..decl.size() as i64).collect());
                    }
                }
            }
            Err(TctlError::Unresolved(format!("quantifier range `{name}`")))
        }
    }
}

fn resolve_int(raw: &Raw, system: &System, env: &Env<'_>) -> Result<Expr, TctlError> {
    match raw {
        Raw::Num(n) => Ok(Expr::constant(*n)),
        Raw::Ident(name) => {
            if let Some(v) = lookup_env(env, name) {
                return Ok(Expr::constant(v));
            }
            let var = system
                .vars()
                .lookup(name)
                .ok_or_else(|| TctlError::Unresolved(name.clone()))?;
            if system.vars().decl(var).is_array() {
                return Err(TctlError::Invalid(format!(
                    "array `{name}` used without an index"
                )));
            }
            Ok(Expr::var(var))
        }
        Raw::Index(name, idx) => {
            let var = system
                .vars()
                .lookup(name)
                .ok_or_else(|| TctlError::Unresolved(name.clone()))?;
            let idx = resolve_int(idx, system, env)?;
            Ok(Expr::index(var, idx))
        }
        Raw::Neg(e) => Ok(Expr::Neg(Box::new(resolve_int(e, system, env)?))),
        Raw::Not(e) => Ok(resolve_int(e, system, env)?.negated()),
        Raw::Bin(op, a, b) => {
            let a = resolve_int(a, system, env)?;
            let b = resolve_int(b, system, env)?;
            Ok(match op {
                RawOp::Add => a + b,
                RawOp::Sub => a - b,
                RawOp::Mul => a * b,
                RawOp::Div => Expr::Div(Box::new(a), Box::new(b)),
                RawOp::Mod => Expr::Mod(Box::new(a), Box::new(b)),
                RawOp::Cmp(op) => a.cmp(*op, b),
                RawOp::And => a.and(b),
                RawOp::Or => a.or(b),
                RawOp::Imply => a.negated().or(b),
            })
        }
        Raw::Qualified(a, l) => {
            // UPPAAL-style process-qualified variable (`IUT.betterInfo`): the
            // reproduction uses global variables, so fall back to the bare
            // name.
            if let Some(var) = system.vars().lookup(l) {
                if system.vars().decl(var).is_array() {
                    return Err(TctlError::Invalid(format!(
                        "array `{a}.{l}` used without an index"
                    )));
                }
                return Ok(Expr::var(var));
            }
            Err(TctlError::Invalid(format!(
                "location `{a}.{l}` cannot be used as an integer"
            )))
        }
        Raw::Forall(..) | Raw::Exists(..) => Err(TctlError::Invalid(
            "quantifiers cannot appear inside arithmetic".to_string(),
        )),
    }
}

fn resolve_bool(raw: &Raw, system: &System, env: &Env<'_>) -> Result<StatePredicate, TctlError> {
    match raw {
        Raw::Num(n) => Ok(if *n != 0 {
            StatePredicate::True
        } else {
            StatePredicate::False
        }),
        Raw::Qualified(aut, loc) => {
            if let Some((a, l)) = system.location_by_qualified_name(&format!("{aut}.{loc}")) {
                return Ok(StatePredicate::Location(a, l));
            }
            // Fall back to a process-qualified global variable used as a
            // boolean (`IUT.betterInfo` in the paper's TP1).
            if let Some(var) = system.vars().lookup(loc) {
                if !system.vars().decl(var).is_array() {
                    return Ok(StatePredicate::Expr(Expr::var(var)));
                }
            }
            Err(TctlError::Unresolved(format!("{aut}.{loc}")))
        }
        Raw::Not(e) => Ok(resolve_bool(e, system, env)?.negated()),
        Raw::Bin(RawOp::And, a, b) => {
            Ok(resolve_bool(a, system, env)?.and(resolve_bool(b, system, env)?))
        }
        Raw::Bin(RawOp::Or, a, b) => {
            Ok(resolve_bool(a, system, env)?.or(resolve_bool(b, system, env)?))
        }
        Raw::Bin(RawOp::Imply, a, b) => Ok(resolve_bool(a, system, env)?
            .negated()
            .or(resolve_bool(b, system, env)?)),
        Raw::Forall(var, range, body) => {
            let mut acc = StatePredicate::True;
            for v in range_values(range, system)? {
                let mut env2 = env.clone();
                env2.push((var.as_str(), v));
                acc = acc.and(resolve_bool(body, system, &env2)?);
            }
            Ok(acc)
        }
        Raw::Exists(var, range, body) => {
            let mut acc = StatePredicate::False;
            for v in range_values(range, system)? {
                let mut env2 = env.clone();
                env2.push((var.as_str(), v));
                acc = acc.or(resolve_bool(body, system, &env2)?);
            }
            Ok(acc)
        }
        // Everything else is an integer expression interpreted as a boolean.
        _ => Ok(StatePredicate::Expr(resolve_int(raw, system, env)?)),
    }
}

/// Parses and resolves a complete `control: A<>/A[] φ` test purpose.
///
/// # Errors
///
/// Returns a [`TctlError`] describing the first lexical, syntactic or
/// resolution problem.
pub fn parse_test_purpose(input: &str, system: &System) -> Result<TestPurpose, TctlError> {
    let tokens = tokenize(input)?;
    let mut p = Parser::new(&tokens);
    // `control :`
    let kw = p.expect_ident("the keyword `control`")?;
    if kw != "control" {
        return Err(TctlError::Invalid(format!(
            "test purposes start with `control:`, found `{kw}`"
        )));
    }
    p.expect(&TokenKind::Colon, "`:` after `control`")?;
    // `A<>` or `A[]`
    let a = p.expect_ident("the path quantifier `A`")?;
    if a != "A" {
        return Err(TctlError::Invalid(format!(
            "only `A<>` and `A[]` purposes are supported, found `{a}`"
        )));
    }
    let quantifier = match p.bump() {
        Some(TokenKind::Diamond) => PathQuantifier::Reachability,
        Some(TokenKind::Box) => PathQuantifier::Safety,
        _ => {
            return Err(TctlError::Invalid(
                "expected `<>` or `[]` after `A`".to_string(),
            ))
        }
    };
    // Optional time bound: `A<><=T φ` / `A[]<=T φ`.
    let bound = if p.peek() == Some(&TokenKind::Le) {
        p.pos += 1;
        Some(p.parse_time_bound()?)
    } else {
        None
    };
    let raw = p.parse_imply()?;
    if p.peek().is_some() {
        return Err(p.error("end of input"));
    }
    let predicate = resolve_bool(&raw, system, &Vec::new())?;
    Ok(TestPurpose {
        quantifier,
        predicate,
        bound,
        source: input.trim().to_string(),
    })
}

/// Parses and resolves a bare state predicate (without the `control: A<>`
/// wrapper), useful for defining goal sets or monitors programmatically.
///
/// # Errors
///
/// Returns a [`TctlError`] describing the first problem found.
pub fn parse_predicate(input: &str, system: &System) -> Result<StatePredicate, TctlError> {
    let tokens = tokenize(input)?;
    let mut p = Parser::new(&tokens);
    let raw = p.parse_imply()?;
    if p.peek().is_some() {
        return Err(p.error("end of input"));
    }
    resolve_bool(&raw, system, &Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiga_model::{AutomatonBuilder, SystemBuilder};

    /// A system shaped like the paper's examples: an `IUT` automaton with a
    /// few locations, a buffer array `inUse[3]`, and scalars
    /// `betterInfo`/`forwardCount`.
    fn sample_system() -> System {
        let mut b = SystemBuilder::new("sample");
        b.int_array("inUse", 3, 0, 1, 0).unwrap();
        b.int_var("betterInfo", 0, 1, 0).unwrap();
        b.int_var("forwardCount", 0, 10, 0).unwrap();
        b.constant("N", 3).unwrap();
        // Index-type constant in the style of the paper's `BufferId`.
        b.constant("BufferId", 3).unwrap();
        let mut a = AutomatonBuilder::new("IUT");
        a.location("Off").unwrap();
        a.location("Dim").unwrap();
        a.location("Bright").unwrap();
        a.location("idle").unwrap();
        b.add_automaton(a.build().unwrap()).unwrap();
        b.build().unwrap()
    }

    fn state_with(
        system: &System,
        loc: &str,
        in_use: [i64; 3],
        better: i64,
    ) -> tiga_model::DiscreteState {
        let mut d = system.initial_discrete();
        let (aut, l) = system
            .location_by_qualified_name(&format!("IUT.{loc}"))
            .unwrap();
        d.locations[aut.index()] = l;
        let in_use_var = system.vars().lookup("inUse").unwrap();
        let off = system.vars().offset(in_use_var);
        d.vars[off..off + 3].copy_from_slice(&in_use);
        let better_var = system.vars().lookup("betterInfo").unwrap();
        d.vars[system.vars().offset(better_var)] = better;
        d
    }

    #[test]
    fn parses_tp_bright() {
        let sys = sample_system();
        let tp = TestPurpose::parse("control: A<> IUT.Bright", &sys).unwrap();
        assert_eq!(tp.quantifier, PathQuantifier::Reachability);
        let bright = state_with(&sys, "Bright", [0, 0, 0], 0);
        let off = state_with(&sys, "Off", [0, 0, 0], 0);
        assert!(tp.predicate.holds(&sys, &bright).unwrap());
        assert!(!tp.predicate.holds(&sys, &off).unwrap());
        assert_eq!(tp.to_string(), "control: A<> IUT.Bright");
    }

    #[test]
    fn parses_tp1_conjunction() {
        let sys = sample_system();
        let tp = TestPurpose::parse("control: A<> (IUT.Dim and betterInfo == 1)", &sys).unwrap();
        assert!(tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 1))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 0))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Bright", [0, 0, 0], 1))
            .unwrap());
    }

    #[test]
    fn parses_tp2_forall_over_array() {
        let sys = sample_system();
        for text in [
            "control: A<> forall (i: BufferId) (inUse[i] == 1)",
            "control: A<> forall (i: inUse) (inUse[i] == 1)",
            "control: A<> forall (i: 3) (inUse[i] == 1)",
            "control: A<> forall (i: 0..2) (inUse[i] == 1)",
        ] {
            let tp = TestPurpose::parse(text, &sys).unwrap();
            assert!(tp
                .predicate
                .holds(&sys, &state_with(&sys, "Off", [1, 1, 1], 0))
                .unwrap());
            assert!(!tp
                .predicate
                .holds(&sys, &state_with(&sys, "Off", [1, 0, 1], 0))
                .unwrap());
        }
    }

    #[test]
    fn parses_tp3_forall_and_location() {
        let sys = sample_system();
        let tp = TestPurpose::parse(
            "control: A<> forall (i: BufferId) (inUse[i] == 1) and IUT.idle",
            &sys,
        )
        .unwrap();
        assert!(tp
            .predicate
            .holds(&sys, &state_with(&sys, "idle", [1, 1, 1], 0))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Off", [1, 1, 1], 0))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "idle", [1, 0, 1], 0))
            .unwrap());
    }

    #[test]
    fn parses_exists_and_not() {
        let sys = sample_system();
        let tp = TestPurpose::parse(
            "control: A<> exists (i: inUse) (inUse[i] == 1) and not IUT.Off",
            &sys,
        )
        .unwrap();
        assert!(tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 1, 0], 0))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Off", [0, 1, 0], 0))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 0))
            .unwrap());
    }

    #[test]
    fn parses_safety_purpose_and_imply() {
        let sys = sample_system();
        let tp = TestPurpose::parse("control: A[] betterInfo == 1 imply IUT.Dim", &sys).unwrap();
        assert_eq!(tp.quantifier, PathQuantifier::Safety);
        assert!(tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 1))
            .unwrap());
        assert!(tp
            .predicate
            .holds(&sys, &state_with(&sys, "Off", [0, 0, 0], 0))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Off", [0, 0, 0], 1))
            .unwrap());
    }

    #[test]
    fn arithmetic_inside_predicates() {
        let sys = sample_system();
        let p = parse_predicate("forwardCount + betterInfo >= 1", &sys).unwrap();
        assert!(!p
            .holds(&sys, &state_with(&sys, "Off", [0, 0, 0], 0))
            .unwrap());
        assert!(p
            .holds(&sys, &state_with(&sys, "Off", [0, 0, 0], 1))
            .unwrap());
        let p = parse_predicate("N == 3", &sys).unwrap();
        assert!(p.holds(&sys, &sys.initial_discrete()).unwrap());
        let p = parse_predicate("2 * N - 1 == 5", &sys).unwrap();
        assert!(p.holds(&sys, &sys.initial_discrete()).unwrap());
    }

    #[test]
    fn named_constant_as_quantifier_range() {
        let sys = sample_system();
        let p = parse_predicate("forall (i: N) (inUse[i] == 0)", &sys).unwrap();
        assert!(p.holds(&sys, &sys.initial_discrete()).unwrap());
        assert!(!p
            .holds(&sys, &state_with(&sys, "Off", [0, 1, 0], 0))
            .unwrap());
    }

    #[test]
    fn error_reporting() {
        let sys = sample_system();
        assert!(matches!(
            TestPurpose::parse("A<> IUT.Bright", &sys),
            Err(TctlError::Invalid(_)) | Err(TctlError::Parse { .. })
        ));
        assert!(matches!(
            TestPurpose::parse("control: E<> IUT.Bright", &sys),
            Err(TctlError::Invalid(_))
        ));
        assert!(matches!(
            TestPurpose::parse("control: A<> IUT.Missing", &sys),
            Err(TctlError::Unresolved(_))
        ));
        assert!(matches!(
            TestPurpose::parse("control: A<> nosuchvar == 1", &sys),
            Err(TctlError::Unresolved(_))
        ));
        assert!(matches!(
            TestPurpose::parse("control: A<> IUT.Bright extra", &sys),
            Err(TctlError::Parse { .. })
        ));
        assert!(matches!(
            TestPurpose::parse("control: A<> forall (i: Nope) (inUse[i] == 1)", &sys),
            Err(TctlError::Unresolved(_))
        ));
        assert!(matches!(
            TestPurpose::parse("control: A<> inUse == 1", &sys),
            Err(TctlError::Invalid(_))
        ));
        assert!(matches!(
            TestPurpose::parse("control: A<> IUT.Bright + 1 == 2", &sys),
            Err(TctlError::Invalid(_))
        ));
    }

    #[test]
    fn parses_time_bounds_on_both_quantifiers() {
        let sys = sample_system();
        let tp = TestPurpose::parse("control: A<><=7 IUT.Bright", &sys).unwrap();
        assert_eq!(tp.quantifier, PathQuantifier::Reachability);
        assert_eq!(tp.bound, Some(7));
        assert_eq!(tp.to_string(), "control: A<><=7 IUT.Bright");

        let tp = TestPurpose::parse("control: A[]<=12 not IUT.Bright", &sys).unwrap();
        assert_eq!(tp.quantifier, PathQuantifier::Safety);
        assert_eq!(tp.bound, Some(12));

        // Whitespace around the bound is irrelevant; zero is a legal bound.
        let tp = TestPurpose::parse("control: A<> <= 0 IUT.Bright", &sys).unwrap();
        assert_eq!(tp.bound, Some(0));

        // The largest representable bound parses; `<=` further in stays an
        // ordinary comparison.
        let max = i64::from(tiga_model::MAX_CONSTANT);
        let tp = TestPurpose::parse(&format!("control: A<><={max} IUT.Bright"), &sys).unwrap();
        assert_eq!(tp.bound, Some(max));
        let tp = TestPurpose::parse("control: A<> forwardCount <= 3", &sys).unwrap();
        assert_eq!(tp.bound, None);
    }

    #[test]
    fn rejects_out_of_range_time_bounds_with_spans() {
        let sys = sample_system();
        let text = "control: A<><=-1 IUT.Bright";
        match TestPurpose::parse(text, &sys) {
            Err(TctlError::Parse {
                position,
                expected,
                found,
            }) => {
                assert_eq!(position, text.find("-1").unwrap());
                assert!(expected.contains("time bound"), "{expected}");
                assert_eq!(found, "-1");
            }
            other => panic!("expected a spanned parse error, got {other:?}"),
        }
        let too_big = i64::from(tiga_model::MAX_CONSTANT) + 1;
        let text = format!("control: A[]<={too_big} IUT.Bright");
        match TestPurpose::parse(&text, &sys) {
            Err(TctlError::Parse {
                position, found, ..
            }) => {
                assert_eq!(position, text.find(&too_big.to_string()).unwrap());
                assert_eq!(found, too_big.to_string());
            }
            other => panic!("expected a spanned parse error, got {other:?}"),
        }
        // A bound that does not even fit in i64 is a lexer-level error.
        assert!(matches!(
            TestPurpose::parse("control: A<><=99999999999999999999 IUT.Bright", &sys),
            Err(TctlError::Invalid(_))
        ));
        // `<=` with no number at all.
        assert!(matches!(
            TestPurpose::parse("control: A<><= IUT.Bright", &sys),
            Err(TctlError::Parse { .. })
        ));
    }

    #[test]
    fn display_round_trips_through_parse() {
        let sys = sample_system();
        for text in [
            "control: A<> IUT.Bright",
            "control: A<><=7 IUT.Bright",
            "control: A[]<=3 betterInfo == 1 imply IUT.Dim",
            "control: A<> (IUT.Dim and betterInfo == 1)",
        ] {
            let tp = TestPurpose::parse(text, &sys).unwrap();
            // Parsed purposes display as their source and re-parse to the
            // same purpose.
            let reparsed = TestPurpose::parse(&tp.to_string(), &sys).unwrap();
            assert_eq!(tp, reparsed, "{text}");
            // The canonical system-resolved rendering also round-trips to an
            // equivalent purpose (source text may differ).
            let canon = tp.display(&sys).to_string();
            let from_canon = TestPurpose::parse(&canon, &sys).unwrap();
            assert_eq!(from_canon.quantifier, tp.quantifier, "{canon}");
            assert_eq!(from_canon.bound, tp.bound, "{canon}");
            assert_eq!(from_canon.predicate, tp.predicate, "{canon}");
        }
    }

    #[test]
    fn programmatic_purposes_display_their_structure() {
        let sys = sample_system();
        let parsed = TestPurpose::parse("control: A<> IUT.Bright", &sys).unwrap();
        let programmatic = TestPurpose::reachability(parsed.predicate.clone());
        // The old implementation printed a literal `<predicate>` placeholder.
        let text = programmatic.to_string();
        assert!(!text.contains("<predicate>"), "{text}");
        assert!(text.starts_with("control: A<> "), "{text}");
        let bounded = TestPurpose::safety(parsed.predicate.clone()).with_bound(9);
        assert!(bounded.to_string().starts_with("control: A[]<=9 "));
        // The system-resolved rendering is parseable.
        let canon = bounded.display(&sys).to_string();
        assert_eq!(canon, "control: A[]<=9 IUT.Bright");
        let reparsed = TestPurpose::parse(&canon, &sys).unwrap();
        assert_eq!(reparsed.predicate, bounded.predicate);
        assert_eq!(reparsed.bound, Some(9));
    }

    #[test]
    fn display_of_resolved_predicates() {
        let sys = sample_system();
        let tp = TestPurpose::parse(
            "control: A<> forall (i: 2) (inUse[i] == 1) and IUT.idle",
            &sys,
        )
        .unwrap();
        let text = format!("{}", tp.predicate.display(&sys));
        assert!(text.contains("IUT.idle"), "{text}");
        assert!(text.contains("inUse[0]"), "{text}");
        assert!(text.contains("inUse[1]"), "{text}");
    }

    #[test]
    fn process_qualified_variables_fall_back_to_globals() {
        let sys = sample_system();
        // The paper's TP1 uses `IUT.betterInfo == 1` for a process variable;
        // our models use globals, so the qualifier is dropped.
        let tp =
            TestPurpose::parse("control: A<> (IUT.betterInfo == 1) and IUT.Dim", &sys).unwrap();
        assert!(tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 1))
            .unwrap());
        assert!(!tp
            .predicate
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 0))
            .unwrap());
        // Used directly as a boolean atom.
        let p = parse_predicate("IUT.betterInfo and IUT.Dim", &sys).unwrap();
        assert!(p
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 1))
            .unwrap());
        assert!(!p
            .holds(&sys, &state_with(&sys, "Dim", [0, 0, 0], 0))
            .unwrap());
        // Unknown names still fail.
        assert!(matches!(
            parse_predicate("IUT.noSuchThing == 1", &sys),
            Err(TctlError::Invalid(_)) | Err(TctlError::Unresolved(_))
        ));
    }

    #[test]
    fn true_false_literals() {
        let sys = sample_system();
        assert_eq!(parse_predicate("true", &sys).unwrap(), StatePredicate::True);
        assert_eq!(
            parse_predicate("false", &sys).unwrap(),
            StatePredicate::False
        );
        // Simplification keeps conjunctions with `true` small.
        assert_eq!(
            parse_predicate("true and IUT.Off", &sys).unwrap(),
            parse_predicate("IUT.Off", &sys).unwrap()
        );
    }

    #[test]
    fn deep_nesting_is_a_positioned_error() {
        let sys = sample_system();
        let deep = 200_000;
        for (what, formula) in [
            ("nots", format!("{}IUT.Bright", "not ".repeat(deep))),
            (
                "parens",
                format!("{}IUT.Bright{}", "(".repeat(deep), ")".repeat(deep)),
            ),
            ("minus", format!("{}1 == 1", "-".repeat(deep))),
            ("chain", vec!["IUT.Bright"; deep].join(" and ")),
        ] {
            let text = format!("control: A<> {formula}");
            let err = TestPurpose::parse(&text, &sys).unwrap_err();
            let limit = if what == "chain" {
                "at most 256 binary operators"
            } else {
                "levels of nesting"
            };
            assert!(
                matches!(&err, TctlError::Parse { position, expected, .. }
                    if expected.contains(limit) && (1..text.len()).contains(position)),
                "{what}: {err:?}"
            );
        }
        // Realistic nesting stays well inside the limits, and a flat chain
        // is bounded by its operator count, not by the nesting limit.
        let ok = format!("{}IUT.Bright{}", "(not ".repeat(30), ")".repeat(30));
        assert!(parse_predicate(&ok, &sys).is_ok());
        let chain = vec!["IUT.Bright"; 257].join(" or ");
        assert!(parse_predicate(&chain, &sys).is_ok());
    }
}

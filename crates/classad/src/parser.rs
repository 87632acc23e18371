//! Pratt parser for ClassAd expressions.

use crate::ast::{BinOp, Expr, Scope, UnOp};
use crate::lexer::{lex, LexError, Token};
use crate::value::Value;
use std::fmt;

/// A parsing failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The tokenizer failed.
    Lex(LexError),
    /// Unexpected token (or end of input) with a human-readable description.
    Unexpected(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parse an expression string into an AST.
///
/// ```
/// use phishare_classad::parse;
/// let e = parse("TARGET.PhiMemory >= 1024 && PhiDevices > 0").unwrap();
/// assert_eq!(e.to_string(), "((TARGET.PhiMemory >= 1024) && (PhiDevices > 0))");
/// ```
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let expr = p.ternary()?;
    if p.pos != p.tokens.len() {
        return Err(ParseError::Unexpected(format!(
            "trailing input at token {}: {:?}",
            p.pos, p.tokens[p.pos]
        )));
    }
    Ok(expr)
}

/// Deepest nesting — parentheses, call arguments, conditionals and unary
/// operators — the parser accepts. It recurses once per level, so an
/// unbounded depth would let hostile input overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels currently open (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Token, what: &str) -> Result<(), ParseError> {
        match self.bump() {
            Some(ref t) if t == tok => Ok(()),
            other => Err(ParseError::Unexpected(format!(
                "expected {what}, found {other:?}"
            ))),
        }
    }

    /// Parse one nesting level with `parse`, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::Unexpected(format!(
                "expression nests deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let expr = parse(self);
        self.depth -= 1;
        expr
    }

    /// One nesting level holding a full expression.
    fn ternary(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::conditional)
    }

    /// The ternary conditional sits below every binary operator and is
    /// right-associative: `a ? b : c ? d : e` = `a ? b : (c ? d : e)`.
    fn conditional(&mut self) -> Result<Expr, ParseError> {
        let cond = self.expression(0)?;
        if self.peek() != Some(&Token::Question) {
            return Ok(cond);
        }
        self.bump();
        let then = self.ternary()?;
        self.expect(&Token::Colon, "':' in conditional")?;
        let otherwise = self.ternary()?;
        Ok(Expr::Ternary(
            Box::new(cond),
            Box::new(then),
            Box::new(otherwise),
        ))
    }

    fn expression(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.prefix()?;
        while let Some(op) = self.peek().and_then(binop_of) {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            // All operators are left-associative: parse the rhs at prec+1.
            let rhs = self.expression(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn prefix(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Token::Int(n)) => Ok(Expr::Lit(Value::Int(n))),
            Some(Token::Float(x)) => Ok(Expr::Lit(Value::Float(x))),
            Some(Token::Str(s)) => Ok(Expr::Lit(Value::Str(s))),
            // Unary operators bind tighter than any binop.
            Some(Token::Bang) => {
                self.nested(|p| Ok(Expr::Unary(UnOp::Not, Box::new(p.expression(7)?))))
            }
            Some(Token::Minus) => {
                self.nested(|p| Ok(Expr::Unary(UnOp::Neg, Box::new(p.expression(7)?))))
            }
            Some(Token::LParen) => {
                let e = self.ternary()?;
                self.expect(&Token::RParen, "')'")?;
                Ok(e)
            }
            Some(Token::Ident(name)) => self.ident(name),
            other => Err(ParseError::Unexpected(format!(
                "expected an expression, found {other:?}"
            ))),
        }
    }

    fn ident(&mut self, name: String) -> Result<Expr, ParseError> {
        // Keywords.
        if name.eq_ignore_ascii_case("true") {
            return Ok(Expr::Lit(Value::Bool(true)));
        }
        if name.eq_ignore_ascii_case("false") {
            return Ok(Expr::Lit(Value::Bool(false)));
        }
        if name.eq_ignore_ascii_case("undefined") {
            return Ok(Expr::Lit(Value::Undefined));
        }
        // Scoped references: MY.attr / TARGET.attr.
        let scope = if name.eq_ignore_ascii_case("my") {
            Some(Scope::My)
        } else if name.eq_ignore_ascii_case("target") {
            Some(Scope::Target)
        } else {
            None
        };
        if let Some(scope) = scope {
            if self.peek() == Some(&Token::Dot) {
                self.bump();
                match self.bump() {
                    Some(Token::Ident(attr)) => return Ok(Expr::ScopedAttr(scope, attr)),
                    other => {
                        return Err(ParseError::Unexpected(format!(
                            "expected attribute name after scope, found {other:?}"
                        )))
                    }
                }
            }
        }
        // Function call?
        if self.peek() == Some(&Token::LParen) {
            self.bump();
            let mut args = Vec::new();
            if self.peek() != Some(&Token::RParen) {
                loop {
                    args.push(self.ternary()?);
                    match self.peek() {
                        Some(Token::Comma) => {
                            self.bump();
                        }
                        _ => break,
                    }
                }
            }
            self.expect(&Token::RParen, "')' after function arguments")?;
            return Ok(Expr::Call(name, args));
        }
        Ok(Expr::Attr(name))
    }
}

fn binop_of(tok: &Token) -> Option<BinOp> {
    Some(match tok {
        Token::OrOr => BinOp::Or,
        Token::AndAnd => BinOp::And,
        Token::EqEq => BinOp::Eq,
        Token::NotEq => BinOp::Ne,
        Token::Is => BinOp::Is,
        Token::Isnt => BinOp::Isnt,
        Token::Lt => BinOp::Lt,
        Token::Le => BinOp::Le,
        Token::Gt => BinOp::Gt,
        Token::Ge => BinOp::Ge,
        Token::Plus => BinOp::Add,
        Token::Minus => BinOp::Sub,
        Token::Star => BinOp::Mul,
        Token::Slash => BinOp::Div,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> String {
        parse(s).unwrap().to_string()
    }

    #[test]
    fn precedence_shapes_the_tree() {
        assert_eq!(p("1 + 2 * 3"), "(1 + (2 * 3))");
        assert_eq!(p("(1 + 2) * 3"), "((1 + 2) * 3)");
        assert_eq!(p("a && b || c"), "((a && b) || c)");
        assert_eq!(p("a == b && c < d"), "((a == b) && (c < d))");
    }

    #[test]
    fn left_associativity() {
        assert_eq!(p("10 - 3 - 2"), "((10 - 3) - 2)");
        assert_eq!(p("8 / 4 / 2"), "((8 / 4) / 2)");
    }

    #[test]
    fn unary_operators() {
        assert_eq!(p("!a && b"), "(!(a) && b)");
        assert_eq!(p("-3 + 4"), "(-(3) + 4)");
        assert_eq!(p("!(a && b)"), "!((a && b))");
    }

    #[test]
    fn scoped_attributes() {
        assert_eq!(p("MY.x + TARGET.y"), "(MY.x + TARGET.y)");
        // Case-insensitive scope keywords.
        assert_eq!(p("my.x"), "MY.x");
        // Bare `target` without a dot is an ordinary attribute.
        assert_eq!(p("target"), "target");
    }

    #[test]
    fn keywords() {
        assert_eq!(p("TRUE && False"), "(true && false)");
        assert_eq!(p("x =?= UNDEFINED"), "(x =?= UNDEFINED)");
    }

    #[test]
    fn string_literals() {
        assert_eq!(p("Name == \"slot1@n1\""), "(Name == \"slot1@n1\")");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("1 +").is_err());
        assert!(parse("(1 + 2").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("MY.").is_err());
        assert!(parse("&& a").is_err());
    }

    #[test]
    fn deep_nesting_parses() {
        let mut s = String::new();
        for _ in 0..100 {
            s.push('(');
        }
        s.push('1');
        for _ in 0..100 {
            s.push(')');
        }
        assert_eq!(p(&s), "1");
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let parens = |depth: usize| format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        // The outermost expression is one level; each parenthesis adds one.
        assert_eq!(p(&parens(MAX_DEPTH - 1)), "1");
        let err = parse(&parens(MAX_DEPTH)).unwrap_err();
        assert!(err.to_string().contains("nests deeper than"), "{err}");
        // Far past the limit through every recursive construct: an error.
        for hostile in ["(", "-", "!", "f(", "1 ? 1 : "] {
            let src = format!("{}1", hostile.repeat(200_000));
            assert!(parse(&src).is_err(), "{hostile}");
        }
    }
}

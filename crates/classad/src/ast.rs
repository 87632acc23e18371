//! The expression AST.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Binary operators, loosest-binding first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    /// `||`
    Or,
    /// `&&`
    And,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `=?=` (identity: total, case-sensitive, UNDEFINED-safe)
    Is,
    /// `=!=` (negated identity)
    Isnt,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// Binding power (higher binds tighter); used by the Pratt parser.
    pub(crate) fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Is | BinOp::Isnt => 3,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div => 6,
        }
    }

    /// Surface syntax of the operator.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "||",
            BinOp::And => "&&",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Is => "=?=",
            BinOp::Isnt => "=!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnOp {
    /// Logical negation `!`.
    Not,
    /// Arithmetic negation `-`.
    Neg,
}

/// Which ad an explicitly scoped attribute refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scope {
    /// `MY.attr` — the ad the expression lives in.
    My,
    /// `TARGET.attr` — the candidate match.
    Target,
}

/// A parsed ClassAd expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A bare attribute reference (resolved MY-first-then-TARGET).
    Attr(String),
    /// An explicitly scoped attribute reference.
    ScopedAttr(Scope, String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Conditional `cond ? then : else` (lowest precedence, right-assoc).
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Builtin function call, e.g. `min(a, b)`. Names are case-insensitive
    /// and resolved at evaluation time (unknown functions evaluate to
    /// `UNDEFINED`, keeping evaluation total).
    Call(String, Vec<Expr>),
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Attr(a) => write!(f, "{a}"),
            Expr::ScopedAttr(Scope::My, a) => write!(f, "MY.{a}"),
            Expr::ScopedAttr(Scope::Target, a) => write!(f, "TARGET.{a}"),
            Expr::Unary(UnOp::Not, e) => write!(f, "!({e})"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "-({e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
            Expr::Ternary(c, t, e) => write!(f, "({c} ? {t} : {e})"),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_ordering() {
        assert!(BinOp::Or.precedence() < BinOp::And.precedence());
        assert!(BinOp::And.precedence() < BinOp::Eq.precedence());
        assert!(BinOp::Eq.precedence() < BinOp::Lt.precedence());
        assert!(BinOp::Lt.precedence() < BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() < BinOp::Mul.precedence());
    }

    #[test]
    fn display_round_trips_structure() {
        let e = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Attr("a".into())),
            Box::new(Expr::ScopedAttr(Scope::Target, "b".into())),
        );
        assert_eq!(e.to_string(), "(a && TARGET.b)");
    }
}

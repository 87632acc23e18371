//! ClassAd values and their coercion rules.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A ClassAd value.
///
/// `Undefined` arises from referencing a missing attribute; it propagates
/// through arithmetic and comparisons, and participates in three-valued
/// logic (`false && UNDEFINED == false`, `true || UNDEFINED == true`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String (compared case-insensitively by `==`, as in HTCondor).
    Str(String),
    /// The UNDEFINED value.
    Undefined,
}

impl Value {
    /// Coerce to a float for arithmetic, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Truthiness for `Requirements` evaluation: only `Bool(true)` matches;
    /// `UNDEFINED` and non-booleans do not (HTCondor's matchmaking rule).
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// True when this is [`Value::Undefined`].
    pub(crate) fn is_undefined(&self) -> bool {
        matches!(self, Value::Undefined)
    }

    /// ClassAd equality (`==`): numeric comparison across Int/Float,
    /// case-insensitive string comparison, `Undefined` if types mismatch or
    /// either side is undefined.
    pub(crate) fn classad_eq(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Undefined, _) | (_, Value::Undefined) => Value::Undefined,
            (Value::Bool(a), Value::Bool(b)) => Value::Bool(a == b),
            (Value::Str(a), Value::Str(b)) => Value::Bool(a.eq_ignore_ascii_case(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Bool(x == y),
                _ => Value::Undefined,
            },
        }
    }

    /// The `=?=` ("is") operator: total, never UNDEFINED; `UNDEFINED =?=
    /// UNDEFINED` is true; mismatched types are false; strings compare
    /// case-sensitively.
    pub(crate) fn identical(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Undefined, Value::Undefined) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Undefined => write!(f, "UNDEFINED"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_is_strict() {
        assert!(Value::Bool(true).is_true());
        assert!(!Value::Bool(false).is_true());
        assert!(!Value::Int(1).is_true());
        assert!(!Value::Undefined.is_true());
    }

    #[test]
    fn equality_coerces_numerics() {
        assert_eq!(
            Value::Int(2).classad_eq(&Value::Float(2.0)),
            Value::Bool(true)
        );
        assert_eq!(Value::Int(2).classad_eq(&Value::Int(3)), Value::Bool(false));
    }

    #[test]
    fn equality_on_strings_is_case_insensitive() {
        assert_eq!(
            Value::from("slot1@Node3").classad_eq(&Value::from("SLOT1@node3")),
            Value::Bool(true)
        );
    }

    #[test]
    fn equality_with_undefined_is_undefined() {
        assert_eq!(
            Value::Undefined.classad_eq(&Value::Int(1)),
            Value::Undefined
        );
        assert_eq!(
            Value::Int(1).classad_eq(&Value::from("x")),
            Value::Undefined
        );
    }

    #[test]
    fn identity_operator_is_total() {
        assert!(Value::Undefined.identical(&Value::Undefined));
        assert!(!Value::Undefined.identical(&Value::Int(0)));
        assert!(Value::from("a").identical(&Value::from("a")));
        assert!(!Value::from("a").identical(&Value::from("A"))); // case-sensitive
        assert!(!Value::Int(2).identical(&Value::Float(2.0))); // type-strict
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Undefined.to_string(), "UNDEFINED");
        assert_eq!(Value::from("hi").to_string(), "\"hi\"");
    }
}

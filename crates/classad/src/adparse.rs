//! Parsing complete ads from HTCondor's bracketed text form:
//!
//! ```text
//! [
//!   Name = "slot1@node3";
//!   PhiMemory = 7680;
//!   Requirements = TARGET.RequestPhiMemory <= MY.PhiMemory;
//! ]
//! ```
//!
//! Attributes whose right-hand side is a *literal* become value attributes;
//! anything else is stored as an expression attribute (evaluated lazily
//! against a TARGET, like `Requirements`/`Rank`). This matches how this
//! crate's [`ClassAd`] splits storage, and round-trips with its `Display`
//! output.

use crate::ad::ClassAd;
use crate::ast::Expr;
use crate::parser::{parse, ParseError};
use crate::value::Value;
use std::fmt;

/// A failure while parsing an ad, with the offending attribute when known.
#[derive(Debug, Clone, PartialEq)]
pub struct AdParseError {
    /// Attribute being parsed (empty for structural errors).
    pub attribute: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AdParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.attribute.is_empty() {
            write!(f, "ad parse error: {}", self.message)
        } else {
            write!(
                f,
                "ad parse error at attribute {:?}: {}",
                self.attribute, self.message
            )
        }
    }
}

impl std::error::Error for AdParseError {}

fn structural(message: impl Into<String>) -> AdParseError {
    AdParseError {
        attribute: String::new(),
        message: message.into(),
    }
}

/// Parse one complete ad from its bracketed text form.
pub fn parse_ad(input: &str) -> Result<ClassAd, AdParseError> {
    let trimmed = input.trim();
    let body = trimmed
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| structural("an ad must be enclosed in [ ... ]"))?;

    let mut ad = ClassAd::new();
    for raw in split_statements(body) {
        let stmt = raw.trim();
        if stmt.is_empty() {
            continue;
        }
        let (name, rhs) = split_assignment(stmt).ok_or_else(|| AdParseError {
            attribute: stmt.chars().take(24).collect(),
            message: "expected `name = expression`".into(),
        })?;
        if !is_attr_name(name) {
            return Err(AdParseError {
                attribute: name.into(),
                message: "invalid attribute name".into(),
            });
        }
        let expr = parse(rhs).map_err(|e: ParseError| AdParseError {
            attribute: name.into(),
            message: e.to_string(),
        })?;
        match expr {
            // Literal right-hand sides become plain values.
            Expr::Lit(v) => ad.insert(name, v),
            Expr::Unary(crate::ast::UnOp::Neg, inner) => match *inner {
                Expr::Lit(Value::Int(i)) => ad.insert(name, Value::Int(-i)),
                Expr::Lit(Value::Float(x)) => ad.insert(name, Value::Float(-x)),
                _ => {
                    ad.insert_expr(name, rhs).map_err(|e| AdParseError {
                        attribute: name.into(),
                        message: e.to_string(),
                    })?;
                }
            },
            _ => {
                ad.insert_expr(name, rhs).map_err(|e| AdParseError {
                    attribute: name.into(),
                    message: e.to_string(),
                })?;
            }
        }
    }
    Ok(ad)
}

/// Split the ad body on `;` separators, respecting string literals (a `;`
/// inside quotes does not separate statements).
fn split_statements(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in body.chars() {
        match c {
            '"' if !escaped => {
                in_string = !in_string;
                current.push(c);
            }
            '\\' if in_string && !escaped => {
                escaped = true;
                current.push(c);
                continue;
            }
            ';' if !in_string => {
                out.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
        escaped = false;
    }
    if !current.trim().is_empty() {
        out.push(current);
    }
    out
}

/// Split `name = rhs` on the first top-level `=` that is not part of
/// `==`, `=?=`, `=!=`, `<=`, `>=` or `!=`.
fn split_assignment(stmt: &str) -> Option<(&str, &str)> {
    let bytes = stmt.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'=' {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| bytes[j]);
        let next = bytes.get(i + 1);
        let part_of_operator = matches!(prev, Some(b'<') | Some(b'>') | Some(b'!') | Some(b'='))
            || matches!(next, Some(b'=') | Some(b'?') | Some(b'!'));
        if part_of_operator {
            continue;
        }
        let name = stmt[..i].trim();
        let rhs = stmt[i + 1..].trim();
        if name.is_empty() || rhs.is_empty() {
            return None;
        }
        return Some((name, rhs));
    }
    None
}

fn is_attr_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    const MACHINE: &str = r#"[
        Name = "slot1@node3";
        Machine = "node3";
        PhiDevices = 1;
        PhiFreeMemory = 7680;
        LoadAvg = 0.25;
        Healthy = true;
        Requirements = TARGET.RequestPhiMemory <= MY.PhiFreeMemory;
        Rank = 10 - TARGET.RequestPhiThreads / 24;
    ]"#;

    #[test]
    fn parses_a_machine_ad() {
        let ad = parse_ad(MACHINE).unwrap();
        assert_eq!(ad.get("Name"), Some(&Value::Str("slot1@node3".into())));
        assert_eq!(ad.get("PhiDevices"), Some(&Value::Int(1)));
        assert_eq!(ad.get("LoadAvg"), Some(&Value::Float(0.25)));
        assert_eq!(ad.get("Healthy"), Some(&Value::Bool(true)));
        assert!(ad.get_expr("Requirements").is_some());
        assert!(ad.get_expr("Rank").is_some());
    }

    #[test]
    fn parsed_ads_do_matchmaking() {
        let machine = parse_ad(MACHINE).unwrap();
        let job = parse_ad(
            r#"[ RequestPhiMemory = 1024; RequestPhiThreads = 120;
                 Requirements = TARGET.PhiDevices >= 1; ]"#,
        )
        .unwrap();
        assert!(machine.matches(&job));
        let greedy = parse_ad(r#"[ RequestPhiMemory = 99999; ]"#).unwrap();
        assert!(!machine.requirements_satisfied(&greedy));
        // Rank evaluates against the parsed job.
        let rank = machine.parsed_expr("Rank").unwrap();
        let rank = crate::eval(rank, &machine, Some(&job)).as_f64().unwrap();
        assert!((rank - 5.0).abs() < 1e-9);
    }

    #[test]
    fn display_round_trips() {
        let ad = parse_ad(MACHINE).unwrap();
        let again = parse_ad(&ad.to_string()).unwrap();
        assert_eq!(ad, again);
    }

    #[test]
    fn negative_literals_are_values() {
        let ad = parse_ad("[ x = -3; y = -2.5; ]").unwrap();
        assert_eq!(ad.get("x"), Some(&Value::Int(-3)));
        assert_eq!(ad.get("y"), Some(&Value::Float(-2.5)));
    }

    #[test]
    fn semicolons_inside_strings_do_not_split() {
        let ad = parse_ad(r#"[ note = "a;b;c"; n = 1; ]"#).unwrap();
        assert_eq!(ad.get("note"), Some(&Value::Str("a;b;c".into())));
        assert_eq!(ad.get("n"), Some(&Value::Int(1)));
    }

    #[test]
    fn comparison_operators_are_not_assignments() {
        let ad = parse_ad("[ ok = a <= b; strict = x =?= UNDEFINED; ne = p != q; ]").unwrap();
        assert!(ad.get_expr("ok").is_some());
        assert!(ad.get_expr("strict").is_some());
        assert!(ad.get_expr("ne").is_some());
    }

    #[test]
    fn structural_errors_are_reported() {
        assert!(parse_ad("no brackets").is_err());
        let e = parse_ad("[ 9bad = 1; ]").unwrap_err();
        assert_eq!(e.attribute, "9bad");
        let e = parse_ad("[ x = ; ]").unwrap_err();
        assert!(e.message.contains("name = expression"));
        let e = parse_ad("[ x = 1 + ; ]").unwrap_err();
        assert_eq!(e.attribute, "x");
    }

    #[test]
    fn empty_ad_is_fine() {
        let ad = parse_ad("[ ]").unwrap();
        assert_eq!(ad.len(), 0);
        let ad = parse_ad("[]").unwrap();
        assert_eq!(ad.len(), 0);
    }
}

//! Builtin functions of the ClassAd language.
//!
//! The subset HTCondor submit files commonly use. All functions are total:
//! wrong arity or argument types yield `UNDEFINED`, never an error — ads are
//! untrusted input to the negotiator.

use crate::value::Value;

/// Evaluate builtin `name` (case-insensitive) over already-evaluated
/// arguments. Unknown names yield `UNDEFINED`.
pub(crate) fn call(name: &str, args: &[Value]) -> Value {
    match name.to_ascii_lowercase().as_str() {
        "isundefined" => match args {
            [v] => Value::Bool(v.is_undefined()),
            _ => Value::Undefined,
        },
        "ifthenelse" => match args {
            [c, t, e] => match c {
                Value::Bool(true) => t.clone(),
                Value::Bool(false) => e.clone(),
                _ => Value::Undefined,
            },
            _ => Value::Undefined,
        },
        "min" => fold_numeric(args, f64::min),
        "max" => fold_numeric(args, f64::max),
        "floor" => map_numeric(args, f64::floor).map_int(),
        "ceiling" => map_numeric(args, f64::ceil).map_int(),
        "round" => map_numeric(args, f64::round).map_int(),
        "abs" => match args {
            [Value::Int(i)] => Value::Int(i.abs()),
            [v] => match v.as_f64() {
                Some(x) => Value::Float(x.abs()),
                None => Value::Undefined,
            },
            _ => Value::Undefined,
        },
        "int" => match args {
            [Value::Int(i)] => Value::Int(*i),
            [Value::Float(x)] => Value::Int(*x as i64),
            [Value::Str(s)] => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Undefined),
            [Value::Bool(b)] => Value::Int(*b as i64),
            _ => Value::Undefined,
        },
        "real" => match args {
            [v] => v.as_f64().map(Value::Float).unwrap_or(Value::Undefined),
            _ => Value::Undefined,
        },
        "strcat" => {
            let mut out = String::new();
            for a in args {
                match a {
                    Value::Str(s) => out.push_str(s),
                    Value::Int(i) => out.push_str(&i.to_string()),
                    Value::Float(x) => out.push_str(&x.to_string()),
                    Value::Bool(b) => out.push_str(&b.to_string()),
                    Value::Undefined => return Value::Undefined,
                }
            }
            Value::Str(out)
        }
        "tolower" => map_str(args, |s| s.to_ascii_lowercase()),
        "toupper" => map_str(args, |s| s.to_ascii_uppercase()),
        "size" => match args {
            [Value::Str(s)] => Value::Int(s.len() as i64),
            _ => Value::Undefined,
        },
        "pow" => match args {
            [a, b] => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Float(x.powf(y)),
                _ => Value::Undefined,
            },
            _ => Value::Undefined,
        },
        _ => Value::Undefined,
    }
}

/// Numeric fold over ≥1 arguments; integral result stays integral.
fn fold_numeric(args: &[Value], f: fn(f64, f64) -> f64) -> Value {
    if args.is_empty() {
        return Value::Undefined;
    }
    let all_int = args.iter().all(|v| matches!(v, Value::Int(_)));
    let mut acc: Option<f64> = None;
    for v in args {
        let x = match v.as_f64() {
            Some(x) => x,
            None => return Value::Undefined,
        };
        acc = Some(match acc {
            None => x,
            Some(a) => f(a, x),
        });
    }
    let result = acc.expect("non-empty args");
    if all_int {
        Value::Int(result as i64)
    } else {
        Value::Float(result)
    }
}

struct Mapped(Value);

impl Mapped {
    /// Collapse a float result that is integral into an `Int` (HTCondor's
    /// floor/ceiling/round return integers).
    fn map_int(self) -> Value {
        match self.0 {
            Value::Float(x) => Value::Int(x as i64),
            other => other,
        }
    }
}

fn map_numeric(args: &[Value], f: fn(f64) -> f64) -> Mapped {
    Mapped(match args {
        [v] => match v.as_f64() {
            Some(x) => Value::Float(f(x)),
            None => Value::Undefined,
        },
        _ => Value::Undefined,
    })
}

fn map_str(args: &[Value], f: impl Fn(&str) -> String) -> Value {
    match args {
        [Value::Str(s)] => Value::Str(f(s)),
        _ => Value::Undefined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(x: i64) -> Value {
        Value::Int(x)
    }
    fn f(x: f64) -> Value {
        Value::Float(x)
    }
    fn s(x: &str) -> Value {
        Value::Str(x.into())
    }

    #[test]
    fn min_max_preserve_integrality() {
        assert_eq!(call("min", &[i(3), i(7)]), i(3));
        assert_eq!(call("MAX", &[i(3), i(7)]), i(7)); // case-insensitive
        assert_eq!(call("min", &[i(3), f(2.5)]), f(2.5));
        assert_eq!(call("max", &[i(1), i(2), i(3)]), i(3)); // variadic
        assert_eq!(call("min", &[]), Value::Undefined);
        assert_eq!(call("min", &[s("x")]), Value::Undefined);
    }

    #[test]
    fn rounding_family() {
        assert_eq!(call("floor", &[f(2.9)]), i(2));
        assert_eq!(call("ceiling", &[f(2.1)]), i(3));
        assert_eq!(call("round", &[f(2.5)]), i(3));
        assert_eq!(call("abs", &[i(-4)]), i(4));
        assert_eq!(call("abs", &[f(-4.5)]), f(4.5));
    }

    #[test]
    fn conversions() {
        assert_eq!(call("int", &[f(3.9)]), i(3));
        assert_eq!(call("int", &[s(" 42 ")]), i(42));
        assert_eq!(call("int", &[s("nope")]), Value::Undefined);
        assert_eq!(call("int", &[Value::Bool(true)]), i(1));
        assert_eq!(call("real", &[i(2)]), f(2.0));
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            call("strcat", &[s("slot"), i(1), s("@node"), i(3)]),
            s("slot1@node3")
        );
        assert_eq!(
            call("strcat", &[s("a"), Value::Undefined]),
            Value::Undefined
        );
        assert_eq!(call("toLower", &[s("ABC")]), s("abc"));
        assert_eq!(call("toUpper", &[s("abc")]), s("ABC"));
        assert_eq!(call("size", &[s("hello")]), i(5));
    }

    #[test]
    fn conditionals_and_predicates() {
        assert_eq!(call("isUndefined", &[Value::Undefined]), Value::Bool(true));
        assert_eq!(call("isUndefined", &[i(0)]), Value::Bool(false));
        assert_eq!(call("ifThenElse", &[Value::Bool(true), i(1), i(2)]), i(1));
        assert_eq!(call("ifThenElse", &[Value::Bool(false), i(1), i(2)]), i(2));
        assert_eq!(
            call("ifThenElse", &[Value::Undefined, i(1), i(2)]),
            Value::Undefined
        );
    }

    #[test]
    fn unknown_functions_are_undefined() {
        assert_eq!(call("noSuchFn", &[i(1)]), Value::Undefined);
        assert_eq!(call("pow", &[i(2), i(10)]), f(1024.0));
    }
}

//! Compiled `Requirements`: the matchmaking fast path.
//!
//! A job's `Requirements` expression is fixed between qedits, while the
//! negotiator evaluates it against every candidate slot every cycle. This
//! module performs that per-job work **once**:
//!
//! 1. **Constant folding** — `MY.attr` references (and bare attributes the
//!    job ad defines) are substituted with their values, and any subtree
//!    left without TARGET references is folded to a literal.
//! 2. **Conjunction splitting** — the folded expression's top-level `&&`
//!    chain is split into clauses. Under ClassAd three-valued logic a
//!    conjunction evaluates to `true` iff every conjunct does, so clause
//!    outcomes compose exactly.
//! 3. **Guard extraction** — clauses of the shape `TARGET.attr <cmp> number`
//!    become [`Guard`]s and `TARGET.attr == "string"` become `PinEq`s:
//!    compact predicates a negotiator can check against cached slot state
//!    (or use to pre-screen candidates via a collector index) without
//!    touching the evaluator. Everything else stays in a residual
//!    expression evaluated with the full AST walker.
//!
//! [`CompiledReq::matches_target`] is byte-for-byte equivalent to
//! `ClassAd::requirements_satisfied` — the property tests in
//! `tests/prop_compiled.rs` and the negotiator's differential suite hold the
//! two implementations to identical verdicts.

use crate::ad::{ClassAd, REQUIREMENTS};
use crate::ast::{BinOp, Expr, Scope};
use crate::eval::eval;
use crate::value::Value;

/// Comparison operator of a numeric [`Guard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A numeric necessary condition on the target: `TARGET.attr <op> bound`.
///
/// Semantics replicate the evaluator's comparison rules: a target whose
/// attribute is missing or non-numeric never satisfies the guard (the
/// comparison would evaluate to `UNDEFINED`).
#[derive(Debug, Clone, PartialEq)]
pub struct Guard {
    /// Target attribute name, lower-cased.
    pub attr: String,
    /// Comparison operator.
    pub op: GuardOp,
    /// Literal bound (integers widen to f64, matching the evaluator).
    pub bound: f64,
}

impl Guard {
    /// Does a target attribute value satisfy this guard?
    pub(crate) fn admits(&self, value: Option<&Value>) -> bool {
        match value.and_then(Value::as_f64) {
            None => false,
            Some(x) => match self.op {
                GuardOp::Lt => x < self.bound,
                GuardOp::Le => x <= self.bound,
                GuardOp::Gt => x > self.bound,
                GuardOp::Ge => x >= self.bound,
            },
        }
    }
}

/// A string equality pin on the target: `TARGET.attr == "value"`, compared
/// case-insensitively exactly like the evaluator's `==` on strings. This is
/// the shape `condor_qedit` pinning produces (`Name == "slot1@node3"`,
/// `Machine == "node3"`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PinEq {
    /// Target attribute name, lower-cased.
    pub attr: String,
    /// Required string value (original case; compared case-insensitively).
    pub value: String,
}

impl PinEq {
    /// Does a target attribute value satisfy this pin?
    pub(crate) fn admits(&self, value: Option<&Value>) -> bool {
        match value {
            Some(Value::Str(s)) => s.eq_ignore_ascii_case(&self.value),
            // Non-string targets make `==` against a string literal
            // UNDEFINED; missing attributes likewise.
            _ => false,
        }
    }
}

/// A job ad's `Requirements`, compiled for repeated evaluation.
///
/// The default value (no guards, no pins, no residual) accepts every
/// target — the semantics of an absent `Requirements` attribute.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompiledReq {
    never: bool,
    guards: Vec<Guard>,
    pins: Vec<PinEq>,
    residual: Option<Expr>,
}

impl CompiledReq {
    /// Compile `ad`'s `Requirements` against its own (MY-side) attributes.
    pub fn compile(ad: &ClassAd) -> Self {
        match ad.parsed_expr(REQUIREMENTS) {
            None => CompiledReq::default(),
            Some(expr) => Self::compile_expr(expr, ad),
        }
    }

    /// Compile an arbitrary requirements expression with `my` as the
    /// owning ad.
    pub(crate) fn compile_expr(expr: &Expr, my: &ClassAd) -> Self {
        let folded = fold(expr, my);
        let mut clauses = Vec::new();
        split_conjunction(folded, &mut clauses);

        let mut compiled = CompiledReq::default();
        let mut residual = Vec::new();
        for clause in clauses {
            match classify(clause) {
                Clause::AlwaysTrue => {}
                Clause::NeverTrue => compiled.never = true,
                Clause::Guard(g) => compiled.guards.push(g),
                Clause::Pin(p) => compiled.pins.push(p),
                Clause::Residual(e) => residual.push(e),
            }
        }
        if compiled.never {
            // One constant-false conjunct decides the whole conjunction.
            compiled.guards.clear();
            compiled.pins.clear();
            residual.clear();
        }
        compiled.residual = rebuild_conjunction(residual);
        compiled
    }

    /// True when the requirement can never match any target (folded to a
    /// constant that is not `true`).
    pub fn is_never(&self) -> bool {
        self.never
    }

    /// True when the whole requirement compiled into guards and pins — no
    /// residual AST walk is needed per candidate.
    pub fn fully_compiled(&self) -> bool {
        self.residual.is_none()
    }

    /// The extracted numeric guards.
    pub fn guards(&self) -> &[Guard] {
        &self.guards
    }

    /// A hash of the guards and pins (bounds by bit pattern), or `None`
    /// when a residual expression remains. Two requirements with equal
    /// keys are candidates for one matchmaking class; callers confirm with
    /// `==`, so a hash collision costs only the sharing, never exactness.
    pub fn class_key(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        if self.residual.is_some() {
            return None;
        }
        let mut h = std::hash::DefaultHasher::new();
        (self.never, self.guards.len()).hash(&mut h);
        for g in &self.guards {
            (&g.attr, g.op as u8, g.bound.to_bits()).hash(&mut h);
        }
        for p in &self.pins {
            (&p.attr, &p.value).hash(&mut h);
        }
        Some(h.finish())
    }

    /// The pinned value for `attr` (case-insensitive), if this requirement
    /// pins it.
    pub fn pin(&self, attr: &str) -> Option<&str> {
        self.pins
            .iter()
            .find(|p| p.attr.eq_ignore_ascii_case(attr))
            .map(|p| p.value.as_str())
    }

    /// The strongest lower bound the guards place on a numeric target
    /// attribute: any admitted target must have `attr` numeric and
    /// `>= bound`. (A `>` guard is weakened to `>=`; callers re-check
    /// exactly via [`CompiledReq::matches_target`].)
    pub fn lower_bound(&self, attr: &str) -> Option<f64> {
        self.guards
            .iter()
            .filter(|g| {
                matches!(g.op, GuardOp::Ge | GuardOp::Gt) && g.attr.eq_ignore_ascii_case(attr)
            })
            .map(|g| g.bound)
            .fold(None, |acc, b| {
                Some(match acc {
                    None => b,
                    Some(a) if b > a => b,
                    Some(a) => a,
                })
            })
    }

    /// Evaluate the compiled requirement against a candidate target.
    /// Equivalent to `my.requirements_satisfied(target)`.
    pub fn matches_target(&self, my: &ClassAd, target: &ClassAd) -> bool {
        if self.never {
            return false;
        }
        for g in &self.guards {
            if !g.admits(target.get(&g.attr)) {
                return false;
            }
        }
        for p in &self.pins {
            if !p.admits(target.get(&p.attr)) {
                return false;
            }
        }
        match &self.residual {
            None => true,
            Some(e) => eval(e, my, Some(target)).is_true(),
        }
    }
}

/// Substitute MY-resolvable attributes and fold constant subtrees.
///
/// Bare attributes resolve MY-first-then-TARGET, so a bare attribute the
/// job ad defines becomes its literal value, and one it does not define is
/// rewritten to an explicit `TARGET.` reference (the MY lookup would miss
/// for every candidate alike).
fn fold(expr: &Expr, my: &ClassAd) -> Expr {
    let rebuilt = match expr {
        Expr::Lit(v) => return Expr::Lit(v.clone()),
        Expr::Attr(name) => {
            return match my.get(name) {
                Some(v) => Expr::Lit(v.clone()),
                None => Expr::ScopedAttr(Scope::Target, name.clone()),
            }
        }
        Expr::ScopedAttr(Scope::My, name) => {
            return Expr::Lit(my.get(name).cloned().unwrap_or(Value::Undefined))
        }
        Expr::ScopedAttr(Scope::Target, _) => return expr.clone(),
        Expr::Unary(op, e) => Expr::Unary(*op, Box::new(fold(e, my))),
        Expr::Binary(op, l, r) => Expr::Binary(*op, Box::new(fold(l, my)), Box::new(fold(r, my))),
        Expr::Ternary(c, t, e) => Expr::Ternary(
            Box::new(fold(c, my)),
            Box::new(fold(t, my)),
            Box::new(fold(e, my)),
        ),
        Expr::Call(name, args) => {
            Expr::Call(name.clone(), args.iter().map(|a| fold(a, my)).collect())
        }
    };
    if is_constant(&rebuilt) {
        // Evaluation is compositional, so replacing a TARGET-free subtree
        // with its value is exact (builtins are pure; the empty MY ad is
        // never consulted because no attribute references remain).
        Expr::Lit(eval(&rebuilt, &EMPTY_AD, None))
    } else {
        rebuilt
    }
}

// Shared empty ad for constant evaluation during folding.
static EMPTY_AD: std::sync::LazyLock<ClassAd> = std::sync::LazyLock::new(ClassAd::new);

/// True when the expression contains no attribute references at all.
fn is_constant(expr: &Expr) -> bool {
    match expr {
        Expr::Lit(_) => true,
        Expr::Attr(_) | Expr::ScopedAttr(..) => false,
        Expr::Unary(_, e) => is_constant(e),
        Expr::Binary(_, l, r) => is_constant(l) && is_constant(r),
        Expr::Ternary(c, t, e) => is_constant(c) && is_constant(t) && is_constant(e),
        Expr::Call(_, args) => args.iter().all(is_constant),
    }
}

/// Flatten a top-level `&&` chain. Sound because the conjunction is
/// `Bool(true)` exactly when every conjunct is (`UNDEFINED && false` is
/// `false`, which is equally "not true" for match purposes).
fn split_conjunction(expr: Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary(BinOp::And, l, r) => {
            split_conjunction(*l, out);
            split_conjunction(*r, out);
        }
        other => out.push(other),
    }
}

enum Clause {
    AlwaysTrue,
    NeverTrue,
    Guard(Guard),
    Pin(PinEq),
    Residual(Expr),
}

fn classify(clause: Expr) -> Clause {
    match clause {
        Expr::Lit(Value::Bool(true)) => Clause::AlwaysTrue,
        // Any other literal conjunct (false, UNDEFINED, a number, a string)
        // is never `true`, so the conjunction can never match.
        Expr::Lit(_) => Clause::NeverTrue,
        Expr::Binary(op, l, r) => match (op, *l, *r) {
            (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, a, b) => {
                match numeric_guard(op, a, b) {
                    Ok(g) => Clause::Guard(g),
                    Err((a, b)) => Clause::Residual(Expr::Binary(op, Box::new(a), Box::new(b))),
                }
            }
            (BinOp::Eq, Expr::ScopedAttr(Scope::Target, attr), Expr::Lit(Value::Str(s)))
            | (BinOp::Eq, Expr::Lit(Value::Str(s)), Expr::ScopedAttr(Scope::Target, attr)) => {
                Clause::Pin(PinEq {
                    attr: attr.to_ascii_lowercase(),
                    value: s,
                })
            }
            (op, a, b) => Clause::Residual(Expr::Binary(op, Box::new(a), Box::new(b))),
        },
        other => Clause::Residual(other),
    }
}

/// Try to read `TARGET.attr <op> number` (either operand order) as a guard.
fn numeric_guard(op: BinOp, l: Expr, r: Expr) -> Result<Guard, (Expr, Expr)> {
    let guard_op = |attr_on_left: bool| match (op, attr_on_left) {
        (BinOp::Lt, true) | (BinOp::Gt, false) => GuardOp::Lt,
        (BinOp::Le, true) | (BinOp::Ge, false) => GuardOp::Le,
        (BinOp::Gt, true) | (BinOp::Lt, false) => GuardOp::Gt,
        (BinOp::Ge, true) | (BinOp::Le, false) => GuardOp::Ge,
        _ => unreachable!("caller filters comparison operators"),
    };
    match (l, r) {
        (Expr::ScopedAttr(Scope::Target, attr), Expr::Lit(v)) => match v.as_f64() {
            Some(bound) => Ok(Guard {
                attr: attr.to_ascii_lowercase(),
                op: guard_op(true),
                bound,
            }),
            None => Err((Expr::ScopedAttr(Scope::Target, attr), Expr::Lit(v))),
        },
        (Expr::Lit(v), Expr::ScopedAttr(Scope::Target, attr)) => match v.as_f64() {
            Some(bound) => Ok(Guard {
                attr: attr.to_ascii_lowercase(),
                op: guard_op(false),
                bound,
            }),
            None => Err((Expr::Lit(v), Expr::ScopedAttr(Scope::Target, attr))),
        },
        (l, r) => Err((l, r)),
    }
}

fn rebuild_conjunction(mut clauses: Vec<Expr>) -> Option<Expr> {
    let mut result = clauses.pop()?;
    // Rebuild right-associatively to preserve left-to-right clause order.
    while let Some(prev) = clauses.pop() {
        result = Expr::Binary(BinOp::And, Box::new(prev), Box::new(result));
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn job(mem: i64) -> ClassAd {
        let mut ad = ClassAd::new();
        ad.insert("RequestPhiMemory", mem);
        ad
    }

    fn compile(src: &str, my: &ClassAd) -> CompiledReq {
        CompiledReq::compile_expr(&parse(src).unwrap(), my)
    }

    fn machine(free: i64, devs_free: i64) -> ClassAd {
        let mut ad = ClassAd::new();
        ad.insert("Name", "slot1@node3");
        ad.insert("Machine", "node3");
        ad.insert("PhiDevices", 1u64);
        ad.insert("PhiFreeMemory", free);
        ad.insert("PhiDevicesFree", devs_free);
        ad
    }

    #[test]
    fn sharing_requirements_compile_to_pure_guards() {
        let my = job(1024);
        let req = compile(
            "TARGET.PhiDevices >= 1 && TARGET.PhiFreeMemory >= MY.RequestPhiMemory",
            &my,
        );
        assert!(req.fully_compiled());
        assert_eq!(req.guards().len(), 2);
        assert_eq!(req.lower_bound("PhiFreeMemory"), Some(1024.0));
        assert!(req.matches_target(&my, &machine(7680, 1)));
        assert!(!req.matches_target(&my, &machine(512, 1)));
    }

    #[test]
    fn bare_attributes_fold_against_my_then_rewrite_to_target() {
        let my = job(1024);
        // `RequestPhiMemory` is MY-side; `PhiFreeMemory` falls through to
        // TARGET because the job ad does not define it.
        let req = compile("PhiFreeMemory >= RequestPhiMemory", &my);
        assert!(req.fully_compiled());
        assert_eq!(req.lower_bound("phifreememory"), Some(1024.0));
    }

    #[test]
    fn name_pin_compiles_to_string_pin() {
        let my = job(1024);
        let req = compile("TARGET.Name == \"slot1@node3\"", &my);
        assert!(req.fully_compiled());
        assert_eq!(req.pin("Name"), Some("slot1@node3"));
        assert!(req.matches_target(&my, &machine(0, 0)));
        let mut other = machine(7680, 1);
        other.insert("Name", "slot1@node4");
        assert!(!req.matches_target(&my, &other));
    }

    #[test]
    fn string_pins_are_case_insensitive_like_eval() {
        let my = ClassAd::new();
        let req = compile("TARGET.Name == \"SLOT1@NODE3\"", &my);
        assert!(req.matches_target(&my, &machine(0, 0)));
    }

    #[test]
    fn constant_false_requirements_never_match() {
        let my = job(1024);
        for src in ["false", "1 == 2", "MY.RequestPhiMemory > 9000", "5"] {
            let req = compile(src, &my);
            assert!(req.is_never(), "{src} should fold to never");
            assert!(!req.matches_target(&my, &machine(7680, 1)));
        }
    }

    #[test]
    fn constant_true_requirements_always_match() {
        let my = job(1024);
        for src in ["true", "1 < 2", "MY.RequestPhiMemory <= 7680"] {
            let req = compile(src, &my);
            assert!(req.fully_compiled());
            assert!(req.guards().is_empty() && req.pins.is_empty());
            assert!(req.matches_target(&my, &ClassAd::new()), "{src}");
        }
    }

    #[test]
    fn disjunctions_stay_residual_but_evaluate_identically() {
        let my = job(1024);
        let src = "TARGET.PhiFreeMemory >= MY.RequestPhiMemory || TARGET.PhiDevicesFree >= 1";
        let req = compile(src, &my);
        assert!(!req.fully_compiled());
        for target in [machine(7680, 0), machine(0, 1), machine(0, 0)] {
            let mut naive = job(1024);
            naive.insert_expr(REQUIREMENTS, src).unwrap();
            assert_eq!(
                req.matches_target(&my, &target),
                naive.requirements_satisfied(&target)
            );
        }
    }

    #[test]
    fn guards_reject_missing_and_non_numeric_attributes() {
        let my = ClassAd::new();
        let req = compile("TARGET.PhiFreeMemory >= 100", &my);
        assert!(!req.matches_target(&my, &ClassAd::new())); // missing
        let mut s = ClassAd::new();
        s.insert("PhiFreeMemory", "lots");
        assert!(!req.matches_target(&my, &s)); // non-numeric
    }

    #[test]
    fn reversed_operand_guards_flip_the_operator() {
        let my = ClassAd::new();
        let req = compile("100 <= TARGET.PhiFreeMemory", &my);
        assert_eq!(req.lower_bound("phifreememory"), Some(100.0));
        assert!(req.matches_target(&my, &machine(100, 0)));
        assert!(!req.matches_target(&my, &machine(99, 0)));
    }

    #[test]
    fn mixed_conjunctions_split_guard_pin_and_residual() {
        let mut my = ClassAd::new();
        my.insert("RequestPhiMemory", 500u64);
        let req = compile(
            "TARGET.Machine == \"node2\" && TARGET.PhiFreeMemory >= MY.RequestPhiMemory \
             && isUndefined(TARGET.Offline)",
            &my,
        );
        assert_eq!(req.pin("machine"), Some("node2"));
        assert_eq!(req.lower_bound("phifreememory"), Some(500.0));
        assert!(!req.fully_compiled()); // the isUndefined call stays residual
        let mut target = machine(7680, 1);
        target.insert("Machine", "node2");
        assert!(req.matches_target(&my, &target));
        target.insert("Offline", true);
        assert!(!req.matches_target(&my, &target));
    }

    #[test]
    fn compile_of_ad_without_requirements_accepts_everything() {
        let req = CompiledReq::compile(&ClassAd::new());
        assert!(req.matches_target(&ClassAd::new(), &machine(0, 0)));
        assert!(req.fully_compiled());
    }

    #[test]
    fn class_keys_follow_the_folded_requirement() {
        let src = "TARGET.PhiFreeMemory >= MY.RequestPhiMemory";
        let key = |src: &str, mem: i64| compile(src, &job(mem)).class_key();
        // The MY-side request folds into the bound, so it is part of the key.
        assert_eq!(key(src, 1024), key("TARGET.PhiFreeMemory >= 1024", 0));
        assert_ne!(key(src, 1024), key(src, 2048));
        assert_ne!(key(src, 1024), key("TARGET.PhiFreeMemory > 1024", 0));
        assert_ne!(
            key("TARGET.Name == \"slot1@node1\"", 0),
            key("TARGET.Name == \"slot1@node2\"", 0)
        );
        assert_eq!(key("false", 0), key("1 == 2", 0));
        // A residual expression never gets a key.
        assert_eq!(key("TARGET.PhiFreeMemory >= 1 || false", 0), None);
    }

    #[test]
    fn folding_respects_undefined_my_attributes() {
        // MY.Missing is UNDEFINED for every target: the comparison folds to
        // UNDEFINED and the requirement to "never".
        let req = compile("MY.Missing >= 5", &ClassAd::new());
        assert!(req.is_never());
    }
}

//! The ClassAd itself: a case-insensitive attribute map with matchmaking.

use crate::ast::Expr;
use crate::eval::eval;
use crate::parser::{parse, ParseError};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Attribute name of the match predicate.
pub const REQUIREMENTS: &str = "Requirements";
/// Attribute name of the preference (ranking) expression.
pub const RANK: &str = "Rank";

/// An expression attribute: the submit-file source text plus its AST,
/// parsed exactly once at insertion. Negotiation touches every (job, slot)
/// pair each cycle, so re-parsing per evaluation (the original design) was
/// the dominant matchmaking cost.
#[derive(Debug, Clone, PartialEq)]
struct CachedExpr {
    src: String,
    parsed: Expr,
}

/// A classified advertisement: an attribute → value map (attribute names are
/// case-insensitive), where `Requirements` and `Rank` hold *expressions*
/// parsed at insertion time and evaluated lazily against a TARGET.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassAd {
    attrs: BTreeMap<String, Value>,
    /// Expression attributes (`Requirements`, `Rank`), kept separate
    /// because they evaluate lazily against a TARGET.
    exprs: BTreeMap<String, CachedExpr>,
}

/// Canonical (lower-cased) lookup into a keys-are-lowercase map without
/// allocating when the caller's name is already lower-case — the common case
/// on the negotiation hot path, where compiled guards and the collector's
/// attribute handles store canonical names.
fn canonical_get<'a, V>(map: &'a BTreeMap<String, V>, name: &str) -> Option<&'a V> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        map.get(&name.to_ascii_lowercase())
    } else {
        map.get(name)
    }
}

impl ClassAd {
    /// Create an empty ad.
    pub fn new() -> Self {
        ClassAd::default()
    }

    /// Insert (or replace) an attribute value. Replacing through an
    /// already-lower-case name (the hot-path handles) reuses the stored key
    /// instead of allocating a new one.
    pub fn insert(&mut self, name: &str, value: impl Into<Value>) {
        let value = value.into();
        if !name.bytes().any(|b| b.is_ascii_uppercase()) {
            if let Some(slot) = self.attrs.get_mut(name) {
                *slot = value;
                return;
            }
            self.attrs.insert(name.to_string(), value);
        } else {
            self.attrs.insert(name.to_ascii_lowercase(), value);
        }
    }

    /// Insert (or replace) an expression attribute such as `Requirements`.
    /// The expression is parsed now, so malformed submit files fail fast and
    /// later evaluations reuse the AST instead of re-parsing.
    pub fn insert_expr(&mut self, name: &str, expr: &str) -> Result<(), ParseError> {
        let parsed = parse(expr)?;
        self.exprs.insert(
            name.to_ascii_lowercase(),
            CachedExpr {
                src: expr.to_string(),
                parsed,
            },
        );
        Ok(())
    }

    /// Look up a value attribute (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&Value> {
        canonical_get(&self.attrs, name)
    }

    /// Look up an expression attribute's source text.
    pub fn get_expr(&self, name: &str) -> Option<&str> {
        canonical_get(&self.exprs, name).map(|e| e.src.as_str())
    }

    /// Look up an expression attribute's parsed AST (no re-parse).
    pub fn parsed_expr(&self, name: &str) -> Option<&Expr> {
        canonical_get(&self.exprs, name).map(|e| &e.parsed)
    }

    /// Number of attributes (values + expressions).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.attrs.len() + self.exprs.len()
    }

    /// Evaluate this ad's `Requirements` against `target`. An absent
    /// `Requirements` accepts everything (HTCondor defaults it to true).
    pub fn requirements_satisfied(&self, target: &ClassAd) -> bool {
        match self.parsed_expr(REQUIREMENTS) {
            None => true,
            Some(e) => eval(e, self, Some(target)).is_true(),
        }
    }

    /// Two-sided matchmaking: both ads' `Requirements` must accept the other
    /// (paper §II-D: jobs state requirements about machines *and* machines
    /// about jobs).
    pub fn matches(&self, other: &ClassAd) -> bool {
        self.requirements_satisfied(other) && other.requirements_satisfied(self)
    }
}

// Serialization keeps the original wire shape — expressions as their source
// strings — so the parse cache stays an internal detail. Deserialization
// re-validates each expression, exactly like `insert_expr`.
impl Serialize for ClassAd {
    fn serialize(&self, w: &mut serde::Writer) {
        w.begin_object();
        w.field("attrs", &self.attrs);
        w.key("exprs");
        w.begin_object();
        for (k, e) in &self.exprs {
            w.field(k, &e.src);
        }
        w.end_object();
        w.end_object();
    }
}

impl Deserialize for ClassAd {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let mut attrs = None;
        let mut sources = None;
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "attrs" => r.field(&mut attrs, "attrs", "ClassAd")?,
                "exprs" => r.field(&mut sources, "exprs", "ClassAd")?,
                _ => r.skip()?,
            }
        }
        let attrs: BTreeMap<String, Value> =
            attrs.ok_or_else(|| serde::Error::missing_field("attrs", "ClassAd"))?;
        let sources: BTreeMap<String, String> =
            sources.ok_or_else(|| serde::Error::missing_field("exprs", "ClassAd"))?;
        let mut exprs = BTreeMap::new();
        for (k, src) in sources {
            let parsed = parse(&src)
                .map_err(|e| serde::Error::custom(format!("ClassAd expression `{k}`: {e}")))?;
            exprs.insert(k, CachedExpr { src, parsed });
        }
        Ok(ClassAd { attrs, exprs })
    }
}

impl fmt::Display for ClassAd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[")?;
        for (k, v) in &self.attrs {
            writeln!(f, "  {k} = {v};")?;
        }
        for (k, e) in &self.exprs {
            writeln!(f, "  {k} = {};", e.src)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> ClassAd {
        let mut ad = ClassAd::new();
        ad.insert("Name", "slot1@node1");
        ad.insert("PhiDevices", 1u64);
        ad.insert("PhiMemory", 7680u64);
        ad.insert_expr(REQUIREMENTS, "TARGET.RequestPhiMemory <= MY.PhiMemory")
            .unwrap();
        ad
    }

    fn job(mem: u64) -> ClassAd {
        let mut ad = ClassAd::new();
        ad.insert("RequestPhiMemory", mem);
        ad.insert_expr(REQUIREMENTS, "TARGET.PhiDevices >= 1")
            .unwrap();
        ad
    }

    #[test]
    fn attribute_names_are_case_insensitive() {
        let mut ad = ClassAd::new();
        ad.insert("PhiMemory", 100u64);
        assert_eq!(ad.get("phimemory"), Some(&Value::Int(100)));
        assert_eq!(ad.get("PHIMEMORY"), Some(&Value::Int(100)));
        ad.insert("PHIMEMORY", 200u64);
        assert_eq!(ad.len(), 1);
        assert_eq!(ad.get("PhiMemory"), Some(&Value::Int(200)));
    }

    #[test]
    fn lower_case_names_hit_the_no_alloc_path_with_identical_semantics() {
        let mut ad = ClassAd::new();
        ad.insert("phimemory", 100u64); // lower-case insert
        ad.insert("PhiMemory", 200u64); // mixed-case replace, same attribute
        assert_eq!(ad.len(), 1);
        assert_eq!(ad.get("phimemory"), Some(&Value::Int(200)));
        ad.insert("phimemory", 300u64); // lower-case replace reuses the key
        assert_eq!(ad.len(), 1);
        assert_eq!(ad.get("PHIMEMORY"), Some(&Value::Int(300)));
        ad.insert_expr("Rank", "TARGET.PhiMemory").unwrap();
        assert!(ad.parsed_expr("rank").is_some());
        assert_eq!(ad.get_expr("rank"), ad.get_expr("RANK"));
    }

    #[test]
    fn two_sided_matchmaking() {
        assert!(machine().matches(&job(1024)));
        assert!(!machine().matches(&job(80_000))); // machine rejects
        let mut philess = machine();
        philess.insert("PhiDevices", 0u64);
        assert!(!philess.matches(&job(1024))); // job rejects
    }

    #[test]
    fn missing_requirements_accepts_everything() {
        let ad = ClassAd::new();
        assert!(ad.requirements_satisfied(&ClassAd::new()));
    }

    #[test]
    fn undefined_requirements_do_not_match() {
        let mut ad = ClassAd::new();
        ad.insert_expr(REQUIREMENTS, "TARGET.NoSuchAttr >= 1")
            .unwrap();
        assert!(!ad.requirements_satisfied(&ClassAd::new()));
    }

    #[test]
    fn malformed_expressions_rejected_at_insert() {
        let mut ad = ClassAd::new();
        assert!(ad.insert_expr(REQUIREMENTS, "1 +").is_err());
        assert!(ad.get_expr(REQUIREMENTS).is_none());
    }

    #[test]
    fn display_contains_attributes() {
        let s = machine().to_string();
        assert!(s.contains("phimemory = 7680"));
        assert!(s.contains("requirements"));
    }

    #[test]
    fn expressions_are_parsed_once_and_reused() {
        let ad = machine();
        let first = ad.parsed_expr(REQUIREMENTS).unwrap() as *const Expr;
        let second = ad.parsed_expr("requirements").unwrap() as *const Expr;
        assert_eq!(first, second, "parsed AST is cached, not rebuilt");
        assert_eq!(
            ad.get_expr(REQUIREMENTS),
            Some("TARGET.RequestPhiMemory <= MY.PhiMemory")
        );
    }

    #[test]
    fn serde_round_trip_preserves_source_text() {
        let ad = machine();
        let json = serde_json::to_string(&ad).unwrap();
        assert!(json.contains("TARGET.RequestPhiMemory <= MY.PhiMemory"));
        assert!(
            !json.contains("parsed"),
            "AST cache must not leak into JSON"
        );
        let back: ClassAd = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ad);
        assert!(back.parsed_expr(REQUIREMENTS).is_some());
    }

    #[test]
    fn serde_rejects_malformed_expressions() {
        let bad = r#"{"attrs": {}, "exprs": {"requirements": "1 +"}}"#;
        assert!(serde_json::from_str::<ClassAd>(bad).is_err());
    }
}

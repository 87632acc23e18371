//! The result line every run prints last.

use serde_json::Value;
use std::collections::BTreeMap;

/// Metrics in print order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.0.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.0.push((name, value, unit));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }
}

/// What one run checked and measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (cells or negotiation cycles) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check, for stderr.
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Record one operation; `problems` empty means it passed.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// A check that is not tied to one operation; a failure marks the run
    /// incorrect without adding an operation.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.problems.is_empty()
    }

    /// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
    pub fn to_line(&self) -> String {
        let metrics = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                let mut m = BTreeMap::new();
                m.insert("value".to_string(), Value::Float(*value));
                m.insert("unit".to_string(), Value::Str(unit.to_string()));
                (name.to_string(), Value::Object(m))
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("correct".to_string(), Value::Bool(self.correct()));
        root.insert("attempted".to_string(), Value::UInt(self.attempted));
        root.insert("failed".to_string(), Value::UInt(self.failed));
        root.insert("metrics".to_string(), Value::Object(metrics));
        serde_json::to_string(&Value::Object(root)).expect("result line serializes")
    }
}

/// Peak resident set of this process (`VmHWM`), MiB. Worker processes
/// of a sharded sweep are not included.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.op(Vec::new());
        out.op(vec!["boom".into()]);
        out.metrics.put("setup_s", 0.5, "s");
        let v: Value = serde_json::from_str(&out.to_line()).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.5));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}

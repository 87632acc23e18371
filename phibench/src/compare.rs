//! `benchmark compare <parent.jsonl> <change.jsonl>`: the verdict rules of
//! the choosing-metrics guide applied to two sets of runs.
//!
//! Each input line is `{"workload": "<name>", "result": <result line>}`,
//! one per run, and the i-th runs of a workload in the two files form
//! pair i (the runs of a pair should alternate which side goes first).
//! Per (workload, metric) row:
//!
//! * **improved** — at least 10 pairs, the change better in at least 9 of
//!   every 10 pairs (ties count for neither side), and the medians differ
//!   by more than the parent's interquartile range;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's bound in `BENCHMARK.json`;
//! * **unresolved** — not regressed, but either side's spread (IQR over
//!   median) is wider than the bound, and not every change run beats every
//!   parent run;
//! * **unchanged** — none of the above (per-layer metrics have no bound,
//!   so they are only ever improved or unchanged);
//! * **too few pairs** — fewer than 10.

use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unresolved,
    Unchanged,
    TooFewPairs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
            Verdict::TooFewPairs => "too few pairs",
        }
    }
}

pub const MIN_PAIRS: usize = 10;

/// `a` is better than `b`.
fn beats(a: f64, b: f64, better: Better) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Judge one (workload, metric) row; `parent[i]` and `change[i]` are
/// pair i.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let n = parent.len().min(change.len());
    if n < MIN_PAIRS {
        return Verdict::TooFewPairs;
    }
    let (parent, change) = (&parent[..n], &change[..n]);
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| beats(**c, **p, better))
        .count();
    let (pm, cm) = (median(parent), median(change));
    let (pq1, pq3) = quartiles(parent).expect("at least ten runs");
    let (cq1, cq3) = quartiles(change).expect("at least ten runs");
    if wins * 10 >= 9 * n && beats(cm, pm, better) && (cm - pm).abs() > pq3 - pq1 {
        return Verdict::Improved;
    }
    let Some(bound) = bound else {
        return Verdict::Unchanged;
    };
    let worse = match better {
        Better::Lower => cm - pm,
        Better::Higher => pm - cm,
    };
    if worse > bound * pm.abs() {
        return Verdict::Regressed;
    }
    let spread = |q1: f64, q3: f64, m: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    let all_better = change
        .iter()
        .all(|c| parent.iter().all(|p| beats(*c, *p, better)));
    if (spread(pq1, pq3, pm) > bound || spread(cq1, cq3, cm) > bound) && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub better: Better,
    pub bound: Option<f64>,
}

/// Read the metric declarations (end-to-end first) from `BENCHMARK.json`.
pub fn declared(spec: &str) -> Result<Vec<Declared>, String> {
    let v: Value = serde_json::from_str(spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let list = v
            .get(section)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
        for m in list {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: bad `better` {other:?}")),
            };
            out.push(Declared {
                name: name.to_string(),
                better,
                bound: m.get("bound").and_then(Value::as_f64),
            });
        }
    }
    Ok(out)
}

/// Runs per workload, in file order: each run's metric values by name.
type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let v: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let metrics = v
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no result.metrics"))?;
        let values = metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.entry(workload.to_string()).or_default().push(values);
    }
    Ok(runs)
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q3)) => format!("{:.6} [{:.6}, {:.6}]", median(values), q1, q3),
        None => format!("{:.6}", median(values)),
    }
}

/// The compare report, one row per (workload, metric) both sides have.
pub fn main(args: &[String]) -> Result<String, String> {
    let [parent, change] = args else {
        return Err("usage: benchmark compare <parent.jsonl> <change.jsonl>".into());
    };
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let metrics = declared(&spec)?;
    let (parent, change) = (load(parent)?, load(change)?);
    let mut report = String::from(
        "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict\n",
    );
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            continue;
        };
        let n = p_runs.len().min(c_runs.len());
        for m in &metrics {
            let column = |runs: &[BTreeMap<String, f64>]| -> Option<Vec<f64>> {
                runs[..n].iter().map(|r| r.get(&m.name).copied()).collect()
            };
            let (Some(p), Some(c)) = (column(p_runs), column(c_runs)) else {
                continue;
            };
            let wins = p
                .iter()
                .zip(&c)
                .filter(|(p, c)| beats(**c, **p, m.better))
                .count();
            report.push_str(&format!(
                "{workload}\t{}\t{}\t{}\t{wins}/{n}\t{}\n",
                m.name,
                summary(&p),
                summary(&c),
                judge(&p, &c, m.better, m.bound).label()
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, wiggle: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + wiggle * f64::from(i % 5) - 2.0 * wiggle)
            .collect()
    }

    #[test]
    fn a_clear_consistent_gain_is_improved() {
        let parent = around(100.0, 0.5);
        let change = around(90.0, 0.5);
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.05)),
            Verdict::Improved
        );
        assert_eq!(
            judge(&change, &parent, Better::Higher, Some(0.05)),
            Verdict::Improved
        );
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten() {
        let parent = around(100.0, 0.5);
        let mut change = around(90.0, 0.5);
        change[0] = 200.0;
        change[1] = 200.0;
        assert_ne!(
            judge(&parent, &change, Better::Lower, Some(0.5)),
            Verdict::Improved
        );
        change[1] = 90.0;
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.5)),
            Verdict::Improved
        );
    }

    #[test]
    fn a_gain_smaller_than_the_parent_spread_is_not_claimed() {
        // Always 1 lower, but the parent's own IQR is 4.
        let parent = around(100.0, 2.0);
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.10)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_median_worse_than_the_bound_is_regressed() {
        let parent = around(100.0, 0.5);
        let change = around(106.0, 0.5);
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.05)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.10)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&parent, &change, Better::Higher, Some(0.05)),
            Verdict::Improved
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = around(100.0, 5.0);
        let change = around(101.0, 5.0);
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.05)),
            Verdict::Unresolved
        );
        // Without a bound (per-layer metrics) there is nothing to resolve.
        assert_eq!(
            judge(&parent, &change, Better::Lower, None),
            Verdict::Unchanged
        );
    }

    #[test]
    fn fewer_than_ten_pairs_decide_nothing() {
        let parent = vec![100.0; 9];
        let change = vec![50.0; 9];
        assert_eq!(
            judge(&parent, &change, Better::Lower, Some(0.05)),
            Verdict::TooFewPairs
        );
    }

    #[test]
    fn declarations_come_from_the_benchmark_file() {
        let spec = r#"{"end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1}],
                       "per_layer": [{"name": "b", "unit": "count", "better": "higher"}]}"#;
        let d = declared(spec).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!((d[0].better, d[0].bound), (Better::Lower, Some(0.1)));
        assert_eq!((d[1].better, d[1].bound), (Better::Higher, None));
    }
}

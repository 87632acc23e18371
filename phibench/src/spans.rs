//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded only in this benchmark's own code, around calls
//! into the layers' public APIs; nothing inside the simulator is
//! instrumented. A span has a name (`<layer>.<what>`), start and end
//! times relative to the recorder's creation, the span that was open when
//! it started (its parent), and the id of the operation (cell or cycle)
//! it belongs to. Spans stay in memory until [`Tracer::to_json`].

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Open spans nest: [`Tracer::enter`] makes the new span a child of the
/// innermost open one, and spans must be exited in reverse order.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time of the spans called `name`, milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns().get(name).map_or(0.0, |&ns| ns as f64 / 1e6)
    }

    /// Durations of every span called `name`, milliseconds, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time per span name, nanoseconds: each span's duration minus
    /// the part of it that its direct children cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, child_ns) in self.spans.iter().zip(covered) {
            *out.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(child_ns);
        }
        out
    }

    /// The span file: every span with its id, in recording order.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut o = BTreeMap::new();
                o.insert("id".to_string(), Value::UInt(id as u64));
                o.insert("name".to_string(), Value::Str(s.name.to_string()));
                o.insert("start_ns".to_string(), Value::UInt(s.start_ns));
                o.insert("end_ns".to_string(), Value::UInt(s.end_ns));
                o.insert(
                    "parent".to_string(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                );
                o.insert("op".to_string(), Value::UInt(s.op));
                Value::Object(o)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("workload".to_string(), Value::Str(workload.to_string()));
        root.insert("seed".to_string(), Value::UInt(seed));
        root.insert("spans".to_string(), Value::Array(spans));
        serde_json::to_string(&Value::Object(root)).expect("span file serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        // run [0, 100) ⊃ plan [10, 40) ⊃ dp [15, 25); run ⊃ audit [50, 70).
        t.spans = vec![
            span("runtime.run", 0, 100, None),
            span("core.plan", 10, 40, Some(0)),
            span("knapsack.dp", 15, 25, Some(1)),
            span("audit", 50, 70, Some(0)),
            span("runtime.run", 200, 230, None),
        ];
        let own = t.self_ns();
        assert_eq!(own["runtime.run"], (100 - 30 - 20) + 30);
        assert_eq!(own["core.plan"], 30 - 10);
        assert_eq!(own["knapsack.dp"], 10);
        assert_eq!(own["audit"], 20);
        // Self times partition the root spans' time exactly.
        let total: u64 = own.values().sum();
        assert_eq!(total, 100 + 30);
        assert_eq!(t.self_ms("runtime.run"), 80.0 / 1e6);
        assert_eq!(t.durations_ms("runtime.run"), [100.0 / 1e6, 30.0 / 1e6]);
        assert_eq!(t.self_ms("absent"), 0.0);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 1);
        let inner = t.span("inner", 1, t_spin);
        assert_eq!(inner, 7);
        t.exit(outer);
        let after = t.enter("after", 2);
        t.exit(after);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let json = t.to_json("w", 3);
        assert!(json.contains(r#""name":"inner""#), "{json}");
    }

    fn t_spin() -> u32 {
        std::hint::black_box(7)
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn exiting_out_of_order_panics() {
        let mut t = Tracer::new();
        let a = t.enter("a", 0);
        let _b = t.enter("b", 0);
        t.exit(a);
    }
}

//! # phishare-bench — experiment harnesses
//!
//! The paper's evaluation (§III, §V) and the ablations of the same shape
//! live in one [`registry`]: each artifact is a grid, a reducer, the paper's
//! expectation and its checks, run by `phishare-bench reproduce <name|all>`,
//! which prints the table, writes `target/experiments/<name>.json` and
//! regenerates the artifact's block of EXPERIMENTS.md.
//!
//! The bench targets that remain are the ones a table cannot express:
//!
//! | Target | Kind |
//! |---|---|
//! | `perf_negotiation`, `perf_negotiation_xl`, `perf_negotiation_xxl`, `perf_planning`, `perf_sim`, `perf_throughput`, `perf_scale` | regression gates: each asserts bit-identity against an oracle, then a speedup floor, through [`commit_gate`] |
//! | `perf_e2e` | regression gate: an absolute single-worker offloads/s floor, through [`commit_gate`] |
//! | `perf_knapsack` | best-of-N timing table of the knapsack solvers (§IV-C complexity claim) |

// `deny` rather than `forbid`: the opt-in `alloc_count` module needs one
// `unsafe impl GlobalAlloc` and locally allows it; everything else stays
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;

use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Seed used by every headline experiment (fixed for reproducibility; the
/// sensitivity of results to the seed is itself checked in `tests/`).
pub const EXPERIMENT_SEED: u64 = 7;

/// The paper's synthetic job count per distribution (§V-B).
pub const SYNTHETIC_JOBS: usize = 400;

/// Where experiment JSON lands (`target/experiments/`).
pub fn experiments_dir() -> PathBuf {
    // CARGO_TARGET_DIR is not set for bench binaries; derive from the exe
    // path (target/release/deps/<bench>) with a cwd fallback.
    let exe = std::env::current_exe().ok();
    let target = exe
        .as_deref()
        .and_then(|p| p.ancestors().find(|a| a.ends_with("target")))
        .map(|p| p.to_path_buf())
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("experiments")
}

/// Write an experiment's raw rows as pretty JSON to
/// `target/experiments/<name>.json`, returning the path.
pub fn save_json<T: Serialize>(name: &str, value: &T) -> Result<PathBuf, String> {
    let dir = experiments_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.json"));
    let json =
        serde_json::to_string_pretty(value).map_err(|e| format!("cannot serialize {name}: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// [`save_json`], warning instead of failing (the bench gates' policy).
pub fn persist_json<T: Serialize>(name: &str, value: &T) {
    match save_json(name, value) {
        Ok(path) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: {e}"),
    }
}

/// Best-of-`runs` wall time in milliseconds. Each run calls `setup`
/// untimed, then times `run` on what it returned; `run`'s output is
/// dropped after the clock stops, so a run can hand back state it does
/// not want its teardown timed for.
pub fn best_of_ms<S, R>(
    runs: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> R,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let input = setup();
        let start = Instant::now();
        let output = black_box(run(black_box(input)));
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        drop(output);
    }
    best
}

/// A gate result's headline metric as `(name, value, floor)`: its one
/// numeric `<name>_floor` field and the `<name>` field beside it —
/// `speedup` on the ratio gates, `offloads_per_s` on `perf_e2e`.
fn gate_metric(json: &serde_json::Value) -> Result<(String, f64, f64), String> {
    let fields = json.as_object().ok_or("not a JSON object")?;
    let mut floors = fields
        .iter()
        .filter_map(|(key, v)| Some((key.strip_suffix("_floor")?, v.as_f64()?)));
    let (name, floor) = floors.next().ok_or("no numeric `<metric>_floor`")?;
    if floors.next().is_some() {
        return Err("more than one `<metric>_floor`".into());
    }
    let value = json
        .get(name)
        .and_then(serde_json::Value::as_f64)
        .ok_or_else(|| format!("no numeric `{name}` beside `{name}_floor`"))?;
    Ok((name.to_string(), value, floor))
}

/// Commit a perf gate's result: write `target/experiments/BENCH_<name>.json`
/// and the repo-root `BENCH_<name>.json` (the copy committed alongside the
/// code it measures, which the floor lint reads), then fail the gate with
/// `regressed` if the result's metric is below its floor: its one
/// numeric `<metric>_floor` field against the `<metric>` field beside it.
pub fn commit_gate<T: Serialize>(name: &str, result: &T, regressed: &str) {
    let file = format!("BENCH_{name}");
    persist_json(&file, result);
    let pretty = serde_json::to_string_pretty(result)
        .unwrap_or_else(|e| panic!("cannot serialize {file}: {e}"));
    let path = format!("{}/../../{file}.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, format!("{pretty}\n")) {
        Ok(()) => println!("[saved {path}]"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
    let json: serde_json::Value = serde_json::from_str(&pretty).expect("serialized JSON parses");
    let (metric, value, floor) = gate_metric(&json).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert!(
        value >= floor,
        "{regressed}: {metric} {value:.2} < {floor:.2} floor"
    );
}

/// Standard banner for a bench harness.
pub fn banner(id: &str, paper_ref: &str, expectation: &str) {
    println!("=== {id} — reproduces {paper_ref} ===");
    println!("paper expectation: {expectation}");
    println!();
}

/// The configuration knobs a perf gate's *measured* side ran with,
/// committed alongside its timing numbers in `BENCH_*.json`. A speedup is
/// only meaningful relative to the configuration that produced it —
/// partition counts, thread fan-out, and quiescence skipping all move the
/// needle — so the floor lint requires this block on every gated JSON.
#[derive(Serialize, Clone, Debug)]
pub struct GateKnobs {
    /// Collector partitions on the measured path (1 = unpartitioned).
    pub partitions: usize,
    /// Worker/screen threads the measured harness used (1 = serial).
    pub threads: usize,
    /// Whether quiescent-cycle skipping was enabled on the measured path.
    pub skip_quiescent: bool,
    /// Matchmaking path of the measured side: "delta", "full", or "n/a"
    /// for gates that never negotiate.
    pub match_path: String,
}

impl GateKnobs {
    /// Knobs for a gate that does not exercise the negotiator at all
    /// (substrate, planner, and simulator gates): only the thread fan-out
    /// is meaningful.
    pub fn non_negotiation(threads: usize) -> GateKnobs {
        GateKnobs {
            partitions: 1,
            threads,
            skip_quiescent: false,
            match_path: "n/a".into(),
        }
    }
}

/// Opt-in heap-allocation counting (feature `alloc-count`).
///
/// Registers a [`std::alloc::System`]-backed `#[global_allocator]` that
/// counts every `alloc`/`realloc` call, so bench gates can report
/// allocations-per-offload. Feature-gated because the counter itself adds
/// an atomic increment to every allocation — timing gates run without it.
#[cfg(feature = "alloc-count")]
pub mod alloc_count {
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// [`System`] wrapper that counts allocation calls (not bytes).
    pub(crate) struct CountingAllocator;

    // SAFETY: every method defers directly to `System`; the wrapper only
    // adds a relaxed counter increment and changes no allocation behavior.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Total heap allocation calls since process start.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_dir_is_under_target() {
        let d = experiments_dir();
        assert!(d.ends_with("experiments"));
    }

    /// Committed bench results must clear their own floors. Every perf gate
    /// writes a `BENCH_*.json` copy at the repo root with a metric and its
    /// floor through [`commit_gate`]; a stale file whose
    /// numbers no longer clear the floor fails here without re-running the
    /// (slow) gate itself, and so does a gate whose file is missing.
    #[test]
    fn committed_bench_results_clear_their_floors() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for gate in [
            "negotiation",
            "negotiation_xl",
            "negotiation_xxl",
            "planning",
            "sim",
            "e2e",
            "throughput",
            "scale",
        ] {
            let name = format!("BENCH_{gate}.json");
            let text = std::fs::read_to_string(format!("{root}/{name}"))
                .unwrap_or_else(|e| panic!("cannot read {name}: {e}"));
            let json: serde_json::Value = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"));
            let (metric, value, floor) =
                gate_metric(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                value >= floor,
                "{name} is stale: committed {metric} {value:.2} \
                 is below its own floor {floor:.2} — re-run the gate"
            );
            // Gated results must also record what they ran with: floors
            // are only comparable against a known knob configuration.
            assert!(
                matches!(json.get("knobs"), Some(serde_json::Value::Object(_))),
                "{name} has no `knobs` block — gates must record the \
                 partition/thread/quiescence configuration they measured"
            );
        }
    }
}

//! Parallel parameter-sweep harness.
//!
//! Each figure-scale experiment is a grid of *independent* simulations
//! (policy × distribution × cluster size × seed). Single simulations stay
//! single-threaded for determinism; the sweep fans the grid out over worker
//! threads with a crossbeam work channel, workers send `(index, outcome)`
//! back on a result channel, and the collector reassembles submission order
//! from the indices — so a sweep's output is as deterministic as a single
//! run, and no lock is ever contended (each result is touched by exactly
//! one worker and then the collector).
//!
//! For grids too large for one process, [`crate::shard`] fans the same
//! cells out over worker *processes*; both paths share `run_cell` and
//! the `OrderedSlots` merge, so the sharded output stays bit-identical
//! to the in-process one.

use crate::config::ClusterConfig;
use crate::metrics::ExperimentResult;
use crate::runtime::{Experiment, ExperimentScratch, SubstrateMode};
use phishare_workload::Workload;
use std::sync::Arc;

/// One cell of a sweep grid.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Label reported back with the result (e.g. `"MCCK/normal/8"`).
    pub label: String,
    /// Cluster configuration for this cell.
    pub config: ClusterConfig,
    /// Workload for this cell (shared, not cloned, across cells).
    pub workload: Arc<Workload>,
}

/// The outcome of one sweep cell, as reported back to the caller.
pub type SweepOutcome = (String, Result<ExperimentResult, String>);

/// Run one sweep cell on the given substrate, recycling `scratch`.
///
/// The single worker body shared by every sweep mode — the in-process
/// workers of [`run_sweep`] and the per-process workers of
/// [`crate::shard`] all execute cells through here, so every path gets
/// scratch recycling and every path is bit-identical.
pub(crate) fn run_cell(
    job: &SweepJob,
    substrate: SubstrateMode,
    scratch: &mut ExperimentScratch,
) -> Result<ExperimentResult, String> {
    Experiment::new(&job.config, &job.workload)
        .substrate(substrate)
        .scratch(scratch)
        .simulate()
}

/// Submission-order reassembly of indexed sweep outcomes.
///
/// Shared by the in-process collector and the sharded merge: inserting the
/// same index twice or finishing with a hole is a *hard* error in both, so
/// a completed merge proves every cell ran exactly once.
pub(crate) struct OrderedSlots {
    slots: Vec<Option<SweepOutcome>>,
}

impl OrderedSlots {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            slots: (0..n).map(|_| None).collect(),
        }
    }

    /// Place `outcome` at `idx`; errors on an out-of-range or duplicate index.
    pub(crate) fn insert(&mut self, idx: usize, outcome: SweepOutcome) -> Result<(), String> {
        let n = self.slots.len();
        let slot = self
            .slots
            .get_mut(idx)
            .ok_or_else(|| format!("sweep cell index {idx} out of range for {n} cells"))?;
        if slot.is_some() {
            return Err(format!("sweep cell {idx} ran twice"));
        }
        *slot = Some(outcome);
        Ok(())
    }

    /// Consume the slots; errors if any cell never reported a result.
    pub(crate) fn finish(self) -> Result<Vec<SweepOutcome>, String> {
        self.slots
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| slot.ok_or_else(|| format!("sweep cell {idx} never ran")))
            .collect()
    }
}

/// Run every job in the grid on `substrate`, using up to `threads` worker
/// threads ([`default_threads`] sizes the pool to the machine). Results
/// come back in the same order as `jobs`.
///
/// Each worker owns one [`ExperimentScratch`] and recycles its event heap
/// and grant buffers across the cells it processes — steady-state cells
/// allocate O(1), and recycling is asserted bit-identical to fresh runs.
pub fn run_sweep(
    jobs: Vec<SweepJob>,
    threads: usize,
    substrate: SubstrateMode,
) -> Vec<SweepOutcome> {
    assert!(threads >= 1, "need at least one worker");
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.min(n);

    let (tx, rx) = crossbeam::channel::unbounded::<(usize, SweepJob)>();
    for item in jobs.into_iter().enumerate() {
        tx.send(item).expect("open channel");
    }
    drop(tx);

    type Outcome = (usize, String, Result<ExperimentResult, String>);
    let (res_tx, res_rx) = crossbeam::channel::unbounded::<Outcome>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let rx = rx.clone();
            let res_tx = res_tx.clone();
            scope.spawn(move || {
                let mut scratch = ExperimentScratch::new();
                while let Ok((idx, job)) = rx.recv() {
                    let outcome = run_cell(&job, substrate, &mut scratch);
                    res_tx
                        .send((idx, job.label, outcome))
                        .expect("open channel");
                }
            });
        }
    });
    drop(res_tx);

    // All workers have exited the scope; the indexed results reassemble
    // submission order regardless of which worker finished when.
    let mut slots = OrderedSlots::new(n);
    for (idx, label, outcome) in res_rx.iter() {
        slots
            .insert(idx, (label, outcome))
            .expect("in-process sweep delivered a duplicate cell");
    }
    slots
        .finish()
        .expect("every sweep cell reports exactly once")
}

/// Default worker count: the `PHISHARE_SWEEP_THREADS` environment variable
/// when set to a positive integer, otherwise physical parallelism minus
/// one, at least one.
pub fn default_threads() -> usize {
    let raw = std::env::var("PHISHARE_SWEEP_THREADS").ok();
    threads_override(raw.as_deref()).unwrap_or_else(auto_threads)
}

/// Parse a thread-count override (the value of `PHISHARE_SWEEP_THREADS`).
/// Returns `None` for absent, non-numeric, or non-positive values — the
/// caller falls back to machine sizing. Injectable so the parse rules are
/// testable without mutating process-global environment state.
pub(crate) fn threads_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

fn auto_threads() -> usize {
    phishare_condor::collector::host_parallelism()
        .saturating_sub(1)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishare_core::ClusterPolicy;
    use phishare_workload::{WorkloadBuilder, WorkloadKind};

    fn grid() -> Vec<SweepJob> {
        let wl = Arc::new(
            WorkloadBuilder::new(WorkloadKind::Table1Mix)
                .count(20)
                .seed(13)
                .build(),
        );
        ClusterPolicy::ALL
            .iter()
            .flat_map(|&policy| {
                [2u32, 4].into_iter().map({
                    let wl = Arc::clone(&wl);
                    move |nodes| {
                        let mut config = ClusterConfig::paper_cluster(policy).with_nodes(nodes);
                        config.knapsack.window = 64;
                        SweepJob {
                            label: format!("{policy}/{nodes}"),
                            config,
                            workload: Arc::clone(&wl),
                        }
                    }
                })
            })
            .collect()
    }

    #[test]
    fn sweep_matches_serial_execution() {
        let parallel = run_sweep(grid(), 4, SubstrateMode::Fast);
        let serial = run_sweep(grid(), 1, SubstrateMode::Fast);
        assert_eq!(parallel.len(), 6);
        for ((pl, pr), (sl, sr)) in parallel.iter().zip(serial.iter()) {
            assert_eq!(pl, sl);
            assert_eq!(pr, sr, "parallel and serial sweeps diverged on {pl}");
        }
    }

    #[test]
    fn labels_preserve_order() {
        let out = run_sweep(grid(), 3, SubstrateMode::Fast);
        let labels: Vec<&str> = out.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            vec!["MC/2", "MC/4", "MCC/2", "MCC/4", "MCCK/2", "MCCK/4"]
        );
    }

    #[test]
    fn empty_grid_is_fine() {
        assert!(run_sweep(Vec::new(), 4, SubstrateMode::Fast).is_empty());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn naive_shared_sweep_matches_shared_sweep() {
        let shared = run_sweep(grid(), 3, SubstrateMode::Shared);
        let naive = run_sweep(grid(), 3, SubstrateMode::SharedNaive);
        for ((sl, sr), (nl, nr)) in shared.iter().zip(naive.iter()) {
            assert_eq!(sl, nl);
            assert_eq!(sr, nr, "substrates diverged on {sl}");
        }
    }

    #[test]
    fn threads_override_parses_without_env() {
        // The parse rules, exercised through the injectable parameter —
        // no process-global environment mutation required.
        assert_eq!(threads_override(Some("3")), Some(3));
        assert_eq!(threads_override(Some("  8 ")), Some(8));
        assert_eq!(threads_override(Some("0")), None, "0 falls back to auto");
        assert_eq!(threads_override(Some("not-a-number")), None);
        assert_eq!(threads_override(Some("-2")), None);
        assert_eq!(threads_override(None), None);
    }

    #[test]
    fn sweep_threads_env_override_is_honored() {
        // The only writer of PHISHARE_SWEEP_THREADS in this test process.
        std::env::set_var("PHISHARE_SWEEP_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::remove_var("PHISHARE_SWEEP_THREADS");
        assert_eq!(default_threads(), auto_threads());
    }

    #[test]
    fn ordered_slots_rejects_duplicates_and_holes() {
        let ok = |label: &str| (label.to_string(), Err::<ExperimentResult, _>("x".into()));
        let mut slots = OrderedSlots::new(2);
        slots.insert(1, ok("b")).unwrap();
        assert!(slots.insert(1, ok("b2")).unwrap_err().contains("twice"));
        assert!(slots
            .insert(5, ok("z"))
            .unwrap_err()
            .contains("out of range"));
        // Hole at index 0 is a hard error on finish.
        assert!(slots.finish().unwrap_err().contains("never ran"));

        let mut slots = OrderedSlots::new(2);
        slots.insert(1, ok("b")).unwrap();
        slots.insert(0, ok("a")).unwrap();
        let merged = slots.finish().unwrap();
        assert_eq!(merged[0].0, "a");
        assert_eq!(merged[1].0, "b");
    }

    #[test]
    fn auto_sweep_matches_explicit_thread_count() {
        let auto = run_sweep(grid(), default_threads(), SubstrateMode::Fast);
        let serial = run_sweep(grid(), 1, SubstrateMode::Fast);
        assert_eq!(auto, serial);
    }
}

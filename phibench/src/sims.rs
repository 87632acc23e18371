//! The three simulation workloads. Each is a unit of independent cells,
//! built from the run's seed and run through `phishare_cluster`'s public
//! entry points:
//!
//! * `table2` — one instance of the paper's Table II: the Table I mix,
//!   1000 jobs at t=0 on the 8-node paper cluster, under MC, MCC, MCCK and
//!   the clairvoyant oracle (4 cells), run on one thread with
//!   `Experiment::run`.
//! * `dense_sweep` — three cells of the `perf_e2e` grid, one per policy
//!   and one per job-size distribution (MCC/uniform, MCCK/normal,
//!   oracle/high-skew): 400 offload-dense jobs with Poisson arrivals on
//!   8 × 24 slots, run on one thread through one recycled
//!   `ExperimentScratch`.
//! * `chaos_sweep` — {normal, high-skew} × {6, 8, 12} nodes (6 cells) under
//!   MCC on the shared-throughput substrate with the gpu-mix pool, bursty
//!   arrivals, the full perturbation stack and device and node faults, run
//!   as one process-sharded sweep with one worker process.
//!
//! The measured phase runs the unit again and again, with the host's
//! reference kernel between every two operations (see `host`). Each
//! operation's time is read at reference speed, and the end-to-end
//! metrics report medians of those times: per cell for the in-process
//! workloads, per sweep for `chaos_sweep`.

use crate::host::Host;
use crate::layers::EndToEnd;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats;
use phishare_cluster::{
    run_sweep_sharded, CellRecord, ClusterConfig, DevicePool, DeviceSku, Experiment,
    ExperimentResult, ExperimentScratch, PerturbConfig, ShardOptions, SubstrateMode, SweepJob,
};
use phishare_core::ClusterPolicy;
use phishare_sim::SimDuration;
use phishare_workload::{
    ArrivalProcess, ResourceDist, SyntheticParams, Workload, WorkloadBuilder, WorkloadKind,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Worker processes of a `chaos_sweep` sweep: one, since the run stays on
/// one core (see `host::pin_to_one_core`), where more would take turns.
pub const CHAOS_WORKERS: usize = 1;
const CHAOS_PERTURB: &str =
    "derate:120:60:0.4,latency:90:45:2,stale-ads:90:60,jitter:3,horizon:3600";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Table2,
    Dense,
    Chaos,
}

/// One cell's outcome.
pub type CellResult = Result<ExperimentResult, String>;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Table2 => "table2",
            Kind::Dense => "dense_sweep",
            Kind::Chaos => "chaos_sweep",
        }
    }

    pub fn substrate(self) -> SubstrateMode {
        match self {
            Kind::Chaos => SubstrateMode::Shared,
            _ => SubstrateMode::Fast,
        }
    }

    /// Kernel runs per reading of the host's speed (see `host`). A sharded
    /// sweep is one long operation between two readings, so each reading
    /// takes the median of several runs.
    fn kernel_runs(self) -> usize {
        match self {
            Kind::Chaos => 5,
            _ => 1,
        }
    }

    /// The golden results at seed 7, captured with `benchmark golden`.
    fn golden(self) -> &'static str {
        match self {
            Kind::Table2 => include_str!("../golden/table2.json"),
            Kind::Dense => include_str!("../golden/dense_sweep.json"),
            Kind::Chaos => include_str!("../golden/chaos_sweep.json"),
        }
    }
}

/// Jobs per workload. `full` sizes are the workloads as defined; tests
/// run reduced ones, for which the golden and Table II shape checks are
/// off.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub jobs: usize,
    pub full: bool,
}

pub fn full_size(kind: Kind) -> Size {
    Size {
        jobs: if kind == Kind::Table2 { 1000 } else { 400 },
        full: true,
    }
}

/// The offload-dense job shape of `perf_e2e`: small footprints so
/// sharing policies stack devices deep, 92–97 % offload duty and 256–512
/// kernel launches per job.
fn dense_workload(
    dist: ResourceDist,
    jobs: usize,
    seed: u64,
    arrivals: ArrivalProcess,
) -> Arc<Workload> {
    let params = SyntheticParams {
        mem_mb: (64, 160),
        threads: (4, 16),
        thread_jitter: 0.08,
        duty_cycle: (0.92, 0.97),
        offloads: (256, 512),
        duration_secs: (40.0, 100.0),
    };
    Arc::new(
        WorkloadBuilder::new(WorkloadKind::Synthetic(dist, params))
            .count(jobs)
            .seed(seed)
            .arrivals(arrivals)
            .build(),
    )
}

/// Build the unit: every cell's label, configuration and workload, all
/// validated.
pub fn unit(kind: Kind, size: Size, seed: u64) -> Result<Vec<SweepJob>, String> {
    let mut cells = Vec::new();
    match kind {
        Kind::Table2 => {
            let wl = Arc::new(
                WorkloadBuilder::new(WorkloadKind::Table1Mix)
                    .count(size.jobs)
                    .seed(seed)
                    .build(),
            );
            for policy in ClusterPolicy::WITH_ORACLE {
                cells.push(SweepJob {
                    label: format!("{policy}/s{seed}"),
                    config: ClusterConfig::paper_cluster(policy).with_seed(seed),
                    workload: Arc::clone(&wl),
                });
            }
        }
        Kind::Dense => {
            let arrivals = ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_millis(400),
            };
            for (dist, policy) in [
                (ResourceDist::Uniform, ClusterPolicy::Mcc),
                (ResourceDist::Normal, ClusterPolicy::Mcck),
                (ResourceDist::HighSkew, ClusterPolicy::Oracle),
            ] {
                let mut config = ClusterConfig::paper_cluster(policy).with_seed(seed);
                config.slots_per_node = 24;
                config.negotiation_trigger_delay = SimDuration::from_secs(10);
                cells.push(SweepJob {
                    label: format!("{policy}/{dist}/s{seed}"),
                    config,
                    workload: dense_workload(dist, size.jobs, seed, arrivals),
                });
            }
        }
        Kind::Chaos => {
            let arrivals: ArrivalProcess = "bursty:10:5:0.2".parse()?;
            for dist in [ResourceDist::Normal, ResourceDist::HighSkew] {
                let wl = dense_workload(dist, size.jobs, seed, arrivals);
                for nodes in [6, 8, 12] {
                    let mut config = ClusterConfig::paper_cluster(ClusterPolicy::Mcc)
                        .with_nodes(nodes)
                        .with_seed(seed);
                    config.pool = DevicePool::Alternate(DeviceSku::GpuLike);
                    config.perturb = PerturbConfig::from_spec(CHAOS_PERTURB)?;
                    config.faults.device_mtbf_secs = 1800.0;
                    config.faults.node_mtbf_secs = 3600.0;
                    config.faults.horizon_secs = 3600.0;
                    cells.push(SweepJob {
                        label: format!("MCC/{dist}/{nodes}n/s{seed}"),
                        config,
                        workload: Arc::clone(&wl),
                    });
                }
            }
        }
    }
    for cell in &cells {
        cell.config.validate()?;
        cell.workload
            .validate()
            .map_err(|(id, e)| format!("{}: invalid job {id}: {e}", cell.label))?;
    }
    Ok(cells)
}

/// Run one cell in this process, untraced.
pub fn run_cell(kind: Kind, cell: &SweepJob) -> CellResult {
    Experiment::run_with_substrate(&cell.config, &cell.workload, kind.substrate())
}

/// Checks every cell result gets, in either pass: job conservation, at
/// least one completion, and equality with the golden result if given.
pub fn check_cell(
    label: &str,
    result: &CellResult,
    golden: Option<&ExperimentResult>,
) -> Vec<String> {
    let r = match result {
        Ok(r) => r,
        Err(e) => return vec![format!("{label}: run failed: {e}")],
    };
    let mut problems = Vec::new();
    if r.completed + r.container_kills + r.oom_kills + r.held_after_retries != r.jobs {
        problems.push(format!("{label}: job accounting leaked"));
    }
    if r.completed == 0 {
        problems.push(format!("{label}: no job completed"));
    }
    if golden.is_some_and(|g| r != g) {
        problems.push(format!("{label}: result differs from the golden result"));
    }
    problems
}

/// The paper's Table II shape on one instance: MC > MCC > MCCK makespan,
/// and MCCK's reduction versus MC in [30, 45] %.
fn check_table2_shape(results: &[CellResult]) -> Vec<String> {
    let by = |p: ClusterPolicy| results.iter().flatten().find(|r| r.policy == p);
    let (Some(mc), Some(mcc), Some(mcck)) = (
        by(ClusterPolicy::Mc),
        by(ClusterPolicy::Mcc),
        by(ClusterPolicy::Mcck),
    ) else {
        return vec!["Table II instance is missing a policy".into()];
    };
    let mut problems = Vec::new();
    if !(mc.makespan_secs > mcc.makespan_secs && mcc.makespan_secs > mcck.makespan_secs) {
        problems.push(format!(
            "{}: makespans MC {} / MCC {} / MCCK {} break MC > MCC > MCCK",
            mc.workload, mc.makespan_secs, mcc.makespan_secs, mcck.makespan_secs
        ));
    }
    let reduction = mcck.makespan_reduction_vs(mc);
    if !(30.0..=45.0).contains(&reduction) {
        problems.push(format!(
            "{}: MCCK reduction {reduction:.1}% outside [30, 45]",
            mc.workload
        ));
    }
    problems
}

fn golden_results(kind: Kind) -> Result<BTreeMap<String, ExperimentResult>, String> {
    let records: Vec<CellRecord> = serde_json::from_str(kind.golden())
        .map_err(|e| format!("golden results for {}: {e}", kind.name()))?;
    Ok(records
        .into_iter()
        .filter_map(|r| r.ok.map(|ok| (r.label, ok)))
        .collect())
}

/// Where a run keeps its files: `target/benchmark/` under the working
/// directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from("target").join("benchmark")
}

/// A fresh sweep checkpoint directory for this process.
pub fn shard_dir(tag: &str, n: usize) -> PathBuf {
    out_dir().join(format!("shards-{}-{tag}-{n}", std::process::id()))
}

/// Run one sharded sweep of `jobs` with its checkpoints in `dir`, which
/// the caller removes.
pub fn sharded(jobs: Vec<SweepJob>, dir: PathBuf) -> Result<Vec<CellResult>, String> {
    let opts = ShardOptions {
        workers: CHAOS_WORKERS,
        worker_exe: std::env::current_exe()
            .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?,
        dir: Some(dir),
        resume: false,
        keep_dir: false,
        substrate: SubstrateMode::Shared,
    };
    Ok(run_sweep_sharded(jobs, &opts)?
        .into_iter()
        .map(|(_, r)| r)
        .collect())
}

/// What the measured phase saw. Times are read at reference speed (see
/// `host`).
#[derive(Default)]
pub struct Measured {
    /// Wall time of every pass over the unit, kernel runs included,
    /// milliseconds: what the end of the phase is judged by.
    pass_wall_ms: Vec<f64>,
    /// Time of every sharded sweep (`chaos_sweep` only), milliseconds.
    sweep_ms: Vec<f64>,
    /// Per cell, the time of each of its runs in this process (empty for
    /// `chaos_sweep`, whose cells run in a worker process), milliseconds.
    cell_ms: Vec<Vec<f64>>,
    /// The first pass's results.
    pub first: Vec<CellResult>,
    /// Time of every build of the unit, seconds.
    setup_s: Vec<f64>,
    /// The reference kernel's median wall time, milliseconds.
    pub kernel_ms: f64,
}

impl Measured {
    fn build(
        &mut self,
        host: &mut Host,
        kind: Kind,
        size: Size,
        seed: u64,
    ) -> Result<Vec<SweepJob>, String> {
        let (cells, t) = host.time(|| unit(kind, size, seed));
        self.setup_s.push(t.ms() / 1e3);
        cells
    }

    /// The time of one pass: the sum of each cell's median run, or the
    /// median sharded sweep.
    fn pass_ms(&self) -> f64 {
        if self.cell_ms.is_empty() {
            return stats::median(&self.sweep_ms);
        }
        self.cell_ms.iter().map(|runs| stats::median(runs)).sum()
    }

    /// The time one result takes: a Table II instance, a cell (the median
    /// over the cells of their median runs), or a sharded sweep.
    fn latency_ms(&self, kind: Kind) -> f64 {
        match kind {
            Kind::Dense => {
                let cells: Vec<f64> = self
                    .cell_ms
                    .iter()
                    .map(|runs| stats::median(runs))
                    .collect();
                stats::median(&cells)
            }
            Kind::Table2 | Kind::Chaos => self.pass_ms(),
        }
    }

    /// Every operation's time: each cell run, or each sharded sweep.
    fn op_ms(&self) -> Vec<f64> {
        if self.cell_ms.is_empty() {
            return self.sweep_ms.clone();
        }
        self.cell_ms.iter().flatten().copied().collect()
    }
}

/// One pass over the unit: in a worker process for `chaos_sweep`, else
/// cell by cell in this process, each operation followed by the reference
/// kernel. Returns each cell's result and, for in-process cells, its time.
fn run_pass(
    kind: Kind,
    cells: &[SweepJob],
    scratch: &mut ExperimentScratch,
    host: &mut Host,
    m: &mut Measured,
) -> Result<Vec<(CellResult, Option<f64>)>, String> {
    if kind == Kind::Chaos {
        let dir = shard_dir("measure", m.sweep_ms.len());
        let (out, t) = host.time(|| sharded(cells.to_vec(), dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
        m.sweep_ms.push(t.ms());
        return Ok(out?.into_iter().map(|r| (r, None)).collect());
    }
    Ok(cells
        .iter()
        .map(|cell| {
            let (r, t) = host.time(|| match kind {
                Kind::Table2 => Experiment::run(&cell.config, &cell.workload),
                _ => Experiment::run_with_substrate_scratch(
                    &cell.config,
                    &cell.workload,
                    SubstrateMode::Fast,
                    scratch,
                ),
            });
            (r, Some(t.ms()))
        })
        .collect())
}

/// The untraced run: a warm-up cell, then passes over the unit until the
/// pass boundary nearest the measuring time, building the unit afresh
/// before each.
fn measure(
    kind: Kind,
    size: Size,
    seed: u64,
    golden: &BTreeMap<String, ExperimentResult>,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut host = Host::new(kind.kernel_runs());
    // Warm-up: the unit's first cell, untimed, in this process (sharded
    // passes start a fresh worker process anyway).
    let warm = m.build(&mut host, kind, size, seed)?.swap_remove(0);
    let problems = check_cell(&warm.label, &run_cell(kind, &warm), golden.get(&warm.label));
    out.check(problems.is_empty(), || problems.join("; "));
    drop(warm);

    let mut scratch = ExperimentScratch::new();
    let started = Instant::now();
    while stats::another_op(started, &m.pass_wall_ms, seconds) {
        let t = Instant::now();
        let cells = m.build(&mut host, kind, size, seed)?;
        let results = run_pass(kind, &cells, &mut scratch, &mut host, &mut m)?;
        m.pass_wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for (idx, (result, ms)) in results.into_iter().enumerate() {
            let label = &cells[idx].label;
            let mut problems = check_cell(label, &result, golden.get(label));
            if let Some(ms) = ms {
                m.cell_ms.resize(cells.len(), Vec::new());
                m.cell_ms[idx].push(ms);
            }
            match m.first.get(idx) {
                Some(first) if *first != result => {
                    problems.push(format!("{label}: a repeated run gave a different result"))
                }
                Some(_) => {}
                None => m.first.push(result),
            }
            out.op(problems);
        }
    }
    if kind == Kind::Table2 && size.full {
        let problems = check_table2_shape(&m.first);
        out.check(problems.is_empty(), || problems.join("; "));
    }
    m.kernel_ms = host.kernel_ms();
    Ok(m)
}

/// One run of a simulation workload. Returns the span recorder when
/// `traced`.
pub fn run(
    kind: Kind,
    size: Size,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<Option<Tracer>, String> {
    let golden = if size.full && seed == 7 {
        golden_results(kind)?
    } else {
        BTreeMap::new()
    };
    let measured = measure(kind, size, seed, &golden, seconds, out)?;
    if !traced {
        let completed: usize = measured.first.iter().flatten().map(|r| r.completed).sum();
        EndToEnd {
            setup_s: stats::median(&measured.setup_s),
            jobs_per_s: completed as f64 * 1e3 / measured.pass_ms(),
            latency_ms: measured.latency_ms(kind),
        }
        .put(&mut out.metrics)?;
        return Ok(None);
    }
    let (mut layers, tracer) = crate::traced::sims(kind, size, seed, &measured, out)?;
    layers.set_tail(&measured.op_ms());
    layers.host_kernel_ms = measured.kernel_ms;
    layers.put(&mut out.metrics);
    Ok(Some(tracer))
}

/// Every cell of the seed-7 unit, as the golden file stores it.
pub fn golden(kind: Kind) -> Result<String, String> {
    let cells = unit(kind, full_size(kind), 7)?;
    let records: Vec<CellRecord> = cells
        .iter()
        .enumerate()
        .map(|(index, cell)| {
            let r = run_cell(kind, cell);
            CellRecord {
                index,
                label: cell.label.clone(),
                ok: r.as_ref().ok().cloned(),
                err: r.err(),
            }
        })
        .collect();
    serde_json::to_string_pretty(&records).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Size = Size {
        jobs: 24,
        full: false,
    };

    fn smoke(kind: Kind, traced: bool) -> Outcome {
        let mut out = Outcome::default();
        let tracer = run(kind, SMALL, 3, 0.05, traced, &mut out).unwrap();
        assert_eq!(tracer.is_some(), traced);
        assert!(out.correct(), "{}: {:?}", kind.name(), out.problems);
        assert_eq!(out.failed, 0);
        out
    }

    #[test]
    fn table2_smoke() {
        let out = smoke(Kind::Table2, false);
        assert!(out.metrics.get("jobs_per_s").unwrap() > 0.0);
        let out = smoke(Kind::Table2, true);
        assert!(out.metrics.get("core.pins").unwrap() > 0.0);
        assert!(out.metrics.get("phi.ops").unwrap() > 0.0);
        assert_eq!(out.metrics.get("throughput.ops"), Some(0.0));
    }

    #[test]
    fn dense_sweep_smoke() {
        smoke(Kind::Dense, false);
        let out = smoke(Kind::Dense, true);
        assert!(out.metrics.get("cosmic.ops").unwrap() > 0.0);
        assert!(out.metrics.get("sim.ops_per_us").unwrap() > 0.0);
    }

    #[test]
    fn chaos_sweep_smoke_in_process() {
        // The sharded path needs the benchmark binary as its worker, which
        // a unit test cannot provide; check the unit and one cell instead.
        let cells = unit(Kind::Chaos, SMALL, 3).unwrap();
        assert_eq!(cells.len(), 6);
        let r = run_cell(Kind::Chaos, &cells[0]);
        assert!(check_cell(&cells[0].label, &r, None).is_empty(), "{r:?}");
    }

    #[test]
    fn table2_shape_is_checked() {
        let cells = unit(Kind::Table2, SMALL, 3).unwrap();
        let mut results: Vec<CellResult> =
            cells.iter().map(|c| run_cell(Kind::Table2, c)).collect();
        results.retain(|r| r.as_ref().unwrap().policy != ClusterPolicy::Mcc);
        assert_eq!(
            check_table2_shape(&results),
            ["Table II instance is missing a policy"]
        );
    }

    #[test]
    fn golden_files_cover_the_seed_7_units() {
        for kind in [Kind::Table2, Kind::Dense, Kind::Chaos] {
            let golden = golden_results(kind).unwrap();
            let cells = unit(kind, full_size(kind), 7).unwrap();
            assert_eq!(golden.len(), cells.len(), "{}", kind.name());
            assert!(cells.iter().all(|c| golden.contains_key(&c.label)));
        }
    }

    #[test]
    fn a_result_unlike_the_golden_one_is_reported() {
        let golden = golden_results(Kind::Table2).unwrap();
        let mut r = golden["MCCK/s7"].clone();
        assert!(check_cell("MCCK/s7", &Ok(r.clone()), Some(&golden["MCCK/s7"])).is_empty());
        r.makespan_secs += 1.0;
        r.completed -= 1;
        let problems = check_cell("MCCK/s7", &Ok(r), Some(&golden["MCCK/s7"]));
        assert_eq!(problems.len(), 2, "{problems:?}");
    }
}

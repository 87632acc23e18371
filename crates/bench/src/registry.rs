//! The experiment registry: every paper table/figure, and every ablation of
//! the same shape, as data.
//!
//! An [`Artifact`] is a grid of simulation [`Cell`]s (workload recipe ×
//! policy × nodes × variant × seed), a reducer that folds the finished cells
//! into a numeric [`Table`], the paper's expectation, and the checks the
//! table must pass. [`Artifact::run`] executes a grid through the in-process
//! [`run_sweep`]; `phishare-bench reproduce <name|all>` prints each table,
//! writes `target/experiments/<name>.json` and regenerates the artifact's
//! block of EXPERIMENTS.md (see [`rewrite_blocks`]).
//!
//! One seed drives a cell: its cluster is
//! `ClusterConfig::paper_cluster(policy).with_seed(seed)` and its workload is
//! drawn with that same seed, as the CLI's `--seed` does.

use crate::{EXPERIMENT_SEED, SYNTHETIC_JOBS};
use phishare_cluster::report::{pct, secs};
use phishare_cluster::{default_threads, run_sweep, ClusterConfig, DevicePool, DeviceSku};
use phishare_cluster::{ExperimentResult, FallbackPolicy, SubstrateMode, SweepJob};
use phishare_core::{ClusterPolicy, KnapsackVariant};
use phishare_knapsack::ValueFunction;
use phishare_phi::PhiConfig;
use phishare_sim::{Histogram, SimDuration, Summary};
use phishare_workload::{ResourceDist, SyntheticParams, Workload, WorkloadBuilder, WorkloadKind};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;
use ClusterPolicy::{Mc, Mcc, Mcck, Oracle};
use Recipe::{Synthetic, Table1};

/// The paper's real-workload job count (§V-A).
const TABLE1_JOBS: usize = 1000;

/// How a cell's workload is drawn (its seed is the cell's cluster seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Recipe {
    /// The §V-A Table I application mix.
    Table1,
    /// One of the four §V-B synthetic distributions.
    Synthetic(ResourceDist),
}

/// One simulation of an artifact's grid.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Row of the reduced table (distribution, variant, seed, ...).
    row: String,
    /// Column of the reduced table (usually the policy).
    col: String,
    recipe: Recipe,
    /// Jobs in the workload.
    pub jobs: usize,
    /// The cluster; `config.seed` also seeds the workload.
    pub config: ClusterConfig,
}

impl Cell {
    /// `policy` on the paper's 8-node cluster, seeded with the seed every
    /// artifact but EXT-2 uses; the column is the policy's name.
    fn new(row: impl ToString, recipe: Recipe, jobs: usize, policy: ClusterPolicy) -> Cell {
        let config = ClusterConfig::paper_cluster(policy).with_seed(EXPERIMENT_SEED);
        let (row, col) = (row.to_string(), policy.to_string());
        Cell {
            row,
            col,
            recipe,
            jobs,
            config,
        }
    }

    /// The cluster seed, which also seeds the workload.
    fn seed(mut self, seed: u64) -> Cell {
        self.config.seed = seed;
        self
    }

    fn col(mut self, col: impl ToString) -> Cell {
        self.col = col.to_string();
        self
    }

    fn nodes(mut self, nodes: u32) -> Cell {
        self.config.nodes = nodes;
        self
    }

    fn with(mut self, tweak: impl FnOnce(&mut ClusterConfig)) -> Cell {
        tweak(&mut self.config);
        self
    }

    /// The sweep label: every coordinate of the cell.
    fn label(&self) -> String {
        let c = &self.config;
        format!("{}|{}|{}n|s{}", self.row, self.col, c.nodes, c.seed)
    }

    fn workload(&self) -> Workload {
        let kind = match self.recipe {
            Table1 => WorkloadKind::Table1Mix,
            Synthetic(dist) => WorkloadKind::Synthetic(dist, SyntheticParams::default()),
        };
        WorkloadBuilder::new(kind)
            .count(self.jobs)
            .seed(self.config.seed)
            .build()
    }
}

/// A per-cell quantity a pivot tabulates.
#[derive(Clone, Copy, Debug)]
enum Metric {
    Makespan,
    Energy,
    CoreUtil,
    ThreadUtil,
    DeviceBusy,
    HostUtil,
    Completion,
    Resets,
    Retries,
    HostRuns,
    Held,
    Windows,
    Inflated,
    StaleSkips,
    Jittered,
}

impl Metric {
    /// The metric of `r`, with its header and unit for column `col`.
    fn of(self, r: &ExperimentResult, col: &str) -> (f64, String, Unit) {
        let (value, suffix, unit) = match self {
            Metric::Makespan => (r.makespan_secs, "(s)", Unit::Secs),
            Metric::Energy => (r.energy_kwh, "(kWh)", Unit::Kwh),
            Metric::CoreUtil => (100.0 * r.core_utilization, "core util", Unit::Pct),
            Metric::ThreadUtil => (100.0 * r.thread_utilization, "thread util", Unit::Pct),
            Metric::DeviceBusy => (100.0 * r.device_busy_fraction, "device busy", Unit::Pct),
            Metric::HostUtil => (100.0 * r.host_core_utilization, "host util", Unit::Pct),
            Metric::Completion => (100.0 * r.completion_rate(), "completed", Unit::Pct),
            Metric::Resets => (r.device_resets as f64, "resets", Unit::Count),
            Metric::Retries => (r.retries as f64, "retries", Unit::Count),
            Metric::HostRuns => (r.fallback_offloads as f64, "host runs", Unit::Count),
            Metric::Held => (r.held_after_retries as f64, "held", Unit::Count),
            Metric::Windows => (r.perturb_windows as f64, "windows", Unit::Count),
            Metric::Inflated => (r.inflated_offloads as f64, "inflated", Unit::Count),
            Metric::StaleSkips => (r.stale_ad_skips as f64, "stale skips", Unit::Count),
            Metric::Jittered => (r.jittered_cycles as f64, "jittered", Unit::Count),
        };
        (value, format!("{col} {suffix}"), unit)
    }
}

/// How a table column renders.
#[derive(Clone, Copy, Debug, Serialize)]
enum Unit {
    Secs,
    Pct,
    Kwh,
    Count,
    /// A footprint out of the given cluster size, shown with its reduction;
    /// a missing value means even the full size missed.
    Nodes(u32),
}

/// An artifact's reduced numbers: named columns, labelled rows.
#[derive(Debug, Default, Serialize)]
pub struct Table {
    columns: Vec<(String, Unit)>,
    rows: Vec<(String, Vec<Option<f64>>)>,
}

impl Table {
    fn column(&self, name: &str) -> Result<usize, String> {
        let found = self.columns.iter().position(|(c, _)| c == name);
        found.ok_or_else(|| format!("no column {name:?}"))
    }

    fn values(&self, col: &str) -> Result<Vec<f64>, String> {
        let i = self.column(col)?;
        Ok(self.rows.iter().filter_map(|(_, v)| v[i]).collect())
    }

    /// Every value in a row whose label contains `rows` and a column whose
    /// name contains `cols`, with its row and column; an `Err` if none.
    fn matching(&self, rows: &str, cols: &str) -> Result<Vec<(&str, &str, f64)>, String> {
        let mut hits = Vec::new();
        for (label, values) in self.rows.iter().filter(|(l, _)| l.contains(rows)) {
            for ((name, _), value) in self.columns.iter().zip(values) {
                if let (true, Some(x)) = (name.contains(cols), value) {
                    hits.push((label.as_str(), name.as_str(), *x));
                }
            }
        }
        match hits.is_empty() {
            true => Err(format!("no value at rows {rows:?}, columns {cols:?}")),
            false => Ok(hits),
        }
    }

    fn value(&self, row: &str, col: &str) -> Result<f64, String> {
        let i = self.column(col)?;
        let found = self.rows.iter().find(|(label, _)| label == row);
        found
            .and_then(|(_, v)| v[i])
            .ok_or_else(|| format!("no value at {row:?}/{col:?}"))
    }

    /// Append mean and population σ rows over every column.
    fn summarize(&mut self) {
        let mut stats: Vec<Summary> = self.columns.iter().map(|_| Summary::new()).collect();
        for (_, values) in &self.rows {
            for (s, v) in stats.iter_mut().zip(values) {
                v.iter().for_each(|&x| s.record(x));
            }
        }
        for (label, stat) in [
            ("mean", Summary::mean as fn(&Summary) -> f64),
            ("σ", Summary::std_dev),
        ] {
            self.rows
                .push((label.into(), stats.iter().map(|s| Some(stat(s))).collect()));
        }
    }

    /// The table in GitHub markdown, `row_header` over the label column.
    fn markdown(&self, row_header: &str) -> String {
        let mut out = format!("| {row_header} |");
        for (name, _) in &self.columns {
            out += &format!(" {name} |");
        }
        out += &format!("\n|---|{}", "---|".repeat(self.columns.len()));
        for (label, values) in &self.rows {
            out += &format!("\n| {label} |");
            for ((_, unit), value) in self.columns.iter().zip(values) {
                let cell = match (*unit, *value) {
                    (Unit::Nodes(of), Some(n)) => {
                        format!("{n} ({})", pct(100.0 * (1.0 - n / of as f64)))
                    }
                    (Unit::Nodes(of), None) => format!(">{of}"),
                    (_, None) => "-".into(),
                    (Unit::Secs, Some(x)) => secs(x),
                    (Unit::Pct, Some(x)) => pct(x),
                    (Unit::Kwh, Some(x)) => format!("{x:.2}"),
                    (Unit::Count, Some(x)) => format!("{x:.0}"),
                };
                out += &format!(" {cell} |");
            }
        }
        out + "\n"
    }
}

/// How an artifact's finished cells fold into its [`Table`].
#[derive(Clone, Copy, Debug)]
enum Reducer {
    /// Rows × columns of each metric in grid order, then one `a vs b`
    /// column per pair: `b`'s reduction by `a`, in % of the *first* metric.
    /// `summary` appends mean and σ rows after the checks run.
    Pivot {
        metrics: &'static [Metric],
        vs: &'static [(&'static str, &'static str)],
        summary: bool,
    },
    /// Per row: `base`'s makespan at its size, then for each other column
    /// its makespan at that size, its reduction, and the smallest size whose
    /// makespan is within `tolerance` of `base`'s.
    Footprint { base: &'static str, tolerance: f64 },
    /// Per row: the workload's memory histogram over `bins` equal bins of
    /// the synthetic range, its means and its outliers. Nothing simulates.
    Histogram { bins: usize },
}

/// A column-level assertion over a reduced table.
#[derive(Clone, Copy, Debug)]
enum Check {
    /// In a column, the first row is strictly below the second.
    Below(&'static str, &'static str, &'static str),
    /// The first column's minimum exceeds the second's maximum less the
    /// slack: the two bands do not overlap.
    Apart(&'static str, &'static str, f64),
    /// Every value in a row whose label contains the first pattern and a
    /// column whose name contains the second lies in `[min, max]`; at least
    /// one such value exists.
    Within(&'static str, &'static str, f64, f64),
    /// In every column whose name contains the first pattern, each row whose
    /// label contains the second is at least `factor` times the third row.
    AtLeast(&'static str, &'static str, &'static str, f64),
}

impl Check {
    fn verify(self, t: &Table) -> Result<(), String> {
        match self {
            Check::Below(col, low, high) => match (t.value(low, col)?, t.value(high, col)?) {
                (a, b) if a < b => Ok(()),
                (a, b) => Err(format!("{col}: {low} {a:.1} is not below {high} {b:.1}")),
            },
            Check::Apart(hi, lo, slack) => {
                let min = t.values(hi)?.into_iter().fold(f64::INFINITY, f64::min);
                let max = t.values(lo)?.into_iter().fold(f64::NEG_INFINITY, f64::max);
                if min > max - slack {
                    return Ok(());
                }
                Err(format!("{hi} (min {min:.1}) overlaps {lo} (max {max:.1})"))
            }
            Check::Within(rows, cols, min, max) => {
                for (row, col, x) in t.matching(rows, cols)? {
                    if !(min..=max).contains(&x) {
                        return Err(format!("{row}/{col} is {x}, not in [{min}, {max}]"));
                    }
                }
                Ok(())
            }
            Check::AtLeast(cols, row, base, factor) => {
                for (_, col, x) in t.matching(row, cols)? {
                    let b = t.value(base, col)?;
                    if x < factor * b {
                        return Err(format!(
                            "{col}: {row} {x:.1} is below {factor} × {base} {b:.1}"
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

/// A paper table/figure or an ablation, as data.
pub struct Artifact {
    /// CLI argument, JSON file stem and EXPERIMENTS.md marker name.
    pub name: &'static str,
    /// What the artifact reproduces.
    pub title: &'static str,
    /// The full-size grid.
    pub grid: fn() -> Vec<Cell>,
    /// The paper's (or the extension's) expected result.
    paper: &'static str,
    /// Header of the row-label column.
    rows: &'static str,
    substrate: SubstrateMode,
    reducer: Reducer,
    checks: &'static [Check],
}

/// A finished artifact.
#[derive(Serialize)]
pub struct Report {
    /// The reduced table.
    pub table: Table,
    /// Every cell's label and result, in grid order.
    pub cells: Vec<(String, Option<ExperimentResult>)>,
    /// Messages of the checks that failed.
    pub failures: Vec<String>,
}

/// A cell with its workload and, unless nothing simulates, its result.
struct Run {
    cell: Cell,
    workload: Arc<Workload>,
    result: Option<ExperimentResult>,
}

impl Artifact {
    /// Run `cells` (the grid or a reduction of it), reduce them and verify
    /// the checks. A cell that fails to simulate is an `Err`; a failed
    /// check is listed in [`Report::failures`].
    pub fn run(&self, cells: Vec<Cell>) -> Result<Report, String> {
        let mut workloads = HashMap::new();
        let mut runs: Vec<Run> = Vec::new();
        for cell in cells {
            let key = (cell.recipe, cell.jobs, cell.config.seed);
            let workload = workloads
                .entry(key)
                .or_insert_with(|| Arc::new(cell.workload()));
            runs.push(Run {
                workload: workload.clone(),
                cell,
                result: None,
            });
        }
        if !matches!(self.reducer, Reducer::Histogram { .. }) {
            let jobs = runs.iter().map(|r| SweepJob {
                label: r.cell.label(),
                config: r.cell.config,
                workload: r.workload.clone(),
            });
            let outcomes = run_sweep(jobs.collect(), default_threads(), self.substrate);
            for (run, (label, outcome)) in runs.iter_mut().zip(outcomes) {
                let result = outcome.map_err(|e| format!("{}: cell {label}: {e}", self.name))?;
                let r = &result;
                let accounted =
                    r.completed + r.container_kills + r.oom_kills + r.held_after_retries;
                if accounted != r.jobs {
                    return Err(format!(
                        "{}: cell {label}: {accounted} of {} jobs accounted for",
                        self.name, r.jobs
                    ));
                }
                run.result = Some(result);
            }
        }
        let mut table = self.reducer.reduce(&runs)?;
        let failures = self
            .checks
            .iter()
            .filter_map(|check| check.verify(&table).err());
        let failures = failures.map(|e| format!("{}: {e}", self.name)).collect();
        if let Reducer::Pivot { summary: true, .. } = self.reducer {
            table.summarize();
        }
        let cells = runs
            .into_iter()
            .map(|r| (r.cell.label(), r.result))
            .collect();
        Ok(Report {
            table,
            cells,
            failures,
        })
    }

    /// The artifact's EXPERIMENTS.md block: the expectation and the table.
    pub fn markdown(&self, table: &Table) -> String {
        format!("Paper: {}\n\n{}", self.paper, table.markdown(self.rows))
    }
}

/// Labels in first-appearance order.
fn distinct<'a>(labels: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for label in labels {
        if !out.contains(&label) {
            out.push(label);
        }
    }
    out
}

impl Reducer {
    fn reduce(self, runs: &[Run]) -> Result<Table, String> {
        let rows = distinct(runs.iter().map(|r| r.cell.row.as_str()));
        let cols = distinct(runs.iter().map(|r| r.cell.col.as_str()));
        // Every result of one row and column, in grid order.
        let at = |row: &str, col: &str| -> Result<Vec<&ExperimentResult>, String> {
            let hits = runs
                .iter()
                .filter(|r| r.cell.row == row && r.cell.col == col);
            let hits: Vec<_> = hits.filter_map(|r| r.result.as_ref()).collect();
            match hits.is_empty() {
                true => Err(format!("no result for {row}/{col}")),
                false => Ok(hits),
            }
        };
        let one = |row: &str, col: &str| at(row, col).map(|hits| hits[0]);
        let reduction = |a: f64, b: f64| 100.0 * (1.0 - a / b);
        let mut t = Table::default();
        match self {
            Reducer::Pivot { metrics, vs, .. } => {
                for row in rows {
                    let (mut values, mut columns) = (Vec::new(), Vec::new());
                    for metric in metrics {
                        for col in &cols {
                            let (value, name, unit) = metric.of(one(row, col)?, col);
                            values.push(Some(value));
                            columns.push((name, unit));
                        }
                    }
                    for (a, b) in vs {
                        let of = |col| one(row, col).map(|r| metrics[0].of(r, col).0);
                        values.push(Some(reduction(of(a)?, of(b)?)));
                        columns.push((format!("{a} vs {b}"), Unit::Pct));
                    }
                    t.columns = columns;
                    t.rows.push((row.to_string(), values));
                }
            }
            Reducer::Footprint { base, tolerance } => {
                for row in rows {
                    let (nodes, target) = one(row, base).map(|r| (r.nodes, r.makespan_secs))?;
                    t.columns = vec![(format!("{base} (s)"), Unit::Secs)];
                    let mut values = vec![Some(target)];
                    for col in cols.iter().filter(|c| **c != base) {
                        let mut curve = at(row, col)?;
                        curve.sort_by_key(|r| r.nodes);
                        let full = curve.iter().find(|r| r.nodes == nodes);
                        let full = full.ok_or_else(|| format!("no {col} cell on {nodes} nodes"))?;
                        let makespan = full.makespan_secs;
                        let fits = curve
                            .iter()
                            .find(|r| r.makespan_secs <= target * (1.0 + tolerance));
                        let needed = fits.map(|r| r.nodes as f64);
                        values.extend([Some(makespan), Some(reduction(makespan, target)), needed]);
                        t.columns.push((format!("{col} (s)"), Unit::Secs));
                        t.columns.push((format!("{col} vs {base}"), Unit::Pct));
                        t.columns.push((format!("{col} nodes"), Unit::Nodes(nodes)));
                    }
                    t.rows.push((row.to_string(), values));
                }
            }
            Reducer::Histogram { bins } => {
                let (lo, hi) = SyntheticParams::default().mem_mb;
                let edge = |i: u64| lo + (hi - lo) * i / bins as u64;
                for i in 0..bins as u64 {
                    t.columns
                        .push((format!("{}-{} MB", edge(i), edge(i + 1)), Unit::Count));
                }
                for name in ["mean MB", "mean threads", "outliers"] {
                    t.columns.push((name.into(), Unit::Count));
                }
                for run in runs {
                    let jobs = &run.workload.jobs;
                    let mut hist = Histogram::new(lo as f64, hi as f64, bins);
                    jobs.iter().for_each(|j| hist.record(j.mem_req_mb as f64));
                    let mean =
                        |f: fn(&_) -> f64| jobs.iter().map(f).sum::<f64>() / jobs.len() as f64;
                    let mut values: Vec<_> =
                        hist.counts().iter().map(|&c| Some(c as f64)).collect();
                    values.push(Some(mean(|j| j.mem_req_mb as f64)));
                    values.push(Some(mean(|j| j.thread_req as f64)));
                    values.push(Some(hist.outliers() as f64));
                    t.rows.push((run.cell.row.clone(), values));
                }
            }
        }
        Ok(t)
    }
}

// The grids.

const POLICIES: [ClusterPolicy; 3] = ClusterPolicy::ALL;

fn motivation_util() -> Vec<Cell> {
    let mut cells = vec![Cell::new("table1-mix (1000 jobs)", Table1, TABLE1_JOBS, Mc)];
    for dist in ResourceDist::ALL {
        let row = format!("synthetic {dist} (400 jobs)");
        cells.push(Cell::new(row, Synthetic(dist), SYNTHETIC_JOBS, Mc));
    }
    cells
}

/// MC on 8 nodes, and MCC/MCCK on every size from 1 to 8.
fn footprint(row: impl ToString, recipe: Recipe, jobs: usize) -> Vec<Cell> {
    let cell = |policy| Cell::new(row.to_string(), recipe, jobs, policy);
    let mut cells = vec![cell(Mc)];
    for policy in [Mcc, Mcck] {
        cells.extend((1..=8).map(|n| cell(policy).nodes(n)));
    }
    cells
}

fn table2() -> Vec<Cell> {
    footprint("table1-mix (1000 jobs)", Table1, TABLE1_JOBS)
}

fn table3() -> Vec<Cell> {
    let grids = ResourceDist::ALL.map(|dist| footprint(dist, Synthetic(dist), SYNTHETIC_JOBS));
    grids.concat()
}

fn fig7() -> Vec<Cell> {
    let cell = |dist| Cell::new(dist, Synthetic(dist), SYNTHETIC_JOBS, Mc);
    ResourceDist::ALL.map(cell).into()
}

fn fig8() -> Vec<Cell> {
    let mut cells = Vec::new();
    for dist in ResourceDist::ALL {
        cells.extend(POLICIES.map(|p| Cell::new(dist, Synthetic(dist), SYNTHETIC_JOBS, p)));
    }
    cells
}

fn fig9() -> Vec<Cell> {
    let mut cells = Vec::new();
    for dist in ResourceDist::ALL {
        for policy in POLICIES {
            for nodes in [2, 3, 4, 5, 6, 8] {
                let row = format!("{dist} / {nodes}");
                cells.push(Cell::new(row, Synthetic(dist), SYNTHETIC_JOBS, policy).nodes(nodes));
            }
        }
    }
    cells
}

/// 200 normal-distribution jobs per node.
fn fig10() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (nodes, jobs) in [(2, 400), (4, 800), (6, 1200), (8, 1600)] {
        let row = format!("{nodes} / {jobs}");
        let cell = |p| Cell::new(&row, Synthetic(ResourceDist::Normal), jobs, p).nodes(nodes);
        cells.extend(POLICIES.map(cell));
    }
    cells
}

fn abl_host_contention() -> Vec<Cell> {
    let mut cells = Vec::new();
    for cores in [2, 4, 8, 16] {
        let cell = |p| Cell::new(cores, Table1, 400, p).with(|c| c.host_cores_per_node = cores);
        cells.extend([Mc, Mcck].map(cell));
    }
    cells
}

fn abl_knapsack_variants() -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut push = |row: String, tweak: &dyn Fn(&mut ClusterConfig)| {
        cells.push(Cell::new(row, Table1, 400, Mcck).with(tweak))
    };
    for v in [KnapsackVariant::TwoD, KnapsackVariant::OneDFiltered] {
        push(format!("dp={v:?}"), &|c| c.knapsack.variant = v);
    }
    for g in [25, 50, 100, 200, 400] {
        push(format!("granularity={g}MB"), &|c| {
            c.knapsack.granularity_mb = g
        });
    }
    for o in [1.0, 1.25, 1.5, 1.75, 2.0] {
        push(format!("overcommit={o}"), &|c| {
            c.knapsack.thread_overcommit = o
        });
    }
    push("thread-accounting=lax".into(), &|c| {
        c.knapsack.count_resident_threads = false
    });
    for w in [16, 64, 256] {
        push(format!("window={w}"), &|c| c.knapsack.window = w);
    }
    cells
}

fn abl_negotiation_interval() -> Vec<Cell> {
    let mut cells = Vec::new();
    for policy in [Mcc, Mcck] {
        for (interval, trigger) in [5, 10, 30, 60, 120]
            .map(|i| [1, 2, 5, 10].map(|t| (i, t)))
            .concat()
        {
            let cell = Cell::new(format!("{interval} / {trigger}"), Table1, 400, policy);
            cells.push(cell.with(|c| {
                c.negotiation_interval = SimDuration::from_secs(interval);
                c.negotiation_trigger_delay = SimDuration::from_secs(trigger);
            }));
        }
    }
    cells
}

fn abl_oracle() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (row, recipe, jobs) in [
        ("table1-1000", Table1, TABLE1_JOBS),
        (
            "syn-normal-400",
            Synthetic(ResourceDist::Normal),
            SYNTHETIC_JOBS,
        ),
        (
            "syn-high-skew-400",
            Synthetic(ResourceDist::HighSkew),
            SYNTHETIC_JOBS,
        ),
    ] {
        cells.extend([Mcck, Oracle].map(|p| Cell::new(row, recipe, jobs, p)));
    }
    cells
}

fn abl_value_function() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (col, recipe) in [
        ("table1-400", Table1),
        ("syn-normal-400", Synthetic(ResourceDist::Normal)),
    ] {
        for vf in ValueFunction::ALL {
            let cell = Cell::new(vf, recipe, 400, Mcck).col(col);
            cells.push(cell.with(|c| c.knapsack.value_fn = vf));
        }
    }
    cells
}

fn ext_card_memory() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (sku, phi) in [
        ("3120A (6 GB)", PhiConfig::phi_3120a()),
        ("5110P (8 GB)", PhiConfig::phi_5110p()),
        ("7120P (16 GB)", PhiConfig::phi_7120p()),
    ] {
        cells.extend(POLICIES.map(|p| Cell::new(sku, Table1, 400, p).with(|c| c.phi = phi)));
    }
    cells
}

/// The Table II footprints: MC on 8 nodes, MCC on 6, MCCK on 5.
fn ext_energy() -> Vec<Cell> {
    let cell = |p, n| Cell::new("table1-mix (1000 jobs)", Table1, TABLE1_JOBS, p).nodes(n);
    [(Mc, 8), (Mcc, 6), (Mcck, 5)]
        .map(|(p, n)| cell(p, n).col(format!("{p}@{n}")))
        .into()
}

/// Every even-numbered node's card swapped for a GPU-like one, or not.
fn ext_hetero_mix() -> Vec<Cell> {
    let pools = [
        ("phi-only", DevicePool::Uniform),
        ("phi+gpu", DevicePool::Alternate(DeviceSku::GpuLike)),
    ];
    let mut cells = Vec::new();
    for dist in ResourceDist::ALL {
        for policy in [Mcc, Mcck] {
            for (col, pool) in pools {
                let cell = Cell::new(format!("{dist} / {policy}"), Synthetic(dist), 200, policy);
                cells.push(cell.col(col).with(|c| c.pool = pool));
            }
        }
    }
    cells
}

/// Table II on five seeds, 600 jobs each.
fn ext_seed_sensitivity() -> Vec<Cell> {
    let mut cells = Vec::new();
    for seed in [7, 11, 23, 59, 101] {
        cells.extend(POLICIES.map(|p| Cell::new(seed, Table1, 600, p).seed(seed)));
    }
    cells
}

/// 8 cards as 8×1, 4×2 or 2×4 nodes, host capacity scaled with cards.
fn ext_topology() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (nodes, devices) in [(8, 1), (4, 2), (2, 4)] {
        let row = format!("{nodes} nodes × {devices} cards");
        cells.extend(POLICIES.map(|p| {
            Cell::new(&row, Table1, 400, p).nodes(nodes).with(|c| {
                c.devices_per_node = devices;
                c.slots_per_node = 16 * devices;
                c.host_cores_per_node = 16 * devices;
            })
        }));
    }
    cells
}

/// Horizon of EXT-6's fault plans and EXT-8's perturbation plans: long
/// enough to cover every run of either grid.
const CHAOS_HORIZON_SECS: f64 = 6000.0;

/// Per-device MTBF (off, 600, 300 or 150 s) under both recovery postures,
/// on the uniform and the GPU-like mixed pool, 300 Table I jobs.
fn ext_fault_mtbf() -> Vec<Cell> {
    let pools = [
        ("uniform", DevicePool::Uniform),
        ("gpu-mix", DevicePool::Alternate(DeviceSku::GpuLike)),
    ];
    let mut cells = Vec::new();
    for (name, pool) in pools {
        for fallback in [FallbackPolicy::HostOnly, FallbackPolicy::Requeue] {
            for (mtbf, label) in [(0.0, "off"), (600.0, "600"), (300.0, "300"), (150.0, "150")] {
                let row = format!("{name} / {fallback:?} / {label}");
                cells.extend(POLICIES.map(|p| {
                    Cell::new(&row, Table1, 300, p).with(|c| {
                        c.pool = pool;
                        c.recovery.fallback = fallback;
                        // An MTBF of 0 draws no faults over any horizon.
                        c.faults.device_mtbf_secs = mtbf;
                        c.faults.horizon_secs = CHAOS_HORIZON_SECS;
                    })
                }));
            }
        }
    }
    cells
}

/// MCC and MCCK under each perturbation stack, 300 Table I jobs; `all`
/// stacks every kind on top of EXT-6's 600 s device MTBF.
fn ext_chaos_robustness() -> Vec<Cell> {
    let mut cells = Vec::new();
    for stack in ["none", "derate", "latency", "stale-ads", "jitter", "all"] {
        let on = |kind| stack == kind || stack == "all";
        cells.extend([Mcc, Mcck].map(|policy| {
            Cell::new(stack, Table1, 300, policy).with(|c| {
                let p = &mut c.perturb;
                p.horizon_secs = CHAOS_HORIZON_SECS;
                if on("derate") {
                    p.derate.mean_gap_secs = 120.0;
                    p.derate.duration_secs = 60.0;
                    p.derate.factor = 0.4;
                }
                if on("latency") {
                    p.latency.mean_gap_secs = 90.0;
                    p.latency.duration_secs = 45.0;
                    p.latency.extra_secs = 2.0;
                }
                if on("stale-ads") {
                    p.stale_ads.mean_gap_secs = 90.0;
                    p.stale_ads.duration_secs = 60.0;
                }
                if on("jitter") {
                    p.jitter_max_secs = 5.0;
                }
                if stack == "all" {
                    // Chaos on top of faults: the stack composes with the
                    // EXT-6 failure model rather than replacing it.
                    c.faults.device_mtbf_secs = 600.0;
                    c.faults.horizon_secs = CHAOS_HORIZON_SECS;
                }
            })
        }));
    }
    cells
}

// The registry.

const MAKESPAN: &[Metric] = &[Metric::Makespan];
const VS_MC: &[(&str, &str)] = &[("MCC", "MC"), ("MCCK", "MC")];
const FOOTPRINT: Reducer = Reducer::Footprint {
    base: "MC",
    tolerance: 0.02,
};

const fn pivot(metrics: &'static [Metric], vs: &'static [(&'static str, &'static str)]) -> Reducer {
    Reducer::Pivot {
        metrics,
        vs,
        summary: false,
    }
}

/// An artifact on the fast substrate with no checks.
const fn entry(
    name: &'static str,
    grid: fn() -> Vec<Cell>,
    reducer: Reducer,
    rows: &'static str,
    title: &'static str,
    paper: &'static str,
) -> Artifact {
    let substrate = SubstrateMode::Fast;
    Artifact {
        name,
        title,
        grid,
        paper,
        rows,
        substrate,
        reducer,
        checks: &[],
    }
}

/// No upper bound for [`Check::Within`].
const ANY: f64 = f64::INFINITY;

/// Every artifact, in EXPERIMENTS.md order.
pub static ARTIFACTS: [Artifact; 19] = [
    entry(
        "motivation_util",
        motivation_util,
        pivot(&[Metric::CoreUtil, Metric::ThreadUtil, Metric::DeviceBusy], &[]),
        "Workload",
        "§III motivation: core utilization under exclusive allocation (MC, 8 nodes)",
        "≈ 50 % on the 1000-job Table I mix; 38–63 % across the synthetic distributions",
    ),
    entry(
        "table2",
        table2,
        FOOTPRINT,
        "Workload",
        "Table II: makespan and footprint, 1000 Table I jobs, 8 nodes",
        "MC 3568 s; MCC 2611 s (27 %), footprint 8 → 6 (25 %); \
         MCCK 2183 s (39 %), footprint 8 → 5 (37.5 %). \
         Footprint: the smallest cluster within 2 % of MC's 8-node makespan.",
    ),
    Artifact {
        checks: &[
            Check::Within("", "outliers", 0.0, 0.0),
            Check::Below("mean MB", "low-skew", "normal"),
            Check::Below("mean MB", "normal", "high-skew"),
        ],
        ..entry(
            "fig7",
            fig7,
            Reducer::Histogram { bins: 10 },
            "Distribution",
            "Fig. 7: memory histograms of the 400-job synthetic sets",
            "uniform is flat; normal peaks mid-range; the skews shift the mass one σ down/up",
        )
    },
    entry(
        "fig8",
        fig8,
        pivot(MAKESPAN, VS_MC),
        "Distribution",
        "Fig. 8: makespan by distribution, 400 jobs, 8 nodes",
        "large wins on uniform/normal/low-skew; a small win on high-skew, \
         where MCCK trails MCC slightly",
    ),
    entry(
        "fig9",
        fig9,
        pivot(MAKESPAN, &[("MCCK", "MCC")]),
        "Distribution / nodes",
        "Fig. 9: makespan on 2–8 nodes, 400 jobs per distribution",
        "sharing wins at every size; at small sizes random sharing is as good \
         as the knapsack, whose edge grows with cluster size",
    ),
    entry(
        "table3",
        table3,
        FOOTPRINT,
        "Distribution",
        "Table III: footprint by distribution, 400 jobs",
        "MCC {6, 6, 4, 6}; MCCK {5, 5, 3, 6} nodes for \
         {uniform, normal, low-skew, high-skew}, within 2 % of MC's 8-node makespan",
    ),
    entry(
        "fig10",
        fig10,
        pivot(MAKESPAN, &[("MCCK", "MCC"), ("MCCK", "MC")]),
        "Nodes / jobs",
        "Fig. 10: constant job pressure, 200 normal-distribution jobs per node",
        "at 8 nodes / 1600 jobs MCCK is ≈ 11 % faster than MCC and ≈ 40 % faster than MC",
    ),
    entry(
        "abl_host_contention",
        abl_host_contention,
        pivot(&[Metric::Makespan, Metric::HostUtil], &[("MCCK", "MC")]),
        "Host cores/node",
        "ABL-5: host cores per node (the §V-A no-host-contention caveat), 400 Table I jobs",
        "not measured (§V-A assumes hosts never bind); expected: with ≥ 8 host cores \
         the assumption is free, and starving the host erodes sharing's win",
    ),
    entry(
        "abl_knapsack_variants",
        abl_knapsack_variants,
        pivot(MAKESPAN, &[]),
        "Variant",
        "ABL-2: MCCK knapsack formulation, granularity and thread budget, 400 Table I jobs",
        "the 1-D DP at 50 MB granularity (§IV-C); expected: 2-D ≈ 1-D + repair, \
         coarse granularity wastes capacity, overcommit 1.0 strands threads",
    ),
    entry(
        "abl_negotiation_interval",
        abl_negotiation_interval,
        pivot(MAKESPAN, &[]),
        "Interval / trigger (s)",
        "ABL-3: negotiation interval / trigger delay (s), 400 Table I jobs",
        "waiting for the negotiation cycle is the only integration overhead (§IV-D1); \
         expected: MCC tracks the interval, MCCK mainly the trigger delay",
    ),
    entry(
        "abl_oracle",
        abl_oracle,
        pivot(MAKESPAN, &[("MCCK", "ORACLE")]),
        "Workload",
        "ABL-4: MCCK vs a clairvoyant longest-job-first scheduler",
        "concurrency is a good proxy for makespan without execution times (§IV-B); \
         expected: MCCK within a few percent of the oracle (negative: MCCK slower)",
    ),
    entry(
        "abl_value_function",
        abl_value_function,
        pivot(MAKESPAN, &[]),
        "Value function",
        "ABL-1: MCCK makespan per knapsack value function",
        "Eq. (1), the quadratic thread discount; expected: quadratic ≈ linear, \
         unit can win on correlated synthetics, inverse over-defers",
    ),
    entry(
        "ext_card_memory",
        ext_card_memory,
        pivot(MAKESPAN, VS_MC),
        "Card",
        "EXT-3: card memory across Phi SKUs, 400 Table I jobs, 8 nodes",
        "not measured (§II-A quotes 8–16 GB cards, the testbed has 8 GB); \
         expected: sharing's win over MC widens with card memory",
    ),
    entry(
        "ext_energy",
        ext_energy,
        pivot(&[Metric::Energy, Metric::Makespan], &[("MCC@6", "MC@8"), ("MCCK@5", "MC@8")]),
        "Workload",
        "EXT-1: card energy at the Table II footprints (vs columns: energy saving)",
        "not measured; expected: equal-makespan sharing clusters burn \
         proportionally less card energy",
    ),
    Artifact {
        substrate: SubstrateMode::Shared,
        ..entry(
            "ext_hetero_mix",
            ext_hetero_mix,
            pivot(MAKESPAN, &[("phi+gpu", "phi-only")]),
            "Distribution / policy",
            "EXT-7: Phi-only vs Phi + GPU-like pools, 200 jobs, 8 nodes, shared-throughput substrate",
            "not measured (the testbed is all-5110P); expected: the mixed pool shortens \
             thread-bound makespans and MCCK keeps its edge over MCC",
        )
    },
    Artifact {
        checks: &[Check::Apart("MCCK vs MC", "MCC vs MC", 1.0)],
        ..entry(
            "ext_seed_sensitivity",
            ext_seed_sensitivity,
            Reducer::Pivot { metrics: MAKESPAN, vs: VS_MC, summary: true },
            "Seed",
            "EXT-2: Table II on five seeds, 600 jobs",
            "MCC 27 %, MCCK 39 % (one draw); expected: tight bands, MCC ≈ 25–30 % \
             and MCCK ≈ 35–39 %, that do not overlap",
        )
    },
    entry(
        "ext_topology",
        ext_topology,
        pivot(MAKESPAN, VS_MC),
        "Topology",
        "EXT-4: 8 cards as 8×1, 4×2 or 2×4 nodes, 400 Table I jobs",
        "not measured (the formulation allows D > 1 cards per node, the testbed has 1); \
         expected: 8 cards behave near-identically as 8×1, 4×2 or 2×4",
    ),
    Artifact {
        checks: &[
            Check::Within("/ off", "completed", 100.0, 100.0),
            Check::Within("HostOnly / 150", "resets", 1.0, ANY),
            Check::Within("HostOnly / 150", "host runs", 1.0, ANY),
            Check::Within("HostOnly / 150", "completed", 95.0, 100.0),
            // Requeue always wastes completed work, so its makespan must not
            // beat the fault-free baseline. Not on gpu-mix MCC, whose
            // fault-free makespan spreads wider across draws than a requeue
            // stretches it (EXPERIMENTS.md, EXT-6). HostOnly makespan is
            // deliberately NOT asserted monotone: under MCC's random
            // packing, spilling offloads to otherwise-idle host cores acts
            // as accidental load-balancing and can *shorten* the run — a
            // real finding, reported in EXPERIMENTS.md rather than asserted
            // away.
            Check::AtLeast(" (s)", "uniform / Requeue / 150", "uniform / HostOnly / off", 0.98),
            Check::AtLeast("MC (s)", "gpu-mix / Requeue / 150", "gpu-mix / HostOnly / off", 0.98),
            Check::AtLeast("MCCK (s)", "gpu-mix / Requeue / 150", "gpu-mix / HostOnly / off", 0.98),
        ],
        ..entry(
            "ext_fault_mtbf",
            ext_fault_mtbf,
            pivot(
                &[
                    Metric::Makespan,
                    Metric::Completion,
                    Metric::Resets,
                    Metric::Retries,
                    Metric::HostRuns,
                    Metric::Held,
                ],
                &[],
            ),
            "Pool / fallback / MTBF (s)",
            "EXT-6: degradation vs per-device MTBF, 300 Table I jobs, 8 nodes",
            "not measured (the testbed is healthy); expected: HostOnly keeps completion \
             at 100 % while makespan grows, Requeue's completion dips as retries run out",
        )
    },
    Artifact {
        checks: &[
            Check::Within("none", "completed", 100.0, 100.0),
            Check::Within("none", "windows", 0.0, 0.0),
            Check::Below("MCC (s)", "none", "derate"),
            Check::Below("MCCK (s)", "none", "derate"),
            Check::Within("latency", "inflated", 1.0, ANY),
            Check::Within("stale-ads", "stale skips", 1.0, ANY),
            Check::Within("jitter", "jittered", 1.0, ANY),
            Check::Within("all", "completed", 95.0, 100.0),
            Check::Within("all", "windows", 1.0, ANY),
        ],
        ..entry(
            "ext_chaos_robustness",
            ext_chaos_robustness,
            pivot(
                &[
                    Metric::Makespan,
                    Metric::Completion,
                    Metric::Windows,
                    Metric::Inflated,
                    Metric::StaleSkips,
                    Metric::Jittered,
                    Metric::Retries,
                    Metric::Held,
                ],
                &[],
            ),
            "Stack",
            "EXT-8: MCC and MCCK under chaos perturbation stacks, 300 Table I jobs, 8 nodes",
            "not measured (the testbed is calm); expected: derates and latency spikes \
             stretch makespan, stale ads defer matches, jitter is noise, nothing is stranded",
        )
    },
];

/// The artifact named `name`.
pub fn find(name: &str) -> Option<&'static Artifact> {
    ARTIFACTS.iter().find(|a| a.name == name)
}

/// Replace the body of each `(name, body)` block in `doc`.
///
/// A block is the lines between `<!-- reproduce:NAME -->` and
/// `<!-- /reproduce:NAME -->`. Every marker in `doc` must name an artifact
/// in [`ARTIFACTS`], open once and close before the next opens, and every
/// block to write must have its markers; anything else is an `Err` naming
/// the marker.
pub fn rewrite_blocks(doc: &str, blocks: &[(&str, String)]) -> Result<String, String> {
    let mut out = String::with_capacity(doc.len());
    let (mut seen, mut open, mut replacing) = (Vec::new(), None, false);
    for line in doc.split_inclusive('\n') {
        let marker = line
            .trim()
            .strip_prefix("<!-- ")
            .and_then(|m| m.strip_suffix(" -->"));
        let closing = marker.is_some_and(|m| m.starts_with('/'));
        let name = marker.and_then(|m| m.trim_start_matches('/').strip_prefix("reproduce:"));
        let Some(name) = name else {
            if !replacing {
                out.push_str(line);
            }
            continue;
        };
        if find(name).is_none() {
            return Err(format!("unknown marker reproduce:{name}"));
        }
        if closing {
            if open != Some(name) {
                return Err(format!(
                    "closing marker /reproduce:{name} without its opening marker"
                ));
            }
            (open, replacing) = (None, false);
        } else if let Some(unclosed) = open {
            return Err(format!("unterminated marker reproduce:{unclosed}"));
        } else if seen.contains(&name) {
            return Err(format!("duplicated marker reproduce:{name}"));
        } else {
            seen.push(name);
            open = Some(name);
            if let Some((_, body)) = blocks.iter().find(|(n, _)| *n == name) {
                out.push_str(line);
                out.push_str(body);
                replacing = true;
                continue;
            }
        }
        out.push_str(line);
    }
    if let Some(unclosed) = open {
        return Err(format!("unterminated marker reproduce:{unclosed}"));
    }
    match blocks.iter().find(|(name, _)| !seen.contains(name)) {
        Some((name, _)) => Err(format!("missing marker reproduce:{name}")),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "# doc\n<!-- reproduce:fig8 -->\nold\n<!-- /reproduce:fig8 -->\nprose\n";

    #[test]
    fn rewrite_replaces_only_the_named_block() {
        let out = rewrite_blocks(DOC, &[("fig8", "new\n".into())]).unwrap();
        assert_eq!(out, DOC.replace("old", "new"));
        assert_eq!(rewrite_blocks(DOC, &[]).unwrap(), DOC);
    }

    #[test]
    fn bad_markers_are_errors_that_name_them() {
        let duplicated = format!("{DOC}<!-- reproduce:fig8 -->\n<!-- /reproduce:fig8 -->\n");
        for (doc, want) in [
            (DOC, "missing marker reproduce:fig9"),
            (&duplicated, "duplicated marker reproduce:fig8"),
            (
                "<!-- reproduce:fig8 -->\nold\n",
                "unterminated marker reproduce:fig8",
            ),
            (
                "<!-- reproduce:fig8 -->\n<!-- reproduce:fig9 -->\n",
                "unterminated marker reproduce:fig8",
            ),
            (
                "<!-- reproduce:fig99 -->\n",
                "unknown marker reproduce:fig99",
            ),
            (
                "<!-- /reproduce:fig8 -->\n",
                "/reproduce:fig8 without its opening",
            ),
        ] {
            let err = rewrite_blocks(doc, &[("fig9", "x\n".into())]).unwrap_err();
            assert!(err.contains(want), "{doc:?}: {err}");
        }
    }

    #[test]
    fn checks_fail_when_violated() {
        let t = Table {
            columns: vec![("a".into(), Unit::Pct), ("b".into(), Unit::Pct)],
            rows: vec![
                ("x".into(), vec![Some(1.0), Some(5.0)]),
                ("y".into(), vec![Some(0.0), Some(3.0)]),
            ],
        };
        for (check, holds) in [
            (Check::Below("a", "y", "x"), true),
            (Check::Below("a", "x", "y"), false),
            (Check::Apart("b", "a", 0.0), true),
            (Check::Apart("a", "b", 1.0), false),
            (Check::Within("x", "a", 0.0, 2.0), true),
            (Check::Within("", "b", 4.0, 6.0), false),
            (Check::Within("z", "a", 0.0, 9.0), false),
            (Check::AtLeast("b", "y", "x", 0.5), true),
            (Check::AtLeast("", "y", "x", 0.5), false),
        ] {
            assert_eq!(check.verify(&t).is_ok(), holds, "{check:?}");
        }
    }
}

//! `phishare` — command-line front end for the simulator.
//!
//! ```text
//! phishare run        --policy mcck --jobs 400 --nodes 8 [--dist normal] [--json] [--gantt]
//! phishare compare    --jobs 400 --nodes 8 [--dist table1] [--oracle]
//! phishare footprint  --jobs 400 --max-nodes 8 [--dist table1] [--tolerance 0.02]
//! phishare workload   --count 100 [--dist table1] [--format csv|json] [--out FILE]
//! phishare sweep      --policies mcc,mcck --sizes 2,4,8 [--workers N] [--dir D] [--resume]
//! phishare --worker   --dir D --worker-id K        (spawned by sharded sweeps)
//! ```
//!
//! Every command accepts `--seed N` (default 7). Workloads can also be
//! loaded from a CSV file with `--from FILE` (schema: see
//! `phishare_workload::io`). A flag the command does not read exits 1
//! with a message naming it.

use phishare::cluster::report::{pct, secs, table};
use phishare::cluster::{
    footprint_search, CellRecord, ClusterConfig, DevicePool, Experiment, FaultPlan, PerturbConfig,
    PerturbPlan, ShardOptions, SubstrateMode, SweepJob,
};
use phishare::condor::MatchPath;
use phishare::core::ClusterPolicy;
use phishare::workload::{
    workload_from_csv, workload_to_csv, ArrivalProcess, ResourceDist, SyntheticParams, Workload,
    WorkloadBuilder, WorkloadKind,
};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "\
phishare — coprocessor sharing-aware cluster scheduling simulator

USAGE:
  phishare run        --policy <mc|mcc|mcck|oracle> [--jobs N] [--nodes N]
                      [--dist <table1|uniform|normal|low|high>] [--seed N]
                      [--negotiation <delta|full>]
                      [--substrate <fast|keyed|shared|shared-naive>]
                      [--pool <uniform|gpu-mix|phi-mix|phi7120-mix>]
                      [--arrivals <zero|poisson:GAP|diurnal:GAP:PERIOD:AMP
                                  |bursty:GAP:SIZE:BGAP|flash:GAP:AT:FRAC>]
                      [--perturb SPEC]  e.g. derate:600:60:0.5,latency:300:30:2,
                                        stale-ads:400:45,jitter:3,horizon:3600
                      [--fault-plan FILE.json] [--dump-fault-plan FILE.json]
                      [--perturb-plan FILE.json] [--dump-perturb-plan FILE.json]
                      [--from FILE.csv] [--json] [--gantt]
  phishare compare    [--jobs N] [--nodes N] [--dist ...] [--seed N] [--oracle]
  phishare footprint  [--jobs N] [--max-nodes N] [--dist ...] [--seed N]
                      [--tolerance F]
  phishare workload   [--count N] [--dist ...] [--seed N]
                      [--format <csv|json>] [--out FILE]
  phishare sweep      [--policies mc,mcc,mcck] [--sizes 2,4,8] [--jobs N]
                      [--dist ...] [--seed N] [--substrate ...] [--pool ...]
                      [--workers N] [--dir DIR] [--resume] [--json]
                      Runs the (policy × size) grid. --workers 0 (default)
                      stays in-process; --workers N shards the grid across
                      N worker processes with fsync'd checkpoints in --dir,
                      resumable after a crash with --resume.
  phishare --worker   --dir DIR --worker-id K
                      Worker mode (spawned by sharded sweeps): claim and run
                      cells from DIR's manifest, checkpoint, exit.
  phishare help

Every command also reads the workload flags --seed, --dist, --arrivals and
--from; a flag a command does not read is an error.
";

/// Parsed `--key value` flags (and bare `--key` booleans).
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {arg:?}"))?;
            let takes_value = !matches!(key, "json" | "gantt" | "oracle" | "resume");
            let value = if takes_value {
                i += 1;
                args.get(i)
                    .ok_or_else(|| format!("--{key} needs a value"))?
                    .clone()
            } else {
                "true".into()
            };
            if map.insert(key.to_string(), value).is_some() {
                return Err(format!("--{key} is given more than once"));
            }
            i += 1;
        }
        Ok(Flags(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{key} {v:?}: {e}")),
        }
    }

    fn get_str(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(|s| s.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// Refuse any flag `command` does not read: besides `reads`, only the
    /// workload flags every command reads through [`build_workload`].
    fn check(&self, command: &str, reads: &[&str]) -> Result<(), String> {
        let known = |key: &str| reads.contains(&key) || WORKLOAD_FLAGS.contains(&key);
        match self.0.keys().find(|key| !known(key)) {
            Some(key) => Err(format!("{command} does not take --{key}")),
            None => Ok(()),
        }
    }
}

/// The flags [`build_workload`] reads (its count flag aside).
const WORKLOAD_FLAGS: [&str; 4] = ["seed", "from", "dist", "arrivals"];

type Command = fn(&Flags) -> Result<(), String>;

/// Each command and the other flags it reads.
const COMMANDS: [(&str, Command, &[&str]); 5] = [
    (
        "run",
        cmd_run,
        &[
            "policy",
            "jobs",
            "nodes",
            "negotiation",
            "substrate",
            "pool",
            "perturb",
            "fault-plan",
            "dump-fault-plan",
            "perturb-plan",
            "dump-perturb-plan",
            "json",
            "gantt",
        ],
    ),
    ("compare", cmd_compare, &["jobs", "nodes", "oracle"]),
    (
        "footprint",
        cmd_footprint,
        &["jobs", "max-nodes", "tolerance"],
    ),
    ("workload", cmd_workload, &["count", "format", "out"]),
    (
        "sweep",
        cmd_sweep,
        &[
            "policies",
            "sizes",
            "jobs",
            "substrate",
            "pool",
            "workers",
            "dir",
            "resume",
            "json",
        ],
    ),
];

fn build_workload(
    flags: &Flags,
    count_key: &str,
    default_count: usize,
) -> Result<Workload, String> {
    let seed: u64 = flags.get("seed", 7)?;
    if let Some(path) = flags.get_str("from") {
        if flags.has("arrivals") {
            return Err(
                "--arrivals cannot be combined with --from (CSV jobs arrive at zero)".into(),
            );
        }
        let csv = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return workload_from_csv(&csv, seed).map_err(|e| e.to_string());
    }
    let count: usize = flags.get(count_key, default_count)?;
    let kind = match flags.get_str("dist").unwrap_or("table1") {
        "table1" => WorkloadKind::Table1Mix,
        "uniform" => WorkloadKind::Synthetic(ResourceDist::Uniform, SyntheticParams::default()),
        "normal" => WorkloadKind::Synthetic(ResourceDist::Normal, SyntheticParams::default()),
        "low" => WorkloadKind::Synthetic(ResourceDist::LowSkew, SyntheticParams::default()),
        "high" => WorkloadKind::Synthetic(ResourceDist::HighSkew, SyntheticParams::default()),
        other => return Err(format!("unknown --dist {other:?}")),
    };
    let mut builder = WorkloadBuilder::new(kind).count(count).seed(seed);
    if let Some(spec) = flags.get_str("arrivals") {
        let arrivals: ArrivalProcess = spec.parse()?;
        builder = builder.arrivals(arrivals);
    }
    Ok(builder.build())
}

/// Resolve the run's fault and perturbation plans.
///
/// `--fault-plan` / `--perturb-plan` load committed JSON (replaying a
/// recorded failure); otherwise the plans are the ones the config
/// generates, exactly as a run without plan flags would use. The `--dump-*`
/// variants write the plans out so a chaotic run can be committed and
/// replayed later.
fn chaos_plans(flags: &Flags, config: &ClusterConfig) -> Result<(FaultPlan, PerturbPlan), String> {
    let faults = match flags.get_str("fault-plan") {
        Some(path) => {
            let s =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let plan = FaultPlan::from_json(&s)?;
            plan.validate(config)?;
            plan
        }
        None => FaultPlan::generate(config),
    };
    let perturbs = match flags.get_str("perturb-plan") {
        Some(path) => {
            let s =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let plan = PerturbPlan::from_json(&s)?;
            plan.validate(config)?;
            plan
        }
        None => PerturbPlan::generate(config),
    };
    if let Some(path) = flags.get_str("dump-fault-plan") {
        std::fs::write(path, faults.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote fault plan ({} events) to {path}", faults.len());
    }
    if let Some(path) = flags.get_str("dump-perturb-plan") {
        std::fs::write(path, perturbs.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote perturb plan ({} events) to {path}", perturbs.len());
    }
    Ok((faults, perturbs))
}

fn result_row(r: &phishare::cluster::ExperimentResult) -> Vec<String> {
    vec![
        r.policy.to_string(),
        secs(r.makespan_secs),
        pct(100.0 * r.core_utilization),
        secs(r.mean_wait_secs),
        format!("{}/{}", r.completed, r.jobs),
        format!("{:.2}", r.energy_kwh),
    ]
}

const RESULT_HEADER: [&str; 6] = [
    "Policy",
    "Makespan (s)",
    "Core util",
    "Mean wait (s)",
    "Completed",
    "Energy (kWh)",
];

fn cmd_run(flags: &Flags) -> Result<(), String> {
    let policy: ClusterPolicy = flags
        .get_str("policy")
        .ok_or("run requires --policy")?
        .parse()?;
    let nodes: u32 = flags.get("nodes", 8)?;
    let workload = build_workload(flags, "jobs", 400)?;
    let mut config = ClusterConfig::paper_cluster(policy)
        .with_nodes(nodes)
        .with_seed(flags.get("seed", 7)?);
    config.negotiation = flags.get("negotiation", MatchPath::default())?;
    config.pool = flags.get("pool", DevicePool::Uniform)?;
    if let Some(spec) = flags.get_str("perturb") {
        config.perturb = PerturbConfig::from_spec(spec)?;
    }
    let substrate: SubstrateMode = flags.get("substrate", SubstrateMode::Fast)?;
    let (faults, perturbs) = chaos_plans(flags, &config)?;
    let experiment = Experiment::new(&config, &workload)
        .substrate(substrate)
        .faults(&faults)
        .perturbs(&perturbs);

    if flags.has("gantt") {
        let (result, trace) = experiment.simulate_traced()?;
        println!("{}", table(&RESULT_HEADER, &[result_row(&result)]));
        print!("{}", trace.node_gantt(96));
        let violations = phishare::cluster::audit(&config, &workload, &result, &trace);
        if violations.is_empty() {
            println!("self-check: OK ({} trace events audited)", trace.len());
        } else {
            for v in &violations {
                eprintln!("self-check violation: {v}");
            }
            return Err(format!("{} self-check violations", violations.len()));
        }
        return Ok(());
    }
    let result = experiment.simulate()?;
    if flags.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&result).expect("result serializes")
        );
    } else {
        println!("{}", table(&RESULT_HEADER, &[result_row(&result)]));
    }
    Ok(())
}

fn cmd_compare(flags: &Flags) -> Result<(), String> {
    let nodes: u32 = flags.get("nodes", 8)?;
    let workload = build_workload(flags, "jobs", 400)?;
    let seed: u64 = flags.get("seed", 7)?;
    let policies: &[ClusterPolicy] = if flags.has("oracle") {
        &ClusterPolicy::WITH_ORACLE
    } else {
        &ClusterPolicy::ALL
    };
    let mut rows = Vec::new();
    let mut baseline: Option<f64> = None;
    for &policy in policies {
        let config = ClusterConfig::paper_cluster(policy)
            .with_nodes(nodes)
            .with_seed(seed);
        let r = Experiment::run(&config, &workload)?;
        let mut row = result_row(&r);
        row.push(match baseline {
            None => {
                baseline = Some(r.makespan_secs);
                "-".into()
            }
            Some(base) => pct(100.0 * (1.0 - r.makespan_secs / base)),
        });
        rows.push(row);
    }
    let mut header: Vec<&str> = RESULT_HEADER.to_vec();
    header.push("vs first");
    println!("{}", table(&header, &rows));
    Ok(())
}

fn cmd_footprint(flags: &Flags) -> Result<(), String> {
    let max_nodes: u32 = flags.get("max-nodes", 8)?;
    let tolerance: f64 = flags.get("tolerance", 0.02)?;
    let workload = build_workload(flags, "jobs", 400)?;
    let seed: u64 = flags.get("seed", 7)?;

    let mc = Experiment::run(
        &ClusterConfig::paper_cluster(ClusterPolicy::Mc)
            .with_nodes(max_nodes)
            .with_seed(seed),
        &workload,
    )?;
    println!(
        "baseline: MC on {max_nodes} nodes → makespan {:.0} s\n",
        mc.makespan_secs
    );
    let mut rows = Vec::new();
    for policy in [ClusterPolicy::Mcc, ClusterPolicy::Mcck] {
        let fp = footprint_search(
            &ClusterConfig::paper_cluster(policy).with_seed(seed),
            &workload,
            mc.makespan_secs,
            max_nodes,
            tolerance,
        )?;
        rows.push(vec![
            policy.to_string(),
            fp.nodes_required
                .map(|n| n.to_string())
                .unwrap_or_else(|| format!(">{max_nodes}")),
            fp.reduction_vs(max_nodes)
                .map(pct)
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!(
        "{}",
        table(&["Policy", "Nodes needed", "Footprint reduction"], &rows)
    );
    Ok(())
}

fn cmd_sweep(flags: &Flags) -> Result<(), String> {
    let policies: Vec<ClusterPolicy> = flags
        .get_str("policies")
        .unwrap_or("mc,mcc,mcck")
        .split(',')
        .map(|p| p.trim().parse())
        .collect::<Result<_, _>>()?;
    let sizes: Vec<u32> = flags
        .get_str("sizes")
        .unwrap_or("2,4,8")
        .split(',')
        .map(|n| {
            n.trim()
                .parse()
                .map_err(|e| format!("bad --sizes entry {n:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let seed: u64 = flags.get("seed", 7)?;
    let substrate: SubstrateMode = flags.get("substrate", SubstrateMode::Fast)?;
    let pool: DevicePool = flags.get("pool", DevicePool::Uniform)?;
    let workload = std::sync::Arc::new(build_workload(flags, "jobs", 200)?);

    let mut grid = Vec::new();
    for &policy in &policies {
        for &nodes in &sizes {
            let mut config = ClusterConfig::paper_cluster(policy)
                .with_nodes(nodes)
                .with_seed(seed);
            config.pool = pool;
            grid.push(SweepJob {
                label: format!("{policy}/{nodes}"),
                config,
                workload: std::sync::Arc::clone(&workload),
            });
        }
    }

    let workers: usize = flags.get("workers", 0)?;
    let results = if workers == 0 {
        // In-process thread sweep (the sharded path is bit-identical).
        phishare::cluster::run_sweep(grid, phishare::cluster::default_threads(), substrate)
    } else {
        let opts = ShardOptions {
            workers,
            worker_exe: std::env::current_exe()
                .map_err(|e| format!("cannot locate phishare for worker spawn: {e}"))?,
            dir: flags.get_str("dir").map(std::path::PathBuf::from),
            resume: flags.has("resume"),
            keep_dir: false,
            substrate,
        };
        phishare::cluster::run_sweep_sharded(grid, &opts)?
    };

    if flags.has("json") {
        // One CellRecord per cell — the same schema the checkpoint logs
        // use, so downstream tooling parses both.
        let records: Vec<CellRecord> = results
            .iter()
            .enumerate()
            .map(|(index, (label, outcome))| CellRecord {
                index,
                label: label.clone(),
                ok: outcome.as_ref().ok().cloned(),
                err: outcome.as_ref().err().cloned(),
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&records).expect("records serialize")
        );
        return Ok(());
    }
    let mut rows = Vec::new();
    for (label, outcome) in &results {
        match outcome {
            Ok(r) => {
                let mut row = vec![label.clone()];
                row.extend(result_row(r).into_iter().skip(1));
                rows.push(row);
            }
            Err(e) => rows.push(vec![label.clone(), format!("error: {e}")]),
        }
    }
    let mut header = RESULT_HEADER.to_vec();
    header[0] = "Cell";
    println!("{}", table(&header, &rows));
    Ok(())
}

fn cmd_workload(flags: &Flags) -> Result<(), String> {
    let workload = build_workload(flags, "count", 100)?;
    let rendered = match flags.get_str("format").unwrap_or("csv") {
        "csv" => workload_to_csv(&workload),
        "json" => workload.to_json(),
        other => return Err(format!("unknown --format {other:?}")),
    };
    match flags.get_str("out") {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {} jobs to {path}", workload.len());
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // Worker mode bypasses the command grammar: sharded sweeps spawn
    // `phishare --worker --dir <d> --worker-id <k>` (same convention as
    // the phishare-bench worker binary).
    if command == "--worker" {
        return match phishare::cluster::worker_main(&args) {
            Ok(ran) => {
                eprintln!("phishare worker done: {ran} cell(s) executed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = Flags::parse(rest).and_then(|flags| match command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        name => {
            let (_, run, reads) = COMMANDS
                .iter()
                .find(|(known, ..)| *known == name)
                .ok_or_else(|| format!("unknown command {name:?}\n\n{USAGE}"))?;
            flags.check(name, reads)?;
            run(&flags)
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

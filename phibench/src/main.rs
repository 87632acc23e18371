//! The phishare benchmark: one command per workload, printing every
//! metric with its unit as one JSON line, after checking the outputs.
//!
//! ```text
//! benchmark [run] --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark compare <parent.jsonl> <change.jsonl>
//! benchmark golden --workload <table2|dense_sweep|chaos_sweep>
//! benchmark --worker ...        (spawned by chaos_sweep's sharded sweeps)
//! ```
//!
//! See README.md for the workloads, metrics and how to compare commits.

mod compare;
mod host;
mod layers;
mod pool;
mod replay;
mod report;
mod sims;
mod spans;
mod stats;
mod traced;

use report::Outcome;
use sims::Kind;
use std::io::Write;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["table2", "dense_sweep", "pool_1e5", "chaos_sweep"];

/// The run command's arguments.
#[derive(Debug, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The simulation workload called `name`; `None` for `pool_1e5`.
fn kind(name: &str) -> Option<Kind> {
    [Kind::Table2, Kind::Dense, Kind::Chaos]
        .into_iter()
        .find(|k| k.name() == name)
}

/// Matchmaking screens run on one thread: the whole run stays on one core
/// (see `host::pin_to_one_core`). Results do not depend on these knobs.
const SERIAL_SCREENS: [&str; 2] = ["PHISHARE_NEGOTIATOR_SHARDS", "PHISHARE_PARTITION_THREADS"];

fn run(args: &RunArgs) -> Result<Outcome, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let core = host::pin_to_one_core()?;
    eprintln!(
        "knobs: cores={cores} pinned_core={core} partitions={} screen_threads={} negotiator_shards={} shard_workers={}",
        pool::PARTITIONS,
        phishare_condor::collector::partition_threads(pool::PARTITIONS),
        phishare_condor::Negotiator::default().shard_count(),
        sims::CHAOS_WORKERS,
    );
    let mut out = Outcome::default();
    let tracer = match kind(&args.workload) {
        Some(k) => sims::run(
            k,
            sims::full_size(k),
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        )?,
        None => pool::run(pool::FULL, args.seed, args.seconds, args.trace, &mut out)?,
    };
    if let Some(tracer) = tracer {
        let dir = sims::out_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-s{}.trace.json", args.workload, args.seed));
        std::fs::write(&path, tracer.to_json(&args.workload, args.seed))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(out)
}

fn main() -> ExitCode {
    // Set before any thread starts; worker processes inherit them.
    for var in SERIAL_SCREENS {
        std::env::set_var(var, "1");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run_line = |args: &[String]| -> Result<String, String> {
        let out = run(&parse_run(args)?)?;
        for p in &out.problems {
            eprintln!("check failed: {p}");
        }
        Ok(out.to_line() + "\n")
    };
    // What to print on stdout.
    let text: Result<String, String> = match args.first().map(String::as_str) {
        // Worker mode for the sharded sweeps of chaos_sweep.
        Some("--worker") => phishare_cluster::worker_main(&args).map(|_| String::new()),
        Some("compare") => compare::main(&args[1..]),
        Some("golden") => match args.get(1..) {
            Some([flag, w]) if flag == "--workload" => kind(w)
                .ok_or_else(|| format!("no golden results for {w:?}"))
                .and_then(sims::golden)
                .map(|json| json + "\n"),
            _ => Err("usage: benchmark golden --workload <table2|dense_sweep|chaos_sweep>".into()),
        },
        Some("run") => run_line(&args[1..]),
        _ => run_line(&args),
    };
    let written = text.and_then(|t| {
        let mut stdout = std::io::stdout().lock();
        stdout
            .write_all(t.as_bytes())
            .and_then(|()| stdout.flush())
            .map_err(|e| format!("cannot write to stdout: {e}"))
    });
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_flags_parse_and_reject() {
        let a = parse_run(&args(
            "--workload pool_1e5 --seed 11 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            RunArgs {
                workload: "pool_1e5".into(),
                seed: 11,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload table2 --seed x --seconds 1 --trace 0",
            "--workload table2 --seed 1 --seconds 0 --trace 0",
            "--workload table2 --seed 1 --seconds 1 --trace 2",
            "--workload table2 --seed 1 --seconds 1",
            "--workload table2 --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "accepted {bad}");
        }
    }
}

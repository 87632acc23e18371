//! The experiment runner and the sweep worker.
//!
//! `phishare-bench reproduce <artifact|all>` runs registry artifacts (see
//! `phishare_bench::registry`): it prints each table, writes
//! `target/experiments/<name>.json`, and rewrites each artifact's block
//! between `<!-- reproduce:NAME -->` and `<!-- /reproduce:NAME -->` in
//! EXPERIMENTS.md. It exits 1 when a cell fails, a check fails or a file
//! cannot be written.
//!
//! `run_sweep_sharded` spawns the same binary as
//! `phishare-bench --worker --dir <checkpoint dir> --worker-id <k>`; the
//! worker claims cells from the manifest through lease files, checkpoints
//! each finished cell to its fsync'd JSONL log, and exits 0 when the grid
//! is exhausted. That logic lives in `phishare_cluster::shard`; this binary
//! gives the benches and integration tests a worker executable
//! (`CARGO_BIN_EXE_phishare-bench`) to hand to `ShardOptions`.

use phishare_bench::registry::{find, rewrite_blocks, Artifact, ARTIFACTS};
use phishare_bench::save_json;
use std::process::ExitCode;

const USAGE: &str = "usage: phishare-bench reproduce <artifact|all>\n       \
                     phishare-bench --worker --dir <dir> --worker-id <k> [--partitions <p>]";

const EXPERIMENTS_MD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--worker") => match phishare_cluster::worker_main(&args) {
            Ok(ran) => {
                eprintln!("phishare-bench worker done: {ran} cell(s) executed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("phishare-bench worker failed: {e}");
                ExitCode::FAILURE
            }
        },
        Some("reproduce") if args.len() == 2 => {
            let selected: Vec<&Artifact> = match args[1].as_str() {
                "all" => ARTIFACTS.iter().collect(),
                name => find(name).into_iter().collect(),
            };
            if selected.is_empty() {
                let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
                eprintln!(
                    "unknown artifact {:?}; known: all, {}",
                    args[1],
                    names.join(", ")
                );
                return ExitCode::from(2);
            }
            let errors = reproduce(&selected);
            errors.iter().for_each(|e| eprintln!("error: {e}"));
            match errors.is_empty() {
                true => ExitCode::SUCCESS,
                false => ExitCode::FAILURE,
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Run, print and persist each artifact, then rewrite its EXPERIMENTS.md
/// block. A failed check still renders its table; every error is returned.
fn reproduce(selected: &[&Artifact]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut blocks = Vec::new();
    for a in selected {
        println!("=== {}: {} ===\n", a.name, a.title);
        let report = match a.run((a.grid)()) {
            Ok(report) => report,
            Err(e) => {
                errors.push(e);
                continue;
            }
        };
        let markdown = a.markdown(&report.table);
        println!("{markdown}");
        errors.extend(report.failures.iter().cloned());
        match save_json(a.name, &report) {
            Ok(path) => println!("[saved {}]\n", path.display()),
            Err(e) => errors.push(e),
        }
        blocks.push((a.name, markdown));
    }
    let doc = std::fs::read_to_string(EXPERIMENTS_MD)
        .map_err(|e| format!("cannot read {EXPERIMENTS_MD}: {e}"));
    let written = doc
        .and_then(|doc| rewrite_blocks(&doc, &blocks))
        .and_then(|doc| {
            std::fs::write(EXPERIMENTS_MD, doc)
                .map_err(|e| format!("cannot write {EXPERIMENTS_MD}: {e}"))
        });
    errors.extend(written.err());
    errors
}

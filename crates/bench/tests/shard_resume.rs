//! Kill-and-resume coverage for the process-sharded sweep engine.
//!
//! The engine's contract is that sharding, killing, and resuming are all
//! invisible in the output: a sharded sweep — even one whose worker was
//! SIGKILLed mid-grid and relaunched with resume — merges bit-identical to
//! the in-process `run_sweep` on the same grid. These tests exercise the
//! real worker binary (`CARGO_BIN_EXE_phishare-bench`) through real child
//! processes, plus a torn-final-record recovery case and proptests over
//! grid shape, substrate, worker count, and kill point.

use phishare_cluster::shard::{build_manifest, load_manifest, write_manifest};
use phishare_cluster::{
    run_sweep, run_sweep_sharded, ClusterConfig, ShardOptions, SubstrateMode, SweepJob,
    SweepOutcome,
};
use phishare_core::ClusterPolicy;
use phishare_workload::{Workload, WorkloadBuilder, WorkloadKind};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_phishare-bench"))
}

fn workload(jobs: usize, seed: u64) -> Arc<Workload> {
    Arc::new(
        WorkloadBuilder::new(WorkloadKind::Table1Mix)
            .count(jobs)
            .seed(seed)
            .build(),
    )
}

/// A grid of (policy × nodes) cells over one shared workload.
fn grid(jobs: usize, seed: u64, sizes: &[u32]) -> Vec<SweepJob> {
    let wl = workload(jobs, seed);
    [ClusterPolicy::Mcc, ClusterPolicy::Mcck]
        .iter()
        .flat_map(|&policy| {
            sizes.iter().map({
                let wl = Arc::clone(&wl);
                move |&nodes| SweepJob {
                    label: format!("{policy}/{nodes}"),
                    config: ClusterConfig::paper_cluster(policy).with_nodes(nodes),
                    workload: Arc::clone(&wl),
                }
            })
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "phishare-shard-resume-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(workers: usize, substrate: SubstrateMode, dir: Option<PathBuf>) -> ShardOptions {
    ShardOptions {
        workers,
        worker_exe: worker_exe(),
        dir,
        resume: false,
        keep_dir: false,
        substrate,
    }
}

/// Spawn one real worker on `dir`, SIGKILL it once its checkpoint log
/// holds at least `min_records` complete records, and return how many
/// records survived. Panics if the worker finishes the whole grid before
/// the kill lands (the grid must be big enough to catch it mid-run).
fn kill_worker_mid_sweep(dir: &Path, min_records: usize, total_cells: usize) -> usize {
    let mut child = std::process::Command::new(worker_exe())
        .arg("--worker")
        .arg("--dir")
        .arg(dir)
        .arg("--worker-id")
        .arg("0")
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("worker spawns");
    let log = dir.join("results-w0.jsonl");
    let deadline = Instant::now() + Duration::from_secs(120);
    let records = loop {
        assert!(
            Instant::now() < deadline,
            "worker never reached {min_records} checkpointed cells"
        );
        let count = std::fs::read_to_string(&log)
            .map(|text| text.lines().count())
            .unwrap_or(0);
        if count >= min_records {
            break count;
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("worker exited ({status}) before the kill; grid too small");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    // SIGKILL: no cleanup, no flush — exactly the crash the checkpoint
    // protocol must survive.
    child.kill().expect("kill worker");
    child.wait().expect("reap worker");
    assert!(
        records < total_cells,
        "worker finished all {total_cells} cells before the kill landed"
    );
    records
}

fn assert_identical(sharded: &[SweepOutcome], in_process: &[SweepOutcome]) {
    assert_eq!(sharded.len(), in_process.len());
    for ((sl, sr), (il, ir)) in sharded.iter().zip(in_process.iter()) {
        assert_eq!(sl, il, "cell order diverged");
        assert_eq!(sr, ir, "sharded sweep diverged from run_sweep on {sl}");
    }
}

#[test]
fn sharded_sweep_matches_in_process() {
    let jobs = grid(40, 11, &[2, 3, 4]);
    let sharded = run_sweep_sharded(jobs, &opts(2, SubstrateMode::Fast, None)).unwrap();
    assert_identical(
        &sharded,
        &run_sweep(grid(40, 11, &[2, 3, 4]), 1, SubstrateMode::Fast),
    );
}

#[test]
fn sharded_sweep_matches_in_process_on_keyed_substrate() {
    let jobs = grid(30, 3, &[2, 4]);
    let sharded = run_sweep_sharded(jobs, &opts(3, SubstrateMode::Keyed, None)).unwrap();
    let in_process = run_sweep(grid(30, 3, &[2, 4]), 1, SubstrateMode::Keyed);
    assert_identical(&sharded, &in_process);
}

#[test]
fn sigkilled_worker_resumes_bit_identical() {
    let dir = temp_dir("sigkill");
    let sizes = [2, 3, 4, 5, 6, 8];
    let jobs = grid(120, 7, &sizes);
    let cells = jobs.len();
    write_manifest(&dir, &build_manifest(&jobs, SubstrateMode::Fast)).unwrap();
    let survived = kill_worker_mid_sweep(&dir, 2, cells);
    assert!(survived >= 2);

    // Relaunch with resume: leases from the killed generation are cleared,
    // checkpointed cells are skipped, and the merge must be bit-identical
    // to a never-interrupted in-process sweep. (The merge hard-errors on
    // duplicate indices, so success also proves no cell ran twice.)
    let mut resume_opts = opts(2, SubstrateMode::Fast, Some(dir.clone()));
    resume_opts.resume = true;
    let resumed = run_sweep_sharded(grid(120, 7, &sizes), &resume_opts).unwrap();
    assert_identical(
        &resumed,
        &run_sweep(grid(120, 7, &sizes), 1, SubstrateMode::Fast),
    );

    // The resumed generation really skipped the survivors: worker 0's log
    // still holds its pre-kill records.
    let log0 = std::fs::read_to_string(dir.join("results-w0.jsonl")).unwrap();
    assert!(log0.lines().count() >= survived);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_final_record_resumes_bit_identical() {
    let dir = temp_dir("torn");
    let sizes = [2, 3, 4, 5, 6, 8];
    let jobs = grid(120, 9, &sizes);
    let cells = jobs.len();
    write_manifest(&dir, &build_manifest(&jobs, SubstrateMode::Fast)).unwrap();
    let survived = kill_worker_mid_sweep(&dir, 2, cells);

    // Simulate a torn final append on top of the kill: chop the log
    // mid-record. The resume must truncate the partial line away and
    // re-run that cell.
    let log = dir.join("results-w0.jsonl");
    let bytes = std::fs::read(&log).unwrap();
    assert!(bytes.len() > 40);
    std::fs::write(&log, &bytes[..bytes.len() - 37]).unwrap();

    let mut resume_opts = opts(2, SubstrateMode::Fast, Some(dir.clone()));
    resume_opts.resume = true;
    let resumed = run_sweep_sharded(grid(120, 9, &sizes), &resume_opts).unwrap();
    assert_identical(
        &resumed,
        &run_sweep(grid(120, 9, &sizes), 1, SubstrateMode::Fast),
    );
    let _ = survived;
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_rejects_a_different_grid() {
    let dir = temp_dir("mismatch");
    let jobs = grid(30, 3, &[2, 4]);
    write_manifest(&dir, &build_manifest(&jobs, SubstrateMode::Fast)).unwrap();
    assert!(load_manifest(&dir).is_ok());

    let mut resume_opts = opts(2, SubstrateMode::Fast, Some(dir.clone()));
    resume_opts.resume = true;
    // Different seed ⇒ different workload ⇒ the resume must refuse rather
    // than merge checkpoints from another experiment.
    let err = run_sweep_sharded(grid(30, 4, &[2, 4]), &resume_opts).unwrap_err();
    assert!(err.contains("mismatch"), "unexpected error: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharded ≡ in-process across grid shape, substrate, and fan-out.
    #[test]
    fn prop_sharded_matches_in_process(
        jobs in prop::sample::select(vec![15usize, 25, 40]),
        seed in 1u64..50,
        workers in 1usize..4,
        substrate in prop::sample::select(vec![SubstrateMode::Fast, SubstrateMode::Keyed]),
    ) {
        let sizes = [2u32, 3];
        let sharded =
            run_sweep_sharded(grid(jobs, seed, &sizes), &opts(workers, substrate, None)).unwrap();
        let in_process = run_sweep(grid(jobs, seed, &sizes), 1, substrate);
        prop_assert_eq!(sharded, in_process);
    }

    /// Kill at a random point, resume, and the merge is still identical.
    #[test]
    fn prop_kill_resume_matches_uninterrupted(
        seed in 1u64..50,
        kill_after in 1usize..4,
        resume_workers in 1usize..3,
    ) {
        let sizes = [2u32, 3, 4, 5, 6, 8];
        let dir = temp_dir(&format!("prop-{seed}-{kill_after}-{resume_workers}"));
        let jobs = grid(100, seed, &sizes);
        let cells = jobs.len();
        write_manifest(&dir, &build_manifest(&jobs, SubstrateMode::Fast)).unwrap();
        kill_worker_mid_sweep(&dir, kill_after, cells);

        let mut resume_opts = opts(resume_workers, SubstrateMode::Fast, Some(dir.clone()));
        resume_opts.resume = true;
        let resumed = run_sweep_sharded(grid(100, seed, &sizes), &resume_opts).unwrap();
        let uninterrupted = run_sweep(grid(100, seed, &sizes), 1, SubstrateMode::Fast);
        prop_assert_eq!(resumed, uninterrupted);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Process-sharded sweep engine with checkpoint/resume.
//!
//! [`crate::sweep`] fans a grid out over worker *threads*; this module fans
//! the same grid out over worker *processes*, so figure-scale studies can
//! outgrow one address space (and, with a shared filesystem, one machine)
//! without changing their results:
//!
//! 1. The parent serializes the grid into a JSON **manifest**: a small
//!    `manifest.json` (the substrate and one cell per grid index — label +
//!    config + workload reference) plus one `workloads/wl-<i>.json` file
//!    per deduplicated workload. Workloads live outside the cell manifest
//!    so a worker only ever deserializes the ones behind cells it actually
//!    claims, each once: per-worker load cost is the small cell list (a
//!    few hundred bytes per grid cell) plus one parse per distinct claimed
//!    workload, not the whole grid's bodies, which is what keeps weak
//!    scaling flat as the grid grows with the worker count. Bodies are
//!    large (a 400-job offload-dense workload is 9.4 MB of JSON), and the
//!    vendored serde streams them to and from text with no intermediate
//!    document tree: about 15 ms to write and 26 ms to load one on a
//!    2-core x86-64 host.
//! 2. It spawns N workers (`<exe> --worker --dir <dir> --worker-id <k>`).
//!    Workers claim cells work-stealing-style: an atomic
//!    `O_CREAT|O_EXCL` create of `leases/cell-<idx>.lease` is the claim, so
//!    each cell is executed by exactly one worker per generation.
//! 3. Each worker appends finished cells to its own `results-w<k>.jsonl`
//!    log — one fsync'd record per line — and every record carries the
//!    cell's grid index.
//! 4. The parent merges all logs through the same `OrderedSlots`
//!    submission-order reassembly the in-process sweep uses: duplicate
//!    indices and holes are hard errors, so a successful merge proves every
//!    cell ran exactly once.
//!
//! Because workers execute cells through the same
//! [`run_cell`](crate::sweep) body as the thread sweep and the merge is
//! index-ordered, a sharded sweep is **bit-identical** to
//! [`run_sweep`](crate::sweep::run_sweep) on the same grid — the sharded
//! path stays a differential oracle of the in-process one.
//!
//! **Checkpoint/resume:** the JSONL logs are the checkpoint. A killed sweep
//! relaunched with [`ShardOptions::resume`] re-verifies the manifest
//! against the rebuilt grid, clears stale leases, and spawns a fresh worker
//! generation that skips every cell already recorded — including repairing
//! a torn final record in a log (a partial line is truncated away and the
//! cell re-runs). The resumed merge is bit-identical to an uninterrupted
//! run.

use crate::config::ClusterConfig;
use crate::metrics::ExperimentResult;
use crate::runtime::{ExperimentScratch, SubstrateMode};
use crate::sweep::{run_cell, OrderedSlots, SweepJob, SweepOutcome};
use phishare_workload::Workload;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

/// One grid cell as persisted in the manifest. `workload` indexes into
/// [`ShardManifest::workloads`] (workloads are shared across cells, so the
/// manifest stores each distinct one once).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ManifestCell {
    /// Label reported back with the result.
    pub label: String,
    /// Cluster configuration for this cell.
    pub config: ClusterConfig,
    /// Index into the manifest's workload table.
    pub workload: usize,
}

/// The sweep grid a worker process reconstructs its jobs from. On disk
/// this splits into a small `manifest.json` (`ManifestHeader`) and one
/// `workloads/wl-<i>.json` per distinct workload, so workers can load
/// workloads lazily; in memory it carries everything.
#[derive(Debug, Clone)]
pub struct ShardManifest {
    /// Substrate mode for every cell, in its CLI spelling
    /// (round-trips through [`SubstrateMode::from_str`]).
    pub substrate: String,
    /// Distinct workloads, referenced by index from the cells.
    pub workloads: Vec<Workload>,
    /// The grid, in submission order.
    pub cells: Vec<ManifestCell>,
}

/// What `manifest.json` actually holds: everything except the workload
/// bodies, which sit in `workloads/wl-<i>.json` and are loaded on demand.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestHeader {
    substrate: String,
    workloads: usize,
    cells: Vec<ManifestCell>,
}

/// One fsync'd line of a worker's `results-w<k>.jsonl` checkpoint log.
/// Exactly one of `ok`/`err` is populated (both fields are always
/// serialized; the vendored serde treats a missing key as corruption).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRecord {
    /// Grid index of the cell (position in [`ShardManifest::cells`]).
    pub index: usize,
    /// The cell's label, re-checked against the manifest at merge time.
    pub label: String,
    /// The result, when the simulation succeeded.
    pub ok: Option<ExperimentResult>,
    /// The error string, when it failed.
    pub err: Option<String>,
}

/// How [`run_sweep_sharded`] lays out and drives a sharded sweep.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Worker processes to spawn (clamped to the cell count, min 1).
    pub workers: usize,
    /// Executable to spawn workers from; it must understand
    /// `--worker --dir <dir> --worker-id <k>` (both `phishare` and
    /// `phishare-bench` do).
    pub worker_exe: PathBuf,
    /// Checkpoint directory. `None` uses a fresh temp dir that is removed
    /// on success and kept (and printed in the error) on failure.
    pub dir: Option<PathBuf>,
    /// Resume a previous run in `dir`: verify the manifest still matches
    /// the grid, then skip every cell already checkpointed.
    pub resume: bool,
    /// Keep an auto temp dir even after a fully successful merge (for
    /// inspection). Caller-supplied dirs are always kept — the checkpoint
    /// belongs to whoever created the directory.
    pub keep_dir: bool,
    /// Substrate every cell runs on.
    pub substrate: SubstrateMode,
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

fn leases_dir(dir: &Path) -> PathBuf {
    dir.join("leases")
}

fn workload_path(dir: &Path, index: usize) -> PathBuf {
    dir.join("workloads").join(format!("wl-{index}.json"))
}

fn log_path(dir: &Path, worker_id: usize) -> PathBuf {
    dir.join(format!("results-w{worker_id}.jsonl"))
}

/// Build the manifest for a grid: deduplicate the `Arc<Workload>`s by
/// pointer identity and reference them by index from the cells.
pub fn build_manifest(jobs: &[SweepJob], substrate: SubstrateMode) -> ShardManifest {
    let mut workloads: Vec<Workload> = Vec::new();
    let mut by_ptr: HashMap<usize, usize> = HashMap::new();
    let cells = jobs
        .iter()
        .map(|job| {
            let ptr = Arc::as_ptr(&job.workload) as usize;
            let widx = *by_ptr.entry(ptr).or_insert_with(|| {
                workloads.push((*job.workload).clone());
                workloads.len() - 1
            });
            ManifestCell {
                label: job.label.clone(),
                config: job.config,
                workload: widx,
            }
        })
        .collect();
    ShardManifest {
        substrate: substrate.to_string(),
        workloads,
        cells,
    }
}

fn write_json_file<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let json = serde_json::to_string(value).map_err(|e| format!("serialize: {e}"))?;
    let mut file =
        File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    file.write_all(json.as_bytes())
        .and_then(|_| file.sync_data())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Create the checkpoint directory layout and persist the manifest: the
/// workload files first, then `manifest.json` as the commit point.
/// Refuses to overwrite an existing manifest — resuming is explicit.
pub fn write_manifest(dir: &Path, manifest: &ShardManifest) -> Result<(), String> {
    fs::create_dir_all(leases_dir(dir))
        .map_err(|e| format!("cannot create shard dir {}: {e}", dir.display()))?;
    fs::create_dir_all(dir.join("workloads"))
        .map_err(|e| format!("cannot create shard dir {}: {e}", dir.display()))?;
    let path = manifest_path(dir);
    if path.exists() {
        return Err(format!(
            "{} already holds a sweep manifest; pass resume to continue it",
            dir.display()
        ));
    }
    for (idx, workload) in manifest.workloads.iter().enumerate() {
        write_json_file(&workload_path(dir, idx), workload)?;
    }
    let header = ManifestHeader {
        substrate: manifest.substrate.clone(),
        workloads: manifest.workloads.len(),
        cells: manifest.cells.clone(),
    };
    write_json_file(&path, &header)
}

fn load_header(dir: &Path) -> Result<ManifestHeader, String> {
    let path = manifest_path(dir);
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("bad manifest {}: {e}", path.display()))
}

fn load_workload(dir: &Path, index: usize) -> Result<Workload, String> {
    let path = workload_path(dir, index);
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("bad workload {}: {e}", path.display()))
}

/// Load the full manifest of an existing checkpoint directory, workload
/// bodies included. Workers don't use this — they load the header and then
/// only the workloads behind cells they claim.
pub fn load_manifest(dir: &Path) -> Result<ShardManifest, String> {
    let header = load_header(dir)?;
    let workloads = (0..header.workloads)
        .map(|idx| load_workload(dir, idx))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ShardManifest {
        substrate: header.substrate,
        workloads,
        cells: header.cells,
    })
}

/// Parse one checkpoint log. Complete lines must parse as [`CellRecord`]s;
/// a torn *final* line (a crash mid-append, or a log truncated by the
/// recovery tests) is tolerated and reported via the second tuple element
/// so the caller can re-run that cell. Garbage anywhere else is corruption
/// and a hard error.
fn scan_log(path: &Path) -> Result<(Vec<CellRecord>, bool), String> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut records = Vec::new();
    let mut chunks = bytes.split(|&b| b == b'\n').peekable();
    let mut line_no = 0usize;
    while let Some(chunk) = chunks.next() {
        let is_last = chunks.peek().is_none();
        line_no += 1;
        if chunk.is_empty() {
            continue;
        }
        let parsed = std::str::from_utf8(chunk)
            .map_err(|e| e.to_string())
            .and_then(|line| serde_json::from_str::<CellRecord>(line).map_err(|e| e.to_string()));
        match parsed {
            Ok(record) => records.push(record),
            // Only the unterminated tail may be torn; it is simply not a
            // checkpoint yet.
            Err(_) if is_last => return Ok((records, true)),
            Err(e) => {
                return Err(format!(
                    "corrupt checkpoint record at {}:{line_no}: {e}",
                    path.display()
                ))
            }
        }
    }
    Ok((records, false))
}

/// Truncate a torn final record off this worker's own log so appends start
/// at a record boundary. (Records are single-`write` lines flushed with
/// `fsync`, so only the final line can ever be torn.)
fn repair_log(path: &Path) -> Result<(), String> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let keep = match bytes.iter().rposition(|&b| b == b'\n') {
        Some(pos) if pos + 1 < bytes.len() => pos + 1,
        None if !bytes.is_empty() => 0,
        _ => return Ok(()), // already ends at a record boundary
    };
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| format!("cannot open {} for repair: {e}", path.display()))?;
    file.set_len(keep as u64)
        .and_then(|_| file.sync_data())
        .map_err(|e| format!("cannot truncate {}: {e}", path.display()))
}

fn record_outcome(record: CellRecord) -> Result<(usize, SweepOutcome), String> {
    let CellRecord {
        index,
        label,
        ok,
        err,
    } = record;
    match (ok, err) {
        (Some(result), None) => Ok((index, (label, Ok(result)))),
        (None, Some(message)) => Ok((index, (label, Err(message)))),
        _ => Err(format!(
            "checkpoint record for cell {index} ({label:?}) must have exactly one of ok/err"
        )),
    }
}

/// Every checkpointed record across all worker logs in `dir`, in log order.
fn scan_all_logs(dir: &Path) -> Result<Vec<CellRecord>, String> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("results-w") && n.ends_with(".jsonl"))
        })
        .collect();
    paths.sort();
    let mut records = Vec::new();
    for path in paths {
        let (mut recs, _torn_tail) = scan_log(&path)?;
        records.append(&mut recs);
    }
    Ok(records)
}

/// Run one worker process's share of the sweep in `dir`: repair our own
/// log, skip everything already checkpointed, then claim cells through
/// lease files until the grid is exhausted. Returns the number of cells
/// this worker executed.
///
/// `partitions`, when set, overrides the collector partition count of
/// every cell this worker executes (the `--partitions` worker flag).
/// Results are partition-count-invariant, so two workers on the same grid
/// may use different values without corrupting the merge.
///
/// This is the body behind `--worker --dir <dir> --worker-id <k>`.
pub(crate) fn run_worker(
    dir: &Path,
    worker_id: usize,
    partitions: Option<usize>,
) -> Result<usize, String> {
    let header = load_header(dir)?;
    let substrate = SubstrateMode::from_str(&header.substrate)?;

    let own_log = log_path(dir, worker_id);
    repair_log(&own_log)?;
    let mut completed = vec![false; header.cells.len()];
    for record in scan_all_logs(dir)? {
        let Some(slot) = completed.get_mut(record.index) else {
            return Err(format!(
                "checkpoint record index {} out of range for {} cells",
                record.index,
                header.cells.len()
            ));
        };
        *slot = true;
    }

    let mut log = OpenOptions::new()
        .append(true)
        .create(true)
        .open(&own_log)
        .map_err(|e| format!("cannot open {}: {e}", own_log.display()))?;
    let leases = leases_dir(dir);
    let mut scratch = ExperimentScratch::new();
    // Workload bodies load lazily, only after winning a claim — a worker
    // never pays for cells another worker runs. Cells sharing a workload
    // share one materialization, exactly like the original grid.
    let mut workload_cache: HashMap<usize, Arc<Workload>> = HashMap::new();
    let mut ran = 0usize;
    for (idx, cell) in header.cells.iter().enumerate() {
        if completed[idx] {
            continue;
        }
        // The claim: O_CREAT|O_EXCL is atomic, so exactly one worker per
        // generation wins each cell.
        let lease = leases.join(format!("cell-{idx}.lease"));
        match OpenOptions::new().write(true).create_new(true).open(&lease) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(format!("cannot claim {}: {e}", lease.display())),
        }
        let workload = match workload_cache.get(&cell.workload) {
            Some(wl) => Arc::clone(wl),
            None => {
                let wl = Arc::new(load_workload(dir, cell.workload)?);
                workload_cache.insert(cell.workload, Arc::clone(&wl));
                wl
            }
        };
        let mut config = cell.config;
        if let Some(p) = partitions {
            config.partitions = p;
        }
        let job = SweepJob {
            label: cell.label.clone(),
            config,
            workload,
        };
        let outcome = run_cell(&job, substrate, &mut scratch);
        let record = CellRecord {
            index: idx,
            label: job.label.clone(),
            ok: outcome.as_ref().ok().cloned(),
            err: outcome.as_ref().err().cloned(),
        };
        let json = serde_json::to_string(&record).map_err(|e| format!("record serialize: {e}"))?;
        // One write for the whole line, then fsync: the record is either
        // durably whole or a torn tail the next generation truncates.
        log.write_all(format!("{json}\n").as_bytes())
            .and_then(|_| log.sync_data())
            .map_err(|e| format!("cannot checkpoint to {}: {e}", own_log.display()))?;
        ran += 1;
    }
    Ok(ran)
}

/// Parse the worker-mode command line shared by every binary that can be
/// spawned as a sweep worker:
/// `--worker --dir <dir> --worker-id <k> [--partitions <p>]`
/// (the leading `--worker` may or may not still be in `args`). Returns the
/// checkpoint dir, the worker id, and the optional collector-partition
/// override. `--partitions` is safe to vary per invocation because match
/// results are partition-count-invariant: it changes how fast cells run,
/// never what they report. When absent, each cell's own config decides.
pub(crate) fn parse_worker_args(
    args: &[String],
) -> Result<(PathBuf, usize, Option<usize>), String> {
    let mut dir: Option<PathBuf> = None;
    let mut worker_id: Option<usize> = None;
    let mut partitions: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--worker" => {}
            "--dir" => {
                let value = iter.next().ok_or("--dir needs a value")?;
                dir = Some(PathBuf::from(value));
            }
            "--worker-id" => {
                let value = iter.next().ok_or("--worker-id needs a value")?;
                worker_id = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| format!("bad --worker-id '{value}'"))?,
                );
            }
            "--partitions" => {
                let value = iter.next().ok_or("--partitions needs a value")?;
                let p = value
                    .parse::<usize>()
                    .map_err(|_| format!("bad --partitions '{value}'"))?;
                if p == 0 || p > phishare_condor::collector::MAX_PARTITIONS {
                    return Err(format!(
                        "--partitions must be 1..={}, got {p}",
                        phishare_condor::collector::MAX_PARTITIONS
                    ));
                }
                partitions = Some(p);
            }
            other => return Err(format!("unknown worker-mode flag '{other}'")),
        }
    }
    Ok((
        dir.ok_or("worker mode needs --dir <checkpoint dir>")?,
        worker_id.ok_or("worker mode needs --worker-id <n>")?,
        partitions,
    ))
}

/// The full worker-mode entry point: parse `args`, run our share of the
/// sweep, and report the executed-cell count on success. Binaries call
/// this when their first argument is `--worker`.
pub fn worker_main(args: &[String]) -> Result<usize, String> {
    let (dir, worker_id, partitions) = parse_worker_args(args)?;
    run_worker(&dir, worker_id, partitions)
}

/// Merge every worker log in `dir` back into submission order. Labels are
/// re-checked against the manifest, and — exactly like the in-process
/// collector — a duplicate index or a missing cell is a hard error, so a
/// successful merge proves each cell ran exactly once.
pub fn merge_results(dir: &Path) -> Result<Vec<SweepOutcome>, String> {
    let header = load_header(dir)?;
    let mut slots = OrderedSlots::new(header.cells.len());
    for record in scan_all_logs(dir)? {
        let (idx, outcome) = record_outcome(record)?;
        let expected = header
            .cells
            .get(idx)
            .map(|c| c.label.as_str())
            .unwrap_or("<out of range>");
        if outcome.0 != expected {
            return Err(format!(
                "checkpoint record for cell {idx} is labeled {:?} but the manifest says {:?}",
                outcome.0, expected
            ));
        }
        slots.insert(idx, outcome)?;
    }
    slots.finish()
}

/// Remove stale lease files so a fresh worker generation re-arbitrates
/// every not-yet-checkpointed cell (a worker killed after claiming but
/// before checkpointing must not orphan its cell).
fn clear_leases(dir: &Path) -> Result<(), String> {
    let leases = leases_dir(dir);
    fs::create_dir_all(&leases).map_err(|e| format!("cannot create {}: {e}", leases.display()))?;
    for entry in
        fs::read_dir(&leases).map_err(|e| format!("cannot list {}: {e}", leases.display()))?
    {
        let path = entry
            .map_err(|e| format!("cannot list {}: {e}", leases.display()))?
            .path();
        fs::remove_file(&path).map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Check that the manifest in a resumed directory still describes the grid
/// the caller rebuilt — same substrate, same cells, same workloads — so a
/// resume can never silently merge results from a different experiment.
fn verify_manifest(manifest: &ShardManifest, fresh: &ShardManifest) -> Result<(), String> {
    if manifest.substrate != fresh.substrate {
        return Err(format!(
            "resume substrate mismatch: checkpoint ran {:?}, caller wants {:?}",
            manifest.substrate, fresh.substrate
        ));
    }
    if manifest.cells.len() != fresh.cells.len() {
        return Err(format!(
            "resume grid mismatch: checkpoint has {} cells, caller built {}",
            manifest.cells.len(),
            fresh.cells.len()
        ));
    }
    for (idx, (old, new)) in manifest.cells.iter().zip(fresh.cells.iter()).enumerate() {
        if old.label != new.label || old.config != new.config {
            return Err(format!(
                "resume grid mismatch at cell {idx}: checkpoint has {:?}, caller built {:?}",
                old.label, new.label
            ));
        }
        let old_wl = manifest.workloads.get(old.workload);
        let new_wl = fresh.workloads.get(new.workload);
        match (old_wl, new_wl) {
            (Some(a), Some(b)) if a == b => {}
            _ => {
                return Err(format!(
                    "resume workload mismatch at cell {idx} ({:?})",
                    old.label
                ))
            }
        }
    }
    Ok(())
}

fn unique_temp_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    std::env::temp_dir().join(format!(
        "phishare-sweep-{}-{}-{nanos}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Run a sweep grid across worker processes and merge the results back
/// into submission order — bit-identical to
/// [`run_sweep`](crate::sweep::run_sweep) on the same grid.
///
/// Fresh runs write the manifest (refusing to clobber an existing one);
/// resumed runs verify it against the rebuilt grid and skip checkpointed
/// cells. Stale leases are always cleared before the worker generation
/// starts. On failure the checkpoint directory is kept so the sweep can be
/// resumed; an auto temp dir is removed only after a fully successful
/// merge.
pub fn run_sweep_sharded(
    jobs: Vec<SweepJob>,
    opts: &ShardOptions,
) -> Result<Vec<SweepOutcome>, String> {
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    let (dir, auto_dir) = match &opts.dir {
        Some(dir) => (dir.clone(), false),
        None => (unique_temp_dir(), true),
    };
    let fresh = build_manifest(&jobs, opts.substrate);
    if opts.resume {
        verify_manifest(&load_manifest(&dir)?, &fresh)?;
    } else {
        write_manifest(&dir, &fresh)?;
    }
    clear_leases(&dir)?;

    let workers = opts.workers.min(jobs.len()).max(1);
    let mut children = Vec::with_capacity(workers);
    for worker_id in 0..workers {
        let child = std::process::Command::new(&opts.worker_exe)
            .arg("--worker")
            .arg("--dir")
            .arg(&dir)
            .arg("--worker-id")
            .arg(worker_id.to_string())
            .spawn()
            .map_err(|e| {
                format!(
                    "cannot spawn worker {} from {}: {e}",
                    worker_id,
                    opts.worker_exe.display()
                )
            })?;
        children.push((worker_id, child));
    }
    let mut failures = Vec::new();
    for (worker_id, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failures.push(format!("worker {worker_id} exited with {status}")),
            Err(e) => failures.push(format!("worker {worker_id} could not be waited on: {e}")),
        }
    }
    if !failures.is_empty() {
        return Err(format!(
            "sharded sweep failed ({}); checkpoint kept at {} — rerun with resume",
            failures.join("; "),
            dir.display()
        ));
    }
    let merged = merge_results(&dir).map_err(|e| {
        format!(
            "{e}; checkpoint kept at {} — rerun with resume",
            dir.display()
        )
    })?;
    if auto_dir && !opts.keep_dir {
        let _ = fs::remove_dir_all(&dir);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishare_core::ClusterPolicy;
    use phishare_workload::{WorkloadBuilder, WorkloadKind};

    fn grid() -> Vec<SweepJob> {
        let wl = Arc::new(
            WorkloadBuilder::new(WorkloadKind::Table1Mix)
                .count(16)
                .seed(5)
                .build(),
        );
        [ClusterPolicy::Mcc, ClusterPolicy::Mcck]
            .iter()
            .flat_map(|&policy| {
                [2u32, 3].into_iter().map({
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("phishare-shard-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn manifest_round_trips() {
        let dir = temp_dir("roundtrip");
        let jobs = grid();
        let manifest = build_manifest(&jobs, SubstrateMode::Keyed);
        assert_eq!(manifest.substrate, "keyed");
        assert_eq!(manifest.workloads.len(), 1, "shared workload deduped");
        write_manifest(&dir, &manifest).unwrap();
        // The on-disk layout splits workload bodies out of the cell
        // manifest so workers can load them lazily.
        assert!(workload_path(&dir, 0).exists());
        let back = load_manifest(&dir).unwrap();
        assert_eq!(back.substrate, manifest.substrate);
        assert_eq!(back.workloads, manifest.workloads);
        assert_eq!(back.cells.len(), jobs.len());
        for (job, cell) in jobs.iter().zip(&back.cells) {
            assert_eq!(job.label, cell.label);
            assert_eq!(job.config, cell.config);
            assert_eq!(*job.workload, back.workloads[cell.workload]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_and_merge_match_in_process_sweep() {
        let dir = temp_dir("merge");
        let manifest = build_manifest(&grid(), SubstrateMode::Fast);
        write_manifest(&dir, &manifest).unwrap();
        // Two sequential worker "processes" in-process: the second finds
        // everything leased/checkpointed and runs nothing.
        let ran = run_worker(&dir, 0, None).unwrap();
        assert_eq!(ran, 4);
        assert_eq!(run_worker(&dir, 1, None).unwrap(), 0);
        let merged = merge_results(&dir).unwrap();
        let expected = crate::sweep::run_sweep(grid(), 1, SubstrateMode::Fast);
        assert_eq!(merged, expected, "sharded merge diverged from run_sweep");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partitioned_worker_merge_matches_unpartitioned_sweep() {
        let dir = temp_dir("parts");
        let manifest = build_manifest(&grid(), SubstrateMode::Fast);
        write_manifest(&dir, &manifest).unwrap();
        // Override every cell to 4 collector partitions: the merge must
        // still equal the serial, single-partition in-process sweep.
        assert_eq!(run_worker(&dir, 0, Some(4)).unwrap(), 4);
        let merged = merge_results(&dir).unwrap();
        assert_eq!(
            merged,
            crate::sweep::run_sweep(grid(), 1, SubstrateMode::Fast),
            "--partitions changed sweep results"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_args_parse_the_partitions_flag() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let (dir, id, parts) =
            parse_worker_args(&args("--worker --dir /tmp/x --worker-id 3 --partitions 8")).unwrap();
        assert_eq!(dir, PathBuf::from("/tmp/x"));
        assert_eq!(id, 3);
        assert_eq!(parts, Some(8));
        let (_, _, parts) = parse_worker_args(&args("--dir /tmp/x --worker-id 0")).unwrap();
        assert_eq!(parts, None);
        for bad in ["--partitions 0", "--partitions 17", "--partitions lots"] {
            let line = format!("--dir /tmp/x --worker-id 0 {bad}");
            assert!(parse_worker_args(&args(&line)).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn fresh_run_refuses_existing_manifest() {
        let dir = temp_dir("clobber");
        let manifest = build_manifest(&grid(), SubstrateMode::Fast);
        write_manifest(&dir, &manifest).unwrap();
        let err = write_manifest(&dir, &manifest).unwrap_err();
        assert!(err.contains("resume"), "unexpected error: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_skips_checkpointed_cells_after_lease_wipe() {
        let dir = temp_dir("resume");
        let manifest = build_manifest(&grid(), SubstrateMode::Fast);
        write_manifest(&dir, &manifest).unwrap();
        // First generation checkpoints everything...
        assert_eq!(run_worker(&dir, 0, None).unwrap(), 4);
        // ...a resume clears leases (simulated) and re-runs nothing.
        clear_leases(&dir).unwrap();
        assert_eq!(run_worker(&dir, 1, None).unwrap(), 0);
        let merged = merge_results(&dir).unwrap();
        assert_eq!(
            merged,
            crate::sweep::run_sweep(grid(), 1, SubstrateMode::Fast)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_record_is_repaired_and_rerun() {
        let dir = temp_dir("torn");
        let manifest = build_manifest(&grid(), SubstrateMode::Fast);
        write_manifest(&dir, &manifest).unwrap();
        assert_eq!(run_worker(&dir, 0, None).unwrap(), 4);
        // Tear the final record: chop the log mid-line.
        let log = log_path(&dir, 0);
        let bytes = fs::read(&log).unwrap();
        fs::write(&log, &bytes[..bytes.len() - 7]).unwrap();
        let (records, torn) = scan_log(&log).unwrap();
        assert_eq!(records.len(), 3);
        assert!(torn);
        // Next generation: leases cleared, the torn cell re-runs.
        clear_leases(&dir).unwrap();
        assert_eq!(run_worker(&dir, 0, None).unwrap(), 1);
        let merged = merge_results(&dir).unwrap();
        assert_eq!(
            merged,
            crate::sweep::run_sweep(grid(), 1, SubstrateMode::Fast)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_rejects_duplicate_records() {
        let dir = temp_dir("dup");
        let manifest = build_manifest(&grid(), SubstrateMode::Fast);
        write_manifest(&dir, &manifest).unwrap();
        assert_eq!(run_worker(&dir, 0, None).unwrap(), 4);
        // Forge a duplicate of the first record into a second log.
        let first_line = fs::read_to_string(log_path(&dir, 0))
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .to_string();
        fs::write(log_path(&dir, 1), format!("{first_line}\n")).unwrap();
        let err = merge_results(&dir).unwrap_err();
        assert!(err.contains("twice"), "unexpected error: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_rejects_label_drift() {
        let dir = temp_dir("label");
        let manifest = build_manifest(&grid(), SubstrateMode::Fast);
        write_manifest(&dir, &manifest).unwrap();
        assert_eq!(run_worker(&dir, 0, None).unwrap(), 4);
        let log = log_path(&dir, 0);
        let text = fs::read_to_string(&log)
            .unwrap()
            .replacen("MCC/2", "MCC/9", 1);
        fs::write(&log, text).unwrap();
        let err = merge_results(&dir).unwrap_err();
        assert!(err.contains("manifest says"), "unexpected error: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_verifies_grid_shape() {
        let manifest = build_manifest(&grid(), SubstrateMode::Fast);
        let mut other = manifest.clone();
        other.substrate = "keyed".to_string();
        assert!(verify_manifest(&manifest, &other)
            .unwrap_err()
            .contains("substrate"));
        let mut other = manifest.clone();
        other.cells.pop();
        assert!(verify_manifest(&manifest, &other)
            .unwrap_err()
            .contains("cells"));
        let mut other = manifest.clone();
        other.cells[1].label = "MCC/7".to_string();
        assert!(verify_manifest(&manifest, &other)
            .unwrap_err()
            .contains("cell 1"));
        assert!(verify_manifest(&manifest, &manifest.clone()).is_ok());
    }
}

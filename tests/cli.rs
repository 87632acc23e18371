//! Integration tests for the `phishare` command-line binary.

use phishare::sim::SimTime;
use phishare::workload::Workload;
use std::process::Command;

fn phishare(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_phishare"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn run_prints_a_result_table() {
    let out = phishare(&["run", "--policy", "mcck", "--jobs", "20", "--nodes", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MCCK"));
    assert!(stdout.contains("20/20"));
}

#[test]
fn run_json_emits_parseable_result() {
    let out = phishare(&[
        "run", "--policy", "mc", "--jobs", "10", "--nodes", "2", "--json",
    ]);
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    assert_eq!(v["policy"], "Mc");
    assert_eq!(v["completed"], 10);
    assert!(v["makespan_secs"].as_f64().unwrap() > 0.0);
}

#[test]
fn compare_covers_all_policies() {
    let out = phishare(&["compare", "--jobs", "15", "--nodes", "2"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for p in ["MC", "MCC", "MCCK"] {
        assert!(stdout.contains(p), "missing {p} in:\n{stdout}");
    }
    assert!(!stdout.contains("ORACLE"));
    let with_oracle = phishare(&["compare", "--jobs", "15", "--nodes", "2", "--oracle"]);
    assert!(String::from_utf8_lossy(&with_oracle.stdout).contains("ORACLE"));
}

#[test]
fn workload_round_trips_through_a_file() {
    let dir = std::env::temp_dir().join("phishare-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wl.csv");
    let out = phishare(&[
        "workload",
        "--count",
        "8",
        "--dist",
        "uniform",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    // Run the generated file.
    let out = phishare(&[
        "run",
        "--policy",
        "mcc",
        "--nodes",
        "2",
        "--from",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("8/8"));
}

#[test]
fn footprint_reports_nodes_needed() {
    let out = phishare(&["footprint", "--jobs", "30", "--max-nodes", "3"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("baseline: MC on 3 nodes"));
    assert!(stdout.contains("Nodes needed"));
}

#[test]
fn retired_keyed_substrate_is_refused() {
    for args in [
        &["run", "--policy", "mcc", "--substrate", "keyed"][..],
        &["sweep", "--substrate", "keyed"],
    ] {
        let out = phishare(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown substrate 'keyed' (expected fast, shared or shared-naive)"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn errors_are_reported_not_panicked() {
    let out = phishare(&["run"]); // missing --policy
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--policy"));

    let out = phishare(&["run", "--policy", "bogus"]);
    assert!(!out.status.success());

    let out = phishare(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = phishare(&["run", "--policy", "mc", "--jobs", "NaNaNaN"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));

    // A flag the command does not read — a typo, or one that belongs to
    // another command — is refused by name, not silently ignored.
    for (args, flag) in [
        (
            &["run", "--policy", "mcck", "--jobz", "10", "--nodes", "2"][..],
            "--jobz",
        ),
        (
            &["run", "--policy", "mcck", "--substrat", "shared"],
            "--substrat",
        ),
        (&["compare", "--substrate", "shared"], "--substrate"),
        (&["compare", "--pool", "gpu-mix"], "--pool"),
        (&["sweep", "--perturb", "derate:600:60:0.5"], "--perturb"),
    ] {
        let out = phishare(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let message = format!("{} does not take {flag}", args[0]);
        assert!(stderr.contains(&message), "{args:?}: {stderr}");
    }

    // A repeated flag is refused by name, not silently last-wins.
    for (args, flag) in [
        (
            &["run", "--policy", "mc", "--policy", "mcck"][..],
            "--policy",
        ),
        (
            &["run", "--policy", "mc", "--seed", "1", "--seed", "3"],
            "--seed",
        ),
        (&["run", "--policy", "mc", "--json", "--json"], "--json"),
    ] {
        let out = phishare(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let message = format!("{flag} is given more than once");
        assert!(stderr.contains(&message), "{args:?}: {stderr}");
    }

    // A hostile plan file nests past the JSON parser's depth limit: a
    // reported error and a normal exit, not a stack-overflow abort.
    let dir = std::env::temp_dir().join("phishare-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep-fault-plan.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let out = phishare(&[
        "run",
        "--policy",
        "mc",
        "--fault-plan",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("nesting deeper than"));

    // A hand-edited plan with a repeated key is refused, not silently
    // reduced to its last copy.
    let path = dir.join("duplicate-key-fault-plan.json");
    std::fs::write(&path, r#"{"events": [], "events": []}"#).unwrap();
    let out = phishare(&[
        "run",
        "--policy",
        "mc",
        "--fault-plan",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("duplicate field `events` in FaultPlan"));

    // CSV rows whose duration would overflow the simulated clock, or whose
    // offload count would exhaust memory, are rejected on their line.
    for (name, row) in [
        ("huge-duration.csv", "x,900,60,1e300,0.7,8"),
        ("huge-offloads.csv", "x,900,60,28,0.7,100000000000"),
    ] {
        let path = dir.join(name);
        let csv = format!("name,mem_mb,threads,duration_secs,duty_cycle,offloads\n{row}\n");
        std::fs::write(&path, csv).unwrap();
        let out = phishare(&[
            "run",
            "--from",
            path.to_str().unwrap(),
            "--policy",
            "mcck",
            "--nodes",
            "2",
        ]);
        assert_eq!(out.status.code(), Some(1), "{row}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("line 2"),
            "{row}"
        );
    }

    // Arrival and perturbation specs whose gaps round to zero ticks, whose
    // times overflow the simulated clock, or that would materialize
    // billions of windows are refused up front — not a panic, an abort or
    // a minutes-long run.
    for (flag, policy, spec) in [
        ("--arrivals", "mc", "poisson:1e-300"),
        ("--arrivals", "mc", "diurnal:1e-300:1:0.5"),
        ("--arrivals", "mc", "poisson:1e300"),
        ("--arrivals", "mc", "flash:1:1e12:0.5"),
        ("--perturb", "mcc", "latency:300:30:1e300"),
        ("--perturb", "mcc", "jitter:1e300"),
        ("--perturb", "mcc", "derate:600:60:0.5,horizon:1e12"),
        (
            "--perturb",
            "mcc",
            "derate:0.001:0.001:0.5,horizon:10000000",
        ),
    ] {
        let out = phishare(&[
            "run", "--policy", policy, "--jobs", "5", "--nodes", "1", flag, spec,
        ]);
        assert_eq!(out.status.code(), Some(1), "{flag} {spec}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(spec),
            "{flag} {spec}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Plan files whose times would overflow the simulated clock are
    // refused on the offending event.
    for (name, flag, plan) in [
        (
            "huge-downtime-fault-plan.json",
            "--fault-plan",
            r#"{"events": [{"kind": "DeviceReset", "node": 1, "device": 0, "at": 5000, "downtime": 18446744073709551615}]}"#,
        ),
        (
            "huge-at-fault-plan.json",
            "--fault-plan",
            r#"{"events": [{"kind": "NodeChurn", "node": 1, "device": 0, "at": 18446744073709551000, "downtime": 1000}]}"#,
        ),
        (
            "huge-duration-perturb-plan.json",
            "--perturb-plan",
            r#"{"events": [{"kind": "StaleAds", "node": 0, "device": 0, "at": 5000, "duration": 18446744073709551615}]}"#,
        ),
        (
            "huge-extra-perturb-plan.json",
            "--perturb-plan",
            r#"{"events": [{"kind": {"OffloadLatency": {"extra": 18446744073709551615}}, "node": 1, "device": 0, "at": 0, "duration": 100000}]}"#,
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, plan).unwrap();
        let out = phishare(&[
            "run",
            "--policy",
            "mcc",
            "--jobs",
            "5",
            "--nodes",
            "1",
            flag,
            path.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("plan event 0"), "{name}: {stderr}");
    }
}

/// Build a one-cell MCC checkpoint, hand-edit its stored workload with
/// `edit`, make the cell run again in a worker, and return the error the
/// worker records for it.
fn worker_err_after_editing(name: &str, edit: impl FnOnce(&mut Workload)) -> String {
    let dir = std::env::temp_dir().join(format!("phishare-cli-test-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    let out = phishare(&[
        "sweep",
        "--policies",
        "mcc",
        "--sizes",
        "2",
        "--jobs",
        "4",
        "--workers",
        "1",
        "--dir",
        d,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let wl_path = dir.join("workloads/wl-0.json");
    let mut wl = Workload::from_json(&std::fs::read_to_string(&wl_path).unwrap()).unwrap();
    edit(&mut wl);
    std::fs::write(&wl_path, wl.to_json()).unwrap();
    std::fs::remove_file(dir.join("results-w0.jsonl")).unwrap();
    std::fs::remove_dir_all(dir.join("leases")).unwrap();
    std::fs::create_dir(dir.join("leases")).unwrap();

    let out = phishare(&["--worker", "--dir", d, "--worker-id", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let log = std::fs::read_to_string(dir.join("results-w0.jsonl")).unwrap();
    let record: serde_json::Value = serde_json::from_str(log.trim()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    record["err"]
        .as_str()
        .expect("the cell is recorded as err")
        .to_string()
}

#[test]
fn sweep_worker_records_an_invalid_workload_as_err() {
    // Two jobs share an id.
    let err = worker_err_after_editing("duplicate-id", |wl| wl.jobs[1].id = wl.jobs[0].id);
    assert!(
        err.contains("invalid job J0") && err.contains("expected J1"),
        "{err}"
    );
}

#[test]
fn sweep_worker_records_a_missing_arrival_as_err() {
    let err = worker_err_after_editing("missing-arrival", |wl| {
        wl.arrivals.pop();
    });
    assert!(
        err.contains("invalid job J3") && err.contains("3 arrival times for 4 jobs"),
        "{err}"
    );
}

#[test]
fn sweep_worker_records_a_far_arrival_as_err() {
    let err = worker_err_after_editing("far-arrival", |wl| {
        wl.arrivals[2] = SimTime::from_ticks(18_446_744_073_709_551_000);
    });
    assert!(
        err.contains("invalid job J2") && err.contains("past the"),
        "{err}"
    );
}

#[test]
fn help_prints_usage() {
    let out = phishare(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

//! Integration tests for the `phishare` command-line binary.

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
}

#[test]
fn help_prints_usage() {
    let out = phishare(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

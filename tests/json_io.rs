//! JSON I/O: committed files re-serialize to their own bytes, large
//! workloads round-trip, and no mutation of a valid document can make a
//! loader panic or hang.

use phishare::cluster::{
    CellRecord, ClusterConfig, Experiment, ExperimentResult, FaultPlan, PerturbConfig, PerturbPlan,
    Trace,
};
use phishare::core::ClusterPolicy;
use phishare::workload::{
    ArrivalProcess, ResourceDist, SyntheticParams, Workload, WorkloadBuilder, WorkloadKind,
};
use proptest::prelude::*;
use serde_json::Value;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Offload-dense synthetic jobs, the shape of the benchmark's sweeps.
fn dense_workload(jobs: usize, offloads: (u32, u32), seed: u64) -> Workload {
    let params = SyntheticParams {
        mem_mb: (64, 160),
        threads: (4, 16),
        thread_jitter: 0.08,
        duty_cycle: (0.92, 0.97),
        offloads,
        duration_secs: (40.0, 100.0),
    };
    WorkloadBuilder::new(WorkloadKind::Synthetic(ResourceDist::Normal, params))
        .count(jobs)
        .seed(seed)
        .arrivals("bursty:10:5:0.2".parse::<ArrivalProcess>().unwrap())
        .build()
}

/// The committed `golden/workload_fixture.json`: a few dense jobs under
/// strings that need escaping and non-ASCII text, paired with the cluster
/// configuration they run under (for its floats).
fn fixture() -> (Workload, ClusterConfig) {
    let mut wl = dense_workload(3, (6, 9), 11);
    wl.label = "dense ✓ naïve — line\nbreak\u{1}end".to_string();
    wl.jobs[0].name = "KM-\"quoted\"\\tab\t😀".to_string();
    let mut config = ClusterConfig::paper_cluster(ClusterPolicy::Mcck).with_seed(11);
    config.initial_commit_fraction = 0.1 + 0.2;
    config.faults.device_mtbf_secs = 1.0 / 3.0;
    (wl, config)
}

#[test]
fn committed_goldens_reserialize_to_their_own_bytes() {
    for (name, text) in [
        ("table2", include_str!("../phibench/golden/table2.json")),
        (
            "dense_sweep",
            include_str!("../phibench/golden/dense_sweep.json"),
        ),
        (
            "chaos_sweep",
            include_str!("../phibench/golden/chaos_sweep.json"),
        ),
    ] {
        let records: Vec<CellRecord> = serde_json::from_str(text).unwrap();
        let again = serde_json::to_string_pretty(&records).unwrap() + "\n";
        assert!(again == text, "{name}: re-serialized bytes differ");
    }
    for (name, text) in [
        ("multi_card", include_str!("golden/multi_card.json")),
        ("shared_pool", include_str!("golden/shared_pool.json")),
    ] {
        let results: Vec<ExperimentResult> = serde_json::from_str(text).unwrap();
        let again = serde_json::to_string_pretty(&results).unwrap() + "\n";
        assert!(again == text, "{name}: re-serialized bytes differ");
    }
}

#[test]
fn workload_fixture_is_byte_identical() {
    let text = include_str!("golden/workload_fixture.json");
    assert_eq!(serde_json::to_string(&fixture()).unwrap(), text);
    let back: (Workload, ClusterConfig) = serde_json::from_str(text).unwrap();
    assert_eq!(back, fixture());
    assert_eq!(serde_json::to_string(&back).unwrap(), text);
}

#[test]
fn sweep_sized_workload_round_trips() {
    let wl = dense_workload(400, (256, 512), 7);
    let text = wl.to_json();
    assert_eq!(Workload::from_json(&text).unwrap(), wl);
}

/// One valid document per loader, built once.
fn documents() -> &'static [(&'static str, String)] {
    static DOCS: OnceLock<Vec<(&'static str, String)>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let wl = dense_workload(4, (3, 5), 5);
        let mut config = ClusterConfig::paper_cluster(ClusterPolicy::Mcck)
            .with_nodes(2)
            .with_seed(5);
        config.faults.device_mtbf_secs = 300.0;
        config.faults.node_mtbf_secs = 900.0;
        config.faults.horizon_secs = 1200.0;
        config.perturb =
            PerturbConfig::from_spec("derate:120:60:0.4,latency:90:45:2,horizon:1200").unwrap();
        let faults = FaultPlan::generate(&config);
        let perturbs = PerturbPlan::generate(&config);
        assert!(!faults.is_empty() && !perturbs.is_empty());
        let (result, trace) = Experiment::new(&config, &wl).simulate_traced().unwrap();
        let record = CellRecord {
            index: 3,
            label: "MCCK/é".to_string(),
            ok: Some(result),
            err: Some("line\nbreak".to_string()),
        };
        let value = r#"{"a": [1, -2, 3.5e-3, true, null, "\u00e9\n"], "b": {"c": {}}, "d": []}"#;
        vec![
            ("workload", wl.to_json()),
            ("fault plan", faults.to_json()),
            ("perturb plan", perturbs.to_json()),
            ("trace", trace.to_json()),
            ("cell record", serde_json::to_string(&record).unwrap()),
            ("value", value.to_string()),
        ]
    })
}

/// Run a document through its loader: `Ok(true)` when it loads.
fn load(kind: &str, bytes: &[u8]) -> Result<bool, String> {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return Ok(false);
    };
    Ok(match kind {
        "workload" => Workload::from_json(text).is_ok(),
        "fault plan" => FaultPlan::from_json(text).is_ok(),
        "perturb plan" => PerturbPlan::from_json(text).is_ok(),
        "trace" => Trace::from_json(text).is_ok(),
        "cell record" => serde_json::from_str::<CellRecord>(text).is_ok(),
        "value" => serde_json::from_str::<Value>(text).is_ok(),
        other => return Err(format!("no loader for {other}")),
    })
}

#[test]
fn valid_documents_load() {
    for (kind, doc) in documents() {
        assert_eq!(load(kind, doc.as_bytes()), Ok(true), "{kind}");
    }
}

#[test]
fn deep_values_under_unknown_keys_are_skipped_or_refused() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    for (kind, doc) in documents() {
        // Every document is an object: prepend an unknown member.
        let with = |member: &str| format!("{{\"zz_unknown\":{member},{}", &doc[1..]);
        assert_eq!(
            load(kind, with(&nested(100)).as_bytes()),
            Ok(true),
            "{kind}"
        );
        let deep = with(&nested(100_000));
        assert_eq!(load(kind, deep.as_bytes()), Ok(false), "{kind}");
    }
    let deep = format!("{{\"zz_unknown\":{},\"events\":[]}}", nested(100_000));
    let err = FaultPlan::from_json(&deep).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");
}

/// A byte-level edit: flip bits, insert a byte, delete a run, or truncate.
#[derive(Debug, Clone)]
enum Mutation {
    Flip(u64, u8),
    Insert(u64, u8),
    Delete(u64, u8),
    Truncate(u64),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<u64>(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip(at, mask)),
        (
            any::<u64>(),
            prop::sample::select(b"{}[]\",:\\0-.eEtfnu \x01\xff".to_vec())
        )
            .prop_map(|(at, b)| Mutation::Insert(at, b)),
        (any::<u64>(), 1u8..=16).prop_map(|(at, len)| Mutation::Delete(at, len)),
        any::<u64>().prop_map(Mutation::Truncate),
    ]
}

fn mutate(doc: &str, mutations: &[Mutation]) -> Vec<u8> {
    let mut bytes = doc.as_bytes().to_vec();
    for m in mutations {
        let at = |i: u64, len: usize| (i % (len as u64 + 1)) as usize;
        match *m {
            Mutation::Flip(i, mask) if !bytes.is_empty() => {
                let i = at(i, bytes.len() - 1);
                bytes[i] ^= mask;
            }
            Mutation::Flip(..) => {}
            Mutation::Insert(i, b) => bytes.insert(at(i, bytes.len()), b),
            Mutation::Delete(i, len) => {
                let start = at(i, bytes.len());
                let end = (start + len as usize).min(bytes.len());
                bytes.drain(start..end);
            }
            Mutation::Truncate(i) => bytes.truncate(at(i, bytes.len())),
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Mutated documents load or fail with an error, within a time bound,
    /// and never panic.
    #[test]
    fn mutated_documents_never_panic_or_hang(
        doc in 0usize..6,
        mutations in prop::collection::vec(arb_mutation(), 1..6),
    ) {
        let (kind, text) = &documents()[doc];
        let bytes = mutate(text, &mutations);
        let start = Instant::now();
        let loaded = load(kind, &bytes);
        prop_assert!(loaded.is_ok(), "{loaded:?}");
        prop_assert!(
            start.elapsed() < Duration::from_secs(2),
            "{kind}: took {:?}",
            start.elapsed()
        );
    }
}

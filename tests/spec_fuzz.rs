//! Input grammars: no byte mutation of a valid command-line spec, workload
//! CSV or ClassAd can make a parser panic or hang, and every input a
//! parser accepts materializes without a panic.
//!
//! The grammars are the `--arrivals`, `--perturb`, `--substrate`,
//! `--negotiation`, `--pool` and `--policy` values, the workload CSV schema
//! of `phishare run --from`, and ClassAd source.

use phishare::classad::parse_ad;
use phishare::cluster::{ClusterConfig, DevicePool, PerturbConfig, PerturbPlan, SubstrateMode};
use phishare::condor::MatchPath;
use phishare::core::ClusterPolicy;
use phishare::workload::{workload_from_csv, ArrivalProcess, WorkloadBuilder, WorkloadKind};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Valid specs per grammar, as the CLI accepts them.
const SPECS: &[(&str, &str)] = &[
    ("arrivals", "zero"),
    ("arrivals", "poisson:2.5"),
    ("arrivals", "diurnal:2:120:0.7"),
    ("arrivals", "bursty:10:5:0.2"),
    ("arrivals", "flash:2:45:0.3"),
    (
        "perturb",
        "derate:120:60:0.4,latency:90:45:2,stale-ads:90:60,jitter:3,horizon:3600",
    ),
    ("perturb", "derate:600:60:0.5,horizon:1000"),
    ("perturb", "stale-ads:400:45"),
    ("substrate", "shared-naive"),
    ("negotiation", "delta"),
    ("pool", "phi7120-mix"),
    ("policy", "mcck"),
    (
        "csv",
        "name,mem_mb,threads,duration_secs,duty_cycle,offloads\n\
         KM-batch-1,900,60,28.5,0.7,8\n\
         BT-2,1200,120,40,,\n\
         SG-3,500,240,5,0.5,2\n",
    ),
    (
        "classad",
        "[ Name = \"slot1@node3\"; PhiMemory = 7680; PhiThreads = 240; \
         Requirements = TARGET.RequestPhiMemory <= MY.PhiMemory && \
         (TARGET.RequestPhiThreads <= PhiThreads || Name == \"slot2@node3\"); ]",
    ),
];

/// The fixed peer that an accepted ClassAd's `Requirements` is evaluated
/// against.
const PEER_AD: &str = "[ Name = \"job7\"; RequestPhiMemory = 900; RequestPhiThreads = 60; \
                       Requirements = TARGET.PhiMemory >= MY.RequestPhiMemory; ]";

/// Tokens a mutation may insert: the grammars' separators (CSV lines and
/// ClassAd statements included) and the number shapes that have broken
/// parsers before (zero-tick gaps, clock-overflowing times, non-finite
/// values).
const TOKENS: &[&str] = &[
    ":", ",", ".", "-", "+", "e", "0", "1", "9", " ", "e300", "e-300", "1e12", "0.0001", "inf",
    "NaN", "\u{ff}", "\n", ";", "[", "]", "(", "\"", "==",
];

/// A byte-level edit: flip bits, insert a token, delete a run, or truncate.
#[derive(Debug, Clone)]
enum Mutation {
    Flip(u64, u8),
    Insert(u64, &'static str),
    Delete(u64, u8),
    Truncate(u64),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        1 => (any::<u64>(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip(at, mask)),
        3 => (any::<u64>(), prop::sample::select(TOKENS.to_vec()))
            .prop_map(|(at, token)| Mutation::Insert(at, token)),
        1 => (any::<u64>(), 1u8..=8).prop_map(|(at, len)| Mutation::Delete(at, len)),
        1 => any::<u64>().prop_map(Mutation::Truncate),
    ]
}

fn mutate(spec: &str, mutations: &[Mutation]) -> Vec<u8> {
    let mut bytes = spec.as_bytes().to_vec();
    for m in mutations {
        let at = |i: u64, len: usize| (i % (len as u64 + 1)) as usize;
        match *m {
            Mutation::Flip(i, mask) if !bytes.is_empty() => {
                let i = at(i, bytes.len() - 1);
                bytes[i] ^= mask;
            }
            Mutation::Flip(..) => {}
            Mutation::Insert(i, token) => {
                let i = at(i, bytes.len());
                bytes.splice(i..i, token.bytes());
            }
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

/// Parse `text` with the `grammar` parser; an accepted arrival or perturb
/// spec is also materialized for a 5-job, 1-node configuration, an
/// accepted CSV workload validated, and an accepted ad matched against
/// [`PEER_AD`]. Returns whether the input was accepted.
fn parse_and_materialize(grammar: &str, text: &str) -> bool {
    match grammar {
        "arrivals" => match text.parse::<ArrivalProcess>() {
            Ok(arrivals) => {
                let wl = WorkloadBuilder::new(WorkloadKind::Table1Mix)
                    .count(5)
                    .seed(7)
                    .arrivals(arrivals)
                    .build();
                assert_eq!(wl.arrivals.len(), 5);
                true
            }
            Err(_) => false,
        },
        "perturb" => match PerturbConfig::from_spec(text) {
            Ok(perturb) => {
                let mut config = ClusterConfig::paper_cluster(ClusterPolicy::Mcc).with_nodes(1);
                config.perturb = perturb;
                let plan = PerturbPlan::generate(&config);
                assert!(plan.events.windows(2).all(|w| w[0].at <= w[1].at));
                true
            }
            Err(_) => false,
        },
        "substrate" => text.parse::<SubstrateMode>().is_ok(),
        "negotiation" => text.parse::<MatchPath>().is_ok(),
        "pool" => text.parse::<DevicePool>().is_ok(),
        "policy" => text.parse::<ClusterPolicy>().is_ok(),
        "csv" => match workload_from_csv(text, 7) {
            Ok(wl) => {
                assert_eq!(wl.validate(), Ok(()), "{text:?}");
                true
            }
            Err(_) => false,
        },
        "classad" => match parse_ad(text) {
            Ok(ad) => {
                let peer = parse_ad(PEER_AD).expect("the peer ad parses");
                ad.matches(&peer);
                true
            }
            Err(_) => false,
        },
        other => panic!("no parser for {other}"),
    }
}

#[test]
fn valid_specs_parse() {
    for &(grammar, spec) in SPECS {
        assert!(parse_and_materialize(grammar, spec), "{grammar} {spec}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Mutated inputs parse or fail with an error — and accepted ones
    /// materialize — within a time bound, never panicking.
    #[test]
    fn mutated_specs_never_panic_or_hang(
        spec in 0..SPECS.len(),
        mutations in prop::collection::vec(arb_mutation(), 1..4),
    ) {
        let (grammar, text) = SPECS[spec];
        let bytes = mutate(text, &mutations);
        let Ok(mutated) = std::str::from_utf8(&bytes) else {
            return Ok(());
        };
        let start = Instant::now();
        parse_and_materialize(grammar, mutated);
        prop_assert!(
            start.elapsed() < Duration::from_secs(2),
            "{grammar} {mutated:?}: took {:?}",
            start.elapsed()
        );
    }
}

//! Why sharing needs a guard: demonstrate the raw-MPSS failure modes the
//! paper's §II-C describes — thread oversubscription slowing offloads ~8×,
//! and memory oversubscription waking the OOM killer — and how COSMIC's
//! admission control avoids both.
//!
//! ```sh
//! cargo run --release --example oversubscription_demo
//! ```

use phishare::cosmic::{Admission, CosmicConfig, CosmicDevice, CosmicSubstrate};
use phishare::phi::{
    Affinity, CommitOutcome, DeviceSubstrate, PerfModel, PhiConfig, PhiDevice, ProcId,
};
use phishare::sim::{DetRng, SimDuration, SimTime};
use phishare::workload::JobId;

fn main() {
    let phi = PhiConfig::default();
    let mut rng = DetRng::from_seed(5);
    let work = SimDuration::from_secs(10);

    println!("— thread oversubscription (raw MPSS) —");
    let mut device = PhiDevice::new(phi, PerfModel::default(), SimTime::ZERO);
    for p in 1..=2u64 {
        let (slot, _) = device.attach(SimTime::ZERO, ProcId(p), 1000, 240, 500, &mut rng);
        device.start_offload(SimTime::ZERO, slot, 240, work, Affinity::Unmanaged);
    }
    device.for_each_completion(|proc, at| {
        println!(
            "  {proc}: 10 s of nominal work completes at t={:.1} s ({:.0}% slowdown)",
            at.as_secs_f64(),
            100.0 * (at.as_secs_f64() / 10.0 - 1.0)
        );
    });

    println!("\n— the same two offloads under COSMIC —");
    let mut device = PhiDevice::new(phi, PerfModel::default(), SimTime::ZERO);
    let mut cosmic = CosmicDevice::new(CosmicConfig::default(), &phi);
    let mut handles = Vec::new();
    for p in 1..=2u64 {
        let (slot, _) = device.attach(SimTime::ZERO, ProcId(p), 1000, 240, 500, &mut rng);
        handles.push((p, slot, cosmic.register(JobId(p), 1000, 240)));
    }
    for (p, slot, job) in handles {
        match cosmic.request_offload(SimTime::ZERO, job, 240, work) {
            Admission::Started(grant) => {
                device.start_offload(
                    SimTime::ZERO,
                    slot,
                    grant.threads,
                    grant.work,
                    grant.affinity,
                );
                println!("  J{p}: admitted immediately, runs at full rate");
            }
            Admission::Queued => {
                println!("  J{p}: queued — COSMIC serializes to avoid oversubscription");
            }
        }
    }
    device.for_each_completion(|proc, at| {
        println!(
            "  {proc}: completes at t={:.1} s (no slowdown)",
            at.as_secs_f64()
        );
    });

    println!("\n— memory oversubscription (raw MPSS) —");
    let mut device = PhiDevice::new(phi, PerfModel::default(), SimTime::ZERO);
    let mut attached = 0;
    let mut killed = 0;
    for p in 1..=4u64 {
        match device
            .attach(SimTime::ZERO, ProcId(p), 2500, 60, 2500, &mut rng)
            .1
        {
            CommitOutcome::Fits => {
                attached += 1;
                println!("  {}: commits 2500 MB — fits", ProcId(p));
            }
            CommitOutcome::OomKilled(victims) => {
                attached += 1;
                killed += victims.len();
                for v in victims {
                    println!(
                        "  {}: commit oversubscribes {} MB of physical memory → OOM killer terminates {v}",
                        ProcId(p),
                        phi.usable_mem_mb()
                    );
                }
            }
        }
    }
    println!(
        "  result: {attached} processes attached, {killed} randomly killed — \
         \"arbitrary process crashes\" (§II-C)"
    );
    println!(
        "\n  COSMIC's containers instead kill only jobs exceeding their own declared\n\
         limit, and the knapsack scheduler never over-packs declared memory, so\n\
         physical oversubscription cannot occur under MCCK."
    );
}

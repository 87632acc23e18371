//! Reproduce the paper's Figs. 2 and 3: two offload jobs sharing one Xeon
//! Phi, first with *maximal* (240-thread) offloads that can only interleave
//! into each other's host gaps, then with *partial* (120-thread) offloads
//! that overlap outright.
//!
//! Prints an ASCII Gantt chart per scenario and compares the sequential
//! makespan with the concurrent one.
//!
//! ```sh
//! cargo run --release --example sharing_timeline
//! ```

use phishare::cosmic::{Admission, CosmicConfig, CosmicDevice, CosmicSubstrate, JobSlot};
use phishare::phi::{DeviceSubstrate, PerfModel, PhiConfig, PhiDevice, ProcId, ProcSlot};
use phishare::sim::{DetRng, Sim, SimDuration, SimTime};
use phishare::workload::{JobId, JobProfile, Segment};
use std::collections::BTreeMap;

/// Recorded offload execution interval.
struct Span {
    job: JobId,
    start: SimTime,
    end: SimTime,
    threads: u32,
}

#[derive(Debug)]
enum Ev {
    HostDone { job: JobId, seg: usize },
    OffloadDone { job: JobId, generation: u64 },
}

/// Run a set of jobs concurrently on one COSMIC-managed device; returns the
/// offload spans and the makespan.
fn run_concurrent(profiles: &[(JobId, JobProfile)]) -> (Vec<Span>, SimTime) {
    let phi = PhiConfig::default();
    let mut device = PhiDevice::new(phi, PerfModel::default(), SimTime::ZERO);
    let mut cosmic = CosmicDevice::new(CosmicConfig::default(), &phi);
    let mut rng = DetRng::from_seed(1);
    let mut sim: Sim<Ev> = Sim::new();

    // Each job's device and middleware handles, resolved once.
    let mut handles: BTreeMap<JobId, (ProcSlot, JobSlot)> = BTreeMap::new();
    let mut seg_of = BTreeMap::new();
    let mut started_at = BTreeMap::new();
    let mut spans = Vec::new();
    let mut makespan = SimTime::ZERO;
    let mut grants = Vec::new();

    for (job, profile) in profiles {
        let threads = profile.max_threads();
        let (slot, _) = device.attach(
            SimTime::ZERO,
            ProcId(job.raw()),
            1000,
            threads,
            500,
            &mut rng,
        );
        handles.insert(*job, (slot, cosmic.register(*job, 1000, threads)));
        seg_of.insert(*job, 0usize);
    }

    // Kick off segment 0 of every job.
    let mut pending_starts: Vec<JobId> = profiles.iter().map(|(j, _)| *j).collect();

    loop {
        // Start segments for jobs whose turn it is.
        for job in pending_starts.drain(..) {
            let profile = &profiles.iter().find(|(j, _)| *j == job).unwrap().1;
            let (slot, cslot) = handles[&job];
            match profile.segments.get(seg_of[&job]) {
                None => {
                    device.detach(sim.now(), slot);
                    cosmic.unregister_into(sim.now(), job, &mut grants);
                    makespan = sim.now();
                }
                Some(Segment::Host { duration }) => {
                    let seg = seg_of[&job];
                    sim.schedule_after(*duration, Ev::HostDone { job, seg });
                }
                Some(Segment::Offload { threads, work }) => {
                    if let Admission::Started(grant) =
                        cosmic.request_offload(sim.now(), cslot, *threads, *work)
                    {
                        grants.push(grant);
                    }
                }
            }
        }
        // Start every offload COSMIC granted.
        for grant in grants.drain(..) {
            device.start_offload(
                sim.now(),
                handles[&grant.job].0,
                grant.threads,
                grant.work,
                grant.affinity,
            );
            started_at.insert(grant.job, (sim.now(), grant.threads));
        }
        // Re-sync completion predictions.
        let generation = device.generation();
        device.for_each_completion(|proc, at| {
            let job = JobId(proc.raw());
            sim.schedule_at(at, Ev::OffloadDone { job, generation });
        });

        let Some(ev) = sim.step() else { break };
        match ev {
            Ev::HostDone { job, seg } => {
                if seg_of[&job] != seg {
                    continue;
                }
                *seg_of.get_mut(&job).unwrap() += 1;
                pending_starts.push(job);
            }
            Ev::OffloadDone { job, generation } => {
                if device.generation() != generation || !started_at.contains_key(&job) {
                    continue;
                }
                let (slot, cslot) = handles[&job];
                device.finish_offload(sim.now(), slot);
                let (start, threads) = started_at.remove(&job).unwrap();
                spans.push(Span {
                    job,
                    start,
                    end: sim.now(),
                    threads,
                });
                cosmic.complete_offload_into(sim.now(), cslot, &mut grants);
                *seg_of.get_mut(&job).unwrap() += 1;
                pending_starts.push(job);
            }
        }
    }
    (spans, makespan)
}

fn gantt(title: &str, profiles: &[(JobId, JobProfile)], spans: &[Span], makespan: SimTime) {
    const WIDTH: usize = 72;
    println!("{title}");
    let scale = WIDTH as f64 / makespan.as_secs_f64();
    for (job, _) in profiles {
        let mut row = vec!['.'; WIDTH];
        for span in spans.iter().filter(|s| s.job == *job) {
            let a = (span.start.as_secs_f64() * scale) as usize;
            let b = ((span.end.as_secs_f64() * scale) as usize).min(WIDTH);
            let glyph = if span.threads >= 240 { '#' } else { '=' };
            for cell in row.iter_mut().take(b).skip(a) {
                *cell = glyph;
            }
        }
        println!("  {job}: {}", row.into_iter().collect::<String>());
    }
    println!("  ('#' = 240-thread offload, '=' = partial offload, '.' = on host / waiting)\n");
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn main() {
    // Fig. 2: both jobs offload with ALL 240 hardware threads. Offloads
    // cannot overlap; COSMIC interleaves them into each other's host gaps.
    let j1 = JobProfile::new(vec![
        Segment::offload(240, secs(8)),
        Segment::host(secs(6)),
        Segment::offload(240, secs(8)),
    ]);
    let j2 = JobProfile::new(vec![
        Segment::offload(240, secs(5)),
        Segment::host(secs(4)),
        Segment::offload(240, secs(5)),
        Segment::host(secs(4)),
        Segment::offload(240, secs(5)),
    ]);
    let sequential = j1.total_nominal() + j2.total_nominal();
    let profiles = vec![(JobId(1), j1), (JobId(2), j2)];
    let (spans, makespan) = run_concurrent(&profiles);
    gantt(
        "Fig. 2 — maximal (240-thread) offloads: interleave only",
        &profiles,
        &spans,
        makespan,
    );
    report(sequential, makespan);
    println!();

    // Fig. 3: offloads use 120 threads — half the device — and overlap
    // outright on disjoint cores.
    let j3 = JobProfile::new(vec![
        Segment::offload(120, secs(8)),
        Segment::host(secs(5)),
        Segment::offload(120, secs(8)),
    ]);
    let j4 = JobProfile::new(vec![
        Segment::offload(120, secs(6)),
        Segment::host(secs(3)),
        Segment::offload(120, secs(6)),
        Segment::host(secs(3)),
        Segment::offload(120, secs(6)),
    ]);
    let sequential = j3.total_nominal() + j4.total_nominal();
    let profiles = vec![(JobId(3), j3), (JobId(4), j4)];
    let (spans, makespan) = run_concurrent(&profiles);
    gantt(
        "Fig. 3 — partial (120-thread) offloads: true overlap",
        &profiles,
        &spans,
        makespan,
    );
    report(sequential, makespan);
}

/// Print the makespan comparison and check the paper's sharing claim:
/// running the jobs concurrently beats running them one after the other.
fn report(sequential: SimDuration, makespan: SimTime) {
    println!(
        "  sequential makespan {:.0} s → concurrent {:.0} s ({:.0}% reduction)",
        sequential.as_secs_f64(),
        makespan.as_secs_f64(),
        100.0 * (1.0 - makespan.as_secs_f64() / sequential.as_secs_f64())
    );
    assert!(
        makespan.as_secs_f64() < sequential.as_secs_f64(),
        "sharing must beat sequential execution"
    );
}

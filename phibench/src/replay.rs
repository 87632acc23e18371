//! Per-layer estimates for the event queue, the device substrate and
//! COSMIC, replayed from one traced run.
//!
//! The runtime drives its layers from inside one event loop, so their
//! costs cannot be timed from outside without instrumenting it. Instead,
//! the traced run's successful dispatches are replayed per device through
//! the public [`DeviceSubstrate`]/[`CosmicSubstrate`] traits by a
//! next-completion loop this benchmark owns: host phases are plain timers,
//! offloads go through COSMIC admission and the device model, and every
//! layer call is logged. Each layer's log is then re-executed alone on a
//! fresh instance and timed, so one layer's time carries none of the
//! other's. The replay is self-consistent, not a copy of the run: it has
//! no host contention, faults or perturbations, and a dispatch waits until
//! the device's declared memory fits it. The numbers are estimates.

use phishare_cluster::{
    ClusterConfig, CosmicSubstrate, DeviceSpec, DeviceSubstrate, Trace, TraceEvent,
};
use phishare_cosmic::{Admission, ContainerVerdict, CosmicDevice, OffloadGrant};
use phishare_phi::{Affinity, CommitOutcome, ProcId};
use phishare_sim::{DetRng, EventQueue, SimDuration, SimTime};
use phishare_workload::{JobId, Segment, Workload};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// One device-layer call. `job` indexes [`DeviceLog::jobs`].
#[derive(Debug, Clone, Copy)]
enum DevOp {
    Attach {
        at: SimTime,
        job: usize,
        commit_mb: u64,
    },
    Commit {
        at: SimTime,
        job: usize,
        mb: u64,
    },
    Start {
        at: SimTime,
        job: usize,
        threads: u32,
        work: SimDuration,
        affinity: Affinity,
    },
    Finish {
        at: SimTime,
        job: usize,
    },
    Detach {
        at: SimTime,
        job: usize,
    },
    NextCompletion,
}

/// One COSMIC call. `job` indexes [`DeviceLog::jobs`].
#[derive(Debug, Clone, Copy)]
enum CosOp {
    Register {
        job: usize,
    },
    Check {
        job: usize,
        mb: u64,
    },
    Request {
        at: SimTime,
        job: usize,
        threads: u32,
        work: SimDuration,
    },
    Complete {
        at: SimTime,
        job: usize,
    },
    Unregister {
        at: SimTime,
        job: usize,
    },
}

/// A replayed job: id and declared envelope.
#[derive(Debug, Clone, Copy)]
struct JobInfo {
    id: JobId,
    mem_mb: u64,
    threads: u32,
}

/// Everything one device's replay called, in order.
#[derive(Debug)]
pub struct DeviceLog {
    spec: DeviceSpec,
    cosmic: Option<phishare_cosmic::CosmicConfig>,
    jobs: Vec<JobInfo>,
    dev: Vec<DevOp>,
    cos: Vec<CosOp>,
}

/// Counts from replaying one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub device_ops: u64,
    pub cosmic_ops: u64,
    pub offload_starts: u64,
    pub offload_requests: u64,
    pub offload_queued: u64,
}

/// The offloads the trace started for jobs that completed on a device:
/// per job, `OffloadStarted` events after its last dispatch, for jobs
/// whose last attempt completed without falling back to the host.
/// Returns the count and each such job's final dispatch.
fn completed_dispatches(trace: &Trace) -> (u64, Vec<(SimTime, u32, u32, JobId)>) {
    #[derive(Default)]
    struct Attempt {
        dispatch: Option<(SimTime, u32, u32)>,
        starts: u64,
        fell_back: bool,
        completed: bool,
    }
    let mut jobs: BTreeMap<JobId, Attempt> = BTreeMap::new();
    for ev in &trace.events {
        match *ev {
            TraceEvent::Dispatched {
                job,
                node,
                device,
                at,
            } => {
                jobs.insert(
                    job,
                    Attempt {
                        dispatch: Some((at, node, device)),
                        ..Attempt::default()
                    },
                );
            }
            TraceEvent::OffloadStarted { job, .. } => {
                jobs.entry(job).or_default().starts += 1;
            }
            TraceEvent::FallbackStarted { job, .. } => {
                jobs.entry(job).or_default().fell_back = true
            }
            TraceEvent::Completed { job, .. } => jobs.entry(job).or_default().completed = true,
            _ => {}
        }
    }
    let mut starts = 0;
    let mut dispatches = Vec::new();
    for (job, a) in jobs {
        if let (true, false, Some((at, node, device))) = (a.completed, a.fell_back, a.dispatch) {
            starts += a.starts;
            dispatches.push((at, node, device, job));
        }
    }
    dispatches.sort();
    (starts, dispatches)
}

/// A job resident in the replay.
struct Live<DH, CH> {
    spec_idx: usize,
    dh: DH,
    ch: Option<CH>,
    seg: usize,
    offloads_done: usize,
}

struct DeviceReplay<'a, D: DeviceSubstrate, C: CosmicSubstrate> {
    cfg: &'a ClusterConfig,
    wl: &'a Workload,
    dev: D,
    cos: Option<C>,
    rng: DetRng,
    log: DeviceLog,
    live: Vec<Option<Live<D::Handle, C::Handle>>>,
    by_proc: BTreeMap<u64, usize>,
    timers: BinaryHeap<Reverse<(SimTime, usize)>>,
    counts: Counts,
    grants: Vec<OffloadGrant>,
}

impl<D: DeviceSubstrate, C: CosmicSubstrate> DeviceReplay<'_, D, C> {
    fn fits(&self, mem_mb: u64) -> bool {
        match self.cos {
            // MC: one resident per card, as its exclusive claims enforce.
            None => self.dev.resident_count() == 0,
            Some(_) => self.dev.free_declared_mb() >= mem_mb,
        }
    }

    fn admit(&mut self, now: SimTime, local: usize, spec_idx: usize) -> Result<(), String> {
        let spec = &self.wl.jobs[spec_idx];
        let ch = match self.cos.as_mut() {
            Some(cos) => {
                self.log.cos.push(CosOp::Register { job: local });
                Some(cos.register(spec.id, spec.mem_req_mb, spec.thread_req))
            }
            None => None,
        };
        let commit_mb =
            ((spec.actual_peak_mem_mb as f64) * self.cfg.initial_commit_fraction).round() as u64;
        self.log.dev.push(DevOp::Attach {
            at: now,
            job: local,
            commit_mb,
        });
        let (dh, outcome) = self.dev.attach(
            now,
            ProcId(spec.id.raw()),
            spec.mem_req_mb,
            spec.thread_req,
            commit_mb,
            &mut self.rng,
        );
        if outcome != CommitOutcome::Fits {
            return Err(format!(
                "replay attach of job {} oversubscribed",
                spec.id.raw()
            ));
        }
        self.by_proc.insert(spec.id.raw(), local);
        self.live[local] = Some(Live {
            spec_idx,
            dh,
            ch,
            seg: 0,
            offloads_done: 0,
        });
        self.container_check(local, commit_mb)?;
        self.advance(now, local)
    }

    fn container_check(&mut self, local: usize, mb: u64) -> Result<(), String> {
        let (Some(cos), Some(ch)) = (
            self.cos.as_ref(),
            self.live[local].as_ref().and_then(|l| l.ch),
        ) else {
            return Ok(());
        };
        self.log.cos.push(CosOp::Check { job: local, mb });
        match cos.on_commit(ch, mb) {
            ContainerVerdict::Allowed => Ok(()),
            other => Err(format!("replay container check failed: {other:?}")),
        }
    }

    fn start(
        &mut self,
        now: SimTime,
        local: usize,
        threads: u32,
        work: SimDuration,
        affinity: Affinity,
    ) {
        let dh = self.live[local].as_ref().expect("started job is live").dh;
        self.log.dev.push(DevOp::Start {
            at: now,
            job: local,
            threads,
            work,
            affinity,
        });
        self.dev.start_offload(now, dh, threads, work, affinity);
        self.counts.offload_starts += 1;
    }

    fn start_grants(&mut self, now: SimTime) {
        let grants = std::mem::take(&mut self.grants);
        for g in &grants {
            let local = self.by_proc[&g.job.raw()];
            self.start(now, local, g.threads, g.work, g.affinity);
        }
        self.grants = grants;
        self.grants.clear();
    }

    /// Begin the job's current segment, or complete it.
    fn advance(&mut self, now: SimTime, local: usize) -> Result<(), String> {
        let live = self.live[local].as_ref().expect("advancing a live job");
        let (spec_idx, seg, dh, ch, done) = (
            live.spec_idx,
            live.seg,
            live.dh,
            live.ch,
            live.offloads_done,
        );
        let spec = &self.wl.jobs[spec_idx];
        match spec.profile.segments.get(seg) {
            None => {
                self.log.dev.push(DevOp::Detach {
                    at: now,
                    job: local,
                });
                self.dev.detach(now, dh);
                if let Some(cos) = self.cos.as_mut() {
                    self.log.cos.push(CosOp::Unregister {
                        at: now,
                        job: local,
                    });
                    cos.unregister_into(now, spec.id, &mut self.grants);
                }
                self.live[local] = None;
                self.by_proc.remove(&spec.id.raw());
                self.start_grants(now);
            }
            Some(Segment::Host { duration }) => self.timers.push(Reverse((now + *duration, local))),
            Some(Segment::Offload { threads, work }) => {
                // The runtime's memory-growth model.
                let total = spec.profile.offload_count().max(1);
                let peak = spec.actual_peak_mem_mb;
                let initial = ((peak as f64) * self.cfg.initial_commit_fraction).round() as u64;
                let grown = initial
                    + ((peak - initial.min(peak)) as f64 * (done + 1) as f64 / total as f64).round()
                        as u64;
                let (threads, work) = (*threads, *work);
                self.log.dev.push(DevOp::Commit {
                    at: now,
                    job: local,
                    mb: grown,
                });
                if self.dev.commit(now, dh, grown, &mut self.rng) != CommitOutcome::Fits {
                    return Err(format!(
                        "replay commit of job {} oversubscribed",
                        spec.id.raw()
                    ));
                }
                self.container_check(local, grown)?;
                match (self.cos.as_mut(), ch) {
                    (Some(cos), Some(ch)) => {
                        self.counts.offload_requests += 1;
                        self.log.cos.push(CosOp::Request {
                            at: now,
                            job: local,
                            threads,
                            work,
                        });
                        match cos.request_offload(now, ch, threads, work) {
                            Admission::Started(g) => {
                                self.start(now, local, g.threads, g.work, g.affinity)
                            }
                            Admission::Queued => self.counts.offload_queued += 1,
                        }
                    }
                    _ => self.start(now, local, threads, work, Affinity::Unmanaged),
                }
            }
        }
        Ok(())
    }

    fn offload_done(&mut self, now: SimTime, proc: ProcId) -> Result<(), String> {
        let local = self.by_proc[&proc.raw()];
        let live = self.live[local]
            .as_mut()
            .expect("completing offload is live");
        live.seg += 1;
        live.offloads_done += 1;
        let (dh, ch) = (live.dh, live.ch);
        self.log.dev.push(DevOp::Finish {
            at: now,
            job: local,
        });
        self.dev.finish_offload(now, dh);
        if let (Some(cos), Some(ch)) = (self.cos.as_mut(), ch) {
            self.log.cos.push(CosOp::Complete {
                at: now,
                job: local,
            });
            cos.complete_offload_into(now, ch, &mut self.grants);
            self.start_grants(now);
        }
        self.advance(now, local)
    }

    /// The next-completion loop over one device's dispatches.
    fn run(mut self, dispatches: &[(SimTime, usize)]) -> Result<(DeviceLog, Counts), String> {
        let mut arrivals = dispatches.iter().copied().enumerate().peekable();
        let mut waiting: VecDeque<(usize, usize)> = VecDeque::new();
        loop {
            self.log.dev.push(DevOp::NextCompletion);
            let device = self.dev.next_completion();
            let host = self.timers.peek().map(|Reverse((at, local))| (*at, *local));
            let arrival = arrivals.peek().map(|(_, (at, _))| *at);
            let soonest = [device.map(|d| d.1), host.map(|h| h.0), arrival]
                .into_iter()
                .flatten()
                .min();
            let Some(now) = soonest else { break };
            if device.is_some_and(|(_, at)| at == now) {
                self.offload_done(now, device.expect("checked").0)?;
            } else if host.is_some_and(|(at, _)| at == now) {
                let (_, local) = host.expect("checked");
                self.timers.pop();
                self.live[local].as_mut().expect("timer of a live job").seg += 1;
                self.advance(now, local)?;
            } else {
                let (local, (_, spec_idx)) = arrivals.next().expect("checked");
                waiting.push_back((local, spec_idx));
            }
            while let Some(&(local, spec_idx)) = waiting.front() {
                if !self.fits(self.wl.jobs[spec_idx].mem_req_mb) {
                    break;
                }
                waiting.pop_front();
                self.admit(now, local, spec_idx)?;
            }
        }
        if !waiting.is_empty() || self.live.iter().any(Option::is_some) {
            return Err(format!(
                "replay stalled with {} jobs waiting and {} resident",
                waiting.len(),
                self.live.iter().flatten().count()
            ));
        }
        self.counts.device_ops = self.log.dev.len() as u64;
        self.counts.cosmic_ops = self.log.cos.len() as u64;
        Ok((self.log, self.counts))
    }
}

/// Replay every device of one traced run on substrate `D`. Returns the
/// per-device logs and the summed counts, and checks that the replay
/// started exactly as many offloads as the trace did for the same jobs.
pub fn replay<D: DeviceSubstrate>(
    cfg: &ClusterConfig,
    wl: &Workload,
    trace: &Trace,
) -> Result<(Vec<DeviceLog>, Counts), String> {
    let (traced_starts, dispatches) = completed_dispatches(trace);
    let index: BTreeMap<JobId, usize> =
        wl.jobs.iter().enumerate().map(|(i, j)| (j.id, i)).collect();
    let mut per_device: BTreeMap<(u32, u32), Vec<(SimTime, usize)>> = BTreeMap::new();
    for (at, node, device, job) in dispatches {
        per_device
            .entry((node, device))
            .or_default()
            .push((at, index[&job]));
    }
    let mut logs = Vec::new();
    let mut total = Counts::default();
    for ((node, device), list) in per_device {
        let spec = cfg.spec_for_node(node);
        let cosmic = cfg.policy.uses_cosmic().then_some(cfg.cosmic);
        let jobs = list
            .iter()
            .map(|&(_, i)| JobInfo {
                id: wl.jobs[i].id,
                mem_mb: wl.jobs[i].mem_req_mb,
                threads: wl.jobs[i].thread_req,
            })
            .collect::<Vec<_>>();
        let replay = DeviceReplay::<D, CosmicDevice> {
            cfg,
            wl,
            dev: D::create(&spec, SimTime::ZERO),
            cos: cosmic.map(|c| CosmicSubstrate::create(c, &spec.phi)),
            rng: DetRng::substream(cfg.seed, "benchmark-replay"),
            log: DeviceLog {
                spec,
                cosmic,
                jobs,
                dev: Vec::new(),
                cos: Vec::new(),
            },
            live: (0..list.len()).map(|_| None).collect(),
            by_proc: BTreeMap::new(),
            timers: BinaryHeap::new(),
            counts: Counts::default(),
            grants: Vec::new(),
        };
        let (log, c) = replay
            .run(&list)
            .map_err(|e| format!("device ({node}, {device}): {e}"))?;
        total.device_ops += c.device_ops;
        total.cosmic_ops += c.cosmic_ops;
        total.offload_starts += c.offload_starts;
        total.offload_requests += c.offload_requests;
        total.offload_queued += c.offload_queued;
        logs.push(log);
    }
    if total.offload_starts != traced_starts {
        return Err(format!(
            "replay started {} offloads, the trace {} for the same jobs",
            total.offload_starts, traced_starts
        ));
    }
    Ok((logs, total))
}

/// Re-execute every device log on fresh `D` instances; nanoseconds spent
/// inside the device calls.
pub fn time_devices<D: DeviceSubstrate>(logs: &[DeviceLog], seed: u64) -> u64 {
    let mut ns = 0;
    for log in logs {
        let mut dev = D::create(&log.spec, SimTime::ZERO);
        let mut rng = DetRng::substream(seed, "benchmark-replay");
        let mut handles: Vec<Option<D::Handle>> = vec![None; log.jobs.len()];
        let started = Instant::now();
        for op in &log.dev {
            match *op {
                DevOp::Attach { at, job, commit_mb } => {
                    let j = log.jobs[job];
                    let (h, _) = dev.attach(
                        at,
                        ProcId(j.id.raw()),
                        j.mem_mb,
                        j.threads,
                        commit_mb,
                        &mut rng,
                    );
                    handles[job] = Some(h);
                }
                DevOp::Commit { at, job, mb } => {
                    black_box(dev.commit(at, handles[job].expect("attached"), mb, &mut rng));
                }
                DevOp::Start {
                    at,
                    job,
                    threads,
                    work,
                    affinity,
                } => {
                    dev.start_offload(at, handles[job].expect("attached"), threads, work, affinity)
                }
                DevOp::Finish { at, job } => {
                    dev.finish_offload(at, handles[job].expect("attached"))
                }
                DevOp::Detach { at, job } => dev.detach(at, handles[job].expect("attached")),
                DevOp::NextCompletion => {
                    black_box(dev.next_completion());
                }
            }
        }
        ns += started.elapsed().as_nanos() as u64;
    }
    ns
}

/// Re-execute every COSMIC log on fresh instances; nanoseconds spent
/// inside the COSMIC calls. Zero work for policies without COSMIC.
pub fn time_cosmic<C: CosmicSubstrate>(logs: &[DeviceLog]) -> u64 {
    let mut ns = 0;
    for log in logs {
        let Some(cfg) = log.cosmic else { continue };
        let mut cos = C::create(cfg, &log.spec.phi);
        let mut handles = vec![None; log.jobs.len()];
        let mut grants = Vec::new();
        let started = Instant::now();
        for op in &log.cos {
            match *op {
                CosOp::Register { job } => {
                    let j = log.jobs[job];
                    handles[job] = Some(cos.register(j.id, j.mem_mb, j.threads));
                }
                CosOp::Check { job, mb } => {
                    black_box(cos.on_commit(handles[job].expect("registered"), mb));
                }
                CosOp::Request {
                    at,
                    job,
                    threads,
                    work,
                } => {
                    black_box(cos.request_offload(
                        at,
                        handles[job].expect("registered"),
                        threads,
                        work,
                    ));
                }
                CosOp::Complete { at, job } => {
                    cos.complete_offload_into(at, handles[job].expect("registered"), &mut grants);
                    grants.clear();
                }
                CosOp::Unregister { at, job } => {
                    cos.unregister_into(at, log.jobs[job].id, &mut grants);
                    grants.clear();
                }
            }
        }
        ns += started.elapsed().as_nanos() as u64;
    }
    ns
}

/// The event-queue estimate: replay the trace's event times through
/// [`EventQueue`] as a hold model — the heap is filled to the run's peak
/// number of resident jobs, then each further event pops the earliest
/// entry and pushes its own time. Returns `(pushes + pops, nanoseconds)`.
pub fn time_event_queue(trace: &Trace) -> (u64, u64) {
    let times: Vec<SimTime> = trace.events.iter().map(TraceEvent::at).collect();
    let mut resident = 0i64;
    let mut peak = 1i64;
    for ev in &trace.events {
        match ev {
            TraceEvent::Dispatched { .. } => resident += 1,
            TraceEvent::Completed { .. }
            | TraceEvent::Killed { .. }
            | TraceEvent::Requeued { .. }
            | TraceEvent::HeldMaxRetries { .. } => resident -= 1,
            _ => {}
        }
        peak = peak.max(resident);
    }
    let fill = (peak as usize).min(times.len());
    let mut queue = EventQueue::with_capacity(fill + 1);
    let started = Instant::now();
    for (i, &t) in times[..fill].iter().enumerate() {
        queue.push(t, i);
    }
    for (i, &t) in times.iter().enumerate().skip(fill) {
        black_box(queue.pop());
        queue.push(t, i);
    }
    while let Some(e) = queue.pop() {
        black_box(e);
    }
    let ns = started.elapsed().as_nanos() as u64;
    (2 * times.len() as u64, ns)
}

//! Structured execution traces.
//!
//! When enabled, the runtime records every job-lifecycle transition with its
//! timestamp. Traces serialize to JSON (for external plotting) and render as
//! ASCII Gantt charts (for the examples) — the closest thing the simulator
//! has to the paper's Figs. 2–3 instrumentation of a real card.

use phishare_sim::SimTime;
use phishare_workload::JobId;
use serde::{Deserialize, Serialize};

/// Why a job was terminated early.
///
/// Serializes to the same lowercase strings the `reason: String` field
/// carried historically (`"container"` / `"oom"`), so traces recorded
/// before the enum are still readable — and recording a kill no longer
/// heap-allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillReason {
    /// COSMIC container: committed more than declared.
    Container,
    /// Device OOM killer: physical memory oversubscribed.
    Oom,
}

// Hand-rolled to keep the historical lowercase wire strings (the vendored
// derive has no `#[serde(rename_all)]` support).
impl Serialize for KillReason {
    fn serialize(&self, w: &mut serde::Writer) {
        w.str(&self.to_string());
    }
}

impl Deserialize for KillReason {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        match &*r.str()? {
            "container" => Ok(KillReason::Container),
            "oom" => Ok(KillReason::Oom),
            other => Err(r.error(format_args!("invalid kill reason: {other:?}"))),
        }
    }
}

impl std::fmt::Display for KillReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KillReason::Container => "container",
            KillReason::Oom => "oom",
        })
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Job entered the queue.
    Submitted {
        /// The job.
        job: JobId,
        /// When.
        at: SimTime,
    },
    /// The cluster scheduler pinned the job to a node.
    Pinned {
        /// The job.
        job: JobId,
        /// Destination node.
        node: u32,
        /// When.
        at: SimTime,
    },
    /// The job started running on a node/device.
    Dispatched {
        /// The job.
        job: JobId,
        /// Node it runs on.
        node: u32,
        /// Device index on the node.
        device: u32,
        /// When.
        at: SimTime,
    },
    /// An offload began executing on the device.
    OffloadStarted {
        /// The job.
        job: JobId,
        /// Offload thread count.
        threads: u32,
        /// When.
        at: SimTime,
    },
    /// An offload was queued by COSMIC admission control.
    OffloadQueued {
        /// The job.
        job: JobId,
        /// When.
        at: SimTime,
    },
    /// An offload finished.
    OffloadFinished {
        /// The job.
        job: JobId,
        /// When.
        at: SimTime,
    },
    /// The job completed successfully.
    Completed {
        /// The job.
        job: JobId,
        /// When.
        at: SimTime,
    },
    /// The job was killed.
    Killed {
        /// The job.
        job: JobId,
        /// What terminated it.
        reason: KillReason,
        /// When.
        at: SimTime,
    },
    /// The job was vacated by a fault and returned to the queue with a
    /// backoff release delay.
    Requeued {
        /// The job.
        job: JobId,
        /// How many times the job has now been vacated (1-based).
        attempt: u32,
        /// When.
        at: SimTime,
    },
    /// The job's card reset under it; it degrades to host-only execution
    /// for the rest of its life.
    FallbackStarted {
        /// The job.
        job: JobId,
        /// Node it keeps running on.
        node: u32,
        /// When.
        at: SimTime,
    },
    /// The job exhausted its retries and was held for good.
    HeldMaxRetries {
        /// The job.
        job: JobId,
        /// When.
        at: SimTime,
    },
    /// A card crashed (MPSS reset); its node stays up.
    DeviceReset {
        /// Node owning the card.
        node: u32,
        /// Device index on the node.
        device: u32,
        /// When.
        at: SimTime,
    },
    /// A crashed card came back.
    DeviceRecovered {
        /// Node owning the card.
        node: u32,
        /// Device index on the node.
        device: u32,
        /// When.
        at: SimTime,
    },
    /// A node vanished (startd died); its ads were invalidated.
    NodeDown {
        /// The node.
        node: u32,
        /// When.
        at: SimTime,
    },
    /// A churned node rejoined and re-advertised.
    NodeUp {
        /// The node.
        node: u32,
        /// When.
        at: SimTime,
    },
}

impl TraceEvent {
    /// The job the event concerns; `None` for infrastructure events
    /// (device resets, node churn).
    pub fn job(&self) -> Option<JobId> {
        match self {
            TraceEvent::Submitted { job, .. }
            | TraceEvent::Pinned { job, .. }
            | TraceEvent::Dispatched { job, .. }
            | TraceEvent::OffloadStarted { job, .. }
            | TraceEvent::OffloadQueued { job, .. }
            | TraceEvent::OffloadFinished { job, .. }
            | TraceEvent::Completed { job, .. }
            | TraceEvent::Killed { job, .. }
            | TraceEvent::Requeued { job, .. }
            | TraceEvent::FallbackStarted { job, .. }
            | TraceEvent::HeldMaxRetries { job, .. } => Some(*job),
            TraceEvent::DeviceReset { .. }
            | TraceEvent::DeviceRecovered { .. }
            | TraceEvent::NodeDown { .. }
            | TraceEvent::NodeUp { .. } => None,
        }
    }

    /// The event's timestamp.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Submitted { at, .. }
            | TraceEvent::Pinned { at, .. }
            | TraceEvent::Dispatched { at, .. }
            | TraceEvent::OffloadStarted { at, .. }
            | TraceEvent::OffloadQueued { at, .. }
            | TraceEvent::OffloadFinished { at, .. }
            | TraceEvent::Completed { at, .. }
            | TraceEvent::Killed { at, .. }
            | TraceEvent::Requeued { at, .. }
            | TraceEvent::FallbackStarted { at, .. }
            | TraceEvent::HeldMaxRetries { at, .. }
            | TraceEvent::DeviceReset { at, .. }
            | TraceEvent::DeviceRecovered { at, .. }
            | TraceEvent::NodeDown { at, .. }
            | TraceEvent::NodeUp { at, .. } => *at,
        }
    }
}

/// An offload execution interval extracted from a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OffloadSpan {
    /// The job.
    pub job: JobId,
    /// Node it ran on.
    pub node: u32,
    /// Thread count.
    pub threads: u32,
    /// Start instant.
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
}

/// A recorded run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Events in chronological (simulation) order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Create an empty trace.
    pub(crate) fn new() -> Self {
        Trace::default()
    }

    /// Append an event. Events must be recorded in simulation order.
    pub(crate) fn record(&mut self, event: TraceEvent) {
        debug_assert!(
            self.events
                .last()
                .map(|e| e.at() <= event.at())
                .unwrap_or(true),
            "trace events out of order"
        );
        self.events.push(event);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Extract completed offload execution intervals, resolving each
    /// `OffloadStarted` against the matching `OffloadFinished`.
    pub fn offload_spans(&self) -> Vec<OffloadSpan> {
        use std::collections::BTreeMap;
        let mut node_of: BTreeMap<JobId, u32> = BTreeMap::new();
        let mut open: BTreeMap<JobId, (SimTime, u32)> = BTreeMap::new();
        let mut spans = Vec::new();
        for ev in &self.events {
            match ev {
                TraceEvent::Dispatched { job, node, .. } => {
                    node_of.insert(*job, *node);
                }
                TraceEvent::OffloadStarted { job, threads, at } => {
                    open.insert(*job, (*at, *threads));
                }
                TraceEvent::OffloadFinished { job, at } => {
                    if let Some((start, threads)) = open.remove(job) {
                        spans.push(OffloadSpan {
                            job: *job,
                            node: node_of.get(job).copied().unwrap_or(0),
                            threads,
                            start,
                            end: *at,
                        });
                    }
                }
                _ => {}
            }
        }
        spans
    }

    /// Render a per-node Gantt chart of offload activity over the trace's
    /// time span. Each node row shows the number of concurrently executing
    /// offloads (`.` idle, `1`–`9` offload count).
    pub fn node_gantt(&self, width: usize) -> String {
        let spans = self.offload_spans();
        let end = self
            .events
            .last()
            .map(|e| e.at().as_secs_f64())
            .unwrap_or(0.0);
        if spans.is_empty() || end == 0.0 {
            return String::from("(no offload activity)\n");
        }
        let nodes: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.node).collect();
        let mut out = String::new();
        for node in nodes {
            // Sample true offload concurrency at each column's midpoint, so
            // a digit really means "this many offloads executing at once"
            // (not "this many spans touched the bucket").
            let mut counts = vec![0u32; width];
            for (i, c) in counts.iter_mut().enumerate() {
                let t = end * (i as f64 + 0.5) / width as f64;
                *c = spans
                    .iter()
                    .filter(|s| {
                        s.node == node && s.start.as_secs_f64() <= t && t < s.end.as_secs_f64()
                    })
                    .count() as u32;
            }
            let row: String = counts
                .iter()
                .map(|&c| match c {
                    0 => '.',
                    1..=9 => char::from_digit(c, 10).expect("single digit"),
                    _ => '+',
                })
                .collect();
            out.push_str(&format!("  node{node}: {row}\n"));
        }
        out
    }

    /// Peak concurrent offload thread sum observed on `node` (an event
    /// sweep over the extracted spans). The COSMIC safety property is
    /// `max_concurrent_threads(node) ≤ 240` for every node.
    pub(crate) fn max_concurrent_threads(&self, node: u32) -> u32 {
        let mut deltas: Vec<(u64, i64)> = Vec::new();
        for s in self.offload_spans().iter().filter(|s| s.node == node) {
            deltas.push((s.start.ticks(), s.threads as i64));
            deltas.push((s.end.ticks(), -(s.threads as i64)));
        }
        // Ends sort before starts at the same tick: a completing offload
        // frees its threads before a successor starts on that tick.
        deltas.sort_by_key(|(t, d)| (*t, *d));
        let mut current = 0i64;
        let mut peak = 0i64;
        for (_, d) in deltas {
            current += d;
            peak = peak.max(current);
        }
        peak.max(0) as u32
    }

    /// Nodes that executed at least one offload.
    pub(crate) fn nodes(&self) -> Vec<u32> {
        let set: std::collections::BTreeSet<u32> =
            self.offload_spans().iter().map(|s| s.node).collect();
        set.into_iter().collect()
    }

    /// Serialize the trace as JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }

    /// Deserialize a trace from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample() -> Trace {
        let mut tr = Trace::new();
        tr.record(TraceEvent::Submitted {
            job: JobId(1),
            at: t(0),
        });
        tr.record(TraceEvent::Pinned {
            job: JobId(1),
            node: 1,
            at: t(1),
        });
        tr.record(TraceEvent::Dispatched {
            job: JobId(1),
            node: 1,
            device: 0,
            at: t(2),
        });
        tr.record(TraceEvent::OffloadStarted {
            job: JobId(1),
            threads: 120,
            at: t(3),
        });
        tr.record(TraceEvent::OffloadFinished {
            job: JobId(1),
            at: t(8),
        });
        tr.record(TraceEvent::Completed {
            job: JobId(1),
            at: t(10),
        });
        tr
    }

    #[test]
    fn spans_pair_start_and_finish() {
        let spans = sample().offload_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].job, JobId(1));
        assert_eq!(spans[0].node, 1);
        assert_eq!(spans[0].threads, 120);
        assert_eq!(spans[0].start, t(3));
        assert_eq!(spans[0].end, t(8));
    }

    #[test]
    fn gantt_shows_activity() {
        let g = sample().node_gantt(20);
        assert!(g.contains("node1:"));
        assert!(g.contains('1'), "{g}");
        assert!(g.contains('.'));
    }

    #[test]
    fn empty_trace_is_harmless() {
        let tr = Trace::new();
        assert!(tr.is_empty());
        assert!(tr.offload_spans().is_empty());
        assert_eq!(tr.node_gantt(10), "(no offload activity)\n");
    }

    #[test]
    fn json_round_trip() {
        let tr = sample();
        let back = Trace::from_json(&tr.to_json()).unwrap();
        assert_eq!(tr, back);
    }

    #[test]
    fn event_accessors() {
        let tr = sample();
        assert_eq!(tr.len(), 6);
        assert!(tr.events.iter().all(|e| e.job() == Some(JobId(1))));
        assert_eq!(tr.events[0].at(), t(0));
        // Infrastructure events concern no job but still carry a time.
        let infra = TraceEvent::DeviceReset {
            node: 3,
            device: 0,
            at: t(5),
        };
        assert_eq!(infra.job(), None);
        assert_eq!(infra.at(), t(5));
        assert_eq!(
            TraceEvent::NodeUp { node: 2, at: t(9) }.job(),
            None,
            "node churn events are infrastructure too"
        );
    }

    #[test]
    fn peak_concurrency_sweep() {
        let mut tr = Trace::new();
        tr.record(TraceEvent::Dispatched {
            job: JobId(1),
            node: 1,
            device: 0,
            at: t(0),
        });
        tr.record(TraceEvent::Dispatched {
            job: JobId(2),
            node: 1,
            device: 0,
            at: t(0),
        });
        tr.record(TraceEvent::OffloadStarted {
            job: JobId(1),
            threads: 120,
            at: t(1),
        });
        tr.record(TraceEvent::OffloadStarted {
            job: JobId(2),
            threads: 100,
            at: t(2),
        });
        tr.record(TraceEvent::OffloadFinished {
            job: JobId(1),
            at: t(4),
        });
        // Back-to-back at t=4: the free must land before the start.
        tr.record(TraceEvent::OffloadStarted {
            job: JobId(1),
            threads: 140,
            at: t(4),
        });
        tr.record(TraceEvent::OffloadFinished {
            job: JobId(2),
            at: t(5),
        });
        tr.record(TraceEvent::OffloadFinished {
            job: JobId(1),
            at: t(6),
        });
        assert_eq!(tr.max_concurrent_threads(1), 240);
        assert_eq!(tr.max_concurrent_threads(9), 0);
        assert_eq!(tr.nodes(), vec![1]);
    }

    #[test]
    fn unmatched_start_is_dropped() {
        let mut tr = Trace::new();
        tr.record(TraceEvent::OffloadStarted {
            job: JobId(2),
            threads: 60,
            at: t(1),
        });
        tr.record(TraceEvent::Killed {
            job: JobId(2),
            reason: KillReason::Oom,
            at: t(2),
        });
        assert!(tr.offload_spans().is_empty());
    }

    /// Every variant survives a JSON round trip, and [`KillReason`] keeps
    /// the lowercase wire format the old `reason: String` field used.
    #[test]
    fn every_variant_round_trips_through_json() {
        let mut tr = Trace::new();
        for (i, ev) in [
            TraceEvent::Submitted {
                job: JobId(1),
                at: t(0),
            },
            TraceEvent::Pinned {
                job: JobId(1),
                node: 2,
                at: t(1),
            },
            TraceEvent::Dispatched {
                job: JobId(1),
                node: 2,
                device: 1,
                at: t(2),
            },
            TraceEvent::OffloadStarted {
                job: JobId(1),
                threads: 120,
                at: t(3),
            },
            TraceEvent::OffloadQueued {
                job: JobId(3),
                at: t(4),
            },
            TraceEvent::OffloadFinished {
                job: JobId(1),
                at: t(5),
            },
            TraceEvent::Completed {
                job: JobId(1),
                at: t(6),
            },
            TraceEvent::Killed {
                job: JobId(3),
                reason: KillReason::Container,
                at: t(7),
            },
            TraceEvent::Killed {
                job: JobId(4),
                reason: KillReason::Oom,
                at: t(8),
            },
            TraceEvent::Requeued {
                job: JobId(5),
                attempt: 2,
                at: t(9),
            },
            TraceEvent::FallbackStarted {
                job: JobId(5),
                node: 1,
                at: t(10),
            },
            TraceEvent::HeldMaxRetries {
                job: JobId(5),
                at: t(11),
            },
            TraceEvent::DeviceReset {
                node: 1,
                device: 0,
                at: t(12),
            },
            TraceEvent::DeviceRecovered {
                node: 1,
                device: 0,
                at: t(13),
            },
            TraceEvent::NodeDown { node: 2, at: t(14) },
            TraceEvent::NodeUp { node: 2, at: t(15) },
        ]
        .into_iter()
        .enumerate()
        {
            tr.record(ev);
            // Each variant above must appear exactly once per index.
            assert_eq!(tr.len(), i + 1);
        }
        let json = tr.to_json();
        // Wire compatibility: kill reasons stay lowercase strings.
        assert!(json.contains(r#""reason":"container""#), "{json}");
        assert!(json.contains(r#""reason":"oom""#), "{json}");
        let back = Trace::from_json(&json).unwrap();
        assert_eq!(tr, back);
        // And the pre-enum wire format still parses.
        let legacy = r#"{"events":[{"Killed":{"job":9,"reason":"oom","at":42}}]}"#;
        let parsed = Trace::from_json(legacy).unwrap();
        assert_eq!(
            parsed.events[0],
            TraceEvent::Killed {
                job: JobId(9),
                reason: KillReason::Oom,
                at: SimTime::from_ticks(42),
            }
        );
    }
}

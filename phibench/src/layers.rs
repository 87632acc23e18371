//! The metric sets every workload reports, in one place so that each
//! workload prints every name: end-to-end metrics from the untraced pass,
//! per-layer metrics from the traced pass.
//!
//! A layer that a workload does not run reports 0 for its counts, ratios
//! and rates. Per-layer times are given as shares of a stated base, and as
//! rates, so that no time-valued metric reads 0 on a workload that does
//! not exercise the layer; the only absolute per-layer times are ones
//! every workload measures.

use crate::report::Metrics;

/// What a user of the system sees (untraced pass). Every time is read at
/// the host's reference speed (see `host`) and is a median over the run:
/// see `sims` and `pool` for each workload's definition.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Median of several set-ups, seconds.
    pub setup_s: f64,
    /// Jobs completed (simulations) or placed (`pool_1e5`) per second.
    pub jobs_per_s: f64,
    /// Time to one result, milliseconds.
    pub latency_ms: f64,
}

impl EndToEnd {
    pub fn put(&self, m: &mut Metrics) -> Result<(), String> {
        m.put("setup_s", self.setup_s, "s");
        m.put("jobs_per_s", self.jobs_per_s, "1/s");
        m.put("latency_ms", self.latency_ms, "ms");
        m.put("peak_rss_mb", crate::report::peak_rss_mb()?, "MiB");
        Ok(())
    }
}

/// Per-layer metrics (traced pass, plus the latency tail, the tracing
/// overhead and the reference kernel's time, which draw on the untraced
/// pass of the same run).
#[derive(Debug, Default)]
pub struct Layers {
    pub host_kernel_ms: f64,
    pub workload_build_ms: f64,
    pub trace_wall_ms: f64,
    pub trace_overhead_pct: f64,
    pub trace_spans: f64,
    pub op_tail_ms: f64,
    pub op_tail_percentile: f64,
    pub op_samples: f64,
    pub core_plan_share: f64,
    pub core_plan_hit_ratio: f64,
    pub core_pins: f64,
    pub sim_events: f64,
    pub sim_ops_per_us: f64,
    pub phi: Engine,
    pub throughput: Engine,
    pub cosmic: Engine,
    pub cosmic_queued_ratio: f64,
    pub condor_cycles: f64,
    pub condor_cycles_skipped: f64,
    pub condor_matched: f64,
    pub condor_considered: f64,
    pub condor_match_ratio: f64,
    pub condor_cycles_per_s: f64,
    pub condor_negotiate_share: f64,
    pub condor_writes: f64,
    pub condor_writes_per_ms: f64,
    pub condor_submits_per_ms: f64,
    pub condor_advertised_per_ms: f64,
    pub runtime_runs: f64,
    pub runtime_max_over_p50: f64,
    pub runtime_residual_share: f64,
    pub shard_manifest_share: f64,
    pub shard_manifest_bytes: f64,
    pub shard_checkpoint_bytes: f64,
    pub shard_merge_share: f64,
    pub shard_overhead_share: f64,
    pub audit_share: f64,
    pub audit_violations: f64,
}

/// A replayed layer: calls made, calls per microsecond when re-executed
/// alone, and the re-execution time as a share of the traced runs' wall.
#[derive(Debug, Default, Clone, Copy)]
pub struct Engine {
    pub ops: f64,
    pub ops_per_us: f64,
    pub replay_share: f64,
}

impl Engine {
    pub fn new(ops: u64, ns: u64, run_ms: f64) -> Engine {
        Engine {
            ops: ops as f64,
            ops_per_us: ratio(ops as f64 * 1e3, ns as f64),
            replay_share: ratio(ns as f64 / 1e6, run_ms),
        }
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    pub fn put(&self, m: &mut Metrics) {
        m.put("host.kernel_ms", self.host_kernel_ms, "ms");
        m.put("workload.build_ms", self.workload_build_ms, "ms");
        m.put("trace.wall_ms", self.trace_wall_ms, "ms");
        m.put("trace.overhead_pct", self.trace_overhead_pct, "%");
        m.put("trace.spans", self.trace_spans, "count");
        m.put("op.tail_ms", self.op_tail_ms, "ms");
        m.put("op.tail_percentile", self.op_tail_percentile, "percentile");
        m.put("op.samples", self.op_samples, "count");
        m.put("core.plan_share", self.core_plan_share, "ratio");
        m.put("core.plan_hit_ratio", self.core_plan_hit_ratio, "ratio");
        m.put("core.pins", self.core_pins, "count");
        m.put("sim.events", self.sim_events, "count");
        m.put("sim.ops_per_us", self.sim_ops_per_us, "1/us");
        for (ops, rate, share, e) in [
            ("phi.ops", "phi.ops_per_us", "phi.replay_share", &self.phi),
            (
                "throughput.ops",
                "throughput.ops_per_us",
                "throughput.replay_share",
                &self.throughput,
            ),
            (
                "cosmic.ops",
                "cosmic.ops_per_us",
                "cosmic.replay_share",
                &self.cosmic,
            ),
        ] {
            m.put(ops, e.ops, "count");
            m.put(rate, e.ops_per_us, "1/us");
            m.put(share, e.replay_share, "ratio");
        }
        m.put("cosmic.queued_ratio", self.cosmic_queued_ratio, "ratio");
        m.put("condor.cycles", self.condor_cycles, "count");
        m.put("condor.cycles_skipped", self.condor_cycles_skipped, "count");
        m.put("condor.matched", self.condor_matched, "count");
        m.put("condor.considered", self.condor_considered, "count");
        m.put("condor.match_ratio", self.condor_match_ratio, "ratio");
        m.put("condor.cycles_per_s", self.condor_cycles_per_s, "1/s");
        m.put(
            "condor.negotiate_share",
            self.condor_negotiate_share,
            "ratio",
        );
        m.put("condor.writes", self.condor_writes, "count");
        m.put("condor.writes_per_ms", self.condor_writes_per_ms, "1/ms");
        m.put("condor.submits_per_ms", self.condor_submits_per_ms, "1/ms");
        m.put(
            "condor.advertised_per_ms",
            self.condor_advertised_per_ms,
            "1/ms",
        );
        m.put("runtime.runs", self.runtime_runs, "count");
        m.put("runtime.max_over_p50", self.runtime_max_over_p50, "ratio");
        m.put(
            "runtime.residual_share",
            self.runtime_residual_share,
            "ratio",
        );
        m.put("shard.manifest_share", self.shard_manifest_share, "ratio");
        m.put("shard.manifest_bytes", self.shard_manifest_bytes, "bytes");
        m.put(
            "shard.checkpoint_bytes",
            self.shard_checkpoint_bytes,
            "bytes",
        );
        m.put("shard.merge_share", self.shard_merge_share, "ratio");
        m.put("shard.overhead_share", self.shard_overhead_share, "ratio");
        m.put("audit.share", self.audit_share, "ratio");
        m.put("audit.violations", self.audit_violations, "count");
    }

    /// Record the untraced pass's latency tail: the highest percentile
    /// with at least ten samples beyond it.
    pub fn set_tail(&mut self, latencies_ms: &[f64]) {
        let (pct, value) = crate::stats::tail(latencies_ms);
        self.op_tail_ms = value;
        self.op_tail_percentile = f64::from(pct);
        self.op_samples = latencies_ms.len() as f64;
    }
}

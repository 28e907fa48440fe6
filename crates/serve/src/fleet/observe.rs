//! Fleet observability: conservation-checked counter samples, scaling
//! events, and the scalar report.
//!
//! The fleet gets its own sample type rather than growing
//! [`CounterSample`](crate::CounterSample) — the PR 5 golden fixtures pin
//! that struct's serde bytes, and a disaggregated floor tracks states
//! (handoff occupancy, pool split, live replica count) the unified floor
//! has no meaningful value for.

use serde::{Deserialize, Serialize};
use skip_des::{SimDuration, SimTime};
use skip_trace::{CounterEvent, Trace};

use crate::fleet::autoscale::ScalingEvent;
use crate::observe::{
    grow_lifecycles, lifecycle_trace, push_collapsed, LifecycleEvent, LifecycleKind,
    RequestLifecycle, SloReport,
};

/// One deterministic sample of the fleet counters, taken after each
/// simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSample {
    /// Sample instant.
    pub at: SimTime,
    /// Requests queued at prefill (or unified) replicas.
    pub prefill_queue: u32,
    /// Requests queued at decode replicas (KV already landed).
    pub decode_queue: u32,
    /// Requests in a running batch on any replica.
    pub running: u32,
    /// KV handoffs waiting for their destination link.
    pub handoff_queued: u32,
    /// KV handoffs currently occupying an interconnect.
    pub handoff_inflight: u32,
    /// Replicas currently able to take work (up or draining).
    pub live_replicas: u32,
    /// Requests arrived, cumulative.
    pub arrived_total: u32,
    /// Requests completed, cumulative.
    pub completed_total: u32,
}

impl FleetSample {
    /// The fleet conservation law: every arrival is queued somewhere,
    /// running, in handoff, or completed — nothing leaks between pools.
    #[must_use]
    pub fn conserves_requests(&self) -> bool {
        self.arrived_total
            == self.completed_total
                + self.prefill_queue
                + self.decode_queue
                + self.running
                + self.handoff_queued
                + self.handoff_inflight
    }
}

/// Everything a fleet run recorded beyond the scalar report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetTrace {
    /// Model served.
    pub model: String,
    /// Canonical fleet spec label.
    pub fleet: String,
    /// One lifecycle per request, indexed by request ID.
    pub lifecycles: Vec<RequestLifecycle>,
    /// Counter samples in time order.
    pub samples: Vec<FleetSample>,
    /// Autoscaler decisions in time order (empty with scaling off).
    pub scaling: Vec<ScalingEvent>,
    arrived: u32,
    completed: u32,
}

impl FleetTrace {
    /// Creates an empty recording for a fleet labelled `fleet` serving
    /// `model`.
    #[must_use]
    pub fn new(model: impl Into<String>, fleet: impl Into<String>) -> Self {
        FleetTrace {
            model: model.into(),
            fleet: fleet.into(),
            lifecycles: Vec::new(),
            samples: Vec::new(),
            scaling: Vec::new(),
            arrived: 0,
            completed: 0,
        }
    }

    /// Requests arrived so far.
    #[must_use]
    pub fn arrived_total(&self) -> u32 {
        self.arrived
    }

    /// Requests completed so far.
    #[must_use]
    pub fn completed_total(&self) -> u32 {
        self.completed
    }

    /// Preallocates lifecycle and sample storage for `requests` requests
    /// of ~`events_per_request` lifecycle events each, as
    /// [`ServingTrace::reserve`](crate::ServingTrace::reserve) does: a
    /// capacity hint that never changes what is recorded.
    pub fn reserve(&mut self, requests: u32, events_per_request: usize) {
        grow_lifecycles(&mut self.lifecycles, requests as usize, events_per_request);
        self.samples.reserve((requests as usize).saturating_mul(2));
    }

    /// Appends a lifecycle transition for request `id` (dense arrival
    /// order, as in
    /// [`ServingTrace::record`](crate::ServingTrace::record)).
    pub fn record(&mut self, id: u64, at: SimTime, kind: LifecycleKind) {
        match kind {
            LifecycleKind::Arrived => self.arrived += 1,
            LifecycleKind::Completed { .. } => self.completed += 1,
            _ => {}
        }
        grow_lifecycles(&mut self.lifecycles, id as usize + 1, 0);
        self.lifecycles[id as usize]
            .events
            .push(LifecycleEvent { at, kind });
    }

    /// Appends a counter sample, collapsing same-instant samples to the
    /// final state of the boundary.
    pub fn push_sample(&mut self, sample: FleetSample) {
        push_collapsed(&mut self.samples, sample, |s| s.at);
    }

    /// `true` if every sample satisfies the fleet conservation law.
    #[must_use]
    pub fn conserves_requests(&self) -> bool {
        self.samples.iter().all(FleetSample::conserves_requests)
    }

    /// Exports the recording as a [`Trace`]: request lifecycles become
    /// per-request slice tracks and handoff flow arrows exactly as in
    /// [`ServingTrace::to_trace`](crate::ServingTrace::to_trace), and the
    /// fleet counters (`prefill_queue`, `decode_queue`, `running`,
    /// `handoff_queued`, `handoff_inflight`, `live_replicas`,
    /// `completed_total`) become counter tracks.
    #[must_use]
    pub fn to_trace(&self) -> Trace {
        let mut t = lifecycle_trace(&self.model, &self.fleet, 0, &self.lifecycles);
        for s in &self.samples {
            let mut counter = |track: &str, value: f64| {
                t.push_counter(CounterEvent {
                    track: track.to_owned(),
                    at: s.at,
                    value,
                });
            };
            counter("prefill_queue", f64::from(s.prefill_queue));
            counter("decode_queue", f64::from(s.decode_queue));
            counter("running", f64::from(s.running));
            counter("handoff_queued", f64::from(s.handoff_queued));
            counter("handoff_inflight", f64::from(s.handoff_inflight));
            counter("live_replicas", f64::from(s.live_replicas));
            counter("completed_total", f64::from(s.completed_total));
        }
        t
    }
}

/// Measured fleet behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Requests completed.
    pub completed: u32,
    /// Median time-to-first-token.
    pub ttft_p50: SimDuration,
    /// 95th-percentile time-to-first-token.
    pub ttft_p95: SimDuration,
    /// 99th-percentile time-to-first-token.
    pub ttft_p99: SimDuration,
    /// Median end-to-end latency.
    pub e2e_p50: SimDuration,
    /// 95th-percentile end-to-end latency.
    pub e2e_p95: SimDuration,
    /// Output tokens per second over the makespan.
    pub throughput_tok_s: f64,
    /// Wall-clock span from first arrival to last completion.
    pub makespan: SimDuration,
    /// SLO attainment (vacuous when no target is configured).
    pub slo: SloReport,
    /// KV handoffs performed (0 without disaggregation).
    pub handoffs: u64,
    /// KV bytes moved by those handoffs.
    pub handoff_bytes: u64,
    /// Median link-queue wait before a handoff's transfer started.
    pub handoff_wait_p50: SimDuration,
    /// 95th-percentile link-queue wait.
    pub handoff_wait_p95: SimDuration,
    /// Total interconnect occupancy across all handoff transfers.
    pub handoff_transfer_total: SimDuration,
    /// Replicas launched by the autoscaler.
    pub scale_ups: u32,
    /// Replicas drained by the autoscaler.
    pub scale_downs: u32,
    /// Most replicas simultaneously live at any sample.
    pub peak_replicas: u32,
    /// Integral of live replicas over the makespan — the capacity bill
    /// an autoscaler is trying to shrink.
    pub replica_seconds: f64,
    /// `true` when the run was stopped early by a
    /// [`StopCondition`](crate::StopCondition): every metric covers only
    /// the simulated prefix, and the report must never be treated as a
    /// completed envelope. Omitted from serialization when `false`, so
    /// unbounded runs keep their pinned serde bytes.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub aborted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn sample(at: SimTime) -> FleetSample {
        FleetSample {
            at,
            prefill_queue: 1,
            decode_queue: 1,
            running: 2,
            handoff_queued: 1,
            handoff_inflight: 1,
            live_replicas: 4,
            arrived_total: 9,
            completed_total: 3,
        }
    }

    #[test]
    fn conservation_counts_every_bucket() {
        assert!(sample(ms(1)).conserves_requests());
        let mut bad = sample(ms(1));
        bad.handoff_inflight = 0;
        assert!(!bad.conserves_requests());
    }

    #[test]
    fn trace_records_and_conserves() {
        let mut ft = FleetTrace::new("gpt2", "prefill=gh200:1,decode=intel_h100:1");
        ft.record(0, ms(0), LifecycleKind::Arrived);
        ft.record(0, ms(10), LifecycleKind::Admitted { replica: 0 });
        ft.record(0, ms(30), LifecycleKind::FirstToken);
        ft.record(
            0,
            ms(30),
            LifecycleKind::HandoffQueued {
                from: 0,
                bytes: 4096,
            },
        );
        ft.record(
            0,
            ms(34),
            LifecycleKind::HandoffDone {
                to: 1,
                wait: SimDuration::ZERO,
                transfer: SimDuration::from_millis(4),
            },
        );
        ft.record(0, ms(35), LifecycleKind::DecodeAdmitted { replica: 1 });
        ft.record(0, ms(60), LifecycleKind::Completed { replica: 1 });
        assert_eq!(ft.arrived_total(), 1);
        assert_eq!(ft.completed_total(), 1);
        ft.push_sample(FleetSample {
            at: ms(10),
            prefill_queue: 0,
            decode_queue: 0,
            running: 1,
            handoff_queued: 0,
            handoff_inflight: 0,
            live_replicas: 2,
            arrived_total: 1,
            completed_total: 0,
        });
        assert!(ft.conserves_requests());

        let t = ft.to_trace();
        t.validate().unwrap();
        assert!(t.cpu_ops().iter().any(|o| t.name(o.name) == "handoff"));
        assert!(t.counters().iter().any(|c| c.track == "handoff_inflight"));
        assert_eq!(t.launches().len(), 1, "one kv_depart→kv_land flow pair");
    }

    #[test]
    fn same_instant_samples_collapse() {
        let mut ft = FleetTrace::new("m", "f");
        ft.push_sample(sample(ms(5)));
        let mut second = sample(ms(5));
        second.running = 4;
        second.handoff_queued = 0;
        second.handoff_inflight = 0;
        ft.push_sample(second);
        ft.push_sample(sample(ms(6)));
        assert_eq!(ft.samples.len(), 2);
        assert_eq!(ft.samples[0].running, 4);
    }

    #[test]
    fn serde_round_trips_the_fleet_trace() {
        let mut ft = FleetTrace::new("gpt2", "intel_h100:2");
        ft.record(0, ms(0), LifecycleKind::Arrived);
        ft.push_sample(sample(ms(1)));
        let json = serde_json::to_string(&ft).unwrap();
        let back: FleetTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(ft, back);
    }
}

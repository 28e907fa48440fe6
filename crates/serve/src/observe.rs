//! Serving-floor observability: per-request lifecycle records, time-series
//! counters, and SLO attainment.
//!
//! The serving simulator used to fold thousands of scheduler decisions into
//! nine scalars, which is exactly how latency-accounting bugs went
//! unnoticed. This module records what actually happened — every request's
//! arrival → admission → prefill-done → preemption/resume → completion
//! path with the reason and cost of each transition ([`RequestLifecycle`]),
//! plus deterministic counter tracks sampled at iteration boundaries
//! ([`CounterSample`]) — and evaluates latency SLOs over the completions
//! ([`SloReport`]).
//!
//! [`ServingTrace::to_trace`] exports all of it through the `skip-trace`
//! data model: lifecycle phases become duration slices on one track per
//! request, each preemption→resume hand-off becomes a correlated
//! launch/kernel pair (drawn by the Chrome exporter as a flow arrow), and
//! counters become Perfetto counter tracks. A serving run therefore opens
//! in the same Perfetto UI as an engine trace, via
//! `skip_trace::chrome::to_chrome_trace`.

use serde::{Deserialize, Serialize};
use skip_des::{SimDuration, SimTime};
use skip_trace::{
    CorrelationId, CounterEvent, CpuOpEvent, KernelEvent, OpId, RuntimeLaunchEvent, StreamId,
    ThreadId, Trace, TraceMeta,
};

/// Latency targets a serving run is evaluated against.
///
/// `None` targets are vacuously met; [`SloTargets::default`] disables SLO
/// accounting entirely (attainment reports 1.0).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SloTargets {
    /// Time-to-first-token target.
    pub ttft: Option<SimDuration>,
    /// End-to-end latency target.
    pub e2e: Option<SimDuration>,
}

impl SloTargets {
    /// `true` if at least one target is configured.
    #[must_use]
    pub fn is_set(&self) -> bool {
        self.ttft.is_some() || self.e2e.is_some()
    }

    /// `true` if a completion with the given latencies meets every
    /// configured target.
    #[must_use]
    pub fn met(&self, ttft: SimDuration, e2e: SimDuration) -> bool {
        self.ttft.is_none_or(|t| ttft <= t) && self.e2e.is_none_or(|t| e2e <= t)
    }
}

/// SLO attainment over a serving run's completions.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SloReport {
    /// The targets evaluated against.
    pub targets: SloTargets,
    /// Completions inspected.
    pub completed: u32,
    /// Fraction of completions meeting the TTFT target (1.0 when unset).
    pub ttft_attainment: f64,
    /// Fraction of completions meeting the e2e target (1.0 when unset).
    pub e2e_attainment: f64,
    /// Completions meeting every configured target.
    pub slo_completions: u32,
    /// SLO-meeting completions per second over the makespan.
    pub goodput_req_s: f64,
    /// Output tokens of SLO-meeting completions per second.
    pub goodput_tok_s: f64,
}

impl SloReport {
    /// Evaluates `targets` over per-request `(ttft, e2e)` latencies.
    ///
    /// `tokens_per_request` prices goodput; `makespan` is the span the
    /// goodput rates are normalized by. Empty input yields vacuous
    /// attainment (1.0) and zero goodput.
    #[must_use]
    pub fn evaluate(
        targets: SloTargets,
        latencies: &[(SimDuration, SimDuration)],
        tokens_per_request: u32,
        makespan: SimDuration,
    ) -> Self {
        // Attainment is the share of requests at or below the target (an
        // inclusive `<=`); an empty run, or an axis with no target, attains
        // vacuously (1.0). Counted inline over the latency pairs instead of
        // materializing per-axis sample vectors.
        let frac = |target: Option<SimDuration>, pick: fn(&(SimDuration, SimDuration)) -> f64| {
            let Some(t) = target else { return 1.0 };
            if latencies.is_empty() {
                return 1.0;
            }
            let t = t.as_nanos_f64();
            latencies.iter().filter(|l| pick(l) <= t).count() as f64 / latencies.len() as f64
        };
        let slo_completions = latencies
            .iter()
            .filter(|&&(ttft, e2e)| targets.met(ttft, e2e))
            .count() as u32;
        let span_s = makespan.as_secs_f64();
        let goodput_req_s = if span_s > 0.0 {
            f64::from(slo_completions) / span_s
        } else {
            0.0
        };
        SloReport {
            targets,
            completed: latencies.len() as u32,
            ttft_attainment: frac(targets.ttft, |&(t, _)| t.as_nanos_f64()),
            e2e_attainment: frac(targets.e2e, |&(_, e)| e.as_nanos_f64()),
            slo_completions,
            goodput_req_s,
            goodput_tok_s: goodput_req_s * f64::from(tokens_per_request),
        }
    }
}

/// How a preemption victim's KV state comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResumeAction {
    /// Blocks were copied to host memory and copy back on resume.
    SwapIn,
    /// Blocks were dropped; the context re-prefills on resume.
    Recompute,
}

impl ResumeAction {
    /// Short label used in exported track names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ResumeAction::SwapIn => "swap",
            ResumeAction::Recompute => "recompute",
        }
    }
}

/// One transition in a request's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LifecycleKind {
    /// The request entered the pending queue.
    Arrived,
    /// The scheduler placed the request on a replica (static batch start
    /// or continuous admission).
    Admitted {
        /// The replica the request was placed on.
        replica: u32,
    },
    /// Prefill finished; the first output token left the engine.
    FirstToken,
    /// The KV pool evicted the request.
    Preempted {
        /// The replica it was evicted from.
        replica: u32,
        /// How its KV state will come back.
        action: ResumeAction,
        /// Engine stall charged at eviction time (the copy-out for swaps;
        /// zero for recompute, which defers its cost to resume).
        stall: SimDuration,
    },
    /// A parked request re-entered the running batch.
    Resumed {
        /// The replica it resumed on.
        replica: u32,
        /// How its KV state came back.
        action: ResumeAction,
        /// Cost of the resume iteration it rode in on. Requests resumed in
        /// the same iteration share one batched charge, so they carry the
        /// same value.
        cost: SimDuration,
    },
    /// The request generated its last token and released its blocks.
    Completed {
        /// The replica it completed on.
        replica: u32,
    },
    /// Prefill finished on a disaggregated prefill replica and the
    /// request's KV cache was queued on the destination's handoff link.
    HandoffQueued {
        /// The prefill replica handing the KV off.
        from: u32,
        /// KV bytes to move (whole blocks).
        bytes: u64,
    },
    /// The KV handoff transfer landed on the decode replica.
    HandoffDone {
        /// The decode replica that received the KV.
        to: u32,
        /// Time spent queued on the link before the transfer started.
        wait: SimDuration,
        /// The interconnect transfer time itself (D2H + H2D legs).
        transfer: SimDuration,
    },
    /// The request joined a decode replica's running batch (disaggregated
    /// fleets only; unified admission is [`LifecycleKind::Admitted`]).
    DecodeAdmitted {
        /// The decode replica it joined.
        replica: u32,
    },
}

/// A timestamped lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifecycleEvent {
    /// When the transition happened.
    pub at: SimTime,
    /// What happened.
    pub kind: LifecycleKind,
}

/// The full recorded lifecycle of one request, events in time order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestLifecycle {
    /// The request's ID (arrival order).
    pub id: u64,
    /// Transitions in time order.
    pub events: Vec<LifecycleEvent>,
}

impl RequestLifecycle {
    fn instant_of(&self, pred: impl Fn(&LifecycleKind) -> bool) -> Option<SimTime> {
        self.events.iter().find(|e| pred(&e.kind)).map(|e| e.at)
    }

    /// Arrival instant.
    #[must_use]
    pub fn arrived_at(&self) -> Option<SimTime> {
        self.instant_of(|k| matches!(k, LifecycleKind::Arrived))
    }

    /// First admission instant.
    #[must_use]
    pub fn admitted_at(&self) -> Option<SimTime> {
        self.instant_of(|k| matches!(k, LifecycleKind::Admitted { .. }))
    }

    /// First-token instant.
    #[must_use]
    pub fn first_token_at(&self) -> Option<SimTime> {
        self.instant_of(|k| matches!(k, LifecycleKind::FirstToken))
    }

    /// Completion instant.
    #[must_use]
    pub fn completed_at(&self) -> Option<SimTime> {
        self.instant_of(|k| matches!(k, LifecycleKind::Completed { .. }))
    }

    /// Time-to-first-token, when both endpoints were recorded.
    #[must_use]
    pub fn ttft(&self) -> Option<SimDuration> {
        Some(
            self.first_token_at()?
                .saturating_duration_since(self.arrived_at()?),
        )
    }

    /// End-to-end latency, when both endpoints were recorded.
    #[must_use]
    pub fn e2e(&self) -> Option<SimDuration> {
        Some(
            self.completed_at()?
                .saturating_duration_since(self.arrived_at()?),
        )
    }

    /// Number of preemptions the request suffered.
    #[must_use]
    pub fn preemptions(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, LifecycleKind::Preempted { .. }))
            .count()
    }
}

/// One deterministic sample of the serving-floor counters, taken at an
/// iteration boundary (after each simulator event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Sample instant.
    pub at: SimTime,
    /// Requests waiting in the shared pending queue.
    pub queue_depth: u32,
    /// Requests running across all replicas (continuous actives plus
    /// in-flight static jobs).
    pub running: u32,
    /// Preempted requests parked for a later resume.
    pub parked: u32,
    /// Replicas currently executing an iteration or job.
    pub busy_replicas: u32,
    /// KV blocks in use across all replica pools (0 without a budget).
    pub kv_used_blocks: u32,
    /// KV blocks configured across all replica pools (0 without a budget).
    pub kv_total_blocks: u32,
    /// Requests ever admitted, cumulative.
    pub admitted_total: u32,
    /// Requests completed, cumulative.
    pub completed_total: u32,
}

impl CounterSample {
    /// The conservation law every sample must satisfy: everything admitted
    /// is either still running, parked, or completed.
    #[must_use]
    pub fn conserves_requests(&self) -> bool {
        self.admitted_total == self.completed_total + self.running + self.parked
    }
}

/// Anything that can absorb lifecycle transitions. The memory layer and
/// the batch policies record through this seam, so the same scheduling
/// code serves both the single-node [`ServingTrace`] and the fleet
/// recording without knowing which is behind it.
pub(crate) trait RecordSink {
    /// Appends a lifecycle transition for request `id`.
    fn record(&mut self, id: u64, at: SimTime, kind: LifecycleKind);
}

impl<S: RecordSink + ?Sized> RecordSink for &mut S {
    fn record(&mut self, id: u64, at: SimTime, kind: LifecycleKind) {
        (**self).record(id, at, kind);
    }
}

impl RecordSink for ServingTrace {
    fn record(&mut self, id: u64, at: SimTime, kind: LifecycleKind) {
        ServingTrace::record(self, id, at, kind);
    }
}

/// Everything a serving run recorded beyond the scalar report: lifecycle
/// records and counter tracks, exportable to the Chrome-trace timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingTrace {
    /// Model served.
    pub model: String,
    /// Platform name.
    pub platform: String,
    /// Replica count.
    pub replicas: u32,
    /// One lifecycle per request, indexed by request ID.
    pub lifecycles: Vec<RequestLifecycle>,
    /// Counter samples in time order.
    pub samples: Vec<CounterSample>,
    admitted: u32,
    completed: u32,
}

impl ServingTrace {
    /// Creates an empty recording for a run of `replicas` instances of
    /// `platform` serving `model`.
    #[must_use]
    pub fn new(model: impl Into<String>, platform: impl Into<String>, replicas: u32) -> Self {
        ServingTrace {
            model: model.into(),
            platform: platform.into(),
            replicas,
            lifecycles: Vec::new(),
            samples: Vec::new(),
            admitted: 0,
            completed: 0,
        }
    }

    /// Requests ever admitted.
    #[must_use]
    pub fn admitted_total(&self) -> u32 {
        self.admitted
    }

    /// Requests completed.
    #[must_use]
    pub fn completed_total(&self) -> u32 {
        self.completed
    }

    /// Preallocates lifecycle and sample storage for `requests` requests
    /// of ~`events_per_request` lifecycle events each, so a sized run
    /// records without reallocating mid-simulation. Purely a capacity
    /// hint: recorded content (and its serialized form) is unchanged,
    /// because every id below `requests` arrives eventually and
    /// [`record`](Self::record) would have created the same entries.
    pub fn reserve(&mut self, requests: u32, events_per_request: usize) {
        grow_lifecycles(&mut self.lifecycles, requests as usize, events_per_request);
        // Sample count tracks handled events; start near the floor of two
        // boundaries per request and let growth amortize the rest.
        self.samples.reserve((requests as usize).saturating_mul(2));
    }

    /// Appends a lifecycle transition for request `id`.
    ///
    /// IDs are dense arrival-order indices; the first transition recorded
    /// for a new ID allocates its lifecycle record.
    pub fn record(&mut self, id: u64, at: SimTime, kind: LifecycleKind) {
        match kind {
            LifecycleKind::Admitted { .. } => self.admitted += 1,
            LifecycleKind::Completed { .. } => self.completed += 1,
            _ => {}
        }
        grow_lifecycles(&mut self.lifecycles, id as usize + 1, 0);
        self.lifecycles[id as usize]
            .events
            .push(LifecycleEvent { at, kind });
    }

    /// Appends a counter sample, replacing the previous one when several
    /// simulator events fire at the same instant (the iteration boundary's
    /// final state wins).
    pub fn push_sample(&mut self, sample: CounterSample) {
        push_collapsed(&mut self.samples, sample, |s| s.at);
    }

    /// `true` if every sample satisfies admitted = completed + running +
    /// parked.
    #[must_use]
    pub fn conserves_requests(&self) -> bool {
        self.samples.iter().all(CounterSample::conserves_requests)
    }

    /// Exports the recording as a [`Trace`]:
    ///
    /// * each request becomes one track (thread = request ID) of duration
    ///   slices named `queued`, `prefill`, `decode`, `parked:swap`, or
    ///   `parked:recompute`;
    /// * each preemption→resume hand-off becomes a correlated
    ///   launch/kernel pair, which the Chrome exporter draws as a flow
    ///   arrow from eviction to resume;
    /// * each counter sample becomes one event per counter track
    ///   (`queue_depth`, `running`, `parked`, `busy_replicas`,
    ///   `completed_total`, and `kv_used_blocks` when a pool is
    ///   configured).
    ///
    /// The result round-trips through
    /// `skip_trace::chrome::to_chrome_trace` / `from_chrome_trace` and
    /// passes [`Trace::validate`].
    #[must_use]
    pub fn to_trace(&self) -> Trace {
        let mut t = lifecycle_trace(&self.model, &self.platform, self.replicas, &self.lifecycles);
        let kv_tracked = self.samples.iter().any(|s| s.kv_total_blocks > 0);
        for s in &self.samples {
            let mut counter = |track: &str, value: f64| {
                t.push_counter(CounterEvent {
                    track: track.to_owned(),
                    at: s.at,
                    value,
                });
            };
            counter("queue_depth", f64::from(s.queue_depth));
            counter("running", f64::from(s.running));
            counter("parked", f64::from(s.parked));
            counter("busy_replicas", f64::from(s.busy_replicas));
            counter("completed_total", f64::from(s.completed_total));
            if kv_tracked {
                counter("kv_used_blocks", f64::from(s.kv_used_blocks));
            }
        }
        t
    }
}

/// Grows `lifecycles` to `len` records with dense arrival-order ids, each
/// new one with room for `events` transitions.
pub(crate) fn grow_lifecycles(lifecycles: &mut Vec<RequestLifecycle>, len: usize, events: usize) {
    lifecycles.reserve(len.saturating_sub(lifecycles.len()));
    while lifecycles.len() < len {
        lifecycles.push(RequestLifecycle {
            id: lifecycles.len() as u64,
            events: Vec::with_capacity(events),
        });
    }
}

/// Appends `sample`, replacing the last one when both were taken at the
/// same instant (`at` reads a sample's instant).
pub(crate) fn push_collapsed<S>(samples: &mut Vec<S>, sample: S, at: impl Fn(&S) -> SimTime) {
    match samples.last_mut() {
        Some(last) if at(last) == at(&sample) => *last = sample,
        _ => samples.push(sample),
    }
}

/// Exports request lifecycles as a [`Trace`] of per-request slice tracks
/// and flow pairs (see [`ServingTrace::to_trace`]); each trace type adds
/// its own counter tracks.
pub(crate) fn lifecycle_trace(
    model: &str,
    platform: &str,
    batch_size: u32,
    lifecycles: &[RequestLifecycle],
) -> Trace {
    let mut t = Trace::new(TraceMeta {
        model: model.to_owned(),
        platform: platform.to_owned(),
        exec_mode: "serving".into(),
        phase: "serving".into(),
        batch_size,
        seq_len: 0,
    });
    let mut next_op = 0u64;
    let mut next_corr = 1u64;
    for lc in lifecycles {
        let tid = ThreadId::new(lc.id as u32);
        let mut pending_preempt: Option<SimTime> = None;
        for pair in lc.events.windows(2) {
            let (cur, next) = (&pair[0], &pair[1]);
            let name = match cur.kind {
                LifecycleKind::Arrived => t.intern("queued"),
                LifecycleKind::Admitted { .. } => t.intern("prefill"),
                LifecycleKind::FirstToken
                | LifecycleKind::Resumed { .. }
                | LifecycleKind::DecodeAdmitted { .. } => t.intern("decode"),
                LifecycleKind::Preempted { action, .. } => {
                    t.intern(&format!("parked:{}", action.label()))
                }
                LifecycleKind::HandoffQueued { .. } => t.intern("handoff"),
                LifecycleKind::HandoffDone { .. } => t.intern("queued"),
                LifecycleKind::Completed { .. } => continue,
            };
            t.push_cpu_op(CpuOpEvent {
                id: OpId::new(next_op),
                name,
                thread: tid,
                begin: cur.at,
                end: next.at,
            });
            next_op += 1;
        }
        let mut pending_handoff: Option<SimTime> = None;
        for ev in &lc.events {
            // Each preempt→resume and kv_depart→kv_land hand-off becomes
            // one correlated launch/kernel pair: a flow arrow.
            let flow = match ev.kind {
                LifecycleKind::Preempted { .. } => {
                    pending_preempt = Some(ev.at);
                    None
                }
                LifecycleKind::HandoffQueued { .. } => {
                    pending_handoff = Some(ev.at);
                    None
                }
                LifecycleKind::Resumed { .. } => {
                    pending_preempt.take().map(|at| (at, ["preempt", "resume"]))
                }
                LifecycleKind::HandoffDone { .. } => pending_handoff
                    .take()
                    .map(|at| (at, ["kv_depart", "kv_land"])),
                _ => None,
            };
            if let Some((begin, [from, to])) = flow {
                let correlation = CorrelationId::new(next_corr);
                next_corr += 1;
                let name = t.intern(from);
                t.push_launch(RuntimeLaunchEvent {
                    name,
                    thread: tid,
                    begin,
                    end: begin,
                    correlation,
                });
                let name = t.intern(to);
                t.push_kernel(KernelEvent {
                    name,
                    stream: StreamId::new(lc.id as u32),
                    begin: ev.at,
                    end: ev.at,
                    correlation,
                });
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dur_ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn preempted_lifecycle() -> ServingTrace {
        let mut st = ServingTrace::new("gpt2", "gh200", 1);
        st.record(0, ms(0), LifecycleKind::Arrived);
        st.record(0, ms(10), LifecycleKind::Admitted { replica: 0 });
        st.record(0, ms(30), LifecycleKind::FirstToken);
        st.record(
            0,
            ms(50),
            LifecycleKind::Preempted {
                replica: 0,
                action: ResumeAction::SwapIn,
                stall: dur_ms(2),
            },
        );
        st.record(
            0,
            ms(70),
            LifecycleKind::Resumed {
                replica: 0,
                action: ResumeAction::SwapIn,
                cost: dur_ms(2),
            },
        );
        st.record(0, ms(90), LifecycleKind::Completed { replica: 0 });
        st
    }

    #[test]
    fn lifecycle_accessors_read_transitions() {
        let st = preempted_lifecycle();
        let lc = &st.lifecycles[0];
        assert_eq!(lc.arrived_at(), Some(ms(0)));
        assert_eq!(lc.admitted_at(), Some(ms(10)));
        assert_eq!(lc.ttft(), Some(dur_ms(30)));
        assert_eq!(lc.e2e(), Some(dur_ms(90)));
        assert_eq!(lc.preemptions(), 1);
        assert_eq!(st.admitted_total(), 1);
        assert_eq!(st.completed_total(), 1);
    }

    #[test]
    fn to_trace_builds_slices_flows_and_counters() {
        let mut st = preempted_lifecycle();
        st.push_sample(CounterSample {
            at: ms(10),
            queue_depth: 0,
            running: 1,
            parked: 0,
            busy_replicas: 1,
            kv_used_blocks: 8,
            kv_total_blocks: 16,
            admitted_total: 1,
            completed_total: 0,
        });
        let t = st.to_trace();
        t.validate().unwrap();
        // queued, prefill, decode, parked:swap, decode — five slices.
        let names: Vec<&str> = t.cpu_ops().iter().map(|o| t.name(o.name)).collect();
        assert_eq!(
            names,
            vec!["queued", "prefill", "decode", "parked:swap", "decode"]
        );
        // One preempt→resume flow pair.
        assert_eq!(t.launches().len(), 1);
        assert_eq!(t.kernels().len(), 1);
        assert_eq!(t.launches()[0].correlation, t.kernels()[0].correlation);
        assert_eq!(t.launches()[0].begin, ms(50));
        assert_eq!(t.kernels()[0].begin, ms(70));
        // Six counter tracks (kv tracked).
        assert_eq!(t.counters().len(), 6);
        assert!(t.counters().iter().any(|c| c.track == "kv_used_blocks"));
    }

    /// A disaggregated request's extra transitions export as slices —
    /// handoff occupancy, the decode-side queue wait — plus one
    /// kv_depart→kv_land flow pair, and the decode-side admission must not
    /// double-count the request as admitted.
    #[test]
    fn disaggregated_lifecycle_exports_handoff_slices_and_flow() {
        let mut st = ServingTrace::new("gpt2", "fleet", 2);
        st.record(0, ms(0), LifecycleKind::Arrived);
        st.record(0, ms(5), LifecycleKind::Admitted { replica: 0 });
        st.record(0, ms(20), LifecycleKind::FirstToken);
        st.record(
            0,
            ms(20),
            LifecycleKind::HandoffQueued {
                from: 0,
                bytes: 1 << 20,
            },
        );
        st.record(
            0,
            ms(24),
            LifecycleKind::HandoffDone {
                to: 1,
                wait: dur_ms(1),
                transfer: dur_ms(3),
            },
        );
        st.record(0, ms(30), LifecycleKind::DecodeAdmitted { replica: 1 });
        st.record(0, ms(60), LifecycleKind::Completed { replica: 1 });
        let t = st.to_trace();
        t.validate().unwrap();
        let names: Vec<&str> = t.cpu_ops().iter().map(|o| t.name(o.name)).collect();
        assert_eq!(
            names,
            vec!["queued", "prefill", "decode", "handoff", "queued", "decode"]
        );
        assert_eq!(t.launches().len(), 1);
        assert_eq!(t.kernels().len(), 1);
        assert_eq!(t.name(t.launches()[0].name), "kv_depart");
        assert_eq!(t.name(t.kernels()[0].name), "kv_land");
        assert_eq!(st.admitted_total(), 1);
        assert_eq!(st.completed_total(), 1);
    }

    #[test]
    fn kv_track_omitted_without_a_pool() {
        let mut st = ServingTrace::new("gpt2", "gh200", 1);
        st.push_sample(CounterSample {
            at: ms(1),
            queue_depth: 2,
            running: 0,
            parked: 0,
            busy_replicas: 0,
            kv_used_blocks: 0,
            kv_total_blocks: 0,
            admitted_total: 0,
            completed_total: 0,
        });
        let t = st.to_trace();
        assert_eq!(t.counters().len(), 5);
        assert!(t.counters().iter().all(|c| c.track != "kv_used_blocks"));
    }

    #[test]
    fn same_instant_samples_collapse_to_the_last() {
        let mut st = ServingTrace::new("m", "p", 1);
        let base = CounterSample {
            at: ms(5),
            queue_depth: 3,
            running: 0,
            parked: 0,
            busy_replicas: 0,
            kv_used_blocks: 0,
            kv_total_blocks: 0,
            admitted_total: 0,
            completed_total: 0,
        };
        st.push_sample(base);
        st.push_sample(CounterSample {
            queue_depth: 1,
            ..base
        });
        st.push_sample(CounterSample { at: ms(6), ..base });
        assert_eq!(st.samples.len(), 2);
        assert_eq!(st.samples[0].queue_depth, 1);
    }

    #[test]
    fn conservation_law_checks_every_sample() {
        let mut st = ServingTrace::new("m", "p", 1);
        let ok = CounterSample {
            at: ms(1),
            queue_depth: 0,
            running: 2,
            parked: 1,
            busy_replicas: 1,
            kv_used_blocks: 0,
            kv_total_blocks: 0,
            admitted_total: 4,
            completed_total: 1,
        };
        st.push_sample(ok);
        assert!(st.conserves_requests());
        st.push_sample(CounterSample {
            at: ms(2),
            admitted_total: 5,
            ..ok
        });
        assert!(!st.conserves_requests());
    }

    #[test]
    fn slo_report_scores_attainment_and_goodput() {
        let targets = SloTargets {
            ttft: Some(dur_ms(100)),
            e2e: Some(dur_ms(500)),
        };
        let latencies = [
            (dur_ms(50), dur_ms(200)),  // meets both
            (dur_ms(150), dur_ms(300)), // misses ttft
            (dur_ms(80), dur_ms(600)),  // misses e2e
            (dur_ms(100), dur_ms(500)), // exactly on target: meets
        ];
        let r = SloReport::evaluate(targets, &latencies, 10, SimDuration::from_secs(2));
        assert_eq!(r.completed, 4);
        assert_eq!(r.slo_completions, 2);
        assert!((r.ttft_attainment - 0.75).abs() < 1e-12);
        assert!((r.e2e_attainment - 0.75).abs() < 1e-12);
        assert!((r.goodput_req_s - 1.0).abs() < 1e-12);
        assert!((r.goodput_tok_s - 10.0).abs() < 1e-12);
    }

    #[test]
    fn unset_targets_are_vacuously_met() {
        let r = SloReport::evaluate(
            SloTargets::default(),
            &[(dur_ms(999), dur_ms(9999))],
            4,
            SimDuration::from_secs(1),
        );
        assert!(!r.targets.is_set());
        assert_eq!(r.ttft_attainment, 1.0);
        assert_eq!(r.e2e_attainment, 1.0);
        assert_eq!(r.slo_completions, 1);
    }

    #[test]
    fn empty_run_yields_vacuous_slo_report() {
        let r = SloReport::evaluate(SloTargets::default(), &[], 4, SimDuration::ZERO);
        assert_eq!(r.completed, 0);
        assert_eq!(r.ttft_attainment, 1.0);
        assert_eq!(r.goodput_req_s, 0.0);
        // Set targets attain vacuously on an empty run too.
        let targets = SloTargets {
            ttft: Some(dur_ms(100)),
            e2e: Some(dur_ms(500)),
        };
        let r = SloReport::evaluate(targets, &[], 4, SimDuration::ZERO);
        assert_eq!(r.ttft_attainment, 1.0);
        assert_eq!(r.e2e_attainment, 1.0);
    }

    #[test]
    fn serde_round_trips_the_serving_trace() {
        let st = preempted_lifecycle();
        let json = serde_json::to_string(&st).unwrap();
        let back: ServingTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(st, back);
    }
}

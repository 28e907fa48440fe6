//! Chrome-trace (a.k.a. Trace Event Format) import/export.
//!
//! Emits the JSON-array flavour consumed by `chrome://tracing` and Perfetto —
//! the same format PyTorch Profiler exports — so simulated traces can be
//! inspected with the familiar timeline UI. CPU operators and runtime calls
//! appear on CPU thread tracks, kernels on per-stream GPU tracks, each
//! launch→kernel correlation is drawn as a flow arrow, and (as in PyTorch
//! exports) the correlation ID is also carried in the event `args`.
//! Counter samples ([`CounterEvent`]) export as `ph: "C"` events and render
//! as Perfetto counter tracks — the serving simulator uses them for queue
//! depth, batch size, and KV-pool occupancy time series.
//!
//! [`from_chrome_trace`] parses the format back, which means the SKIP
//! profiler can consume timestamp-faithful Chrome-trace exports of *real*
//! PyTorch runs, not only simulated ones.

use serde::{Deserialize, Serialize};
use skip_des::{SimDuration, SimTime};

use crate::event::{CounterEvent, CpuOpEvent, KernelEvent, RuntimeLaunchEvent};
use crate::ids::{CorrelationId, OpId, StreamId, ThreadId};
use crate::trace::{Trace, TraceMeta};

/// Process IDs used in the exported timeline: CPU events under one pid, GPU
/// events under another, mirroring PyTorch Profiler's layout.
const CPU_PID: u32 = 1;
/// See [`CPU_PID`].
const GPU_PID: u32 = 2;
/// Counter tracks live under their own pid so Perfetto groups them apart
/// from the slice tracks.
const COUNTER_PID: u32 = 3;

#[derive(Serialize, Deserialize)]
struct EventArgs {
    #[serde(skip_serializing_if = "Option::is_none")]
    correlation: Option<u64>,
    /// Counter sample value (`ph: "C"` events only).
    #[serde(skip_serializing_if = "Option::is_none")]
    value: Option<f64>,
}

#[derive(Serialize, Deserialize)]
struct ChromeEvent<'a> {
    name: &'a str,
    cat: &'a str,
    ph: &'a str,
    ts: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    dur: Option<f64>,
    pid: u32,
    tid: u32,
    #[serde(skip_serializing_if = "Option::is_none")]
    id: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    bp: Option<&'a str>,
    #[serde(skip_serializing_if = "Option::is_none")]
    args: Option<EventArgs>,
}

impl<'a> ChromeEvent<'a> {
    fn complete(
        name: &'a str,
        cat: &'a str,
        ts: f64,
        dur: f64,
        pid: u32,
        tid: u32,
        correlation: Option<u64>,
    ) -> Self {
        ChromeEvent {
            name,
            cat,
            ph: "X",
            ts,
            dur: Some(dur),
            pid,
            tid,
            id: None,
            bp: None,
            args: correlation.map(|c| EventArgs {
                correlation: Some(c),
                value: None,
            }),
        }
    }
}

/// Serializes `trace` to a Chrome-trace JSON string.
///
/// Timestamps are microseconds (floats) per the format; durations likewise.
///
/// # Example
///
/// ```
/// use skip_trace::{chrome, Trace, TraceMeta};
///
/// let trace = Trace::new(TraceMeta::default());
/// let json = chrome::to_chrome_trace(&trace);
/// assert!(json.starts_with('['));
/// ```
#[must_use]
pub fn to_chrome_trace(trace: &Trace) -> String {
    let mut events: Vec<ChromeEvent<'_>> = Vec::with_capacity(trace.len() * 2);

    for op in trace.cpu_ops() {
        events.push(ChromeEvent::complete(
            trace.name(op.name),
            "cpu_op",
            op.begin.as_micros_f64(),
            op.duration().as_micros_f64(),
            CPU_PID,
            op.thread.get(),
            None,
        ));
    }
    for l in trace.launches() {
        events.push(ChromeEvent::complete(
            trace.name(l.name),
            "cuda_runtime",
            l.begin.as_micros_f64(),
            l.duration().as_micros_f64(),
            CPU_PID,
            l.thread.get(),
            Some(l.correlation.get()),
        ));
        // Flow start at the launch call.
        events.push(ChromeEvent {
            name: "launch",
            cat: "ac2g",
            ph: "s",
            ts: l.begin.as_micros_f64(),
            dur: None,
            pid: CPU_PID,
            tid: l.thread.get(),
            id: Some(l.correlation.get()),
            bp: None,
            args: None,
        });
    }
    for k in trace.kernels() {
        events.push(ChromeEvent::complete(
            trace.name(k.name),
            "kernel",
            k.begin.as_micros_f64(),
            k.duration().as_micros_f64(),
            GPU_PID,
            k.stream.get(),
            Some(k.correlation.get()),
        ));
        // Flow end binding to the enclosing kernel slice.
        events.push(ChromeEvent {
            name: "launch",
            cat: "ac2g",
            ph: "f",
            ts: k.begin.as_micros_f64(),
            dur: None,
            pid: GPU_PID,
            tid: k.stream.get(),
            id: Some(k.correlation.get()),
            bp: Some("e"),
            args: None,
        });
    }
    for c in trace.counters() {
        events.push(ChromeEvent {
            name: &c.track,
            cat: "counter",
            ph: "C",
            ts: c.at.as_micros_f64(),
            dur: None,
            pid: COUNTER_PID,
            tid: 0,
            id: None,
            bp: None,
            args: Some(EventArgs {
                correlation: None,
                value: Some(c.value),
            }),
        });
    }

    serde_json::to_string(&events).expect("chrome trace serialization cannot fail")
}

/// Errors produced by [`from_chrome_trace`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ImportError {
    /// The input was not valid Trace Event Format JSON.
    Json(serde_json::Error),
    /// A `cuda_runtime` or `kernel` event lacked a correlation ID.
    MissingCorrelation {
        /// The event's name.
        name: String,
    },
    /// A counter (`ph: "C"`) event lacked `args.value`.
    MissingCounterValue {
        /// The counter track's name.
        name: String,
    },
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Json(e) => write!(f, "invalid trace-event JSON: {e}"),
            ImportError::MissingCorrelation { name } => {
                write!(f, "event {name} lacks args.correlation")
            }
            ImportError::MissingCounterValue { name } => {
                write!(f, "counter event {name} lacks args.value")
            }
        }
    }
}

impl std::error::Error for ImportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImportError::Json(e) => Some(e),
            ImportError::MissingCorrelation { .. } | ImportError::MissingCounterValue { .. } => {
                None
            }
        }
    }
}

impl From<serde_json::Error> for ImportError {
    fn from(e: serde_json::Error) -> Self {
        ImportError::Json(e)
    }
}

fn micros_to_time(us: f64) -> SimTime {
    SimTime::from_nanos(SimDuration::from_nanos_f64(us * 1e3).as_nanos())
}

/// Parses a Chrome-trace JSON array (our export format, which mirrors
/// PyTorch Profiler's `cpu_op` / `cuda_runtime` / `kernel` categories and
/// `args.correlation`, plus `ph: "C"` counter samples) back into a
/// [`Trace`].
///
/// Flow events and unknown categories are skipped; operator IDs are
/// regenerated in event order. Timestamps are rounded to the nanosecond.
///
/// # Errors
///
/// Returns [`ImportError`] on malformed JSON, on runtime/kernel events
/// without a correlation ID, or on counter events without a value.
///
/// # Example
///
/// ```
/// use skip_trace::{chrome, Trace, TraceMeta};
///
/// let trace = Trace::new(TraceMeta::default());
/// let json = chrome::to_chrome_trace(&trace);
/// let back = chrome::from_chrome_trace(&json)?;
/// assert!(back.is_empty());
/// # Ok::<(), chrome::ImportError>(())
/// ```
pub fn from_chrome_trace(json: &str) -> Result<Trace, ImportError> {
    #[derive(Deserialize)]
    struct Raw {
        name: String,
        #[serde(default)]
        cat: String,
        ph: String,
        ts: f64,
        #[serde(default)]
        dur: f64,
        #[serde(default)]
        tid: u32,
        #[serde(default)]
        args: Option<EventArgs>,
    }

    let raw: Vec<Raw> = serde_json::from_str(json)?;
    let mut trace = Trace::new(TraceMeta::default());
    let mut next_op = 0u64;
    for ev in raw {
        if ev.ph == "C" {
            let value =
                ev.args
                    .as_ref()
                    .and_then(|a| a.value)
                    .ok_or(ImportError::MissingCounterValue {
                        name: ev.name.clone(),
                    })?;
            trace.push_counter(CounterEvent {
                track: ev.name,
                at: micros_to_time(ev.ts),
                value,
            });
            continue;
        }
        if ev.ph != "X" {
            continue; // flows, metadata
        }
        let begin = micros_to_time(ev.ts);
        let end = begin + SimDuration::from_nanos_f64(ev.dur * 1e3);
        match ev.cat.as_str() {
            "cpu_op" => {
                let name = trace.intern(&ev.name);
                trace.push_cpu_op(CpuOpEvent {
                    id: OpId::new(next_op),
                    name,
                    thread: ThreadId::new(ev.tid),
                    begin,
                    end,
                });
                next_op += 1;
            }
            "cuda_runtime" => {
                let corr = ev.args.as_ref().and_then(|a| a.correlation).ok_or(
                    ImportError::MissingCorrelation {
                        name: ev.name.clone(),
                    },
                )?;
                let name = trace.intern(&ev.name);
                trace.push_launch(RuntimeLaunchEvent {
                    name,
                    thread: ThreadId::new(ev.tid),
                    begin,
                    end,
                    correlation: CorrelationId::new(corr),
                });
            }
            "kernel" => {
                let corr = ev.args.as_ref().and_then(|a| a.correlation).ok_or(
                    ImportError::MissingCorrelation {
                        name: ev.name.clone(),
                    },
                )?;
                let name = trace.intern(&ev.name);
                trace.push_kernel(KernelEvent {
                    name,
                    stream: StreamId::new(ev.tid),
                    begin,
                    end,
                    correlation: CorrelationId::new(corr),
                });
            }
            _ => {}
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new(TraceMeta::default());
        let linear = t.intern("aten::linear");
        t.push_cpu_op(CpuOpEvent {
            id: OpId::new(0),
            name: linear,
            thread: ThreadId::MAIN,
            begin: SimTime::from_nanos(0),
            end: SimTime::from_nanos(1_000),
        });
        let launch = t.intern("cudaLaunchKernel");
        t.push_launch(RuntimeLaunchEvent {
            name: launch,
            thread: ThreadId::MAIN,
            begin: SimTime::from_nanos(100),
            end: SimTime::from_nanos(200),
            correlation: CorrelationId::new(42),
        });
        let gemm = t.intern("gemm_kernel");
        t.push_kernel(KernelEvent {
            name: gemm,
            stream: StreamId::DEFAULT,
            begin: SimTime::from_nanos(2_500),
            end: SimTime::from_nanos(3_500),
            correlation: CorrelationId::new(42),
        });
        t
    }

    #[test]
    fn export_contains_all_event_kinds_and_flows() {
        let json = to_chrome_trace(&sample());
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let arr = parsed.as_array().unwrap();
        // 3 complete events + 2 flow events.
        assert_eq!(arr.len(), 5);
        assert!(json.contains("\"aten::linear\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"correlation\":42"));
        // Timestamps are microseconds: the kernel at 2500ns is ts=2.5us.
        assert!(json.contains("\"ts\":2.5"));
    }

    #[test]
    fn import_round_trips_every_field() {
        let original = sample();
        let back = from_chrome_trace(&to_chrome_trace(&original)).unwrap();
        assert_eq!(back.cpu_ops().len(), 1);
        assert_eq!(back.launches().len(), 1);
        assert_eq!(back.kernels().len(), 1);
        assert_eq!(back.name(back.cpu_ops()[0].name), "aten::linear");
        assert_eq!(back.cpu_ops()[0].begin, SimTime::from_nanos(0));
        assert_eq!(back.cpu_ops()[0].end, SimTime::from_nanos(1_000));
        assert_eq!(back.launches()[0].correlation, CorrelationId::new(42));
        assert_eq!(back.kernels()[0].begin, SimTime::from_nanos(2_500));
        assert_eq!(back.kernels()[0].correlation, CorrelationId::new(42));
        back.validate().unwrap();
        // Semantic equality holds even though import interns in export
        // order, which may differ from the producer's interning order.
        assert_eq!(back, original);
    }

    #[test]
    fn kernel_names_are_json_escaped() {
        let mut t = Trace::new(TraceMeta::default());
        let evil = t.intern("aten::pad\"evil\\name");
        t.push_cpu_op(CpuOpEvent {
            id: OpId::new(0),
            name: evil,
            thread: ThreadId::MAIN,
            begin: SimTime::from_nanos(0),
            end: SimTime::from_nanos(1),
        });
        let json = to_chrome_trace(&t);
        let back = from_chrome_trace(&json).unwrap();
        assert_eq!(back.name(back.cpu_ops()[0].name), "aten::pad\"evil\\name");
    }

    #[test]
    fn empty_trace_exports_empty_array() {
        assert_eq!(to_chrome_trace(&Trace::default()), "[]");
        assert!(from_chrome_trace("[]").unwrap().is_empty());
    }

    #[test]
    fn counters_round_trip_as_ph_c_events() {
        let mut t = sample();
        t.push_counter(CounterEvent {
            track: "queue_depth".into(),
            at: SimTime::from_nanos(1_500),
            value: 4.0,
        });
        t.push_counter(CounterEvent {
            track: "queue_depth".into(),
            at: SimTime::from_nanos(3_000),
            value: 2.5,
        });
        let json = to_chrome_trace(&t);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":4.0") || json.contains("\"value\":4"));
        let back = from_chrome_trace(&json).unwrap();
        assert_eq!(back.counters().len(), 2);
        assert_eq!(back.counters()[0].track, "queue_depth");
        assert_eq!(back.counters()[0].at, SimTime::from_nanos(1_500));
        assert!((back.counters()[1].value - 2.5).abs() < 1e-12);
    }

    #[test]
    fn import_rejects_counters_without_value() {
        let json = r#"[{"name":"queue_depth","cat":"counter","ph":"C","ts":1.0,"pid":3,"tid":0}]"#;
        assert!(matches!(
            from_chrome_trace(json),
            Err(ImportError::MissingCounterValue { .. })
        ));
    }

    #[test]
    fn import_rejects_kernels_without_correlation() {
        let json = r#"[{"name":"k","cat":"kernel","ph":"X","ts":1.0,"dur":1.0,"pid":2,"tid":0}]"#;
        assert!(matches!(
            from_chrome_trace(json),
            Err(ImportError::MissingCorrelation { .. })
        ));
    }

    #[test]
    fn import_skips_unknown_categories_and_phases() {
        let json = r#"[
            {"name":"meta","cat":"__metadata","ph":"M","ts":0.0,"pid":1,"tid":0},
            {"name":"gc","cat":"python_gc","ph":"X","ts":0.0,"dur":1.0,"pid":1,"tid":0}
        ]"#;
        assert!(from_chrome_trace(json).unwrap().is_empty());
    }

    #[test]
    fn import_rejects_malformed_json() {
        assert!(matches!(
            from_chrome_trace("not json"),
            Err(ImportError::Json(_))
        ));
    }
}

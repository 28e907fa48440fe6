//! The traced child's instruments: spans around calls into each layer's
//! public functions, a counting allocator, and the Chrome trace-event
//! export of the recorded spans.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Span recorder. A disabled recorder only forwards the calls, so the
/// untraced child runs the same code path at no measurable cost.
pub struct Spans {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn off() -> Spans {
        Spans {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Spans {
        Spans {
            origin: Some(Instant::now()),
            ..Spans::off()
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.span_named(f, |_| name)
    }

    /// Runs `f` inside a span named after its result, for calls whose
    /// layer is known only once they return.
    pub fn span_named<'n, T>(
        &mut self,
        f: impl FnOnce(&mut Spans) -> T,
        name: impl FnOnce(&T) -> &'n str,
    ) -> T {
        let Some(origin) = self.origin else {
            return f(self);
        };
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name: String::new(),
            start_ns: origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let span = &mut self.spans[idx as usize];
        span.dur_ns = (origin.elapsed().as_nanos() as u64).saturating_sub(span.start_ns);
        span.name = name(&out).to_owned();
        out
    }

    /// Total seconds spent in spans called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e9)
            .sum()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The system allocator, counting allocations while [`count_allocs`] runs.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed statistic that publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the number of `alloc` and
/// `realloc` calls it made. Only the traced child counts; the process is
/// single-threaded, so no other thread's allocations leak in.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[derive(Serialize)]
struct ChromeEvent<'a> {
    name: &'a str,
    ph: &'a str,
    ts: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    dur: Option<f64>,
    pid: u32,
    tid: u32,
    args: BTreeMap<String, String>,
}

/// Chrome trace-event JSON (viewable in Perfetto) of each workload's
/// traced spans, one process track per workload.
pub fn chrome_trace(workloads: &[(&str, &[Span])]) -> String {
    let mut events = Vec::new();
    for (pid, (workload, spans)) in workloads.iter().enumerate() {
        let pid = pid as u32 + 1;
        events.push(ChromeEvent {
            name: "process_name",
            ph: "M",
            ts: 0.0,
            dur: None,
            pid,
            tid: 1,
            args: BTreeMap::from([("name".to_owned(), (*workload).to_owned())]),
        });
        for s in spans.iter() {
            let parent = s
                .parent
                .map_or_else(String::new, |p| spans[p as usize].name.clone());
            events.push(ChromeEvent {
                name: &s.name,
                ph: "X",
                ts: s.start_ns as f64 / 1e3,
                dur: Some(s.dur_ns as f64 / 1e3),
                pid,
                tid: 1,
                args: BTreeMap::from([("parent".to_owned(), parent)]),
            });
        }
    }
    serde_json::to_string(&events).expect("trace events serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut s = Spans::on();
        let v = s.span("outer", |s| s.span("inner", |_| 1) + s.span("inner", |_| 2));
        assert_eq!(v, 3);
        assert!(s.seconds("outer") >= s.seconds("inner"));
        let spans = s.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        let json = chrome_trace(&[("w", &spans)]);
        assert!(json.contains("\"parent\":\"outer\""));

        let mut off = Spans::off();
        assert_eq!(off.span("outer", |s| s.span("inner", |_| 7)), 7);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn allocation_counter_sees_allocations() {
        let (v, n) = count_allocs(|| vec![1u8; 64]);
        assert_eq!(v.len(), 64);
        assert!(n >= 1);
    }
}

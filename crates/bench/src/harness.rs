//! Deterministic fan-out executor for experiment sweeps.
//!
//! Every sweep in this crate is an embarrassingly-parallel map over an
//! index-ordered work list (batch sizes × platforms × modes). [`map`] runs
//! the closure on scoped worker threads and writes each result back by its
//! *input index*, so the output `Vec` is byte-identical to the serial
//! evaluation regardless of worker count or scheduling — determinism comes
//! from the data layout, not from the execution order.
//!
//! Worker count resolution, in priority order:
//!
//! 1. [`set_threads`] (the experiment binaries' `--threads N` flag),
//! 2. the `SKIP_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! A resolved count of 0 or 1 runs the work inline on the caller's thread
//! with no worker machinery at all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for every subsequent [`map`] call (the
/// `--threads N` flag of the experiment binaries). Passing 0 clears the
/// override, falling back to `SKIP_THREADS` / available parallelism.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Applies a `--threads N` command-line flag, if present, as the
/// [`set_threads`] override. Every experiment binary calls this first, so
/// `cargo run -p skip-bench --bin fig6 -- --threads 4` pins the worker
/// count (as does `SKIP_THREADS=4`).
///
/// # Panics
///
/// Panics if `--threads` is given without a positive integer argument.
pub fn init_from_args() {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threads" {
            let n = args
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .expect("--threads needs a positive integer");
            set_threads(n);
        }
    }
}

/// The worker count [`map`] will use: the [`set_threads`] override if set,
/// else `SKIP_THREADS` if set and parseable, else available parallelism.
#[must_use]
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = std::env::var("SKIP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Applies `f` to every item, in parallel, returning results in input
/// order — indistinguishable from `items.into_iter().map(f).collect()`.
///
/// See the module docs for the determinism argument and worker-count
/// resolution.
pub fn map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    map_with(threads(), items, f)
}

/// The worker count `map_with(requested, ..)` will actually fan out to:
/// `requested` capped by the host's available parallelism. Spawning more
/// workers than cores cannot help an embarrassingly-parallel CPU-bound
/// sweep — it only adds spawn/teardown and scheduler churn per call (a
/// 4-worker fig10 sweep once measured *slower* than serial on a
/// single-core host for exactly this reason) —
/// and determinism comes from index-ordered write-back, never from the
/// worker count, so capping is invisible in the results.
#[must_use]
pub fn effective_workers(requested: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    requested.min(cores)
}

/// [`map`] with an explicit worker count (0 and 1 both mean serial; counts
/// above the host's core count are capped — see [`effective_workers`]).
pub fn map_with<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    let workers = effective_workers(workers).min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Items parked in per-index slots: workers claim the next index via an
    // atomic counter and take the item out of its slot, so `I` needs only
    // `Send`, not `Sync`, and no channel reorders the work.
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;

    let mut gathered: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        let item = slots[idx]
                            .lock()
                            .expect("work slot poisoned")
                            .take()
                            .expect("work item claimed twice");
                        out.push((idx, f(item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    // Write results back by input index.
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for chunk in &mut gathered {
        for (idx, value) in chunk.drain(..) {
            results[idx] = Some(value);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every index produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_output_equals_serial_in_order() {
        let items: Vec<u64> = (0..103).collect();
        let serial = map_with(1, items.clone(), |i| i * i + 1);
        for workers in [2, 3, 8, 64, 1000] {
            let parallel = map_with(workers, items.clone(), |i| i * i + 1);
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        assert_eq!(map_with(8, Vec::<u32>::new(), |i| i), Vec::<u32>::new());
        assert_eq!(map_with(8, vec![7u32], |i| i + 1), vec![8]);
    }

    #[test]
    fn non_sync_items_are_accepted() {
        // Cell is Send but not Sync; the slot design must still admit it.
        let items: Vec<std::cell::Cell<u32>> = (0..20).map(std::cell::Cell::new).collect();
        let out = map_with(4, items, |c| c.get() * 2);
        assert_eq!(out, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn override_beats_environment() {
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }
}

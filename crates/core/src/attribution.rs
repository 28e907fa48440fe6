//! Operator-level attribution: roll kernel time and launch overhead up to
//! the root ATen operators that caused them.
//!
//! Top-k kernel tracking (§III-A-5) answers "which *kernels* dominate";
//! this module answers the companion question a user of SKIP asks next:
//! "which *operators* should I optimize?" Every kernel is attributed —
//! through its launch call and the dependency graph — to the root
//! (top-level) operator containing the launch, aggregating GPU time,
//! launch+queue time, and counts per operator name.

use serde::{Deserialize, Serialize};
use skip_des::SimDuration;
use skip_trace::Trace;

use crate::depgraph::{DependencyGraph, OpRef};

/// Aggregate statistics for one root-operator name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpStat {
    /// Root operator name (e.g. `"aten::linear"`).
    pub name: String,
    /// Number of root-operator instances that launched at least one kernel.
    pub instances: usize,
    /// Kernels launched from under this operator.
    pub kernels: usize,
    /// Total GPU execution time of those kernels.
    pub gpu_time: SimDuration,
    /// Total launch + queuing time of those kernels (this operator's
    /// contribution to TKLQT).
    pub launch_queue_time: SimDuration,
}

/// Attributes every kernel of `trace` to its root operator, returning
/// per-operator aggregates sorted by GPU time (descending, ties broken by
/// name for determinism).
///
/// Kernels whose launch call has no containing operator (e.g. a bare
/// `cudaGraphLaunch` replay) are aggregated under `"<no operator>"`.
///
/// This runs one sweep for each launch's root operator rather than a whole
/// [`DependencyGraph`]; a caller that already holds the graph uses
/// [`attribute_with_graph`], which returns the same rows.
///
/// # Example
///
/// ```
/// use skip_hw::Platform;
/// use skip_llm::{zoo, Phase, Workload};
/// use skip_runtime::{Engine, ExecMode};
///
/// let trace = Engine::new(Platform::intel_h100())
///     .run(&Workload::new(zoo::gpt2(), Phase::Prefill, 8, 512), ExecMode::Eager);
/// let stats = skip_core::attribute_to_operators(&trace);
/// // Every kernel is accounted for exactly once.
/// let attributed: usize = stats.iter().map(|s| s.kernels).sum();
/// assert_eq!(attributed, trace.kernels().len());
/// // The heaviest operator is first.
/// assert!(stats[0].gpu_time >= stats.last().unwrap().gpu_time);
/// ```
#[must_use]
pub fn attribute_to_operators(trace: &Trace) -> Vec<OpStat> {
    aggregate(trace, crate::depgraph::launch_roots(trace))
}

/// Like [`attribute_to_operators`] but reuses an existing dependency graph
/// of `trace` ([C-INTERMEDIATE]), as [`ProfileReport::analyze_with_graph`]
/// does.
///
/// [C-INTERMEDIATE]: https://rust-lang.github.io/api-guidelines/flexibility.html
/// [`ProfileReport::analyze_with_graph`]: crate::ProfileReport::analyze_with_graph
#[must_use]
pub fn attribute_with_graph(trace: &Trace, graph: &DependencyGraph) -> Vec<OpStat> {
    let links = graph.launches().iter().map(|l| {
        let root = l.parent_op.map(|p| graph.root_ancestor(p));
        (l.launch_idx, l.kernel_idx, root)
    });
    aggregate(trace, links)
}

/// Sums `(launch, kernel, root operator)` links into one row per root
/// operator name.
fn aggregate(
    trace: &Trace,
    links: impl Iterator<Item = (usize, Option<usize>, Option<OpRef>)>,
) -> Vec<OpStat> {
    let ops = trace.cpu_ops();
    let launches = trace.launches();
    let kernels = trace.kernels();

    #[derive(Clone, Copy, Default)]
    struct Acc {
        instances: usize,
        kernels: usize,
        gpu_time: SimDuration,
        lq_time: SimDuration,
    }
    // One dense slot per interned name, plus slot 0 for kernels with no
    // containing operator; names materialize once per row, not per kernel.
    let mut slots = vec![Acc::default(); trace.names().len() + 1];
    // Root operators already counted as an instance of their name.
    let mut counted = vec![false; ops.len()];

    for (launch, kernel, root) in links {
        let Some(kidx) = kernel else {
            continue;
        };
        let slot = match root {
            Some(root) => {
                let slot = ops[root].name.get() as usize + 1;
                if !counted[root] {
                    counted[root] = true;
                    slots[slot].instances += 1;
                }
                slot
            }
            None => {
                slots[0].instances = 1;
                0
            }
        };
        let acc = &mut slots[slot];
        acc.kernels += 1;
        let k = &kernels[kidx];
        // An inverted kernel (end < begin, possible in a hand-built or
        // unvalidated trace) counts zero GPU time rather than panicking.
        acc.gpu_time += k.end.saturating_duration_since(k.begin);
        acc.lq_time += k.begin.saturating_duration_since(launches[launch].begin);
    }

    let names = std::iter::once("<no operator>").chain(trace.names().iter().map(|(_, n)| n));
    let mut stats: Vec<OpStat> = names
        .zip(slots)
        .filter(|(_, a)| a.kernels > 0)
        .map(|(name, a)| OpStat {
            name: name.to_owned(),
            instances: a.instances,
            kernels: a.kernels,
            gpu_time: a.gpu_time,
            launch_queue_time: a.lq_time,
        })
        .collect();
    stats.sort_by(|a, b| {
        b.gpu_time
            .cmp(&a.gpu_time)
            .then_with(|| a.name.cmp(&b.name))
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use skip_des::SimTime;
    use skip_trace::{
        CorrelationId, CpuOpEvent, KernelEvent, OpId, RuntimeLaunchEvent, StreamId, ThreadId,
        TraceMeta,
    };

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    /// Two roots: "aten::linear" (with nested addmm launching 2 kernels)
    /// and "aten::softmax" (1 kernel).
    fn sample() -> Trace {
        let mut t = Trace::new(TraceMeta::default());
        for (id, name, begin, end) in [
            (0u64, "aten::linear", 0u64, 100u64),
            (1, "aten::addmm", 10, 90),
            (2, "aten::softmax", 100, 200),
        ] {
            let name = t.intern(name);
            t.push_cpu_op(CpuOpEvent {
                id: OpId::new(id),
                name,
                thread: ThreadId::MAIN,
                begin: ns(begin),
                end: ns(end),
            });
        }
        let cuda_launch = t.intern("cudaLaunchKernel");
        let mut launch = |begin: u64, corr: u64, kb: u64, ke: u64| {
            t.push_launch(RuntimeLaunchEvent {
                name: cuda_launch,
                thread: ThreadId::MAIN,
                begin: ns(begin),
                end: ns(begin + 5),
                correlation: CorrelationId::new(corr),
            });
            let kname = t.intern(&format!("k{corr}"));
            t.push_kernel(KernelEvent {
                name: kname,
                stream: StreamId::DEFAULT,
                begin: ns(kb),
                end: ns(ke),
                correlation: CorrelationId::new(corr),
            });
        };
        launch(20, 1, 40, 70); // under addmm → root linear, 30ns GPU
        launch(30, 2, 70, 90); // under addmm → root linear, 20ns GPU
        launch(110, 3, 130, 140); // under softmax, 10ns GPU
        t
    }

    #[test]
    fn kernels_roll_up_to_root_operators() {
        let stats = attribute_to_operators(&sample());
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "aten::linear");
        assert_eq!(stats[0].kernels, 2);
        assert_eq!(stats[0].instances, 1);
        assert_eq!(stats[0].gpu_time, SimDuration::from_nanos(50));
        // launch→kernel: (40-20) + (70-30) = 60.
        assert_eq!(stats[0].launch_queue_time, SimDuration::from_nanos(60));
        assert_eq!(stats[1].name, "aten::softmax");
        assert_eq!(stats[1].gpu_time, SimDuration::from_nanos(10));
    }

    #[test]
    fn orphan_launches_bucket_separately() {
        let mut t = Trace::new(TraceMeta::default());
        let graph_launch = t.intern("cudaGraphLaunch");
        t.push_launch(RuntimeLaunchEvent {
            name: graph_launch,
            thread: ThreadId::MAIN,
            begin: ns(0),
            end: ns(5),
            correlation: CorrelationId::new(1),
        });
        let k = t.intern("k");
        t.push_kernel(KernelEvent {
            name: k,
            stream: StreamId::DEFAULT,
            begin: ns(10),
            end: ns(20),
            correlation: CorrelationId::new(1),
        });
        let stats = attribute_to_operators(&t);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "<no operator>");
    }

    /// The one-sweep root pass and the graph's parent-chain walk attribute
    /// identically, including launches outside every operator and launches
    /// on a thread with no operators.
    #[test]
    fn graph_and_sweep_attribution_agree() {
        let mut t = sample();
        let cuda_launch = t.intern("cudaLaunchKernel");
        let k = t.intern("k_other_thread");
        for (corr, thread) in [(4u64, ThreadId::MAIN), (5, ThreadId::new(3))] {
            let at = 300 + corr * 10;
            t.push_launch(RuntimeLaunchEvent {
                name: cuda_launch,
                thread,
                begin: ns(at),
                end: ns(at + 2),
                correlation: CorrelationId::new(corr),
            });
            t.push_kernel(KernelEvent {
                name: k,
                stream: StreamId::DEFAULT,
                begin: ns(at + 100),
                end: ns(at + 105),
                correlation: CorrelationId::new(corr),
            });
        }
        let stats = attribute_to_operators(&t);
        assert_eq!(stats, attribute_with_graph(&t, &DependencyGraph::build(&t)));
        let orphans = stats.iter().find(|s| s.name == "<no operator>");
        assert_eq!(orphans.map(|s| (s.instances, s.kernels)), Some((1, 2)));
    }

    #[test]
    fn attribution_covers_every_kernel() {
        let t = sample();
        let stats = attribute_to_operators(&t);
        let attributed: usize = stats.iter().map(|s| s.kernels).sum();
        assert_eq!(attributed, t.kernels().len());
    }
}

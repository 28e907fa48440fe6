//! The paper's fine-grained metrics (§III-A, Eqs. 1–5).

use serde::{Deserialize, Serialize};
use skip_des::{SimDuration, SimTime};
use skip_trace::Trace;

use crate::depgraph::DependencyGraph;

/// Everything SKIP computes for one trace.
///
/// All durations are simulated time. See the equations referenced on each
/// field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Total Kernel Launch and Queuing Time (Eq. 2): `Σ ts_b(k_j) −
    /// ts_b(l_j)` over all launched kernels. Flat in the CPU-bound region
    /// (pure launch overhead), ramping when kernel queuing dominates.
    pub tklqt: SimDuration,
    /// Average Kernel Duration (Eq. 3).
    pub akd: SimDuration,
    /// Inference Latency (Eq. 4): last kernel end − first parent operator
    /// begin.
    pub inference_latency: SimDuration,
    /// GPU idle time (Eq. 5): `IL − Σ t_k`.
    pub gpu_idle: SimDuration,
    /// CPU idle time: `IL` minus the span the CPU spent executing
    /// operators — the time the host spends waiting on the device.
    pub cpu_idle: SimDuration,
    /// Mean per-kernel launch overhead, ns (`TKLQT / kernels`).
    pub mean_launch_overhead_ns: f64,
    /// Number of kernels executed.
    pub kernel_count: usize,
    /// Number of runtime launch calls (includes memcpys).
    pub launch_count: usize,
    /// Number of CPU operator events.
    pub cpu_op_count: usize,
    /// Total kernel execution time `Σ t_k`.
    pub total_kernel_time: SimDuration,
}

impl ProfileReport {
    /// Runs the SKIP analysis on `trace`.
    ///
    /// Builds the dependency graph (§IV-A) to pair kernels with their
    /// launch calls, then evaluates Eqs. 1–5. Traces without kernels yield
    /// a report of zeros (with `inference_latency` equal to the CPU span).
    #[must_use]
    pub fn analyze(trace: &Trace) -> Self {
        let graph = DependencyGraph::build(trace);
        Self::analyze_with_graph(trace, &graph)
    }

    /// Like [`ProfileReport::analyze`] but reuses an existing dependency
    /// graph ([C-INTERMEDIATE]).
    ///
    /// [C-INTERMEDIATE]: https://rust-lang.github.io/api-guidelines/flexibility.html
    #[must_use]
    pub fn analyze_with_graph(trace: &Trace, graph: &DependencyGraph) -> Self {
        let launches = trace.launches();
        let kernels = trace.kernels();

        // Eq. 1–2: per-kernel launch+queue time, summed.
        let mut tklqt = SimDuration::ZERO;
        for link in graph.launches() {
            if let Some(kidx) = link.kernel_idx {
                tklqt += kernels[kidx]
                    .begin
                    .saturating_duration_since(launches[link.launch_idx].begin);
            }
        }

        // Eq. 3: average kernel duration. A kernel that ends before it
        // begins (possible in a hand-built or unvalidated trace) counts
        // zero time rather than panicking. The sum runs over plain
        // nanoseconds: a `SimDuration` sum checks for overflow at every
        // kernel, and that read slower in the traced profile sweep.
        let total_kernel_time = SimDuration::from_nanos(
            kernels
                .iter()
                .map(|k| k.end.saturating_duration_since(k.begin).as_nanos())
                .sum(),
        );
        let akd = if kernels.is_empty() {
            SimDuration::ZERO
        } else {
            total_kernel_time / kernels.len() as u64
        };

        // Eq. 4: inference latency.
        let first_op_begin = trace
            .cpu_ops()
            .iter()
            .map(|o| o.begin)
            .min()
            .unwrap_or(SimTime::ZERO);
        let last_kernel_end = kernels.iter().map(|k| k.end).max();
        let inference_latency = match last_kernel_end {
            Some(end) => end.saturating_duration_since(first_op_begin),
            None => trace.span(),
        };

        // Eq. 5: GPU idle.
        let gpu_idle = inference_latency.saturating_sub(total_kernel_time);

        // CPU busy span: first op begin to last CPU-side event end.
        let last_cpu_end = trace
            .cpu_ops()
            .iter()
            .map(|o| o.end)
            .chain(launches.iter().map(|l| l.end))
            .max();
        let cpu_busy = match last_cpu_end {
            Some(end) => end.saturating_duration_since(first_op_begin),
            None => SimDuration::ZERO,
        };
        let cpu_idle = inference_latency.saturating_sub(cpu_busy);

        let mean_launch_overhead_ns = if kernels.is_empty() {
            0.0
        } else {
            tklqt.as_nanos_f64() / kernels.len() as f64
        };

        ProfileReport {
            tklqt,
            akd,
            inference_latency,
            gpu_idle,
            cpu_idle,
            mean_launch_overhead_ns,
            kernel_count: kernels.len(),
            launch_count: launches.len(),
            cpu_op_count: trace.cpu_ops().len(),
            total_kernel_time,
        }
    }

    /// Fraction of the inference latency the GPU was busy, in `[0, 1]`.
    #[must_use]
    pub fn gpu_utilization(&self) -> f64 {
        let il = self.inference_latency.as_nanos_f64();
        if il == 0.0 {
            return 0.0;
        }
        self.total_kernel_time.as_nanos_f64() / il
    }
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

    /// One op [0,100) launching two kernels: launch at 10 → kernel [20,50),
    /// launch at 30 → kernel [60,90).
    fn two_kernel_trace() -> Trace {
        let mut t = Trace::new(TraceMeta::default());
        let linear = t.intern("aten::linear");
        t.push_cpu_op(CpuOpEvent {
            id: OpId::new(0),
            name: linear,
            thread: ThreadId::MAIN,
            begin: ns(0),
            end: ns(100),
        });
        let launch = t.intern("cudaLaunchKernel");
        let k = t.intern("k");
        for (corr, lb, kb, ke) in [(1u64, 10u64, 20u64, 50u64), (2, 30, 60, 90)] {
            t.push_launch(RuntimeLaunchEvent {
                name: launch,
                thread: ThreadId::MAIN,
                begin: ns(lb),
                end: ns(lb + 5),
                correlation: CorrelationId::new(corr),
            });
            t.push_kernel(KernelEvent {
                name: k,
                stream: StreamId::DEFAULT,
                begin: ns(kb),
                end: ns(ke),
                correlation: CorrelationId::new(corr),
            });
        }
        t
    }

    #[test]
    fn equations_one_through_five() {
        let r = ProfileReport::analyze(&two_kernel_trace());
        // TKLQT = (20-10) + (60-30) = 40.
        assert_eq!(r.tklqt, SimDuration::from_nanos(40));
        // AKD = (30+30)/2.
        assert_eq!(r.akd, SimDuration::from_nanos(30));
        // IL = 90 - 0.
        assert_eq!(r.inference_latency, SimDuration::from_nanos(90));
        // GPU idle = 90 - 60.
        assert_eq!(r.gpu_idle, SimDuration::from_nanos(30));
        // CPU busy spans to 100 > IL, so CPU idle clamps to zero.
        assert_eq!(r.cpu_idle, SimDuration::ZERO);
        assert_eq!(r.kernel_count, 2);
        assert!((r.mean_launch_overhead_ns - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_yields_zeros() {
        let r = ProfileReport::analyze(&Trace::default());
        assert_eq!(r.tklqt, SimDuration::ZERO);
        assert_eq!(r.akd, SimDuration::ZERO);
        assert_eq!(r.kernel_count, 0);
        assert_eq!(r.gpu_utilization(), 0.0);
    }

    #[test]
    fn cpu_idle_appears_when_gpu_runs_long() {
        // CPU finishes at 40, last kernel ends at 200 → CPU idles 160.
        let mut t = Trace::new(TraceMeta::default());
        let mm = t.intern("aten::mm");
        t.push_cpu_op(CpuOpEvent {
            id: OpId::new(0),
            name: mm,
            thread: ThreadId::MAIN,
            begin: ns(0),
            end: ns(40),
        });
        let launch = t.intern("cudaLaunchKernel");
        t.push_launch(RuntimeLaunchEvent {
            name: launch,
            thread: ThreadId::MAIN,
            begin: ns(10),
            end: ns(15),
            correlation: CorrelationId::new(1),
        });
        let gemm = t.intern("gemm");
        t.push_kernel(KernelEvent {
            name: gemm,
            stream: StreamId::DEFAULT,
            begin: ns(50),
            end: ns(200),
            correlation: CorrelationId::new(1),
        });
        let r = ProfileReport::analyze(&t);
        assert_eq!(r.cpu_idle, SimDuration::from_nanos(160));
        assert_eq!(r.inference_latency, SimDuration::from_nanos(200));
        assert!((r.gpu_utilization() - 0.75).abs() < 1e-12);
    }

    /// A kernel that ends before it begins (a hand-built or unvalidated
    /// trace) counts zero time in the report and in operator attribution,
    /// and panics neither.
    #[test]
    fn inverted_kernel_counts_zero_time() {
        let mut t = two_kernel_trace();
        let launch = t.intern("cudaLaunchKernel");
        let k = t.intern("k");
        t.push_launch(RuntimeLaunchEvent {
            name: launch,
            thread: ThreadId::MAIN,
            begin: ns(40),
            end: ns(45),
            correlation: CorrelationId::new(3),
        });
        t.push_kernel(KernelEvent {
            name: k,
            stream: StreamId::DEFAULT,
            begin: ns(95),
            end: ns(92),
            correlation: CorrelationId::new(3),
        });
        let r = ProfileReport::analyze(&t);
        // Only the two well-formed kernels' 30 + 30 count.
        assert_eq!(r.total_kernel_time, SimDuration::from_nanos(60));
        assert_eq!(r.akd, SimDuration::from_nanos(20));
        let stats = crate::attribute_to_operators(&t);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].kernels, 3);
        assert_eq!(stats[0].gpu_time, SimDuration::from_nanos(60));
    }

    #[test]
    fn gpu_utilization_bounded() {
        let r = ProfileReport::analyze(&two_kernel_trace());
        let u = r.gpu_utilization();
        assert!((0.0..=1.0).contains(&u));
    }
}

//! **Extension** — ablation studies over the design factors the paper's
//! conclusion names as the three latency drivers: GPU performance, CPU
//! performance, and coupling paradigm.
//!
//! * [`single_thread_sweep`] — "what if Grace were faster": scale the
//!   Grace CPU's single-thread factor and watch the GH200's low-batch
//!   penalty disappear (paper §VI: "addressing these bottlenecks requires
//!   enhancing CPU performance").
//! * [`bandwidth_sweep`] — scale the GH200's HBM bandwidth and watch the
//!   CPU-bound region (the Fig. 6 star) stretch: the mechanism behind the
//!   paper's 4× claim.
//! * [`launch_overhead_sweep`] — scale the platform launch overhead and
//!   watch batch-1 TTFT respond only weakly (launch tax is real but
//!   dispatch cost dominates) — motivating why fusion must also collapse
//!   *operator* work to pay off fully.
//! * [`coupling_comparison`] — LC vs CC vs TC (including the MI300A model
//!   the paper names as future work) at small/medium/large batch.

use skip_core::{classify_sweep, ProfileReport, SweepPoint};
use skip_hw::{Coupling, Platform};
use skip_llm::{zoo, Phase, Workload};
use skip_runtime::{Engine, ExecMode};

use crate::{ttft_ms, TextTable, BATCH_SWEEP, SEQ_LEN};

/// One (factor, value) ablation measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The factor value (scale or absolute).
    pub factor: f64,
    /// The measured response.
    pub response: f64,
}

/// Scales the Grace single-thread factor and reports BERT batch-1 TTFT on
/// the (modified) GH200.
#[must_use]
pub fn single_thread_sweep() -> Vec<AblationRow> {
    crate::harness::map(vec![0.36, 0.5, 0.7, 1.0, 1.2], |st| {
        let mut cpu = Platform::gh200().cpu;
        cpu.single_thread = st;
        let p = Platform {
            name: format!("gh200_st{st}"),
            cpu,
            ..Platform::gh200()
        };
        let wl = Workload::new(zoo::bert_base_uncased(), Phase::Prefill, 1, SEQ_LEN);
        AblationRow {
            factor: st,
            response: ttft_ms(&p, &wl, ExecMode::Eager),
        }
    })
}

/// Scales the GH200's HBM bandwidth and reports the Fig. 6 transition
/// batch for BERT.
#[must_use]
pub fn bandwidth_sweep() -> Vec<AblationRow> {
    crate::harness::map(vec![2_000.0, 3_000.0, 4_000.0, 5_300.0], |bw| {
        let mut gpu = Platform::gh200().gpu;
        gpu.hbm_gbps = bw;
        let p = Platform {
            name: format!("gh200_bw{bw}"),
            gpu,
            ..Platform::gh200()
        };
        let engine = Engine::new(p);
        let points: Vec<SweepPoint> = BATCH_SWEEP
            .iter()
            .map(|&bs| {
                let wl = Workload::new(zoo::bert_base_uncased(), Phase::Prefill, bs, SEQ_LEN);
                SweepPoint {
                    batch_size: bs,
                    tklqt: ProfileReport::analyze(&engine.run(&wl, ExecMode::Eager)).tklqt,
                }
            })
            .collect();
        let star = classify_sweep(&points)
            .transition_batch
            .map_or(f64::from(*BATCH_SWEEP.last().unwrap()) * 2.0, f64::from);
        AblationRow {
            factor: bw,
            response: star,
        }
    })
}

/// Scales the Intel+H100 launch overhead (both CPU call and wire latency)
/// and reports GPT2 batch-1 TTFT.
#[must_use]
pub fn launch_overhead_sweep() -> Vec<AblationRow> {
    crate::harness::map(vec![0.5, 1.0, 2.0, 4.0], |scale| {
        let base = Platform::intel_h100();
        let mut cpu = base.cpu.clone();
        cpu.launch_call_ns *= scale;
        let mut ic = base.interconnect.clone();
        ic.launch_latency_ns *= scale;
        let p = Platform {
            name: format!("intel_h100_launch{scale}"),
            cpu,
            interconnect: ic,
            ..base
        };
        let wl = Workload::new(zoo::gpt2(), Phase::Prefill, 1, SEQ_LEN);
        AblationRow {
            factor: scale,
            response: ttft_ms(&p, &wl, ExecMode::Eager),
        }
    })
}

/// One coupling-comparison row: TTFT per platform at a given batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingRow {
    /// Platform name.
    pub platform: String,
    /// Coupling paradigm.
    pub coupling: Coupling,
    /// TTFT at batch 1 / 16 / 64 (ms).
    pub ttft_ms: [f64; 3],
}

/// Compares LC / CC / TC (MI300A) for Llama-3.2-1B prefill.
#[must_use]
pub fn coupling_comparison() -> Vec<CouplingRow> {
    let mut platforms = Platform::paper_trio();
    platforms.push(Platform::mi300a());
    crate::harness::map(platforms, |p| {
        let t = |bs: u32| {
            let wl = Workload::new(zoo::llama32_1b(), Phase::Prefill, bs, SEQ_LEN);
            ttft_ms(&p, &wl, ExecMode::Eager)
        };
        CouplingRow {
            platform: p.name.clone(),
            coupling: p.coupling,
            ttft_ms: [t(1), t(16), t(64)],
        }
    })
}

/// Runs and renders every ablation.
#[must_use]
pub fn render_all() -> String {
    let mut out = String::from("Ablations over the paper's three latency drivers\n");

    out.push_str("\n(a) Grace single-thread factor -> BERT BS=1 TTFT on GH200\n");
    let mut t = TextTable::new(vec!["single_thread", "ttft_ms"]);
    for r in single_thread_sweep() {
        t.row(vec![
            format!("{:.2}", r.factor),
            format!("{:.2}", r.response),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\n(b) GH200 HBM bandwidth -> Fig. 6 transition batch (BERT)\n");
    let mut t = TextTable::new(vec!["hbm_gbps", "transition_batch"]);
    for r in bandwidth_sweep() {
        t.row(vec![
            format!("{:.0}", r.factor),
            format!("{:.0}", r.response),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\n(c) launch-overhead scale -> GPT2 BS=1 TTFT on Intel+H100\n");
    let mut t = TextTable::new(vec!["scale", "ttft_ms"]);
    for r in launch_overhead_sweep() {
        t.row(vec![
            format!("{:.1}", r.factor),
            format!("{:.2}", r.response),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\n(d) coupling comparison, Llama-3.2-1B TTFT (ms)\n");
    let mut t = TextTable::new(vec!["platform", "coupling", "bs=1", "bs=16", "bs=64"]);
    for r in coupling_comparison() {
        t.row(vec![
            r.platform,
            r.coupling.abbrev().into(),
            format!("{:.2}", r.ttft_ms[0]),
            format!("{:.2}", r.ttft_ms[1]),
            format!("{:.2}", r.ttft_ms[2]),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_grace_removes_the_low_batch_penalty() {
        let sweep = single_thread_sweep();
        // TTFT strictly decreases as single-thread performance rises…
        for w in sweep.windows(2) {
            assert!(w[1].response < w[0].response);
        }
        // …and at Xeon-class ST the GH200 essentially matches the real
        // Intel+H100 (within 5%: the Grace platform's higher measured
        // launch-call cost is the small residual — Table V).
        let at_xeon = sweep.iter().find(|r| r.factor == 1.0).unwrap().response;
        let intel = ttft_ms(
            &Platform::intel_h100(),
            &Workload::new(zoo::bert_base_uncased(), Phase::Prefill, 1, SEQ_LEN),
            ExecMode::Eager,
        );
        assert!(at_xeon <= intel * 1.05, "{at_xeon} vs {intel}");
    }

    #[test]
    fn more_bandwidth_stretches_the_cpu_bound_region() {
        let sweep = bandwidth_sweep();
        for w in sweep.windows(2) {
            assert!(
                w[1].response >= w[0].response,
                "transition moved left as bandwidth grew"
            );
        }
        // At PCIe-H100-class bandwidth the (hypothetical) GH200 transitions
        // earlier than the real one.
        assert!(sweep[0].response < sweep[2].response);
    }

    #[test]
    fn launch_overhead_moves_batch1_latency_weakly() {
        let sweep = launch_overhead_sweep();
        for w in sweep.windows(2) {
            assert!(w[1].response > w[0].response);
        }
        // 8x launch-overhead span moves TTFT far less than 8x: operator
        // dispatch, not launch tax, dominates batch-1 latency.
        let ratio = sweep.last().unwrap().response / sweep[0].response;
        assert!(ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn tight_coupling_wins_every_regime() {
        // The MI300A model combines a strong CPU, no copies, and the
        // fastest HBM: it should never lose to the GH200.
        let rows = coupling_comparison();
        let mi = rows.iter().find(|r| r.platform == "mi300a").unwrap();
        let gh = rows.iter().find(|r| r.platform == "gh200").unwrap();
        for i in 0..3 {
            assert!(mi.ttft_ms[i] < gh.ttft_ms[i], "regime {i}");
        }
        assert_eq!(mi.coupling, Coupling::Tight);
    }
}

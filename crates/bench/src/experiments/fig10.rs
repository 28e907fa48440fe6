//! **Fig. 10a–c** — prefill inference latency (TTFT), GPU idle time and
//! CPU idle time for the encoder models across batch sizes on the three
//! platforms.
//!
//! Paper headlines (§V-D): crossover around batch 16 beyond which the
//! GH200 wins (1.6×/2.4× over Intel/AMD at batch 64 for BERT); below it
//! the GH200 is the *slowest* platform (2.8×/1.9× at batch 1) because the
//! Grace CPU bounds the launch-dominated region.

use skip_hw::Platform;
use skip_llm::{ModelConfig, Phase, Workload};
use skip_runtime::ExecMode;

use crate::{profile, AsciiChart, TextTable, BATCH_SWEEP, SEQ_LEN};

/// One (model, platform, batch) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Model name.
    pub model: String,
    /// Platform name.
    pub platform: String,
    /// Batch size.
    pub batch: u32,
    /// TTFT, ms (Fig. 10a / 11a).
    pub ttft_ms: f64,
    /// GPU idle time, ms (Fig. 10b / 11b).
    pub gpu_idle_ms: f64,
    /// CPU idle time, ms (Fig. 10c / 11c).
    pub cpu_idle_ms: f64,
    /// Timeline events behind the cell (kernels + launches + CPU ops).
    pub events: u64,
}

/// Sweeps one model across the paper's batch sizes and platforms. Each
/// (platform, batch) cell is an independent engine run, fanned out across
/// the [`harness`](crate::harness) workers; row order matches the serial
/// nested loops.
#[must_use]
pub fn sweep_model(model: &ModelConfig) -> Vec<SweepRow> {
    sweep_model_with(crate::harness::threads(), model)
}

/// [`sweep_model`] with an explicit worker count, bypassing the global
/// harness resolution, for callers that pin serial and parallel runs to
/// known counts instead of whatever the host resolves.
#[must_use]
pub fn sweep_model_with(workers: usize, model: &ModelConfig) -> Vec<SweepRow> {
    let mut cells = Vec::new();
    for platform in Platform::paper_trio() {
        for &bs in &BATCH_SWEEP {
            cells.push((platform.clone(), bs));
        }
    }
    crate::harness::map_with(workers, cells, |(platform, bs)| {
        let wl = Workload::new(model.clone(), Phase::Prefill, bs, SEQ_LEN);
        let r = profile(&platform, &wl, ExecMode::Eager);
        SweepRow {
            model: model.name.clone(),
            platform: platform.name.clone(),
            batch: bs,
            ttft_ms: r.inference_latency.as_millis_f64(),
            gpu_idle_ms: r.gpu_idle.as_millis_f64(),
            cpu_idle_ms: r.cpu_idle.as_millis_f64(),
            events: (r.kernel_count + r.launch_count + r.cpu_op_count) as u64,
        }
    })
}

/// Runs the Fig. 10 experiment (both encoder models).
#[must_use]
pub fn run() -> Vec<SweepRow> {
    run_with(crate::harness::threads())
}

/// [`run`] with an explicit worker count (see [`sweep_model_with`]).
#[must_use]
pub fn run_with(workers: usize) -> Vec<SweepRow> {
    let mut out = sweep_model_with(workers, &skip_llm::zoo::bert_base_uncased());
    out.extend(sweep_model_with(
        workers,
        &skip_llm::zoo::xlm_roberta_base(),
    ));
    out
}

/// Renders the three panels for a set of sweep rows.
#[must_use]
pub fn render_sweep(title: &str, rows: &[SweepRow]) -> String {
    let mut out = format!("{title}\n");
    let mut models: Vec<&str> = rows.iter().map(|r| r.model.as_str()).collect();
    models.dedup();
    let platforms = ["amd_a100", "intel_h100", "gh200"];
    for model in models {
        out.push_str(&format!(
            "\n{model} — TTFT ms vs batch (a=amd_a100, i=intel_h100, g=gh200, log y)\n"
        ));
        let mut chart = AsciiChart::new(56, 12, true);
        for (marker, p) in [('a', "amd_a100"), ('i', "intel_h100"), ('g', "gh200")] {
            let pts: Vec<(f64, f64)> = BATCH_SWEEP
                .iter()
                .map(|&bs| {
                    let r = rows
                        .iter()
                        .find(|r| r.model == model && r.platform == p && r.batch == bs)
                        .expect("sweep row exists");
                    (f64::from(bs), r.ttft_ms)
                })
                .collect();
            chart.series(marker, &pts);
        }
        out.push_str(&chart.render());
        for (panel, pick) in [
            ("(a) TTFT ms", 0usize),
            ("(b) GPU idle ms", 1),
            ("(c) CPU idle ms", 2),
        ] {
            out.push_str(&format!("\n{model} — {panel}\n"));
            let mut header: Vec<String> = vec!["batch".into()];
            header.extend(platforms.iter().map(|p| (*p).to_owned()));
            let mut t = TextTable::new(header);
            for &bs in &BATCH_SWEEP {
                let mut cells = vec![bs.to_string()];
                for p in platforms {
                    let r = rows
                        .iter()
                        .find(|r| r.model == model && r.platform == p && r.batch == bs)
                        .expect("sweep row exists");
                    let v = match pick {
                        0 => r.ttft_ms,
                        1 => r.gpu_idle_ms,
                        _ => r.cpu_idle_ms,
                    };
                    cells.push(format!("{v:.2}"));
                }
                t.row(cells);
            }
            out.push_str(&t.render());
        }
    }
    out
}

/// Renders the paper-style panels.
#[must_use]
pub fn render(rows: &[SweepRow]) -> String {
    render_sweep(
        "Fig. 10: encoder prefill latency / GPU idle / CPU idle (seq=512)",
        rows,
    )
}

/// Finds one row.
#[must_use]
pub fn find<'a>(rows: &'a [SweepRow], model: &str, platform: &str, batch: u32) -> &'a SweepRow {
    rows.iter()
        .find(|r| r.model == model && r.platform == platform && r.batch == batch)
        .expect("requested sweep row missing")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_batch_ratios_match_paper() {
        // §V-D: BERT batch-1 — GH200 ≈2.8x Intel and ≈1.9x AMD.
        let rows = sweep_model(&skip_llm::zoo::bert_base_uncased());
        let gh = find(&rows, "bert-base-uncased", "gh200", 1).ttft_ms;
        let intel = find(&rows, "bert-base-uncased", "intel_h100", 1).ttft_ms;
        let amd = find(&rows, "bert-base-uncased", "amd_a100", 1).ttft_ms;
        let vs_intel = gh / intel;
        let vs_amd = gh / amd;
        assert!((2.4..3.2).contains(&vs_intel), "vs Intel: {vs_intel:.2}");
        assert!((1.6..2.2).contains(&vs_amd), "vs AMD: {vs_amd:.2}");
    }

    #[test]
    fn high_batch_speedups_match_paper() {
        // §V-D: BERT batch-64 — GH200 1.6x/2.4x faster than Intel/AMD.
        let rows = sweep_model(&skip_llm::zoo::bert_base_uncased());
        let gh = find(&rows, "bert-base-uncased", "gh200", 64).ttft_ms;
        let intel = find(&rows, "bert-base-uncased", "intel_h100", 64).ttft_ms;
        let amd = find(&rows, "bert-base-uncased", "amd_a100", 64).ttft_ms;
        let vs_intel = intel / gh;
        let vs_amd = amd / gh;
        assert!((1.4..2.1).contains(&vs_intel), "vs Intel: {vs_intel:.2}");
        assert!((1.9..2.7).contains(&vs_amd), "vs AMD: {vs_amd:.2}");
    }

    #[test]
    fn crossover_sits_between_batch_8_and_32() {
        // Paper: CP ≈ 16 for encoders.
        let rows = sweep_model(&skip_llm::zoo::bert_base_uncased());
        let at = |p: &str, b: u32| find(&rows, "bert-base-uncased", p, b).ttft_ms;
        assert!(at("gh200", 8) > at("intel_h100", 8), "LC wins below CP");
        assert!(at("gh200", 32) < at("intel_h100", 32), "CC wins above CP");
    }

    #[test]
    fn gpu_idle_shrinks_and_cpu_idle_grows_with_batch() {
        let rows = sweep_model(&skip_llm::zoo::xlm_roberta_base());
        for p in ["amd_a100", "intel_h100", "gh200"] {
            let lo = find(&rows, "xlm-roberta-base", p, 1);
            let hi = find(&rows, "xlm-roberta-base", p, 128);
            assert!(lo.gpu_idle_ms > lo.cpu_idle_ms, "{p}: batch 1 is CPU-bound");
            assert!(
                hi.cpu_idle_ms > hi.gpu_idle_ms,
                "{p}: batch 128 is GPU-bound"
            );
        }
    }
}

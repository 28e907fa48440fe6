//! **Extension** — heterogeneous fleets and prefill/decode
//! disaggregation: the paper's launch-cost asymmetry, priced at fleet
//! scale.
//!
//! §V's characterization splits LLM inference into a compute-bound
//! prefill and a launch-bound decode, and Table V puts the largest launch
//! overhead on the closely-coupled GH200 — the same platform whose fat
//! kernels win batched prefill. A homogeneous GH200 fleet therefore wastes
//! its prefill advantage paying Grace launch costs on every one of the
//! thousands of decode steps, while a homogeneous Xeon+H100 fleet wastes
//! cheap decode dispatch on slow batched prefills. This experiment asks
//! the capacity-planning question that follows: at equal replica count and
//! equal SLO, does a *disaggregated* fleet — prefill pool on one platform,
//! decode pool on another, KV handed off over the interconnect — beat the
//! best homogeneous fleet?
//!
//! Three findings, asserted by the tests:
//!
//! * **The winning fleet is heterogeneous and disaggregated** — prefill on
//!   gh200 (batched prefill is compute-bound; its kernels are fastest),
//!   decode on intel_h100 (decode is launch-bound; Xeon dispatch is
//!   cheapest), beating every homogeneous fleet of the same size on the
//!   e2e tail at equal SLO.
//! * **GH200 profits most from disaggregation** — its homogeneous fleet
//!   is the most lopsided (best-in-class prefill chained to worst-in-class
//!   decode), so carving its decode off to a cheap-dispatch pool buys the
//!   largest relative improvement of any platform.
//! * **The win is a function of the coupling** — the KV handoff is priced
//!   as `src.d2h + dst.h2d` from the coupling model, so re-running the
//!   winning pairing with both pools tightly coupled (TC: zero-copy,
//!   shared physical memory), closely coupled (CC: NVLink-C2C), and
//!   loosely coupled (LC: PCIe Gen4) moves the crossover: TC hands off for
//!   free, CC for ~1 ms of llama-2-7B KV, LC for ~17 ms — and the
//!   disaggregation win shrinks accordingly.

use skip_des::SimDuration;
use skip_hw::{Coupling, Interconnect, Platform};
use skip_llm::zoo;
use skip_serve::{
    simulate_fleet_traced, ArrivalProcess, FleetBatchPolicy, FleetConfig, FleetReport,
    FleetRouterPolicy, FleetSpec, FleetTrace, SloTargets,
};

use crate::TextTable;

/// Offered load, requests/second — high enough that the prefill pool
/// sustains batch ≥ 4, the region where gh200's compute-bound prefill
/// advantage overtakes its higher per-iteration launch cost, while
/// staying inside the Xeon decode pool's capacity.
pub const LOAD: f64 = 50.0;

/// Requests per simulation.
pub const REQUESTS: u32 = 64;

/// Prompt length, tokens. At llama-2-7B's 0.5 MiB/token of KV this makes
/// each handoff move ~268 MiB — big enough that the interconnect choice
/// is visible in the crossover.
pub const PROMPT_LEN: u32 = 512;

/// Output tokens per request — sixteen launch-bound decode steps for
/// every one batched prefill, the asymmetry disaggregation exploits.
pub const NEW_TOKENS: u32 = 16;

/// Concurrent-request cap per replica.
pub const MAX_BATCH: u32 = 8;

/// Replicas in every fleet: homogeneous fleets run this many unified
/// replicas; disaggregated fleets split them [`PREFILL_REPLICAS`] /
/// [`DECODE_REPLICAS`] — capacity is held constant so the comparison is
/// placement, not size.
pub const TOTAL_REPLICAS: u32 = 4;

/// Prefill-pool size of every disaggregated fleet. One replica serving
/// the whole arrival stream is what keeps its batches at 4–8, where the
/// platforms' batched-prefill curves actually diverge.
pub const PREFILL_REPLICAS: u32 = 1;

/// Decode-pool size of every disaggregated fleet: decode is ~16 iteration
/// launches per request against prefill's one, so the pool split follows
/// the work split.
pub const DECODE_REPLICAS: u32 = 3;

/// TTFT target scored in every cell.
pub const SLO_TTFT_MS: u64 = 600;

/// End-to-end target scored in every cell.
pub const SLO_E2E_MS: u64 = 2500;

/// Arrival seed shared by every cell.
pub const SEED: u64 = 2077;

/// One fleet measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCell {
    /// Canonical fleet label (`FleetSpec::label`).
    pub label: String,
    /// Platform serving prefill (the whole fleet when homogeneous).
    pub prefill: String,
    /// Platform serving decode (the whole fleet when homogeneous).
    pub decode: String,
    /// `true` for split prefill/decode pools.
    pub disagg: bool,
    /// Scalar report, including handoff and SLO blocks.
    pub report: FleetReport,
    /// The lifecycle/counter recording behind it.
    pub trace: FleetTrace,
}

fn config(spec: FleetSpec) -> FleetConfig {
    FleetConfig {
        spec,
        model: zoo::llama2_7b(),
        max_batch: MAX_BATCH,
        requests: REQUESTS,
        arrivals: ArrivalProcess::Poisson { rate_per_s: LOAD },
        prompt_len: PROMPT_LEN,
        new_tokens: NEW_TOKENS,
        seed: SEED,
        slo: SloTargets {
            ttft: Some(SimDuration::from_millis(SLO_TTFT_MS)),
            e2e: Some(SimDuration::from_millis(SLO_E2E_MS)),
        },
        router: FleetRouterPolicy::CostModelJsq,
        policy: FleetBatchPolicy::Continuous,
        autoscale: None,
    }
}

fn run_cell(spec: FleetSpec, prefill: &str, decode: &str) -> FleetCell {
    let disagg = spec.is_disaggregated();
    let label = spec.label();
    let (report, trace) = simulate_fleet_traced(&config(spec));
    FleetCell {
        label,
        prefill: prefill.to_owned(),
        decode: decode.to_owned(),
        disagg,
        report,
        trace,
    }
}

/// Runs the fleet matrix: one homogeneous unified fleet per paper-trio
/// platform, plus every (prefill-platform × decode-platform)
/// disaggregated pairing, all at [`TOTAL_REPLICAS`] replicas. Each cell is
/// an independent simulation fanned out across the
/// [`harness`](crate::harness) workers; row order matches the serial
/// nested loops.
#[must_use]
pub fn run() -> Vec<FleetCell> {
    run_with(crate::harness::threads())
}

/// [`run`] with an explicit worker count — the determinism test pins
/// `run_with(1) == run_with(4)`.
#[must_use]
pub fn run_with(workers: usize) -> Vec<FleetCell> {
    let mut cells: Vec<(FleetSpec, String, String)> = Vec::new();
    for p in Platform::paper_trio() {
        cells.push((
            FleetSpec::homogeneous(p.clone(), TOTAL_REPLICAS),
            p.name.clone(),
            p.name.clone(),
        ));
    }
    for pf in Platform::paper_trio() {
        for dec in Platform::paper_trio() {
            cells.push((
                FleetSpec::disaggregated(
                    pf.clone(),
                    PREFILL_REPLICAS,
                    dec.clone(),
                    DECODE_REPLICAS,
                ),
                pf.name.clone(),
                dec.name.clone(),
            ));
        }
    }
    crate::harness::map_with(workers, cells, |(spec, pf, dec)| run_cell(spec, &pf, &dec))
}

/// One coupling variant of the winning pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingCell {
    /// Coupling abbreviation (`"TC"` / `"CC"` / `"LC"`).
    pub coupling: String,
    /// The measurement.
    pub report: FleetReport,
}

/// Re-runs the winning pairing (prefill=gh200, decode=intel_h100) with
/// both pools' host links rebuilt under each coupling paradigm, so the
/// *only* first-order change is what the KV handoff costs: TC shares
/// physical memory (free), CC crosses NVLink-C2C, LC crosses PCIe Gen4.
/// (Rebuilding the interconnect also shifts the launch path by a few
/// hundred nanoseconds per iteration — noise against millisecond
/// iterations.)
#[must_use]
pub fn run_coupling() -> Vec<CouplingCell> {
    let variants: Vec<(&str, Option<Interconnect>, Coupling)> = vec![
        ("TC", None, Coupling::Tight),
        ("CC", Some(Interconnect::nvlink_c2c()), Coupling::Close),
        ("LC", Some(Interconnect::pcie_gen4()), Coupling::Loose),
    ];
    let rebuild = |base: Platform, suffix: &str, ic: &Option<Interconnect>, c: Coupling| Platform {
        name: format!("{}_{}", base.name, suffix.to_lowercase()),
        interconnect: ic.as_ref().unwrap_or(&base.interconnect).clone(),
        coupling: c,
        ..base
    };
    let cells: Vec<(String, FleetSpec)> = variants
        .into_iter()
        .map(|(tag, ic, c)| {
            let pf = rebuild(Platform::gh200(), tag, &ic, c);
            let dec = rebuild(Platform::intel_h100(), tag, &ic, c);
            (
                tag.to_owned(),
                FleetSpec::disaggregated(pf, PREFILL_REPLICAS, dec, DECODE_REPLICAS),
            )
        })
        .collect();
    crate::harness::map(cells, |(coupling, spec)| CouplingCell {
        coupling,
        report: simulate_fleet_traced(&config(spec)).0,
    })
}

/// The best cell by the experiment's ranking: highest SLO attainment,
/// then lowest p95 end-to-end latency.
#[must_use]
pub fn best(cells: &[FleetCell], disagg: bool) -> &FleetCell {
    cells
        .iter()
        .filter(|c| c.disagg == disagg)
        .max_by_key(|c| {
            (
                c.report.slo.slo_completions,
                std::cmp::Reverse(c.report.e2e_p95),
            )
        })
        .expect("matrix has cells of both kinds")
}

/// Renders the fleet matrix and the coupling sweep.
#[must_use]
pub fn render(cells: &[FleetCell], coupling: &[CouplingCell]) -> String {
    let mut out = format!(
        "Fleet disaggregation: llama-2-7b, {TOTAL_REPLICAS} replicas/fleet, \
         {PROMPT_LEN}-token prompts, {NEW_TOKENS} output tokens, {LOAD:.0} req/s offered\n\
         SLO: ttft<={SLO_TTFT_MS}ms & e2e<={SLO_E2E_MS}ms\n"
    );
    let mut t = TextTable::new(vec![
        "fleet",
        "ttft p95 ms",
        "e2e p95 ms",
        "slo %",
        "handoffs",
        "handoff ms",
    ]);
    for c in cells {
        t.row(vec![
            c.label.clone(),
            format!("{:.0}", c.report.ttft_p95.as_millis_f64()),
            format!("{:.0}", c.report.e2e_p95.as_millis_f64()),
            format!(
                "{:.0}",
                100.0 * f64::from(c.report.slo.slo_completions)
                    / f64::from(c.report.slo.completed.max(1))
            ),
            format!("{}", c.report.handoffs),
            format!("{:.1}", c.report.handoff_transfer_total.as_millis_f64()),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\ncoupling sweep of the winning pairing (prefill=gh200, decode=intel_h100):\n");
    let mut t = TextTable::new(vec![
        "coupling",
        "e2e p95 ms",
        "handoff ms total",
        "handoff wait p95 ms",
    ]);
    for c in coupling {
        t.row(vec![
            c.coupling.clone(),
            format!("{:.0}", c.report.e2e_p95.as_millis_f64()),
            format!("{:.1}", c.report.handoff_transfer_total.as_millis_f64()),
            format!("{:.2}", c.report.handoff_wait_p95.as_millis_f64()),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn homo<'a>(cells: &'a [FleetCell], p: &str) -> &'a FleetCell {
        cells
            .iter()
            .find(|c| !c.disagg && c.prefill == p)
            .expect("homogeneous cell")
    }

    #[test]
    fn every_fleet_completes_and_conserves() {
        for c in run() {
            assert_eq!(c.report.completed, REQUESTS, "{}", c.label);
            assert!(c.trace.conserves_requests(), "{} leaked requests", c.label);
            if c.disagg {
                assert_eq!(c.report.handoffs, u64::from(REQUESTS), "{}", c.label);
            } else {
                assert_eq!(c.report.handoffs, 0, "{}", c.label);
            }
        }
    }

    #[test]
    fn matrix_is_deterministic_at_any_worker_count() {
        assert_eq!(run_with(1), run_with(4));
    }

    #[test]
    fn heterogeneous_disaggregation_beats_the_best_homogeneous_fleet() {
        let cells = run();
        let best_homo = best(&cells, false);
        let best_disagg = best(&cells, true);
        assert_eq!(
            (best_disagg.prefill.as_str(), best_disagg.decode.as_str()),
            ("gh200", "intel_h100"),
            "compute-bound prefill belongs on gh200, launch-bound decode on Xeon dispatch"
        );
        assert!(
            best_disagg.report.slo.slo_completions >= best_homo.report.slo.slo_completions,
            "equal-SLO comparison: disagg {} vs homo {} in-SLO completions",
            best_disagg.report.slo.slo_completions,
            best_homo.report.slo.slo_completions
        );
        assert!(
            best_disagg.report.e2e_p95 < best_homo.report.e2e_p95,
            "disagg {} must beat best homogeneous {} ({}) on the e2e tail: {} vs {} ms",
            best_disagg.label,
            best_homo.label,
            best_homo.prefill,
            best_disagg.report.e2e_p95.as_millis_f64(),
            best_homo.report.e2e_p95.as_millis_f64()
        );
    }

    #[test]
    fn gh200_profits_most_from_disaggregation() {
        // gain(P) = homogeneous P's e2e tail over the best disaggregated
        // fleet that keeps P as the prefill pool — how much carving the
        // decode pool off is worth to a P-based fleet.
        let cells = run();
        let gain = |p: &str| {
            let h = homo(&cells, p).report.e2e_p95.as_millis_f64();
            let d = cells
                .iter()
                .filter(|c| c.disagg && c.prefill == p)
                .map(|c| c.report.e2e_p95.as_millis_f64())
                .fold(f64::INFINITY, f64::min);
            h / d
        };
        let (g_gh, g_amd, g_intel) = (gain("gh200"), gain("amd_a100"), gain("intel_h100"));
        assert!(
            g_gh > g_amd && g_gh > g_intel,
            "gh200's launch-bound decode makes it the biggest disaggregation winner: \
             gh200 {g_gh:.2}x vs amd {g_amd:.2}x / intel {g_intel:.2}x"
        );
    }

    #[test]
    fn coupling_moves_the_crossover() {
        let cells = run();
        let coupling = run_coupling();
        let get = |tag: &str| {
            &coupling
                .iter()
                .find(|c| c.coupling == tag)
                .expect("variant")
                .report
        };
        let (tc, cc, lc) = (get("TC"), get("CC"), get("LC"));
        // Same requests, same KV — only the coupling changes the price.
        assert_eq!(tc.handoff_bytes, lc.handoff_bytes);
        assert_eq!(
            tc.handoff_transfer_total,
            SimDuration::ZERO,
            "TC is zero-copy"
        );
        assert!(
            cc.handoff_transfer_total > SimDuration::ZERO
                && lc.handoff_transfer_total > cc.handoff_transfer_total * 5,
            "LC (PCIe Gen4) must dwarf CC (NVLink-C2C): {} vs {} ms",
            lc.handoff_transfer_total.as_millis_f64(),
            cc.handoff_transfer_total.as_millis_f64()
        );
        assert!(
            lc.e2e_p95 > tc.e2e_p95,
            "the interconnect bill lands on the tail: LC {} vs TC {} ms",
            lc.e2e_p95.as_millis_f64(),
            tc.e2e_p95.as_millis_f64()
        );
        // The disaggregation win over the best homogeneous fleet shrinks
        // as the coupling loosens — the crossover is a coupling property.
        let best_homo = best(&cells, false).report.e2e_p95.as_millis_f64();
        let win = |r: &FleetReport| best_homo - r.e2e_p95.as_millis_f64();
        assert!(
            win(lc) < win(tc),
            "loose coupling must erode the win: LC {:.1} ms vs TC {:.1} ms",
            win(lc),
            win(tc)
        );
    }
}

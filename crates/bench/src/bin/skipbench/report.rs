//! The metric tables, the results file, the host record and `--compare`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::stats::{verdict, Better, Summary, Verdict};
use crate::workloads::run_seeds;

/// An end-to-end metric: what a user of the simulator sees, measured on
/// untraced children.
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may get worse.
    pub bound: f64,
}

/// `ops_per_s` is printed under its workload's unit (`requests_per_s`,
/// `points_per_s` or `candidates_per_s`) everywhere but the one-line
/// result, whose metric names must be the same on every workload.
///
/// The bounds come from measurement on a shared 2-core Xeon VM, where
/// the host's other tenants slow single passes by up to 70% and shift
/// whole minutes by about 10%. Over ten 30 s runs at ten seeds, the
/// median pass of a run spread 8-19% between runs and the fastest 4-11%,
/// so `run_s` is built from the fastest passes (5-11% in two more sets of
/// ten runs) and the time bounds sit just under `setup_s`'s, the largest. Peak RSS is steady within a seed
/// (1% at most over ten runs), but `serve_trace_export`'s recording grows
/// with the preemptions a seed draws, by up to 10% between seeds.
pub const E2E: [E2e; 4] = [
    E2e {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.24,
    },
    E2e {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    E2e {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.24,
    },
];

/// The per-layer metrics of the one-line traced result, in print order.
/// A workload that never calls a layer reports 0 for it.
pub const LAYERS: [(&str, &str); 36] = [
    ("traced_run_s", "s"),
    ("llm.graph_s", "s"),
    ("runtime.run_s", "s"),
    ("runtime.trace_events", "count"),
    ("core.depgraph_s", "s"),
    ("core.metrics_s", "s"),
    ("core.attribution_s", "s"),
    ("core.classify_s", "s"),
    ("fusion.recommend_s", "s"),
    ("serve.arrivals_s", "s"),
    ("serve.latency.cold_s", "s"),
    ("serve.latency.engine_runs", "count"),
    ("serve.latency.hit_ns", "ns"),
    ("serve.unified.floor_s", "s"),
    ("serve.unified.untraced_s", "s"),
    ("serve.unified.allocs_per_request", "count"),
    ("serve.observe.record_s", "s"),
    ("serve.observe.lifecycle_events", "count"),
    ("serve.observe.samples", "count"),
    ("des.queue_s", "s"),
    ("des.events", "count"),
    ("serve.observe.to_trace_s", "s"),
    ("trace.chrome_s", "s"),
    ("trace.chrome_mb", "MiB"),
    ("trace.counter_events", "count"),
    ("serve.plan.bounds_s", "s"),
    ("serve.plan.simulated", "count"),
    ("serve.plan.simulated_s", "s"),
    ("serve.plan.aborted", "count"),
    ("serve.plan.aborted_s", "s"),
    ("serve.plan.pruned_infeasible", "count"),
    ("serve.plan.pruned_infeasible_s", "s"),
    ("serve.plan.pruned_dominated", "count"),
    ("serve.plan.pruned_dominated_s", "s"),
    ("serve.plan.useful_share", "ratio"),
    ("serve.plan.frontier_s", "s"),
];

/// Unit of a simulated statistic, from its name.
pub fn sim_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("tok_per_s") {
        "tok/s"
    } else if name.ends_with("_replica_s") {
        "replica-s"
    } else if name.contains("occupancy") {
        "ratio"
    } else {
        "count"
    }
}

/// The machine a results file was measured on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    pub nproc: u32,
    pub cpu_model: String,
    pub kernel: String,
    /// Worker threads every workload runs on.
    pub workers: u32,
}

impl Host {
    pub fn this() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown", str::trim)
            .to_owned();
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_owned(), |k| k.trim().to_owned());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u32),
            cpu_model,
            kernel,
            workers: 1,
        }
    }
}

/// Everything one workload's repetitions produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    /// What one operation is (`requests`, `points`, `candidates`).
    pub op: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    pub problems: Vec<String>,
    /// End-to-end metrics by [`E2E`] name, over the untraced children.
    pub e2e: BTreeMap<String, Summary>,
    /// Per-layer metrics, medians over the traced children.
    pub layers: BTreeMap<String, f64>,
    /// Simulated statistics of the traced child.
    pub sim: BTreeMap<String, f64>,
}

impl WorkloadResult {
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The name `ops_per_s` is printed under for this workload.
    pub fn display_name(&self, metric: &str) -> String {
        if metric == "ops_per_s" {
            format!("{}_per_s", self.op)
        } else {
            metric.to_owned()
        }
    }

    /// Human-readable table of every metric.
    pub fn render(&self) -> String {
        let seeds = run_seeds(self.seed);
        let mut out = format!(
            "== {} (seed {}, input seeds {:?}; {} attempted {}, {} failed, failed_frac {}) ==\n",
            self.name,
            self.seed,
            seeds,
            self.attempted,
            self.op,
            self.failed,
            self.failed_frac()
        );
        if !self.e2e.is_empty() {
            out.push_str(&format!(
                "  {:<20} {:<8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>4}\n",
                "metric", "unit", "median", "q1", "q3", "min", "max", "n"
            ));
        }
        for m in &E2E {
            if let Some(s) = self.e2e.get(m.name) {
                let unit = if m.name == "ops_per_s" {
                    format!("{}/s", self.op)
                } else {
                    m.unit.to_owned()
                };
                out.push_str(&format!(
                    "  {:<20} {:<8} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>4}\n",
                    self.display_name(m.name),
                    unit,
                    s.median,
                    s.q1,
                    s.q3,
                    s.min,
                    s.max,
                    s.n
                ));
            }
        }
        if let (Some(run), Some(&traced)) = (self.e2e.get("run_s"), self.layers.get("traced_run_s"))
        {
            // The traced child also runs the probes of the serving layers
            // (pricing grid, both floor entry points), so on serve_* the
            // difference is more than span overhead.
            out.push_str(&format!(
                "  traced_run_s {traced:.6} s beside run_s {:.6} s\n",
                run.median
            ));
        }
        if !self.layers.is_empty() {
            out.push_str("  per layer (traced child, medians):\n");
            for (name, unit) in LAYERS {
                let v = self.layers.get(name).copied().unwrap_or(0.0);
                out.push_str(&format!("    {name:<36} {unit:<6} {v:>16.9}\n"));
            }
            out.push_str("  simulated statistics (traced child):\n");
            for (name, v) in &self.sim {
                out.push_str(&format!(
                    "    {name:<36} {:<10} {v:>16.6}\n",
                    sim_unit(name)
                ));
            }
        }
        out.push_str(&format!("  digest {}", self.digest));
        for p in &self.problems {
            out.push_str(&format!("\n  PROBLEM: {p}"));
        }
        out.push('\n');
        out
    }
}

/// The results file, `target/skipbench.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    pub host: Host,
    pub workloads: Vec<WorkloadResult>,
}

/// Prints one row per (workload, end-to-end metric) of `new` against
/// `base`; returns how many rows are worse.
pub fn compare(base: &Results, new: &Results) -> usize {
    println!(
        "{:<20} {:<18} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "iqr%", "new", "iqr%", "delta%", "bound%"
    );
    let mut worse = 0;
    for b in &base.workloads {
        let Some(n) = new.workloads.iter().find(|n| n.name == b.name) else {
            println!("{:<20} missing from the new results", b.name);
            continue;
        };
        for m in &E2E {
            let (Some(bs), Some(ns)) = (b.e2e.get(m.name), n.e2e.get(m.name)) else {
                continue;
            };
            let v = verdict(bs, ns, m.better, m.bound);
            if v == Verdict::Worse {
                worse += 1;
            }
            let delta = (ns.median / bs.median - 1.0) * 100.0;
            println!(
                "{:<20} {:<18} {:>12.6} {:>7.2} {:>12.6} {:>7.2} {:>+8.2} {:>6.1}  {}",
                b.name,
                b.display_name(m.name),
                bs.median,
                bs.spread() * 100.0,
                ns.median,
                ns.spread() * 100.0,
                delta,
                m.bound * 100.0,
                v.label()
            );
        }
    }
    if base.host != new.host {
        println!("note: the two files come from different hosts");
    }
    worse
}

#!/usr/bin/env bash
# CI gate: formatting, lints, release build, full test suite.
# Everything runs offline against the vendored workspace dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings + dead code) =="
# -D dead_code keeps a deleted duplicate event loop from lingering as an
# unreferenced module after the serve/fleet floor unification.
cargo clippy --workspace --all-targets -- -D warnings -D dead_code

echo "== cargo build --release =="
cargo build --release --workspace

echo "== skipbench as BENCHMARK.json builds it (standalone package, its own Cargo.lock) =="
# --locked fails when a dependency change would rewrite skipbench's lock
# file, which only a change to the benchmark may do.
cargo build --release --offline --locked --manifest-path crates/bench/src/bin/skipbench/Cargo.toml

echo "== cargo doc (deny warnings: broken and redundant intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test (unit, integration and doctests) =="
cargo test --workspace -q

echo "== fresh-seed property pass (1000 new cases per property) =="
# A new seed every run, printed so a failure replays with
# PROPTEST_SEED=<seed>; set PROPTEST_SEED yourself to rerun a logged one.
# Covers the legacy oracle vs the unified floor and the price table's
# interpolation-error bound (skip-serve --lib), the DES queue and arrival
# merge, the KV block pool against its reference model, a decode window's
# KV room against stepping the pool one iteration at a time, the planner,
# fleet and policy/router properties (among them the lean floor, whose
# decode windows run with or without a memory layer, reporting what the
# traced floor reports), the Chrome
# export/import round trip, RunSummary against the reduction of the
# stored trace, the hardware and model-graph properties, and the
# end-to-end pipeline properties.
proptest_seed=${PROPTEST_SEED:-$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')}
echo "PROPTEST_SEED=$proptest_seed"
export PROPTEST_SEED=$proptest_seed PROPTEST_CASES=1000
cargo test -p skip-serve --lib -q
cargo test -p skip-des --test proptests -q
cargo test -p skip-mem --test proptests -q
cargo test -p skip-serve --test plan_props --test fleet_props --test policy_router_props -q
cargo test -p skip-trace --test golden -q
cargo test -p skip-runtime --test summary_equivalence -q
cargo test -p skip-hw --test proptests -q
cargo test -p skip-llm --test proptests -q
cargo test --test proptest_e2e -q
unset PROPTEST_SEED PROPTEST_CASES

echo "== serving_trace example (lifecycle/counter export end-to-end) =="
cargo run --release -p skip-suite --example serving_trace

echo "== what_if_grace example (a preset platform with its CPU swapped) =="
# Batch 1: gh200, gh200 with the Xeon 8468V CPU, intel_h100 TTFT in ms.
grace_out=$(cargo run --release -p skip-suite --example what_if_grace)
grep -qF "     1        21.21             7.86         7.86" <<<"$grace_out"

echo "== skip serve CLI (chunked-prefill policy behind the JSQ router) =="
# capture, then grep: piping straight into grep -q races the CLI against
# grep's early exit (broken pipe) under pipefail
serve_out=$(cargo run --release -p skip-suite --bin skip -- serve --model gpt2 \
  --platform gh200 --policy chunked --chunk-tokens 64 --router jsq --replicas 4 \
  --requests 40 --qps 100 --seq 256 --tokens 8 --slo-ttft-ms 200)
grep -q "completed    : 40 requests" <<<"$serve_out"
# Without --trace-out this is the lean floor's report.
grep -qF "TTFT p50/p95/p99 : 654.830ms / 1.310s / 1.318s" <<<"$serve_out"

echo "== skip serve CLI (long decodes: the lean floor's decode windows, both fronts) =="
# The low-batch GH200 decode regime, where the lean floor runs an unchanged
# decode batch up to the next arrival in one event. The same shape on the
# single-node front and as a fleet; the traced floor reports the same
# lines.
long_out=$(cargo run --release -p skip-suite --bin skip -- serve --model llama-3.2-1b \
  --platform gh200 --policy continuous --max-batch 16 --router jsq --replicas 4 \
  --requests 400 --qps 6 --seq 128 --tokens 256 --slo-ttft-ms 200)
grep -qF "TTFT p50/p95/p99 : 38.749ms / 51.011ms / 52.037ms" <<<"$long_out"
grep -qF "e2e  p50/p95     : 6.738s / 6.750s" <<<"$long_out"
long_fleet_out=$(cargo run --release -p skip-suite --bin skip -- serve --model llama-3.2-1b \
  --fleet gh200:4 --fleet-router jsq --max-batch 16 \
  --requests 400 --qps 6 --seq 128 --tokens 256 --slo-ttft-ms 200)
grep -qF "TTFT p50/p95/p99 : 39.469ms / 51.330ms / 52.280ms" <<<"$long_fleet_out"
grep -qF "e2e  p50/p95     : 6.990s / 7.051s" <<<"$long_fleet_out"

echo "== skip serve CLI (memory-aware chunked prefill under recompute pressure) =="
kv_chunked_out=$(cargo run --release -p skip-suite --bin skip -- serve --model llama-2-7b \
  --platform intel_h100 --policy chunked --chunk-tokens 256 --router jsq --replicas 2 \
  --requests 16 --qps 50 --seq 1024 --tokens 128 --kv-blocks 142 --offload recompute)
grep -q "completed    : 16 requests" <<<"$kv_chunked_out"
grep -qF "KV pressure  : 26 preemptions (0 swapped, 0.0 MB moved; 29144 tokens recomputed) | peak occupancy 100%" \
  <<<"$kv_chunked_out"

echo "== skip serve CLI (decode windows under KV pressure: lean and traced floors agree) =="
# serve_kv_pressure's shape at 400 requests: long-context llama-2-7b whose
# KV blocks swap over PCIe. Without --trace-out the lean floor runs each
# decode-only iteration up to the next completion, arrival or block
# shortfall in one event; with it the traced floor takes one event per
# iteration. Their reports must match line for line.
kv_cmd=(serve --model llama-2-7b --platform intel_h100 --policy chunked --chunk-tokens 512
  --router jsq --replicas 2 --requests 400 --qps 2 --seq 1536 --tokens 256 --kv-blocks 896
  --offload auto)
kv_lean_out=$(cargo run --release -p skip-suite --bin skip -- "${kv_cmd[@]}")
kv_trace=$(mktemp)
kv_traced_out=$(cargo run --release -p skip-suite --bin skip -- "${kv_cmd[@]}" --trace-out "$kv_trace")
rm -f "$kv_trace"
[ "$(head -n 8 <<<"$kv_lean_out")" = "$(head -n 8 <<<"$kv_traced_out")" ] ||
  { echo "lean and traced reports differ under KV pressure"; exit 1; }
grep -qF "TTFT p50/p95/p99 : 147.367ms / 2.395s / 3.457s" <<<"$kv_lean_out"
grep -qF "e2e  p50/p95     : 6.477s / 9.052s" <<<"$kv_lean_out"
grep -qF "KV pressure  : 48 preemptions (48 swapped, 23622.3 MB moved; 0 tokens recomputed) | peak occupancy 100%" \
  <<<"$kv_lean_out"

echo "== skip serve CLI (static batching: jobs are batch rows, lean and traced floors agree) =="
# Static jobs run in the same running batch as iteration-level rows; their
# flush timers make the floor sweep, so it never opens a decode window.
# The report and the trace file are pinned byte for byte.
static_cmd=(serve --model gpt2 --platform gh200 --policy static --batch-size 8 --max-wait-ms 40
  --router shared --replicas 2 --requests 200 --qps 20 --seq 256 --tokens 32 --slo-ttft-ms 500)
static_out=$(cargo run --release -p skip-suite --bin skip -- "${static_cmd[@]}")
static_trace=$(mktemp)
static_traced_out=$(cargo run --release -p skip-suite --bin skip -- "${static_cmd[@]}" \
  --trace-out "$static_trace")
static_sum=$(sha256sum "$static_trace" | cut -d' ' -f1)
rm -f "$static_trace"
[ "$(head -n 8 <<<"$static_out")" = "$(head -n 8 <<<"$static_traced_out")" ] ||
  { echo "lean and traced reports differ under static batching"; exit 1; }
grep -qF "TTFT p50/p95/p99 : 402.326ms / 695.114ms / 858.939ms" <<<"$static_out"
grep -qF "e2e  p50/p95     : 1.045s / 1.337s" <<<"$static_out"
[ "$static_sum" = ebe19a8fbbfaf8571c8960ab108e1b5967c12c6ebeb974b9c24ac728ac65c6c7 ] ||
  { echo "static batching trace changed: $static_sum"; exit 1; }

echo "== skip serve CLI (disaggregated heterogeneous fleet with autoscaling) =="
fleet_out=$(cargo run --release -p skip-suite --bin skip -- serve --model gpt2 \
  --fleet gh200:1,intel_h100:3 --disagg --autoscale --arrivals bursty \
  --qps 10 --peak-qps 300 --requests 40 --seq 256 --tokens 8 --slo-ttft-ms 200)
grep -q "completed    : 40 requests" <<<"$fleet_out"

echo "== skip serve CLI (disaggregated fleet under chunked prefill) =="
chunked_fleet_out=$(cargo run --release -p skip-suite --bin skip -- serve --model gpt2 \
  --fleet gh200:1,intel_h100:3 --disagg --policy chunked --chunk-tokens 64 \
  --qps 40 --requests 40 --seq 256 --tokens 8 --slo-ttft-ms 200)
grep -q "completed    : 40 requests" <<<"$chunked_fleet_out"
grep -q "KV handoff" <<<"$chunked_fleet_out"
# The fleet retire compacts the batch in place; completions and handoffs
# keep batch order.
grep -qF "TTFT p50/p95/p99 : 1.311s / 2.509s / 2.635s" <<<"$chunked_fleet_out"

echo "== skip plan CLI (capacity planner frontier over the candidate space) =="
plan_out=$(cargo run --release -p skip-suite --bin skip -- plan --model gpt2 \
  --qps 80 --requests 48 --seq 128 --tokens 4 --max-replicas 3 \
  --slo-ttft-ms 400 --slo-e2e-ms 2000)
grep -q "cost-optimal fleet:" <<<"$plan_out"

echo "== skip plan CLI (pruned generational sweep over an 8-replica space) =="
plan8_out=$(cargo run --release -p skip-suite --bin skip -- plan --model llama-2-7b \
  --qps 50 --requests 64 --seq 512 --tokens 16 --max-replicas 8 \
  --slo-ttft-ms 600 --slo-e2e-ms 2500)
grep -q "cost-optimal fleet:" <<<"$plan8_out"
grep -q "pruned sweep:" <<<"$plan8_out"

echo "== skip sweep CLI (eager tree walk; GH200 stays CPU-bound to a larger batch) =="
sweep_out=$(cargo run --release -p skip-suite --bin skip -- sweep --model llama-3.2-1b \
  --platform all)
transitions=$(awk '/^== /{platform=$4} /transition at batch/{print platform, $NF}' <<<"$sweep_out")
[ "$transitions" = $'amd_a100 2\nintel_h100 2\ngh200 4' ] ||
  { echo "unexpected transitions: $transitions"; exit 1; }

echo "== skip profile CLI (eager GPT-2 prefill kernel/launch/op counts) =="
profile_out=$(cargo run --release -p skip-suite --bin skip -- profile --model gpt2 --platform gh200)
grep -q "kernels / launches / ops : 402 / 403 / 536" <<<"$profile_out"
# The first operator-attribution row, read off the same dependency graph as
# the report above.
grep -qF "transformers::Conv1D           48 inst    96 kernels  gpu 366.540us  launch+queue 410.772us" \
  <<<"$profile_out"

echo "== parallel determinism (byte-identical renders at any --threads) =="
cargo test --release --test parallel_determinism -q

echo "== skipbench (one round of every workload; exits 1 on a failed check or digest mismatch) =="
cargo run --release -p skip-bench --bin skipbench -- --reps 1

echo "CI OK"

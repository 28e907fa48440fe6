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

echo "== cargo doc (deny warnings: broken and redundant intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test (unit, integration and doctests) =="
cargo test --workspace -q

echo "== fresh-seed property pass (1000 new cases per property) =="
# A new seed every run, printed so a failure replays with
# PROPTEST_SEED=<seed>; set PROPTEST_SEED yourself to rerun a logged one.
# Covers the legacy oracle vs the unified floor (skip-serve --lib), the
# DES queue and arrival merge, the KV block pool against its reference
# model, the planner, fleet and policy/router properties, the Chrome
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

echo "== skip serve CLI (chunked-prefill policy behind the JSQ router) =="
# capture, then grep: piping straight into grep -q races the CLI against
# grep's early exit (broken pipe) under pipefail
serve_out=$(cargo run --release -p skip-suite --bin skip -- serve --model gpt2 \
  --platform gh200 --policy chunked --chunk-tokens 64 --router jsq --replicas 4 \
  --requests 40 --qps 100 --seq 256 --tokens 8 --slo-ttft-ms 200)
grep -q "completed    : 40 requests" <<<"$serve_out"

echo "== skip serve CLI (memory-aware chunked prefill under recompute pressure) =="
kv_chunked_out=$(cargo run --release -p skip-suite --bin skip -- serve --model llama-2-7b \
  --platform intel_h100 --policy chunked --chunk-tokens 256 --router jsq --replicas 2 \
  --requests 16 --qps 50 --seq 1024 --tokens 128 --kv-blocks 142 --offload recompute)
grep -q "completed    : 16 requests" <<<"$kv_chunked_out"
grep -qF "KV pressure  : 26 preemptions (0 swapped, 0.0 MB moved; 29144 tokens recomputed) | peak occupancy 100%" \
  <<<"$kv_chunked_out"

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

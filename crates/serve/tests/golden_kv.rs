//! Memory-layer digests: paged-KV admission, preemption and resume pinned
//! byte for byte.
//!
//! The KV fixtures in `golden.rs` all run [`OffloadPolicy::Auto`], which
//! resolves every eviction in them to a swap, and the static fixtures never
//! touch the pool. This grid drives the memory layer down every path:
//! {continuous, chunked} × {recompute, swap, auto} × {1, 2 replicas} behind
//! the JSQ router, each under a pressured Llama-2-7B pool that admits two
//! prompts but cannot hold two full lifetimes. Each case serializes the
//! report and the trace of [`simulate_traced`] with `serde_json` and
//! compares the FNV-1a-64 digest of those bytes with [`GOLDEN`], so a moved
//! victim, resume price or counter sample anywhere fails the case. On
//! this PCIe gen4 platform `Auto` resolves every eviction to a swap, so its
//! digests equal the swap cases'; they stay separate cases so that a change
//! to `Auto`'s choice shows.
//!
//! The table was captured at commit bb41de5, before the block pool became
//! a counting pool. A failure lists every case whose digest moved.

use skip_des::SimDuration;
use skip_hw::Platform;
use skip_llm::zoo;
use skip_mem::{KvSpec, OffloadPolicy};
use skip_serve::{simulate_traced, KvCacheConfig, Policy, RouterPolicy, ServingConfig, SloTargets};

/// Expected `(report, trace)` digests per case, captured at commit bb41de5.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("continuous recompute 1r", 0xa15e293b7a77408f, 0x1c46cfd8dfd7084f),
    ("continuous recompute 2r", 0xa39050fc4726e39f, 0xcb954f3a0b586b06),
    ("continuous swap 1r", 0x5fb3b7f1b1bc038b, 0x68f363a7334eb421),
    ("continuous swap 2r", 0x4421f9505b3365d7, 0x5642f4d93f44f44c),
    ("continuous auto 1r", 0x5fb3b7f1b1bc038b, 0x68f363a7334eb421),
    ("continuous auto 2r", 0x4421f9505b3365d7, 0x5642f4d93f44f44c),
    ("chunked recompute 1r", 0xfe0ff2888b524726, 0xe973aa59de5bfe3b),
    ("chunked recompute 2r", 0xd6a85ec45ece5481, 0xf31382b3f178c125),
    ("chunked swap 1r", 0xce7cc1df69d18a32, 0x7f8ea79eb337a316),
    ("chunked swap 2r", 0x0b705f90294a992d, 0x86e9cae01d85607c),
    ("chunked auto 1r", 0xce7cc1df69d18a32, 0x7f8ea79eb337a316),
    ("chunked auto 2r", 0x0b705f90294a992d, 0x86e9cae01d85607c),
];

const REQUESTS: u32 = 16;

/// Llama-2-7B with 1024+128-token lifetimes on a pool of two lifetimes
/// less two blocks per replica (the shape of the floor's `pressured_cfg`).
fn pressured(policy: Policy, offload: OffloadPolicy) -> ServingConfig {
    let model = zoo::llama2_7b();
    let (prompt_len, new_tokens) = (1024, 128);
    let spec = KvSpec::for_model(&model, KvSpec::DEFAULT_BLOCK_TOKENS);
    let full = spec.blocks_for(u64::from(prompt_len) + u64::from(new_tokens));
    ServingConfig {
        platform: Platform::intel_h100(),
        model,
        policy,
        requests: REQUESTS,
        arrival_rate_per_s: 50.0,
        prompt_len,
        new_tokens,
        seed: 11,
        kv: Some(KvCacheConfig::with_blocks(full * 2 - 2, offload)),
        slo: SloTargets {
            ttft: Some(SimDuration::from_millis(400)),
            e2e: Some(SimDuration::from_millis(4000)),
        },
        router: RouterPolicy::JoinShortestQueue,
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn memory_layer_decisions_match_golden() {
    let mut moved = Vec::new();
    for (plabel, policy) in [
        ("continuous", Policy::Continuous { max_batch: 4 }),
        (
            "chunked",
            Policy::ChunkedPrefill {
                max_batch: 4,
                chunk_tokens: 256,
            },
        ),
    ] {
        for offload in [
            OffloadPolicy::Recompute,
            OffloadPolicy::SwapToHost,
            OffloadPolicy::Auto,
        ] {
            for replicas in [1u32, 2] {
                let case = format!("{plabel} {offload} {replicas}r");
                let (report, trace) = simulate_traced(&pressured(policy, offload), replicas);
                assert_eq!(
                    report.completed, REQUESTS,
                    "{case}: every request completes"
                );
                assert!(report.preemptions > 0, "{case}: the pool must preempt");
                if offload == OffloadPolicy::Recompute {
                    assert!(report.recomputed_tokens > 0, "{case}: nothing recomputed");
                }
                let got = (
                    fnv1a64(serde_json::to_string(&report).expect("report").as_bytes()),
                    fnv1a64(serde_json::to_string(&trace).expect("trace").as_bytes()),
                );
                let line = format!("(\"{case}\", {:#018x}, {:#018x})", got.0, got.1);
                match GOLDEN.iter().find(|(k, ..)| *k == case) {
                    Some(&(_, r, t)) if (r, t) == got => {}
                    Some(&(_, r, t)) => {
                        moved.push(format!("{line}, expected ({r:#018x}, {t:#018x})"));
                    }
                    None => moved.push(format!("{line}, no golden entry")),
                }
            }
        }
    }
    assert!(
        moved.is_empty(),
        "memory-layer digests moved:\n{}",
        moved.join("\n")
    );
}

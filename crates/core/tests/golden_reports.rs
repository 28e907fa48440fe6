//! Golden report digests: the SKIP pipeline's output pinned to fixed bytes.
//!
//! Each case runs one engine trace through [`DependencyGraph::build`],
//! [`ProfileReport::analyze_with_graph`], [`attribute_to_operators`] and
//! [`top_kernels`], serializes `(report, operator stats, top-5 kernels)`
//! with `serde_json`, and compares the FNV-1a-64 digest of those bytes with
//! [`GOLDEN`]. It also checks that [`attribute_with_graph`] returns the same
//! operator stats as [`attribute_to_operators`]. A moved metric, a re-attributed kernel or a reordered
//! operator row anywhere in the output fails the case. The table was
//! captured at commit 73dd758, before the dependency graph's id-placement
//! fast path and the single-sweep attribution existed.
//!
//! A failure lists every input whose digest moved.

use skip_core::{
    attribute_to_operators, attribute_with_graph, top_kernels, DependencyGraph, ProfileReport,
};
use skip_hw::Platform;
use skip_llm::{zoo, Phase, Workload};
use skip_runtime::{CompileMode, Engine, ExecMode};
use skip_trace::Trace;

/// Expected digest per input, captured at commit 73dd758.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("bert-base-uncased prefill b1 s512 on amd_a100 eager", 0xf6ecb4de6c193262),
    ("bert-base-uncased prefill b1 s512 on amd_a100 flash_attention_2", 0x2beccf62294be5ec),
    ("bert-base-uncased prefill b1 s512 on gh200 eager", 0x4f6a492ac0b02cdf),
    ("bert-base-uncased prefill b1 s512 on gh200 flash_attention_2", 0xf66bd730663d0e85),
    ("bert-base-uncased prefill b1 s512 on intel_h100 eager", 0x418fd701809b194f),
    ("bert-base-uncased prefill b1 s512 on intel_h100 flash_attention_2", 0x294178424b1c0369),
    ("bert-base-uncased prefill b64 s512 on amd_a100 eager", 0x95f6ea3ca6bca88d),
    ("bert-base-uncased prefill b64 s512 on amd_a100 flash_attention_2", 0xbb38438f313ea18c),
    ("bert-base-uncased prefill b64 s512 on gh200 eager", 0x4bc2970b15df5ee5),
    ("bert-base-uncased prefill b64 s512 on gh200 flash_attention_2", 0x077a7b729b739dc1),
    ("bert-base-uncased prefill b64 s512 on intel_h100 eager", 0xe876c84b296e5739),
    ("bert-base-uncased prefill b64 s512 on intel_h100 flash_attention_2", 0x14051e2796177f97),
    ("gemma-2b prefill b1 s512 on amd_a100 eager", 0x7c0cc8fcb0c22d6e),
    ("gemma-2b prefill b1 s512 on amd_a100 flash_attention_2", 0x0f531eac6b4f2b6a),
    ("gemma-2b prefill b1 s512 on gh200 eager", 0xe7471658325e2263),
    ("gemma-2b prefill b1 s512 on gh200 flash_attention_2", 0x6cd58eaf3f9cf9fe),
    ("gemma-2b prefill b1 s512 on intel_h100 eager", 0x89b3caf7e83a50a7),
    ("gemma-2b prefill b1 s512 on intel_h100 flash_attention_2", 0x6797570d1b79f234),
    ("gemma-2b prefill b64 s512 on amd_a100 eager", 0x22dd81c484d5888b),
    ("gemma-2b prefill b64 s512 on amd_a100 flash_attention_2", 0xbd8ef47ce7c65f25),
    ("gemma-2b prefill b64 s512 on gh200 eager", 0xfa99cc30ec71b2ca),
    ("gemma-2b prefill b64 s512 on gh200 flash_attention_2", 0xc6018424c01375c7),
    ("gemma-2b prefill b64 s512 on intel_h100 eager", 0x4c2a28b8440a0d92),
    ("gemma-2b prefill b64 s512 on intel_h100 flash_attention_2", 0x1340580aad7ab97d),
    ("gpt2 prefill b1 s512 on amd_a100 eager", 0x44be26588f52e42c),
    ("gpt2 prefill b1 s512 on amd_a100 flash_attention_2", 0x3d4b404ee331a2f4),
    ("gpt2 prefill b1 s512 on gh200 eager", 0xcf4cbdb5b6670778),
    ("gpt2 prefill b1 s512 on gh200 flash_attention_2", 0x0691aacdf01fff60),
    ("gpt2 prefill b1 s512 on intel_h100 eager", 0x7347ca7d0c9a743a),
    ("gpt2 prefill b1 s512 on intel_h100 flash_attention_2", 0xa3041a587fd0481c),
    ("gpt2 prefill b64 s512 on amd_a100 eager", 0x6d151df880c8a961),
    ("gpt2 prefill b64 s512 on amd_a100 flash_attention_2", 0x2d0662ed945b2e82),
    ("gpt2 prefill b64 s512 on gh200 eager", 0xbfd760a5f29a48c3),
    ("gpt2 prefill b64 s512 on gh200 flash_attention_2", 0x0d60c4f76b9d9d38),
    ("gpt2 prefill b64 s512 on intel_h100 eager", 0xf6185a5c6841c4d3),
    ("gpt2 prefill b64 s512 on intel_h100 flash_attention_2", 0x113f32c5a5670d37),
    ("gpt2 prefill b8 s512 on gh200 torch_compile[reduce-overhead]", 0x4eac3ef3b14ad5df),
    ("llama-3.2-1b prefill b1 s512 on amd_a100 eager", 0x536faf93fa30c68d),
    ("llama-3.2-1b prefill b1 s512 on amd_a100 flash_attention_2", 0xd86be73d0979eba8),
    ("llama-3.2-1b prefill b1 s512 on gh200 eager", 0xf50aca655a50af94),
    ("llama-3.2-1b prefill b1 s512 on gh200 flash_attention_2", 0xa98e7094b856e9eb),
    ("llama-3.2-1b prefill b1 s512 on intel_h100 eager", 0x11577412f9717912),
    ("llama-3.2-1b prefill b1 s512 on intel_h100 flash_attention_2", 0x68e6f8bcdb6517a1),
    ("llama-3.2-1b prefill b64 s512 on amd_a100 eager", 0x6a622394daee5ade),
    ("llama-3.2-1b prefill b64 s512 on amd_a100 flash_attention_2", 0x1e37a941c5c182c2),
    ("llama-3.2-1b prefill b64 s512 on gh200 eager", 0x746145cf715f6c28),
    ("llama-3.2-1b prefill b64 s512 on gh200 flash_attention_2", 0xd2a023e48794a6e3),
    ("llama-3.2-1b prefill b64 s512 on intel_h100 eager", 0xae6e5a11debd44b4),
    ("llama-3.2-1b prefill b64 s512 on intel_h100 flash_attention_2", 0x9820786be1512818),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(trace: &Trace) -> u64 {
    let graph = DependencyGraph::build(trace);
    let report = ProfileReport::analyze_with_graph(trace, &graph);
    let ops = attribute_to_operators(trace);
    assert_eq!(
        ops,
        attribute_with_graph(trace, &graph),
        "{:?}",
        trace.meta()
    );
    let top = top_kernels(trace, 5);
    fnv1a64(
        serde_json::to_string(&(report, ops, top))
            .expect("report serializes")
            .as_bytes(),
    )
}

/// Asserts every `(input, digest)` matches its [`GOLDEN`] entry.
fn check(actual: &[(String, u64)]) {
    let moved: Vec<String> = actual
        .iter()
        .filter_map(
            |(input, got)| match GOLDEN.iter().find(|(k, _)| k == input) {
                Some(&(_, want)) if want == *got => None,
                Some(&(_, want)) => Some(format!("{input}: {got:#018x}, expected {want:#018x}")),
                None => Some(format!("{input}: {got:#018x}, no golden entry")),
            },
        )
        .collect();
    assert!(
        moved.is_empty(),
        "report digests moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn paper_trio_prefill_reports_match_golden() {
    let models = [
        zoo::llama32_1b(),
        zoo::bert_base_uncased(),
        zoo::gpt2(),
        zoo::gemma_2b(),
    ];
    let mut out = Vec::new();
    for platform in Platform::paper_trio() {
        let engine = Engine::new(platform);
        for model in &models {
            for batch in [1, 64] {
                let wl = Workload::new(model.clone(), Phase::Prefill, batch, 512);
                for mode in [ExecMode::Eager, ExecMode::FlashAttention2] {
                    let input = format!(
                        "{} prefill b{batch} s512 on {} {}",
                        model.name,
                        engine.platform().name,
                        mode.label()
                    );
                    out.push((input, digest(&engine.run(&wl, mode))));
                }
            }
        }
    }
    check(&out);
}

#[test]
fn cuda_graph_replay_report_matches_golden() {
    let engine = Engine::new(Platform::gh200());
    let wl = Workload::new(zoo::gpt2(), Phase::Prefill, 8, 512);
    let mode = ExecMode::TorchCompile(CompileMode::ReduceOverhead);
    let input = format!("gpt2 prefill b8 s512 on gh200 {}", mode.label());
    check(&[(input, digest(&engine.run(&wl, mode)))]);
}

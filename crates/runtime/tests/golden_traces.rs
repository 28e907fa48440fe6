//! Golden trace digests: [`Engine::run`] and [`Engine::run_graph`] output
//! pinned to fixed bytes.
//!
//! Each case serializes one whole trace with `serde_json` and compares the
//! FNV-1a-64 digest of those bytes with [`GOLDEN`], so a moved timestamp,
//! id, event or name-table entry anywhere in the trace fails the case. The
//! table was captured at commit 27fb9fe, where the periodic-layer
//! replication and pre-priced schedule fast paths were both checked
//! byte-for-byte against the operator-tree walk on these inputs.
//!
//! A failure lists every input whose digest moved.

use skip_hw::Platform;
use skip_llm::gnn::GcnConfig;
use skip_llm::rm::DlrmConfig;
use skip_llm::{zoo, ModelConfig, Phase, Workload};
use skip_runtime::{Engine, ExecMode};
use skip_trace::{Trace, TraceMeta};

/// Expected digest per input, captured at commit 27fb9fe.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("bert-base-uncased prefill b1 s512 on amd_a100 eager", 0xa3daa264d8cc30c4),
    ("bert-base-uncased prefill b1 s512 on amd_a100 flash_attention_2", 0x634aa721b3c1d8d6),
    ("bert-base-uncased prefill b1 s512 on gh200 eager", 0x3fc46aa47f52d60f),
    ("bert-base-uncased prefill b1 s512 on gh200 flash_attention_2", 0x15e629032760c2a9),
    ("bert-base-uncased prefill b1 s512 on intel_h100 eager", 0x5941d07cee51c1e6),
    ("bert-base-uncased prefill b1 s512 on intel_h100 flash_attention_2", 0xb1484ce18396e777),
    ("bert-base-uncased prefill b64 s512 on amd_a100 eager", 0x2947879af91c1fe7),
    ("bert-base-uncased prefill b64 s512 on amd_a100 flash_attention_2", 0x81b499a36a7b302f),
    ("bert-base-uncased prefill b64 s512 on gh200 eager", 0x385f332bfd09f534),
    ("bert-base-uncased prefill b64 s512 on gh200 flash_attention_2", 0xf7001a7a0eabb1db),
    ("bert-base-uncased prefill b64 s512 on intel_h100 eager", 0xb82cab1cf3bdf214),
    ("bert-base-uncased prefill b64 s512 on intel_h100 flash_attention_2", 0x7e80fd1ac9dc7e7d),
    ("bert-large-uncased prefill b1 s512 on amd_a100 eager", 0x695fdfb9c4e67996),
    ("bert-large-uncased prefill b1 s512 on amd_a100 flash_attention_2", 0x81305cc421176c4f),
    ("bert-large-uncased prefill b1 s512 on gh200 eager", 0xdd83527f35dc0c60),
    ("bert-large-uncased prefill b1 s512 on gh200 flash_attention_2", 0x94aba7b1ca97b1e7),
    ("bert-large-uncased prefill b1 s512 on intel_h100 eager", 0x4ebac01f4d53756f),
    ("bert-large-uncased prefill b1 s512 on intel_h100 flash_attention_2", 0x3746f72e766b4594),
    ("dlrm-mlperf b1 on amd_a100", 0x8c6cd4fb5f6b9898),
    ("dlrm-mlperf b1 on gh200", 0x924d6a51f882b384),
    ("dlrm-mlperf b1 on intel_h100", 0x24d3b89fcb86a58e),
    ("dlrm-mlperf b65536 on amd_a100", 0x2b7b661b95f9f1a6),
    ("dlrm-mlperf b65536 on gh200", 0x6f1f56d987e41992),
    ("dlrm-mlperf b65536 on intel_h100", 0xf2f61f81dc0c5952),
    ("gcn-cora on amd_a100", 0x66c0d581ddbc35c6),
    ("gcn-cora on gh200", 0x9f46e43fb802c157),
    ("gcn-cora on intel_h100", 0xa232376ca8ae05ab),
    ("gcn-ogbn-arxiv on amd_a100", 0xebf4b40a401d481c),
    ("gcn-ogbn-arxiv on gh200", 0x20cefdc46fd00680),
    ("gcn-ogbn-arxiv on intel_h100", 0x4695d65f4b408ada),
    ("gpt2 decode@256 b4 s128 on amd_a100 eager", 0x1d5c2b1ac6e5fb6b),
    ("gpt2 decode@256 b4 s128 on amd_a100 flash_attention_2", 0x0da4f2c39bc530cf),
    ("gpt2 decode@256 b4 s128 on gh200 eager", 0x119c58bb44039c07),
    ("gpt2 decode@256 b4 s128 on gh200 flash_attention_2", 0xd0fe88f991ece42b),
    ("gpt2 decode@256 b4 s128 on intel_h100 eager", 0xa9a330f401d1e7aa),
    ("gpt2 decode@256 b4 s128 on intel_h100 flash_attention_2", 0xbe36b36d4421c2c0),
    ("gpt2 prefill b1 s512 on amd_a100 eager", 0x84bec7f610ff8c13),
    ("gpt2 prefill b1 s512 on amd_a100 flash_attention_2", 0xd5059d96b9a0f7ea),
    ("gpt2 prefill b1 s512 on gh200 eager", 0xa1032138197193ef),
    ("gpt2 prefill b1 s512 on gh200 flash_attention_2", 0x021b6c2cc40c89d4),
    ("gpt2 prefill b1 s512 on intel_h100 eager", 0x2e2291406b9a5f07),
    ("gpt2 prefill b1 s512 on intel_h100 flash_attention_2", 0xa7b5ce8c1440ea8b),
    ("gpt2 prefill b64 s512 on amd_a100 eager", 0xf4a304a8e1cf90fd),
    ("gpt2 prefill b64 s512 on amd_a100 flash_attention_2", 0xfcdd2e6af7f8c96f),
    ("gpt2 prefill b64 s512 on gh200 eager", 0xc2b7ad581d8be737),
    ("gpt2 prefill b64 s512 on gh200 flash_attention_2", 0x1571fa9133f69cb6),
    ("gpt2 prefill b64 s512 on intel_h100 eager", 0x1650363a2762faff),
    ("gpt2 prefill b64 s512 on intel_h100 flash_attention_2", 0x85543aa0dd5c8186),
    ("gpt2-medium prefill b1 s512 on amd_a100 eager", 0xcc864bb6a4f59b57),
    ("gpt2-medium prefill b1 s512 on amd_a100 flash_attention_2", 0xea3cdc789eb82ca4),
    ("gpt2-medium prefill b1 s512 on gh200 eager", 0x60faf0ee1f2a3690),
    ("gpt2-medium prefill b1 s512 on gh200 flash_attention_2", 0x3cba48144d96e659),
    ("gpt2-medium prefill b1 s512 on intel_h100 eager", 0x547466aeba1c644b),
    ("gpt2-medium prefill b1 s512 on intel_h100 flash_attention_2", 0x76b1817467d7b289),
    ("llama-3.1-8b prefill b1 s512 on amd_a100 eager", 0xe9079b72b49f5197),
    ("llama-3.1-8b prefill b1 s512 on amd_a100 flash_attention_2", 0x1d4e3abb2a777a70),
    ("llama-3.1-8b prefill b1 s512 on gh200 eager", 0xf5fa2070bc1ba17b),
    ("llama-3.1-8b prefill b1 s512 on gh200 flash_attention_2", 0x4d3020b108e7a5dc),
    ("llama-3.1-8b prefill b1 s512 on intel_h100 eager", 0x7d77e8f8b3c46c04),
    ("llama-3.1-8b prefill b1 s512 on intel_h100 flash_attention_2", 0x9ff1ab065a0631ba),
    ("llama-3.2-1b decode@256 b4 s128 on amd_a100 eager", 0x0fde62b127b823c4),
    ("llama-3.2-1b decode@256 b4 s128 on amd_a100 flash_attention_2", 0xb0a1e78e287732f7),
    ("llama-3.2-1b decode@256 b4 s128 on gh200 eager", 0xe2da8a65a15ede19),
    ("llama-3.2-1b decode@256 b4 s128 on gh200 flash_attention_2", 0x2ada63a2ff831331),
    ("llama-3.2-1b decode@256 b4 s128 on intel_h100 eager", 0x25a4722ed8aa24ec),
    ("llama-3.2-1b decode@256 b4 s128 on intel_h100 flash_attention_2", 0xfa1aba6edbab9a6b),
    ("llama-3.2-1b prefill b1 s512 on amd_a100 eager", 0x2675ad1f5ab30600),
    ("llama-3.2-1b prefill b1 s512 on amd_a100 flash_attention_2", 0xde506e897fc60847),
    ("llama-3.2-1b prefill b1 s512 on gh200 eager", 0xb08ab590bed4cc64),
    ("llama-3.2-1b prefill b1 s512 on gh200 flash_attention_2", 0x8f50b16ce452c371),
    ("llama-3.2-1b prefill b1 s512 on intel_h100 eager", 0xb308dc69aa328c92),
    ("llama-3.2-1b prefill b1 s512 on intel_h100 flash_attention_2", 0x92c8beaa905d603d),
    ("qwen2.5-0.5b prefill b1 s512 on amd_a100 eager", 0x95347a86c25478ae),
    ("qwen2.5-0.5b prefill b1 s512 on amd_a100 flash_attention_2", 0xcdd4d4b0c9490df2),
    ("qwen2.5-0.5b prefill b1 s512 on gh200 eager", 0x36d8e73032838a6e),
    ("qwen2.5-0.5b prefill b1 s512 on gh200 flash_attention_2", 0xe221a86dd10b4303),
    ("qwen2.5-0.5b prefill b1 s512 on intel_h100 eager", 0xf0a267993bccef08),
    ("qwen2.5-0.5b prefill b1 s512 on intel_h100 flash_attention_2", 0xdc4aac4dc18bf7ae),
    ("xlm-roberta-base prefill b1 s512 on amd_a100 eager", 0x9e971a611deccf0e),
    ("xlm-roberta-base prefill b1 s512 on amd_a100 flash_attention_2", 0xdc5be9b67ccfbebe),
    ("xlm-roberta-base prefill b1 s512 on gh200 eager", 0x49cf0e1ef5428bd4),
    ("xlm-roberta-base prefill b1 s512 on gh200 flash_attention_2", 0x8c115ee6febe582e),
    ("xlm-roberta-base prefill b1 s512 on intel_h100 eager", 0x55eda509e414ebde),
    ("xlm-roberta-base prefill b1 s512 on intel_h100 flash_attention_2", 0x97b6f7fc928109c5),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(trace: &Trace) -> u64 {
    fnv1a64(
        serde_json::to_string(trace)
            .expect("trace serializes")
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
        "trace digests moved:\n{}",
        moved.join("\n")
    );
}

/// Digests `models` at one workload shape on the paper trio under both
/// eager-style modes.
fn workloads(models: &[ModelConfig], phase: Phase, batch: u32, seq_len: u32) -> Vec<(String, u64)> {
    let phase_label = match phase {
        Phase::Prefill => "prefill".to_owned(),
        Phase::DecodeStep { past_len } => format!("decode@{past_len}"),
    };
    let mut out = Vec::new();
    for platform in Platform::paper_trio() {
        let engine = Engine::new(platform);
        for model in models {
            let wl = Workload::new(model.clone(), phase, batch, seq_len);
            for mode in [ExecMode::Eager, ExecMode::FlashAttention2] {
                let input = format!(
                    "{} {phase_label} b{batch} s{seq_len} on {} {}",
                    model.name,
                    engine.platform().name,
                    mode.label()
                );
                out.push((input, digest(&engine.run(&wl, mode))));
            }
        }
    }
    out
}

#[test]
fn table_iii_prefill_traces_match_golden() {
    check(&workloads(&zoo::table_iii(), Phase::Prefill, 1, 512));
}

#[test]
fn remaining_zoo_prefill_traces_match_golden() {
    let models = [
        zoo::gpt2_medium(),
        zoo::bert_large(),
        zoo::llama31_8b(),
        zoo::qwen25_05b(),
    ];
    check(&workloads(&models, Phase::Prefill, 1, 512));
}

#[test]
fn gpu_bound_prefill_traces_match_golden() {
    let models = [zoo::gpt2(), zoo::bert_base_uncased()];
    check(&workloads(&models, Phase::Prefill, 64, 512));
}

#[test]
fn decode_traces_match_golden() {
    let models = [zoo::gpt2(), zoo::llama32_1b()];
    check(&workloads(
        &models,
        Phase::DecodeStep { past_len: 256 },
        4,
        128,
    ));
}

#[test]
fn rm_and_gnn_graph_traces_match_golden() {
    let meta = |model: &str, platform: &Platform, batch: u32| TraceMeta {
        model: model.to_owned(),
        platform: platform.name.clone(),
        exec_mode: "eager".into(),
        phase: "forward".into(),
        batch_size: batch,
        seq_len: 1,
    };
    let dlrm = DlrmConfig::mlperf_dlrm();
    let mut out = Vec::new();
    for platform in Platform::paper_trio() {
        let engine = Engine::new(platform.clone());
        for batch in [1, 65536] {
            let trace = engine.run_graph(
                &dlrm.graph(batch),
                dlrm.input_bytes(batch),
                meta(&dlrm.name, &platform, batch),
            );
            out.push((
                format!("{} b{batch} on {}", dlrm.name, platform.name),
                digest(&trace),
            ));
        }
        for gcn in [GcnConfig::cora(), GcnConfig::ogbn_arxiv()] {
            let trace = engine.run_graph(
                &gcn.graph(),
                gcn.input_bytes(),
                meta(&gcn.name, &platform, 1),
            );
            out.push((format!("{} on {}", gcn.name, platform.name), digest(&trace)));
        }
    }
    check(&out);
}

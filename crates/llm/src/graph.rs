//! Eager-mode operator-graph construction.
//!
//! The builder reproduces the *kernel stream shape* of HuggingFace models
//! under PyTorch eager execution — the property the SKIP profiler and the
//! proximity-score recommender analyze. Three structural facts from real
//! traces are load-bearing for the paper's results and are modeled
//! explicitly:
//!
//! 1. **Eager chattiness, per lowering path.** `aten::matmul` on 4-D
//!    tensors inserts `clone` copies around the `bmm`; GPT2's legacy path
//!    runs multi-kernel softmax/LayerNorm and a 5-kernel tanh-GELU (~33
//!    kernels/layer, K_eager ≈ 400), while the modern encoder path gets
//!    cuBLASLt fused-bias GEMMs and single-kernel softmax/LN/GELU (~24
//!    kernels/layer, K_eager ≈ 300) — matching the K_eager magnitudes
//!    behind the paper's Fig. 7d/Fig. 8.
//! 2. **Layer periodicity with context ambiguity.** Kernel names are
//!    deterministic per (functor, shape) — and therefore *shared* across
//!    call sites, as in real traces: the same `vectorized_add` kernel
//!    serves bias, residual and mask adds. Repeated layers give the
//!    deterministic chains proximity-score fusion feeds on; shared names
//!    give the mixed continuations that cap short-chain determinism.
//! 3. **Stream length asymmetry.** GPT2's K_eager (~400) leaves more room
//!    for one long fused chain than the leaner encoder stream (~300) —
//!    under Eq. 7 this yields the paper's Fig. 8 asymmetry (XLM-R up to
//!    ~6.8× idealized speedup vs GPT2 ~2.7× at chain length 256).

use serde::{Deserialize, Serialize};
use skip_hw::KernelWork;

use crate::config::{Activation, ArchStyle, ModelConfig};
use crate::ops::{KernelSpec, OpNode};
use crate::workload::Phase;

/// FP16 element size in bytes.
const EB: u64 = 2;

/// Which attention lowering the graph uses.
///
/// `FlashAttention2` replaces the eager scale→QKᵀ→mask→softmax→AV section
/// with a single IO-aware fused kernel that never materializes the S×S
/// score matrix (paper §II-C): far fewer launches and far less HBM traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AttentionImpl {
    /// Unfused eager-mode attention.
    #[default]
    Eager,
    /// FlashAttention-2 fused kernel.
    FlashAttention2,
}

/// Options controlling graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct GraphOptions {
    /// Attention lowering.
    pub attention: AttentionImpl,
}

/// A complete eager-mode operator graph: the top-level operators one
/// forward pass executes, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorGraph {
    ops: Vec<OpNode>,
    /// [`OperatorGraph::op_count`] and [`OperatorGraph::kernel_count`],
    /// counted once at construction: the engine sizes every trace it
    /// records from them, and a tree walk per run would cost more than the
    /// regrowth it saves.
    op_count: usize,
    kernel_count: usize,
}

impl OperatorGraph {
    /// Creates a graph from top-level operators.
    #[must_use]
    pub fn from_ops(ops: Vec<OpNode>) -> Self {
        let (op_count, kernel_count) = subtree_counts(&ops);
        OperatorGraph {
            ops,
            op_count,
            kernel_count,
        }
    }

    /// Top-level operators in execution order.
    #[must_use]
    pub fn ops(&self) -> &[OpNode] {
        &self.ops
    }

    /// Total operator-node count (all nesting levels).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.op_count
    }

    /// Total kernels launched by one forward pass — the paper's `K_eager`
    /// when the graph is executed eagerly.
    #[must_use]
    pub fn kernel_count(&self) -> usize {
        self.kernel_count
    }

    /// All kernels in launch order.
    #[must_use]
    pub fn kernels_in_order(&self) -> Vec<&KernelSpec> {
        let mut out = Vec::with_capacity(self.kernel_count());
        for op in &self.ops {
            op.kernels_in_order(&mut out);
        }
        out
    }

    /// Total FLOPs across all kernels.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.kernels_in_order().iter().map(|k| k.work.flops).sum()
    }

    /// Total device-memory bytes across all kernels.
    #[must_use]
    pub fn total_bytes(&self) -> f64 {
        self.kernels_in_order().iter().map(|k| k.work.bytes).sum()
    }
}

/// `(operators, kernels)` across `ops` and all their descendants, in one
/// walk.
fn subtree_counts(ops: &[OpNode]) -> (usize, usize) {
    ops.iter().fold((0, 0), |(n, k), op| {
        let (child_ops, child_kernels) = subtree_counts(&op.children);
        (n + 1 + child_ops, k + op.kernels.len() + child_kernels)
    })
}

// Encodes as `{"ops": [...]}`; the counts are derived state, recomputed
// on decode.
impl Serialize for OperatorGraph {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![("ops".to_owned(), self.ops.to_value())])
    }
}

impl<'de> Deserialize<'de> for OperatorGraph {
    fn from_value(value: &'de serde::Value) -> Result<Self, serde::DeError> {
        let ops = value
            .get("ops")
            .ok_or_else(|| serde::DeError::custom("missing field ops"))?;
        Ok(OperatorGraph::from_ops(Vec::from_value(ops)?))
    }
}

/// Builds the eager-mode graph for `model` under the given phase, batch
/// size and sequence length.
#[must_use]
pub(crate) fn build(model: &ModelConfig, phase: Phase, batch: u32, seq: u32) -> OperatorGraph {
    build_with(model, phase, batch, seq, GraphOptions::default())
}

/// Builds the graph with explicit [`GraphOptions`].
#[must_use]
pub(crate) fn build_with(
    model: &ModelConfig,
    phase: Phase,
    batch: u32,
    seq: u32,
    opts: GraphOptions,
) -> OperatorGraph {
    let b = Builder::with_options(model, phase, batch, seq, opts);
    let mut ops = Vec::new();
    b.embeddings(&mut ops);
    for layer in 0..model.layers {
        b.layer.set(layer);
        let mut layer_ops = Vec::new();
        match model.arch {
            ArchStyle::BertEncoder => b.encoder_layer(&mut layer_ops),
            ArchStyle::Gpt2Decoder => b.gpt2_layer(&mut layer_ops),
            ArchStyle::LlamaDecoder => b.llama_layer(&mut layer_ops),
        }
        b.insert_workspace_memset(&mut layer_ops);
        ops.extend(layer_ops);
    }
    b.tail(&mut ops);
    OperatorGraph::from_ops(ops)
}

/// Shape context shared by all layer builders.
struct Builder<'a> {
    cfg: &'a ModelConfig,
    opts: GraphOptions,
    /// Batch size.
    b: u64,
    /// Query length (sequence length in prefill, 1 in decode).
    sq: u64,
    /// Key/value length (sequence length in prefill, past+1 in decode).
    skv: u64,
    /// The transformer layer currently being built (drives per-layer
    /// GEMM algorithm-variant selection; see [`Builder::algo_variant`]).
    layer: std::cell::Cell<u32>,
}

impl<'a> Builder<'a> {
    fn with_options(
        cfg: &'a ModelConfig,
        phase: Phase,
        batch: u32,
        seq: u32,
        opts: GraphOptions,
    ) -> Self {
        let (sq, skv) = match phase {
            Phase::Prefill => (u64::from(seq), u64::from(seq)),
            Phase::DecodeStep { past_len } => (1, u64::from(past_len) + 1),
        };
        Builder {
            cfg,
            opts,
            b: u64::from(batch),
            sq,
            skv,
            layer: std::cell::Cell::new(0),
        }
    }

    /// cuBLAS workspace management launches a tiny `memset` kernel before
    /// GEMMs that need a zeroed workspace. *Which* GEMM needs it depends on
    /// runtime allocator state, so the memset's position within a layer's
    /// kernel stream varies layer to layer in real traces. We reproduce it
    /// with a deterministic per-layer position — it is what keeps
    /// mid-length kernel chains from being spuriously deterministic in the
    /// proximity-score analysis (paper Fig. 7/8) while adding no rare
    /// kernel names (the memset kernel itself is identical everywhere).
    fn insert_workspace_memset(&self, layer_ops: &mut Vec<OpNode>) {
        let spot = (self.layer.get().wrapping_mul(2_654_435_761) >> 7) as usize % layer_ops.len();
        layer_ops.insert(
            spot,
            OpNode::simple(
                "cuda::memset_workspace",
                vec![KernelSpec::new(
                    "memset_zero_4096",
                    KernelWork::memory(4096.0),
                )],
            ),
        );
    }

    /// The FlashAttention-2 forward kernel: QKᵀ + softmax + AV in one
    /// launch, touching only Q, K, V and the output in HBM.
    fn flash_attention(&self) -> OpNode {
        let (b, sq, skv) = (self.b, self.sq, self.skv);
        let heads = u64::from(self.cfg.heads);
        let d = u64::from(self.cfg.head_dim());
        let matmul_flops = 4.0 * (b * heads * sq * skv * d) as f64;
        let softmax_flops = 6.0 * (b * heads * sq * skv) as f64;
        let io_elems = b * heads * (2 * sq + 2 * skv) * d;
        let work = KernelWork {
            class: skip_hw::KernelClass::FusedAttention,
            flops: matmul_flops + softmax_flops,
            bytes: (io_elems * EB) as f64,
        };
        OpNode::simple(
            "flash_attn_2::fwd",
            vec![KernelSpec::new(
                format!("flash_fwd_kernel_f16_{b}x{heads}x{sq}x{skv}x{d}"),
                work,
            )],
        )
    }

    // ---- kernel spec helpers -------------------------------------------

    fn gemm(&self, m: u64, n: u64, k: u64) -> KernelSpec {
        KernelSpec::new(
            format!("xmma_gemm_f16_{m}x{n}x{k}"),
            KernelWork::gemm(m, n, k, EB),
        )
    }

    fn bmm(&self, batch: u64, m: u64, n: u64, k: u64) -> KernelSpec {
        KernelSpec::new(
            format!("xmma_bmm_f16_{batch}x{m}x{n}x{k}"),
            KernelWork::batched_gemm(batch, m, n, k, EB),
        )
    }

    /// Elementwise kernels are templated on the functor, not the call
    /// site: a bias add and a residual add of the same size launch the
    /// *same* kernel. Sharing names per (functor, size) reproduces the
    /// context ambiguity of real traces — chains anchored at such kernels
    /// have mixed continuations and low proximity scores.
    fn ew(&self, stub: &str, elems: u64, reads: u64, ops: f64) -> KernelSpec {
        let functor = match stub {
            "bias_add" | "residual" | "mask_add" | "causal_mask_add" | "add" | "gelu_add"
            | "gelu_add1" => "add",
            "scale" | "mask_scale" | "mul" | "gelu_mul" | "gelu_out" => "mul",
            other => other,
        };
        KernelSpec::new(
            format!("vectorized_{functor}_f16_{elems}"),
            KernelWork::elementwise(elems, reads, ops, EB),
        )
    }

    /// Copies likewise share one kernel per size regardless of which
    /// `contiguous`/`clone` call site launched them.
    fn copy(&self, _stub: &str, elems: u64) -> KernelSpec {
        KernelSpec::new(
            format!("direct_copy_f16_{elems}"),
            KernelWork::memory((elems * EB) as f64),
        )
    }

    fn cast(&self, stub: &str, elems: u64) -> KernelSpec {
        KernelSpec::new(
            format!("cast_{stub}_{elems}"),
            KernelWork::memory((elems * EB) as f64),
        )
    }

    fn reduce(&self, stub: &str, elems: u64, ops: f64) -> KernelSpec {
        KernelSpec::new(
            format!("{stub}_f16_{elems}"),
            KernelWork::reduction(elems, ops, EB),
        )
    }

    fn gather(&self, stub: &str, rows: u64, width: u64) -> KernelSpec {
        KernelSpec::new(
            format!("embedding_gather_{stub}_{rows}x{width}"),
            KernelWork::gather(rows, width, EB),
        )
    }

    // ---- op helpers -----------------------------------------------------

    /// `nn.Linear` lowered through cuBLASLt with the bias fused into the
    /// GEMM epilogue: `aten::linear` → `aten::t` view + `aten::addmm`
    /// launching a single kernel (the modern encoder path).
    fn linear(&self, m: u64, out_dim: u64, in_dim: u64) -> OpNode {
        OpNode::composite(
            "aten::linear",
            vec![
                OpNode::view("aten::t"),
                OpNode::simple("aten::addmm", vec![self.gemm(m, out_dim, in_dim)]),
            ],
        )
    }

    /// Bias-free projection (Llama family): `aten::linear` → `aten::mm`.
    fn projection(&self, m: u64, out_dim: u64, in_dim: u64) -> OpNode {
        OpNode::composite(
            "aten::linear",
            vec![
                OpNode::view("aten::t"),
                OpNode::simple("aten::mm", vec![self.gemm(m, out_dim, in_dim)]),
            ],
        )
    }

    /// Fused LayerNorm (single kernel) — the encoder path.
    fn layer_norm_fused(&self, elems: u64) -> OpNode {
        OpNode::simple(
            "aten::layer_norm",
            vec![self.reduce("layer_norm", elems, 4.0)],
        )
    }

    /// GPT2-style LayerNorm kept in fp16: statistics + apply (2 kernels).
    fn layer_norm_fp16(&self, elems: u64) -> OpNode {
        OpNode::simple(
            "aten::layer_norm",
            vec![
                self.reduce("layer_norm_stats", elems, 2.0),
                self.ew("layer_norm_apply", elems, 2, 2.0),
            ],
        )
    }

    /// RMSNorm: one fused kernel (modern stacks).
    fn rms_norm(&self, elems: u64) -> OpNode {
        OpNode::simple("aten::rms_norm", vec![self.reduce("rms_norm", elems, 3.0)])
    }

    /// Unfused eager softmax over `rows`×`cols` scores — the fp32-upcast
    /// decoder path: running max, exp+sum, normalize (3 kernels).
    fn softmax(&self, rows: u64, cols: u64) -> OpNode {
        let elems = rows * cols;
        OpNode::simple(
            "aten::softmax",
            vec![
                self.reduce("softmax_max", elems, 1.0),
                self.reduce("softmax_exp_sum", elems, 2.0),
                self.ew("softmax_norm", elems, 2, 1.0),
            ],
        )
    }

    // ---- model sections -------------------------------------------------

    fn embeddings(&self, ops: &mut Vec<OpNode>) {
        let h = u64::from(self.cfg.hidden);
        let rows = self.b * self.sq;
        match self.cfg.arch {
            ArchStyle::BertEncoder => {
                ops.push(OpNode::simple(
                    "aten::embedding",
                    vec![self.gather("word", rows, h)],
                ));
                if !self.cfg.token_type_embeddings {
                    // XLM-R derives position ids from the attention mask:
                    // ne + cumsum + mul + padding-offset add.
                    ops.push(OpNode::simple(
                        "aten::ne",
                        vec![self.ew("ne", rows, 1, 1.0)],
                    ));
                    ops.push(OpNode::simple(
                        "aten::cumsum",
                        vec![self.reduce("cumsum", rows, 1.0)],
                    ));
                    ops.push(OpNode::simple(
                        "aten::mul",
                        vec![self.ew("posid_mul", rows, 2, 1.0)],
                    ));
                    ops.push(OpNode::simple(
                        "aten::add",
                        vec![self.ew("posid_add", rows, 1, 1.0)],
                    ));
                }
                ops.push(OpNode::simple(
                    "aten::embedding",
                    vec![self.gather("position", rows, h)],
                ));
                ops.push(OpNode::simple(
                    "aten::add",
                    vec![self.ew("add", rows * h, 2, 1.0)],
                ));
                if self.cfg.token_type_embeddings {
                    ops.push(OpNode::simple(
                        "aten::embedding",
                        vec![self.gather("token_type", rows, h)],
                    ));
                    ops.push(OpNode::simple(
                        "aten::add",
                        vec![self.ew("add", rows * h, 2, 1.0)],
                    ));
                }
                ops.push(self.layer_norm_fused(rows * h));
                // Extended attention mask, built once per forward:
                // cast to fp16, (1 − mask), · finfo.min.
                ops.push(OpNode::simple(
                    "aten::to",
                    vec![self.cast("mask", self.b * self.skv)],
                ));
                ops.push(OpNode::simple(
                    "aten::rsub",
                    vec![self.ew("rsub", self.b * self.skv, 1, 1.0)],
                ));
                ops.push(OpNode::simple(
                    "aten::mul",
                    vec![self.ew("mask_scale", self.b * self.skv, 1, 1.0)],
                ));
            }
            ArchStyle::Gpt2Decoder => {
                ops.push(OpNode::simple(
                    "aten::embedding",
                    vec![self.gather("wte", rows, h)],
                ));
                ops.push(OpNode::simple(
                    "aten::embedding",
                    vec![self.gather("wpe", rows, h)],
                ));
                ops.push(OpNode::simple(
                    "aten::add",
                    vec![self.ew("add", rows * h, 2, 1.0)],
                ));
            }
            ArchStyle::LlamaDecoder => {
                ops.push(OpNode::simple(
                    "aten::embedding",
                    vec![self.gather("embed_tokens", rows, h)],
                ));
            }
        }
    }

    /// One BERT/RoBERTa encoder layer: 24 kernels — the lean modern
    /// encoder lowering (cuBLASLt fused-bias GEMMs, single-kernel softmax,
    /// gelu and LayerNorm). Real eager encoder traces land in the
    /// 290–310-kernel range for 12 layers, which this reproduces.
    fn encoder_layer(&self, ops: &mut Vec<OpNode>) {
        let cfg = self.cfg;
        let (b, sq, skv) = (self.b, self.sq, self.skv);
        let h = u64::from(cfg.hidden);
        let heads = u64::from(cfg.heads);
        let d = u64::from(cfg.head_dim());
        let f = u64::from(cfg.ffn);
        let m = b * sq;
        let scores = b * heads * sq * skv;

        // -- self-attention ------------------------------------------------
        ops.push(self.linear(m, h, h)); // query
        ops.push(self.linear(m, h, h)); // key
        ops.push(self.linear(m, h, h)); // value
        for _ in 0..3 {
            // transpose_for_scores: view + permute + contiguous copy
            ops.push(OpNode::composite(
                "aten::permute",
                vec![
                    OpNode::view("aten::view"),
                    OpNode::simple("aten::contiguous", vec![self.copy("scores_layout", m * h)]),
                ],
            ));
        }
        if self.opts.attention == AttentionImpl::FlashAttention2 {
            ops.push(self.flash_attention());
        } else {
            ops.push(OpNode::simple(
                "aten::div",
                vec![self.ew("scale", b * heads * sq * d, 1, 1.0)],
            ));
            // QK^T matmul: two operand clones + bmm.
            ops.push(OpNode::composite(
                "aten::matmul",
                vec![
                    OpNode::view("aten::expand"),
                    OpNode::simple("aten::clone", vec![self.copy("qk_a", b * heads * sq * d)]),
                    OpNode::simple("aten::clone", vec![self.copy("qk_b", b * heads * skv * d)]),
                    OpNode::simple("aten::bmm", vec![self.bmm(b * heads, sq, skv, d)]),
                ],
            ));
            // Pre-computed extended mask (built once in the embedding
            // stage) added to the scores.
            ops.push(OpNode::simple(
                "aten::add",
                vec![self.ew("mask_add", scores, 2, 1.0)],
            ));
            // Fused warp softmax — one kernel on the encoder path.
            ops.push(OpNode::simple(
                "aten::softmax",
                vec![self.reduce("softmax_warp_forward", scores, 4.0)],
            ));
            // AV matmul: one operand clone + bmm.
            ops.push(OpNode::composite(
                "aten::matmul",
                vec![
                    OpNode::view("aten::expand"),
                    OpNode::simple("aten::clone", vec![self.copy("av_b", b * heads * skv * d)]),
                    OpNode::simple("aten::bmm", vec![self.bmm(b * heads, sq, d, skv)]),
                ],
            ));
        }
        ops.push(OpNode::simple(
            "aten::contiguous",
            vec![self.copy("context", m * h)],
        ));
        ops.push(self.linear(m, h, h)); // attention output projection
        ops.push(OpNode::simple(
            "aten::add",
            vec![self.ew("residual", m * h, 2, 1.0)],
        ));
        ops.push(self.layer_norm_fused(m * h));

        // -- MLP -------------------------------------------------------------
        ops.push(self.linear(m, f, h));
        ops.push(OpNode::simple(
            "aten::gelu",
            vec![self.ew("gelu", m * f, 1, 8.0)],
        ));
        ops.push(self.linear(m, h, f));
        ops.push(OpNode::simple(
            "aten::add",
            vec![self.ew("residual", m * h, 2, 1.0)],
        ));
        ops.push(self.layer_norm_fused(m * h));
    }

    /// One GPT2 block: 33 kernels (see module docs).
    fn gpt2_layer(&self, ops: &mut Vec<OpNode>) {
        let cfg = self.cfg;
        let (b, sq, skv) = (self.b, self.sq, self.skv);
        let h = u64::from(cfg.hidden);
        let heads = u64::from(cfg.heads);
        let d = u64::from(cfg.head_dim());
        let kv = u64::from(cfg.kv_dim());
        let f = u64::from(cfg.ffn);
        let m = b * sq;
        let scores = b * heads * sq * skv;

        ops.push(self.layer_norm_fp16(m * h));
        // Fused QKV Conv1D.
        ops.push(OpNode::composite(
            "transformers::Conv1D",
            vec![
                OpNode::view("aten::view"),
                OpNode::simple(
                    "aten::addmm",
                    vec![
                        self.gemm(m, h + 2 * kv, h),
                        self.ew("bias_add", m * (h + 2 * kv), 1, 1.0),
                    ],
                ),
            ],
        ));
        // Split heads: three contiguous copies.
        for (label, width) in [("q", h), ("k", kv), ("v", kv)] {
            ops.push(OpNode::composite(
                "aten::split",
                vec![
                    OpNode::view("aten::view"),
                    OpNode::simple("aten::contiguous", vec![self.copy(label, m * width)]),
                ],
            ));
        }
        if self.opts.attention == AttentionImpl::FlashAttention2 {
            ops.push(self.flash_attention());
        } else {
            // QK^T matmul (2 operand clones + bmm, no split-K on sm80+).
            ops.push(OpNode::composite(
                "aten::matmul",
                vec![
                    OpNode::view("aten::expand"),
                    OpNode::simple("aten::clone", vec![self.copy("qk_a", b * heads * sq * d)]),
                    OpNode::simple("aten::clone", vec![self.copy("qk_b", b * heads * skv * d)]),
                    OpNode::simple("aten::bmm", vec![self.bmm(b * heads, sq, skv, d)]),
                ],
            ));
            ops.push(OpNode::simple(
                "aten::div",
                vec![self.ew("scale", scores, 1, 1.0)],
            ));
            ops.push(OpNode::simple(
                "aten::where",
                vec![self.ew("causal_mask", scores, 2, 1.0)],
            ));
            ops.push(self.softmax(b * heads * sq, skv));
            // AV matmul (1 operand clone + bmm).
            ops.push(OpNode::composite(
                "aten::matmul",
                vec![
                    OpNode::view("aten::expand"),
                    OpNode::simple("aten::clone", vec![self.copy("av_b", b * heads * skv * d)]),
                    OpNode::simple("aten::bmm", vec![self.bmm(b * heads, sq, d, skv)]),
                ],
            ));
        }
        ops.push(OpNode::simple(
            "aten::contiguous",
            vec![self.copy("context", m * h)],
        ));
        // c_proj.
        ops.push(self.conv1d(m, h, h));
        ops.push(OpNode::simple(
            "aten::add",
            vec![self.ew("residual", m * h, 2, 1.0)],
        ));
        ops.push(self.layer_norm_fp16(m * h));
        // MLP: c_fc, NewGELU (5 kernels), c_proj.
        ops.push(self.conv1d(m, f, h));
        ops.push(OpNode::composite(
            "transformers::NewGELU",
            vec![
                OpNode::simple("aten::pow", vec![self.ew("gelu_pow", m * f, 1, 2.0)]),
                OpNode::simple("aten::add", vec![self.ew("gelu_add", m * f, 2, 1.0)]),
                OpNode::simple("aten::tanh", vec![self.ew("gelu_tanh", m * f, 1, 6.0)]),
                OpNode::simple("aten::mul", vec![self.ew("gelu_out", m * f, 2, 1.0)]),
            ],
        ));
        ops.push(self.conv1d(m, h, f));
        ops.push(OpNode::simple(
            "aten::add",
            vec![self.ew("residual", m * h, 2, 1.0)],
        ));
    }

    /// GPT2's `Conv1D` (a transposed linear): GEMM + bias.
    fn conv1d(&self, m: u64, out_dim: u64, in_dim: u64) -> OpNode {
        OpNode::composite(
            "transformers::Conv1D",
            vec![
                OpNode::view("aten::view"),
                OpNode::simple(
                    "aten::addmm",
                    vec![
                        self.gemm(m, out_dim, in_dim),
                        self.ew("bias_add", m * out_dim, 1, 1.0),
                    ],
                ),
            ],
        )
    }

    /// One Llama-family block: 27 kernels (see module docs).
    fn llama_layer(&self, ops: &mut Vec<OpNode>) {
        let cfg = self.cfg;
        let (b, sq, skv) = (self.b, self.sq, self.skv);
        let h = u64::from(cfg.hidden);
        let heads = u64::from(cfg.heads);
        let kv_heads = u64::from(cfg.kv_heads);
        let d = u64::from(cfg.head_dim());
        let kv = u64::from(cfg.kv_dim());
        let f = u64::from(cfg.ffn);
        let m = b * sq;
        let q_dim = heads * d;
        let scores = b * heads * sq * skv;

        ops.push(self.rms_norm(m * h));
        ops.push(self.projection(m, q_dim, h)); // q_proj
        ops.push(self.projection(m, kv, h)); // k_proj
        ops.push(self.projection(m, kv, h)); // v_proj
                                             // Rotary embeddings on q and k.
        ops.push(OpNode::simple(
            "aten::rotary_emb",
            vec![self.ew("rope_q", b * heads * sq * d, 2, 4.0)],
        ));
        ops.push(OpNode::simple(
            "aten::rotary_emb",
            vec![self.ew("rope_k", b * kv_heads * sq * d, 2, 4.0)],
        ));
        // KV-cache writes.
        ops.push(OpNode::simple(
            "aten::index_copy",
            vec![self.copy("kcache", b * kv_heads * sq * d)],
        ));
        ops.push(OpNode::simple(
            "aten::index_copy",
            vec![self.copy("vcache", b * kv_heads * sq * d)],
        ));
        if self.opts.attention == AttentionImpl::FlashAttention2 {
            ops.push(self.flash_attention());
        } else {
            // repeat_kv + QK^T.
            ops.push(OpNode::composite(
                "aten::matmul",
                vec![
                    OpNode::view("aten::expand"),
                    OpNode::simple(
                        "aten::reshape",
                        vec![self.copy("repeat_k", b * heads * skv * d)],
                    ),
                    OpNode::simple("aten::clone", vec![self.copy("qk_a", b * heads * sq * d)]),
                    OpNode::simple("aten::bmm", vec![self.bmm(b * heads, sq, skv, d)]),
                ],
            ));
            ops.push(OpNode::simple(
                "aten::mul",
                vec![self.ew("scale", scores, 1, 1.0)],
            ));
            ops.push(OpNode::simple(
                "aten::add",
                vec![self.ew("causal_mask_add", scores, 2, 1.0)],
            ));
            ops.push(self.softmax(b * heads * sq, skv));
            // repeat_kv + AV.
            ops.push(OpNode::composite(
                "aten::matmul",
                vec![
                    OpNode::view("aten::expand"),
                    OpNode::simple(
                        "aten::reshape",
                        vec![self.copy("repeat_v", b * heads * skv * d)],
                    ),
                    OpNode::simple("aten::bmm", vec![self.bmm(b * heads, sq, d, skv)]),
                ],
            ));
        }
        ops.push(self.projection(m, h, q_dim)); // o_proj
        ops.push(OpNode::simple(
            "aten::add",
            vec![self.ew("residual", m * h, 2, 1.0)],
        ));
        ops.push(self.rms_norm(m * h));
        // Gated MLP: gate, up, fused act·mul, down.
        ops.push(self.projection(m, f, h)); // gate_proj
        ops.push(self.projection(m, f, h)); // up_proj
        let act = match cfg.activation {
            Activation::GeluGated => "gelu_mul",
            _ => "silu_mul",
        };
        ops.push(OpNode::simple(
            "aten::silu_backward_free", // fused act(gate)·up
            vec![self.ew(act, m * f, 2, 4.0)],
        ));
        ops.push(self.projection(m, h, f)); // down_proj
        ops.push(OpNode::simple(
            "aten::add",
            vec![self.ew("residual", m * h, 2, 1.0)],
        ));
    }

    /// The decoder tail: final norm + LM head. Encoders have no tail — the
    /// asymmetry behind the paper's Fig. 8 (see module docs).
    fn tail(&self, ops: &mut Vec<OpNode>) {
        let h = u64::from(self.cfg.hidden);
        let v = u64::from(self.cfg.vocab);
        let m = self.b * self.sq;
        match self.cfg.arch {
            ArchStyle::BertEncoder => {}
            ArchStyle::Gpt2Decoder => {
                ops.push(self.layer_norm_fp16(m * h));
                ops.push(OpNode::composite(
                    "aten::linear",
                    vec![
                        OpNode::view("aten::t"),
                        OpNode::simple("aten::mm", vec![self.gemm(m, v, h)]),
                    ],
                ));
            }
            ArchStyle::LlamaDecoder => {
                ops.push(self.rms_norm(m * h));
                ops.push(self.projection(m, v, h));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use crate::zoo;

    fn kernels_per_layer(cfg: &ModelConfig) -> usize {
        // Difference between 2-layer and 1-layer builds isolates one layer.
        let mut one = cfg.clone();
        one.layers = 1;
        let mut two = cfg.clone();
        two.layers = 2;
        let k1 = build(&one, Phase::Prefill, 1, 512).kernel_count();
        let k2 = build(&two, Phase::Prefill, 1, 512).kernel_count();
        k2 - k1
    }

    #[test]
    fn encoder_layer_launches_24_kernels() {
        assert_eq!(kernels_per_layer(&zoo::bert_base_uncased()), 24);
        assert_eq!(kernels_per_layer(&zoo::xlm_roberta_base()), 24);
    }

    #[test]
    fn gpt2_layer_launches_33_kernels() {
        assert_eq!(kernels_per_layer(&zoo::gpt2()), 33);
    }

    /// The cached counts equal a fresh tree walk, and the serialized form
    /// carries only the operators: decoding recounts them.
    #[test]
    fn cached_counts_match_tree_walk_and_survive_serde() {
        let g = build(&zoo::gpt2(), Phase::Prefill, 1, 512);
        let walked_ops: usize = g.ops().iter().map(OpNode::op_count).sum();
        let walked_kernels: usize = g.ops().iter().map(OpNode::kernel_count).sum();
        assert_eq!(
            (g.op_count(), g.kernel_count()),
            (walked_ops, walked_kernels)
        );
        let value = g.to_value();
        assert_eq!(value.as_map().map(<[_]>::len), Some(1));
        let back = OperatorGraph::from_value(&value).expect("graph decodes");
        assert_eq!(back, g);
        assert_eq!(back.kernel_count(), 402);
        assert!(OperatorGraph::from_value(&serde::Value::Null).is_err());
    }

    #[test]
    fn llama_layer_launches_27_kernels() {
        assert_eq!(kernels_per_layer(&zoo::llama32_1b()), 27);
    }

    #[test]
    fn eager_kernel_totals_match_fig7d_scale() {
        // K_eager magnitudes behind Fig. 7d / Fig. 8 speedup asymmetry.
        let gpt2 = Workload::new(zoo::gpt2(), Phase::Prefill, 1, 512).graph();
        let xlmr = Workload::new(zoo::xlm_roberta_base(), Phase::Prefill, 1, 512).graph();
        assert_eq!(gpt2.kernel_count(), 402);
        assert_eq!(xlmr.kernel_count(), 299);
    }

    #[test]
    fn encoders_have_no_tail() {
        let cfg = zoo::bert_base_uncased();
        let g = build(&cfg, Phase::Prefill, 1, 128);
        let ks = g.kernels_in_order();
        // Last kernel belongs to the repeating layer body (the closing
        // LayerNorm), not an LM head.
        assert!(ks.last().unwrap().name.starts_with("layer_norm"));
    }

    #[test]
    fn decoders_end_with_lm_head() {
        let g = build(&zoo::gpt2(), Phase::Prefill, 1, 128);
        let ks = g.kernels_in_order();
        let last = &ks.last().unwrap().name;
        assert!(last.contains("gemm"), "expected LM-head GEMM, got {last}");
        assert!(last.contains("50257"), "LM head spans the vocab: {last}");
    }

    #[test]
    fn flops_scale_linearly_with_batch() {
        let f1 = build(&zoo::gpt2(), Phase::Prefill, 1, 512).total_flops();
        let f8 = build(&zoo::gpt2(), Phase::Prefill, 8, 512).total_flops();
        let ratio = f8 / f1;
        assert!((ratio - 8.0).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn prefill_flops_match_two_params_tokens_rule() {
        // Dense-model rule of thumb: forward FLOPs ≈ 2 · params · tokens
        // (within ~35%, attention and eager bookkeeping add the rest).
        let cfg = zoo::llama32_1b();
        let g = build(&cfg, Phase::Prefill, 1, 512);
        let expect = 2.0 * cfg.param_count() as f64 * 512.0;
        let got = g.total_flops();
        let ratio = got / expect;
        assert!(
            (0.65..1.6).contains(&ratio),
            "flops ratio vs 2PN rule = {ratio}"
        );
    }

    #[test]
    fn decode_step_is_much_cheaper_than_prefill() {
        let cfg = zoo::llama32_1b();
        let prefill = build(&cfg, Phase::Prefill, 1, 512).total_flops();
        let decode = build(&cfg, Phase::DecodeStep { past_len: 512 }, 1, 512).total_flops();
        assert!(decode < prefill / 100.0);
    }

    #[test]
    fn decode_kernel_count_equals_prefill() {
        // Eager mode launches the same ops regardless of sequence length.
        let cfg = zoo::gpt2();
        let a = build(&cfg, Phase::Prefill, 1, 512).kernel_count();
        let b = build(&cfg, Phase::DecodeStep { past_len: 128 }, 1, 512).kernel_count();
        assert_eq!(a, b);
    }

    #[test]
    fn layer_sequences_repeat_modulo_workspace_memsets() {
        // The kernel-name stream of layer 2 equals layer 3 once the
        // position-varying cuBLAS workspace memsets are removed — the
        // periodicity that proximity-score fusion depends on, plus the
        // noise that keeps mid-length chains from being spuriously
        // deterministic.
        let cfg = zoo::bert_base_uncased();
        let g = build(&cfg, Phase::Prefill, 4, 512);
        let raw: Vec<&str> = g
            .kernels_in_order()
            .iter()
            .map(|k| k.name.as_str())
            .collect();
        let emb = 9; // embedding-block kernels for BERT
        let layer = 24;
        let body = |idx: usize| -> Vec<&str> {
            raw[emb + idx * layer..emb + (idx + 1) * layer]
                .iter()
                .copied()
                .filter(|n| !n.starts_with("memset"))
                .collect()
        };
        assert_eq!(body(1), body(2));
        // But the raw streams differ (the memset moved).
        assert_ne!(
            &raw[emb + layer..emb + 2 * layer],
            &raw[emb + 2 * layer..emb + 3 * layer]
        );
    }

    #[test]
    fn bert_embedding_block_is_nine_kernels() {
        let mut cfg = zoo::bert_base_uncased();
        cfg.layers = 0;
        let g = build(&cfg, Phase::Prefill, 1, 512);
        assert_eq!(g.kernel_count(), 9);
        // XLM-R: 11 (position-id derivation instead of token types).
        let mut x = zoo::xlm_roberta_base();
        x.layers = 0;
        assert_eq!(build(&x, Phase::Prefill, 1, 512).kernel_count(), 11);
    }

    #[test]
    fn flash_attention_reduces_launches_and_bytes() {
        let flash = GraphOptions {
            attention: AttentionImpl::FlashAttention2,
        };
        for cfg in [zoo::bert_base_uncased(), zoo::gpt2(), zoo::llama32_1b()] {
            let wl = Workload::new(cfg.clone(), Phase::Prefill, 4, 512);
            let eager = wl.graph();
            let fused = wl.graph_with(flash);
            assert!(
                fused.kernel_count() < eager.kernel_count(),
                "{}: FA2 must launch fewer kernels",
                cfg.name
            );
            assert!(
                fused.total_bytes() < eager.total_bytes(),
                "{}: FA2 must move fewer bytes (IO-awareness)",
                cfg.name
            );
        }
    }

    #[test]
    fn flash_graph_contains_flash_kernel() {
        let wl = Workload::new(zoo::gpt2(), Phase::Prefill, 1, 512);
        let g = wl.graph_with(GraphOptions {
            attention: AttentionImpl::FlashAttention2,
        });
        let n = g
            .kernels_in_order()
            .iter()
            .filter(|k| k.name.starts_with("flash_fwd_kernel"))
            .count();
        assert_eq!(n, 12, "one flash kernel per layer");
    }

    #[test]
    fn op_counts_exceed_kernel_counts() {
        // Views and composites launch nothing, so ops > kernels in eager mode.
        let g = build(&zoo::gpt2(), Phase::Prefill, 1, 512);
        assert!(g.op_count() > g.kernel_count());
    }
}

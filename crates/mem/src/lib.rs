//! # skip-mem — paged KV-cache memory subsystem
//!
//! vLLM-style paged attention memory management for the serving simulator:
//! the KV cache is carved into fixed-size *blocks* of `block_tokens` token
//! slots each, and a request holds whole blocks for its cached tokens.
//! Blocks are interchangeable, so the [`BlockAllocator`] counts them: free
//! blocks, blocks per owner and the high-water mark, all integers, so
//! identical simulations replay bit-identically.
//!
//! The subsystem exists to model the paper's coupling argument on the
//! *memory* axis: when the pool is exhausted the scheduler must evict a
//! victim, and the cost of that eviction depends on the CPU-GPU coupling
//! paradigm:
//!
//! * **Recompute** — drop the victim's blocks and re-prefill its context
//!   later. Costs GPU compute, independent of the interconnect.
//! * **Swap to host** — copy the victim's KV blocks over the CPU-GPU
//!   interconnect and copy them back on resume. Cheap on closely-coupled
//!   (NVLink-C2C at 450 GB/s) and tightly-coupled (unified memory) parts,
//!   expensive over loosely-coupled PCIe.
//!
//! [`OffloadPolicy::Auto`] picks whichever is cheaper for a given victim on
//! a given interconnect, which is what produces the goodput crossover the
//! `kv_capacity` experiment in `skip-bench` demonstrates.
//!
//! # Example
//!
//! ```
//! use skip_hw::GpuModel;
//! use skip_llm::zoo;
//! use skip_mem::{BlockAllocator, KvSpec};
//!
//! let model = zoo::llama2_7b();
//! let spec = KvSpec::for_model(&model, KvSpec::DEFAULT_BLOCK_TOKENS);
//! // Llama-2-7B: 32 layers x 4096 KV width x 2 (K,V) x 2 B = 512 KiB/token.
//! assert_eq!(spec.bytes_per_token, 524_288);
//!
//! // Size the pool from what is left of an A100's HBM after the weights.
//! let gpu = GpuModel::a100_sxm4();
//! let blocks = spec.pool_blocks(&gpu, model.weight_bytes_fp16(), 0.1);
//! let mut pool = BlockAllocator::new(blocks);
//! pool.grow_to(0, 4096, &spec).unwrap();
//! assert_eq!(pool.used_blocks(), 256); // 4096 tokens / 16 per block
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod offload;
mod spec;

pub use alloc::{BlockAllocator, OutOfBlocks};
pub use offload::{swap_cost, EvictionAction, OffloadPolicy};
pub use spec::KvSpec;

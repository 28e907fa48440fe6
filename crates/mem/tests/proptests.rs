//! Property tests for the paged KV-cache allocator invariants.

use proptest::prelude::*;
use skip_mem::{BlockAllocator, KvSpec, OutOfBlocks};

/// Owners the generated operations touch: `0..OWNERS`.
const OWNERS: u64 = 8;

/// A random allocator op: grow some owner to a token count, or release it.
#[derive(Debug, Clone, Copy)]
enum Op {
    Grow { owner: u64, tokens: u64 },
    Release { owner: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u64..OWNERS, 0u64..600, 0u32..4).prop_map(|(owner, tokens, kind)| {
        if kind == 0 {
            Op::Release { owner }
        } else {
            Op::Grow { owner, tokens }
        }
    })
}

fn apply(pool: &mut BlockAllocator, spec: &KvSpec, ops: &[Op]) {
    for &op in ops {
        match op {
            Op::Grow { owner, tokens } => {
                let _ = pool.grow_to(owner, tokens, spec);
            }
            Op::Release { owner } => {
                pool.release(owner);
            }
        }
    }
}

/// Reference model of the pool: the most tokens each owner was granted
/// since its last release. An owner holds exactly the blocks that cover it.
#[derive(Default)]
struct Model {
    granted: [u64; OWNERS as usize],
}

impl Model {
    fn held(&self, spec: &KvSpec, owner: u64) -> u32 {
        spec.blocks_for(self.granted[owner as usize])
    }
}

proptest! {
    /// allocated + free == total after every operation, for any sequence.
    #[test]
    fn accounting_identity(
        total in 1u32..64,
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let spec = KvSpec { bytes_per_token: 1024, block_tokens: 16 };
        let mut pool = BlockAllocator::new(total);
        for &op in &ops {
            match op {
                Op::Grow { owner, tokens } => { let _ = pool.grow_to(owner, tokens, &spec); }
                Op::Release { owner } => { pool.release(owner); }
            }
            prop_assert_eq!(pool.used_blocks() + pool.free_blocks(), pool.total_blocks());
        }
    }

    /// After every operation each owner holds `blocks_for` its largest
    /// grant since its last release, the holdings sum to the used-block
    /// counter, and a grow fails exactly when the model's deficit exceeds
    /// the free blocks.
    #[test]
    fn held_blocks_match_reference_model(
        total in 1u32..64,
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let spec = KvSpec { bytes_per_token: 1024, block_tokens: 16 };
        let mut pool = BlockAllocator::new(total);
        let mut model = Model::default();
        for &op in &ops {
            match op {
                Op::Grow { owner, tokens } => {
                    let deficit = spec.blocks_for(tokens).saturating_sub(model.held(&spec, owner));
                    let free = pool.free_blocks();
                    match pool.grow_to(owner, tokens, &spec) {
                        Ok(added) => {
                            prop_assert!(deficit <= free);
                            prop_assert_eq!(added, deficit);
                            let g = &mut model.granted[owner as usize];
                            *g = (*g).max(tokens);
                        }
                        Err(e) => {
                            prop_assert!(deficit > free);
                            prop_assert_eq!(e, OutOfBlocks { needed: deficit, free });
                        }
                    }
                }
                Op::Release { owner } => {
                    prop_assert_eq!(pool.release(owner), model.held(&spec, owner));
                    model.granted[owner as usize] = 0;
                }
            }
            let mut held = 0;
            for owner in 0..OWNERS {
                prop_assert_eq!(pool.held_blocks(owner), model.held(&spec, owner));
                held += pool.held_blocks(owner);
            }
            prop_assert_eq!(held, pool.used_blocks());
            prop_assert!(pool.peak_used_blocks() >= pool.used_blocks());
        }
    }

    /// Replaying the same operation sequence on two pools yields identical
    /// states: the pool is integer counts, never hash-ordered.
    #[test]
    fn replay_is_deterministic(
        total in 1u32..64,
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let spec = KvSpec { bytes_per_token: 1024, block_tokens: 16 };
        let mut a = BlockAllocator::new(total);
        let mut b = BlockAllocator::new(total);
        apply(&mut a, &spec, &ops);
        apply(&mut b, &spec, &ops);
        prop_assert_eq!(a, b);
    }

    /// grow + release round-trips: releasing every owner frees the whole
    /// pool, which one owner can then take in full.
    #[test]
    fn full_release_restores_free_pool(
        total in 1u32..64,
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let spec = KvSpec { bytes_per_token: 1024, block_tokens: 16 };
        let mut pool = BlockAllocator::new(total);
        apply(&mut pool, &spec, &ops);
        for owner in 0..OWNERS {
            pool.release(owner);
        }
        prop_assert_eq!(pool.free_blocks(), total);
        prop_assert_eq!(pool.used_blocks(), 0);
        let whole_pool = u64::from(total) * u64::from(spec.block_tokens);
        prop_assert_eq!(pool.grow_to(42, whole_pool, &spec), Ok(total));
    }

    /// Failed grows are all-or-nothing: a rejected reservation never
    /// changes ownership.
    #[test]
    fn failed_grow_is_atomic(
        total in 1u32..16,
        tokens in 0u64..2_000,
    ) {
        let spec = KvSpec { bytes_per_token: 1024, block_tokens: 16 };
        let mut pool = BlockAllocator::new(total);
        let before = pool.clone();
        match pool.grow_to(0, tokens, &spec) {
            Ok(added) => prop_assert_eq!(pool.free_blocks(), before.free_blocks() - added),
            Err(e) => {
                prop_assert_eq!(&pool, &before);
                prop_assert_eq!(pool.held_blocks(0), 0);
                prop_assert!(e.needed > e.free);
            }
        }
    }
}

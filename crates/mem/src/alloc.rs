//! Deterministic paged block pool that counts the blocks each owner holds.

use std::collections::BTreeMap;
use std::fmt;

use crate::spec::KvSpec;

/// Error returned when a reservation cannot be satisfied.
///
/// The allocation is all-or-nothing: on failure the allocator state is
/// unchanged, so the caller can evict a victim and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBlocks {
    /// Blocks the reservation still needed.
    pub needed: u32,
    /// Blocks that were actually free.
    pub free: u32,
}

impl fmt::Display for OutOfBlocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KV pool exhausted: need {} more blocks, {} free",
            self.needed, self.free
        )
    }
}

impl std::error::Error for OutOfBlocks {}

/// A fixed pool of interchangeable KV blocks, counted per owner.
///
/// Every admission, preemption and resume decision reads only how many
/// blocks are free and how many a request holds, so the pool keeps those
/// counts and never names a block.
///
/// Invariants (checked by the property suite in `tests/proptests.rs`):
///
/// * `used_blocks() + free_blocks() == total_blocks()` at all times.
/// * The owners' held blocks sum to `used_blocks()`.
/// * An owner holds `blocks_for` the most tokens it was granted since its
///   last release.
///
/// # Example
///
/// ```
/// use skip_llm::zoo;
/// use skip_mem::{BlockAllocator, KvSpec};
///
/// let spec = KvSpec::for_model(&zoo::llama2_7b(), 16);
/// let mut pool = BlockAllocator::new(8);
/// pool.grow_to(1, 100, &spec).unwrap(); // 100 tokens -> 7 blocks
/// assert_eq!(pool.held_blocks(1), 7);
/// assert!(pool.grow_to(2, 100, &spec).is_err()); // only 1 block left
/// pool.release(1);
/// assert_eq!(pool.free_blocks(), 8);
/// assert_eq!(pool.peak_used_blocks(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockAllocator {
    total: u32,
    free: u32,
    peak_used: u32,
    /// Blocks held per owner; an owner holding none has no entry.
    held: BTreeMap<u64, u32>,
}

impl BlockAllocator {
    /// Creates a pool of `total` free blocks.
    #[must_use]
    pub fn new(total: u32) -> Self {
        BlockAllocator {
            total,
            free: total,
            peak_used: 0,
            held: BTreeMap::new(),
        }
    }

    /// Total blocks in the pool.
    #[must_use]
    pub fn total_blocks(&self) -> u32 {
        self.total
    }

    /// Blocks currently unowned.
    #[must_use]
    pub fn free_blocks(&self) -> u32 {
        self.free
    }

    /// Blocks currently owned by some request.
    #[must_use]
    pub fn used_blocks(&self) -> u32 {
        self.total - self.free
    }

    /// Blocks `owner` holds (zero if it holds no reservation).
    #[must_use]
    pub fn held_blocks(&self, owner: u64) -> u32 {
        self.held.get(&owner).copied().unwrap_or(0)
    }

    /// High-water mark of [`used_blocks`](Self::used_blocks).
    #[must_use]
    pub fn peak_used_blocks(&self) -> u32 {
        self.peak_used
    }

    /// Whether `blocks` more blocks could be reserved right now.
    #[must_use]
    pub fn can_reserve(&self, blocks: u32) -> bool {
        blocks <= self.free
    }

    /// Grows `owner`'s reservation until it covers `tokens` cached tokens,
    /// returning how many new blocks were allocated (possibly zero).
    ///
    /// All-or-nothing: if the pool cannot supply the full deficit, nothing
    /// is allocated and the allocator is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfBlocks`] when the free pool is smaller than the
    /// deficit.
    pub fn grow_to(&mut self, owner: u64, tokens: u64, spec: &KvSpec) -> Result<u32, OutOfBlocks> {
        let needed_blocks = spec.blocks_for(tokens);
        let held = self.held_blocks(owner);
        if needed_blocks <= held {
            return Ok(0);
        }
        let deficit = needed_blocks - held;
        if deficit > self.free {
            return Err(OutOfBlocks {
                needed: deficit,
                free: self.free,
            });
        }
        self.held.insert(owner, needed_blocks);
        self.free -= deficit;
        self.peak_used = self.peak_used.max(self.used_blocks());
        Ok(deficit)
    }

    /// Releases every block owned by `owner`, returning how many were
    /// freed (zero if `owner` held nothing).
    pub fn release(&mut self, owner: u64) -> u32 {
        let n = self.held.remove(&owner).unwrap_or(0);
        self.free += n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skip_llm::zoo;

    fn spec() -> KvSpec {
        KvSpec::for_model(&zoo::llama2_7b(), 16)
    }

    #[test]
    fn grow_holds_whole_blocks_per_owner() {
        let s = spec();
        let mut pool = BlockAllocator::new(10);
        assert_eq!(pool.grow_to(7, 33, &s).unwrap(), 3);
        assert_eq!(pool.grow_to(8, 1, &s).unwrap(), 1);
        assert_eq!((pool.held_blocks(7), pool.held_blocks(8)), (3, 1));
        assert_eq!(pool.held_blocks(9), 0);
        assert_eq!(pool.used_blocks(), 4);
    }

    #[test]
    fn released_blocks_return_to_the_free_count() {
        let s = spec();
        let mut pool = BlockAllocator::new(5);
        pool.grow_to(1, 32, &s).unwrap(); // 2 blocks
        pool.grow_to(2, 32, &s).unwrap(); // 2 blocks
        assert!(pool.grow_to(3, 48, &s).is_err()); // needs 3, 1 free
        assert_eq!(pool.release(1), 2);
        assert_eq!(pool.grow_to(3, 48, &s).unwrap(), 3);
        assert_eq!(pool.free_blocks(), 0);
        assert_eq!(pool.release(1), 0);
    }

    #[test]
    fn grow_is_idempotent_within_capacity() {
        let s = spec();
        let mut pool = BlockAllocator::new(10);
        assert_eq!(pool.grow_to(1, 20, &s).unwrap(), 2);
        assert_eq!(pool.grow_to(1, 25, &s).unwrap(), 0); // still fits in 2
        assert_eq!(pool.grow_to(1, 33, &s).unwrap(), 1); // third block
        assert_eq!(pool.grow_to(1, 10, &s).unwrap(), 0); // never shrinks
        assert_eq!(pool.held_blocks(1), 3);
    }

    #[test]
    fn failed_grow_leaves_state_unchanged() {
        let s = spec();
        let mut pool = BlockAllocator::new(4);
        pool.grow_to(1, 48, &s).unwrap(); // 3 of 4 blocks
        let before = pool.clone();
        let err = pool.grow_to(2, 40, &s).unwrap_err(); // needs 3, 1 free
        assert_eq!(err, OutOfBlocks { needed: 3, free: 1 });
        assert_eq!(pool, before);
    }

    #[test]
    fn accounting_identity_holds() {
        let s = spec();
        let mut pool = BlockAllocator::new(16);
        pool.grow_to(1, 100, &s).unwrap();
        pool.grow_to(2, 50, &s).unwrap();
        pool.release(1);
        assert_eq!(pool.used_blocks() + pool.free_blocks(), pool.total_blocks());
        assert_eq!(pool.release(99), 0);
    }

    #[test]
    fn peak_occupancy_tracks_high_water() {
        let s = spec();
        let mut pool = BlockAllocator::new(8);
        pool.grow_to(1, 96, &s).unwrap(); // 6 blocks
        pool.release(1);
        pool.grow_to(2, 16, &s).unwrap(); // 1 block
        assert_eq!(pool.peak_used_blocks(), 6);
        assert_eq!(pool.used_blocks(), 1);
    }
}

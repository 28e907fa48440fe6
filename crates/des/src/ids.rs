//! Monotone ID allocation.

use serde::{Deserialize, Serialize};

/// Allocates monotonically increasing `u64` identifiers starting from an
/// arbitrary base.
///
/// Used across the stack for CUDA-style correlation IDs, operator IDs and
/// event IDs. A plain counter rather than randomness keeps traces
/// deterministic.
///
/// # Example
///
/// ```
/// use skip_des::IdAllocator;
///
/// let mut ids = IdAllocator::starting_at(100);
/// assert_eq!(ids.next_id(), 100);
/// assert_eq!(ids.next_id(), 101);
/// assert_eq!(ids.peek(), 102);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    /// Creates an allocator starting at zero.
    #[must_use]
    pub fn new() -> Self {
        IdAllocator::default()
    }

    /// Creates an allocator whose first ID is `base`.
    #[must_use]
    pub fn starting_at(base: u64) -> Self {
        IdAllocator { next: base }
    }

    /// Returns the next ID and advances the counter.
    ///
    /// # Panics
    ///
    /// Panics on counter overflow (after 2^64 allocations).
    pub fn next_id(&mut self) -> u64 {
        let id = self.next;
        self.next = self.next.checked_add(1).expect("IdAllocator overflow");
        id
    }

    /// The ID that the next call to [`next_id`](Self::next_id) will return.
    #[must_use]
    pub fn peek(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential_and_unique() {
        let mut a = IdAllocator::new();
        let ids: Vec<u64> = (0..5).map(|_| a.next_id()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn starting_at_offsets_base() {
        let mut a = IdAllocator::starting_at(7);
        assert_eq!(a.next_id(), 7);
        assert_eq!(a.peek(), 8);
    }
}

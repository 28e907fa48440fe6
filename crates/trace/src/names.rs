//! The [`NameTable`] string interner backing event names.
//!
//! A trace records the same handful of names (`"cudaLaunchKernel"`,
//! `"aten::linear"`, a few dozen kernel shapes) hundreds of thousands of
//! times. Storing a [`NameId`] per event instead of a `String` keeps events
//! `Copy`-cheap and keeps the simulator's hot path free of per-event heap
//! allocations; the table resolves ids back to `&str` at serialization
//! boundaries only.
//!
//! Ids are assigned in insertion order and are stable for the lifetime of
//! the table, so serializing the table as its ordered name list and
//! re-interning on deserialization reproduces the identical id assignment.
//! The reverse index hashes with [`NameHasher`], not the default SipHash:
//! the engine interns a name per event, and SipHash there would be the
//! largest single cost of recording a trace.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::ids::NameId;

/// An insertion-ordered string interner: `NameId` ↔ `&str`.
///
/// # Example
///
/// ```
/// use skip_trace::NameTable;
///
/// let mut t = NameTable::new();
/// let a = t.intern("aten::linear");
/// let b = t.intern("gemm");
/// assert_eq!(t.intern("aten::linear"), a, "re-interning is idempotent");
/// assert_eq!(t.resolve(a), "aten::linear");
/// assert_eq!(t.resolve(b), "gemm");
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    /// Names in insertion (= id) order.
    names: Vec<String>,
    /// Reverse lookup; rebuilt on deserialization.
    index: HashMap<String, u32, NameHashKey>,
}

/// A multiply-fold hash over 8-byte words: one multiply per word, where
/// SipHash runs several mixing rounds. Folding the 128-bit product
/// spreads every input bit over the whole state, and each table draws its
/// own random key, so a crafted imported trace cannot precompute names that
/// collide. Only the reverse index sees hash values; ids never depend on
/// them.
struct NameHasher(u64);

impl NameHasher {
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x5851_f42d_4c95_7f2d;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.mix(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.mix(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One table's [`NameHasher`] key, drawn from the standard library's
/// random source.
#[derive(Debug, Clone, Copy)]
struct NameHashKey(u64);

impl Default for NameHashKey {
    fn default() -> Self {
        NameHashKey(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for NameHashKey {
    type Hasher = NameHasher;

    fn build_hasher(&self) -> NameHasher {
        NameHasher(self.0)
    }
}

impl NameTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        NameTable::default()
    }

    /// Interns `name`, returning its stable id. Idempotent; allocates only
    /// on first sight of a name.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct names are interned.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&raw) = self.index.get(name) {
            return NameId::new(raw);
        }
        let raw = u32::try_from(self.names.len()).expect("name table overflow");
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), raw);
        NameId::new(raw)
    }

    /// The id of `name`, if it has been interned.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<NameId> {
        self.index.get(name).copied().map(NameId::new)
    }

    /// Resolves `id` back to its name.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    #[must_use]
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.get() as usize]
    }

    /// Resolves `id`, returning `None` for foreign ids.
    #[must_use]
    pub fn get(&self, id: NameId) -> Option<&str> {
        self.names.get(id.get() as usize).map(String::as_str)
    }

    /// Number of distinct interned names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if no names have been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (NameId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (NameId::new(i as u32), n.as_str()))
    }
}

/// Tables are equal when they intern the same names in the same order
/// (the reverse index is derived state).
impl PartialEq for NameTable {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}

impl Eq for NameTable {}

/// Serializes as the ordered name list; ids are implicit in the order.
impl Serialize for NameTable {
    fn to_value(&self) -> Value {
        Value::Seq(self.names.iter().map(|n| Value::Str(n.clone())).collect())
    }
}

impl<'de> Deserialize<'de> for NameTable {
    fn from_value(value: &'de Value) -> Result<Self, DeError> {
        let seq = value
            .as_seq()
            .ok_or_else(|| DeError::custom("expected a name-table array"))?;
        let mut table = NameTable::new();
        for v in seq {
            let name = v
                .as_str()
                .ok_or_else(|| DeError::custom("expected a name string"))?;
            table.intern(name);
        }
        if table.len() != seq.len() {
            return Err(DeError::custom("duplicate name in name table"));
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_insertion_order() {
        let mut t = NameTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let a2 = t.intern("a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.get(), 0);
        assert_eq!(b.get(), 1);
        assert_eq!(t.lookup("b"), Some(b));
        assert_eq!(t.lookup("missing"), None);
        assert_eq!(t.get(NameId::new(99)), None);
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(a, "a"), (b, "b")]);
    }

    /// Names that share long prefixes, differ only in length or padding,
    /// or are empty still get distinct ids in insertion order.
    #[test]
    fn similar_names_intern_to_distinct_insertion_order_ids() {
        let names: Vec<String> = (0..5_000)
            .map(|i| format!("xmma_gemm_f16_{i}x768x768"))
            .chain(["ab", "ab\0", "ab\0\0\0\0\0\0", ""].map(String::from))
            .collect();
        let mut t = NameTable::new();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(t.intern(n), NameId::new(i as u32), "{n:?}");
        }
        for (i, n) in names.iter().enumerate() {
            assert_eq!(t.lookup(n), Some(NameId::new(i as u32)), "{n:?}");
            assert_eq!(t.intern(n), NameId::new(i as u32), "{n:?}");
        }
        assert_eq!(t.len(), names.len());
    }

    #[test]
    fn serde_round_trip_preserves_id_assignment() {
        let mut t = NameTable::new();
        for n in ["cudaLaunchKernel", "aten::linear", "gemm", "aten::linear"] {
            t.intern(n);
        }
        let v = t.to_value();
        let back = NameTable::from_value(&v).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.lookup("gemm"), Some(NameId::new(2)));
    }

    #[test]
    fn deserialization_rejects_non_lists_and_duplicates() {
        assert!(NameTable::from_value(&Value::Str("x".into())).is_err());
        let dup = Value::Seq(vec![Value::Str("a".into()), Value::Str("a".into())]);
        assert!(NameTable::from_value(&dup).is_err());
        let non_str = Value::Seq(vec![Value::U64(3)]);
        assert!(NameTable::from_value(&non_str).is_err());
    }

    #[test]
    fn equality_ignores_the_reverse_index() {
        let mut a = NameTable::new();
        a.intern("x");
        let mut b = NameTable::new();
        b.intern("x");
        assert_eq!(a, b);
        b.intern("y");
        assert_ne!(a, b);
    }
}

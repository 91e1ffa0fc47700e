//! An Fx-style hasher: one xor and one multiply per word, no per-process key.
//!
//! FxHash is what rustc hashes its own interners with, and several times
//! cheaper than the standard library's SipHash on the short keys this
//! workspace hashes by the million: terms while loading a store, `TermId`s
//! and id rows while evaluating a query, observation nodes while building a
//! cube. One step differs from rustc's: the multiply is *folded* — the two
//! halves of the 128-bit product are xored — because a plain 64-bit
//! multiply only carries upward, and IRIs that differ in their last few
//! bytes (`…/obs/1234`, `…/obs/1243`) then collide in all 64 bits. The
//! interner ([`crate::Interner`]) feeds it a term's kind and the bytes of
//! its strings and keeps the high 32 bits of the result beside each id in
//! its table.
//!
//! The hasher has no key, so keys crafted to collide make a table
//! quadratic. Use it only where the keys are loaded data or ids this
//! program assigned — never for values a request chooses (a query's
//! constants stay on SipHash: see ARCHITECTURE.md § "The triple store").

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// rustc-hash's multiplier.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, unkeyed hasher for loaded data and assigned ids.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word) * u128::from(SEED);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(
                word.try_into().expect("an 8-byte chunk"),
            ));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // At most seven bytes: the length goes in the free top byte, so
            // `b"a"` and `b"a\0"` do not collide.
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(value: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_near_keys_apart() {
        assert_eq!(
            hash("http://example.org/obs/1"),
            hash("http://example.org/obs/1")
        );
        let near: FxHashSet<u64> = (0..10_000)
            .map(|i| hash(format!("http://example.org/obs/{i}")))
            .collect();
        assert_eq!(
            near.len(),
            10_000,
            "no collisions among near-identical IRIs"
        );
        // A short tail is not confused with the same bytes zero-padded.
        let write = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(write(b"a\0"), write(b"a"));
        let ids: FxHashSet<u64> = (0..10_000u32).map(hash).collect();
        assert_eq!(ids.len(), 10_000);
    }
}

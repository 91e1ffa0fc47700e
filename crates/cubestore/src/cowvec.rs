//! A segmented, copy-on-write growable vector — the storage behind every
//! fact column of a [`MaterializedCube`](crate::MaterializedCube).
//!
//! The serving layer refreshes a cube by cloning it and replaying a delta
//! onto the clone ([`crate::MaterializedCube::apply_delta`]). With plain
//! `Vec` columns that
//! clone is O(rows) *per refresh*, even for a 1-row append. A [`CowVec`]
//! makes the clone O(segments) instead: elements live in immutable,
//! `Arc`-shared segments of [`SEGMENT_LEN`] elements plus one mutable tail,
//! so a clone bumps one reference count per sealed segment and copies only
//! the tail (< [`SEGMENT_LEN`] elements). Appending seals the tail into a
//! new shared segment whenever it fills up, so repeated
//! clone-append-publish cycles — the catalog's refresh loop — copy a
//! bounded amount of data no matter how large the cube has grown.
//!
//! Random access stays O(1): every sealed segment holds exactly
//! [`SEGMENT_LEN`] elements (a power of two), so indexing is a shift and a
//! mask, no search.

use std::sync::Arc;

/// log2 of [`SEGMENT_LEN`].
const SEGMENT_BITS: usize = 12;

/// Elements per sealed segment (4096). Power of two so [`CowVec::get`]
/// compiles to shift + mask. Small enough that the per-clone tail copy is
/// negligible, large enough that an 80k-row cube is ~20 segments.
pub const SEGMENT_LEN: usize = 1 << SEGMENT_BITS;

const SEGMENT_MASK: usize = SEGMENT_LEN - 1;

/// A growable vector whose clones share all sealed segments.
///
/// Invariant: every element of `segments` holds exactly [`SEGMENT_LEN`]
/// elements; `tail` holds the remaining `len % SEGMENT_LEN`.
#[derive(Debug, Clone)]
pub struct CowVec<T> {
    segments: Vec<Arc<Vec<T>>>,
    tail: Vec<T>,
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec {
            segments: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T> CowVec<T> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        (self.segments.len() << SEGMENT_BITS) + self.tail.len()
    }

    /// True if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty() && self.tail.is_empty()
    }

    /// The element at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> &T {
        let segment = index >> SEGMENT_BITS;
        if segment < self.segments.len() {
            &self.segments[segment][index & SEGMENT_MASK]
        } else {
            &self.tail[index - (self.segments.len() << SEGMENT_BITS)]
        }
    }

    /// Appends one element, sealing the tail into a shared segment when it
    /// reaches [`SEGMENT_LEN`].
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() == SEGMENT_LEN {
            self.segments.push(Arc::new(std::mem::take(&mut self.tail)));
        }
    }

    /// Iterates over the elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.segments
            .iter()
            .flat_map(|segment| segment.iter())
            .chain(self.tail.iter())
    }

    /// Builds a vector from a plain `Vec`, sealing full segments.
    pub fn from_vec(values: Vec<T>) -> Self {
        let mut out = CowVec::new();
        let mut values = values.into_iter();
        loop {
            let chunk: Vec<T> = values.by_ref().take(SEGMENT_LEN).collect();
            if chunk.len() == SEGMENT_LEN {
                out.segments.push(Arc::new(chunk));
            } else {
                out.tail = chunk;
                return out;
            }
        }
    }

    /// Number of sealed (shared) segments — exposed so the maintenance
    /// experiments can show clone cost is O(segments), not O(rows).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The contiguous elements of `segment`: a sealed segment's full
    /// [`SEGMENT_LEN`] elements, or the (possibly shorter) tail for
    /// `segment == segment_count()`. Lets segment-granular consumers (zone
    /// building, segment scans) read a whole segment as one slice instead
    /// of [`SEGMENT_LEN`] `get` calls.
    ///
    /// # Panics
    /// Panics if `segment > segment_count()`, or if it names an empty tail.
    #[inline]
    pub fn segment_slice(&self, segment: usize) -> &[T] {
        if segment < self.segments.len() {
            &self.segments[segment]
        } else {
            assert!(
                segment == self.segments.len() && !self.tail.is_empty(),
                "segment {segment} out of range"
            );
            &self.tail
        }
    }
}

impl<T> FromIterator<T> for CowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = CowVec::new();
        for value in iter {
            out.push(value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_len_roundtrip_across_segment_boundaries() {
        let mut v: CowVec<usize> = CowVec::new();
        assert!(v.is_empty());
        let n = SEGMENT_LEN * 2 + 17;
        for i in 0..n {
            v.push(i);
        }
        assert_eq!(v.len(), n);
        assert_eq!(v.segment_count(), 2);
        assert!(!v.is_empty());
        for i in (0..n).step_by(997) {
            assert_eq!(*v.get(i), i);
        }
        assert_eq!(*v.get(n - 1), n - 1);
        let collected: Vec<usize> = v.iter().copied().collect();
        assert_eq!(collected.len(), n);
        assert!(collected.iter().enumerate().all(|(i, &x)| i == x));
    }

    #[test]
    fn from_vec_matches_push() {
        let n = SEGMENT_LEN + 3;
        let pushed: CowVec<usize> = (0..n).collect();
        let converted = CowVec::from_vec((0..n).collect());
        assert_eq!(pushed.len(), converted.len());
        assert_eq!(pushed.segment_count(), converted.segment_count());
        assert!(pushed.iter().zip(converted.iter()).all(|(a, b)| a == b));
        // Exactly one full segment converts with an empty tail.
        let exact = CowVec::from_vec((0..SEGMENT_LEN).collect::<Vec<usize>>());
        assert_eq!(exact.len(), SEGMENT_LEN);
        assert_eq!(exact.segment_count(), 1);
    }

    #[test]
    fn clones_share_sealed_segments() {
        let n = SEGMENT_LEN * 3 + 5;
        let original: CowVec<u64> = (0..n as u64).collect();
        let mut clone = original.clone();
        for (a, b) in original.segments.iter().zip(&clone.segments) {
            assert!(Arc::ptr_eq(a, b), "sealed segments are shared, not copied");
        }
        // Appending to the clone leaves the original untouched.
        clone.push(999);
        assert_eq!(clone.len(), n + 1);
        assert_eq!(original.len(), n);
        assert_eq!(*clone.get(n), 999);
    }

    #[test]
    fn segment_slice_views_sealed_segments_and_the_tail() {
        let n = SEGMENT_LEN + 5;
        let v: CowVec<usize> = (0..n).collect();
        assert_eq!(v.segment_slice(0).len(), SEGMENT_LEN);
        assert_eq!(v.segment_slice(0)[17], 17);
        assert_eq!(
            v.segment_slice(1),
            &[
                SEGMENT_LEN,
                SEGMENT_LEN + 1,
                SEGMENT_LEN + 2,
                SEGMENT_LEN + 3,
                SEGMENT_LEN + 4
            ]
        );
    }

    #[test]
    #[should_panic]
    fn segment_slice_past_the_tail_panics() {
        let v: CowVec<u32> = (0..10).collect();
        v.segment_slice(1);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_get_panics() {
        let v: CowVec<u32> = (0..10).collect();
        v.get(10);
    }
}

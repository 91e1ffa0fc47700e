//! The observation → fact-row index, layered for copy-on-write refreshes.
//!
//! Incremental maintenance needs to know, for every materialized
//! observation node, which fact row it occupies (to detect mutations of
//! already-materialized data and to resolve removals to a tombstone row).
//! A plain `HashMap<Term, usize>` would make every delta refresh clone the
//! whole map — O(rows) `Term` clones for a 1-row append. Instead the index
//! is layered: a large, `Arc`-shared **base** plus a small mutable
//! **overlay** recording the rows appended (and the nodes removed) since
//! the last merge. A clone shares the base and copies only the overlay;
//! an index whose base nobody shares (a build's) writes straight into it.
//! Each replay ends with one merge check: an overlay that outgrew a
//! fraction of the base is merged down once — amortized O(delta) per
//! refresh.

use std::sync::Arc;

use rdf::hash::FxHashMap;
use rdf::Term;

/// Overlay entries per base entry tolerated before a merge (1/8th), so
/// lookup stays two probes and the amortized merge cost per appended row
/// is O(1).
const MERGE_DENOMINATOR: usize = 8;

/// Overlay size below which no merge happens regardless of the ratio.
const MERGE_MINIMUM: usize = 64;

/// A layered observation → row map with cheap clones.
#[derive(Debug, Clone, Default)]
pub struct ObservationIndex {
    /// The shared bulk of the index.
    pub(crate) base: Arc<FxHashMap<Term, usize>>,
    /// Recent changes: `Some(row)` = inserted/overridden, `None` = removed.
    pub(crate) overlay: FxHashMap<Term, Option<usize>>,
    /// Number of live entries across both layers.
    live: usize,
}

impl ObservationIndex {
    /// The fact row of an observation node, if it is materialized (and not
    /// removed).
    pub fn row_of(&self, node: &Term) -> Option<usize> {
        match self.overlay.get(node) {
            Some(entry) => *entry,
            None => self.base.get(node).copied(),
        }
    }

    /// True if `node` is a live materialized observation.
    pub fn contains(&self, node: &Term) -> bool {
        self.row_of(node).is_some()
    }

    /// Number of live observations.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no observation is materialized.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Records that `node` occupies fact row `row`: in the base while no
    /// clone shares it and the overlay shadows nothing — one probe, whose
    /// result says whether the node is new — else in the overlay.
    pub fn insert(&mut self, node: Term, row: usize) {
        if let Some(base) = Arc::get_mut(&mut self.base).filter(|_| self.overlay.is_empty()) {
            if base.insert(node, row).is_none() {
                self.live += 1;
            }
            return;
        }
        if self.row_of(&node).is_none() {
            self.live += 1;
        }
        self.overlay.insert(node, Some(row));
    }

    /// Makes room for `additional` rows in a base nobody shares, the one
    /// [`Self::insert`] writes through to (a build's).
    pub fn reserve(&mut self, additional: usize) {
        if let Some(base) = Arc::get_mut(&mut self.base).filter(|_| self.overlay.is_empty()) {
            base.reserve(additional);
        }
    }

    /// Removes `node` from the index (its row was tombstoned). Returns the
    /// row it occupied.
    pub fn remove(&mut self, node: &Term) -> Option<usize> {
        let row = self.row_of(node)?;
        self.live -= 1;
        if self.base.contains_key(node) {
            self.overlay.insert(node.clone(), None);
        } else {
            self.overlay.remove(node);
        }
        Some(row)
    }

    /// Merges the overlay into the base once it outgrows the ratio — one
    /// O(rows) rebuild amortized over many O(delta) refreshes. Called once
    /// at the end of each replay, not per change.
    pub fn merge_if_outgrown(&mut self) {
        if self.overlay.len() < MERGE_MINIMUM
            || self.overlay.len() * MERGE_DENOMINATOR < self.base.len()
        {
            return;
        }
        let mut merged = FxHashMap::with_capacity_and_hasher(self.live, Default::default());
        for (node, row) in self.base.iter() {
            if !self.overlay.contains_key(node) {
                merged.insert(node.clone(), *row);
            }
        }
        for (node, entry) in self.overlay.drain() {
            if let Some(row) = entry {
                merged.insert(node, row);
            }
        }
        self.base = Arc::new(merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: usize) -> Term {
        Term::iri(format!("http://example.org/obs/{i}"))
    }

    /// An index over rows `0..rows`, inserted into an empty index as a
    /// build inserts them.
    fn built(rows: usize) -> ObservationIndex {
        let mut index = ObservationIndex::default();
        for i in 0..rows {
            index.insert(node(i), i);
        }
        assert!(index.overlay.is_empty(), "an unshared base takes every row");
        index
    }

    #[test]
    fn layered_insert_remove_lookup() {
        let mut index = built(10);
        // A clone shares the base, so changes land in the overlay.
        let shared = index.clone();
        assert_eq!(index.len(), 10);
        assert_eq!(index.row_of(&node(3)), Some(3));

        index.insert(node(100), 10);
        assert_eq!(index.len(), 11);
        assert!(index.contains(&node(100)));

        // Removing a base entry shadows it; removing an overlay entry
        // drops it outright.
        assert_eq!(index.remove(&node(3)), Some(3));
        assert_eq!(index.remove(&node(100)), Some(10));
        assert_eq!(index.len(), 9);
        assert!(!index.contains(&node(3)));
        assert!(!index.contains(&node(100)));
        assert_eq!(index.remove(&node(3)), None, "double remove");
        assert!(!index.is_empty());
        assert_eq!((shared.len(), shared.row_of(&node(3))), (10, Some(3)));
        assert!(!shared.contains(&node(100)));
    }

    #[test]
    fn re_inserting_a_node_keeps_the_live_count() {
        // In an unshared base (one probe per insert) and in the overlay.
        let mut index = built(4);
        index.insert(node(2), 7);
        assert_eq!((index.len(), index.row_of(&node(2))), (4, Some(7)));
        let shared = index.clone();
        index.insert(node(3), 8);
        index.insert(node(9), 9);
        index.insert(node(9), 10);
        assert_eq!((index.len(), index.row_of(&node(9))), (5, Some(10)));
        assert_eq!((shared.len(), shared.row_of(&node(3))), (4, Some(3)));
    }

    #[test]
    fn clones_share_the_base() {
        let mut index = built(100);
        let clone = index.clone();
        assert!(Arc::ptr_eq(&index.base, &clone.base));
        index.insert(node(500), 100);
        index.merge_if_outgrown();
        assert!(
            Arc::ptr_eq(&index.base, &clone.base),
            "small overlay growth does not clone the base"
        );
        assert!(!clone.contains(&node(500)));
    }

    #[test]
    fn overlay_merges_down_when_it_outgrows_the_ratio() {
        let mut index = built(64);
        index.remove(&node(0));
        for i in 0..80 {
            index.insert(node(1000 + i), 64 + i);
        }
        assert_eq!(index.overlay.len(), 81, "no merge before the check");
        index.merge_if_outgrown();
        // Removal-only streams merge too (removal-heavy delta sequences
        // must not accumulate an O(removals) overlay between compactions).
        let mut removals = built(512);
        for i in 0..200 {
            removals.remove(&node(i));
        }
        removals.merge_if_outgrown();
        assert!(
            removals.overlay.is_empty(),
            "removals merged down (len {})",
            removals.overlay.len()
        );
        assert_eq!(removals.len(), 312);
        assert!(!removals.contains(&node(5)));
        assert!(removals.contains(&node(300)));
        assert!(
            index.overlay.is_empty(),
            "overlay merged into the base after outgrowing it (len {})",
            index.overlay.len()
        );
        assert_eq!(index.base.len(), 143, "base absorbed the merged entries");
        assert_eq!(index.len(), 64 - 1 + 80);
        assert!(!index.contains(&node(0)), "removal survives the merge");
        assert_eq!(index.row_of(&node(1079)), Some(64 + 79));
        assert_eq!(index.row_of(&node(5)), Some(5));
    }
}

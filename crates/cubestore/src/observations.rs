//! The observation → fact-row index, layered for copy-on-write refreshes.
//!
//! Incremental maintenance needs to know, for every materialized
//! observation node, which fact row it occupies (to detect mutations of
//! already-materialized data and to resolve removals to a tombstone row).
//! A plain `HashMap<Term, usize>` would make every delta refresh clone the
//! whole map — O(rows) `Term` clones for a 1-row append. Instead the index
//! is layered: a large, `Arc`-shared **base** built at materialization
//! time, plus a small mutable **overlay** recording the rows appended (and
//! the nodes removed) since. A clone shares the base and copies only the
//! overlay; when the overlay outgrows a fraction of the base, it is merged
//! down once — amortized O(delta) per refresh.

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
    base: Arc<FxHashMap<Term, usize>>,
    /// Recent changes: `Some(row)` = inserted/overridden, `None` = removed.
    overlay: FxHashMap<Term, Option<usize>>,
    /// Number of live entries across both layers.
    live: usize,
}

impl ObservationIndex {
    /// Creates an index over the rows assigned at build time.
    pub fn from_map(base: FxHashMap<Term, usize>) -> Self {
        let live = base.len();
        ObservationIndex {
            base: Arc::new(base),
            overlay: FxHashMap::default(),
            live,
        }
    }

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

    /// Records that `node` occupies fact row `row`.
    pub fn insert(&mut self, node: Term, row: usize) {
        if self.row_of(&node).is_none() {
            self.live += 1;
        }
        self.overlay.insert(node, Some(row));
        self.maybe_merge();
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
        self.maybe_merge();
        Some(row)
    }

    /// Merges the overlay into the base once it outgrows the ratio — one
    /// O(rows) rebuild amortized over many O(delta) refreshes.
    fn maybe_merge(&mut self) {
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

    #[test]
    fn layered_insert_remove_lookup() {
        let base: FxHashMap<Term, usize> = (0..10).map(|i| (node(i), i)).collect();
        let mut index = ObservationIndex::from_map(base);
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
    }

    #[test]
    fn clones_share_the_base() {
        let base: FxHashMap<Term, usize> = (0..100).map(|i| (node(i), i)).collect();
        let mut index = ObservationIndex::from_map(base);
        let clone = index.clone();
        assert!(Arc::ptr_eq(&index.base, &clone.base));
        index.insert(node(500), 100);
        assert!(
            Arc::ptr_eq(&index.base, &clone.base),
            "small overlay growth does not clone the base"
        );
        assert!(!clone.contains(&node(500)));
    }

    #[test]
    fn overlay_merges_down_when_it_outgrows_the_ratio() {
        let base: FxHashMap<Term, usize> = (0..64).map(|i| (node(i), i)).collect();
        let mut index = ObservationIndex::from_map(base);
        index.remove(&node(0));
        for i in 0..80 {
            index.insert(node(1000 + i), 64 + i);
        }
        // Removal-only streams merge too (removal-heavy delta sequences
        // must not accumulate an O(removals) overlay between compactions).
        let mut removals = ObservationIndex::from_map(
            (0..512).map(|i| (node(i), i)).collect::<FxHashMap<_, _>>(),
        );
        for i in 0..200 {
            removals.remove(&node(i));
        }
        assert!(
            removals.overlay.len() < MERGE_MINIMUM,
            "removals merged down (len {})",
            removals.overlay.len()
        );
        assert_eq!(removals.len(), 312);
        assert!(!removals.contains(&node(5)));
        assert!(removals.contains(&node(300)));
        // The merge fires somewhere along the way, so the overlay never
        // accumulates all 81 changes.
        assert!(
            index.overlay.len() < MERGE_MINIMUM,
            "overlay merged into the base after outgrowing it (len {})",
            index.overlay.len()
        );
        assert!(index.base.len() > 64, "base absorbed the merged entries");
        assert_eq!(index.len(), 64 - 1 + 80);
        assert!(!index.contains(&node(0)), "removal survives the merge");
        assert_eq!(index.row_of(&node(1079)), Some(64 + 79));
        assert_eq!(index.row_of(&node(5)), Some(5));
    }
}

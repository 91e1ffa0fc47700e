//! The tombstone bitmap over fact rows: how observation *removals* become
//! delta-appliable instead of forcing a full rebuild.
//!
//! Removing a fact row from columnar storage in place would shift every
//! later row (and invalidate the observation → row index). Instead the row
//! stays physically present and is marked dead here; the executor's scan
//! skips dead rows, so query results are identical to a rebuild without
//! the removed observation. *Partial* removals tombstone through the same
//! bitmap: the old row dies, and — when the surviving fragment is still a
//! complete observation — a replacement row is appended at the column
//! tail (see the [`crate::delta`] decision table). Dead rows still occupy
//! memory, so the catalog compacts (re-materializes) a cube once its
//! live-row fraction drops below
//! [`crate::catalog::COMPACTION_LIVE_FRACTION`].
//!
//! The bit storage is `Arc`-shared between a cube and its delta-refreshed
//! clones: a refresh that removes nothing shares the bitmap outright, and
//! one that does remove pays a words-sized (`rows / 64` bits) copy — far
//! below the cost of cloning any column.

use std::sync::Arc;

use crate::cowvec::SEGMENT_LEN;

/// A copy-on-write bitmap marking dead (removed) fact rows.
///
/// Rows beyond the bitmap's allocated words are implicitly live, so pure
/// appends never touch (or grow) the bitmap.
#[derive(Debug, Clone, Default)]
pub struct Tombstones {
    /// Bit `row` set = row is dead. Lazily grown on the first removal past
    /// the current words.
    words: Arc<Vec<u64>>,
    /// Number of set bits, kept so live-row accounting is O(1).
    dead: usize,
    /// Dead rows per [`SEGMENT_LEN`]-row column segment, so the executor
    /// can skip a fully-dead segment (or elide per-row liveness checks in
    /// a fully-live one) without touching the bitmap. Indexed by
    /// `row / SEGMENT_LEN`, lazily grown like `words`.
    segment_dead: Arc<Vec<u32>>,
}

impl Tombstones {
    /// Creates an empty bitmap (every row live).
    pub fn new() -> Self {
        Self::default()
    }

    /// True if `row` has been tombstoned.
    #[inline]
    pub fn is_dead(&self, row: usize) -> bool {
        self.words
            .get(row / 64)
            .is_some_and(|word| word & (1 << (row % 64)) != 0)
    }

    /// True if no row has been tombstoned (the scan can skip the per-row
    /// liveness check entirely).
    pub fn is_empty(&self) -> bool {
        self.dead == 0
    }

    /// Number of tombstoned rows.
    pub fn dead_rows(&self) -> usize {
        self.dead
    }

    /// Number of tombstoned rows inside column segment `segment`
    /// (rows `segment * SEGMENT_LEN ..`). Segments past the counters are
    /// implicitly fully live, mirroring `words`.
    #[inline]
    pub fn dead_in_segment(&self, segment: usize) -> usize {
        self.segment_dead
            .get(segment)
            .map_or(0, |&count| count as usize)
    }

    /// The bitmap words covering column segment `segment`, least
    /// significant bit = the segment's first row. The slice is shorter than
    /// `SEGMENT_LEN / 64` (possibly empty) where the words end early: rows
    /// past them are live. Lets the segment scan turn liveness into row
    /// lists 64 rows at a time instead of one [`Tombstones::is_dead`] probe
    /// per row.
    pub fn segment_words(&self, segment: usize) -> &[u64] {
        const WORDS: usize = SEGMENT_LEN / 64;
        let start = (segment * WORDS).min(self.words.len());
        let end = (start + WORDS).min(self.words.len());
        &self.words[start..end]
    }

    /// Marks `row` dead. Returns `false` (and changes nothing) if the row
    /// was already dead. Clones the shared words at most once per refresh.
    pub fn kill(&mut self, row: usize) -> bool {
        if self.is_dead(row) {
            return false;
        }
        let words = Arc::make_mut(&mut self.words);
        if words.len() <= row / 64 {
            words.resize(row / 64 + 1, 0);
        }
        words[row / 64] |= 1 << (row % 64);
        let segment = row / SEGMENT_LEN;
        let segment_dead = Arc::make_mut(&mut self.segment_dead);
        if segment_dead.len() <= segment {
            segment_dead.resize(segment + 1, 0);
        }
        segment_dead[segment] += 1;
        self.dead += 1;
        true
    }

    /// Checks the bitmap fits a `rows`-row cube: no row at or past `rows`
    /// is marked dead. Only the words from the last row on are read.
    pub(crate) fn verify(&self, rows: usize) -> Result<(), String> {
        for (index, &word) in self.words.iter().enumerate().skip(rows / 64) {
            let first_past = rows.saturating_sub(index * 64);
            let past = word >> first_past;
            if past != 0 {
                let row = index * 64 + first_past + past.trailing_zeros() as usize;
                return Err(format!(
                    "tombstone bitmap marks row {row} dead but the cube has {rows} rows"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_and_query() {
        let mut t = Tombstones::new();
        assert!(t.is_empty());
        assert!(!t.is_dead(1000), "rows past the words are live");
        assert!(t.kill(3));
        assert!(t.kill(64));
        assert!(t.kill(200));
        assert!(!t.kill(64), "double kill is a no-op");
        assert_eq!(t.dead_rows(), 3);
        assert!(t.is_dead(3) && t.is_dead(64) && t.is_dead(200));
        assert!(!t.is_dead(4) && !t.is_dead(63) && !t.is_dead(201));
        assert!(!t.is_empty());
        t.verify(201).unwrap();
        let err = t.verify(200).unwrap_err();
        assert!(err.contains("row 200 dead"), "{err}");
        assert!(t.verify(64).unwrap_err().contains("row 64 dead"));
    }

    #[test]
    fn per_segment_dead_counts_track_kills() {
        let mut t = Tombstones::new();
        assert_eq!(t.dead_in_segment(0), 0);
        assert_eq!(t.dead_in_segment(99), 0, "past the counters = fully live");
        t.kill(0);
        t.kill(SEGMENT_LEN - 1);
        t.kill(SEGMENT_LEN);
        t.kill(SEGMENT_LEN * 3 + 7);
        assert!(!t.kill(0), "double kill does not double count");
        assert_eq!(t.dead_in_segment(0), 2);
        assert_eq!(t.dead_in_segment(1), 1);
        assert_eq!(t.dead_in_segment(2), 0);
        assert_eq!(t.dead_in_segment(3), 1);
        assert_eq!(
            (0..4).map(|s| t.dead_in_segment(s)).sum::<usize>(),
            t.dead_rows()
        );
    }

    #[test]
    fn segment_words_cover_exactly_the_segment() {
        let mut t = Tombstones::new();
        assert!(t.segment_words(0).is_empty(), "no words = every row live");
        t.kill(1);
        t.kill(SEGMENT_LEN + 65);
        assert_eq!(t.segment_words(0).len(), SEGMENT_LEN / 64);
        assert_eq!(t.segment_words(0)[0], 0b10);
        assert_eq!(t.segment_words(1), &[0, 0b10], "the words end early");
        assert!(t.segment_words(2).is_empty());
        assert!(t.segment_words(99).is_empty());
    }

    #[test]
    fn clones_share_words_until_mutated() {
        let mut a = Tombstones::new();
        a.kill(10);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.words, &b.words));
        b.kill(11);
        assert!(!Arc::ptr_eq(&a.words, &b.words), "copy-on-write");
        assert!(!a.is_dead(11));
        assert!(b.is_dead(10) && b.is_dead(11));
    }
}

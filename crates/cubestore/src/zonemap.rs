//! Per-segment zone maps: the pruning metadata that lets the executor skip
//! whole [`CowVec`](crate::cowvec::CowVec) segments without reading a row.
//!
//! The sealed 4096-row segment is already the unit of copy-on-write
//! sharing; this module makes it the unit of *pruning* too. Each replay
//! (a build is the replay of an empty cube, see
//! [`apply_delta`](crate::MaterializedCube::apply_delta)) extends, over the
//! rows it appended, what the cube records per segment:
//!
//! * for each dimension column, the **set of distinct bottom-member codes**
//!   present in the segment (including [`NO_MEMBER`](crate::NO_MEMBER) for
//!   unbound rows).
//!   Because fact rows are append-only — removals tombstone, they never
//!   rewrite a row — these sets are *exact*, not over-approximations. At
//!   query time the executor lifts a segment's code set through the
//!   roll-up map of each kept axis, so a dice at *any* level (leaf, mid or
//!   top) can prove a segment irrelevant;
//! * (on [`Tombstones`], not here) a per-segment dead-row count, so a
//!   fully-dead segment is skipped without touching the bitmap.
//!
//! The structures mirror the [`CowVec`](crate::cowvec::CowVec) cost model:
//! sealed segments' code sets live behind `Arc`s (cloning a cube's zone
//! maps is O(segments)), and only the small tail set mutates as rows are
//! appended. Tombstone-only deltas leave zone maps untouched — a dead
//! row's codes stay in its segment's set, which only costs precision,
//! never soundness. Compaction re-materializes the cube and therefore
//! extends fresh zone maps from empty.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::columns::DimensionColumn;
use crate::cowvec::SEGMENT_LEN;
use crate::dictionary::MemberId;
use crate::tombstone::Tombstones;

/// The per-segment pruning metadata of one cube: one code set per
/// (dimension, segment), covering every physical row (tombstoned rows
/// included).
#[derive(Debug, Clone, Default)]
pub struct ZoneMaps {
    /// Physical rows covered so far (== the cube's `row_count` between
    /// maintenance steps).
    rows: usize,
    pub(crate) dimensions: Vec<DimensionZones>,
}

/// The zone entries of one dimension column: sealed segments share their
/// sorted code sets behind `Arc`s, the tail's sorted set grows until it
/// seals.
#[derive(Debug, Clone, Default)]
pub(crate) struct DimensionZones {
    pub(crate) sealed: Vec<Arc<Vec<MemberId>>>,
    tail: Vec<MemberId>,
}

impl ZoneMaps {
    /// The zone maps of a cube with no rows: one empty entry per dimension
    /// column, for [`ZoneMaps::extend`] to fill.
    pub(crate) fn empty(columns: usize) -> Self {
        ZoneMaps {
            rows: 0,
            dimensions: vec![DimensionZones::default(); columns],
        }
    }

    /// Extends the zone maps over rows appended since the last call
    /// (incremental maintenance: O(delta), touching only the tail entries —
    /// and sealing them at segment boundaries, exactly as the columns do).
    /// A maintenance step that appended nothing (tombstone-only deltas) is
    /// a no-op: zone sets are never loosened, and never tightened either —
    /// a dead row's codes staying in its segment's set costs precision,
    /// not soundness.
    pub(crate) fn extend(&mut self, dimensions: &[DimensionColumn], row_count: usize) {
        for (zones, column) in self.dimensions.iter_mut().zip(dimensions) {
            let mut row = self.rows;
            while row < row_count {
                let (segment, start) = (row / SEGMENT_LEN, row % SEGMENT_LEN);
                let end = (row_count - segment * SEGMENT_LEN).min(SEGMENT_LEN);
                // The tail set absorbs the segment's new codes as one
                // slice: append, sort, dedup.
                zones
                    .tail
                    .extend_from_slice(&column.code_segment(segment)[start..end]);
                zones.tail.sort_unstable();
                zones.tail.dedup();
                if end == SEGMENT_LEN {
                    zones.sealed.push(Arc::new(zones.tail.clone()));
                    zones.tail.clear();
                }
                row = segment * SEGMENT_LEN + end;
            }
        }
        self.rows = row_count;
    }

    /// Physical rows covered by the zone maps.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of segments covered (sealed segments plus a tail segment).
    pub fn segment_count(&self) -> usize {
        self.rows.div_ceil(SEGMENT_LEN)
    }

    /// The distinct member codes of one (dimension, segment) zone, `None`
    /// when the maps do not cover that segment (out-of-sync maps — the
    /// executor treats the segment as unprunable).
    pub(crate) fn dimension_codes(
        &self,
        dimension: usize,
        segment: usize,
    ) -> Option<impl Iterator<Item = MemberId> + '_> {
        let zones = self.dimensions.get(dimension)?;
        let codes = if segment < zones.sealed.len() {
            &zones.sealed[segment]
        } else if segment == zones.sealed.len() && !zones.tail.is_empty() {
            &zones.tail
        } else {
            return None;
        };
        Some(codes.iter().copied())
    }

    /// Verifies every zone invariant against the actual column contents —
    /// the checker the lifecycle tests run over every segment. Because
    /// fact rows are append-only, the dimension sets must equal the exact
    /// distinct code sets; the tombstone bitmap's per-segment dead counts
    /// must re-count exactly.
    pub(crate) fn verify(
        &self,
        dimensions: &[DimensionColumn],
        row_count: usize,
        tombstones: &Tombstones,
    ) -> Result<(), String> {
        if self.rows != row_count {
            return Err(format!(
                "zone maps cover {} rows but the cube has {row_count}",
                self.rows
            ));
        }
        if self.dimensions.len() != dimensions.len() {
            return Err("zone maps out of sync with the dimension columns".to_string());
        }
        let segments = self.segment_count();
        let segment_rows =
            |segment: usize| segment * SEGMENT_LEN..((segment + 1) * SEGMENT_LEN).min(row_count);

        for (position, (zones, column)) in self.dimensions.iter().zip(dimensions).enumerate() {
            let expected_sealed = row_count / SEGMENT_LEN;
            if zones.sealed.len() != expected_sealed {
                return Err(format!(
                    "dimension {position}: {} sealed zone sets for {expected_sealed} sealed segments",
                    zones.sealed.len()
                ));
            }
            for segment in 0..segments {
                let actual: BTreeSet<MemberId> =
                    segment_rows(segment).map(|row| column.code(row)).collect();
                let recorded: Vec<MemberId> = self
                    .dimension_codes(position, segment)
                    .map(Iterator::collect)
                    .unwrap_or_default();
                if recorded != actual.iter().copied().collect::<Vec<_>>() {
                    return Err(format!(
                        "dimension {position} segment {segment}: zone set {recorded:?} does not \
                         match the column's distinct codes {actual:?}"
                    ));
                }
            }
        }

        let mut recounted_dead = 0usize;
        for segment in 0..segments {
            let actual = segment_rows(segment)
                .filter(|&row| tombstones.is_dead(row))
                .count();
            let recorded = tombstones.dead_in_segment(segment);
            if recorded != actual {
                return Err(format!(
                    "segment {segment}: per-segment dead count {recorded} does not re-count to \
                     {actual}"
                ));
            }
            recounted_dead += actual;
        }
        if recounted_dead != tombstones.dead_rows() {
            return Err(format!(
                "per-segment dead counts sum to {recounted_dead}, bitmap reports {}",
                tombstones.dead_rows()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::{Dictionary, NO_MEMBER};
    use rdf::{Iri, Term};

    fn column(codes: Vec<MemberId>) -> DimensionColumn {
        let mut dictionary = Dictionary::new();
        for suffix in ["a", "b", "c", "d"] {
            dictionary.encode(&Term::iri(format!("http://m/{suffix}")));
        }
        DimensionColumn::new(
            Iri::new("http://dim"),
            Iri::new("http://lv"),
            codes,
            dictionary,
        )
    }

    /// Zone maps extended from empty over the first `rows` rows.
    fn extended(dimensions: &[DimensionColumn], rows: usize) -> ZoneMaps {
        let mut zones = ZoneMaps::empty(dimensions.len());
        zones.extend(dimensions, rows);
        zones
    }

    #[test]
    fn build_records_exact_code_sets_per_segment() {
        let rows = SEGMENT_LEN + 10;
        let codes: Vec<MemberId> = (0..rows)
            .map(|row| {
                if row < SEGMENT_LEN {
                    (row % 3) as MemberId
                } else {
                    3
                }
            })
            .collect();
        let dimensions = [column(codes)];
        let zones = extended(&dimensions, rows);
        assert_eq!(zones.rows(), rows);
        assert_eq!(zones.segment_count(), 2);
        assert_eq!(
            zones.dimension_codes(0, 0).unwrap().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(
            zones.dimension_codes(0, 1).unwrap().collect::<Vec<_>>(),
            vec![3]
        );
        assert!(zones.dimension_codes(0, 2).is_none(), "no third segment");
        assert!(zones.dimension_codes(1, 0).is_none(), "no second dimension");
        zones.verify(&dimensions, rows, &Tombstones::new()).unwrap();
    }

    #[test]
    fn extend_is_incremental_and_seals_at_boundaries() {
        let total = SEGMENT_LEN * 2 + 5;
        let codes: Vec<MemberId> = (0..total).map(|row| (row % 4) as MemberId).collect();
        let dimensions = [column(codes)];
        let mut zones = extended(&dimensions, 100);
        // Extending in several steps must land on the same maps as one
        // fresh build over all rows.
        zones.extend(&dimensions, SEGMENT_LEN + 1);
        zones.extend(&dimensions, total);
        zones
            .verify(&dimensions, total, &Tombstones::new())
            .unwrap();
        let fresh = extended(&dimensions, total);
        for segment in 0..zones.segment_count() {
            assert_eq!(
                zones
                    .dimension_codes(0, segment)
                    .unwrap()
                    .collect::<Vec<_>>(),
                fresh
                    .dimension_codes(0, segment)
                    .unwrap()
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn unbound_rows_keep_no_member_in_the_zone_set() {
        let dimensions = [column(vec![0, NO_MEMBER, 1])];
        let zones = extended(&dimensions, 3);
        assert_eq!(
            zones.dimension_codes(0, 0).unwrap().collect::<Vec<_>>(),
            vec![0, 1, NO_MEMBER]
        );
        zones.verify(&dimensions, 3, &Tombstones::new()).unwrap();
    }

    #[test]
    fn verify_catches_a_stale_row_count() {
        let dimensions = [column(vec![0, 1])];
        let zones = extended(&dimensions, 2);
        let error = zones
            .verify(&dimensions, 3, &Tombstones::new())
            .unwrap_err();
        assert!(error.contains("cover 2 rows"), "{error}");
    }
}

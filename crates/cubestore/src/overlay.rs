//! The pinned snapshot: non-blocking serving of one cube plus a record of
//! what has been accreted onto it since its last fold.
//!
//! A [`CubeSnapshot`] is what the catalog hands a reader: one immutable
//! `Arc<MaterializedCube>`, the store epoch it is consistent with, and a
//! small [`SinceFold`] record — the running sum of the rows, tombstones,
//! members and deltas accreted since the cube was last built from scratch.
//! Readers execute against [`CubeSnapshot::cube`] without ever holding a
//! catalog lock, so a background fold or rebuild can run concurrently and
//! publish its result with an atomic swap.
//!
//! ## Why an accreted cube is bit-identical to a fold
//!
//! Accreted rows enter through [`MaterializedCube::apply_delta`] — replayed
//! onto the pinned cube, copy-on-write, so the result shares every sealed
//! segment with its input. That means:
//!
//! * accreted rows are dictionary-encoded against the **same** (extended)
//!   dictionaries and run through the same compiled roll-up maps, so a
//!   scan cannot tell an accreted row from a folded one;
//! * aggregation order does not matter: integer sums are exact `i128`
//!   partials and float sums are compensated (see `sparql::numeric`), so
//!   `folded rows ⊕ accreted rows` equals any re-folded row order bit for
//!   bit;
//! * tombstone masks only ever *remove* rows from consideration and
//!   `apply_delta` maintains the per-segment zone maps exactly (appends
//!   extend only the tail entry, tombstones never loosen bounds), so
//!   segment pruning commutes with accretion: a segment pruned on the
//!   accreted cube contains no row a folded cube would have scanned.
//!
//! The qlsmith campaign checks the claim on every generated program: its
//! `columnar` leg reads the settled pin, its `columnar-scratch` leg a cube
//! materialized from scratch at the pin's epoch.

use std::sync::Arc;

use crate::build::MaterializedCube;

/// What has been accreted onto a pinned cube since its last fold (or first
/// build): the running sum of the [`crate::MaintenanceStrategy::Delta`]
/// reports since then. A fold resets it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinceFold {
    /// The store epoch the cube was last built from scratch at.
    pub fold_epoch: u64,
    /// Rows appended.
    pub rows: usize,
    /// Rows tombstoned.
    pub tombstones: usize,
    /// Level members added.
    pub members: usize,
    /// Store deltas replayed.
    pub deltas: usize,
}

impl SinceFold {
    /// The record of a cube just built from scratch at `epoch`.
    pub(crate) fn folded_at(epoch: u64) -> Self {
        SinceFold {
            fold_epoch: epoch,
            ..SinceFold::default()
        }
    }

    /// This record plus one accretion's report.
    pub(crate) fn accreted(self, report: &crate::MaintenanceReport) -> Self {
        SinceFold {
            rows: self.rows + report.rows_appended,
            tombstones: self.tombstones + report.rows_removed,
            members: self.members + report.members_added,
            deltas: self.deltas + report.deltas_applied,
            ..self
        }
    }
}

/// One pinned, immutable view of a dataset: a cube, the store epoch it is
/// consistent with, and what was accreted onto it since its last fold.
/// Cheap to clone; readers hold it across an entire execution without any
/// catalog lock, so maintenance can never stall them and they can never
/// observe a half-published swap.
#[derive(Debug, Clone)]
pub struct CubeSnapshot {
    cube: Arc<MaterializedCube>,
    epoch: u64,
    since_fold: SinceFold,
}

impl CubeSnapshot {
    /// A snapshot of `cube` at store epoch `epoch`.
    pub(crate) fn new(cube: Arc<MaterializedCube>, epoch: u64, since_fold: SinceFold) -> Self {
        CubeSnapshot {
            cube,
            epoch,
            since_fold,
        }
    }

    /// A snapshot of a cube just built from scratch at `epoch`.
    pub(crate) fn folded(cube: Arc<MaterializedCube>, epoch: u64) -> Self {
        Self::new(cube, epoch, SinceFold::folded_at(epoch))
    }

    /// The cube a reader executes against.
    pub fn cube(&self) -> &Arc<MaterializedCube> {
        &self.cube
    }

    /// The store epoch the snapshot is consistent with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// What was accreted onto the cube since its last fold.
    pub fn since_fold(&self) -> SinceFold {
        self.since_fold
    }

    /// Checks the pinned cube is internally consistent: every dimension
    /// column, measure vector, the tombstone bitmap and the zone maps agree
    /// with its physical row count, and the fold epoch is not past the pin
    /// epoch. O(columns), not O(rows). The stress suite calls this on
    /// every pinned snapshot.
    pub fn verify_consistent(&self) -> Result<(), String> {
        let cube = &self.cube;
        let rows = cube.row_count();
        for column in &cube.dimensions {
            if column.len() != rows {
                return Err(format!(
                    "dimension column <{}> has {} rows but the cube has {rows}",
                    column.dimension.as_str(),
                    column.len()
                ));
            }
        }
        for column in &cube.measures {
            if column.data.len() != rows {
                return Err(format!(
                    "measure vector <{}> has {} rows but the cube has {rows}",
                    column.property.as_str(),
                    column.data.len()
                ));
            }
        }
        cube.tombstones.verify(rows)?;
        if cube.zones.rows() != rows {
            return Err(format!(
                "zone maps cover {} rows but the cube has {rows}",
                cube.zones.rows()
            ));
        }
        if self.since_fold.fold_epoch > self.epoch {
            return Err(format!(
                "fold epoch {} is past the pin epoch {}",
                self.since_fold.fold_epoch, self.epoch
            ));
        }
        Ok(())
    }

    /// The `OVERLAY` line a query profile carries so accreted serving is
    /// visible in `EXPLAIN ANALYZE` output: what was accreted since the
    /// last fold, how many deltas that took, and the epoch window it
    /// covers.
    pub fn plan_line(&self) -> String {
        let since = &self.since_fold;
        if since.fold_epoch == self.epoch {
            return "OVERLAY none".to_string();
        }
        format!(
            "OVERLAY rows={} tombstones={} members={} deltas={} epochs={}..{}",
            since.rows, since.tombstones, since.members, since.deltas, since.fold_epoch, self.epoch
        )
    }
}

#[cfg(test)]
mod tests {
    use qb4olap::AggregateFunction;

    use crate::columns::StoredMeasure;
    use crate::testutil::fixture;
    use crate::NO_MEMBER;

    use super::*;

    fn built() -> MaterializedCube {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        MaterializedCube::from_endpoint(&endpoint, &schema).unwrap()
    }

    #[test]
    fn folded_snapshots_are_trivially_consistent() {
        let snapshot = CubeSnapshot::folded(Arc::new(built()), 7);
        snapshot.verify_consistent().unwrap();
        assert_eq!(snapshot.plan_line(), "OVERLAY none");
        assert_eq!(snapshot.since_fold(), SinceFold::folded_at(7));
        assert_eq!(snapshot.epoch(), 7);
    }

    #[test]
    fn verify_consistent_rejects_a_column_longer_than_the_cube() {
        let mut cube = built();
        cube.dimensions[1].codes.push(NO_MEMBER);
        let err = CubeSnapshot::folded(Arc::new(cube), 1)
            .verify_consistent()
            .unwrap_err();
        assert!(
            err.contains("dimension column") && err.contains("6 rows"),
            "{err}"
        );
    }

    #[test]
    fn verify_consistent_rejects_measures_and_zones_out_of_step() {
        let mut cube = built();
        cube.measures[0].data.push_stored(StoredMeasure::Integer(1));
        let err = CubeSnapshot::folded(Arc::new(cube), 1)
            .verify_consistent()
            .unwrap_err();
        assert!(err.contains("measure vector"), "{err}");

        // Every column one row longer, the zone maps not extended.
        let mut cube = built();
        for column in &mut cube.dimensions {
            column.codes.push(NO_MEMBER);
        }
        for column in &mut cube.measures {
            column.data.push_stored(StoredMeasure::Integer(1));
        }
        cube.row_count += 1;
        let err = CubeSnapshot::folded(Arc::new(cube), 1)
            .verify_consistent()
            .unwrap_err();
        assert!(err.contains("zone maps cover 5 rows"), "{err}");
    }

    #[test]
    fn verify_consistent_rejects_a_tombstone_past_the_last_row() {
        let mut cube = built();
        cube.tombstones.kill(5);
        let err = CubeSnapshot::folded(Arc::new(cube), 1)
            .verify_consistent()
            .unwrap_err();
        assert!(err.contains("tombstone"), "{err}");
    }

    #[test]
    fn verify_consistent_rejects_a_fold_epoch_past_the_pin() {
        let since = SinceFold::folded_at(4);
        let err = CubeSnapshot::new(Arc::new(built()), 3, since)
            .verify_consistent()
            .unwrap_err();
        assert!(
            err.contains("fold epoch 4 is past the pin epoch 3"),
            "{err}"
        );
    }

    #[test]
    fn snapshot_bookkeeping_tracks_the_accreted_delta() {
        let report = |rows, removed, members| crate::MaintenanceReport {
            dataset: rdf::Iri::new("http://example.org/ds"),
            strategy: crate::MaintenanceStrategy::Delta,
            reason: None,
            duration: std::time::Duration::ZERO,
            from_epoch: 0,
            to_epoch: 0,
            deltas_applied: 1,
            rows_appended: rows,
            rows_removed: removed,
            members_added: members,
            overlap: None,
        };
        let since = SinceFold::folded_at(2)
            .accreted(&report(3, 0, 1))
            .accreted(&report(0, 2, 0));
        let snapshot = CubeSnapshot::new(Arc::new(built()), 9, since);
        assert_eq!(
            snapshot.plan_line(),
            "OVERLAY rows=3 tombstones=2 members=1 deltas=2 epochs=2..9"
        );
    }
}

//! The delta overlay: non-blocking serving of a base cube plus pending
//! changes.
//!
//! A [`CubeSnapshot`] is what the catalog hands a reader: an immutable
//! `Arc` pair of the last fully-folded **base** cube and an optional
//! [`DeltaOverlay`] holding every change accreted since — appended rows,
//! tombstoned rows and new members, already merged into a copy-on-write
//! cube that shares all sealed segments with the base. Readers execute
//! against [`CubeSnapshot::cube`] without ever holding a catalog lock, so
//! a background fold or rebuild can run concurrently and publish its
//! result with an atomic swap.
//!
//! ## Why the merged overlay is bit-identical to a fold
//!
//! Overlay rows enter through [`MaterializedCube::apply_delta`] — the same
//! code path a blocking delta refresh uses. That means:
//!
//! * overlay rows are dictionary-encoded against the **same** (extended)
//!   dictionaries and run through the same compiled roll-up maps, so a
//!   scan cannot tell an overlay row from a folded one;
//! * aggregation order does not matter: integer sums are exact `i128`
//!   partials and float sums are compensated (see `sparql::numeric`), so
//!   `base rows ⊕ overlay rows` equals any re-folded row order bit for
//!   bit;
//! * tombstone masks only ever *remove* rows from consideration and
//!   `apply_delta` maintains the per-segment zone maps exactly (appends
//!   extend only the tail entry, tombstones never loosen bounds), so
//!   segment pruning commutes with the overlay: a segment pruned on the
//!   merged cube contains no row a folded cube would have scanned.
//!
//! The qlsmith campaign checks the claim on every generated program: its
//! `columnar` leg reads the settled pin, its `columnar-scratch` leg a cube
//! materialized from scratch at the pin's epoch.

use std::sync::Arc;

use crate::build::MaterializedCube;

/// Total number of level members a cube serves (all levels summed).
pub(crate) fn member_total(cube: &MaterializedCube) -> usize {
    cube.levels().values().map(|index| index.member_count()).sum()
}

/// The changes accreted on top of a base cube since its last fold:
/// appended rows, tombstoned base rows and new members, held as an
/// immutable merged cube that shares every sealed segment with the base.
#[derive(Debug, Clone)]
pub struct DeltaOverlay {
    /// Base + overlay, merged through `apply_delta` (COW: sealed segments
    /// are `Arc`-shared with the base cube).
    merged: Arc<MaterializedCube>,
    /// Physical row count of the base the overlay was accreted on — the
    /// consistency anchor a torn snapshot would violate.
    base_rows: usize,
    /// Epoch of the base the overlay was accreted on.
    base_epoch: u64,
    /// The store epoch the overlay catches the snapshot up to.
    epoch: u64,
    /// Store deltas accreted into the overlay (cumulative since the base).
    deltas_applied: usize,
    /// Rows appended on top of the base.
    rows_appended: usize,
    /// Base (or earlier-overlay) rows tombstoned by the overlay.
    rows_tombstoned: usize,
    /// Level members added by the overlay.
    members_added: usize,
    /// The first bookkeeping underflow observed while accreting, if any —
    /// a merged cube with *fewer* rows/tombstones/members than its base
    /// means the fold mis-merged. Recorded instead of saturated away, and
    /// surfaced as an error by [`CubeSnapshot::verify_consistent`].
    underflow: Option<String>,
}

impl DeltaOverlay {
    /// Builds the overlay bookkeeping for `merged`, accreted on `base` at
    /// `base_epoch`, catching up to `epoch`. `prior_deltas` carries the
    /// delta count of the overlay this one replaces (accretion is
    /// cumulative until a fold resets the base).
    pub(crate) fn new(
        base: &MaterializedCube,
        base_epoch: u64,
        merged: Arc<MaterializedCube>,
        epoch: u64,
        prior_deltas: usize,
        newly_applied: usize,
    ) -> Self {
        // Checked, not saturating: `apply_delta` only ever *adds* rows,
        // tombstones and members on top of the base, so any of these
        // differences coming out negative means a mis-merged fold paired
        // the wrong base with this overlay. Saturation used to mask that
        // as a plausible-looking zero; now the underflow is recorded and
        // `verify_consistent` refuses the snapshot.
        let mut underflow = None;
        let mut checked = |what: &str, merged_count: usize, base_count: usize| {
            merged_count.checked_sub(base_count).unwrap_or_else(|| {
                if underflow.is_none() {
                    underflow = Some(format!(
                        "{what} underflow: merged cube has {merged_count} but its base has {base_count}"
                    ));
                }
                0
            })
        };
        let rows_appended = checked("row-count", merged.row_count(), base.row_count());
        let rows_tombstoned =
            checked("tombstone-count", merged.tombstoned_rows(), base.tombstoned_rows());
        let members_added = checked("member-count", member_total(&merged), member_total(base));
        DeltaOverlay {
            base_rows: base.row_count(),
            base_epoch,
            epoch,
            deltas_applied: prior_deltas + newly_applied,
            rows_appended,
            rows_tombstoned,
            members_added,
            underflow,
            merged,
        }
    }

    /// The merged cube (base + overlay) readers scan.
    pub fn merged(&self) -> &Arc<MaterializedCube> {
        &self.merged
    }

    /// The store epoch the overlay catches the snapshot up to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch of the base cube the overlay was accreted on.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Physical row count of the base cube the overlay was accreted on.
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    /// Store deltas accreted since the base was last folded.
    pub fn deltas_applied(&self) -> usize {
        self.deltas_applied
    }

    /// Rows the overlay appended on top of the base.
    pub fn rows_appended(&self) -> usize {
        self.rows_appended
    }

    /// Base rows the overlay tombstoned.
    pub fn rows_tombstoned(&self) -> usize {
        self.rows_tombstoned
    }

    /// Level members the overlay added.
    pub fn members_added(&self) -> usize {
        self.members_added
    }

    /// The bookkeeping underflow recorded while accreting, if any — a
    /// merged cube smaller than its base along any counted axis. `None`
    /// on every healthy overlay.
    pub fn bookkeeping_underflow(&self) -> Option<&str> {
        self.underflow.as_deref()
    }
}

/// One pinned, immutable view of a dataset: the last folded base cube
/// plus the overlay accreted since (if any). Cheap to clone; readers hold
/// it across an entire execution without any catalog lock, so maintenance
/// can never stall them and they can never observe a half-published swap.
#[derive(Debug, Clone)]
pub struct CubeSnapshot {
    base: Arc<MaterializedCube>,
    base_epoch: u64,
    overlay: Option<Arc<DeltaOverlay>>,
}

impl CubeSnapshot {
    /// A snapshot of a base cube with an optional overlay.
    pub(crate) fn new(
        base: Arc<MaterializedCube>,
        base_epoch: u64,
        overlay: Option<Arc<DeltaOverlay>>,
    ) -> Self {
        CubeSnapshot {
            base,
            base_epoch,
            overlay,
        }
    }

    /// The cube a reader should execute against: the merged overlay cube
    /// when an overlay is pinned, the base otherwise.
    pub fn cube(&self) -> &Arc<MaterializedCube> {
        match &self.overlay {
            Some(overlay) => overlay.merged(),
            None => &self.base,
        }
    }

    /// The last fully-folded base cube.
    pub fn base(&self) -> &Arc<MaterializedCube> {
        &self.base
    }

    /// The store epoch of the base cube.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// The store epoch the snapshot is consistent with: the overlay's
    /// caught-up epoch when present, the base epoch otherwise.
    pub fn epoch(&self) -> u64 {
        match &self.overlay {
            Some(overlay) => overlay.epoch(),
            None => self.base_epoch,
        }
    }

    /// The pinned overlay, when one is accreted.
    pub fn overlay(&self) -> Option<&Arc<DeltaOverlay>> {
        self.overlay.as_ref()
    }

    /// True when the snapshot serves base + overlay rather than a folded
    /// base alone.
    pub fn is_overlaid(&self) -> bool {
        self.overlay.is_some()
    }

    /// Checks the snapshot is not torn: the overlay (when present) must
    /// have been accreted on exactly this base, at this base epoch, and
    /// its bookkeeping must be consistent with the merged cube. The stress
    /// suite calls this on every pinned snapshot.
    pub fn verify_consistent(&self) -> Result<(), String> {
        let Some(overlay) = &self.overlay else {
            return Ok(());
        };
        if let Some(detail) = overlay.bookkeeping_underflow() {
            return Err(format!("torn snapshot: {detail}"));
        }
        if overlay.base_epoch() != self.base_epoch {
            return Err(format!(
                "torn snapshot: overlay accreted at base epoch {} but base is at {}",
                overlay.base_epoch(),
                self.base_epoch
            ));
        }
        if overlay.base_rows() != self.base.row_count() {
            return Err(format!(
                "torn snapshot: overlay accreted on a {}-row base but base has {} rows",
                overlay.base_rows(),
                self.base.row_count()
            ));
        }
        if overlay.epoch() < self.base_epoch {
            return Err(format!(
                "torn snapshot: overlay epoch {} behind base epoch {}",
                overlay.epoch(),
                self.base_epoch
            ));
        }
        let merged = overlay.merged();
        if merged.row_count() != overlay.base_rows() + overlay.rows_appended() {
            return Err(format!(
                "torn snapshot: merged cube has {} rows, expected {} base + {} appended",
                merged.row_count(),
                overlay.base_rows(),
                overlay.rows_appended()
            ));
        }
        Ok(())
    }

    /// The `OVERLAY` line a query profile carries so overlay serving is
    /// visible in `EXPLAIN ANALYZE` output: what the overlay added, how
    /// many deltas it absorbed, and the epoch window it covers.
    pub fn plan_line(&self) -> String {
        match &self.overlay {
            Some(overlay) => format!(
                "OVERLAY rows={} tombstones={} members={} deltas={} epochs={}..{}",
                overlay.rows_appended(),
                overlay.rows_tombstoned(),
                overlay.members_added(),
                overlay.deltas_applied(),
                overlay.base_epoch(),
                overlay.epoch()
            ),
            None => "OVERLAY none".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use qb4olap::AggregateFunction;
    use sparql::Endpoint;

    use crate::testutil::{fixture, observation_triples};

    use super::*;

    fn overlaid_snapshot() -> CubeSnapshot {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        endpoint.store().enable_change_log();
        let base = Arc::new(MaterializedCube::from_endpoint(&endpoint, &schema).unwrap());
        let base_epoch = endpoint.epoch();
        endpoint
            .insert_triples(&observation_triples("o6", "c1", "m1", 3, 3))
            .unwrap();
        let deltas = endpoint.deltas_since(base_epoch).unwrap();
        let merged = Arc::new(base.apply_delta(&deltas).unwrap());
        let overlay = DeltaOverlay::new(
            &base,
            base_epoch,
            merged,
            endpoint.epoch(),
            0,
            deltas.len(),
        );
        CubeSnapshot::new(base, base_epoch, Some(Arc::new(overlay)))
    }

    #[test]
    fn snapshot_bookkeeping_tracks_the_accreted_delta() {
        let snapshot = overlaid_snapshot();
        assert!(snapshot.is_overlaid());
        snapshot.verify_consistent().unwrap();
        let overlay = snapshot.overlay().unwrap();
        assert_eq!(overlay.rows_appended(), 1);
        assert_eq!(overlay.rows_tombstoned(), 0);
        assert_eq!(overlay.deltas_applied(), 1);
        assert_eq!(snapshot.cube().row_count(), 6);
        assert_eq!(snapshot.base().row_count(), 5);
        assert!(snapshot.epoch() > snapshot.base_epoch());
        let line = snapshot.plan_line();
        assert!(line.starts_with("OVERLAY rows=1 "), "{line}");
    }

    /// The mis-merged-fold regression: pairing an overlay with a base
    /// *larger* than its merged cube used to saturate the row delta to a
    /// plausible-looking 0; it must now be recorded as an underflow and
    /// refused by `verify_consistent`.
    #[test]
    fn verify_consistent_rejects_a_mis_merged_fold() {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        endpoint.store().enable_change_log();
        let base = Arc::new(MaterializedCube::from_endpoint(&endpoint, &schema).unwrap());
        let base_epoch = endpoint.epoch();
        endpoint
            .insert_triples(&observation_triples("o7", "c1", "m1", 4, 4))
            .unwrap();
        let deltas = endpoint.deltas_since(base_epoch).unwrap();
        let merged = Arc::new(base.apply_delta(&deltas).unwrap());
        // Swap the roles: accrete the *smaller* cube "on top of" the
        // larger one, the shape a mis-merged fold would produce.
        let overlay = DeltaOverlay::new(
            &merged,
            base_epoch,
            base.clone(),
            endpoint.epoch(),
            0,
            deltas.len(),
        );
        assert!(
            overlay.bookkeeping_underflow().is_some(),
            "the underflow must be recorded, not saturated away"
        );
        assert_eq!(overlay.rows_appended(), 0, "the count itself stays safe");
        let snapshot = CubeSnapshot::new(merged, base_epoch, Some(Arc::new(overlay)));
        let err = snapshot.verify_consistent().unwrap_err();
        assert!(err.contains("underflow"), "{err}");
        // A healthy overlay records nothing.
        assert!(overlaid_snapshot()
            .overlay()
            .unwrap()
            .bookkeeping_underflow()
            .is_none());
    }

    #[test]
    fn verify_consistent_rejects_a_torn_pairing() {
        let snapshot = overlaid_snapshot();
        let overlay = snapshot.overlay().unwrap().clone();
        // Pair the overlay with a base from a different epoch: torn.
        let torn = CubeSnapshot::new(
            snapshot.base().clone(),
            snapshot.base_epoch() + 1,
            Some(overlay),
        );
        let err = torn.verify_consistent().unwrap_err();
        assert!(err.contains("torn snapshot"), "{err}");
    }

    #[test]
    fn base_only_snapshots_are_trivially_consistent() {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        let base = Arc::new(MaterializedCube::from_endpoint(&endpoint, &schema).unwrap());
        let snapshot = CubeSnapshot::new(base, endpoint.epoch(), None);
        assert!(!snapshot.is_overlaid());
        snapshot.verify_consistent().unwrap();
        assert_eq!(snapshot.plan_line(), "OVERLAY none");
        assert_eq!(snapshot.epoch(), snapshot.base_epoch());
    }
}

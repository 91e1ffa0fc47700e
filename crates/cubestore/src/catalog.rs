//! The live cube catalog: one shared, change-tracked columnar
//! representation per dataset, served to every consumer module.
//!
//! A [`CubeCatalog`] keys [`MaterializedCube`]s by dataset IRI. Its one
//! read path, [`CubeCatalog::serve_snapshot`], returns a pinned
//! [`CubeSnapshot`] that readers execute against without holding any
//! catalog lock, and catches the pin up when the store moved: a first
//! build inline, an O(delta) replay inline, or a fold (a rebuild from
//! scratch) on a background thread. [`CubeCatalog::serve_settled`] is the
//! same pin for callers that must read their own writes. Every decision,
//! reason and timing is recorded as a [`MaintenanceReport`].
//!
//! Each dataset's slot is one explicit state (`Empty`, `Building`,
//! `Serving`, `Maintaining`, `Failed`) changed only through one checked
//! transition. Maintenance holds the claim as an owned guard that the one
//! publish consumes; a guard a panic drops unconsumed fails the slot and
//! wakes its waiters, so no panic leaves a claim held.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, MutexGuard};
use std::time::{Duration, Instant};

use obs::MetricsRegistry;
use parking_lot::Mutex;
use qb4olap::CubeSchema;
use rdf::Iri;
use sparql::Endpoint;

use crate::build::MaterializedCube;
use crate::error::CubeStoreError;
use crate::overlay::CubeSnapshot;
use crate::sched;

/// How the catalog brought an entry up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceStrategy {
    /// First materialization of the dataset.
    Fresh,
    /// Recorded deltas were replayed onto the served cube in O(delta) and
    /// the result swapped in (copy-on-write: only the components the
    /// deltas extended were copied; removals were tombstoned). The pin's
    /// [`crate::SinceFold`] record sums these until the next fold.
    Delta,
    /// The cube was re-materialized from the endpoint because the deltas
    /// were unappliable or the change log had a coverage gap.
    Rebuild,
    /// The deltas applied, but tombstoned rows had accumulated past the
    /// live-fraction threshold ([`COMPACTION_LIVE_FRACTION`]), so the
    /// catalog re-materialized to reclaim the dead rows.
    Compaction,
}

impl MaintenanceStrategy {
    /// The strategy's stable lowercase name — the suffix of its
    /// `catalog.refresh.<name>` registry counter.
    pub fn name(self) -> &'static str {
        match self {
            MaintenanceStrategy::Fresh => "fresh",
            MaintenanceStrategy::Delta => "delta",
            MaintenanceStrategy::Rebuild => "rebuild",
            MaintenanceStrategy::Compaction => "compaction",
        }
    }
}

/// Why a refresh re-materialized instead of (or after) replaying deltas.
#[derive(Debug, Clone, PartialEq)]
pub enum RebuildReason {
    /// A delta inserted or removed a schema or structure triple, which no
    /// replay applies (see the decision table in the [`crate::delta`]
    /// module docs); the detail names the triple's predicate.
    DeltaRefused(String),
    /// The change log does not reach back to the cube's epoch (log
    /// disabled, reset, or trimmed past it).
    ChangeLogGap,
    /// The delta applied, but the live-row fraction fell below
    /// [`COMPACTION_LIVE_FRACTION`]; the cube was compacted.
    LowLiveFraction {
        /// Live rows after the delta replay.
        live_rows: usize,
        /// Physical rows (live + tombstoned) after the delta replay.
        total_rows: usize,
    },
    /// The delta replay failed with a non-refusal error (endpoint or
    /// build failure surfaced mid-apply), or returned a cube smaller than
    /// its input on a counted axis — a mis-merge.
    Error(String),
}

impl fmt::Display for RebuildReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RebuildReason::DeltaRefused(detail) => write!(f, "{detail}"),
            RebuildReason::ChangeLogGap => {
                write!(f, "change log does not cover the cube's epoch")
            }
            RebuildReason::LowLiveFraction {
                live_rows,
                total_rows,
            } => write!(
                f,
                "live-row fraction {live_rows}/{total_rows} fell below the compaction threshold"
            ),
            RebuildReason::Error(message) => write!(f, "{message}"),
        }
    }
}

/// One catalog maintenance decision: what was done, why, and how long it
/// took. The experiment harness (E12/E13/E18) and the differential tests
/// read these to prove the delta path is exercised and measurably cheaper.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenanceReport {
    /// The dataset that was refreshed.
    pub dataset: Iri,
    /// Delta accretion, full rebuild, compaction, or first build.
    pub strategy: MaintenanceStrategy,
    /// For [`MaintenanceStrategy::Rebuild`] and
    /// [`MaintenanceStrategy::Compaction`]: why the columns were
    /// re-materialized.
    pub reason: Option<RebuildReason>,
    /// Wall-clock time of the refresh.
    pub duration: Duration,
    /// The store epoch the entry was at before the refresh.
    pub from_epoch: u64,
    /// The store epoch the entry is at after the refresh.
    pub to_epoch: u64,
    /// Number of store deltas replayed (delta strategy only).
    pub deltas_applied: usize,
    /// Fact rows appended by the refresh (net new live rows for rebuilds).
    pub rows_appended: usize,
    /// Fact rows removed by the refresh: tombstoned for
    /// [`MaintenanceStrategy::Delta`], net lost live rows for rebuilds.
    pub rows_removed: usize,
    /// Level members added by the refresh.
    pub members_added: usize,
    /// For background folds: how long readers were served the stale
    /// snapshot while this maintenance ran concurrently — the overlap
    /// window between serving and folding. `None` for refreshes done on
    /// the caller's thread, where no stale serving overlaps the work.
    pub overlap: Option<Duration>,
}

/// The live-row fraction below which a delta-refreshed cube is compacted
/// (re-materialized) instead of served: once more than half the physical
/// rows are tombstones, the scan skips more than it reads and the memory
/// overhead of the dead rows exceeds the live data. Compaction goes
/// through [`MaterializedCube::from_endpoint`], so the per-segment zone
/// maps are rebuilt from the surviving rows — dead rows' member codes and
/// min/max bounds (which deltas deliberately never loosen) drop out here.
pub const COMPACTION_LIVE_FRACTION: f64 = 0.5;

/// True if the cube has accumulated enough tombstones to warrant
/// compaction.
fn needs_compaction(cube: &MaterializedCube) -> bool {
    cube.tombstoned_rows() > 0
        && (cube.live_row_count() as f64) < (cube.row_count() as f64) * COMPACTION_LIVE_FRACTION
}

/// Total number of level members a cube serves (all levels summed).
fn member_total(cube: &MaterializedCube) -> usize {
    cube.levels()
        .values()
        .map(|index| index.member_count())
        .sum()
}

/// What a delta replay added on top of its input: rows appended, rows
/// tombstoned, members added. `apply_delta` only ever adds physical rows
/// and tombstones, so either count shrinking means the replay mis-merged:
/// it is refused as a fold reason, never served. Members are no such
/// check: a replay that re-reads the hierarchy may remove some, and the
/// report counts the net gain, as a fold's does.
fn replay_growth(
    input: &MaterializedCube,
    replayed: &MaterializedCube,
) -> Result<(usize, usize, usize), RebuildReason> {
    let grown = |what: &str, after: usize, before: usize| {
        after.checked_sub(before).ok_or_else(|| {
            RebuildReason::Error(format!(
                "{what} underflow: the replay returned {after} but its input has {before}"
            ))
        })
    };
    Ok((
        grown("row-count", replayed.row_count(), input.row_count())?,
        grown(
            "tombstone-count",
            replayed.tombstoned_rows(),
            input.tombstoned_rows(),
        )?,
        member_total(replayed).saturating_sub(member_total(input)),
    ))
}

/// A bounded ring of the most recent maintenance reports for one
/// dataset: pushing at capacity evicts the oldest report in O(1).
#[derive(Debug, Clone, Default)]
pub struct ReportLog {
    reports: VecDeque<MaintenanceReport>,
}

impl ReportLog {
    /// Reports retained per dataset.
    pub const CAPACITY: usize = 64;

    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a report, evicting the oldest once [`Self::CAPACITY`] is
    /// reached.
    pub fn push(&mut self, report: MaintenanceReport) {
        if self.reports.len() == Self::CAPACITY {
            self.reports.pop_front();
        }
        self.reports.push_back(report);
    }

    /// Number of retained reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// The most recent report.
    pub fn last(&self) -> Option<&MaintenanceReport> {
        self.reports.back()
    }

    /// The retained reports, oldest first.
    pub fn to_vec(&self) -> Vec<MaintenanceReport> {
        self.reports.iter().cloned().collect()
    }
}

/// A slot's state without its pin: what [`TRANSITIONS`] is written in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Empty,
    Building,
    Serving,
    Maintaining,
    Failed,
}

/// Every legal change of a slot's state, `(from, to)`. ARCHITECTURE.md
/// § "Overlay & background fold" restates this table, and a test holds
/// the two equal.
const TRANSITIONS: [(Phase, Phase); 8] = [
    (Phase::Empty, Phase::Building),
    (Phase::Building, Phase::Serving),
    (Phase::Building, Phase::Empty),
    (Phase::Serving, Phase::Maintaining),
    (Phase::Failed, Phase::Maintaining),
    (Phase::Maintaining, Phase::Serving),
    // A compaction inherits the claim after the accretion publishes.
    (Phase::Maintaining, Phase::Maintaining),
    (Phase::Maintaining, Phase::Failed),
];

/// A dataset slot's state; the pin lives in the states that have one.
#[derive(Default)]
enum State {
    /// Nothing built and no claim.
    #[default]
    Empty,
    /// The first build holds the claim; nothing to serve until it lands.
    Building,
    /// The pin is served and the claim is free.
    Serving(CubeSnapshot),
    /// The pin is served while maintenance holds the claim.
    Maintaining(CubeSnapshot),
    /// The pin is served, the claim is free, and the last fold failed:
    /// [`CubeCatalog::serve_settled`] returns the error instead of waiting.
    Failed(CubeSnapshot, CubeStoreError),
}

impl State {
    fn phase(&self) -> Phase {
        match self {
            State::Empty => Phase::Empty,
            State::Building => Phase::Building,
            State::Serving(_) => Phase::Serving,
            State::Maintaining(_) => Phase::Maintaining,
            State::Failed(..) => Phase::Failed,
        }
    }

    /// What the next pin returns, once there is one.
    fn pin(&self) -> Option<&CubeSnapshot> {
        match self {
            State::Empty | State::Building => None,
            State::Serving(pin) | State::Maintaining(pin) | State::Failed(pin, _) => Some(pin),
        }
    }

    /// True while maintenance holds the claim.
    fn claimed(&self) -> bool {
        matches!(self, State::Building | State::Maintaining(_))
    }
}

/// What a slot's lock guards: its state and its maintenance history.
#[derive(Default)]
struct SlotState {
    state: State,
    reports: ReportLog,
}

impl SlotState {
    /// The one way the state changes, checked against [`TRANSITIONS`].
    /// Returns the state left, so its pin is freed after the lock.
    fn transition(&mut self, to: State) -> State {
        let step = (self.state.phase(), to.phase());
        assert!(
            TRANSITIONS.contains(&step),
            "illegal slot transition {step:?}"
        );
        std::mem::replace(&mut self.state, to)
    }
}

/// A dataset's slot. Its mutex is only ever held for pointer-swap-sized
/// critical sections, never across endpoint I/O or column work; waiters
/// park on `maintenance_done` until a claim ends.
#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    maintenance_done: Condvar,
}

impl Slot {
    /// Parks until no claim is held.
    fn idle(&self) -> MutexGuard<'_, SlotState> {
        let mut st = self.state.lock();
        while st.state.claimed() {
            st = sched::wait(&self.maintenance_done, &self.state, st);
        }
        st
    }
}

/// Records one maintenance decision into the registry: a per-strategy
/// counter, `catalog.refusal.schema-structure` when a refused delta forced
/// a rebuild, refresh latency, per-field totals, the live-row fraction of
/// the cube now being served, and for an accretion or a fold its overlay
/// counter and the rows accreted since the fold.
fn record_report_metrics(
    metrics: &MetricsRegistry,
    report: &MaintenanceReport,
    pin: &CubeSnapshot,
) {
    let cube = pin.cube();
    metrics
        .counter(&format!("catalog.refresh.{}", report.strategy.name()))
        .inc();
    if let Some(RebuildReason::DeltaRefused(_)) = &report.reason {
        metrics.counter("catalog.refusal.schema-structure").inc();
    }
    metrics
        .histogram("catalog.refresh.duration_ns")
        .record_duration(report.duration);
    metrics
        .counter("catalog.refresh.deltas_applied")
        .add(report.deltas_applied as u64);
    metrics
        .counter("catalog.refresh.rows_appended")
        .add(report.rows_appended as u64);
    metrics
        .counter("catalog.refresh.rows_removed")
        .add(report.rows_removed as u64);
    let live_fraction = if cube.row_count() == 0 {
        1.0
    } else {
        cube.live_row_count() as f64 / cube.row_count() as f64
    };
    metrics.gauge("catalog.live_fraction").set(live_fraction);
    let overlay = match report.strategy {
        MaintenanceStrategy::Fresh => return,
        MaintenanceStrategy::Delta => "catalog.overlay.accretions",
        MaintenanceStrategy::Rebuild | MaintenanceStrategy::Compaction => "catalog.overlay.folds",
    };
    metrics.counter(overlay).inc();
    let rows = pin.since_fold().rows as f64;
    metrics.gauge("catalog.overlay.rows").set(rows);
}

/// How a claim ends.
enum Outcome {
    /// A new pin, with the report of the work that made it.
    Pin(CubeSnapshot, MaintenanceReport),
    /// The claimed pin stays: a torn replay with no snapshot to rerun on.
    Keep(CubeSnapshot),
    /// The work failed.
    Error(CubeStoreError),
}

/// The maintenance claim on a slot, taken by moving it to `Building` or
/// `Maintaining` and ended by [`Claim::publish`], which consumes it.
/// Dropped unconsumed — a panic unwinding through a replay or a build — it
/// fails the slot (`Building→Empty`, `Maintaining→Failed`) and wakes the
/// waiters, so [`CubeCatalog::serve_settled`] returns the error and the
/// next serve claims again.
struct Claim {
    slot: Arc<Slot>,
    metrics: Arc<MetricsRegistry>,
    /// The pin the claim was taken over; `None` for a first build.
    pinned: Option<CubeSnapshot>,
    /// Set once a fold holds the claim: its failure counts in
    /// `catalog.overlay.fold_failures`.
    fold: bool,
    ended: bool,
}

impl Claim {
    /// The one publish: ends the claim with `outcome`. A new pin whose
    /// tombstones dominate is published with the claim kept
    /// (`Maintaining→Maintaining`), and the claim is handed back for the
    /// compaction that inherits it.
    fn publish(
        mut self,
        outcome: Outcome,
    ) -> Result<(CubeSnapshot, Option<Claim>), CubeStoreError> {
        sched::yield_point("publish");
        let pin = self.end(outcome)?;
        Ok((pin, (!self.ended).then_some(self)))
    }

    /// Moves the slot out of its claimed state with `outcome`, recording a
    /// new pin's report or a fold's failure, and wakes the waiters.
    fn end(&mut self, outcome: Outcome) -> Result<CubeSnapshot, CubeStoreError> {
        let mut st = self.slot.state.lock();
        let (next, ended) = match outcome {
            Outcome::Pin(pin, report) => {
                record_report_metrics(&self.metrics, &report, &pin);
                st.reports.push(report);
                self.pinned = Some(pin.clone());
                let next = match needs_compaction(pin.cube()) {
                    true => State::Maintaining(pin.clone()),
                    false => State::Serving(pin.clone()),
                };
                (next, Ok(pin))
            }
            Outcome::Keep(pin) => (State::Serving(pin.clone()), Ok(pin)),
            Outcome::Error(error) => {
                if self.fold {
                    self.metrics.counter("catalog.overlay.fold_failures").inc();
                }
                let failed = st
                    .state
                    .pin()
                    .cloned()
                    .map(|pin| State::Failed(pin, error.clone()));
                (failed.unwrap_or(State::Empty), Err(error))
            }
        };
        let held = next.claimed();
        let replaced = st.transition(next);
        self.ended = !held;
        drop(st);
        drop(replaced);
        sched::notify_all(&self.slot.maintenance_done);
        ended
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if !self.ended {
            let panicked = CubeStoreError::Build("maintenance panicked".to_string());
            let _ = self.end(Outcome::Error(panicked));
        }
    }
}

/// Builds `schema`'s cube from `source` and publishes it: the first build
/// (`Fresh`, no reason) and every fold, on a background thread or the
/// caller's. The epoch is read *before* the build, so a mutation racing
/// it is caught up by the next serve rather than skipped. A free function
/// because the fold thread outlives any `&self` borrow.
fn run_fold(
    claim: Claim,
    schema: &CubeSchema,
    source: &dyn Endpoint,
    strategy: MaintenanceStrategy,
    reason: Option<RebuildReason>,
    background: bool,
) -> Result<CubeSnapshot, CubeStoreError> {
    let started = Instant::now();
    let target_epoch = source.epoch();
    let built = {
        let _span = obs::span(match reason {
            Some(_) => "catalog.fold",
            None => "catalog.fresh-build",
        });
        let _rebuild_span = reason.is_some().then(|| obs::span("catalog.rebuild"));
        MaterializedCube::from_endpoint(source, schema)
    };
    let outcome = built.map(Arc::new).map(|cube| {
        let (from_epoch, old_live, old_members) =
            claim.pinned.as_ref().map_or((target_epoch, 0, 0), |old| {
                (
                    old.epoch(),
                    old.cube().live_row_count(),
                    member_total(old.cube()),
                )
            });
        let window = started.elapsed();
        let report = MaintenanceReport {
            dataset: schema.dataset.clone(),
            strategy,
            reason,
            duration: window,
            from_epoch,
            to_epoch: target_epoch,
            deltas_applied: 0,
            rows_appended: cube.live_row_count().saturating_sub(old_live),
            rows_removed: old_live.saturating_sub(cube.live_row_count()),
            members_added: member_total(&cube).saturating_sub(old_members),
            overlap: background.then_some(window),
        };
        Outcome::Pin(CubeSnapshot::folded(cube, target_epoch), report)
    });
    claim
        .publish(outcome.unwrap_or_else(Outcome::Error))
        .map(|(pin, _)| pin)
}

/// Pins [`CubeCatalog::serve_settled`] takes before it catches up on the
/// caller's thread instead of waiting for another fold.
const SETTLE_ATTEMPTS: usize = 8;

/// A shared catalog of live materialized cubes, keyed by dataset IRI.
///
/// Cheap to share (`Arc<CubeCatalog>`); the Querying and Exploration
/// modules of one tool instance hold the same catalog so they serve from
/// one columnar representation. The catalog map is held only to find or
/// create a dataset's slot, and a slot's lock only for pins and publish
/// swaps, so a multi-second rebuild of one dataset delays only
/// [`Self::serve_settled`], never a [`Self::serve_snapshot`] or another
/// dataset.
#[derive(Default)]
pub struct CubeCatalog {
    inner: Mutex<BTreeMap<Iri, Arc<Slot>>>,
    metrics: Arc<MetricsRegistry>,
}

impl CubeCatalog {
    /// Creates an empty catalog with its own metrics registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry every serve/refresh decision reports into. The
    /// querying module and explorer of the same tool instance share it,
    /// so one snapshot covers the whole serve path.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Returns a pinned [`CubeSnapshot`] for `schema`'s dataset **without
    /// ever waiting on maintenance** once the dataset is built — the
    /// catalog's one read path. The first call enables change tracking on
    /// the endpoint and builds the cube inline. Later calls compare the
    /// endpoint's epoch with the pin's and, when the store moved, catch up
    /// without blocking the reader:
    ///
    /// * appliable deltas are **accreted inline** in O(delta), and this
    ///   serve returns the caught-up snapshot ([`MaintenanceStrategy::Delta`]).
    ///   A replay whose store moved meanwhile (counted in
    ///   `catalog.overlay.torn_replays`) runs once more against the frozen
    ///   [`sparql::Endpoint::background_handle`]; without one, this serve
    ///   returns the current pin (a stale serve);
    /// * structural changes (refused delta, change-log gap, a replay that
    ///   shrank the cube) and tombstones past [`COMPACTION_LIVE_FRACTION`]
    ///   go through one **fold**, a rebuild from scratch on a background
    ///   thread over the frozen handle; until it publishes, serves return
    ///   the stale-but-consistent pin (`catalog.overlay.stale_serves`
    ///   counts them, the `catalog.overlay.lag` gauge says how far behind).
    ///   Endpoints without a handle fold on the caller's thread and get
    ///   the fresh snapshot.
    pub fn serve_snapshot(
        &self,
        endpoint: &dyn Endpoint,
        schema: &CubeSchema,
    ) -> Result<CubeSnapshot, CubeStoreError> {
        let _snapshot_span = obs::span("catalog.serve-snapshot");
        self.metrics.counter("catalog.overlay.serve_calls").inc();
        let slot = self.slot(&schema.dataset);
        sched::yield_point("claim");
        let mut st = slot.state.lock();
        while let State::Building = st.state {
            // Another caller builds the first cube: nothing to serve yet.
            st = sched::wait(&slot.maintenance_done, &slot.state, st);
        }
        if let Some(pinned) = st.state.pin().cloned() {
            let lag = endpoint.epoch().saturating_sub(pinned.epoch());
            self.metrics.gauge("catalog.overlay.lag").set(lag as f64);
            if lag == 0 {
                self.metrics.counter("catalog.overlay.hits").inc();
                return Ok(pinned);
            }
            if st.state.claimed() {
                // Maintenance already in flight: serve the stale pin
                // rather than wait for it.
                self.metrics.counter("catalog.overlay.stale_serves").inc();
                return Ok(pinned);
            }
        }
        let claim = self.claim(&slot, &mut st);
        drop(st);
        self.catch_up(claim, endpoint, schema, true)
    }

    /// A pinned snapshot that is **settled**: at the store's current epoch
    /// with no maintenance in flight — what library callers that must read
    /// their own writes use (`QueryingModule::materialize` and
    /// `snapshot_settled`, the catalog-backed explorer).
    ///
    /// Pins through [`Self::serve_snapshot`] and waits for maintenance in
    /// flight; a stale pin pins again, and a failed fold (or maintenance
    /// that panicked) is returned as the error rather than waited for.
    /// After eight pins of a store that keeps moving, the catch-up runs on
    /// the caller's thread. A failed compaction of a current pin is no
    /// error: the pin serves the accreted cube.
    pub fn serve_settled(
        &self,
        endpoint: &dyn Endpoint,
        schema: &CubeSchema,
    ) -> Result<CubeSnapshot, CubeStoreError> {
        let slot = self.slot(&schema.dataset);
        for _ in 0..SETTLE_ATTEMPTS {
            let stale = self.serve_snapshot(endpoint, schema)?.epoch() != endpoint.epoch();
            let st = slot.idle();
            match &st.state {
                // The slot's newest pin, not the one just served: a
                // compaction that landed since publishes at the same epoch.
                State::Serving(pin) | State::Failed(pin, _) if !stale => return Ok(pin.clone()),
                State::Failed(_, error) => return Err(error.clone()),
                _ => {}
            }
        }
        let mut st = slot.idle();
        if let Some(pin) = st.state.pin().filter(|pin| pin.epoch() == endpoint.epoch()) {
            return Ok(pin.clone());
        }
        let claim = self.claim(&slot, &mut st);
        drop(st);
        self.catch_up(claim, endpoint, schema, false)
    }

    /// Takes the free claim of `slot`: `Empty→Building`, or
    /// `Serving`/`Failed→Maintaining` over the served pin.
    fn claim(&self, slot: &Arc<Slot>, st: &mut SlotState) -> Claim {
        let pinned = st.state.pin().cloned();
        drop(st.transition(pinned.clone().map_or(State::Building, State::Maintaining)));
        Claim {
            slot: slot.clone(),
            metrics: self.metrics.clone(),
            pinned,
            fold: false,
            ended: false,
        }
    }

    /// Brings the claimed slot up to the store's epoch, holding no lock:
    /// builds it first when there is no pin; else replays appliable deltas
    /// onto the pinned cube inline and publishes the result, or folds — on
    /// a background thread when `background` is allowed and the endpoint
    /// offers a handle, inline otherwise.
    fn catch_up(
        &self,
        claim: Claim,
        endpoint: &dyn Endpoint,
        schema: &CubeSchema,
        background: bool,
    ) -> Result<CubeSnapshot, CubeStoreError> {
        let Some(pinned) = claim.pinned.clone() else {
            endpoint.enable_change_tracking();
            return run_fold(
                claim,
                schema,
                endpoint,
                MaintenanceStrategy::Fresh,
                None,
                false,
            );
        };
        let from_epoch = pinned.epoch();
        let started = Instant::now();
        let mut frozen: Option<Arc<dyn Endpoint + Send + Sync>> = None;
        let accreted = loop {
            let source = frozen.as_ref().map_or(endpoint, |handle| handle.as_ref());
            let caught_up = source.epoch();
            let Some(mut deltas) = endpoint.deltas_since(from_epoch) else {
                break Err(RebuildReason::ChangeLogGap);
            };
            deltas.retain(|d| d.epoch <= caught_up);
            let replayed = {
                let _accrete_span = obs::span("catalog.overlay-accrete");
                pinned.cube().apply_delta(&deltas, source)
            };
            if replayed.is_ok() && source.epoch() != caught_up {
                // The star read may have seen a later write: no pin mixes
                // two epochs. Replay once more against a frozen snapshot;
                // without one, keep serving the current pin.
                self.metrics.counter("catalog.overlay.torn_replays").inc();
                if frozen.is_none() {
                    frozen = endpoint.background_handle();
                    if frozen.is_some() {
                        continue;
                    }
                }
                self.metrics.counter("catalog.overlay.stale_serves").inc();
                return claim.publish(Outcome::Keep(pinned)).map(|(pin, _)| pin);
            }
            break match replayed {
                Ok(replayed) => replay_growth(pinned.cube(), &replayed)
                    .map(|growth| (Arc::new(replayed), caught_up, deltas.len(), growth)),
                Err(CubeStoreError::DeltaUnsupported(refusal)) => {
                    Err(RebuildReason::DeltaRefused(refusal))
                }
                Err(other) => Err(RebuildReason::Error(other.to_string())),
            };
        };
        let (replayed, caught_up, deltas_applied, (rows, tombstones, members)) = match accreted {
            Ok(accreted) => accreted,
            Err(reason) => {
                // Structural change (or a mis-merged replay): fold.
                let strategy = MaintenanceStrategy::Rebuild;
                return self
                    .fold(claim, endpoint, schema, strategy, reason, background)
                    .unwrap_or_else(|| {
                        self.metrics.counter("catalog.overlay.stale_serves").inc();
                        Ok(pinned)
                    });
            }
        };
        let report = MaintenanceReport {
            dataset: schema.dataset.clone(),
            strategy: MaintenanceStrategy::Delta,
            reason: None,
            duration: started.elapsed(),
            from_epoch,
            to_epoch: caught_up,
            deltas_applied,
            rows_appended: rows,
            rows_removed: tombstones,
            members_added: members,
            overlap: None,
        };
        let since_fold = pinned.since_fold().accreted(&report);
        let accreted = CubeSnapshot::new(replayed, caught_up, since_fold);
        let (snapshot, inherited) = claim.publish(Outcome::Pin(accreted, report))?;
        let Some(claim) = inherited else {
            return Ok(snapshot);
        };
        // Tombstones dominate: the compaction inherits the claim, and
        // readers keep the accreted cube until the compacted one lands.
        let reason = RebuildReason::LowLiveFraction {
            live_rows: snapshot.cube().live_row_count(),
            total_rows: snapshot.cube().row_count(),
        };
        let strategy = MaintenanceStrategy::Compaction;
        self.fold(claim, endpoint, schema, strategy, reason, background)
            .unwrap_or(Ok(snapshot))
    }

    /// Runs [`run_fold`] on a spawned thread over the endpoint's frozen
    /// background handle (`None`: the result lands in the slot later), or
    /// on the caller's thread when `background` is off or the endpoint has
    /// no handle (`Some`: the folded snapshot or the error). The fold
    /// inherits the caller's claim.
    fn fold(
        &self,
        mut claim: Claim,
        endpoint: &dyn Endpoint,
        schema: &CubeSchema,
        strategy: MaintenanceStrategy,
        reason: RebuildReason,
        background: bool,
    ) -> Option<Result<CubeSnapshot, CubeStoreError>> {
        self.metrics.counter("catalog.overlay.folds_started").inc();
        claim.fold = true;
        // Asked for only when used: a handle can be a copy of the store.
        let handle = if background {
            endpoint.background_handle()
        } else {
            None
        };
        match handle {
            Some(handle) => {
                let schema = schema.clone();
                sched::spawn(move || {
                    // The outcome lands in the slot: a new pin, or the
                    // error `serve_settled` surfaces.
                    let _ = run_fold(
                        claim,
                        &schema,
                        handle.as_ref(),
                        strategy,
                        Some(reason),
                        true,
                    );
                });
                None
            }
            None => Some(run_fold(
                claim,
                schema,
                endpoint,
                strategy,
                Some(reason),
                false,
            )),
        }
    }

    /// The currently pinned snapshot of a dataset, without refreshing or
    /// waiting — exactly what a concurrent [`Self::serve_snapshot`] would
    /// be handed if the store had not moved. `None` until the first build
    /// completes.
    pub fn current_snapshot(&self, dataset: &Iri) -> Option<CubeSnapshot> {
        self.existing_slot(dataset)
            .and_then(|slot| slot.state.lock().state.pin().cloned())
    }

    /// True while a maintenance claim (first build, accretion, or fold)
    /// is in flight for the dataset.
    pub fn maintenance_in_flight(&self, dataset: &Iri) -> bool {
        self.existing_slot(dataset)
            .is_some_and(|slot| slot.state.lock().state.claimed())
    }

    /// Blocks until no maintenance is in flight for the dataset. Tests,
    /// benches and oracles use this to fence "fold-then-serve" against the
    /// background fold; serving paths never need it.
    pub fn wait_for_maintenance(&self, dataset: &Iri) {
        if let Some(slot) = self.existing_slot(dataset) {
            drop(slot.idle());
        }
    }

    /// Finds or creates a dataset's slot, holding the map lock only for
    /// the lookup.
    fn slot(&self, dataset: &Iri) -> Arc<Slot> {
        self.inner
            .lock()
            .entry(dataset.clone())
            .or_default()
            .clone()
    }

    /// A dataset's slot if one exists, without creating it.
    fn existing_slot(&self, dataset: &Iri) -> Option<Arc<Slot>> {
        self.inner.lock().get(dataset).cloned()
    }

    /// The maintenance history of a dataset (oldest first, capped at
    /// [`ReportLog::CAPACITY`]).
    pub fn reports(&self, dataset: &Iri) -> Vec<MaintenanceReport> {
        self.existing_slot(dataset)
            .map(|slot| slot.state.lock().reports.to_vec())
            .unwrap_or_default()
    }

    /// The most recent maintenance report of a dataset.
    pub fn last_report(&self, dataset: &Iri) -> Option<MaintenanceReport> {
        self.existing_slot(dataset)
            .and_then(|slot| slot.state.lock().reports.last().cloned())
    }

    /// The datasets currently materialized.
    pub fn datasets(&self) -> Vec<Iri> {
        self.inner.lock().keys().cloned().collect()
    }

    /// The cube currently served for a dataset, without refreshing it.
    /// Useful for inspection; consumers should go through
    /// [`Self::serve_snapshot`] or [`Self::serve_settled`].
    pub fn peek(&self, dataset: &Iri) -> Option<Arc<MaterializedCube>> {
        self.current_snapshot(dataset).map(|pin| pin.cube().clone())
    }
}

impl std::fmt::Debug for CubeCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CubeCatalog")
            .field("datasets", &self.datasets())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::panic::AssertUnwindSafe;

    use qb4olap::AggregateFunction;
    use rdf::Term;
    use sparql::{ConservativeEndpoint, LocalEndpoint};

    use crate::executor::CubeQuery;
    use crate::overlay::SinceFold;
    use crate::testutil::{
        fixture, iri, member, observation_triples, run, structure_triple, Fault, Probe,
    };

    use super::*;

    fn setup() -> (LocalEndpoint, qb4olap::CubeSchema, CubeCatalog) {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        (endpoint, schema, CubeCatalog::new())
    }

    /// The settled cube, as library callers read it.
    fn served(
        catalog: &CubeCatalog,
        endpoint: &dyn Endpoint,
        schema: &CubeSchema,
    ) -> Arc<MaterializedCube> {
        catalog
            .serve_settled(endpoint, schema)
            .unwrap()
            .cube()
            .clone()
    }

    #[test]
    fn first_serve_materializes_and_enables_tracking() {
        let (endpoint, schema, catalog) = setup();
        assert!(!endpoint.store().change_log_enabled());
        let cube = served(&catalog, &endpoint, &schema);
        assert_eq!(cube.row_count(), 5);
        assert!(endpoint.store().change_log_enabled());
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(report.strategy, MaintenanceStrategy::Fresh);
        assert_eq!(report.rows_appended, 5);
        assert!(
            report.overlap.is_none(),
            "caller-thread build: no overlap window"
        );
        assert_eq!(catalog.datasets(), vec![schema.dataset.clone()]);
        assert!(catalog.peek(&schema.dataset).is_some());
    }

    #[test]
    fn unchanged_store_serves_the_same_cube_without_queries() {
        let (endpoint, schema, catalog) = setup();
        let first = served(&catalog, &endpoint, &schema);
        let queries = endpoint.queries_executed();
        let second = served(&catalog, &endpoint, &schema);
        assert!(Arc::ptr_eq(&first, &second), "same shared columns");
        assert_eq!(endpoint.queries_executed(), queries, "no SPARQL issued");
        assert_eq!(
            catalog.reports(&schema.dataset).len(),
            1,
            "no refresh recorded"
        );
    }

    #[test]
    fn observation_append_refreshes_via_the_delta_path() {
        let (endpoint, schema, catalog) = setup();
        let stale = served(&catalog, &endpoint, &schema);
        endpoint
            .insert_triples(&observation_triples("o6", "c1", "m1", 3, 3))
            .unwrap();

        let fresh = served(&catalog, &endpoint, &schema);
        assert!(!Arc::ptr_eq(&stale, &fresh));
        assert_eq!(fresh.row_count(), 6);
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(report.strategy, MaintenanceStrategy::Delta);
        assert_eq!(report.rows_appended, 1);
        assert_eq!(report.deltas_applied, 1);
        assert!(report.reason.is_none());
        assert!(report.to_epoch > report.from_epoch);

        // The refreshed cube serves the new value.
        let query = CubeQuery {
            rollups: BTreeMap::from([(iri("dim/city"), iri("lv/country"))]),
            ..CubeQuery::default()
        };
        let cells = run(&fresh, &query).unwrap().into_cells();
        let k1m1 = cells
            .iter()
            .find(|c| c.coordinates == vec![member("K1"), member("m1")])
            .unwrap();
        assert_eq!(k1m1.values[0], Some(Term::integer(13)), "10 + 3");

        // Serving again without further mutation reuses the refreshed cube.
        let again = served(&catalog, &endpoint, &schema);
        assert!(Arc::ptr_eq(&fresh, &again));
    }

    #[test]
    fn unappliable_deltas_fall_back_to_a_reported_rebuild() {
        let (endpoint, schema, catalog) = setup();
        served(&catalog, &endpoint, &schema);
        // A structure triple: the one change the delta path refuses.
        endpoint.insert_triples(&[structure_triple()]).unwrap();
        let fresh = served(&catalog, &endpoint, &schema);
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(report.strategy, MaintenanceStrategy::Rebuild);
        let reason = report.reason.unwrap();
        assert!(
            matches!(&reason, RebuildReason::DeltaRefused(_)),
            "{reason}"
        );
        assert!(
            reason.to_string().contains("structure triple inserted"),
            "{reason}"
        );
        let scratch = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        assert_eq!(
            run(&fresh, &CubeQuery::default()).unwrap(),
            run(&scratch, &CubeQuery::default()).unwrap()
        );
    }

    #[test]
    fn change_log_gaps_fall_back_to_a_rebuild() {
        let (endpoint, schema, catalog) = setup();
        served(&catalog, &endpoint, &schema);
        // Drop the log out from under the catalog, then mutate.
        endpoint.store().disable_change_log();
        endpoint
            .insert_triples(&observation_triples("o6", "c2", "m2", 2, 2))
            .unwrap();
        let fresh = served(&catalog, &endpoint, &schema);
        assert_eq!(fresh.row_count(), 6);
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(report.strategy, MaintenanceStrategy::Rebuild);
        assert_eq!(report.reason, Some(RebuildReason::ChangeLogGap));
        assert!(report.reason.unwrap().to_string().contains("change log"));
    }

    #[test]
    fn tombstoned_removal_refreshes_via_the_delta_path() {
        let (endpoint, schema, catalog) = setup();
        served(&catalog, &endpoint, &schema);
        // Remove one observation completely, in one batch → one delta
        // (observation_triples yields exactly the six triples the fixture
        // observation was built from).
        let removed = endpoint
            .store()
            .remove_all(&observation_triples("o3", "c2", "m1", 5, 1));
        assert_eq!(removed, 6);
        let fresh = served(&catalog, &endpoint, &schema);
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(report.strategy, MaintenanceStrategy::Delta);
        assert_eq!(report.rows_removed, 1);
        assert_eq!(report.rows_appended, 0);
        assert!(report.reason.is_none());
        assert_eq!(fresh.live_row_count(), 4);
        assert_eq!(fresh.tombstoned_rows(), 1);
        // The removed observation's cell is gone from query results.
        let query = CubeQuery {
            rollups: BTreeMap::from([(iri("dim/city"), iri("lv/country"))]),
            ..CubeQuery::default()
        };
        assert!(!run(&fresh, &query)
            .unwrap()
            .into_cells()
            .iter()
            .any(|c| c.coordinates == vec![member("K2"), member("m1")]));
    }

    #[test]
    fn partial_observation_removal_refreshes_via_the_delta_path() {
        use rdf::Triple;

        let (endpoint, schema, catalog) = setup();
        served(&catalog, &endpoint, &schema);
        // Strip ONE measure value of o3 — previously an unappliable
        // partial removal (rebuild); now the row tombstones and the
        // fragment is recorded as dropped, all in O(delta).
        let o3 = Term::iri("http://example.org/obs/o3");
        assert!(endpoint.store().remove(&Triple::new(
            o3.clone(),
            iri("measure/value"),
            rdf::Literal::integer(5)
        )));
        let fresh = served(&catalog, &endpoint, &schema);
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(report.strategy, MaintenanceStrategy::Delta);
        assert_eq!(report.rows_removed, 1);
        assert!(report.reason.is_none());
        assert_eq!(fresh.live_row_count(), 4);
        assert_eq!(fresh.tombstoned_rows(), 1);
        assert!(!fresh.is_observation(&o3));
        // The fragment's cell is gone from query results.
        let query = CubeQuery {
            rollups: BTreeMap::from([(iri("dim/city"), iri("lv/country"))]),
            ..CubeQuery::default()
        };
        assert!(!run(&fresh, &query)
            .unwrap()
            .into_cells()
            .iter()
            .any(|c| c.coordinates == vec![member("K2"), member("m1")]));
    }

    #[test]
    fn accumulated_tombstones_trigger_a_reported_compaction() {
        let (endpoint, schema, catalog) = setup();
        served(&catalog, &endpoint, &schema);
        // Remove three of the five observations (each as one whole-batch
        // delta): live 2/5 < the 0.5 threshold, so the serve accretes the
        // tombstones, notices the fraction and compacts; the settled serve
        // waits for the compacted cube.
        for (name, city, month, value, score) in [
            ("o1", "c1", "m1", 10, 4),
            ("o3", "c2", "m1", 5, 1),
            ("o4", "c3", "m1", 100, 9),
        ] {
            let removed = endpoint
                .store()
                .remove_all(&observation_triples(name, city, month, value, score));
            assert_eq!(removed, 6);
        }
        let fresh = served(&catalog, &endpoint, &schema);
        let reports = catalog.reports(&schema.dataset);
        let [.., accreted, compacted] = reports.as_slice() else {
            panic!("expected an accretion and a compaction: {reports:?}");
        };
        assert_eq!(accreted.strategy, MaintenanceStrategy::Delta);
        assert_eq!(accreted.rows_removed, 3);
        assert_eq!(compacted.strategy, MaintenanceStrategy::Compaction);
        assert_eq!(
            compacted.reason,
            Some(RebuildReason::LowLiveFraction {
                live_rows: 2,
                total_rows: 5
            })
        );
        // The compacted cube is dense again: no tombstones, 2 physical rows.
        assert_eq!(fresh.row_count(), 2);
        assert_eq!(fresh.tombstoned_rows(), 0);
        // Compaction rebuilds the zone maps from scratch: they cover only
        // the surviving rows and pass the exact-recomputation checker.
        fresh.verify_zone_invariants().unwrap();
        assert_eq!(fresh.zone_maps().rows(), 2);
        assert_eq!(run(&fresh, &CubeQuery::default()).unwrap().len(), 2);
    }

    fn dummy_report(from_epoch: u64) -> MaintenanceReport {
        MaintenanceReport {
            dataset: iri("dataset/sales"),
            strategy: MaintenanceStrategy::Delta,
            reason: None,
            duration: Duration::from_micros(from_epoch),
            from_epoch,
            to_epoch: from_epoch + 1,
            deltas_applied: 1,
            rows_appended: 1,
            rows_removed: 0,
            members_added: 0,
            overlap: None,
        }
    }

    #[test]
    fn report_log_evicts_oldest_first_at_capacity() {
        let mut log = ReportLog::new();
        assert!(log.is_empty());
        let overflow = 10;
        for epoch in 0..(ReportLog::CAPACITY + overflow) as u64 {
            log.push(dummy_report(epoch));
        }
        assert_eq!(log.len(), ReportLog::CAPACITY, "capped at capacity");
        let reports = log.to_vec();
        assert_eq!(
            reports.first().unwrap().from_epoch,
            overflow as u64,
            "the oldest reports were evicted first"
        );
        assert_eq!(
            reports.last().unwrap().from_epoch,
            (ReportLog::CAPACITY + overflow - 1) as u64,
            "the newest report is retained"
        );
        assert_eq!(
            log.last().unwrap().from_epoch,
            reports.last().unwrap().from_epoch
        );
        // Order inside the ring is strictly oldest → newest.
        assert!(reports
            .windows(2)
            .all(|w| w[0].from_epoch + 1 == w[1].from_epoch));
    }

    #[test]
    fn serve_report_retention_is_capped_via_the_ring() {
        let (endpoint, schema, catalog) = setup();
        served(&catalog, &endpoint, &schema);
        for round in 0..(ReportLog::CAPACITY + 5) {
            endpoint
                .insert_triples(&observation_triples(
                    &format!("ring{round}"),
                    "c1",
                    "m1",
                    1,
                    1,
                ))
                .unwrap();
            served(&catalog, &endpoint, &schema);
        }
        let reports = catalog.reports(&schema.dataset);
        assert_eq!(reports.len(), ReportLog::CAPACITY);
        // All retained refreshes are the appends — the Fresh build aged out.
        assert!(reports
            .iter()
            .all(|r| r.strategy == MaintenanceStrategy::Delta));
    }

    #[test]
    fn serve_decisions_feed_the_metrics_registry() {
        let (endpoint, schema, catalog) = setup();
        served(&catalog, &endpoint, &schema);
        // Delta append, then a refused delta (structure triple) → rebuild.
        endpoint
            .insert_triples(&observation_triples("o6", "c1", "m1", 3, 3))
            .unwrap();
        served(&catalog, &endpoint, &schema);
        endpoint.insert_triples(&[structure_triple()]).unwrap();
        served(&catalog, &endpoint, &schema);
        // Unchanged serve → hit.
        served(&catalog, &endpoint, &schema);

        let snapshot = catalog.metrics().snapshot();
        assert_eq!(snapshot.counter("catalog.refresh.fresh"), 1);
        assert_eq!(snapshot.counter("catalog.refresh.delta"), 1);
        assert_eq!(snapshot.counter("catalog.refresh.rebuild"), 1);
        assert_eq!(snapshot.counter("catalog.refresh.compaction"), 0);
        assert_eq!(snapshot.counter("catalog.refusal.schema-structure"), 1);
        // The rebuild's settled serve pins twice: stale, then folded.
        assert_eq!(snapshot.counter("catalog.overlay.serve_calls"), 5);
        assert_eq!(snapshot.counter("catalog.overlay.hits"), 2);
        assert_eq!(snapshot.gauge("catalog.live_fraction"), Some(1.0));
        let refresh = snapshot.histogram("catalog.refresh.duration_ns").unwrap();
        assert_eq!(refresh.count, 3, "fresh + delta + rebuild all timed");
    }

    #[test]
    fn serve_emits_a_nested_span_tree() {
        let collector = Arc::new(obs::CollectingSubscriber::new());
        obs::with_subscriber(collector.clone(), || {
            let (endpoint, schema, catalog) = setup();
            catalog.serve_snapshot(&endpoint, &schema).unwrap();
            endpoint
                .insert_triples(&observation_triples("o6", "c1", "m1", 3, 3))
                .unwrap();
            catalog.serve_snapshot(&endpoint, &schema).unwrap();
            // No background handle: the fold runs under the serve.
            let conservative = ConservativeEndpoint::with_epochs(endpoint.clone());
            endpoint
                .insert_triples(&observation_triples("o7", "c2", "m2", 2, 2))
                .unwrap();
            catalog.serve_snapshot(&conservative, &schema).unwrap();
        });
        // The builds issue SPARQL queries, so sparql.parse/sparql.evaluate
        // spans appear nested (depth 2) under the build spans; the catalog
        // layer of the tree is what this test pins down.
        let records = collector.records();
        assert!(
            records
                .iter()
                .any(|r| r.name.starts_with("sparql.") && r.depth == 2),
            "endpoint spans nest under the build spans"
        );
        let spans: Vec<(&str, usize)> = records
            .iter()
            .filter(|r| r.name.starts_with("catalog."))
            .map(|r| (r.name, r.depth))
            .collect();
        assert_eq!(
            spans,
            vec![
                ("catalog.serve-snapshot", 0),
                ("catalog.fresh-build", 1),
                ("catalog.serve-snapshot", 0),
                ("catalog.overlay-accrete", 1),
                ("catalog.serve-snapshot", 0),
                ("catalog.fold", 1),
                ("catalog.rebuild", 2),
            ],
            "each serve span contains its refresh-path span"
        );
    }

    #[test]
    fn conservative_snapshot_endpoint_pins_the_first_build() {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        let conservative = ConservativeEndpoint::new(endpoint);
        let catalog = CubeCatalog::new();

        let first = served(&catalog, &conservative, &schema);
        assert_eq!(first.row_count(), 5);
        assert_eq!(
            catalog.last_report(&schema.dataset).unwrap().strategy,
            MaintenanceStrategy::Fresh
        );

        // Mutate through the wrapper: the store really moves, but the
        // snapshot-mode epoch stays 0, so the catalog must keep serving
        // the original build — never a delta, never a rebuild.
        conservative
            .insert_triples(&observation_triples("o6", "c1", "m1", 3, 3))
            .unwrap();
        assert!(conservative.inner().epoch() > 0, "the store itself moved");

        let second = served(&catalog, &conservative, &schema);
        assert!(Arc::ptr_eq(&first, &second), "pinned to the first build");
        assert_eq!(second.row_count(), 5, "the mutation stays invisible");
        assert_eq!(
            catalog.reports(&schema.dataset).len(),
            1,
            "no refresh was ever attempted"
        );
    }

    #[test]
    fn conservative_epoch_endpoint_degrades_to_rebuild_per_change() {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        let conservative = ConservativeEndpoint::with_epochs(endpoint);
        let catalog = CubeCatalog::new();
        served(&catalog, &conservative, &schema);

        // Two separate mutations, two serves: every epoch change must
        // degrade to a change-log-gap rebuild — the wrapper reports
        // movement but never surfaces deltas.
        for (round, obs) in [("o6", 6usize), ("o7", 7)] {
            conservative
                .insert_triples(&observation_triples(round, "c2", "m2", 2, 2))
                .unwrap();
            let fresh = served(&catalog, &conservative, &schema);
            assert_eq!(fresh.row_count(), obs, "the rebuild sees every row");
            let report = catalog.last_report(&schema.dataset).unwrap();
            assert_eq!(report.strategy, MaintenanceStrategy::Rebuild);
            assert_eq!(report.reason, Some(RebuildReason::ChangeLogGap));
            assert_eq!(report.deltas_applied, 0);

            // Degraded, not wrong: the rebuilt cube matches a from-scratch
            // materialization of the same store.
            let scratch = MaterializedCube::from_endpoint(&conservative, &schema).unwrap();
            assert_eq!(
                run(&fresh, &CubeQuery::default()).unwrap(),
                run(&scratch, &CubeQuery::default()).unwrap()
            );
        }
        assert!(
            catalog
                .reports(&schema.dataset)
                .iter()
                .all(|r| r.strategy != MaintenanceStrategy::Delta),
            "the delta path must be unreachable through a conservative endpoint"
        );
    }

    // ---- snapshot serving ----------------------------------------------

    #[test]
    fn serve_snapshot_accretes_appends_into_an_overlay() {
        let (endpoint, schema, catalog) = setup();
        let built = catalog.serve_snapshot(&endpoint, &schema).unwrap();
        endpoint
            .insert_triples(&observation_triples("o6", "c1", "m1", 3, 3))
            .unwrap();

        let snapshot = catalog.serve_snapshot(&endpoint, &schema).unwrap();
        snapshot.verify_consistent().unwrap();
        let since = snapshot.since_fold();
        assert_eq!((since.rows, since.tombstones, since.deltas), (1, 0, 1));
        assert_eq!(
            since.fold_epoch,
            built.epoch(),
            "no fold since the first build"
        );
        assert_eq!(built.cube().row_count(), 5, "the earlier pin is untouched");
        assert_eq!(snapshot.cube().row_count(), 6);
        assert_eq!(snapshot.epoch(), endpoint.epoch());
        let line = snapshot.plan_line();
        assert!(line.starts_with("OVERLAY rows=1 "), "{line}");
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(report.strategy, MaintenanceStrategy::Delta);
        assert_eq!(report.rows_appended, 1);
        assert!(report.overlap.is_none());

        // Accreted results are bit-identical to fold-then-serve (a scratch
        // materialization of the same store state).
        let scratch = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        assert_eq!(
            run(snapshot.cube(), &CubeQuery::default()).unwrap(),
            run(&scratch, &CubeQuery::default()).unwrap()
        );
        // A settled serve sees the caught-up pin as fresh state: it serves
        // the accreted cube as a hit rather than folding eagerly.
        assert!(Arc::ptr_eq(
            &served(&catalog, &endpoint, &schema),
            snapshot.cube()
        ));
    }

    #[test]
    fn overlay_accretion_is_cumulative_until_a_fold() {
        let (endpoint, schema, catalog) = setup();
        served(&catalog, &endpoint, &schema);
        endpoint
            .insert_triples(&observation_triples("o6", "c1", "m1", 3, 3))
            .unwrap();
        let first = catalog.serve_snapshot(&endpoint, &schema).unwrap();
        endpoint
            .insert_triples(&observation_triples("o7", "c2", "m2", 2, 2))
            .unwrap();
        let second = catalog.serve_snapshot(&endpoint, &schema).unwrap();

        // The first pin is immutable: still 6 rows at its epoch.
        first.verify_consistent().unwrap();
        assert_eq!(first.cube().row_count(), 6);
        // The second accreted on top: same fold epoch, summed record.
        second.verify_consistent().unwrap();
        assert_eq!(second.cube().row_count(), 7);
        let since = second.since_fold();
        assert_eq!(
            since.fold_epoch,
            first.since_fold().fold_epoch,
            "no fold between"
        );
        assert_eq!(since.rows, 2, "cumulative since the fold");
        assert_eq!(since.deltas, 2);
        assert!(second.epoch() > first.epoch());
    }

    #[test]
    fn a_pin_keeps_its_cube_and_plan_line_across_accretions_and_a_fold() {
        let (endpoint, schema, catalog) = setup();
        served(&catalog, &endpoint, &schema);
        endpoint
            .insert_triples(&observation_triples("o6", "c1", "m1", 3, 3))
            .unwrap();
        let pinned = catalog.serve_snapshot(&endpoint, &schema).unwrap();
        let (cube, line) = (pinned.cube().clone(), pinned.plan_line());
        assert!(line.starts_with("OVERLAY rows=1 "), "{line}");

        // Two more accretions, then a structural change folds.
        for name in ["o7", "o8"] {
            endpoint
                .insert_triples(&observation_triples(name, "c2", "m2", 2, 2))
                .unwrap();
            catalog.serve_snapshot(&endpoint, &schema).unwrap();
        }
        endpoint.insert_triples(&[structure_triple()]).unwrap();
        let folded = served(&catalog, &endpoint, &schema);
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(report.strategy, MaintenanceStrategy::Rebuild);
        assert_eq!(folded.row_count(), 8);

        assert!(
            Arc::ptr_eq(pinned.cube(), &cube),
            "the pin still holds its own cube"
        );
        assert_eq!(pinned.cube().row_count(), 6);
        assert_eq!(pinned.plan_line(), line, "and its own plan line");
        pinned.verify_consistent().unwrap();
        let current = catalog.current_snapshot(&schema.dataset).unwrap();
        assert_eq!(current.plan_line(), "OVERLAY none");
    }

    #[test]
    fn a_replay_that_shrinks_the_cube_is_a_fold_reason() {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        let smaller = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        endpoint
            .insert_triples(&observation_triples("o6", "c1", "m1", 3, 3))
            .unwrap();
        let larger = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        assert_eq!(replay_growth(&smaller, &larger), Ok((1, 0, 0)));
        // The roles swapped: the shape a mis-merged replay would produce.
        let Err(RebuildReason::Error(detail)) = replay_growth(&larger, &smaller) else {
            panic!("a shrinking replay must be refused");
        };
        assert!(detail.contains("row-count underflow"), "{detail}");

        // Members are no such check: a replay that re-reads the hierarchy
        // may remove some, and the report counts the net gain, none here.
        assert!(endpoint
            .store()
            .remove(&qb4olap::member_of_triple(&member("m2"), &iri("lv/month"))));
        let fewer_members = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        assert!(member_total(&fewer_members) < member_total(&smaller));
        assert_eq!(replay_growth(&smaller, &fewer_members), Ok((1, 0, 0)));
    }

    #[test]
    fn unchanged_store_pins_the_same_snapshot_without_maintenance() {
        let (endpoint, schema, catalog) = setup();
        let first = catalog.serve_snapshot(&endpoint, &schema).unwrap();
        let report_count = catalog.reports(&schema.dataset).len();
        let second = catalog.serve_snapshot(&endpoint, &schema).unwrap();
        assert!(Arc::ptr_eq(first.cube(), second.cube()));
        assert_eq!(catalog.reports(&schema.dataset).len(), report_count);
        let metrics = catalog.metrics().snapshot();
        assert_eq!(metrics.counter("catalog.overlay.hits"), 1);
        assert_eq!(metrics.gauge("catalog.overlay.lag"), Some(0.0));
    }

    #[test]
    fn structural_change_folds_in_the_background_and_serves_stale() {
        let (endpoint, schema, catalog) = setup();
        served(&catalog, &endpoint, &schema);
        let before_epoch = endpoint.epoch();
        // A structure triple, refused by the delta classifier.
        endpoint.insert_triples(&[structure_triple()]).unwrap();

        let stale = catalog.serve_snapshot(&endpoint, &schema).unwrap();
        // The reader was never blocked: it got the pre-mutation pin.
        stale.verify_consistent().unwrap();
        assert_eq!(stale.epoch(), before_epoch);
        assert_eq!(stale.cube().row_count(), 5);

        catalog.wait_for_maintenance(&schema.dataset);
        let fresh = catalog.current_snapshot(&schema.dataset).unwrap();
        assert_eq!(fresh.plan_line(), "OVERLAY none");
        assert_eq!(fresh.since_fold().fold_epoch, endpoint.epoch());
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(report.strategy, MaintenanceStrategy::Rebuild);
        assert!(
            matches!(&report.reason, Some(RebuildReason::DeltaRefused(_))),
            "{:?}",
            report.reason
        );
        assert!(
            report.overlap.is_some(),
            "background fold records its window"
        );
        // The folded base matches a scratch materialization.
        let scratch = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        assert_eq!(
            run(fresh.cube(), &CubeQuery::default()).unwrap(),
            run(&scratch, &CubeQuery::default()).unwrap()
        );
        let metrics = catalog.metrics().snapshot();
        assert_eq!(metrics.counter("catalog.overlay.folds_started"), 1);
        assert_eq!(metrics.counter("catalog.overlay.folds"), 1);
        assert_eq!(metrics.counter("catalog.overlay.fold_failures"), 0);
    }

    #[test]
    fn overlay_past_the_compaction_threshold_compacts_in_the_background() {
        let (endpoint, schema, catalog) = setup();
        served(&catalog, &endpoint, &schema);
        for (name, city, month, value, score) in [
            ("o1", "c1", "m1", 10, 4),
            ("o3", "c2", "m1", 5, 1),
            ("o4", "c3", "m1", 100, 9),
        ] {
            endpoint
                .store()
                .remove_all(&observation_triples(name, city, month, value, score));
        }
        // The snapshot path accretes the tombstones inline and returns
        // immediately — compaction happens behind it.
        let snapshot = catalog.serve_snapshot(&endpoint, &schema).unwrap();
        snapshot.verify_consistent().unwrap();
        assert_eq!(snapshot.since_fold().tombstones, 3);
        assert_eq!(snapshot.cube().live_row_count(), 2);
        assert_eq!(snapshot.cube().tombstoned_rows(), 3);

        catalog.wait_for_maintenance(&schema.dataset);
        // Both decisions were recorded: the inline accretion first, the
        // background compaction after (read only after the fence — the
        // fold thread may finish arbitrarily fast).
        assert!(catalog
            .reports(&schema.dataset)
            .iter()
            .any(|r| r.strategy == MaintenanceStrategy::Delta));
        let compacted = catalog.current_snapshot(&schema.dataset).unwrap();
        assert_eq!(
            compacted.since_fold(),
            SinceFold::folded_at(compacted.epoch())
        );
        assert_eq!(compacted.cube().row_count(), 2, "dead rows reclaimed");
        assert_eq!(compacted.cube().tombstoned_rows(), 0);
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(report.strategy, MaintenanceStrategy::Compaction);
        assert!(matches!(
            report.reason,
            Some(RebuildReason::LowLiveFraction {
                live_rows: 2,
                total_rows: 5
            })
        ));
        assert!(report.overlap.is_some());
        // Identical results before and after the background compaction.
        assert_eq!(
            run(snapshot.cube(), &CubeQuery::default()).unwrap(),
            run(compacted.cube(), &CubeQuery::default()).unwrap()
        );
    }

    #[test]
    fn conservative_endpoint_degrades_snapshot_serving_to_blocking() {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        let conservative = ConservativeEndpoint::with_epochs(endpoint);
        let catalog = CubeCatalog::new();
        catalog.serve_snapshot(&conservative, &schema).unwrap();
        conservative
            .insert_triples(&observation_triples("o6", "c2", "m2", 2, 2))
            .unwrap();
        // No background handle: the epoch change degrades to an inline
        // blocking rebuild — fresh, not stale.
        let snapshot = catalog.serve_snapshot(&conservative, &schema).unwrap();
        assert_eq!(snapshot.plan_line(), "OVERLAY none");
        assert_eq!(snapshot.cube().row_count(), 6);
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(report.strategy, MaintenanceStrategy::Rebuild);
        assert!(report.overlap.is_none(), "inline fallback, no stale window");
        assert!(!catalog.maintenance_in_flight(&schema.dataset));
    }

    #[test]
    fn snapshot_refreshes_feed_the_overlay_metrics() {
        let (endpoint, schema, catalog) = setup();
        catalog.serve_snapshot(&endpoint, &schema).unwrap();
        endpoint
            .insert_triples(&observation_triples("o6", "c1", "m1", 3, 3))
            .unwrap();
        catalog.serve_snapshot(&endpoint, &schema).unwrap();
        catalog.serve_snapshot(&endpoint, &schema).unwrap();

        let metrics = catalog.metrics().snapshot();
        assert_eq!(metrics.counter("catalog.overlay.serve_calls"), 3);
        assert_eq!(metrics.counter("catalog.overlay.accretions"), 1);
        assert_eq!(metrics.counter("catalog.refresh.delta"), 1);
        assert_eq!(metrics.counter("catalog.overlay.hits"), 1);
        assert_eq!(metrics.gauge("catalog.overlay.rows"), Some(1.0));
        assert_eq!(metrics.counter("catalog.overlay.folds_started"), 0);
    }

    /// A delegating endpoint whose background handles fail every query
    /// while `broken` is set: folds fail, inline work succeeds.
    struct BrokenFolds {
        inner: LocalEndpoint,
        broken: Arc<std::sync::atomic::AtomicBool>,
        handle: bool,
    }

    impl Endpoint for BrokenFolds {
        fn query(&self, sparql: &str) -> Result<sparql::QueryResults, sparql::SparqlError> {
            if self.handle && self.broken.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(sparql::SparqlError::Endpoint(
                    "fold handle down".to_string(),
                ));
            }
            self.inner.query(sparql)
        }

        fn insert_triples(&self, triples: &[rdf::Triple]) -> Result<usize, sparql::SparqlError> {
            self.inner.insert_triples(triples)
        }

        fn insert_triples_named(
            &self,
            graph: &Iri,
            triples: &[rdf::Triple],
        ) -> Result<usize, sparql::SparqlError> {
            self.inner.insert_triples_named(graph, triples)
        }

        fn triple_count(&self) -> usize {
            self.inner.triple_count()
        }

        fn epoch(&self) -> u64 {
            self.inner.epoch()
        }

        fn deltas_since(&self, since: u64) -> Option<Vec<rdf::StoreDelta>> {
            self.inner.deltas_since(since)
        }

        fn enable_change_tracking(&self) {
            self.inner.enable_change_tracking();
        }

        fn background_handle(&self) -> Option<Arc<dyn Endpoint + Send + Sync>> {
            Some(Arc::new(BrokenFolds {
                inner: LocalEndpoint::with_store(self.inner.store().snapshot()),
                broken: self.broken.clone(),
                handle: true,
            }))
        }
    }

    /// A delegating endpoint that lands the next of `writes` in the store
    /// whenever a star read (`VALUES ?obs`) comes in: a write between a
    /// replay's `deltas_since` and its read. With `frozen` it hands out
    /// the inner endpoint's background handle, a snapshot no write lands
    /// in.
    struct TornRead {
        inner: LocalEndpoint,
        writes: Mutex<VecDeque<Vec<rdf::Triple>>>,
        frozen: bool,
    }

    impl TornRead {
        fn new(frozen: bool) -> (TornRead, CubeSchema) {
            let (inner, schema) = fixture(AggregateFunction::Sum);
            let writes = Mutex::new(VecDeque::new());
            (
                TornRead {
                    inner,
                    writes,
                    frozen,
                },
                schema,
            )
        }
    }

    impl Endpoint for TornRead {
        fn query(&self, sparql: &str) -> Result<sparql::QueryResults, sparql::SparqlError> {
            if sparql.contains("VALUES ?obs") {
                let write = self.writes.lock().pop_front();
                if let Some(write) = write {
                    self.inner.insert_triples(&write)?;
                }
            }
            self.inner.query(sparql)
        }

        fn insert_triples(&self, triples: &[rdf::Triple]) -> Result<usize, sparql::SparqlError> {
            self.inner.insert_triples(triples)
        }

        fn insert_triples_named(
            &self,
            graph: &Iri,
            triples: &[rdf::Triple],
        ) -> Result<usize, sparql::SparqlError> {
            self.inner.insert_triples_named(graph, triples)
        }

        fn triple_count(&self) -> usize {
            self.inner.triple_count()
        }

        fn epoch(&self) -> u64 {
            self.inner.epoch()
        }

        fn deltas_since(&self, since: u64) -> Option<Vec<rdf::StoreDelta>> {
            self.inner.deltas_since(since)
        }

        fn enable_change_tracking(&self) {
            self.inner.enable_change_tracking();
        }

        fn background_handle(&self) -> Option<Arc<dyn Endpoint + Send + Sync>> {
            self.frozen
                .then(|| self.inner.background_handle())
                .flatten()
        }
    }

    /// o6 without its city, and the city: the city landing during the
    /// replay of the rest is a torn read.
    fn o6_and_its_city() -> (Vec<rdf::Triple>, rdf::Triple) {
        let mut o6 = observation_triples("o6", "c1", "m2", 40, 2);
        let city = o6.remove(2);
        (o6, city)
    }

    /// Asserts that a pin equals a fresh build over `store`.
    fn assert_pin_is_a_build_of(pin: &CubeSnapshot, store: rdf::Store, schema: &CubeSchema) {
        assert_eq!(pin.epoch(), store.epoch());
        let fresh = MaterializedCube::from_endpoint(&LocalEndpoint::with_store(store), schema);
        assert_eq!(
            run(pin.cube(), &CubeQuery::default()).unwrap(),
            run(&fresh.unwrap(), &CubeQuery::default()).unwrap()
        );
    }

    #[test]
    fn a_write_landing_before_the_star_read_is_not_published() {
        // No frozen snapshot to replay against: the serve keeps the
        // current pin.
        let (torn, schema) = TornRead::new(false);
        let catalog = CubeCatalog::new();
        let built = catalog.serve_snapshot(&torn, &schema).unwrap();
        let at_pin = torn.inner.store().snapshot();

        let (o6, city) = o6_and_its_city();
        torn.inner.insert_triples(&o6).unwrap();
        *torn.writes.lock() = VecDeque::from([vec![city]]);
        let pin = catalog.serve_snapshot(&torn, &schema).unwrap();
        assert_eq!(
            pin.epoch(),
            built.epoch(),
            "the torn replay is not published"
        );
        assert_pin_is_a_build_of(&pin, at_pin, &schema);
        let metrics = catalog.metrics().snapshot();
        assert_eq!(metrics.counter("catalog.overlay.torn_replays"), 1);
        assert_eq!(metrics.counter("catalog.overlay.stale_serves"), 1);
        assert_eq!(metrics.counter("catalog.refresh.delta"), 0);
        assert!(!catalog.maintenance_in_flight(&schema.dataset));

        // The next serve replays every write.
        let settled = catalog.serve_settled(&torn, &schema).unwrap();
        let o6 = Term::iri("http://example.org/obs/o6");
        assert!(settled.cube().is_observation(&o6));
        assert_eq!(
            settled
                .cube()
                .dimension_column(&iri("dim/city"))
                .unwrap()
                .unbound_rows(),
            0
        );
        assert_pin_is_a_build_of(&settled, torn.inner.store().snapshot(), &schema);
    }

    #[test]
    fn a_torn_replay_runs_again_over_a_frozen_snapshot() {
        // The city lands under the live replay; the second replay reads
        // the background handle, which the next write cannot reach, and
        // publishes at its epoch.
        let (torn, schema) = TornRead::new(true);
        let catalog = CubeCatalog::new();
        let built = catalog.serve_snapshot(&torn, &schema).unwrap();

        let (o6, city) = o6_and_its_city();
        torn.inner.insert_triples(&o6).unwrap();
        let late = observation_triples("o7", "c2", "m1", 3, 3);
        *torn.writes.lock() = VecDeque::from([vec![city], late]);
        let pin = catalog.serve_snapshot(&torn, &schema).unwrap();
        assert!(pin.epoch() > built.epoch(), "the frozen replay publishes");
        assert_pin_is_a_build_of(&pin, torn.inner.store().snapshot(), &schema);
        let metrics = catalog.metrics().snapshot();
        assert_eq!(metrics.counter("catalog.overlay.torn_replays"), 1);
        assert_eq!(metrics.counter("catalog.overlay.stale_serves"), 0);
        assert_eq!(metrics.counter("catalog.refresh.delta"), 1);
        assert_eq!(
            torn.writes.lock().len(),
            1,
            "no write landed in the snapshot"
        );
    }

    #[test]
    fn a_failed_fold_serves_stale_then_surfaces_and_recovers() {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        let broken = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let flaky = BrokenFolds {
            inner: endpoint,
            broken: broken.clone(),
            handle: false,
        };
        let catalog = CubeCatalog::new();
        let built = catalog.serve_snapshot(&flaky, &schema).unwrap();
        flaky.inner.insert_triples(&[structure_triple()]).unwrap();

        // The refused delta hands off to a fold that fails: readers keep
        // the stale pin, the failure is counted and the claim released.
        let stale = catalog.serve_snapshot(&flaky, &schema).unwrap();
        assert_eq!(stale.epoch(), built.epoch());
        catalog.wait_for_maintenance(&schema.dataset);
        let metrics = catalog.metrics().snapshot();
        assert_eq!(metrics.counter("catalog.overlay.fold_failures"), 1);
        assert_eq!(metrics.counter("catalog.overlay.folds"), 0);
        assert!(!catalog.maintenance_in_flight(&schema.dataset));

        // A settled serve retries the fold once and returns its error.
        let started = Instant::now();
        let error = catalog.serve_settled(&flaky, &schema).unwrap_err();
        assert!(error.to_string().contains("fold handle down"), "{error}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "bounded, never hangs"
        );
        assert_eq!(
            catalog.current_snapshot(&schema.dataset).unwrap().epoch(),
            built.epoch()
        );

        // The next successful fold recovers.
        broken.store(false, std::sync::atomic::Ordering::SeqCst);
        let settled = catalog.serve_settled(&flaky, &schema).unwrap();
        assert_eq!(settled.epoch(), flaky.epoch());
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(report.strategy, MaintenanceStrategy::Rebuild);
        assert!(report.overlap.is_some(), "folded in the background");
        let scratch = MaterializedCube::from_endpoint(&flaky.inner, &schema).unwrap();
        assert_eq!(
            run(settled.cube(), &CubeQuery::default()).unwrap(),
            run(&scratch, &CubeQuery::default()).unwrap()
        );
    }

    /// Runs `test` on its own thread and fails when it has not returned
    /// within ten seconds: a hang fails the test instead of stalling it.
    fn within_bounded_time(test: impl FnOnce() + Send + 'static) {
        use std::sync::mpsc::RecvTimeoutError;
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            test();
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(10)) {
            Ok(()) => worker.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().unwrap_err())
            }
            Err(RecvTimeoutError::Timeout) => panic!("the test hung"),
        }
    }

    /// Serves through `serve` and expects the endpoint's panic to unwind
    /// out of it, leaving no claim held.
    fn panics_through(catalog: &CubeCatalog, schema: &CubeSchema, serve: impl FnOnce()) {
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(serve));
        assert!(
            unwound.is_err(),
            "the endpoint's panic unwinds through the serve"
        );
        assert!(
            !catalog.maintenance_in_flight(&schema.dataset),
            "the claim is released"
        );
    }

    #[test]
    fn a_replay_whose_star_read_panics_fails_the_slot_then_recovers() {
        within_bounded_time(|| {
            let (probe, schema) =
                Probe::new(|sparql, on_a_handle| on_a_handle || sparql.contains("VALUES ?obs"));
            let catalog = CubeCatalog::new();
            let built = catalog.serve_snapshot(&probe, &schema).unwrap();
            probe
                .insert_triples(&observation_triples("o6", "c1", "m1", 3, 3))
                .unwrap();
            *probe.fault.lock() = Fault::Panic;
            panics_through(&catalog, &schema, || {
                let _ = catalog.serve_snapshot(&probe, &schema);
            });
            assert_eq!(
                catalog.current_snapshot(&schema.dataset).unwrap().epoch(),
                built.epoch()
            );
            // With the endpoint down, a settled serve claims again, and
            // returns the fold's error instead of waiting.
            *probe.fault.lock() = Fault::Error;
            let error = catalog.serve_settled(&probe, &schema).unwrap_err();
            assert!(
                error.to_string().contains("the endpoint is down"),
                "{error}"
            );
            assert!(!catalog.maintenance_in_flight(&schema.dataset));

            *probe.fault.lock() = Fault::None;
            let settled = catalog.serve_settled(&probe, &schema).unwrap();
            assert_pin_is_a_build_of(&settled, probe.inner.store().snapshot(), &schema);
        });
    }

    #[test]
    fn a_first_build_that_panics_leaves_the_slot_empty_then_recovers() {
        within_bounded_time(|| {
            let (probe, schema) = Probe::new(|_, _| true);
            let catalog = CubeCatalog::new();
            *probe.fault.lock() = Fault::Panic;
            panics_through(&catalog, &schema, || {
                let _ = catalog.serve_settled(&probe, &schema);
            });
            assert!(catalog.current_snapshot(&schema.dataset).is_none());
            *probe.fault.lock() = Fault::Error;
            let error = catalog.serve_settled(&probe, &schema).unwrap_err();
            assert!(
                error.to_string().contains("the endpoint is down"),
                "{error}"
            );
            assert!(!catalog.maintenance_in_flight(&schema.dataset));

            *probe.fault.lock() = Fault::None;
            let settled = catalog.serve_settled(&probe, &schema).unwrap();
            assert_pin_is_a_build_of(&settled, probe.inner.store().snapshot(), &schema);
            let report = catalog.last_report(&schema.dataset).unwrap();
            assert_eq!(report.strategy, MaintenanceStrategy::Fresh);
        });
    }

    #[test]
    fn a_fold_whose_build_panics_fails_the_slot_then_recovers() {
        within_bounded_time(|| {
            let (probe, schema) = Probe::new(|_, on_a_handle| on_a_handle);
            let catalog = CubeCatalog::new();
            let built = catalog.serve_snapshot(&probe, &schema).unwrap();
            probe.insert_triples(&[structure_triple()]).unwrap();
            *probe.fault.lock() = Fault::Panic;
            // The background fold panics: the reader keeps the stale pin
            // and the failure is counted once.
            assert_eq!(
                catalog.serve_snapshot(&probe, &schema).unwrap().epoch(),
                built.epoch()
            );
            catalog.wait_for_maintenance(&schema.dataset);
            assert!(!catalog.maintenance_in_flight(&schema.dataset));
            let metrics = catalog.metrics().snapshot();
            assert_eq!(metrics.counter("catalog.overlay.fold_failures"), 1);
            assert_eq!(metrics.counter("catalog.overlay.folds"), 0);
            // A settled serve retries the fold and returns its panic.
            let error = catalog.serve_settled(&probe, &schema).unwrap_err();
            assert!(error.to_string().contains("panicked"), "{error}");
            assert_eq!(
                catalog
                    .metrics()
                    .snapshot()
                    .counter("catalog.overlay.fold_failures"),
                2
            );

            *probe.fault.lock() = Fault::None;
            let settled = catalog.serve_settled(&probe, &schema).unwrap();
            assert_pin_is_a_build_of(&settled, probe.inner.store().snapshot(), &schema);
        });
    }

    #[test]
    fn architecture_restates_the_transition_table() {
        let doc = include_str!("../../../ARCHITECTURE.md");
        let table = doc
            .split("<!-- transitions -->")
            .nth(1)
            .and_then(|rest| rest.split("<!-- /transitions -->").next())
            .expect("ARCHITECTURE.md marks the transition table");
        let rows: Vec<(String, String)> = table
            .lines()
            .filter(|line| line.starts_with("| `"))
            .map(|line| {
                let names: Vec<&str> = line.split('`').skip(1).step_by(2).take(2).collect();
                (names[0].to_string(), names[1].to_string())
            })
            .collect();
        let code: Vec<(String, String)> = TRANSITIONS
            .iter()
            .map(|(from, to)| (format!("{from:?}"), format!("{to:?}")))
            .collect();
        assert_eq!(rows, code, "ARCHITECTURE.md's rows, in the code's order");
    }
}

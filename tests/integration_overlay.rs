//! The overlay / background-fold consistency gates (ISSUE 9, ARCHITECTURE.md
//! §"Overlay & background fold").
//!
//! Snapshot serving promises two things at once: **reads never wait on
//! maintenance** (appliable deltas accrete onto the pinned cube inline,
//! structural changes fold on a background thread while the current pin
//! keeps serving) and **every pin is bit-identical** to a cube built from
//! scratch at the pin's epoch. These tests attack both promises:
//!
//! * a concurrency stress test races N readers against a mutating writer
//!   and the background fold threads, checking every pinned snapshot
//!   against a scratch-materialized oracle at exactly that epoch — a cube
//!   whose components disagree on its row count, or a lost/duplicated row,
//!   fails the run;
//! * a slow-endpoint regression test forces a structural rebuild that takes
//!   hundreds of milliseconds and asserts concurrent snapshot serving stays
//!   at pin cost throughout (the serve path may hold the slot lock only for
//!   pin/swap-sized sections).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cubestore::{
    execute, CubeCatalog, CubeQuery, ExecOptions, MaintenanceStrategy, MaterializedCube,
    QueryOutput,
};
use qb4olap::CubeSchema;
use qlsmith::fixture::{firi, fuzz_cube};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparql::{Endpoint, LocalEndpoint, Query, QueryResults, SparqlError};

/// The query battery every pin is checked with: the bottom-level cube and a
/// two-dimension roll-up (an accreted cube must extend roll-up maps, not
/// just raw columns).
fn battery() -> Vec<CubeQuery> {
    vec![
        CubeQuery::default(),
        CubeQuery {
            rollups: BTreeMap::from([
                (firi("dim/geo"), firi("lv/country")),
                (firi("dim/time"), firi("lv/quarter")),
            ]),
            ..CubeQuery::default()
        },
    ]
}

/// The battery's outputs on one cube.
fn run_battery(cube: &MaterializedCube) -> Vec<QueryOutput> {
    battery()
        .iter()
        .map(|q| {
            execute(cube, q, &ExecOptions::default(), None)
                .expect("execute")
                .0
        })
        .collect()
}

/// The oracle: a scratch materialization of the endpoint's *current* state,
/// run through the battery. Callers must guarantee the store does not
/// mutate while this runs (the writer thread is the sole mutator and calls
/// this between its own mutations).
fn scratch_oracle(endpoint: &dyn Endpoint, schema: &CubeSchema) -> Vec<QueryOutput> {
    run_battery(&MaterializedCube::from_endpoint(endpoint, schema).expect("scratch build"))
}

#[test]
fn concurrent_readers_match_the_scratch_oracle_at_every_pinned_epoch() {
    const READERS: usize = 4;
    const WRITER_STEPS: usize = 48;

    let mut cube = fuzz_cube();
    cube.endpoint.enable_change_tracking();
    let schema = cube.schema.clone();
    let endpoint = cube.endpoint.clone();
    let catalog = CubeCatalog::new();

    // Every epoch the writer produces maps to the battery outputs of a
    // scratch cube at exactly that epoch. Readers spin until the entry for
    // their pinned epoch appears (the writer records it right after the
    // mutation, but a reader can pin the new epoch first).
    let expected: Mutex<HashMap<u64, Vec<QueryOutput>>> = Mutex::new(HashMap::new());
    expected
        .lock()
        .unwrap()
        .insert(endpoint.epoch(), scratch_oracle(&endpoint, &schema));

    let first = catalog
        .serve_snapshot(&endpoint, &schema)
        .expect("first build");
    first.verify_consistent().expect("first pin");
    assert_eq!(
        first.plan_line(),
        "OVERLAY none",
        "a fresh build has accreted nothing"
    );

    let done = AtomicBool::new(false);
    let pins = AtomicUsize::new(0);
    let accreted_pins = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let expected = &expected;
        let done = &done;
        let pins = &pins;
        let accreted_pins = &accreted_pins;
        let catalog = &catalog;
        let schema = &schema;

        // The writer: appends (delta-appliable), removals (tombstone
        // deltas), ragged-link toggles (hierarchy deltas) and dangling
        // structure triples (delta refusals that force background
        // rebuilds), each followed by its oracle entry.
        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x0E11A);
            for step in 0..WRITER_STEPS {
                match step % 8 {
                    5 => cube.add_dangling_structure(),
                    6 => cube.toggle_ragged_link(),
                    7 => {
                        cube.remove_observation(&mut rng);
                    }
                    _ => cube.append_observation(&mut rng),
                }
                let epoch = cube.endpoint.epoch();
                let outputs = scratch_oracle(&cube.endpoint, schema);
                expected.lock().unwrap().insert(epoch, outputs);
                std::thread::sleep(Duration::from_millis(1));
            }
            done.store(true, Ordering::SeqCst);
        });

        for _ in 0..READERS {
            let endpoint = endpoint.clone();
            scope.spawn(move || {
                let check_pin = || {
                    let snapshot = catalog
                        .serve_snapshot(&endpoint, schema)
                        .expect("serve_snapshot");
                    snapshot.verify_consistent().expect("pinned snapshot");
                    pins.fetch_add(1, Ordering::Relaxed);
                    if snapshot.since_fold().deltas > 0 {
                        accreted_pins.fetch_add(1, Ordering::Relaxed);
                    }
                    let epoch = snapshot.epoch();
                    let actual = run_battery(snapshot.cube());
                    loop {
                        if let Some(outputs) = expected.lock().unwrap().get(&epoch) {
                            assert_eq!(
                                &actual, outputs,
                                "pinned snapshot diverged from the scratch oracle at epoch {epoch}"
                            );
                            break;
                        }
                        // The map is complete once the writer is done, so a
                        // missing entry then means the catalog served an
                        // epoch the store never had.
                        assert!(
                            !done.load(Ordering::SeqCst),
                            "pinned epoch {epoch} was never produced by the writer"
                        );
                        std::thread::yield_now();
                    }
                };
                while !done.load(Ordering::SeqCst) {
                    check_pin();
                }
                // One more pin after the writer stopped, so every reader
                // also checks a quiescent state.
                check_pin();
            });
        }
    });

    // Convergence: once maintenance drains, the pin is current and matches
    // the final oracle entry.
    let settled = catalog.serve_settled(&endpoint, &schema).expect("settled");
    assert_eq!(
        settled.epoch(),
        endpoint.epoch(),
        "catalog settles at the store epoch"
    );
    assert_eq!(
        Some(&run_battery(settled.cube())),
        expected.lock().unwrap().get(&endpoint.epoch()),
        "settled snapshot matches the final oracle entry"
    );

    // The run must actually have exercised the machinery, not just hit.
    assert!(
        pins.load(Ordering::Relaxed) >= READERS * 2,
        "readers barely ran"
    );
    assert!(
        accreted_pins.load(Ordering::Relaxed) > 0,
        "no reader ever saw an accreted pin"
    );
    let strategies: Vec<MaintenanceStrategy> = catalog
        .reports(&schema.dataset)
        .iter()
        .map(|r| r.strategy)
        .collect();
    assert!(
        strategies.contains(&MaintenanceStrategy::Delta),
        "appends must accrete onto the pin: {strategies:?}"
    );
    assert!(
        strategies.contains(&MaintenanceStrategy::Rebuild),
        "dangling structure triples must force rebuilds: {strategies:?}"
    );
    let metrics = catalog.metrics().snapshot();
    assert!(metrics.counter("catalog.overlay.accretions") > 0);
    assert!(metrics.counter("catalog.overlay.folds_started") > 0);
    assert_eq!(
        metrics.counter("catalog.overlay.folds") + metrics.counter("catalog.overlay.fold_failures"),
        metrics.counter("catalog.overlay.folds_started"),
        "every fold must land or be counted as failed"
    );
    assert_eq!(metrics.counter("catalog.overlay.fold_failures"), 0);
}

/// A delegating endpoint whose query paths sleep: materializing through it
/// is slow, and so is the frozen handle it gives background folds — which
/// opens a wide window during which snapshot serving must stay at pin cost.
struct SlowEndpoint {
    inner: LocalEndpoint,
    delay: Duration,
}

impl Endpoint for SlowEndpoint {
    fn query(&self, sparql: &str) -> Result<QueryResults, SparqlError> {
        std::thread::sleep(self.delay);
        self.inner.query(sparql)
    }

    fn query_parsed(&self, query: &Query) -> Result<QueryResults, SparqlError> {
        std::thread::sleep(self.delay);
        self.inner.query_parsed(query)
    }

    fn insert_triples(&self, triples: &[rdf::Triple]) -> Result<usize, SparqlError> {
        self.inner.insert_triples(triples)
    }

    fn insert_triples_named(
        &self,
        graph: &rdf::Iri,
        triples: &[rdf::Triple],
    ) -> Result<usize, SparqlError> {
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
        Some(Arc::new(SlowEndpoint {
            inner: LocalEndpoint::with_store(self.inner.store().snapshot()),
            delay: self.delay,
        }))
    }
}

#[test]
fn a_slow_background_fold_never_delays_snapshot_serving() {
    let mut cube = fuzz_cube();
    cube.endpoint.enable_change_tracking();
    let schema = cube.schema.clone();
    let slow = SlowEndpoint {
        inner: cube.endpoint.clone(),
        delay: Duration::from_millis(40),
    };
    let catalog = CubeCatalog::new();

    // First build goes through the slow path (nothing to serve yet), and
    // its battery outputs are the stale oracle for the fold window below.
    catalog.serve_snapshot(&slow, &schema).expect("first build");
    let stale_epoch = slow.epoch();
    let stale_outputs = scratch_oracle(&cube.endpoint, &schema);

    // A structural change: the structure-triple delta is refused, so the
    // next snapshot serve spawns a background rebuild over the slow handle.
    cube.add_dangling_structure();
    let started = Instant::now();
    let pin = catalog.serve_snapshot(&slow, &schema).expect("stale pin");
    let first_pin = started.elapsed();
    assert!(
        first_pin < Duration::from_millis(200),
        "the refusing serve must hand off to a background fold, not rebuild inline \
         (took {first_pin:?})"
    );
    assert_eq!(pin.epoch(), stale_epoch, "the pin is the stale entry");

    // While the fold grinds through its sleepy queries, every concurrent
    // serve must complete at pin cost and keep returning the consistent
    // stale state.
    let mut in_flight_pins = 0usize;
    let mut max_pin = Duration::ZERO;
    while catalog.maintenance_in_flight(&schema.dataset) && in_flight_pins < 10_000 {
        let t = Instant::now();
        let snapshot = catalog
            .serve_snapshot(&slow, &schema)
            .expect("in-flight pin");
        let elapsed = t.elapsed();
        max_pin = max_pin.max(elapsed);
        snapshot.verify_consistent().expect("in-flight pin");
        assert_eq!(
            snapshot.epoch(),
            stale_epoch,
            "stale-but-consistent during the fold"
        );
        assert_eq!(
            run_battery(snapshot.cube()),
            stale_outputs,
            "in-flight pins serve the stale oracle"
        );
        in_flight_pins += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    catalog.wait_for_maintenance(&schema.dataset);

    let report = catalog.last_report(&schema.dataset).expect("fold report");
    assert_eq!(report.strategy, MaintenanceStrategy::Rebuild);
    let overlap = report
        .overlap
        .expect("background folds record their overlap window");
    assert!(
        overlap >= slow.delay,
        "the fold must actually have gone through the slow handle ({overlap:?})"
    );
    assert!(
        max_pin < Duration::from_millis(200),
        "serving blocked on the fold: slowest pin {max_pin:?} during a {overlap:?} fold"
    );
    if in_flight_pins > 0 {
        assert!(
            in_flight_pins >= 3,
            "expected several pin-cost serves inside the fold window, got {in_flight_pins}"
        );
    }

    // The fold lands the structural change; results match scratch.
    let settled = catalog.serve_snapshot(&slow, &schema).expect("settled");
    assert_eq!(settled.epoch(), slow.epoch());
    assert_eq!(
        settled.plan_line(),
        "OVERLAY none",
        "a fold resets the record"
    );
    assert_eq!(
        run_battery(settled.cube()),
        scratch_oracle(&cube.endpoint, &schema)
    );
}

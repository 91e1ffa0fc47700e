//! The catalog under every schedule: each scenario runs two threads (and
//! the fold threads the catalog starts) through
//! [`crate::sched::explore::explore`], over every interleaving of the
//! catalog's scheduling points — claim, publish, wait, the fold spawn —
//! and the test endpoint's queries and writes, with at most
//! [`PREEMPTIONS`] preemptions. After each run it checks:
//!
//! * a reader's epochs never go backwards;
//! * every pin served, and the slot's last pin, equals a scratch build at
//!   its epoch (so a torn replay is never published);
//! * `serve_settled` returns the slot's newest pin;
//! * every fold started either landed or failed, and is counted once;
//! * the claim is released;
//! * no run ends with every live thread waiting (the explorer's own
//!   check).

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use qb4olap::CubeSchema;
use sparql::{Endpoint, LocalEndpoint};

use crate::catalog::CubeCatalog;
use crate::error::CubeStoreError;
use crate::executor::{CubeQuery, QueryOutput};
use crate::overlay::CubeSnapshot;
use crate::sched::explore::explore;
use crate::testutil::{observation_triples, run, structure_triple, Fault, Probe};
use crate::MaterializedCube;

/// The preemption bound every scenario is explored to.
const PREEMPTIONS: usize = 2;

/// One run's catalog over a built fixture, and every pin it served.
struct World {
    probe: Probe,
    schema: CubeSchema,
    catalog: CubeCatalog,
    pins: Mutex<Vec<CubeSnapshot>>,
}

impl World {
    /// Builds the fixture's cube, then lets `prepare` write (outside the
    /// schedule).
    fn new(faulted: fn(&str, bool) -> bool, prepare: impl FnOnce(&Probe)) -> World {
        let (probe, schema) = Probe::new(faulted);
        let catalog = CubeCatalog::new();
        catalog.serve_snapshot(&probe, &schema).unwrap();
        prepare(&probe);
        World {
            probe,
            schema,
            catalog,
            pins: Mutex::default(),
        }
    }

    /// A `serve_snapshot`, recorded.
    fn pin(&self) -> CubeSnapshot {
        let pin = self
            .catalog
            .serve_snapshot(&self.probe, &self.schema)
            .unwrap();
        self.pins.lock().push(pin.clone());
        pin
    }

    /// A `serve_settled`, recorded and checked against the slot's newest
    /// pin at once (no scheduling point lies between the two).
    fn settle(&self) -> Result<CubeSnapshot, CubeStoreError> {
        let settled = self.catalog.serve_settled(&self.probe, &self.schema)?;
        let newest = self.catalog.current_snapshot(&self.schema.dataset).unwrap();
        assert!(
            Arc::ptr_eq(settled.cube(), newest.cube()) && settled.epoch() == newest.epoch(),
            "serve_settled returned a pin at epoch {} over a cube the slot no longer serves \
             (the slot's newest is at epoch {})",
            settled.epoch(),
            newest.epoch()
        );
        self.pins.lock().push(settled.clone());
        Ok(settled)
    }

    fn counter(&self, name: &str) -> u64 {
        self.catalog.metrics().snapshot().counter(name)
    }
}

/// Explores `threads` over `setup`'s worlds; after each run, checks the
/// common invariants, then `check`. Returns the number of schedules.
fn explore_catalog(setup: fn() -> World, threads: &[fn(&World)], check: fn(&World)) -> usize {
    // Scratch builds by (epoch, triples): a scenario's writes land in one
    // order, so a store state recurs across runs.
    let scratch: Mutex<HashMap<(u64, usize), QueryOutput>> = Mutex::default();
    let scratch_at = |world: &World, epoch: u64| {
        let store = world.probe.store_at(epoch);
        let key = (epoch, store.len());
        if let Some(output) = scratch.lock().get(&key) {
            return output.clone();
        }
        let endpoint = LocalEndpoint::with_store(store);
        let cube = MaterializedCube::from_endpoint(&endpoint, &world.schema).unwrap();
        let output = run(&cube, &CubeQuery::default()).unwrap();
        scratch.lock().insert(key, output.clone());
        output
    };
    explore(PREEMPTIONS, setup, threads, |world| {
        let dataset = &world.schema.dataset;
        assert!(
            !world.catalog.maintenance_in_flight(dataset),
            "the claim is released"
        );
        let (started, landed, failed) = (
            world.counter("catalog.overlay.folds_started"),
            world.counter("catalog.overlay.folds"),
            world.counter("catalog.overlay.fold_failures"),
        );
        assert_eq!(
            started,
            landed + failed,
            "every fold lands or fails, counted once"
        );
        let last = world.catalog.current_snapshot(dataset).unwrap();
        for pin in world.pins.lock().iter().chain([&last]) {
            let served = run(pin.cube(), &CubeQuery::default()).unwrap();
            assert_eq!(
                served,
                scratch_at(world, pin.epoch()),
                "the pin at epoch {}",
                pin.epoch()
            );
        }
        check(world);
    })
}

/// A reader pins twice and settles (its epochs never go backwards) while
/// a writer appends an observation, pins, lands a structure triple and
/// settles, which folds on a background thread.
#[test]
fn reader_vs_writer_vs_background_fold() {
    let reader: fn(&World) = |world| {
        let first = world.pin();
        let second = world.pin();
        let settled = world.settle().unwrap();
        assert!(
            first.epoch() <= second.epoch() && second.epoch() <= settled.epoch(),
            "a reader's epochs never go back"
        );
    };
    let writer: fn(&World) = |world| {
        world
            .probe
            .insert_triples(&observation_triples("o6", "c1", "m1", 3, 3))
            .unwrap();
        world.pin();
        world.probe.insert_triples(&[structure_triple()]).unwrap();
        let settled = world.settle().unwrap();
        assert_eq!(
            settled.epoch(),
            world.probe.epoch(),
            "no write follows the settle"
        );
    };
    // Runs in which a write landed under a reader's replay: the schedules
    // must reach the torn path, not just pass around it.
    static TORN: AtomicU64 = AtomicU64::new(0);
    let schedules = explore_catalog(
        || World::new(|_, _| false, |_| {}),
        &[reader, writer],
        |world| {
            assert!(world.counter("catalog.overlay.folds") >= 1);
            let torn = world.counter("catalog.overlay.torn_replays");
            TORN.fetch_add(u64::from(torn > 0), Ordering::Relaxed);
        },
    );
    assert!(schedules >= 300, "{schedules} schedules");
    assert!(
        TORN.load(Ordering::Relaxed) > 0,
        "no schedule tore a replay"
    );
}

/// A settle and a reader race an accretion whose tombstones dominate:
/// the compaction publishes at the accretion's epoch, and the settle must
/// return it, not the accreted pin it served first.
#[test]
fn serve_settled_vs_a_same_epoch_compaction() {
    let settler: fn(&World) = |world| {
        world.settle().unwrap();
    };
    let reader: fn(&World) = |world| {
        world.pin();
    };
    let setup = || {
        World::new(
            |_, _| false,
            |probe| {
                for (name, city, month, value, score) in [
                    ("o1", "c1", "m1", 10, 4),
                    ("o3", "c2", "m1", 5, 1),
                    ("o4", "c3", "m1", 100, 9),
                ] {
                    let removed = probe
                        .inner
                        .store()
                        .remove_all(&observation_triples(name, city, month, value, score));
                    assert_eq!(removed, 6);
                }
                probe.record();
            },
        )
    };
    let schedules = explore_catalog(setup, &[settler, reader], |world| {
        let last = world
            .catalog
            .current_snapshot(&world.schema.dataset)
            .unwrap();
        assert_eq!(last.cube().tombstoned_rows(), 0, "compacted");
        assert_eq!(world.counter("catalog.refresh.compaction"), 1);
    });
    assert!(schedules >= 50, "{schedules} schedules");
}

/// A settle and a reader meet a structural change whose every fold
/// fails: the settle returns the fold's error, never waits for a fold
/// that is not coming, and the reader keeps the stale pin.
#[test]
fn serve_settled_vs_a_failing_fold() {
    let settler: fn(&World) = |world| {
        let error = world.settle().unwrap_err();
        assert!(
            error.to_string().contains("the endpoint is down"),
            "{error}"
        );
    };
    let reader: fn(&World) = |world| {
        world.pin();
    };
    let setup = || {
        World::new(
            |_, on_a_handle| on_a_handle,
            |probe| {
                *probe.fault.lock() = Fault::Error;
                probe.insert_triples(&[structure_triple()]).unwrap();
            },
        )
    };
    let schedules = explore_catalog(setup, &[settler, reader], |world| {
        assert_eq!(world.counter("catalog.overlay.folds"), 0);
        assert!(world.counter("catalog.overlay.fold_failures") >= 1);
        let last = world
            .catalog
            .current_snapshot(&world.schema.dataset)
            .unwrap();
        assert!(last.epoch() < world.probe.epoch(), "the stale pin stays");
    });
    assert!(schedules >= 100, "{schedules} schedules");
}

/// A reader pinning twice and a settle race a replay whose star read
/// panics once: the panic unwinds out of whichever serve ran it, the
/// others return (a pin, or the settle the panic as its error), and the
/// next serve recovers.
#[test]
fn reader_vs_a_panicking_replay() {
    let reader: fn(&World) = |world| {
        for _ in 0..2 {
            let _ = panic::catch_unwind(AssertUnwindSafe(|| world.pin()));
        }
    };
    let settler: fn(&World) = |world| {
        if let Ok(Err(error)) = panic::catch_unwind(AssertUnwindSafe(|| world.settle())) {
            assert!(
                error.to_string().contains("maintenance panicked"),
                "{error}"
            );
        }
    };
    let setup = || {
        World::new(
            |sparql, _| sparql.contains("VALUES ?obs"),
            |probe| {
                probe
                    .insert_triples(&observation_triples("o6", "c1", "m1", 3, 3))
                    .unwrap();
                *probe.fault.lock() = Fault::PanicOnce;
            },
        )
    };
    let schedules = explore_catalog(setup, &[reader, settler], |world| {
        assert_eq!(
            *world.probe.fault.lock(),
            Fault::None,
            "the star read panicked"
        );
        let recovered = world
            .catalog
            .serve_settled(&world.probe, &world.schema)
            .unwrap();
        assert_eq!(recovered.epoch(), world.probe.epoch());
        let scratch = MaterializedCube::from_endpoint(&world.probe.inner, &world.schema).unwrap();
        assert_eq!(
            run(recovered.cube(), &CubeQuery::default()).unwrap(),
            run(&scratch, &CubeQuery::default()).unwrap()
        );
    });
    assert!(schedules >= 20, "{schedules} schedules");
}

//! `serve-under-writes`: one reader connection over the selective list
//! beside one writer thread. The writer first appends batches on a 100 ms
//! schedule (the delta/overlay path), then forces structural background
//! folds with a dangling `qb4o:hasLevel` triple (the §E18 agitator), and
//! times each write until a `/ql` reply carries its epoch.

use std::time::{Duration, Instant};

use qb2olap::rdf::vocab::qb4o;
use qb2olap::rdf::{Term, Triple};
use qb2olap::Endpoint;
use qb2olap_bench::ObservationFactory;
use qb2olap_server::client::Client;

use crate::stats::{ms, Rng};
use crate::wire::{self, warm_up};
use crate::world::World;

const APPEND_PERIOD: Duration = Duration::from_millis(100);
pub const BATCH_OBSERVATIONS: usize = 20;
/// The append phase takes this share of the window; folds, one straight
/// after the other so that the reader always has one beside it, the rest.
pub const APPEND_SHARE: f64 = 0.4;
/// A write not visible after this many probes counts as failed.
const MAX_PROBES: usize = 200;

#[derive(Default)]
pub struct Report {
    pub reader: wire::Report,
    /// Insert start → first reply at the write's epoch, append phase.
    pub write_visible_ms: Vec<f64>,
    /// Structural insert → first reply at its epoch, i.e. fold published.
    pub fold_s: Vec<f64>,
    /// How late each append ran against its 100 ms schedule.
    pub lag_ms: Vec<f64>,
    /// The writer's own operations; the reader counts its own.
    pub attempted: u64,
    pub failed: u64,
}

struct Writer<'w> {
    world: &'w World,
    client: Client,
    probe: &'w str,
    report: Report,
}

impl Writer<'_> {
    /// Inserts `triples` and probes `/ql` until a reply is computed at their
    /// epoch or later; between probes waits for the fold the probe started.
    fn write_until_visible(&mut self, triples: &[Triple]) -> Option<Duration> {
        let endpoint = self.world.tool.endpoint();
        let started = Instant::now();
        endpoint.insert_triples(triples).expect("store insert");
        let written = endpoint.epoch();
        self.report.attempted += 1;
        for _ in 0..MAX_PROBES {
            let response = self.client.post("/ql", self.probe).ok()?;
            let epoch = response.header("x-qb2olap-epoch")?.parse::<u64>().ok()?;
            if response.status == 200 && epoch >= written {
                return Some(started.elapsed());
            }
            self.world.tool.wait_for_maintenance(&self.world.dataset);
        }
        None
    }

    fn record(&mut self, visible: Option<Duration>, fold: bool) {
        match visible {
            Some(d) if fold => self.report.fold_s.push(d.as_secs_f64()),
            Some(d) => self.report.write_visible_ms.push(ms(d)),
            None => self.report.failed += 1,
        }
    }

    fn run(&mut self, seed: u64, window: Duration) {
        let mut factory = ObservationFactory::new(
            self.world.tool.endpoint(),
            &self.world.dataset,
            &format!("qbbench/{seed}"),
        );
        // A seeded offset into the factory's round-robin member pools.
        factory.batch((Rng::new(seed).next() % 97) as usize);

        std::thread::sleep(warm_up(window));
        let started = Instant::now();
        let append_until = window.mul_f64(APPEND_SHARE);
        let mut due = started;
        while due.duration_since(started) < append_until {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            self.report.lag_ms.push(ms(due.elapsed()));
            let batch = factory.batch(BATCH_OBSERVATIONS);
            let visible = self.write_until_visible(&batch);
            self.record(visible, false);
            due += APPEND_PERIOD;
        }

        let mut last_fold = Duration::ZERO;
        for round in 0u64.. {
            // A fold that would end after the window is not started.
            if started.elapsed() + last_fold >= window {
                break;
            }
            let dangling = Triple::new(
                Term::iri(format!("http://example.org/qbbench/{seed}/dsd/{round}")),
                qb4o::has_level(),
                Term::iri(format!("http://example.org/qbbench/{seed}/level/{round}")),
            );
            let visible = self.write_until_visible(&[dangling]);
            last_fold = visible.unwrap_or(last_fold);
            self.record(visible, true);
        }
    }
}

/// Runs reader and writer together for `window` (after the warm-up).
pub fn run(world: &World, seed: u64, window: Duration) -> Report {
    let addr = world.server.addr();
    let reader_plan = wire::plan(world, &world.selective, &mut Rng::new(seed), false, false);
    let mut writer = Writer {
        world,
        client: Client::connect(addr).expect("writer connection"),
        probe: &world.selective[0].text,
        report: Report::default(),
    };
    let reader = std::thread::scope(|scope| {
        let reader = scope.spawn(|| wire::drive(addr, &reader_plan, warm_up(window), window));
        writer.run(seed, window);
        reader.join().expect("reader thread")
    });
    Report {
        reader,
        ..writer.report
    }
}

/// After the window: waits for maintenance, then requires every settled wire
/// body to equal the library body and the settled pin to be consistent.
/// Returns `(attempted, failed)`.
pub fn settled_check(world: &World) -> (u64, u64) {
    world.tool.wait_for_maintenance(&world.dataset);
    let mut client = Client::connect(world.server.addr()).expect("connect");
    let mut failed = 0;
    for query in &world.selective {
        let wire = client.post("/ql", &query.text);
        let same = wire
            .is_ok_and(|r| r.status == 200 && r.body == world.library_body(&query.text).as_bytes());
        if !same {
            eprintln!(
                "qbbench: settled wire body of {} differs from the library body",
                query.name
            );
            failed += 1;
        }
    }
    let snapshot = world.querying().snapshot_settled().expect("settled pin");
    let invariants = [
        snapshot.verify_consistent(),
        snapshot.cube().verify_zone_invariants(),
    ];
    for violated in invariants.iter().filter_map(|check| check.as_ref().err()) {
        eprintln!("qbbench: settled snapshot invariant violated: {violated}");
        failed += 1;
    }
    (world.selective.len() as u64 + 2, failed)
}

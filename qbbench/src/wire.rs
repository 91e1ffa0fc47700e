//! The closed-loop HTTP client and the two `wire-*` workloads. Closed loop:
//! an analyst waits for each reply before sending the next request, so each
//! connection has exactly one request in flight.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use qb2olap_server::client::Client;

use crate::stats::{ms, typical, Rng};
use crate::world::{Query, World};

/// Discarded before every measured window, so caches fill and the server's
/// lazily created per-dataset state exists.
pub fn warm_up(window: Duration) -> Duration {
    (window / 8).min(Duration::from_secs(1))
}

/// Every `EXPLORE_EVERY`th request of `wire-selective` is an exploration GET.
const EXPLORE_EVERY: usize = 5;

pub enum Request<'w> {
    /// POST `/ql`; `expected` is the library-side body when it is known.
    Ql {
        query: usize,
        text: &'w str,
        expected: Option<&'w str>,
    },
    /// GET an `/explore/*` path.
    Explore { path: &'w str, expected: &'w str },
}

/// One answered `/ql` request.
pub struct Sample {
    pub query: usize,
    /// Seconds from the start of the window to the send.
    pub at: f64,
    /// Send → full body read.
    pub latency_ms: f64,
}

#[derive(Default)]
pub struct Report {
    pub ql: Vec<Sample>,
    pub explore: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// From the start of the window to this connection's last reply.
    pub elapsed: Duration,
}

impl Report {
    pub fn merge(&mut self, other: Report) {
        self.ql.extend(other.ql);
        self.explore.extend(other.explore);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    pub fn ql_latencies(&self) -> Vec<f64> {
        self.ql.iter().map(|sample| sample.latency_ms).collect()
    }

    /// The latency of a typical request (`stats::typical` over the list's
    /// queries). `phases` are the boundaries, in seconds into the window,
    /// between stretches with different background load: each stretch is
    /// summarized on its own and weighted by its length, because a median
    /// across two loads jumps between them just as one across queries does.
    pub fn typical_latency_ms(&self, phases: &[f64]) -> f64 {
        let end = self.elapsed.as_secs_f64();
        let edges: Vec<f64> = [0.0]
            .iter()
            .chain(phases)
            .copied()
            .chain([f64::INFINITY])
            .collect();
        let (mut weighted, mut weight) = (0.0, 0.0);
        for edge in edges.windows(2) {
            let stretch = self.ql.iter().filter(|s| s.at >= edge[0] && s.at < edge[1]);
            if let Some(latency) = typical(stretch.map(|s| (s.query, s.latency_ms))) {
                let length = edge[1].min(end) - edge[0];
                weighted += length * latency;
                weight += length;
            }
        }
        weighted / weight
    }

    pub fn ql_per_second(&self) -> f64 {
        self.ql.len() as f64 / self.elapsed.as_secs_f64()
    }
}

/// One connection: sends `plan` round-robin for `warm_up` (discarded) and
/// then `window`, one request at a time. A reply fails on an I/O error, a
/// status other than 200, a body that differs from the expected one, or an
/// epoch header lower than an earlier one on this connection.
pub fn drive(
    addr: SocketAddr,
    plan: &[Request<'_>],
    warm_up: Duration,
    window: Duration,
) -> Report {
    let mut report = Report::default();
    let mut client = Client::connect(addr).expect("connect to the in-process server");
    let mut last_epoch = 0u64;
    let mut measured_from = Instant::now() + warm_up;
    let mut warm = warm_up.is_zero();
    for request in plan.iter().cycle() {
        if !warm && Instant::now() >= measured_from {
            warm = true;
            measured_from = Instant::now();
        }
        if warm && measured_from.elapsed() >= window {
            break;
        }
        let sent = Instant::now();
        let response = match request {
            Request::Ql { text, .. } => client.post("/ql", text),
            Request::Explore { path, .. } => client.get(path),
        };
        let latency = sent.elapsed();
        let ok = response.as_ref().is_ok_and(|response| {
            let epoch = response
                .header("x-qb2olap-epoch")
                .and_then(|value| value.parse::<u64>().ok());
            let monotone = epoch.is_none_or(|epoch| epoch >= last_epoch);
            last_epoch = last_epoch.max(epoch.unwrap_or(0));
            let expected = match request {
                Request::Ql { expected, .. } => *expected,
                Request::Explore { expected, .. } => Some(*expected),
            };
            response.status == 200
                && monotone
                && expected.is_none_or(|expected| response.body == expected.as_bytes())
        });
        if response.is_err() {
            // The connection is gone; a fresh one keeps the loop closed.
            client = Client::connect(addr).expect("reconnect");
        }
        if !warm {
            continue;
        }
        report.attempted += 1;
        if !ok {
            report.failed += 1;
            continue;
        }
        match request {
            Request::Ql { query, .. } => report.ql.push(Sample {
                query: *query,
                at: sent.duration_since(measured_from).as_secs_f64(),
                latency_ms: ms(latency),
            }),
            Request::Explore { .. } => report.explore.push(ms(latency)),
        }
        report.elapsed = measured_from.elapsed();
    }
    report
}

/// The request plan of one connection: the list in a seeded order, checked
/// against the expected bodies, optionally with an exploration GET as every
/// fifth request.
pub fn plan<'w>(
    world: &'w World,
    list: &'w [Query],
    rng: &mut Rng,
    explore: bool,
    check: bool,
) -> Vec<Request<'w>> {
    let mut order: Vec<usize> = (0..list.len()).collect();
    rng.shuffle(&mut order);
    let mut plan = Vec::new();
    let mut explores = world.explore.iter().cycle();
    for query in order {
        if explore && plan.len() % EXPLORE_EVERY == EXPLORE_EVERY - 1 {
            let (path, expected) = explores.next().expect("two exploration paths");
            plan.push(Request::Explore { path, expected });
        }
        plan.push(Request::Ql {
            query,
            text: &list[query].text,
            expected: check.then_some(list[query].body.as_str()),
        });
    }
    plan
}

/// `connections` closed-loop clients over `list` for `window`.
pub fn run(
    world: &World,
    list: &[Query],
    connections: usize,
    explore: bool,
    seed: u64,
    window: Duration,
) -> Report {
    let mut rng = Rng::new(seed);
    let plans: Vec<_> = (0..connections)
        .map(|_| plan(world, list, &mut rng, explore, true))
        .collect();
    let addr = world.server.addr();
    let mut merged = Report::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| scope.spawn(move || drive(addr, plan, warm_up(window), window)))
            .collect();
        for handle in handles {
            merged.merge(handle.join().expect("client thread"));
        }
    });
    merged
}

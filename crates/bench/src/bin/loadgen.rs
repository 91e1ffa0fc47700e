//! `loadgen` — the HTTP serving gate (E19 in EXPERIMENTS.md): concurrent
//! load against the serving front end, with a correctness check per
//! response.
//!
//! Boots an in-process [`qb2olap_server`] over a 4 000-observation demo
//! cube, precomputes the **library-side** canonical JSON body of every E7
//! workload query, then drives 32 keep-alive connections that POST 8 of
//! those queries each to `/ql` round-robin, checking each wire body is
//! bit-identical to the library result. Two phases: idle, then with an
//! agitator thread forcing structural background rebuilds (the §E18
//! pattern). The run fails if any body mismatched or the mid-rebuild p99
//! exceeds max(10 × idle p99, 25 ms). It takes no arguments; latency
//! numbers are the benchmark's job (`qbbench`).
//!
//! ```text
//! cargo run --release -p qb2olap_bench --bin loadgen
//! ```

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qb2olap::{Endpoint, Qb2Olap};
use qb2olap_bench::demo_cube_with;
use qb2olap_server::client::Client;
use rdf::vocab::qb4o;
use rdf::{Term, Triple};

const OBSERVATIONS: usize = 4_000;
const CONNECTIONS: usize = 32;
const REQUESTS_PER_CONNECTION: usize = 8;

/// One phase of load: every connection thread sends its share of requests
/// round-robin over the workload, checking bodies; returns the phase's p99
/// latency plus the mismatch count.
fn run_phase(
    addr: SocketAddr,
    expected: &Arc<Vec<(String, String)>>, // (wire path+body request, expected body)
) -> (Duration, usize) {
    let mismatches = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..CONNECTIONS)
        .map(|thread_index| {
            let expected = expected.clone();
            let mismatches = mismatches.clone();
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(REQUESTS_PER_CONNECTION);
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..REQUESTS_PER_CONNECTION {
                    let (query, want) = &expected[(thread_index + i) % expected.len()];
                    let sent = Instant::now();
                    let response = client.post("/ql", query).expect("request");
                    latencies.push(sent.elapsed());
                    if response.status != 200 || response.body_text() != *want {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
                latencies
            })
        })
        .collect();
    let mut all = Vec::new();
    for handle in handles {
        all.extend(handle.join().expect("load thread"));
    }
    all.sort();
    let p99 = all[((all.len() - 1) as f64 * 0.99).round() as usize];
    (p99, mismatches.load(Ordering::Relaxed))
}

fn main() {
    eprintln!(
        "building demo cube ({OBSERVATIONS} observations) and precomputing expected bodies..."
    );
    let cube = demo_cube_with(&datagen::EurostatConfig {
        observations: OBSERVATIONS,
        time_ordered: true,
        ..Default::default()
    });
    let tool = Qb2Olap::new(cube.endpoint.clone());

    // Library-side ground truth: prepare + execute each workload query on a
    // settled snapshot, serialize with the *same* canonical serializer the
    // server uses. The agitator only inserts dangling schema triples, so
    // these bodies stay correct during the rebuild phase too.
    let querying = tool.querying(&cube.dataset).expect("enriched cube");
    let snapshot = querying.snapshot_settled().expect("settled snapshot");
    let expected: Arc<Vec<(String, String)>> = Arc::new(
        datagen::workload::bench_queries()
            .into_iter()
            .map(|(_, ql)| {
                let prepared = querying.prepare(&ql).expect("prepare");
                let result = querying
                    .execute_on_snapshot(&prepared, &snapshot)
                    .expect("execute");
                (ql, qb2olap_server::cube_to_json(&result))
            })
            .collect(),
    );
    let schema = querying.schema().clone();

    let config = qb2olap_server::ServerConfig {
        workers: 8,
        queue_capacity: 64,
        default_dataset: Some(cube.dataset.clone()),
        ..qb2olap_server::ServerConfig::default()
    };
    let server = qb2olap_server::start(tool.clone(), config).expect("bind server");
    let addr = server.addr();
    eprintln!(
        "serving on {} — {CONNECTIONS} connections x {REQUESTS_PER_CONNECTION} requests per phase",
        server.base_url(),
    );

    // Phase 1: idle (no maintenance in flight).
    let (idle_p99, idle_bad) = run_phase(addr, &expected);

    // Phase 2: the §E18 agitator forces a structural refusal per round so
    // a background fold is almost always in flight while we serve.
    let stop = Arc::new(AtomicBool::new(false));
    let agitator = {
        let stop = stop.clone();
        let endpoint = cube.endpoint.clone();
        let catalog = tool.catalog().clone();
        let dataset = cube.dataset.clone();
        std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::SeqCst) {
                round += 1;
                endpoint
                    .insert_triples(&[Triple::new(
                        Term::iri(format!("http://example.org/loadgen/dsd/{round}")),
                        qb4o::has_level(),
                        Term::iri(format!("http://example.org/loadgen/level/{round}")),
                    )])
                    .expect("agitator insert");
                let _ = catalog.serve_snapshot(&endpoint, &schema);
                catalog.wait_for_maintenance(&dataset);
            }
        })
    };
    let (rebuild_p99, rebuild_bad) = run_phase(addr, &expected);
    stop.store(true, Ordering::SeqCst);
    agitator.join().expect("agitator exits");
    server.shutdown();

    // The wire-level restatement of the §E18 guarantee: serving does not
    // degrade by more than 10x while folds run. The floor absorbs
    // sub-millisecond idle p99s on fast machines, same as repro e18.
    let limit = (idle_p99 * 10).max(Duration::from_millis(25));
    let mut failed = false;
    if rebuild_p99 > limit {
        eprintln!(
            "GATE FAIL: mid-rebuild p99 {rebuild_p99:?} exceeds limit {limit:?} \
             (idle p99 {idle_p99:?})"
        );
        failed = true;
    }
    if idle_bad + rebuild_bad > 0 {
        eprintln!(
            "GATE FAIL: {} responses diverged from library results",
            idle_bad + rebuild_bad
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("gate ok: mid-rebuild p99 {rebuild_p99:?} within {limit:?}, all bodies bit-identical");
}

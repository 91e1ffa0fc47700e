//! The common set-up of every workload: generate → bulk load → demo
//! enrichment → materialize → query lists with their library-side expected
//! bodies → in-process server. Timed as a whole (`setup_s`) and per phase.

use std::time::{Duration, Instant};

use qb2olap::datagen::{self, EurostatConfig, GeneratedDataset};
use qb2olap::qb4olap::CubeSchema;
use qb2olap::rdf::Iri;
use qb2olap::{demo, Endpoint, LocalEndpoint, Qb2Olap};
use qb2olap_server::client::Client;
use qb2olap_server::{QbServer, ServerConfig};

use crate::json::Value;
use crate::stats::fnv1a;

/// The seeded part of the query list is generated from this fixed seed, not
/// from `--seed`: the cost of a generated query varies several-fold with its
/// shape, so a list that changed with the seed would move every latency
/// metric by more than any bound. `--seed` drives the data, the request
/// order and the write batches instead.
pub const QUERY_SEED: u64 = 11;

/// Result-size classes, by library-side cell count (never by query name).
const SELECTIVE_MAX_CELLS: usize = 200;
const LARGE_MIN_CELLS: usize = 1_000;

#[derive(Clone, Copy)]
pub struct Inputs {
    pub seed: u64,
    pub observations: usize,
}

impl Inputs {
    pub fn generate(&self) -> GeneratedDataset {
        datagen::generate(&EurostatConfig {
            observations: self.observations,
            time_ordered: true,
            seed: self.seed,
            ..Default::default()
        })
    }
}

/// One query of a workload list with its expected wire body.
pub struct Query {
    pub name: String,
    pub text: String,
    pub body: String,
}

/// Raw triples to a settled, queryable cube: the path `cold-build` measures
/// and the first half of every other workload's set-up.
pub struct ColdStart {
    pub tool: Qb2Olap,
    pub dataset: Iri,
    pub load: Duration,
    pub enrich: Duration,
    pub build: Duration,
}

pub fn cold_start(data: &GeneratedDataset) -> ColdStart {
    let started = Instant::now();
    let endpoint = LocalEndpoint::new();
    endpoint.insert_triples(&data.triples).expect("bulk load");
    endpoint
        .insert_triples(&datagen::dbpedia::dbpedia_graph())
        .expect("bulk load of the external graph");
    let load = started.elapsed();

    let started = Instant::now();
    demo::enrich_demo_cube(&endpoint, &data.dataset).expect("demo enrichment");
    let enrich = started.elapsed();

    let started = Instant::now();
    let tool = Qb2Olap::new(endpoint);
    tool.querying(&data.dataset)
        .expect("enriched cube")
        .snapshot_settled()
        .expect("first materialization");
    let build = started.elapsed();

    ColdStart {
        tool,
        dataset: data.dataset.clone(),
        load,
        enrich,
        build,
    }
}

pub struct World {
    pub tool: Qb2Olap,
    pub dataset: Iri,
    pub schema: CubeSchema,
    pub selective: Vec<Query>,
    pub large: Vec<Query>,
    /// `/explore/summary` and `/explore/members?level=…` with the bodies the
    /// server answered at set-up.
    pub explore: Vec<(String, String)>,
    pub server: QbServer,
    pub fingerprint: Value,
    pub setup: Duration,
}

impl World {
    pub fn build(inputs: Inputs) -> World {
        let started = Instant::now();
        let data = inputs.generate();
        let ColdStart { tool, dataset, .. } = cold_start(&data);

        let querying = tool.querying(&dataset).expect("enriched cube");
        let schema = querying.schema().clone();
        let (selective, large) = classify(&querying);

        // `ServerConfig::default()` plus only the dataset, so later changes
        // to the defaults are measured.
        let server = qb2olap_server::start(
            tool.clone(),
            ServerConfig {
                default_dataset: Some(dataset.clone()),
                ..ServerConfig::default()
            },
        )
        .expect("bind the in-process server");
        let citizen = qb2olap::rdf::vocab::eurostat_property::citizen();
        let mut client = Client::connect(server.addr()).expect("connect");
        let explore = [
            "/explore/summary".to_string(),
            format!(
                "/explore/members?level={}",
                qb2olap_server::percent_encode(citizen.as_str())
            ),
        ]
        .into_iter()
        .map(|path| {
            let response = client.get(&path).expect("explore at set-up");
            assert_eq!(response.status, 200, "{path}");
            (path, response.body_text())
        })
        .collect();
        drop(client);

        let lists = || selective.iter().chain(&large);
        let fingerprint = Value::obj(vec![
            ("seed", Value::Num(inputs.seed as f64)),
            ("query_seed", Value::Num(QUERY_SEED as f64)),
            ("observations", Value::Num(data.observation_count as f64)),
            ("triples", Value::Num(tool.endpoint().triple_count() as f64)),
            ("selective_queries", Value::Num(selective.len() as f64)),
            ("large_queries", Value::Num(large.len() as f64)),
            (
                "query_list_hash",
                Value::str(format!(
                    "{:016x}",
                    fnv1a(lists().map(|q| q.text.as_bytes()))
                )),
            ),
            (
                "expected_body_hash",
                Value::str(format!(
                    "{:016x}",
                    fnv1a(lists().map(|q| q.body.as_bytes()))
                )),
            ),
            (
                "nproc",
                Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("commit", Value::str(commit())),
        ]);

        World {
            tool,
            dataset,
            schema,
            selective,
            large,
            explore,
            server,
            fingerprint,
            setup: started.elapsed(),
        }
    }

    /// The Querying module the way the server opens it per request: cached
    /// schema, shared catalog, no SPARQL round trip.
    pub fn querying(&self) -> qb2olap::QueryingModule<'_> {
        qb2olap::QueryingModule::with_schema_and_catalog(
            self.tool.endpoint(),
            self.schema.clone(),
            self.tool.catalog().clone(),
        )
    }

    /// The library-side body of `text` on a settled pin: what the wire must
    /// answer byte for byte.
    pub fn library_body(&self, text: &str) -> String {
        let querying = self.querying();
        let snapshot = querying.snapshot_settled().expect("settled pin");
        let prepared = querying.prepare(text).expect("prepare");
        let cube = querying
            .execute_on_snapshot(&prepared, &snapshot)
            .expect("execute");
        qb2olap_server::cube_to_json(&cube)
    }
}

/// Runs the named and the seeded queries library-side on a settled pin and
/// sorts them into the two lists by result size; mid-size results belong to
/// neither workload.
fn classify(querying: &qb2olap::QueryingModule<'_>) -> (Vec<Query>, Vec<Query>) {
    let snapshot = querying.snapshot_settled().expect("settled pin");
    let candidates = datagen::workload::bench_queries()
        .into_iter()
        .map(|(name, text)| (name.to_string(), text))
        .chain(datagen::workload::generated_queries(QUERY_SEED, 64));
    let (mut selective, mut large) = (Vec::new(), Vec::new());
    for (name, text) in candidates {
        let prepared = querying.prepare(&text).expect("workload query prepares");
        let cube = querying
            .execute_on_snapshot(&prepared, &snapshot)
            .expect("workload query executes");
        let cells = cube.cells.len();
        let list = if cells <= SELECTIVE_MAX_CELLS {
            &mut selective
        } else if cells >= LARGE_MIN_CELLS {
            &mut large
        } else {
            continue;
        };
        list.push(Query {
            name,
            text,
            body: qb2olap_server::cube_to_json(&cube),
        });
    }
    (selective, large)
}

/// The commit being measured, when the checkout is a git repository.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |output| String::from_utf8_lossy(&output.stdout).trim().to_string(),
        )
}

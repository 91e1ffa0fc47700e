//! The traced run: per-layer numbers, measured from outside.
//!
//! Single thread, in process. The run (1) repeats the set-up with a harness
//! span around each public call, (2) replays the workload's requests step by
//! step the way `routes::ql_route` serves them, (3) drives the same requests
//! over real loopback on one connection, untraced, so the replayed steps can
//! be reconciled against a whole round trip, and (4) exercises the write and
//! fold path. Counts are read where the work happens: the program's
//! `ExecutionProfile`, its `MetricsRegistry`, and the counting allocator.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::time::{Duration, Instant};

use qb2olap::cubestore::MaterializedCube;
use qb2olap::datagen::{self, workload};
use qb2olap::enrichment::{CandidateSet, EnrichmentSession};
use qb2olap::ql::{parse_ql, simplify, translate, PreparedQuery};
use qb2olap::rdf::vocab::{eurostat_property, rdfs, sdmx_dimension};
use qb2olap::rdf::Iri;
use qb2olap::{demo, CubeExplorer, Endpoint, ExecutionBackend, LocalEndpoint, SparqlVariant};
use qb2olap_bench::ObservationFactory;
use qb2olap_server::http::{self, ReadLimits, Response};
use qb2olap_server::{ServerConfig, EPOCH_HEADER};

use crate::alloc::counted;
use crate::json::Value;
use crate::stats::{median, ms, percentile, typical, us, Rng};
use crate::timed_endpoint::TimedEndpoint;
use crate::world::{Inputs, Query, World};
use crate::{cold, wire, writes, Metric};

/// One harness span. `parent` indexes the span that caused it; spans of one
/// request share `request_id` (0 for set-up and probes).
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request_id: u64,
}

/// Spans are kept in memory and written out once, at the end of the run.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request_id: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            request_id: 0,
        }
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request_id: self.request_id,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn exit(&mut self, span: usize) -> Duration {
        assert_eq!(self.open.pop(), Some(span), "spans close innermost first");
        let span = &mut self.spans[span];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        Duration::from_nanos(span.end_ns - span.start_ns)
    }

    /// A leaf span around one call into the program.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let span = self.enter(name);
        let value = f();
        (value, self.exit(span))
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|span| {
                    Value::obj(vec![
                        ("name", Value::str(span.name)),
                        ("start_ns", Value::Num(span.start_ns as f64)),
                        ("end_ns", Value::Num(span.end_ns as f64)),
                        (
                            "parent",
                            span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("request_id", Value::Num(span.request_id as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Samples of one step, kept per query: a step's typical cost is
/// `stats::typical` over the list.
#[derive(Default)]
struct PerQuery(BTreeMap<&'static str, Vec<Vec<f64>>>);

impl PerQuery {
    fn push(&mut self, step: &'static str, query: usize, value: f64) {
        let queries = self.0.entry(step).or_default();
        if queries.len() <= query {
            queries.resize(query + 1, Vec::new());
        }
        queries[query].push(value);
    }

    fn typical(&self, step: &str) -> f64 {
        let samples = self.0.get(step).into_iter().flatten().enumerate();
        typical(samples.flat_map(|(query, values)| values.iter().map(move |v| (query, *v))))
            .unwrap_or(0.0)
    }

    /// The sum over the list of each query's first sample: exact counts
    /// repeat, so one pass of the list is the whole story.
    fn one_pass(&self, step: &str) -> f64 {
        self.0.get(step).map_or(0.0, |queries| {
            queries.iter().filter_map(|q| q.first()).sum()
        })
    }
}

pub struct Output {
    pub metrics: Vec<Metric>,
    pub spans: Value,
    pub attempted: u64,
    pub failed: u64,
}

/// Append batches of the single-threaded write probe.
const BATCHES: usize = 20;
const EXPLORER_CALLS: usize = 50;

/// The steps `routes::ql_route` runs between the request bytes and the
/// response bytes, in its order. Their medians are summed for the
/// reconciliation row.
const REPLAYED_STEPS: [&str; 7] = [
    "server.http.parse",
    "server.routes.open_module",
    "cubestore.catalog.pin",
    "ql.executor.prepare",
    "ql.executor.execute",
    "server.json.serialize",
    "server.http.write",
];

fn request_bytes(text: &str) -> Vec<u8> {
    // Exactly what `client::Client::post` puts on the wire.
    format!(
        "POST /ql HTTP/1.1\r\nHost: qb2olap\r\nContent-Length: {}\r\n\r\n{text}",
        text.len()
    )
    .into_bytes()
}

/// The limits the server reads requests under.
fn read_limits() -> ReadLimits {
    let config = ServerConfig::default();
    ReadLimits {
        max_head_bytes: config.max_head_bytes,
        max_body_bytes: config.max_body_bytes,
    }
}

/// The replay of one request: every step is a span and, under the same name,
/// a sample (in µs) of that query.
struct Replay<'r> {
    rec: &'r mut Recorder,
    steps: &'r mut PerQuery,
    query: usize,
}

impl Replay<'_> {
    fn enter(&mut self, name: &'static str) -> usize {
        self.rec.enter(name)
    }

    fn exit(&mut self, name: &'static str, span: usize) {
        let duration = self.rec.exit(span);
        self.steps.push(name, self.query, us(duration));
    }

    fn step<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let value = f();
        self.exit(name, span);
        value
    }
}

/// One `/ql` request replayed step by step, each step under its own span.
/// Returns whether the body matched the expected one.
fn replay_traced(
    world: &World,
    limits: ReadLimits,
    replay: &mut Replay<'_>,
    query: &Query,
) -> bool {
    replay.rec.request_id += 1;
    let bytes = request_bytes(&query.text);
    let root = replay.enter("request");

    let request = replay.step("server.http.parse", || {
        http::read_request(&mut BufReader::new(&bytes[..]), limits).expect("request parses")
    });
    let text = request.body_text();
    let module = replay.step("server.routes.open_module", || world.querying());
    let snapshot = replay.step("cubestore.catalog.pin", || module.snapshot().expect("pin"));

    let prepare = replay.enter("ql.executor.prepare");
    let program = replay.step("ql.parser.parse", || parse_ql(&text).expect("QL parses"));
    let (pipeline, report) = replay.step("ql.pipeline.simplify", || {
        simplify(&program, module.schema()).expect("simplifies")
    });
    let translation = replay.step("ql.translate.translate", || {
        translate(&pipeline, module.schema()).expect("translates")
    });
    replay.exit("ql.executor.prepare", prepare);
    let prepared = PreparedQuery {
        program,
        pipeline,
        report,
        translation,
        backend: ExecutionBackend::default(),
    };

    let cube = replay.step("ql.executor.execute", || {
        module
            .execute_on_snapshot(&prepared, &snapshot)
            .expect("executes")
    });
    let body = replay.step("server.json.serialize", || {
        qb2olap_server::cube_to_json(&cube)
    });
    let matches = body == query.body;
    if !matches {
        eprintln!(
            "qbbench: replayed body of {} differs from the expected body",
            query.name
        );
    }
    replay.step("server.http.write", || {
        Response::json(body)
            .with_header(EPOCH_HEADER, snapshot.epoch().to_string())
            .write_to(&mut std::io::sink(), request.keep_alive)
            .expect("sink write")
    });
    replay.exit("traced_total", root);
    matches
}

/// The same steps with no span and no counting: the base of
/// `trace.overhead_share`.
fn replay_untraced(
    world: &World,
    limits: ReadLimits,
    steps: &mut PerQuery,
    index: usize,
    query: &Query,
) {
    let bytes = request_bytes(&query.text);
    let started = Instant::now();
    let request =
        http::read_request(&mut BufReader::new(&bytes[..]), limits).expect("request parses");
    let module = world.querying();
    let snapshot = module.snapshot().expect("pin");
    let prepared = module.prepare(&request.body_text()).expect("prepares");
    let cube = module
        .execute_on_snapshot(&prepared, &snapshot)
        .expect("executes");
    Response::json(qb2olap_server::cube_to_json(&cube))
        .with_header(EPOCH_HEADER, snapshot.epoch().to_string())
        .write_to(&mut std::io::sink(), request.keep_alive)
        .expect("sink write");
    steps.push("untraced_total", index, us(started.elapsed()));
}

/// Everything about one query that is a count, taken once, apart from the
/// timed replays: counting allocations adds two atomic updates to each of the
/// thousands of allocations of one execution and would inflate its timing.
/// Also reads the program-reported steps and counters of `execute_profiled`.
fn count(world: &World, steps: &mut PerQuery, index: usize, query: &Query) {
    let module = world.querying();
    let snapshot = module.snapshot().expect("pin");
    let prepared = module.prepare(&query.text).expect("prepares");
    let removed = prepared.report.original_operations - prepared.report.simplified_operations;
    steps.push("ops_removed", index, removed as f64);
    let sparql_lines = prepared.sparql(SparqlVariant::Direct).lines().count();
    steps.push("sparql_lines", index, sparql_lines as f64);

    let (cube, allocs, alloc_bytes) = counted(|| {
        module
            .execute_on_snapshot(&prepared, &snapshot)
            .expect("executes")
    });
    steps.push("execute_allocs", index, allocs as f64);
    steps.push("execute_alloc_bytes", index, alloc_bytes as f64);
    steps.push("cells", index, cube.cells.len() as f64);
    let (body, allocs, _) = counted(|| qb2olap_server::cube_to_json(&cube));
    steps.push("serialize_allocs", index, allocs as f64);
    steps.push("body_bytes", index, body.len() as f64);

    let (_, profile) = module
        .execute_profiled(&prepared, ExecutionBackend::Columnar)
        .expect("profiles");
    for (step, name) in [
        ("plan-axes", "plan"),
        ("compile-filters", "compile_filters"),
        ("scan", "scan"),
        ("aggregate", "aggregate"),
    ] {
        let duration: Duration = profile
            .steps
            .iter()
            .filter(|s| s.name == step)
            .map(|s| s.duration)
            .sum();
        steps.push(name, index, us(duration));
    }
    for counter in [
        "rows_scanned",
        "rows_aggregated",
        "segments_total",
        "segments_pruned",
        "dictionary_lookups",
        "rollup_lookups",
    ] {
        steps.push(counter, index, profile.counter(counter) as f64);
    }
}

/// One `discover_candidates` call under its span, its time added to `total`.
fn candidates(
    session: &mut EnrichmentSession<'_>,
    rec: &mut Recorder,
    total: &mut Duration,
    level: &Iri,
) -> CandidateSet {
    let (set, d) = rec.time("enrichment.discover_candidates", || {
        session.discover_candidates(level).expect("candidates")
    });
    *total += d;
    set
}

/// The set-up again, instrumented: every public call of the cold-start path
/// under a span, SPARQL time attributed through `TimedEndpoint`.
fn traced_setup(inputs: Inputs, rec: &mut Recorder, out: &mut Vec<Metric>) -> usize {
    let root = rec.enter("setup");
    let (data, _) = rec.time("datagen.generate", || inputs.generate());
    let endpoint = LocalEndpoint::new();
    let (_, d) = rec.time("rdf.store.bulk_load", || {
        endpoint.insert_triples(&data.triples).expect("bulk load");
        endpoint
            .insert_triples(&datagen::dbpedia::dbpedia_graph())
            .expect("bulk load");
    });
    out.push(("rdf.store.bulk_load_s", d.as_secs_f64(), 1));
    out.push(("rdf.store.triples", endpoint.triple_count() as f64, 1));

    // The choices of `demo::enrich_demo_cube`, call by call.
    let timed = TimedEndpoint::new(&endpoint);
    let enrichment = rec.enter("enrichment");
    let mut session =
        EnrichmentSession::start(&timed, &data.dataset, demo::demo_enrichment_config())
            .expect("session");
    let (_, redefine) = rec.time("enrichment.redefine", || {
        session.redefine().map(|_| ()).expect("redefine")
    });
    let mut discover = Duration::ZERO;
    let citizen = eurostat_property::citizen();
    let geo = eurostat_property::geo();
    let set = candidates(&mut session, rec, &mut discover, &citizen);
    let continent = set
        .level_candidate(&datagen::eurostat::continent_property())
        .expect("continent")
        .clone();
    let continent = session
        .add_level(&citizen, &continent, "continent")
        .expect("continent level");
    session
        .add_attribute(&continent, &rdfs::label(), "continentName")
        .expect("attribute");
    let set = candidates(&mut session, rec, &mut discover, &continent);
    if let Some(all) = set
        .level_candidate(&datagen::eurostat::all_property())
        .cloned()
    {
        session
            .add_level(&continent, &all, "citAll")
            .expect("citAll level");
    }
    session
        .add_attribute(&geo, &rdfs::label(), "countryName")
        .expect("attribute");
    let set = candidates(&mut session, rec, &mut discover, &geo);
    if let Some(polorg) = set
        .level_candidate(&datagen::eurostat::political_org_property())
        .cloned()
    {
        let level = session
            .add_level(&geo, &polorg, "politicalOrg")
            .expect("politicalOrg level");
        session
            .add_attribute(&level, &rdfs::label(), "politicalOrgName")
            .expect("attribute");
    }
    for (level, property, name) in [
        (
            sdmx_dimension::ref_period(),
            datagen::eurostat::year_property(),
            "year",
        ),
        (
            eurostat_property::age(),
            datagen::eurostat::age_group_property(),
            "ageGroup",
        ),
    ] {
        let set = candidates(&mut session, rec, &mut discover, &level);
        if let Some(candidate) = set.level_candidate(&property).cloned() {
            session.add_level(&level, &candidate, name).expect("level");
        }
    }
    let (generated, generate) = rec.time("enrichment.generate_triples", || {
        session.generate_triples().expect("triples")
    });
    rec.time("enrichment.load", || {
        timed
            .insert_triples(&generated.schema_triples)
            .expect("schema triples");
        timed
            .insert_triples(&generated.instance_triples)
            .expect("instance triples");
    });
    rec.exit(enrichment);
    out.push(("enrichment.redefine_ms", ms(redefine), 1));
    out.push(("enrichment.discover_candidates_ms", ms(discover), 1));
    out.push(("enrichment.generate_triples_ms", ms(generate), 1));
    out.push((
        "enrichment.triples_generated",
        (generated.schema_triples.len() + generated.instance_triples.len()) as f64,
        1,
    ));
    out.push(("enrichment.sparql_s", timed.take().1.as_secs_f64(), 1));
    let triples = endpoint.triple_count();

    let schema = qb2olap::qb4olap::schema_from_endpoint(&endpoint, &data.dataset).expect("schema");
    timed.take();
    let ((cube, allocs, alloc_bytes), materialize) = rec
        .time("cubestore.build.materialize", || {
            counted(|| MaterializedCube::from_endpoint(&timed, &schema).expect("materializes"))
        });
    let (selects, sparql) = timed.take();
    drop(cube);
    out.push((
        "cubestore.build.materialize_s",
        materialize.as_secs_f64(),
        1,
    ));
    out.push(("cubestore.build.sparql_s", sparql.as_secs_f64(), 1));
    out.push(("cubestore.build.sparql_selects", selects as f64, 1));
    out.push((
        "cubestore.build.self_s",
        materialize.saturating_sub(sparql).as_secs_f64(),
        1,
    ));
    out.push(("cubestore.build.allocs", allocs as f64, 1));
    out.push(("cubestore.build.alloc_bytes", alloc_bytes as f64, 1));

    // The paper's native path: Mary's translated query on the endpoint.
    let querying = qb2olap::QueryingModule::with_schema(&endpoint, schema);
    let prepared = querying
        .prepare(&workload::mary_query())
        .expect("Mary's query prepares");
    let text = prepared.sparql(SparqlVariant::Direct);
    let (solutions, d) = rec.time("sparql.select", || {
        endpoint.select(&text).expect("SPARQL select")
    });
    out.push(("sparql.select_ms", ms(d), 1));
    out.push(("sparql.solutions", solutions.len() as f64, 1));
    let (_, d) = rec.time("ql.executor.sparql_execute", || {
        querying
            .execute(&prepared, SparqlVariant::Direct)
            .expect("SPARQL backend")
    });
    out.push(("ql.executor.sparql_execute_ms", ms(d), 1));
    rec.exit(root);
    triples
}

/// Appends and one fold on the calling thread alone: the store insert, the
/// first pin after it (which accretes the delta), and exact registry deltas.
fn write_probe(world: &World, rec: &mut Recorder, seed: u64, out: &mut Vec<Metric>) -> u64 {
    let endpoint = world.tool.endpoint();
    let module = world.querying();
    let before = world.tool.metrics();
    let mut factory =
        ObservationFactory::new(endpoint, &world.dataset, &format!("qbbench-probe/{seed}"));
    let (mut insert, mut accrete, mut failed) = (Vec::new(), Vec::new(), 0);
    let root = rec.enter("write_probe");
    for _ in 0..BATCHES {
        let batch = factory.batch(writes::BATCH_OBSERVATIONS);
        let (_, d) = rec.time("rdf.store.insert_batch", || {
            endpoint.insert_triples(&batch).expect("insert")
        });
        insert.push(us(d));
        let (snapshot, d) = rec.time("cubestore.catalog.accrete", || {
            module.snapshot().expect("pin")
        });
        accrete.push(us(d));
        failed += u64::from(
            snapshot.epoch() != endpoint.epoch() || snapshot.verify_consistent().is_err(),
        );
    }
    rec.exit(root);
    let after = world.tool.metrics();
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    out.push(("rdf.store.insert_batch_us", median(&insert), BATCHES));
    out.push(("cubestore.catalog.accrete_us", median(&accrete), BATCHES));
    out.push((
        "cubestore.catalog.refresh_delta",
        delta("catalog.refresh.delta") + delta("catalog.refresh.overlay"),
        BATCHES,
    ));
    failed
}

pub fn run(workload_name: &str, inputs: Inputs, window: Duration) -> Output {
    let mut rec = Recorder::new();
    let mut out: Vec<Metric> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let world = World::build(inputs);
    let traced_triples = traced_setup(inputs, &mut rec, &mut out);
    attempted += 1;
    failed += u64::from(traced_triples != world.tool.endpoint().triple_count());

    // `cold-build` and `serve-under-writes` replay the selective list: the
    // first sends no requests of its own, the second reads that list.
    let (list, explore) = match workload_name {
        crate::names::WIRE_ROLLUP => (&world.large, false),
        crate::names::WIRE_SELECTIVE => (&world.selective, true),
        _ => (&world.selective, false),
    };
    let share = window / 3;

    // (2) Counts once, then replays, alternating traced and untraced.
    let mut steps = PerQuery::default();
    for (index, query) in list.iter().enumerate() {
        count(&world, &mut steps, index, query);
    }
    let limits = read_limits();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || started.elapsed() < share {
        for (query, entry) in list.iter().enumerate() {
            let mut replay = Replay {
                rec: &mut rec,
                steps: &mut steps,
                query,
            };
            attempted += 1;
            failed += u64::from(!replay_traced(&world, limits, &mut replay, entry));
            replay_untraced(&world, limits, &mut steps, query, entry);
        }
        rounds += 1;
    }
    let replays = rounds * list.len();
    let explorer = CubeExplorer::with_schema_and_catalog(
        world.tool.endpoint(),
        world.schema.clone(),
        world.tool.catalog().clone(),
    );
    let citizen = eurostat_property::citizen();
    let (mut summary, mut members) = (Vec::new(), Vec::new());
    for _ in 0..EXPLORER_CALLS {
        summary.push(us(rec
            .time("explorer.summary", || explorer.summary().expect("summary"))
            .1));
        members.push(us(rec
            .time("explorer.members", || {
                explorer.members(&citizen).expect("members")
            })
            .1));
    }

    // (3) The same list over real loopback: one connection, untraced.
    let server_before = world.server.metrics();
    let plan = wire::plan(&world, list, &mut Rng::new(inputs.seed), explore, true);
    let loopback = wire::drive(world.server.addr(), &plan, wire::warm_up(share), share);
    attempted += loopback.attempted;
    failed += loopback.failed;
    let mut round_trips = PerQuery::default();
    for sample in &loopback.ql {
        round_trips.push("round_trip", sample.query, sample.latency_ms * 1e3);
    }
    let latencies = loopback.ql_latencies();

    // (4) The write path: alone first, then the `serve-under-writes` loop.
    failed += write_probe(&world, &mut rec, inputs.seed, &mut out);
    attempted += BATCHES as u64;
    let catalog_before = world.tool.metrics();
    let under_writes = writes::run(&world, inputs.seed, window / 4);
    let (checked, mismatched) = writes::settled_check(&world);
    attempted += under_writes.attempted + under_writes.reader.attempted + checked;
    failed += under_writes.failed + under_writes.reader.failed + mismatched;
    let catalog_after = world.tool.metrics();
    let server_after = world.server.metrics();

    // One cold start for the per-phase numbers of `cold-build`.
    let cold = cold::run(&inputs.generate(), Duration::ZERO);
    attempted += 1;
    failed += cold.failed;

    // The reconciliation: the replayed steps add up to the traced in-process
    // total; without spans the same calls take `in_process`; what only a
    // real round trip pays (sockets, dispatch, worker hand-off) is the rest.
    let replayed: f64 = REPLAYED_STEPS.iter().map(|step| steps.typical(step)).sum();
    let in_process = steps.typical("untraced_total");
    let round_trip = round_trips.typical("round_trip");
    let wire_overhead = round_trip - in_process;
    let overhead_share = (steps.typical("traced_total") / in_process - 1.0) * 100.0;
    let cells = steps.one_pass("cells");
    let rows_scanned = steps.one_pass("rows_scanned");
    let segments_total = steps.one_pass("segments_total");
    let catalog = |name: &str| (catalog_after.counter(name) - catalog_before.counter(name)) as f64;
    let server = |name: &str| (server_after.counter(name) - server_before.counter(name)) as f64;

    println!(
        "{workload_name:<20} reconciliation: replayed steps {replayed:.1} us (trace overhead {overhead_share:.2} % of \
         untraced in-process {in_process:.1} us) + wire overhead {wire_overhead:.1} us = loopback round trip \
         {round_trip:.1} us; untraced client.ql_p50_ms {:.3}",
        median(&latencies),
    );

    let writes_n = under_writes.write_visible_ms.len();
    out.extend([
        (
            "server.http.parse_us",
            steps.typical("server.http.parse"),
            replays,
        ),
        (
            "server.routes.open_module_us",
            steps.typical("server.routes.open_module"),
            replays,
        ),
        (
            "server.json.serialize_us",
            steps.typical("server.json.serialize"),
            replays,
        ),
        (
            "server.json.body_bytes",
            steps.one_pass("body_bytes"),
            list.len(),
        ),
        (
            "server.json.serialize_allocs",
            steps.one_pass("serialize_allocs"),
            list.len(),
        ),
        (
            "server.http.write_us",
            steps.typical("server.http.write"),
            replays,
        ),
        (
            "server.wire_overhead_us",
            wire_overhead.max(0.0),
            latencies.len(),
        ),
        ("server.requests", server("server.requests"), 1),
        (
            "server.rejected.saturated",
            server("server.rejected.saturated"),
            1,
        ),
        ("server.timeouts", server("server.timeouts"), 1),
        ("client.ql_p50_ms", median(&latencies), latencies.len()),
        (
            "client.ql_p90_ms",
            percentile(&latencies, 0.90),
            latencies.len(),
        ),
        (
            "client.ql_p99_ms",
            percentile(&latencies, 0.99),
            latencies.len(),
        ),
        (
            "client.explore_p50_ms",
            if explore {
                median(&loopback.explore)
            } else {
                0.0
            },
            loopback.explore.len(),
        ),
        (
            "ql.parser.parse_us",
            steps.typical("ql.parser.parse"),
            replays,
        ),
        (
            "ql.pipeline.simplify_us",
            steps.typical("ql.pipeline.simplify"),
            replays,
        ),
        (
            "ql.pipeline.ops_removed",
            steps.one_pass("ops_removed"),
            list.len(),
        ),
        (
            "ql.translate.translate_us",
            steps.typical("ql.translate.translate"),
            replays,
        ),
        (
            "ql.translate.sparql_lines",
            steps.one_pass("sparql_lines"),
            list.len(),
        ),
        (
            "ql.executor.prepare_us",
            steps.typical("ql.executor.prepare"),
            replays,
        ),
        (
            "ql.executor.execute_us",
            steps.typical("ql.executor.execute"),
            replays,
        ),
        (
            "ql.executor.execute_allocs",
            steps.one_pass("execute_allocs"),
            list.len(),
        ),
        (
            "ql.executor.execute_alloc_bytes",
            steps.one_pass("execute_alloc_bytes"),
            list.len(),
        ),
        ("ql.executor.cells", cells, list.len()),
        (
            "cubestore.catalog.pin_ns",
            steps.typical("cubestore.catalog.pin") * 1e3,
            replays,
        ),
        (
            "cubestore.catalog.refresh_rebuild",
            catalog("catalog.refresh.rebuild"),
            1,
        ),
        (
            "cubestore.catalog.overlay_folds",
            catalog("catalog.overlay.folds"),
            1,
        ),
        (
            "cubestore.catalog.overlay_stale_serves",
            catalog("catalog.overlay.stale_serves"),
            1,
        ),
        (
            "cubestore.executor.plan_us",
            steps.typical("plan"),
            list.len(),
        ),
        (
            "cubestore.executor.compile_filters_us",
            steps.typical("compile_filters"),
            list.len(),
        ),
        (
            "cubestore.executor.scan_us",
            steps.typical("scan"),
            list.len(),
        ),
        (
            "cubestore.executor.aggregate_us",
            steps.typical("aggregate"),
            list.len(),
        ),
        ("cubestore.executor.rows_scanned", rows_scanned, list.len()),
        (
            "cubestore.executor.rows_aggregated",
            steps.one_pass("rows_aggregated"),
            list.len(),
        ),
        (
            "cubestore.executor.segments_total",
            segments_total,
            list.len(),
        ),
        (
            "cubestore.executor.segments_pruned",
            steps.one_pass("segments_pruned"),
            list.len(),
        ),
        (
            "cubestore.executor.dictionary_lookups",
            steps.one_pass("dictionary_lookups"),
            list.len(),
        ),
        (
            "cubestore.executor.rollup_lookups",
            steps.one_pass("rollup_lookups"),
            list.len(),
        ),
        (
            "cubestore.executor.rows_per_cell",
            rows_scanned / cells.max(1.0),
            list.len(),
        ),
        (
            "cubestore.executor.prune_ratio",
            100.0 * steps.one_pass("segments_pruned") / segments_total.max(1.0),
            list.len(),
        ),
        ("explorer.summary_us", median(&summary), EXPLORER_CALLS),
        ("explorer.members_us", median(&members), EXPLORER_CALLS),
        ("ql_p90_ms", percentile(&latencies, 0.90), latencies.len()),
        (
            "write_visible_p50_ms",
            median(&under_writes.write_visible_ms),
            writes_n,
        ),
        (
            "fold_s",
            median(&under_writes.fold_s),
            under_writes.fold_s.len(),
        ),
        (
            "reader_ql_p50_ms",
            median(&under_writes.reader.ql_latencies()),
            under_writes.reader.ql.len(),
        ),
        ("first_answer_s", median(&cold.first_answer_s), 1),
        ("load_s", median(&cold.load_s), 1),
        ("enrich_s", median(&cold.enrich_s), 1),
        ("build_s", median(&cold.build_s), 1),
        ("sparql_mary_ms", median(&cold.sparql_mary_ms), 1),
        (
            "loadgen.writer_lag_ms",
            median(&under_writes.lag_ms),
            writes_n,
        ),
        ("trace.overhead_share", overhead_share, replays),
        ("trace.spans", rec.spans.len() as f64, 1),
    ]);

    Output {
        metrics: out,
        spans: rec.to_json(),
        attempted,
        failed,
    }
}

//! The HTTP serving front end, end to end (ISSUE 10, ARCHITECTURE.md
//! §"HTTP serving").
//!
//! Two families of coverage:
//!
//! * **protocol hardening** — malformed request lines and headers, bodies
//!   past the cap, unknown routes, unsupported methods, stalled requests,
//!   handler deadlines, pool saturation, keep-alive reuse and graceful
//!   shutdown each get the *specific* status code the contract promises
//!   (`400`/`404`/`405`/`408`/`413`/`429`), never a hang or a panic;
//! * **wire fidelity** — over the E7 workload, every `/ql` and `/sparql`
//!   response body is **bit-identical** to serializing the library-side
//!   result with the same canonical serializer, and engine errors arrive
//!   as `400` with the engine's own message.
//!
//! Protocol tests run over an empty endpoint (no cube needed); fidelity
//! tests build the demo cube once per test.

use std::time::Duration;

use qb2olap::Qb2Olap;
use qb2olap_server::client::Client;
use qb2olap_server::{cube_to_json, percent_encode, solutions_to_json, QbServer, ServerConfig};
use sparql::Endpoint;

/// A server over an empty endpoint — enough for every protocol-level test.
fn empty_server(config: ServerConfig) -> QbServer {
    qb2olap_server::start(Qb2Olap::with_empty_endpoint(), config).expect("bind server")
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 8,
        request_timeout: Duration::from_secs(5),
        keepalive_idle: Duration::from_millis(500),
        max_body_bytes: 4096,
        max_head_bytes: 2048,
        debug_delay_header: true,
        ..ServerConfig::default()
    }
}

#[test]
fn malformed_requests_get_specific_errors() {
    let server = empty_server(test_config());

    // Each raw byte salvo opens a fresh connection: error responses close it.
    let check = |raw: &str, want_status: u16, want_fragment: &str| {
        let mut client = Client::connect(server.addr()).expect("connect");
        client.send_raw(raw.as_bytes()).expect("send");
        let response = client.read_response().expect("response");
        assert_eq!(
            response.status,
            want_status,
            "{raw:?} → {}",
            response.body_text()
        );
        assert!(
            response.body_text().contains(want_fragment),
            "{raw:?} body {:?} lacks {want_fragment:?}",
            response.body_text()
        );
    };

    check("GARBAGE\r\n\r\n", 400, "malformed request line");
    check("GET /x HTTP/9.9\r\n\r\n", 400, "unsupported protocol");
    check(
        "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
        400,
        "malformed header",
    );
    check(
        "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        400,
        "Content-Length",
    );
    check(
        "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        400,
        "Transfer-Encoding",
    );
    check("DELETE /ql HTTP/1.1\r\n\r\n", 405, "DELETE");
    check(
        "POST /ql HTTP/1.1\r\nContent-Length: 99999\r\n\r\n",
        413,
        "exceeds",
    );
    let huge_head = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(4096));
    check(&huge_head, 431, "request head");

    // Routing-level errors ride a healthy connection.
    let mut client = Client::connect(server.addr()).expect("connect");
    let response = client.get("/no/such/route").expect("request");
    assert_eq!(response.status, 404);
    let response = client.get("/ql").expect("request");
    assert_eq!(response.status, 400, "missing query text is a client error");
    assert!(response.body_text().contains("missing query"));

    let snapshot = server.metrics();
    assert!(snapshot.counter("server.responses.400") >= 4);
    assert!(snapshot.counter("server.responses.404") >= 1);
    server.shutdown();
}

#[test]
fn stalled_and_overlong_requests_time_out_as_408() {
    let mut config = test_config();
    config.request_timeout = Duration::from_millis(100);
    config.keepalive_idle = Duration::from_millis(200);
    let server = empty_server(config);

    // A handler that overruns the per-request deadline: the response is
    // replaced with 408.
    let mut client = Client::connect(server.addr()).expect("connect");
    let response = client
        .request(
            "GET",
            "/health",
            None,
            &[("X-Qb2olap-Test-Sleep-Ms", "250")],
        )
        .expect("request");
    assert_eq!(response.status, 408, "deadline overrun → 408");
    assert!(response.body_text().contains("deadline"));

    // A request that stalls mid-flight (half a request line, then
    // silence): the read timeout fires and the server answers 408 rather
    // than waiting forever.
    let mut client = Client::connect(server.addr()).expect("connect");
    client.send_raw(b"GET /health HTT").expect("partial send");
    let response = client.read_response().expect("response");
    assert_eq!(response.status, 408, "mid-request stall → 408");

    assert!(server.metrics().counter("server.timeouts") >= 2);
    server.shutdown();
}

#[test]
fn saturated_pool_refuses_with_429() {
    let mut config = test_config();
    config.workers = 1;
    config.queue_capacity = 0; // rendezvous: admit only when a worker is idle
    let server = empty_server(config);
    let addr = server.addr();

    // A rendezvous queue refuses while the freshly spawned worker has not
    // reached its first `recv` yet: wait until it serves.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while Client::connect(addr)
        .expect("connect")
        .get("/health")
        .expect("request")
        .status
        != 200
    {
        assert!(
            std::time::Instant::now() < deadline,
            "the worker never came up"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50)); // the warm-up connection has closed

    // Occupy the single worker...
    let busy = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .request(
                "GET",
                "/health",
                None,
                &[("X-Qb2olap-Test-Sleep-Ms", "600")],
            )
            .expect("request")
    });
    std::thread::sleep(Duration::from_millis(150));

    // ... so the next connection finds queue and workers full: 429 at
    // admission, before any handler runs.
    let mut refused = Client::connect(addr).expect("connect");
    let response = refused.get("/health").expect("request");
    assert_eq!(response.status, 429);
    assert!(response.body_text().contains("saturated"));

    // The busy request was unaffected by the refusal.
    let busy_response = busy.join().expect("busy thread");
    assert_eq!(busy_response.status, 200);

    assert!(server.metrics().counter("server.rejected.saturated") >= 1);
    server.shutdown();
}

#[test]
fn a_panicking_handler_answers_500_and_is_counted() {
    let mut config = test_config();
    config.workers = 1;
    let server = empty_server(config);

    // Twice on one worker: the panic answers, closes its connection and
    // leaves the worker serving.
    for _ in 0..2 {
        let mut client = Client::connect(server.addr()).expect("connect");
        let response = client
            .request("GET", "/health", None, &[("X-Qb2olap-Test-Panic", "1")])
            .expect("a response, not a dropped connection");
        assert_eq!(response.status, 500);
        assert_eq!(response.body_text(), "{\"error\":\"internal error\"}\n");
        assert_eq!(response.header("connection"), Some("close"));
    }
    let mut client = Client::connect(server.addr()).expect("connect");
    let after = client.get("/health").expect("served after the panics");
    assert_eq!(after.status, 200);

    let snapshot = server.metrics();
    assert_eq!(snapshot.counter("server.panics"), 2);
    assert_eq!(snapshot.counter("server.responses.500"), 2);
    server.shutdown();
}

#[test]
fn keep_alive_reuses_one_connection() {
    let server = empty_server(test_config());
    let mut client = Client::connect(server.addr()).expect("connect");

    assert_eq!(client.get("/health").expect("1st").status, 200);
    assert_eq!(client.get("/metrics").expect("2nd").status, 200);
    // Even an application error (404) keeps the connection usable.
    assert_eq!(client.get("/nope").expect("3rd").status, 404);
    assert_eq!(client.get("/health").expect("4th").status, 200);

    let snapshot = server.metrics();
    assert_eq!(
        snapshot.counter("server.connections"),
        1,
        "four requests, one connection"
    );
    assert_eq!(snapshot.counter("server.requests"), 4);
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let mut config = test_config();
    config.keepalive_idle = Duration::from_millis(200);
    let server = empty_server(config);
    let addr = server.addr();

    // A request still running when shutdown starts must complete.
    let in_flight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .request(
                "GET",
                "/health",
                None,
                &[("X-Qb2olap-Test-Sleep-Ms", "300")],
            )
            .expect("request")
    });
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown(); // blocks until workers drained

    let response = in_flight.join().expect("in-flight thread");
    assert_eq!(
        response.status, 200,
        "in-flight request drained, not dropped"
    );

    // The listener is gone: new connections are refused (or reset at the
    // first read on platforms that accept into a dead backlog).
    let late = Client::connect(addr).and_then(|mut c| c.get("/health"));
    assert!(late.is_err(), "server no longer serves after shutdown");
}

#[test]
fn wire_responses_match_library_results_bit_for_bit() {
    let cube =
        qb2olap::demo::setup_demo_cube(&datagen::EurostatConfig::small(200)).expect("demo cube");
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let server = qb2olap_server::start(tool.clone(), test_config()).expect("bind server");
    let mut client = Client::connect(server.addr()).expect("connect");

    // /ql over the whole E7 workload: wire body == canonical serialization
    // of the library result computed on a settled snapshot.
    let querying = tool.querying(&cube.dataset).expect("enriched cube");
    let snapshot = querying.snapshot_settled().expect("settled snapshot");
    for (name, ql) in datagen::workload::bench_queries() {
        let prepared = querying.prepare(&ql).expect("prepare");
        let want = cube_to_json(
            &querying
                .execute_on_snapshot(&prepared, &snapshot)
                .expect("library execute"),
        );
        let response = client.post("/ql", &ql).expect("wire execute");
        assert_eq!(response.status, 200, "{name}: {}", response.body_text());
        assert_eq!(
            response.body_text(),
            want,
            "{name}: wire and library bodies differ"
        );
        let epoch: u64 = response
            .header("x-qb2olap-epoch")
            .expect("epoch header")
            .parse()
            .expect("numeric epoch");
        assert_eq!(
            epoch,
            snapshot.epoch(),
            "{name}: served from the same epoch"
        );
    }

    // /sparql: same contract against Endpoint::select.
    let sparql = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 10";
    let want = solutions_to_json(&cube.endpoint.select(sparql).expect("library select"));
    let response = client
        .get(&format!("/sparql?query={}", percent_encode(sparql)))
        .expect("wire select");
    assert_eq!(response.status, 200);
    assert_eq!(response.body_text(), want);

    // Engine errors surface as 400 carrying the engine's own message.
    let broken_ql = "QUERY $C1 := ROLLUP (data:migr_asyappctzm, schema:nopeDim, schema:nope);";
    let library_error = querying.prepare(broken_ql).expect_err("bad QL").to_string();
    let response = client.post("/ql", broken_ql).expect("wire error");
    assert_eq!(response.status, 400);
    let want_error = format!(
        "{{\"error\":{}}}\n",
        qb2olap_server::http::json_string(&library_error)
    );
    assert_eq!(
        response.body_text(),
        want_error,
        "the engine's message travels to the client verbatim"
    );
    let bad_sparql = client.get("/sparql?query=NOT+SPARQL").expect("wire error");
    assert_eq!(bad_sparql.status, 400);

    server.shutdown();
}

#[test]
fn exploration_explain_and_metrics_are_served() {
    let cube =
        qb2olap::demo::setup_demo_cube(&datagen::EurostatConfig::small(200)).expect("demo cube");
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let server = qb2olap_server::start(tool, test_config()).expect("bind server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let datasets = client.get("/datasets").expect("datasets");
    assert_eq!(datasets.status, 200);
    assert!(datasets.body_text().contains(cube.dataset.as_str()));

    let tree = client.get("/explore/schema").expect("schema");
    assert_eq!(tree.status, 200);
    assert!(tree.body_text().contains("citizenshipDim"));

    let summary = client.get("/explore/summary").expect("summary");
    assert_eq!(summary.status, 200);
    assert!(summary.body_text().contains("\"enriched\":true"));

    let level = rdf::vocab::eurostat_property::citizen();
    let members = client
        .get(&format!(
            "/explore/members?level={}",
            percent_encode(level.as_str())
        ))
        .expect("members");
    assert_eq!(members.status, 200, "{}", members.body_text());
    assert!(members.body_text().contains("\"members\":["));
    assert!(members.body_text().len() > 20, "members list is non-empty");

    let missing_level = client.get("/explore/members").expect("members sans level");
    assert_eq!(missing_level.status, 400);

    let explained = client
        .post("/explain", &datagen::workload::mary_query())
        .expect("explain");
    assert_eq!(explained.status, 200);
    assert!(explained.body_text().contains("EXPLAIN ANALYZE"));

    // Metrics: text by default, JSON on request, and the server's own
    // series appear alongside the engine's.
    let text = client.get("/metrics").expect("metrics text");
    assert_eq!(
        text.header("content-type"),
        Some("text/plain; charset=utf-8")
    );
    assert!(text.body_text().contains("server.requests"));
    assert!(text.body_text().contains("server.request.explain"));
    assert!(text.body_text().contains("server.latency_ns.explore"));
    assert!(text.body_text().contains("catalog."));
    let json = client.get("/metrics?format=json").expect("metrics json");
    assert_eq!(json.header("content-type"), Some("application/json"));
    assert!(json.body_text().contains("\"counters\""));

    server.shutdown();
}

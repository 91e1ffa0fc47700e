//! Route dispatch: maps parsed requests onto the QB2OLAP modules.
//!
//! Every query route follows the same shape: resolve the dataset, fetch
//! its cached [`CubeSchema`], open the module *per request* over the
//! shared endpoint + catalog (cheap — no SPARQL round-trips thanks to
//! [`ql::QueryingModule::with_schema_and_catalog`]), pin a
//! [`cubestore::CubeSnapshot`] (~hundreds of nanoseconds, never waits on
//! a background fold), execute against the pin, serialize with the
//! canonical serializers in [`crate::json`] — `/ql` straight from the
//! engine's coded result, never building a [`ql::ResultCube`]. Engine
//! errors surface as `400` with the engine's message verbatim in
//! `{"error": ...}` — the same string a library caller would get from the
//! `Err`.

use std::time::Instant;

use crate::http::{Request, Response};
use crate::json::{coded_cube_to_json, solutions_to_json};
use crate::{ServerState, EPOCH_HEADER};
use explorer::CubeExplorer;
use ql::QueryingModule;
use rdf::Iri;
use sparql::Endpoint;

/// Handles one request end to end, recording per-endpoint counters and
/// latency histograms on the shared registry.
pub fn handle(state: &ServerState, request: &Request) -> Response {
    let started = Instant::now();
    state.metrics.counter("server.requests").add(1);

    // Test hooks: simulate a slow or a panicking handler. Only honored
    // when the config opts in — production servers ignore the headers
    // entirely.
    if state.config.debug_delay_header {
        if let Some(ms) = request
            .header("x-qb2olap-test-sleep-ms")
            .and_then(|v| v.parse::<u64>().ok())
        {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if request.header("x-qb2olap-test-panic").is_some() {
            panic!("handler panic requested by the x-qb2olap-test-panic header");
        }
    }

    let response = dispatch(state, request);

    let key = endpoint_key(&request.path);
    state
        .metrics
        .counter(&format!("server.request.{key}"))
        .add(1);
    state
        .metrics
        .histogram(&format!("server.latency_ns.{key}"))
        .record_duration(started.elapsed());
    response
}

/// The metric suffix for a path (`/explore/members` → `explore`).
fn endpoint_key(path: &str) -> &'static str {
    match path.split('/').nth(1).unwrap_or("") {
        "health" => "health",
        "datasets" => "datasets",
        "ql" => "ql",
        "sparql" => "sparql",
        "explain" => "explain",
        "explore" => "explore",
        "metrics" => "metrics",
        _ => "other",
    }
}

fn dispatch(state: &ServerState, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        (_, "/health") => Response::text("ok\n"),
        ("GET", "/datasets") => datasets(state),
        (_, "/ql") => ql_route(state, request),
        (_, "/sparql") => sparql_route(state, request),
        (_, "/explain") => explain_route(state, request),
        ("GET", "/explore/schema") => explore(state, request, ExploreView::Schema),
        ("GET", "/explore/summary") => explore(state, request, ExploreView::Summary),
        ("GET", "/explore/members") => explore(state, request, ExploreView::Members),
        ("GET", "/metrics") => metrics_route(state, request),
        _ => Response::error(404, &format!("no such endpoint: {}", request.path)),
    }
}

/// The query text for `/ql` and `/explain`: POST body, or the `q`
/// query-string parameter.
fn query_text(request: &Request, param: &str) -> Result<String, Response> {
    if !request.body.is_empty() {
        return Ok(request.body_text());
    }
    if let Some(text) = request.query_param(param) {
        if !text.trim().is_empty() {
            return Ok(text);
        }
    }
    Err(Response::error(
        400,
        &format!("missing query: POST it as the request body or pass ?{param}="),
    ))
}

/// Resolves which dataset a request addresses: explicit `?dataset=`, the
/// server's configured default, else the single enriched cube on the
/// endpoint (ambiguity and absence are client errors, not guesses).
fn resolve_dataset(state: &ServerState, request: &Request) -> Result<Iri, Response> {
    if let Some(dataset) = request.query_param("dataset") {
        return Ok(Iri::new(dataset));
    }
    if let Some(dataset) = &state.config.default_dataset {
        return Ok(dataset.clone());
    }
    let cubes = explorer::list_cubes(state.tool.endpoint())
        .map_err(|e| Response::error(500, &e.to_string()))?;
    let enriched: Vec<_> = cubes.iter().filter(|c| c.enriched).collect();
    match enriched.as_slice() {
        [only] => Ok(only.dataset.clone()),
        [] => Err(Response::error(
            404,
            "no enriched cube on the endpoint; pass ?dataset=<iri>",
        )),
        _ => Err(Response::error(
            400,
            "multiple enriched cubes on the endpoint; pass ?dataset=<iri>",
        )),
    }
}

/// The cached QB4OLAP schema of a dataset, discovered once per server
/// lifetime (re-enrichment under a running server needs a restart or an
/// explicit `?dataset=` on a fresh IRI).
fn schema_for(state: &ServerState, dataset: &Iri) -> Result<qb4olap::CubeSchema, Response> {
    if let Some(schema) = state.schemas.read().get(dataset) {
        return Ok(schema.clone());
    }
    let schema = qb4olap::schema_from_endpoint(state.tool.endpoint(), dataset)
        .map_err(|e| Response::error(400, &e.to_string()))?;
    state
        .schemas
        .write()
        .entry(dataset.clone())
        .or_insert_with(|| schema.clone());
    Ok(schema)
}

fn querying_module<'t>(
    state: &'t ServerState,
    request: &Request,
) -> Result<QueryingModule<'t>, Response> {
    let dataset = resolve_dataset(state, request)?;
    let schema = schema_for(state, &dataset)?;
    Ok(QueryingModule::with_schema_and_catalog(
        state.tool.endpoint(),
        schema,
        state.tool.catalog().clone(),
    ))
}

fn ql_route(state: &ServerState, request: &Request) -> Response {
    let text = match query_text(request, "q") {
        Ok(text) => text,
        Err(response) => return response,
    };
    let module = match querying_module(state, request) {
        Ok(module) => module,
        Err(response) => return response,
    };
    // Pin first, then prepare: the response is computed entirely against
    // this snapshot, bit-identical to a library call on the same pin even
    // while a background fold replaces the base underneath.
    let snapshot = match module.snapshot() {
        Ok(snapshot) => snapshot,
        Err(e) => return Response::error(500, &e.to_string()),
    };
    let prepared = match module.prepare(&text) {
        Ok(prepared) => prepared,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    match module.execute_coded_on_snapshot(&prepared, &snapshot) {
        Ok(cube) => Response::json(coded_cube_to_json(&cube))
            .with_header(EPOCH_HEADER, snapshot.epoch().to_string()),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

fn sparql_route(state: &ServerState, request: &Request) -> Response {
    let text = if !request.body.is_empty() {
        request.body_text()
    } else {
        match request.query_param("query") {
            Some(text) if !text.trim().is_empty() => text,
            _ => {
                return Response::error(
                    400,
                    "missing query: POST it as the request body or pass ?query=",
                )
            }
        }
    };
    let endpoint = state.tool.endpoint();
    let epoch = endpoint.epoch();
    match endpoint.select(&text) {
        Ok(solutions) => Response::json(solutions_to_json(&solutions))
            .with_header(EPOCH_HEADER, epoch.to_string()),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

fn explain_route(state: &ServerState, request: &Request) -> Response {
    let text = match query_text(request, "q") {
        Ok(text) => text,
        Err(response) => return response,
    };
    let module = match querying_module(state, request) {
        Ok(module) => module,
        Err(response) => return response,
    };
    match module.explain(&text) {
        Ok(explained) => Response::text(explained),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

enum ExploreView {
    Schema,
    Summary,
    Members,
}

fn explore(state: &ServerState, request: &Request, view: ExploreView) -> Response {
    let dataset = match resolve_dataset(state, request) {
        Ok(dataset) => dataset,
        Err(response) => return response,
    };
    let schema = match schema_for(state, &dataset) {
        Ok(schema) => schema,
        Err(response) => return response,
    };
    let explorer = CubeExplorer::with_schema_and_catalog(
        state.tool.endpoint(),
        schema,
        state.tool.catalog().clone(),
    );
    match view {
        ExploreView::Schema => match explorer.schema_tree() {
            Ok(tree) => Response::text(tree),
            Err(e) => Response::error(400, &e.to_string()),
        },
        ExploreView::Summary => match explorer.summary() {
            Ok(summary) => {
                let mut out = String::from("{");
                out.push_str(&format!(
                    "\"dataset\":{},",
                    crate::http::json_string(summary.dataset.as_str())
                ));
                match &summary.label {
                    Some(label) => {
                        out.push_str(&format!("\"label\":{},", crate::http::json_string(label)))
                    }
                    None => out.push_str("\"label\":null,"),
                }
                out.push_str(&format!(
                    "\"observations\":{},\"enriched\":{}}}\n",
                    summary.observations, summary.enriched
                ));
                Response::json(out)
            }
            Err(e) => Response::error(400, &e.to_string()),
        },
        ExploreView::Members => {
            let Some(level) = request.query_param("level") else {
                return Response::error(400, "missing ?level=<level iri>");
            };
            match explorer.members(&Iri::new(level.clone())) {
                Ok(members) => {
                    let mut out = String::from("{\"level\":");
                    out.push_str(&crate::http::json_string(&level));
                    out.push_str(",\"members\":[");
                    for (i, info) in members.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!(
                            "{{\"member\":{},\"label\":{}}}",
                            crate::http::json_string(&info.member.to_string()),
                            crate::http::json_string(&info.label),
                        ));
                    }
                    out.push_str("]}\n");
                    Response::json(out)
                }
                Err(e) => Response::error(400, &e.to_string()),
            }
        }
    }
}

fn datasets(state: &ServerState) -> Response {
    match explorer::list_cubes(state.tool.endpoint()) {
        Ok(cubes) => {
            let mut out = String::from("[");
            for (i, cube) in cubes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"dataset\":{},\"observations\":{},\"enriched\":{}}}",
                    crate::http::json_string(cube.dataset.as_str()),
                    cube.observations,
                    cube.enriched,
                ));
            }
            out.push_str("]\n");
            Response::json(out)
        }
        Err(e) => Response::error(500, &e.to_string()),
    }
}

fn metrics_route(state: &ServerState, request: &Request) -> Response {
    let snapshot = state.metrics.snapshot();
    let wants_json = request.query_param("format").as_deref() == Some("json")
        || request
            .header("accept")
            .is_some_and(|a| a.contains("application/json"));
    if wants_json {
        Response::json(snapshot.to_json())
    } else {
        Response::text(snapshot.render_text())
    }
}

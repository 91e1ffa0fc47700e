//! # HTTP serving front end over snapshot pins
//!
//! A dependency-free HTTP/1.1 server (hand-rolled over
//! [`std::net::TcpListener`]) exposing the QB2OLAP modules over the wire:
//! QL pipelines (`/ql`), SPARQL SELECT (`/sparql`), exploration
//! (`/explore/*`), `EXPLAIN ANALYZE` (`/explain`) and the observability
//! registry (`/metrics`) — all over **one shared [`qb2olap::Qb2Olap`]**.
//!
//! The serving contract extends the library's non-blocking guarantee
//! (ARCHITECTURE.md §"Overlay & background fold") over the wire:
//!
//! - every `/ql` request pins a [`cubestore::CubeSnapshot`] (~300 ns) and
//!   computes its whole response against that pin — responses are
//!   **bit-identical** to library calls on the same snapshot, even while
//!   a background fold replaces the cube underneath;
//! - a fixed worker pool with a **bounded accept queue** admits requests;
//!   saturation is an explicit `429`, never an unbounded backlog;
//! - a per-request deadline turns overlong work into `408`;
//! - a handler panic answers `500 {"error":"internal error"}`, counts in
//!   `server.panics` and closes its connection; the worker lives on;
//! - shutdown is graceful: queued and in-flight requests finish, new
//!   connections are refused.
//!
//! ```no_run
//! let cube = qb2olap::demo::setup_demo_cube(&datagen::EurostatConfig::small(200)).unwrap();
//! let tool = qb2olap::Qb2Olap::new(cube.endpoint.clone());
//! let server = qb2olap_server::start(tool, qb2olap_server::ServerConfig::default()).unwrap();
//! println!("serving on http://{}", server.addr());
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod json;
pub mod pool;
mod routes;

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::MetricsRegistry;
use parking_lot::RwLock;
use qb2olap::Qb2Olap;
use qb4olap::CubeSchema;
use rdf::Iri;

use http::{ReadError, ReadLimits, Response};
use pool::WorkerPool;

/// The response header carrying the epoch of the snapshot (or store) a
/// response was computed against.
pub const EPOCH_HEADER: &str = "X-Qb2olap-Epoch";

/// Server tuning knobs. `Default` is sized for tests and demos; a real
/// deployment mostly raises `workers` and `queue_capacity`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back via
    /// [`QbServer::addr`]).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker; beyond it the
    /// accept loop answers `429`. `0` admits only when a worker is idle.
    pub queue_capacity: usize,
    /// Deadline per request; work that finishes later is reported as `408`.
    pub request_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests.
    pub keepalive_idle: Duration,
    /// Cap on a request body (`413` beyond it).
    pub max_body_bytes: usize,
    /// Cap on the request line + headers (`431` beyond it).
    pub max_head_bytes: usize,
    /// The dataset served when a request does not name one; `None` falls
    /// back to the endpoint's single enriched cube.
    pub default_dataset: Option<Iri>,
    /// Honor the `X-Qb2olap-Test-Sleep-Ms` and `X-Qb2olap-Test-Panic`
    /// headers (tests only — simulate slow and panicking handlers for
    /// deadline, saturation and panic coverage).
    pub debug_delay_header: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            queue_capacity: 64,
            request_timeout: Duration::from_secs(10),
            keepalive_idle: Duration::from_secs(5),
            max_body_bytes: 1 << 20,
            max_head_bytes: 16 << 10,
            default_dataset: None,
            debug_delay_header: false,
        }
    }
}

/// Shared server state: the tool, the config, the per-dataset schema cache
/// and the metrics registry (the catalog's, so `server.*` series land next
/// to `catalog.*` and `ql.*` in one `/metrics` snapshot).
pub struct ServerState {
    /// The shared QB2OLAP tool.
    pub tool: Qb2Olap,
    /// The server configuration.
    pub config: ServerConfig,
    /// Cached QB4OLAP schemas, discovered once per dataset.
    pub schemas: RwLock<BTreeMap<Iri, CubeSchema>>,
    /// The shared metrics registry.
    pub metrics: Arc<MetricsRegistry>,
    /// Set during shutdown: keep-alive loops close after their current
    /// response instead of waiting for another request.
    stop: AtomicBool,
}

/// A running server. Dropping it (or calling [`QbServer::shutdown`]) stops
/// accepting, drains queued and in-flight requests, and joins every thread.
pub struct QbServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    pool: Option<WorkerPool>,
}

/// Starts a server over `tool`, returning once the listener is bound and
/// the workers are running.
pub fn start(tool: Qb2Olap, config: ServerConfig) -> std::io::Result<QbServer> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let metrics = tool.catalog().metrics().clone();
    let state = Arc::new(ServerState {
        tool,
        config,
        schemas: RwLock::new(BTreeMap::new()),
        metrics,
        stop: AtomicBool::new(false),
    });

    let handler = {
        let state = state.clone();
        Arc::new(move |stream: TcpStream| serve_connection(&state, stream))
    };
    let pool = WorkerPool::start(state.config.workers, state.config.queue_capacity, handler);

    // The accept loop gets a clone of the queue's sender half; the pool
    // itself stays here, whose `shutdown` must drop the *last* sender to
    // end the channel — which is why shutdown joins the accept thread
    // (dropping its dispatcher) before shutting the pool down.
    let accept = {
        let state = state.clone();
        let dispatcher = pool.dispatcher();
        std::thread::Builder::new()
            .name("qb2olap-accept".to_string())
            .spawn(move || accept_loop(&state, &listener, &dispatcher))?
    };

    Ok(QbServer {
        addr,
        state,
        accept: Some(accept),
        pool: Some(pool),
    })
}

fn accept_loop(state: &ServerState, listener: &TcpListener, dispatcher: &pool::Dispatcher) {
    loop {
        let accepted = listener.accept();
        if state.stop.load(Ordering::SeqCst) {
            return; // the wake-up connection from shutdown() lands here
        }
        let Ok((stream, _peer)) = accepted else {
            continue;
        };
        state.metrics.counter("server.connections").add(1);
        if let Err(mut refused) = dispatcher.try_dispatch(stream) {
            // Every worker busy and the queue full: refuse explicitly
            // instead of queueing without bound.
            state.metrics.counter("server.rejected.saturated").add(1);
            let response = Response::error(429, "server saturated: try again");
            let _ = response.write_to(&mut refused, false);
        }
    }
}

impl QbServer {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The base URL (`http://host:port`).
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// A point-in-time snapshot of every metric, `server.*` included.
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        self.state.metrics.snapshot()
    }

    /// Stops accepting, drains queued + in-flight requests, joins all
    /// threads. Idle keep-alive connections close within the configured
    /// `keepalive_idle`.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.accept.is_none() && self.pool.is_none() {
            return;
        }
        self.state.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
    }
}

impl Drop for QbServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Serves one connection for its whole keep-alive lifetime.
fn serve_connection(state: &ServerState, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut write_half = &stream;
    let limits = ReadLimits {
        max_head_bytes: state.config.max_head_bytes,
        max_body_bytes: state.config.max_body_bytes,
    };

    loop {
        // One read timeout covers both keep-alive idleness (before the
        // first byte — close silently) and a stalled request (after it —
        // answer 408).
        let _ = stream.set_read_timeout(http::effective_timeout(state.config.keepalive_idle));
        let request = match http::read_request(&mut reader, limits) {
            Ok(request) => request,
            Err(error) => {
                if let Some(response) = response_for_read_error(state, &error) {
                    record_status(state, response.status);
                    let _ = response.write_to(&mut write_half, false);
                }
                return;
            }
        };

        let started = Instant::now();
        let handled = panic::catch_unwind(AssertUnwindSafe(|| routes::handle(state, &request)));
        let Ok(mut response) = handled else {
            // A panicking handler answers, is counted, and closes its
            // connection: whatever it left half done stays behind.
            state.metrics.counter("server.panics").add(1);
            record_status(state, 500);
            let _ = Response::error(500, "internal error").write_to(&mut write_half, false);
            return;
        };
        if started.elapsed() > state.config.request_timeout {
            state.metrics.counter("server.timeouts").add(1);
            response = Response::error(
                408,
                &format!(
                    "request exceeded the {:?} deadline",
                    state.config.request_timeout
                ),
            );
        }
        record_status(state, response.status);

        let keep_alive = request.keep_alive && !state.stop.load(Ordering::SeqCst);
        if response.write_to(&mut write_half, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

fn record_status(state: &ServerState, status: u16) {
    state
        .metrics
        .counter(&format!("server.responses.{status}"))
        .add(1);
}

/// Maps a read failure to its response; `None` closes silently (clean EOF
/// or an idle keep-alive timeout — normal connection lifecycle, not an
/// error the client needs told about).
fn response_for_read_error(state: &ServerState, error: &ReadError) -> Option<Response> {
    match error {
        ReadError::ClosedIdle | ReadError::TimedOutIdle | ReadError::Io(_) => None,
        ReadError::TimedOutMidRequest => {
            state.metrics.counter("server.timeouts").add(1);
            Some(Response::error(408, "timed out reading the request"))
        }
        ReadError::Malformed(detail) => Some(Response::error(400, detail)),
        ReadError::BodyTooLarge { declared, limit } => Some(Response::error(
            413,
            &format!("request body of {declared} bytes exceeds the {limit}-byte limit"),
        )),
        ReadError::HeadersTooLarge { limit } => Some(Response::error(
            431,
            &format!("request head exceeds the {limit}-byte limit"),
        )),
        ReadError::MethodNotAllowed(method) => Some(Response::error(
            405,
            &format!("method {method} not supported; use GET or POST"),
        )),
    }
}

// Re-exported for integration tests and loadgen: the canonical wire
// serializers — call them on library-side results to assert bit-identity
// with what the server sent.
pub use json::{coded_cube_to_json, cube_to_json, solutions_to_json};
pub use routes::handle as handle_request;

#[doc(hidden)]
pub use http::{percent_encode, Request as HttpRequest};

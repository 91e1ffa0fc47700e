//! `TimedEndpoint`: a `sparql::Endpoint` wrapper (same delegation shape as
//! `sparql::ConservativeEndpoint`) that times and counts every query it
//! forwards, so the SPARQL share of a cube build or an enrichment run is
//! attributed from outside, without touching `build.rs` or `session.rs`.

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qb2olap::rdf::{Iri, StoreDelta, Triple};
use qb2olap::sparql::ast::Query;
use qb2olap::sparql::{Endpoint, QueryResults, SparqlError};

pub struct TimedEndpoint<'e, E> {
    inner: &'e E,
    queries: Cell<u64>,
    busy: Cell<Duration>,
}

impl<'e, E: Endpoint> TimedEndpoint<'e, E> {
    pub fn new(inner: &'e E) -> Self {
        TimedEndpoint {
            inner,
            queries: Cell::new(0),
            busy: Cell::new(Duration::ZERO),
        }
    }

    /// Queries forwarded and the time spent inside them since the last call.
    pub fn take(&self) -> (u64, Duration) {
        (self.queries.replace(0), self.busy.replace(Duration::ZERO))
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = f();
        self.busy.set(self.busy.get() + started.elapsed());
        self.queries.set(self.queries.get() + 1);
        value
    }
}

impl<E: Endpoint> Endpoint for TimedEndpoint<'_, E> {
    // `select`, `ask` and `select_parsed` keep their default bodies, which
    // funnel into these two.
    fn query(&self, sparql: &str) -> Result<QueryResults, SparqlError> {
        self.timed(|| self.inner.query(sparql))
    }

    fn query_parsed(&self, query: &Query) -> Result<QueryResults, SparqlError> {
        self.timed(|| self.inner.query_parsed(query))
    }

    fn insert_triples(&self, triples: &[Triple]) -> Result<usize, SparqlError> {
        self.inner.insert_triples(triples)
    }

    fn insert_triples_named(&self, graph: &Iri, triples: &[Triple]) -> Result<usize, SparqlError> {
        self.inner.insert_triples_named(graph, triples)
    }

    fn triple_count(&self) -> usize {
        self.inner.triple_count()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn deltas_since(&self, since: u64) -> Option<Vec<StoreDelta>> {
        self.inner.deltas_since(since)
    }

    fn enable_change_tracking(&self) {
        self.inner.enable_change_tracking();
    }

    fn background_handle(&self) -> Option<Arc<dyn Endpoint + Send + Sync>> {
        self.inner.background_handle()
    }
}

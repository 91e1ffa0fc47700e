//! The endpoint abstraction.
//!
//! In the original QB2OLAP deployment all three modules talk to a Virtuoso
//! SPARQL endpoint. Here the [`Endpoint`] trait captures exactly that
//! contract — query text in, results out — and [`LocalEndpoint`] implements
//! it over an in-process [`rdf::Store`]. Higher layers (enrichment,
//! exploration, querying) only ever use the trait, so they are oblivious to
//! where the data lives, just as in the paper.
//!
//! Results cross the boundary in one form: a SELECT yields the evaluator's
//! [`EncodedSolutions`], which bulk consumers read as they are
//! ([`Endpoint::select_encoded`]) and everyone else decodes once, at the
//! edge ([`Endpoint::select`]). A wrapper that forwards `query` and
//! `query_parsed` therefore runs exactly the path the product runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rdf::{Iri, Store, StoreDelta, Triple};

use crate::ast::Query;
use crate::error::SparqlError;
use crate::eval::evaluate_query;
use crate::parser::parse_query;
use crate::pretty::query_to_string;
use crate::results::{EncodedSolutions, QueryResults, Solutions};

/// A SPARQL endpoint: accepts query text, returns results.
///
/// A SELECT answers in one form, [`EncodedSolutions`], from
/// [`Self::query`] and [`Self::query_parsed`] — the only two methods a
/// forwarding wrapper needs to override. [`Self::select_encoded`] hands that
/// result out as it is; [`Self::select`] and [`Self::select_parsed`] decode
/// it once into [`Solutions`].
pub trait Endpoint {
    /// Executes any supported query form.
    fn query(&self, sparql: &str) -> Result<QueryResults, SparqlError>;

    /// Executes an already-parsed query, skipping the text round-trip.
    ///
    /// Callers that run the same query shape many times (the Enrichment
    /// module's per-chunk `VALUES` probes) parse a template once, patch it,
    /// and execute it here. The default implementation pretty-prints the
    /// AST and goes through [`Self::query`], so remote endpoints that only
    /// speak text keep working; [`LocalEndpoint`] evaluates the AST
    /// directly.
    fn query_parsed(&self, query: &Query) -> Result<QueryResults, SparqlError> {
        self.query(&query_to_string(query))
    }

    /// Executes an already-parsed SELECT query and returns its solutions.
    fn select_parsed(&self, query: &Query) -> Result<Solutions, SparqlError> {
        Ok(select_result(self.query_parsed(query)?)?.into())
    }

    /// Executes a SELECT query and returns its solutions.
    fn select(&self, sparql: &str) -> Result<Solutions, SparqlError> {
        Ok(self.select_encoded(sparql)?.into())
    }

    /// Executes a SELECT query and returns its solutions dictionary-encoded
    /// (see [`EncodedSolutions`]), as [`Self::query`] produced them — the
    /// entry point for bulk consumers that do per-*term* work, such as the
    /// columnar cube build.
    fn select_encoded(&self, sparql: &str) -> Result<EncodedSolutions, SparqlError> {
        select_result(self.query(sparql)?)
    }

    /// Executes an ASK query and returns its boolean.
    fn ask(&self, sparql: &str) -> Result<bool, SparqlError> {
        match self.query(sparql)? {
            QueryResults::Boolean(b) => Ok(b),
            QueryResults::Solutions(_) => Err(SparqlError::Endpoint(
                "expected an ASK query, got a SELECT result".to_string(),
            )),
        }
    }

    /// Loads triples into the endpoint's default graph (the paper's
    /// Enrichment module loads the generated schema and instance triples
    /// back into the endpoint).
    fn insert_triples(&self, triples: &[Triple]) -> Result<usize, SparqlError>;

    /// Loads triples into a named graph.
    fn insert_triples_named(&self, graph: &Iri, triples: &[Triple]) -> Result<usize, SparqlError>;

    /// Number of triples stored (default graph).
    fn triple_count(&self) -> usize;

    /// The endpoint's mutation epoch (see [`rdf::Store::epoch`]).
    ///
    /// Consumers holding derived state compare epochs to detect staleness.
    /// The default (always 0) means "never reports a change": backends
    /// without change tracking serve snapshots, exactly as before.
    fn epoch(&self) -> u64 {
        0
    }

    /// The store deltas recorded after epoch `since`, oldest first, or
    /// `None` when the endpoint cannot answer (no change tracking, or the
    /// log no longer covers `since`) — the consumer must then rebuild from
    /// a fresh snapshot.
    fn deltas_since(&self, since: u64) -> Option<Vec<StoreDelta>> {
        let _ = since;
        None
    }

    /// Asks the endpoint to start recording mutations so that
    /// [`Self::deltas_since`] can answer. A no-op by default (and for
    /// backends that cannot track changes).
    fn enable_change_tracking(&self) {}

    /// An owned, thread-safe, **epoch-consistent** handle for background
    /// maintenance, or `None` when the endpoint cannot provide one.
    ///
    /// The handle must answer queries for one frozen store state whose
    /// [`Self::epoch`] matches that state — later mutations of the live
    /// endpoint must be invisible through it, so a rebuild running on
    /// another thread materializes a single well-defined epoch instead of
    /// a torn mix. Endpoints answering `None` (the default, and the
    /// conservative wrapper) degrade background maintenance to the inline
    /// blocking path.
    fn background_handle(&self) -> Option<Arc<dyn Endpoint + Send + Sync>> {
        None
    }
}

/// The solutions of a SELECT result; an ASK result is an error.
pub(crate) fn select_result(results: QueryResults) -> Result<EncodedSolutions, SparqlError> {
    match results {
        QueryResults::Solutions(solutions) => Ok(solutions),
        QueryResults::Boolean(_) => Err(SparqlError::Endpoint(
            "expected a SELECT query, got an ASK result".to_string(),
        )),
    }
}

/// An in-process endpoint backed by an [`rdf::Store`].
#[derive(Debug, Clone, Default)]
pub struct LocalEndpoint {
    store: Store,
    queries_executed: Arc<AtomicUsize>,
}

impl LocalEndpoint {
    /// Creates an endpoint over a fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an endpoint over an existing store.
    pub fn with_store(store: Store) -> Self {
        LocalEndpoint {
            store,
            queries_executed: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The underlying store (shared).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Number of queries executed so far (for the workflow statistics the
    /// demo UI displays).
    pub fn queries_executed(&self) -> usize {
        self.queries_executed.load(Ordering::Relaxed)
    }
}

impl Endpoint for LocalEndpoint {
    fn query(&self, sparql: &str) -> Result<QueryResults, SparqlError> {
        let parsed = {
            let _parse_span = obs::span("sparql.parse");
            parse_query(sparql)
        };
        match parsed {
            Ok(query) => self.query_parsed(&query),
            // A query that fails to parse still counts as executed.
            Err(error) => {
                self.queries_executed.fetch_add(1, Ordering::Relaxed);
                Err(error)
            }
        }
    }

    fn query_parsed(&self, query: &Query) -> Result<QueryResults, SparqlError> {
        self.queries_executed.fetch_add(1, Ordering::Relaxed);
        let _eval_span = obs::span("sparql.evaluate");
        self.store
            .with_default_graph(|graph| evaluate_query(graph, query))
    }

    fn insert_triples(&self, triples: &[Triple]) -> Result<usize, SparqlError> {
        Ok(self.store.bulk_insert(triples))
    }

    fn insert_triples_named(&self, graph: &Iri, triples: &[Triple]) -> Result<usize, SparqlError> {
        Ok(self.store.insert_all_named(graph, triples.iter().cloned()))
    }

    fn triple_count(&self) -> usize {
        self.store.len()
    }

    fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    fn deltas_since(&self, since: u64) -> Option<Vec<StoreDelta>> {
        self.store.deltas_since(since)
    }

    fn enable_change_tracking(&self) {
        self.store.enable_change_log();
    }

    fn background_handle(&self) -> Option<Arc<dyn Endpoint + Send + Sync>> {
        // A snapshot of the store (see `Store::snapshot`): the handle's epoch
        // and data are captured atomically, so a background rebuild racing
        // live writers still sees one consistent state. It shares the
        // graphs' index runs and copies their overlays and interners.
        Some(Arc::new(LocalEndpoint::with_store(self.store.snapshot())))
    }
}

/// An endpoint wrapper that reports the **least capable** change-tracking
/// contract a remote SPARQL endpoint could offer.
///
/// A real HTTP endpoint (Virtuoso in the paper's deployment) has no store
/// epochs and no delta log. Until such a client exists, this wrapper lets
/// every epoch-aware consumer — most importantly the columnar cube catalog —
/// prove it degrades gracefully when the answers it relies on disappear:
///
/// * **snapshot mode** ([`ConservativeEndpoint::new`]): `epoch()` is pinned
///   to `0` and [`Endpoint::deltas_since`] always answers `None`, exactly
///   the trait defaults. Consumers must treat the endpoint as an immutable
///   snapshot — derived state is built once and never invalidated.
/// * **epoch-only mode** ([`ConservativeEndpoint::with_epochs`]): `epoch()`
///   forwards to the inner endpoint but `deltas_since` still answers
///   `None`, the shape of an endpoint that can say *that* something changed
///   but not *what*. Consumers must fall back to a full rebuild on every
///   epoch change — never stale, never panicking, never pretending a delta
///   path exists.
///
/// [`Endpoint::enable_change_tracking`] is a no-op in both modes: asking a
/// conservative endpoint to record mutations must not quietly upgrade its
/// contract.
#[derive(Debug, Clone)]
pub struct ConservativeEndpoint<E> {
    inner: E,
    forward_epochs: bool,
}

impl<E: Endpoint> ConservativeEndpoint<E> {
    /// Wraps `inner` in snapshot mode: `epoch()` is always `0` and deltas
    /// are never available.
    pub fn new(inner: E) -> Self {
        ConservativeEndpoint {
            inner,
            forward_epochs: false,
        }
    }

    /// Wraps `inner` in epoch-only mode: `epoch()` forwards, deltas stay
    /// unavailable.
    pub fn with_epochs(inner: E) -> Self {
        ConservativeEndpoint {
            inner,
            forward_epochs: true,
        }
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: Endpoint> Endpoint for ConservativeEndpoint<E> {
    fn query(&self, sparql: &str) -> Result<QueryResults, SparqlError> {
        self.inner.query(sparql)
    }

    fn query_parsed(&self, query: &Query) -> Result<QueryResults, SparqlError> {
        self.inner.query_parsed(query)
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
        if self.forward_epochs {
            self.inner.epoch()
        } else {
            0
        }
    }

    fn deltas_since(&self, _since: u64) -> Option<Vec<StoreDelta>> {
        // Deliberately not forwarded: the whole point of the wrapper is
        // that the delta log is never available.
        None
    }

    fn enable_change_tracking(&self) {
        // Deliberately a no-op — see the type-level docs.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::{Literal, Term};

    fn endpoint() -> LocalEndpoint {
        let ep = LocalEndpoint::new();
        ep.store()
            .load_turtle(
                "@prefix ex: <http://example.org/> .
                 ex:a ex:value 1 . ex:b ex:value 2 . ex:c ex:value 3 .",
            )
            .unwrap();
        ep
    }

    #[test]
    fn select_and_ask() {
        let ep = endpoint();
        let solutions = ep
            .select("PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:value ?v . FILTER(?v > 1) }")
            .unwrap();
        assert_eq!(solutions.len(), 2);
        assert!(ep
            .ask("PREFIX ex: <http://example.org/> ASK { ex:a ex:value 1 }")
            .unwrap());
        assert_eq!(ep.queries_executed(), 2);
    }

    #[test]
    fn wrong_result_kind_is_an_error() {
        let ep = endpoint();
        assert!(ep.select("ASK { ?s ?p ?o }").is_err());
        assert!(ep.ask("SELECT * WHERE { ?s ?p ?o }").is_err());
    }

    #[test]
    fn insert_triples_visible_to_queries() {
        let ep = endpoint();
        let before = ep.triple_count();
        ep.insert_triples(&[Triple::new(
            Term::iri("http://example.org/d"),
            Iri::new("http://example.org/value"),
            Literal::integer(4),
        )])
        .unwrap();
        assert_eq!(ep.triple_count(), before + 1);
        let solutions = ep
            .select("PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:value 4 }")
            .unwrap();
        assert_eq!(solutions.len(), 1);
    }

    #[test]
    fn named_graph_insertion_is_separate() {
        let ep = endpoint();
        let g = Iri::new("http://example.org/graph/schema");
        ep.insert_triples_named(
            &g,
            &[Triple::new(
                Term::iri("http://example.org/s"),
                Iri::new("http://example.org/p"),
                Term::iri("http://example.org/o"),
            )],
        )
        .unwrap();
        // Named graph triples are not visible in the default graph.
        let solutions = ep
            .select("PREFIX ex: <http://example.org/> SELECT ?o WHERE { ex:s ex:p ?o }")
            .unwrap();
        assert!(solutions.is_empty());
        assert_eq!(ep.store().total_len(), ep.triple_count() + 1);
    }

    #[test]
    fn parse_errors_surface() {
        let ep = endpoint();
        assert!(ep.query("SELECT WHERE {").is_err());
    }

    #[test]
    fn parsed_queries_skip_the_text_round_trip() {
        let ep = endpoint();
        let text =
            "PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:value ?v . FILTER(?v > 1) }";
        let parsed = crate::parser::parse_query(text).unwrap();
        let via_text = ep.select(text).unwrap();
        let via_ast = ep.select_parsed(&parsed).unwrap();
        assert_eq!(via_text, via_ast);
        assert_eq!(ep.queries_executed(), 2, "parsed execution still counts");
        let encoded = ep.select_encoded(text).unwrap();
        assert_eq!(Solutions::from(encoded), via_text);
        assert_eq!(ep.queries_executed(), 3, "an encoded select is one query");
        // Handing an ASK AST to select_parsed is a type error.
        let ask = crate::parser::parse_query("ASK { ?s ?p ?o }").unwrap();
        assert!(ep.select_parsed(&ask).is_err());
    }

    #[test]
    fn change_tracking_surfaces_store_epochs_and_deltas() {
        let ep = endpoint();
        let loaded_epoch = ep.epoch();
        assert!(loaded_epoch > 0, "loading data bumped the epoch");
        assert_eq!(ep.deltas_since(loaded_epoch), None, "tracking off by default");

        ep.enable_change_tracking();
        let tracked_from = ep.epoch();
        let triple = Triple::new(
            Term::iri("http://example.org/d"),
            Iri::new("http://example.org/value"),
            Literal::integer(4),
        );
        ep.insert_triples(std::slice::from_ref(&triple)).unwrap();
        assert!(ep.epoch() > tracked_from);
        let deltas = ep.deltas_since(tracked_from).expect("tracked");
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].inserted, vec![triple]);
    }

    #[test]
    fn conservative_snapshot_mode_pins_epoch_zero() {
        let ep = ConservativeEndpoint::new(endpoint());
        assert!(ep.inner().epoch() > 0, "inner endpoint has real epochs");
        assert_eq!(ep.epoch(), 0);
        ep.enable_change_tracking(); // must NOT upgrade the contract
        ep.insert_triples(&[Triple::new(
            Term::iri("http://example.org/d"),
            Iri::new("http://example.org/value"),
            Literal::integer(4),
        )])
        .unwrap();
        assert_eq!(ep.epoch(), 0, "mutations never surface as epoch changes");
        assert_eq!(ep.deltas_since(0), None);
        // Queries still flow through to the wrapped endpoint.
        let solutions = ep
            .select("PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:value 4 }")
            .unwrap();
        assert_eq!(solutions.len(), 1);
    }

    #[test]
    fn conservative_epoch_mode_reports_changes_but_never_deltas() {
        let ep = ConservativeEndpoint::with_epochs(endpoint());
        ep.enable_change_tracking(); // no-op: the inner log stays off
        let before = ep.epoch();
        assert!(before > 0, "epoch-only mode forwards the inner epoch");
        ep.insert_triples(&[Triple::new(
            Term::iri("http://example.org/d"),
            Iri::new("http://example.org/value"),
            Literal::integer(4),
        )])
        .unwrap();
        assert!(ep.epoch() > before, "the change is visible…");
        assert_eq!(ep.deltas_since(before), None, "…but never explainable");
    }
}

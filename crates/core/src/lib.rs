//! # QB2OLAP — enabling OLAP on statistical linked open data
//!
//! A Rust reproduction of the QB2OLAP system (Varga et al., ICDE 2016): a
//! tool that takes a statistical dataset published with the W3C RDF Data
//! Cube (QB) vocabulary and, without requiring any RDF, QB(4OLAP) or SPARQL
//! skills from the user,
//!
//! 1. **enriches** it into a QB4OLAP dataset (semi-automatic discovery of
//!    dimension hierarchies via functional dependencies over level-instance
//!    properties) — [`enrichment`];
//! 2. lets the user **explore** the enriched multidimensional schema and its
//!    instances — [`explorer`];
//! 3. lets the user **query** it with the high-level OLAP language QL,
//!    automatically translated into SPARQL and executed on an endpoint —
//!    [`ql`].
//!
//! All three modules share one SPARQL endpoint ([`sparql::LocalEndpoint`]
//! plays the role Virtuoso plays in the original deployment), exactly as in
//! Figure 1 of the paper. The [`Qb2Olap`] facade wires them together, and
//! [`demo`] scripts the paper's demonstration scenario over a synthetic
//! Eurostat asylum-applications dataset ([`datagen`]).
//!
//! ```
//! use qb2olap::demo;
//!
//! // Build the demo cube (generate data, load the endpoint, enrich).
//! let cube = demo::setup_demo_cube(&datagen::EurostatConfig::small(200)).unwrap();
//! let tool = qb2olap::Qb2Olap::new(cube.endpoint.clone());
//!
//! // Explore the enriched schema ...
//! let explorer = tool.explorer(&cube.dataset).unwrap();
//! assert!(explorer.schema_tree().unwrap().contains("citizenshipDim"));
//!
//! // ... and run Mary's query from Section IV of the paper.
//! let querying = tool.querying(&cube.dataset).unwrap();
//! let (prepared, result, _timings) = querying.run(&datagen::workload::mary_query()).unwrap();
//! assert!(prepared.sparql(qb2olap::SparqlVariant::Direct).lines().count() > 30);
//! assert!(!result.axes.is_empty());
//! ```

#![warn(missing_docs)]

pub mod demo;

pub use cubestore;
pub use datagen;
pub use enrichment;
pub use explorer;
pub use obs;
pub use qb;
pub use qb4olap;
pub use ql;
pub use rdf;
pub use sparql;

pub use enrichment::{EnrichmentConfig, EnrichmentSession, EnrichmentStats};
pub use explorer::{CubeExplorer, CubeSummary};
pub use obs::{ExecutionProfile, MetricsSnapshot};
pub use ql::{ExecutionBackend, QueryingModule, ResultCube, SparqlVariant};
pub use sparql::{Endpoint, LocalEndpoint};

use std::sync::Arc;

use cubestore::CubeCatalog;
use rdf::Iri;

/// The QB2OLAP tool: the three modules over one shared endpoint (Figure 1)
/// and one shared live cube catalog — the Querying and Exploration modules
/// serve from the same change-tracked columnar representation.
#[derive(Debug, Clone)]
pub struct Qb2Olap {
    endpoint: LocalEndpoint,
    catalog: Arc<CubeCatalog>,
}

impl Qb2Olap {
    /// Creates the tool over an endpoint.
    pub fn new(endpoint: LocalEndpoint) -> Self {
        Qb2Olap {
            endpoint,
            catalog: Arc::new(CubeCatalog::new()),
        }
    }

    /// Creates the tool over a fresh, empty endpoint.
    pub fn with_empty_endpoint() -> Self {
        Self::new(LocalEndpoint::new())
    }

    /// The shared endpoint.
    pub fn endpoint(&self) -> &LocalEndpoint {
        &self.endpoint
    }

    /// The shared live cube catalog.
    pub fn catalog(&self) -> &Arc<CubeCatalog> {
        &self.catalog
    }

    /// Loads Turtle data into the endpoint (how the demo's input QB dataset
    /// gets there in the first place).
    pub fn load_turtle(&self, turtle: &str) -> Result<usize, rdf::StoreError> {
        self.endpoint.store().load_turtle(turtle)
    }

    /// Starts an Enrichment-module session for a dataset.
    pub fn enrichment<'t>(
        &'t self,
        dataset: &Iri,
        config: EnrichmentConfig,
    ) -> Result<EnrichmentSession<'t>, enrichment::EnrichmentError> {
        EnrichmentSession::start(&self.endpoint, dataset, config)
    }

    /// Opens the Exploration module for an (enriched) dataset, reading its
    /// QB4OLAP schema from the endpoint and serving navigation from the
    /// tool's shared cube catalog. The paper's per-step SPARQL navigation
    /// is the explorer's `*_via_sparql` oracle methods.
    pub fn explorer<'t>(
        &'t self,
        dataset: &Iri,
    ) -> Result<CubeExplorer<'t>, explorer::ExplorerError> {
        let schema = qb4olap::schema_from_endpoint(&self.endpoint, dataset)?;
        Ok(CubeExplorer::with_schema_and_catalog(
            &self.endpoint,
            schema,
            self.catalog.clone(),
        ))
    }

    /// Opens the Querying module for an (enriched) dataset, reading its
    /// QB4OLAP schema from the endpoint and executing columnar queries on
    /// the tool's shared cube catalog.
    pub fn querying<'t>(&'t self, dataset: &Iri) -> Result<QueryingModule<'t>, ql::QlError> {
        let schema = qb4olap::schema_from_endpoint(&self.endpoint, dataset)?;
        Ok(QueryingModule::with_schema_and_catalog(
            &self.endpoint,
            schema,
            self.catalog.clone(),
        ))
    }

    /// Blocks until any in-flight background fold for `dataset` has
    /// published (or failed). A fence for tests and benchmarks; serving
    /// never needs it.
    pub fn wait_for_maintenance(&self, dataset: &Iri) {
        self.catalog.wait_for_maintenance(dataset);
    }

    /// Lists the cubes available on the endpoint.
    pub fn list_cubes(&self) -> Result<Vec<CubeSummary>, explorer::ExplorerError> {
        explorer::list_cubes(&self.endpoint)
    }

    /// A point-in-time snapshot of every metric the tool's modules have
    /// recorded — catalog maintenance decisions and refusals, scan totals,
    /// query executions, explorer navigation. Render it with
    /// [`MetricsSnapshot::render_text`] or serialize with
    /// [`MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.catalog.metrics().snapshot()
    }

    /// EXPLAIN ANALYZE for a QL query on `dataset`: prepares the query once
    /// and renders the logical plan, per-step timings and row counts for
    /// **both** backends (direct SPARQL and columnar) side by side.
    pub fn explain(&self, dataset: &Iri, ql_text: &str) -> Result<String, ql::QlError> {
        self.querying(dataset)?.explain(ql_text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_wires_the_three_modules() {
        let cube = demo::setup_demo_cube(&datagen::EurostatConfig::small(150)).unwrap();
        let tool = Qb2Olap::new(cube.endpoint.clone());

        let cubes = tool.list_cubes().unwrap();
        assert_eq!(cubes.len(), 1);
        assert!(cubes[0].enriched);

        let explorer = tool.explorer(&cube.dataset).unwrap();
        assert!(explorer.schema_tree().unwrap().contains("destinationDim"));

        let querying = tool.querying(&cube.dataset).unwrap();
        let (_, result, _) = querying
            .run(&datagen::workload::rollup_citizenship_to_continent())
            .unwrap();
        assert!(!result.is_empty());

        // A fresh enrichment session can still be started on the same data.
        let session = tool
            .enrichment(&cube.dataset, demo::demo_enrichment_config())
            .unwrap();
        assert_eq!(session.qb_dataset().structure.dimensions().len(), 6);
    }

    #[test]
    fn querying_and_exploration_share_one_columnar_representation() {
        let cube = demo::setup_demo_cube(&datagen::EurostatConfig::small(150)).unwrap();
        let tool = Qb2Olap::new(cube.endpoint.clone());

        let querying = tool.querying(&cube.dataset).unwrap();
        let materialized = querying.materialize().unwrap();
        // The explorer serves members from the very same materialization,
        // without any further SPARQL.
        let explorer = tool.explorer(&cube.dataset).unwrap();
        let queries = cube.endpoint.queries_executed();
        let members = explorer
            .members(&rdf::vocab::eurostat_property::citizen())
            .unwrap();
        assert!(!members.is_empty());
        assert_eq!(cube.endpoint.queries_executed(), queries);
        assert!(std::sync::Arc::ptr_eq(
            &materialized,
            &tool.catalog().peek(&cube.dataset).unwrap()
        ));
    }

    #[test]
    fn facade_surfaces_metrics_and_explain() {
        let cube = demo::setup_demo_cube(&datagen::EurostatConfig::small(150)).unwrap();
        let tool = Qb2Olap::new(cube.endpoint.clone());

        let explained = tool
            .explain(&cube.dataset, &datagen::workload::mary_query())
            .unwrap();
        assert!(explained.contains("EXPLAIN ANALYZE (backend=sparql:direct"));
        assert!(explained.contains("EXPLAIN ANALYZE (backend=columnar"));

        let snapshot = tool.metrics();
        assert_eq!(snapshot.counter("catalog.refresh.fresh"), 1);
        assert_eq!(snapshot.counter("ql.execute.sparql"), 1);
        assert_eq!(snapshot.counter("ql.execute.columnar"), 1);
        assert!(snapshot.counter("cubestore.scan.rows") > 0);
        let rendered = snapshot.render_text();
        assert!(rendered.contains("catalog.refresh.fresh"));
        assert!(snapshot.to_json().contains("\"counters\""));
    }

    #[test]
    fn empty_endpoint_has_no_cubes() {
        let tool = Qb2Olap::with_empty_endpoint();
        assert!(tool.list_cubes().unwrap().is_empty());
        tool.load_turtle("@prefix ex: <http://e/> . ex:a ex:b ex:c .")
            .unwrap();
        assert_eq!(tool.endpoint().triple_count(), 1);
    }
}

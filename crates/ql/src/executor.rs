//! The Querying module workflow (Figure 3 of the paper): QL text is parsed,
//! simplified, translated to SPARQL and executed, and the resulting cube is
//! computed on the fly.
//!
//! Execution goes through an [`ExecutionBackend`] seam: the
//! [`ExecutionBackend::Sparql`] path evaluates one of the two generated
//! SPARQL variants on the endpoint (the paper's workflow), while
//! [`ExecutionBackend::Columnar`] runs the simplified pipeline on a
//! [`cubestore::MaterializedCube`] served by a shared
//! [`cubestore::CubeCatalog`] — built lazily from the endpoint, kept live
//! by O(delta) incremental maintenance (copy-on-write refreshes for
//! appends, tombstoned rows for whole-observation removals, a reported
//! rebuild for everything the classifier refuses), and validated against
//! the store's mutation epoch on every execution, so no SPARQL round-trip
//! per query and no stale reads. Both backends return identical
//! [`ResultCube`]s for the same prepared query.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cubestore::{CubeCatalog, ExecOptions, MaintenanceReport, MaterializedCube};
use qb4olap::CubeSchema;
use sparql::Endpoint;

use crate::ast::QlProgram;
use crate::columnar;
use crate::cube::{CubeAxis, ResultCube};
use crate::error::QlError;
use crate::parser::parse_ql;
use crate::pipeline::{simplify, QueryPipeline, SimplificationReport};
use crate::translate::{translate, SparqlVariant, TranslationOutput};

/// Which engine executes a prepared query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionBackend {
    /// Translate-and-ship: evaluate the chosen generated SPARQL variant on
    /// the endpoint (the paper's Figure 3 workflow).
    Sparql(SparqlVariant),
    /// Run the simplified pipeline on the lazily materialized columnar
    /// cube, bypassing SPARQL entirely.
    Columnar,
}

impl Default for ExecutionBackend {
    fn default() -> Self {
        ExecutionBackend::Sparql(SparqlVariant::default())
    }
}

impl From<SparqlVariant> for ExecutionBackend {
    fn from(variant: SparqlVariant) -> Self {
        ExecutionBackend::Sparql(variant)
    }
}

/// A QL query after the Simplification and Translation phases, ready to be
/// executed (possibly several times, with either backend).
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The parsed program.
    pub program: QlProgram,
    /// The simplified pipeline.
    pub pipeline: QueryPipeline,
    /// What the simplification did.
    pub report: SimplificationReport,
    /// The translation (both SPARQL variants + result-cube metadata).
    pub translation: TranslationOutput,
    /// The backend [`QueryingModule::run`] executes the query on.
    pub backend: ExecutionBackend,
}

impl PreparedQuery {
    /// The SPARQL text of the chosen variant.
    pub fn sparql(&self, variant: SparqlVariant) -> String {
        match variant {
            SparqlVariant::Direct => self.translation.direct_sparql(),
            SparqlVariant::Alternative => self.translation.alternative_sparql(),
        }
    }

    /// The axes of the result cube.
    pub fn axes(&self) -> &[CubeAxis] {
        &self.translation.axes
    }

    /// Selects the backend [`QueryingModule::run`] executes on.
    pub fn with_backend(mut self, backend: ExecutionBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// Timings of one query execution, per workflow phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryTimings {
    /// Parsing + simplification + translation.
    pub preparation: Duration,
    /// Backend execution (including result-cube construction).
    pub execution: Duration,
}

/// The Querying module: holds the endpoint and the QB4OLAP schema of one
/// cube, plus the shared [`CubeCatalog`] the columnar backend serves from.
///
/// The catalog validates the store's mutation epoch on **every**
/// [`QueryingModule::execute`], accreting recorded deltas (or folding)
/// when the store moved — columnar results can never be stale, and several
/// modules (Querying and Exploration) can share one live columnar
/// representation by sharing the catalog.
pub struct QueryingModule<'e> {
    endpoint: &'e dyn Endpoint,
    schema: CubeSchema,
    catalog: Arc<CubeCatalog>,
}

impl<'e> QueryingModule<'e> {
    /// Creates the module from an already materialised schema (read one
    /// back from the endpoint with `qb4olap::schema_from_endpoint`), on a
    /// private catalog.
    pub fn with_schema(endpoint: &'e dyn Endpoint, schema: CubeSchema) -> Self {
        QueryingModule {
            endpoint,
            schema,
            catalog: Arc::new(CubeCatalog::new()),
        }
    }

    /// Creates the module from an already materialised schema **and** a
    /// shared catalog — the facade's path, and the HTTP server's
    /// per-request path: the server reads the schema from the endpoint once
    /// and caches it, so opening the module costs no SPARQL round-trips,
    /// while columnar serving still flows through the one shared live
    /// catalog.
    pub fn with_schema_and_catalog(
        endpoint: &'e dyn Endpoint,
        schema: CubeSchema,
        catalog: Arc<CubeCatalog>,
    ) -> Self {
        QueryingModule {
            endpoint,
            schema,
            catalog,
        }
    }

    /// The cube schema the module works against.
    pub fn schema(&self) -> &CubeSchema {
        &self.schema
    }

    /// The endpoint the module queries and materializes from.
    pub fn endpoint(&self) -> &'e dyn Endpoint {
        self.endpoint
    }

    /// The cube catalog the module serves columnar executions from.
    pub fn catalog(&self) -> &Arc<CubeCatalog> {
        &self.catalog
    }

    /// The maintenance history of this module's dataset (first build, delta
    /// refreshes, rebuild fallbacks — with reasons and timings).
    pub fn maintenance_reports(&self) -> Vec<MaintenanceReport> {
        self.catalog.reports(&self.schema.dataset)
    }

    /// The up-to-date columnar materialization of the dataset, built on
    /// first call and incrementally maintained afterwards: if the store
    /// mutated since the last call, the catalog catches up (and waits for
    /// any fold) before returning — the cube of [`Self::snapshot_settled`].
    pub fn materialize(&self) -> Result<Arc<MaterializedCube>, QlError> {
        Ok(self.snapshot_settled()?.cube().clone())
    }

    /// Pins a [`cubestore::CubeSnapshot`] of the dataset **without waiting
    /// on maintenance**: appliable deltas are replayed onto the pinned cube
    /// inline, structural changes trigger a background rebuild
    /// while this call returns the stale-but-consistent pin immediately.
    /// Execute against it with [`Self::execute_on_snapshot`]; results are
    /// bit-identical to a cube built from scratch at the snapshot's epoch.
    pub fn snapshot(&self) -> Result<cubestore::CubeSnapshot, QlError> {
        self.catalog
            .serve_snapshot(self.endpoint, &self.schema)
            .map_err(|e| QlError::Columnar(e.to_string()))
    }

    /// Like [`Self::snapshot`], but settled: at the store's current epoch
    /// with no fold in flight ([`CubeCatalog::serve_settled`]) — what every
    /// library-side columnar execution reads, so it sees its own writes.
    pub fn snapshot_settled(&self) -> Result<cubestore::CubeSnapshot, QlError> {
        self.catalog
            .serve_settled(self.endpoint, &self.schema)
            .map_err(|e| QlError::Columnar(e.to_string()))
    }

    /// Runs the Query Simplification and Query Translation phases. The
    /// prepared query carries the default backend; override it with
    /// [`PreparedQuery::with_backend`] or pick one per [`Self::execute`].
    pub fn prepare(&self, ql_text: &str) -> Result<PreparedQuery, QlError> {
        let _span = obs::span("ql.prepare");
        let program = parse_ql(ql_text)?;
        let (pipeline, report) = simplify(&program, &self.schema)?;
        let translation = translate(&pipeline, &self.schema)?;
        Ok(PreparedQuery {
            program,
            pipeline,
            report,
            translation,
            backend: ExecutionBackend::default(),
        })
    }

    /// Runs a prepared query's columnar pipeline against an explicitly
    /// pinned snapshot. The snapshot is immutable: concurrent mutations
    /// and background folds cannot change what this execution sees.
    pub fn execute_on_snapshot(
        &self,
        prepared: &PreparedQuery,
        snapshot: &cubestore::CubeSnapshot,
    ) -> Result<ResultCube, QlError> {
        self.execute_with(prepared, ExecutionBackend::Columnar, Some(snapshot), None)
    }

    /// Runs the Execution phase on the chosen backend. Accepts a plain
    /// [`SparqlVariant`] as shorthand for [`ExecutionBackend::Sparql`].
    pub fn execute(
        &self,
        prepared: &PreparedQuery,
        backend: impl Into<ExecutionBackend>,
    ) -> Result<ResultCube, QlError> {
        self.execute_with(prepared, backend.into(), None, None)
    }

    /// [`Self::execute`] with an EXPLAIN-style [`obs::ExecutionProfile`]:
    /// the logical plan (one line per pipeline operation, plus the backend's
    /// physical plan) and per-step timings with row counts.
    pub fn execute_profiled(
        &self,
        prepared: &PreparedQuery,
        backend: impl Into<ExecutionBackend>,
    ) -> Result<(ResultCube, obs::ExecutionProfile), QlError> {
        let backend = backend.into();
        let mut profile = obs::ExecutionProfile::new(match backend {
            ExecutionBackend::Sparql(SparqlVariant::Direct) => "sparql:direct",
            ExecutionBackend::Sparql(SparqlVariant::Alternative) => "sparql:alternative",
            ExecutionBackend::Columnar => "columnar",
        });
        for line in prepared.pipeline.plan_lines() {
            profile.push_plan(&line);
        }
        let cube = self.execute_with(prepared, backend, None, Some(&mut profile))?;
        Ok((cube, profile))
    }

    /// The one execution body behind [`Self::execute`],
    /// [`Self::execute_profiled`] and [`Self::execute_on_snapshot`]. A
    /// columnar execution runs on `snapshot` when given, on a settled pin
    /// otherwise; `profile`, when given, receives the per-step timings, the
    /// physical plan and the total.
    fn execute_with(
        &self,
        prepared: &PreparedQuery,
        backend: ExecutionBackend,
        snapshot: Option<&cubestore::CubeSnapshot>,
        mut profile: Option<&mut obs::ExecutionProfile>,
    ) -> Result<ResultCube, QlError> {
        let _span = obs::span("ql.execute");
        let metrics = self.catalog.metrics();
        let total = Instant::now();
        let cube = match backend {
            ExecutionBackend::Sparql(variant) => {
                metrics.counter("ql.execute.sparql").inc();
                let started = Instant::now();
                let sparql_text = prepared.sparql(variant);
                let translated = started.elapsed();
                let started = Instant::now();
                let solutions = self.endpoint.select(&sparql_text)?;
                let selected = started.elapsed();
                let started = Instant::now();
                let cube = ResultCube::from_solutions(
                    prepared.translation.axes.clone(),
                    prepared.translation.measures.clone(),
                    &solutions,
                );
                if let Some(profile) = profile.as_deref_mut() {
                    let lines = sparql_text.lines().count() as u64;
                    let note = "generated query lines";
                    profile.push_step("translate-sparql", translated, Some(lines), note);
                    profile.push_step("select", selected, Some(solutions.len() as u64), "");
                    let cells = Some(cube.cells.len() as u64);
                    profile.push_step("assemble-cube", started.elapsed(), cells, "");
                    profile.add_counter("solutions", solutions.len() as u64);
                }
                cube
            }
            ExecutionBackend::Columnar => {
                let started = Instant::now();
                let settled;
                let snapshot = match snapshot {
                    Some(pinned) => {
                        metrics.counter("ql.execute.columnar_snapshot").inc();
                        pinned
                    }
                    None => {
                        metrics.counter("ql.execute.columnar").inc();
                        settled = self.snapshot_settled()?;
                        &settled
                    }
                };
                if let Some(profile) = profile.as_deref_mut() {
                    let rows = Some(snapshot.cube().row_count() as u64);
                    let note = "catalog-served cube rows";
                    profile.push_step("materialize", started.elapsed(), rows, note);
                }
                let options = ExecOptions::default();
                let (cube, stats) = columnar::execute_columnar(
                    snapshot.cube(),
                    prepared,
                    &options,
                    profile.as_deref_mut(),
                )?;
                stats.record_into(metrics);
                if let Some(profile) = profile.as_deref_mut() {
                    // The pin this execution ran on, not a later one.
                    profile.push_plan(snapshot.plan_line());
                }
                cube
            }
        };
        let elapsed = total.elapsed();
        if let Some(profile) = profile {
            profile.total = elapsed;
        }
        metrics
            .histogram("ql.execute.duration_ns")
            .record(elapsed.as_nanos() as u64);
        Ok(cube)
    }

    /// Prepares `ql_text` and renders EXPLAIN ANALYZE output for **both**
    /// backends (the direct SPARQL variant and the columnar engine), so the
    /// plans and timings can be compared side by side.
    pub fn explain(&self, ql_text: &str) -> Result<String, QlError> {
        let prepared = self.prepare(ql_text)?;
        let (_, sparql_profile) =
            self.execute_profiled(&prepared, SparqlVariant::Direct)?;
        let (_, columnar_profile) =
            self.execute_profiled(&prepared, ExecutionBackend::Columnar)?;
        Ok(format!(
            "{}\n{}",
            sparql_profile.render(),
            columnar_profile.render()
        ))
    }

    /// Convenience: full workflow (parse → simplify → translate → execute
    /// on the prepared query's backend, the direct SPARQL variant by
    /// default), returning the prepared query, the cube and the phase
    /// timings.
    pub fn run(&self, ql_text: &str) -> Result<(PreparedQuery, ResultCube, QueryTimings), QlError> {
        let started = Instant::now();
        let prepared = self.prepare(ql_text)?;
        let preparation = started.elapsed();
        let started = Instant::now();
        let cube = self.execute(&prepared, prepared.backend)?;
        let execution = started.elapsed();
        Ok((
            prepared,
            cube,
            QueryTimings {
                preparation,
                execution,
            },
        ))
    }

    /// Executes a handwritten SPARQL query (the demo's Querying module "also
    /// gives the possibility to manually formulate SPARQL queries").
    pub fn execute_raw_sparql(&self, sparql_text: &str) -> Result<sparql::Solutions, QlError> {
        Ok(self.endpoint.select(sparql_text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::demo_cube_schema;
    use datagen::{load_demo_endpoint, EurostatConfig};
    use enrichment::{EnrichmentConfig, EnrichmentSession};
    use rdf::vocab::{demo_schema, eurostat_property, rdfs, sdmx_dimension};
    use rdf::Iri;
    use sparql::LocalEndpoint;

    /// The module over `dataset`, its QB4OLAP schema read back from the
    /// endpoint, on a private catalog.
    fn module_for<'e>(endpoint: &'e LocalEndpoint, dataset: &Iri) -> QueryingModule<'e> {
        let schema = qb4olap::schema_from_endpoint(endpoint, dataset).unwrap();
        QueryingModule::with_schema(endpoint, schema)
    }

    /// Builds an endpoint with a small generated dataset, runs the demo
    /// enrichment on it and returns the endpoint + dataset IRI.
    fn enriched_endpoint(observations: usize) -> (LocalEndpoint, Iri) {
        enriched_endpoint_with(&EurostatConfig::small(observations))
    }

    fn enriched_endpoint_with(config: &EurostatConfig) -> (LocalEndpoint, Iri) {
        let (endpoint, data) = load_demo_endpoint(config);
        let config = EnrichmentConfig::default()
            .name_dimension(
                eurostat_property::citizen(),
                "citizenshipDim",
                "citizenshipGeoHier",
            )
            .name_dimension(eurostat_property::geo(), "destinationDim", "destinationHier")
            .name_dimension(sdmx_dimension::ref_period(), "timeDim", "timeHier")
            .name_dimension(eurostat_property::asyl_app(), "asylappDim", "asylappHier")
            .name_dimension(eurostat_property::age(), "ageDim", "ageHier")
            .name_dimension(eurostat_property::sex(), "sexDim", "sexHier");
        let mut session = EnrichmentSession::start(&endpoint, &data.dataset, config).unwrap();
        session.redefine().unwrap();

        // citizenship: citizen -> continent (+ continentName), destination:
        // countryName attribute and politicalOrg level, time: month -> year.
        let candidates = session
            .discover_candidates(&eurostat_property::citizen())
            .unwrap();
        let continent = candidates
            .level_candidate(&datagen::eurostat::continent_property())
            .unwrap()
            .clone();
        let continent_level = session
            .add_level(&eurostat_property::citizen(), &continent, "continent")
            .unwrap();
        session
            .add_attribute(&continent_level, &rdfs::label(), "continentName")
            .unwrap();

        session
            .add_attribute(&eurostat_property::geo(), &rdfs::label(), "countryName")
            .unwrap();
        let geo_candidates = session
            .discover_candidates(&eurostat_property::geo())
            .unwrap();
        let polorg = geo_candidates
            .level_candidate(&datagen::eurostat::political_org_property())
            .unwrap()
            .clone();
        session
            .add_level(&eurostat_property::geo(), &polorg, "politicalOrg")
            .unwrap();

        let time_candidates = session
            .discover_candidates(&sdmx_dimension::ref_period())
            .unwrap();
        let year = time_candidates
            .level_candidate(&datagen::eurostat::year_property())
            .unwrap()
            .clone();
        session
            .add_level(&sdmx_dimension::ref_period(), &year, "year")
            .unwrap();

        session.load_into_endpoint().unwrap();
        (endpoint, data.dataset)
    }

    #[test]
    fn full_workflow_on_the_enriched_cube() {
        let (endpoint, dataset) = enriched_endpoint(400);
        let module = module_for(&endpoint, &dataset);
        assert!(module.schema().dimension(&demo_schema::citizenship_dim()).is_some());

        let (prepared, cube, timings) = module.run(&datagen::workload::mary_query()).unwrap();
        assert!(prepared.sparql(SparqlVariant::Direct).lines().count() > 30);
        assert_eq!(prepared.axes().len(), 5);
        // The cube has cells only for African citizens applying in France,
        // grouped by year (and the remaining bottom-level dimensions).
        for cell in &cube.cells {
            assert_eq!(cell.coordinates.len(), 5);
        }
        assert!(timings.preparation > Duration::ZERO);
        assert!(timings.execution > Duration::ZERO);
    }

    #[test]
    fn both_variants_return_the_same_cube() {
        let (endpoint, dataset) = enriched_endpoint(400);
        let module = module_for(&endpoint, &dataset);
        for (name, text) in datagen::workload::bench_queries() {
            if name == "by_political_organisation" {
                // politicalOrg has no attribute dice; still part of the loop.
            }
            let prepared = match module.prepare(&text) {
                Ok(p) => p,
                Err(e) => panic!("workload query '{name}' failed to prepare: {e}"),
            };
            let direct = module.execute(&prepared, SparqlVariant::Direct).unwrap();
            let alternative = module
                .execute(&prepared, SparqlVariant::Alternative)
                .unwrap();
            assert_eq!(
                direct, alternative,
                "variants disagree for workload query '{name}'"
            );
        }
    }

    #[test]
    fn unoptimized_and_optimized_mary_query_agree() {
        let (endpoint, dataset) = enriched_endpoint(300);
        let module = module_for(&endpoint, &dataset);
        let (_, optimised, _) = module.run(&datagen::workload::mary_query()).unwrap();
        let (prepared, unoptimised, _) = module
            .run(&datagen::workload::mary_query_unoptimized())
            .unwrap();
        assert!(prepared.report.fused_operations >= 2);
        assert_eq!(optimised, unoptimised);
    }

    #[test]
    fn rollup_totals_are_preserved() {
        let (endpoint, dataset) = enriched_endpoint(300);
        let module = module_for(&endpoint, &dataset);

        // Total of the measure across all observations (no slicing at all).
        let raw_total = module
            .execute_raw_sparql(
                "PREFIX qb: <http://purl.org/linked-data/cube#>
                 PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>
                 SELECT (SUM(?v) AS ?total) WHERE { ?o a qb:Observation ; sdmx-measure:obsValue ?v }",
            )
            .unwrap()
            .get(0, "total")
            .and_then(|t| t.as_literal().and_then(|l| l.as_double()))
            .unwrap();

        // Rolling citizenship up to continent must preserve the grand total.
        let (_, cube, _) = module
            .run(&datagen::workload::rollup_citizenship_to_continent())
            .unwrap();
        assert!((cube.first_measure_total() - raw_total).abs() < 1e-6);
    }

    #[test]
    fn preparation_errors_surface() {
        let (endpoint, dataset) = enriched_endpoint(100);
        let module = module_for(&endpoint, &dataset);
        assert!(module.prepare("not ql").is_err());
        assert!(module
            .prepare(
                "PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
                 PREFIX data: <http://eurostat.linked-statistics.org/data/>;
                 QUERY
                 $C1 := SLICE (data:migr_asyappctzm, schema:noSuchDim);"
            )
            .is_err());
        // A dataset without a QB4OLAP schema has no schema to open a module on.
        let empty = LocalEndpoint::new();
        assert!(qb4olap::schema_from_endpoint(&empty, &dataset).is_err());
    }

    #[test]
    fn a_dice_mixing_measures_and_attributes_fails_to_prepare() {
        let endpoint = LocalEndpoint::new();
        let module = QueryingModule::with_schema(&endpoint, demo_cube_schema());
        let mixed = datagen::workload::yearly_large_cells().replace(
            "sdmx-measure:obsValue > 400",
            "sdmx-measure:obsValue > 400 AND \
             schema:destinationDim|property:geo|schema:countryName = \"France\"",
        );
        match module.prepare(&mixed) {
            Err(QlError::Validation(message)) => assert_eq!(
                message,
                "a single DICE condition cannot mix measures and level attributes"
            ),
            other => panic!("expected the mixed-dice refusal, got {other:?}"),
        }
    }

    #[test]
    fn columnar_backend_matches_sparql_for_the_whole_workload() {
        let (endpoint, dataset) = enriched_endpoint(500);
        let module = module_for(&endpoint, &dataset);
        let queries_before = endpoint.queries_executed();
        // Force the one-time materialization, then count round-trips.
        module.materialize().unwrap();
        let queries_after_build = endpoint.queries_executed();
        for (name, text) in datagen::workload::bench_queries() {
            let prepared = module.prepare(&text).unwrap();
            let sparql_cube = module.execute(&prepared, SparqlVariant::Direct).unwrap();
            let columnar_cube = module
                .execute(&prepared, ExecutionBackend::Columnar)
                .unwrap();
            assert_eq!(
                sparql_cube, columnar_cube,
                "backends disagree for workload query '{name}'"
            );
        }
        assert!(queries_after_build > queries_before, "the build queries once");
        // Re-running columnar queries must not touch the endpoint again.
        let before = endpoint.queries_executed();
        let prepared = module
            .prepare(&datagen::workload::mary_query())
            .unwrap()
            .with_backend(ExecutionBackend::Columnar);
        assert_eq!(prepared.backend, ExecutionBackend::Columnar);
        module.execute(&prepared, prepared.backend).unwrap();
        assert_eq!(
            endpoint.queries_executed(),
            before,
            "columnar execution must not issue SPARQL round-trips"
        );
    }

    #[test]
    fn catalog_refreshes_columnar_results_after_store_mutation() {
        use cubestore::MaintenanceStrategy;
        use rdf::vocab::{qb, rdf as rdfv, sdmx_measure};
        use rdf::{Literal, Term, Triple};

        let (endpoint, dataset) = enriched_endpoint(300);
        let module = module_for(&endpoint, &dataset);
        let prepared = module
            .prepare(&datagen::workload::totals_by_citizenship())
            .unwrap();
        let before = module
            .execute(&prepared, ExecutionBackend::Columnar)
            .unwrap();

        // Append one new observation through the endpoint: an extra Syrian
        // application worth 1000.
        let node = Term::iri("http://example.org/obs/late-arrival");
        let citizen = datagen::eurostat::citizen_member("SY");
        endpoint
            .insert_triples(&[
                Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())),
                Triple::new(node.clone(), qb::data_set(), Term::Iri(dataset.clone())),
                Triple::new(node.clone(), eurostat_property::citizen(), citizen.clone()),
                Triple::new(node, sdmx_measure::obs_value(), Literal::integer(1000)),
            ])
            .unwrap();

        // The same module, the same prepared query: the catalog detects the
        // epoch change and serves the refreshed columns — and the SPARQL
        // backend (always live) agrees cell-for-cell.
        let columnar = module
            .execute(&prepared, ExecutionBackend::Columnar)
            .unwrap();
        let sparql_cube = module.execute(&prepared, SparqlVariant::Direct).unwrap();
        assert_eq!(columnar, sparql_cube, "no stale cells after mutation");
        assert!(
            (columnar.first_measure_total() - before.first_measure_total() - 1000.0).abs() < 1e-6
        );

        let reports = module.maintenance_reports();
        assert_eq!(reports.len(), 2, "one fresh build, one refresh");
        assert_eq!(reports[0].strategy, MaintenanceStrategy::Fresh);
        assert_eq!(reports[1].strategy, MaintenanceStrategy::Delta);
        assert_eq!(reports[1].rows_appended, 1);
    }

    #[test]
    fn float_measure_cube_refreshes_via_deltas_and_matches_sparql() {
        use cubestore::MaintenanceStrategy;
        use rdf::vocab::{qb, rdf as rdfv, sdmx_measure};
        use rdf::{Literal, Term, Triple};

        // A float-heavy (xsd:decimal) dataset, the Eurostat rate/index
        // shape: appends and partial removals must refresh the served
        // columns via the delta path — both were rebuild-only before the
        // order-independent summator — and stay cell-identical to SPARQL.
        let (endpoint, dataset) = enriched_endpoint_with(&EurostatConfig {
            decimal_measures: true,
            ..EurostatConfig::small(300)
        });
        let module = module_for(&endpoint, &dataset);
        let prepared = module
            .prepare(&datagen::workload::rollup_citizenship_to_continent())
            .unwrap();
        module
            .execute(&prepared, ExecutionBackend::Columnar)
            .unwrap();

        let node = Term::iri("http://example.org/obs/float-late");
        endpoint
            .insert_triples(&[
                Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())),
                Triple::new(node.clone(), qb::data_set(), Term::Iri(dataset.clone())),
                Triple::new(
                    node.clone(),
                    eurostat_property::citizen(),
                    datagen::eurostat::citizen_member("SY"),
                ),
                Triple::new(node, sdmx_measure::obs_value(), Literal::decimal(123.25)),
            ])
            .unwrap();
        let columnar = module
            .execute(&prepared, ExecutionBackend::Columnar)
            .unwrap();
        let sparql_cube = module.execute(&prepared, SparqlVariant::Direct).unwrap();
        assert_eq!(columnar, sparql_cube, "float append left stale/divergent cells");
        let report = module.maintenance_reports().last().cloned().unwrap();
        assert_eq!(
            report.strategy,
            MaintenanceStrategy::Delta,
            "a float append must refresh via the delta path: {report:?}"
        );
        assert_eq!(report.rows_appended, 1);

        // Strip one observation's measure value (a partial removal): the
        // fragment is dropped and the row tombstoned, still no rebuild.
        let victim = endpoint
            .select(&format!(
                "PREFIX qb: <http://purl.org/linked-data/cube#>
                 SELECT ?o WHERE {{ ?o a qb:Observation ; qb:dataSet <{}> }} ORDER BY ?o LIMIT 1",
                dataset.as_str()
            ))
            .unwrap()
            .get(0, "o")
            .cloned()
            .unwrap();
        let removed = endpoint
            .store()
            .remove_matching(Some(&victim), Some(&sdmx_measure::obs_value()), None);
        assert_eq!(removed.len(), 1);
        let columnar = module
            .execute(&prepared, ExecutionBackend::Columnar)
            .unwrap();
        let sparql_cube = module.execute(&prepared, SparqlVariant::Direct).unwrap();
        assert_eq!(columnar, sparql_cube, "partial removal left stale/divergent cells");
        let report = module.maintenance_reports().last().cloned().unwrap();
        assert_eq!(
            report.strategy,
            MaintenanceStrategy::Delta,
            "a partial removal must refresh via the delta path: {report:?}"
        );
        assert_eq!(report.rows_removed, 1);
    }

    #[test]
    fn profiled_execution_names_every_step_on_both_backends() {
        let (endpoint, dataset) = enriched_endpoint(300);
        let module = module_for(&endpoint, &dataset);
        let prepared = module.prepare(&datagen::workload::mary_query()).unwrap();
        let plain = module.execute(&prepared, SparqlVariant::Direct).unwrap();

        let (sparql_cube, sparql_profile) = module
            .execute_profiled(&prepared, SparqlVariant::Direct)
            .unwrap();
        assert_eq!(sparql_cube, plain, "profiling must not change the result");
        assert_eq!(sparql_profile.backend, "sparql:direct");
        assert_eq!(
            sparql_profile.step_names(),
            vec!["translate-sparql", "select", "assemble-cube"]
        );
        assert_eq!(
            sparql_profile.plan.len(),
            prepared.pipeline.operation_count(),
            "one logical plan line per pipeline operation"
        );
        assert!(sparql_profile.total >= sparql_profile.steps_total());

        let (columnar_cube, columnar_profile) = module
            .execute_profiled(&prepared, ExecutionBackend::Columnar)
            .unwrap();
        assert_eq!(columnar_cube, plain, "backends agree under profiling");
        assert_eq!(columnar_profile.backend, "columnar");
        assert_eq!(
            columnar_profile.step_names(),
            vec![
                "materialize",
                "lower-pipeline",
                "plan-axes",
                "compile-filters",
                "scan",
                "aggregate",
                "assemble-cube"
            ]
        );
        assert!(
            columnar_profile.plan.len() > prepared.pipeline.operation_count(),
            "logical plan lines plus the physical cubestore plan"
        );
        assert!(columnar_profile.counter("rows_scanned") > 0);

        // Every step renders with its row count in the EXPLAIN output.
        let rendered = columnar_profile.render();
        assert!(rendered.contains("EXPLAIN ANALYZE (backend=columnar"));
        assert!(rendered.contains("scan"));
        assert!(rendered.contains("rows="));
    }

    #[test]
    fn explain_renders_both_backends_side_by_side() {
        let (endpoint, dataset) = enriched_endpoint(200);
        let module = module_for(&endpoint, &dataset);
        let explained = module.explain(&datagen::workload::mary_query()).unwrap();
        assert!(explained.contains("EXPLAIN ANALYZE (backend=sparql:direct"));
        assert!(explained.contains("EXPLAIN ANALYZE (backend=columnar"));
        assert!(explained.contains("SLICE dimension=<"));
    }

    #[test]
    fn executions_feed_the_shared_metrics_registry() {
        let (endpoint, dataset) = enriched_endpoint(200);
        let module = module_for(&endpoint, &dataset);
        let prepared = module.prepare(&datagen::workload::mary_query()).unwrap();
        module.execute(&prepared, SparqlVariant::Direct).unwrap();
        module.execute(&prepared, SparqlVariant::Alternative).unwrap();
        module
            .execute(&prepared, ExecutionBackend::Columnar)
            .unwrap();
        let snapshot = module.catalog().metrics().snapshot();
        assert_eq!(snapshot.counter("ql.execute.sparql"), 2);
        assert_eq!(snapshot.counter("ql.execute.columnar"), 1);
        assert!(snapshot.counter("cubestore.scan.rows") > 0);
        let durations = snapshot.histogram("ql.execute.duration_ns").unwrap();
        assert_eq!(durations.count, 3);
    }

    #[test]
    fn collecting_subscriber_never_changes_results() {
        // Differential check: the exact same executions with a collecting
        // subscriber installed and with the no-op subscriber must return
        // bit-identical cubes — observability is passive.
        let (endpoint, dataset) = enriched_endpoint(300);
        let module = module_for(&endpoint, &dataset);
        let collector = Arc::new(obs::CollectingSubscriber::new());
        for (name, text) in datagen::workload::bench_queries() {
            let prepared = module.prepare(&text).unwrap();
            let quiet_sparql = module.execute(&prepared, SparqlVariant::Direct).unwrap();
            let quiet_columnar = module
                .execute(&prepared, ExecutionBackend::Columnar)
                .unwrap();
            let (observed_sparql, observed_columnar) =
                obs::with_subscriber(collector.clone(), || {
                    (
                        module.execute(&prepared, SparqlVariant::Direct).unwrap(),
                        module
                            .execute(&prepared, ExecutionBackend::Columnar)
                            .unwrap(),
                    )
                });
            assert_eq!(quiet_sparql, observed_sparql, "sparql diverged for '{name}'");
            assert_eq!(
                quiet_columnar, observed_columnar,
                "columnar diverged for '{name}'"
            );
        }
        assert!(
            collector.completed().contains(&"ql.execute"),
            "the subscriber observed the executions"
        );
        assert!(
            collector.completed().contains(&"cubestore.scan"),
            "the subscriber observed the columnar scans"
        );
    }

    #[test]
    fn modules_share_a_catalog_and_its_materialization() {
        let (endpoint, dataset) = enriched_endpoint(200);
        let catalog = Arc::new(cubestore::CubeCatalog::new());
        let schema = qb4olap::schema_from_endpoint(&endpoint, &dataset).unwrap();
        let first = QueryingModule::with_schema_and_catalog(&endpoint, schema.clone(), catalog.clone());
        let second = QueryingModule::with_schema_and_catalog(&endpoint, schema, catalog.clone());
        let cube_a = first.materialize().unwrap();
        let queries = endpoint.queries_executed();
        let cube_b = second.materialize().unwrap();
        assert!(Arc::ptr_eq(&cube_a, &cube_b), "one shared materialization");
        assert_eq!(endpoint.queries_executed(), queries, "second module built nothing");
        assert_eq!(catalog.datasets(), vec![dataset]);
    }

    #[test]
    fn with_schema_constructor_uses_the_given_schema() {
        let (endpoint, _dataset) = enriched_endpoint(100);
        let module = QueryingModule::with_schema(&endpoint, demo_cube_schema());
        let prepared = module
            .prepare(&datagen::workload::rollup_citizenship_to_continent())
            .unwrap();
        assert_eq!(prepared.report.simplified_operations, 1);
    }
}

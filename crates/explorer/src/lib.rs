//! The Exploration module of QB2OLAP (Section III-B, Figure 5).
//!
//! The Exploration module "allows to choose a data cube (represented in
//! QB4OLAP) among a collection of cubes stored in an endpoint and, in a
//! user-friendly fashion, navigate its dimension structures and instances".
//! The original demo renders this with D3.js; here the same information is
//! exposed as a library API plus text / DOT renderers used by the runnable
//! examples.
//!
//! An explorer is always opened on a shared [`cubestore::CubeCatalog`]
//! ([`CubeExplorer::with_schema_and_catalog`]): the summary, member listings,
//! counts and roll-up navigation are served from the same live columnar
//! cube the Querying module executes on — no per-step SPARQL. The paper's
//! per-step SPARQL navigation stays available on the same explorer
//! (`*_via_sparql`) as the differential oracle.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use cubestore::{CubeCatalog, CubeStoreError, MaterializedCube};
use qb4olap::{member_count, members_of_level, rollup_pairs, CubeSchema, Qb4olapError};
use rdf::vocab::rdfs;
use rdf::{Iri, Term};
use sparql::Endpoint;

/// Errors raised by the Exploration module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplorerError {
    /// The QB4OLAP layer failed.
    Schema(String),
    /// A SPARQL query failed.
    Sparql(String),
    /// The columnar serving layer failed.
    Columnar(String),
}

impl fmt::Display for ExplorerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplorerError::Schema(m) => write!(f, "exploration schema error: {m}"),
            ExplorerError::Sparql(m) => write!(f, "exploration SPARQL error: {m}"),
            ExplorerError::Columnar(m) => write!(f, "exploration columnar error: {m}"),
        }
    }
}

impl std::error::Error for ExplorerError {}

impl From<Qb4olapError> for ExplorerError {
    fn from(e: Qb4olapError) -> Self {
        ExplorerError::Schema(e.to_string())
    }
}

impl From<sparql::SparqlError> for ExplorerError {
    fn from(e: sparql::SparqlError) -> Self {
        ExplorerError::Sparql(e.to_string())
    }
}

impl From<qb::QbError> for ExplorerError {
    fn from(e: qb::QbError) -> Self {
        ExplorerError::Schema(e.to_string())
    }
}

impl From<CubeStoreError> for ExplorerError {
    fn from(e: CubeStoreError) -> Self {
        ExplorerError::Columnar(e.to_string())
    }
}

/// A cube available for exploration on the endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeSummary {
    /// The dataset IRI.
    pub dataset: Iri,
    /// Its label, if any.
    pub label: Option<String>,
    /// Number of observations.
    pub observations: usize,
    /// Whether a QB4OLAP schema is available (i.e. the cube was enriched).
    pub enriched: bool,
}

/// Lists the cubes stored on an endpoint, marking those that already carry
/// QB4OLAP semantics.
pub fn list_cubes(endpoint: &dyn Endpoint) -> Result<Vec<CubeSummary>, ExplorerError> {
    let datasets = qb::list_datasets(endpoint)?;
    let mut out: Vec<CubeSummary> = Vec::with_capacity(datasets.len());
    for summary in datasets {
        // After enrichment a dataset points at two structures (the original
        // QB DSD and the generated QB4OLAP one); report each dataset once.
        if out.iter().any(|c| c.dataset == summary.dataset) {
            continue;
        }
        let enriched = qb4olap::schema_from_endpoint(endpoint, &summary.dataset).is_ok();
        out.push(CubeSummary {
            dataset: summary.dataset,
            label: summary.label,
            observations: summary.observations,
            enriched,
        });
    }
    Ok(out)
}

/// A member of a level, with its preferred display label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberInfo {
    /// The member term.
    pub member: Term,
    /// Its `rdfs:label`, or the IRI local name when no label exists (the
    /// descriptive-attribute gap the paper discusses).
    pub label: String,
}

/// The display label of a member, read from a level index's label store
/// (populated at materialization) with the local-name fallback the SPARQL
/// path uses.
fn label_from_index(index: &cubestore::LevelIndex, member: &Term) -> String {
    index
        .dictionary
        .id(member)
        .and_then(|id| index.attribute_value(&rdfs::label(), id))
        .and_then(|value| value.as_literal())
        .map(|literal| literal.lexical().to_string())
        .unwrap_or_else(|| member.display_label())
}

/// An interactive explorer over one enriched cube, served from a shared
/// live cube catalog.
pub struct CubeExplorer<'e> {
    endpoint: &'e dyn Endpoint,
    schema: CubeSchema,
    /// Navigation is served from this catalog's live columnar cube, and
    /// per-operation counters (`explorer.<op>`) go to its registry.
    catalog: Arc<CubeCatalog>,
}

impl<'e> CubeExplorer<'e> {
    /// Opens a cube from an already materialised schema (read one back from
    /// the endpoint with `qb4olap::schema_from_endpoint`) on a shared
    /// [`CubeCatalog`]: member listings, counts and roll-up navigation are
    /// answered from the catalog's live columns — the same representation
    /// the Querying module executes on — with no per-step SPARQL
    /// round-trips. The HTTP server opens one of these per exploration
    /// request against its schema cache.
    pub fn with_schema_and_catalog(
        endpoint: &'e dyn Endpoint,
        schema: CubeSchema,
        catalog: Arc<CubeCatalog>,
    ) -> Self {
        CubeExplorer {
            endpoint,
            schema,
            catalog,
        }
    }

    /// The cube schema.
    pub fn schema(&self) -> &CubeSchema {
        &self.schema
    }

    /// Counts one navigation operation under `explorer.<op>`.
    fn count_op(&self, op: &str) {
        self.catalog.metrics().counter(&format!("explorer.{op}")).inc();
    }

    /// A pinned, never-waiting snapshot of the cube. Navigation built on a
    /// snapshot keeps serving while structural maintenance folds in the
    /// background.
    pub fn snapshot(&self) -> Result<cubestore::CubeSnapshot, ExplorerError> {
        Ok(self.catalog.serve_snapshot(self.endpoint, &self.schema)?)
    }

    /// The up-to-date columnar cube: the settled pin, so navigation sees
    /// every write that landed before the call.
    fn cube(&self) -> Result<Arc<MaterializedCube>, ExplorerError> {
        let settled = self.catalog.serve_settled(self.endpoint, &self.schema)?;
        Ok(settled.cube().clone())
    }

    /// A summary of this cube (the entry the cube chooser displays), served
    /// from the catalog's columns.
    pub fn summary(&self) -> Result<CubeSummary, ExplorerError> {
        self.count_op("summary");
        let cube = self.cube()?;
        Ok(CubeSummary {
            dataset: self.schema.dataset.clone(),
            label: cube.dataset_label().map(str::to_string),
            observations: cube.stats().observations_seen,
            enriched: true,
        })
    }

    /// The members of a level, with display labels. Served from the
    /// catalog's columns, in the same order the SPARQL oracle returns
    /// ([`Self::members_via_sparql`]).
    pub fn members(&self, level: &Iri) -> Result<Vec<MemberInfo>, ExplorerError> {
        self.count_op("members");
        let cube = self.cube()?;
        let Some(index) = cube.level(level) else {
            // A level the cube's schema does not know: the oracle returns
            // whatever `qb4o:memberOf` says (typically nothing).
            return self.members_via_sparql(level);
        };
        let mut members: Vec<Term> = index.dictionary.iter().map(|(_, t)| t.clone()).collect();
        members.sort();
        Ok(members
            .into_iter()
            .map(|member| MemberInfo {
                label: label_from_index(index, &member),
                member,
            })
            .collect())
    }

    /// The members of a level resolved through SPARQL — the paper's
    /// navigation and the differential oracle for the columnar path.
    pub fn members_via_sparql(&self, level: &Iri) -> Result<Vec<MemberInfo>, ExplorerError> {
        self.count_op("members_via_sparql");
        let members = members_of_level(self.endpoint, level)?;
        let mut out = Vec::with_capacity(members.len());
        for member in members {
            out.push(MemberInfo {
                label: self.label_of(&member)?,
                member,
            });
        }
        Ok(out)
    }

    /// Number of members of a level, from the columns.
    pub fn member_count(&self, level: &Iri) -> Result<usize, ExplorerError> {
        self.count_op("member_count");
        match self.cube()?.level(level) {
            Some(index) => Ok(index.member_count()),
            None => self.member_count_via_sparql(level),
        }
    }

    /// Number of members of a level, counted on the endpoint (the oracle).
    pub fn member_count_via_sparql(&self, level: &Iri) -> Result<usize, ExplorerError> {
        self.count_op("member_count_via_sparql");
        Ok(member_count(self.endpoint, level)?)
    }

    /// The display label of a member (its `rdfs:label` or IRI local name).
    pub fn label_of(&self, member: &Term) -> Result<String, ExplorerError> {
        self.count_op("label_of");
        if let Term::Iri(iri) = member {
            // ORDER BY ?l pins which label wins for multi-labeled members,
            // matching the first-value-wins label store the columnar path
            // reads (populated from an `ORDER BY ?m ?v` scan).
            let solutions = self.endpoint.select(&format!(
                "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
                 SELECT ?l WHERE {{ <{}> rdfs:label ?l }} ORDER BY ?l LIMIT 1",
                iri.as_str()
            ))?;
            if let Some(label) = solutions
                .get(0, "l")
                .and_then(|t| t.as_literal())
                .map(|l| l.lexical().to_string())
            {
                return Ok(label);
            }
        }
        Ok(member.display_label())
    }

    /// Clusters the members of every level of a dimension: the Figure 5
    /// view, where "Mary explores the dimensional cube data by clustering
    /// the instances according to their level value".
    pub fn cluster_by_level(
        &self,
        dimension: &Iri,
    ) -> Result<BTreeMap<Iri, Vec<MemberInfo>>, ExplorerError> {
        self.count_op("cluster_by_level");
        let levels: Vec<Iri> = self
            .schema
            .dimension(dimension)
            .map(|d| d.levels().into_iter().cloned().collect())
            .unwrap_or_default();
        let mut clusters = BTreeMap::new();
        for level in levels {
            clusters.insert(level.clone(), self.members(&level)?);
        }
        Ok(clusters)
    }

    /// The roll-up edges (child member → parent member) between two levels.
    /// Served from the catalog's broader adjacency, in the same
    /// `(child, parent)` order as the SPARQL oracle.
    pub fn rollup_edges(
        &self,
        child_level: &Iri,
        parent_level: &Iri,
    ) -> Result<Vec<(MemberInfo, MemberInfo)>, ExplorerError> {
        self.count_op("rollup_edges");
        let cube = self.cube()?;
        let (Some(child_index), Some(parent_index)) =
            (cube.level(child_level), cube.level(parent_level))
        else {
            return self.rollup_edges_via_sparql(child_level, parent_level);
        };
        let mut edges: Vec<(Term, Term)> = Vec::new();
        for (_, child) in child_index.dictionary.iter() {
            for parent in cube.broader_parents(child) {
                if parent_index.dictionary.id(parent).is_some() {
                    edges.push((child.clone(), parent.clone()));
                }
            }
        }
        edges.sort();
        Ok(edges
            .into_iter()
            .map(|(child, parent)| {
                (
                    MemberInfo {
                        label: label_from_index(child_index, &child),
                        member: child,
                    },
                    MemberInfo {
                        label: label_from_index(parent_index, &parent),
                        member: parent,
                    },
                )
            })
            .collect())
    }

    /// The roll-up edges resolved through SPARQL (the oracle).
    pub fn rollup_edges_via_sparql(
        &self,
        child_level: &Iri,
        parent_level: &Iri,
    ) -> Result<Vec<(MemberInfo, MemberInfo)>, ExplorerError> {
        self.count_op("rollup_edges_via_sparql");
        let pairs = rollup_pairs(self.endpoint, child_level, parent_level)?;
        let mut out = Vec::with_capacity(pairs.len());
        for (child, parent) in pairs {
            out.push((
                MemberInfo {
                    label: self.label_of(&child)?,
                    member: child,
                },
                MemberInfo {
                    label: self.label_of(&parent)?,
                    member: parent,
                },
            ));
        }
        Ok(out)
    }

    /// Renders the cube structure as a tree (the Figure 4 view: dimensions,
    /// hierarchies, levels, attributes, member counts).
    pub fn schema_tree(&self) -> Result<String, ExplorerError> {
        self.count_op("schema_tree");
        let mut out = String::new();
        out.push_str(&format!(
            "Cube <{}> (QB4OLAP DSD <{}>)\n",
            self.schema.dataset.as_str(),
            self.schema.dsd.as_str()
        ));
        for measure in &self.schema.measures {
            out.push_str(&format!(
                "├─ measure {} [{}]\n",
                measure.property.local_name(),
                measure.aggregate.sparql_name()
            ));
        }
        for dimension in &self.schema.dimensions {
            out.push_str(&format!("├─ dimension {}\n", dimension.iri.local_name()));
            for hierarchy in &dimension.hierarchies {
                out.push_str(&format!("│  └─ hierarchy {}\n", hierarchy.iri.local_name()));
                for level in &hierarchy.levels {
                    let members = self.member_count(level).unwrap_or(0);
                    out.push_str(&format!(
                        "│     ├─ level {} ({} members)\n",
                        level.local_name(),
                        members
                    ));
                    for attribute in self.schema.level_attributes(level) {
                        out.push_str(&format!(
                            "│     │  └─ attribute {}\n",
                            attribute.iri.local_name()
                        ));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Renders one dimension's instance graph (members as nodes, roll-up
    /// relationships as edges) in Graphviz DOT format — the data behind the
    /// Figure 5 visualisation.
    pub fn instance_graph_dot(&self, dimension: &Iri) -> Result<String, ExplorerError> {
        self.count_op("instance_graph_dot");
        let mut out = String::new();
        out.push_str("digraph rollups {\n  rankdir=BT;\n");
        let Some(dim) = self.schema.dimension(dimension) else {
            out.push_str("}\n");
            return Ok(out);
        };
        for hierarchy in &dim.hierarchies {
            for step in &hierarchy.steps {
                for (child, parent) in self.rollup_edges(&step.child, &step.parent)? {
                    out.push_str(&format!(
                        "  \"{}\" -> \"{}\";\n",
                        child.label, parent.label
                    ));
                }
            }
        }
        out.push_str("}\n");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{load_demo_endpoint, EurostatConfig};
    use enrichment::{EnrichmentConfig, EnrichmentSession};
    use rdf::vocab::{demo_schema, eurostat_property, sdmx_dimension};
    use sparql::LocalEndpoint;

    fn enriched_endpoint(observations: usize) -> (LocalEndpoint, Iri) {
        let (endpoint, data) = load_demo_endpoint(&EurostatConfig::small(observations));
        let config = EnrichmentConfig::default().name_dimension(
            eurostat_property::citizen(),
            "citizenshipDim",
            "citizenshipGeoHier",
        );
        let mut session = EnrichmentSession::start(&endpoint, &data.dataset, config).unwrap();
        session.redefine().unwrap();
        let candidates = session
            .discover_candidates(&eurostat_property::citizen())
            .unwrap();
        let continent = candidates
            .level_candidate(&datagen::eurostat::continent_property())
            .unwrap()
            .clone();
        let level = session
            .add_level(&eurostat_property::citizen(), &continent, "continent")
            .unwrap();
        session
            .add_attribute(&level, &rdf::vocab::rdfs::label(), "continentName")
            .unwrap();
        session.load_into_endpoint().unwrap();
        (endpoint, data.dataset)
    }

    /// An explorer on `catalog`, its QB4OLAP schema read from the endpoint.
    fn open_on<'e>(
        endpoint: &'e LocalEndpoint,
        dataset: &Iri,
        catalog: Arc<CubeCatalog>,
    ) -> Result<CubeExplorer<'e>, ExplorerError> {
        let schema = qb4olap::schema_from_endpoint(endpoint, dataset)?;
        Ok(CubeExplorer::with_schema_and_catalog(endpoint, schema, catalog))
    }

    /// An explorer on a fresh catalog of its own.
    fn open<'e>(
        endpoint: &'e LocalEndpoint,
        dataset: &Iri,
    ) -> Result<CubeExplorer<'e>, ExplorerError> {
        open_on(endpoint, dataset, Arc::new(CubeCatalog::new()))
    }

    #[test]
    fn cube_listing_marks_enriched_cubes() {
        let (endpoint, dataset) = enriched_endpoint(120);
        let cubes = list_cubes(&endpoint).unwrap();
        assert_eq!(cubes.len(), 1);
        assert_eq!(cubes[0].dataset, dataset);
        assert!(cubes[0].enriched);
        assert_eq!(cubes[0].observations, 120);

        // A plain QB dataset (no enrichment) is listed but not marked enriched.
        let plain = LocalEndpoint::new();
        let (_, generated) = (
            (),
            datagen::generate(&datagen::EurostatConfig::small(10)),
        );
        plain.insert_triples(&generated.triples).unwrap();
        let cubes = list_cubes(&plain).unwrap();
        assert_eq!(cubes.len(), 1);
        assert!(!cubes[0].enriched);
    }

    #[test]
    fn members_and_labels() {
        let (endpoint, dataset) = enriched_endpoint(150);
        let explorer = open(&endpoint, &dataset).unwrap();
        let continent = demo_schema::continent();
        let members = explorer.members(&continent).unwrap();
        assert!(!members.is_empty());
        assert!(members.iter().any(|m| m.label == "Africa" || m.label == "Asia"));
        assert_eq!(members, explorer.members_via_sparql(&continent).unwrap());
        let count = explorer.member_count(&continent).unwrap();
        assert_eq!(count, members.len());
        assert_eq!(count, explorer.member_count_via_sparql(&continent).unwrap());
        // Labels fall back to the local name for unlabeled members.
        assert_eq!(
            explorer
                .label_of(&Term::iri("http://example.org/thing/X99"))
                .unwrap(),
            "X99"
        );
    }

    #[test]
    fn clustering_and_rollup_edges() {
        let (endpoint, dataset) = enriched_endpoint(150);
        let explorer = open(&endpoint, &dataset).unwrap();
        let clusters = explorer
            .cluster_by_level(&demo_schema::citizenship_dim())
            .unwrap();
        assert_eq!(clusters.len(), 2, "citizen and continent levels");
        assert!(clusters[&eurostat_property::citizen()].len() > clusters[&demo_schema::continent()].len());

        let edges = explorer
            .rollup_edges(&eurostat_property::citizen(), &demo_schema::continent())
            .unwrap();
        assert!(!edges.is_empty());
        assert!(edges
            .iter()
            .all(|(child, parent)| !child.label.is_empty() && !parent.label.is_empty()));
        assert_eq!(
            edges,
            explorer
                .rollup_edges_via_sparql(&eurostat_property::citizen(), &demo_schema::continent())
                .unwrap()
        );
    }

    #[test]
    fn schema_tree_and_dot_rendering() {
        let (endpoint, dataset) = enriched_endpoint(150);
        let explorer = open(&endpoint, &dataset).unwrap();
        let tree = explorer.schema_tree().unwrap();
        assert!(tree.contains("dimension citizenshipDim"));
        assert!(tree.contains("level continent"));
        assert!(tree.contains("attribute continentName"));
        assert!(tree.contains("measure obsValue [SUM]"));

        let dot = explorer
            .instance_graph_dot(&demo_schema::citizenship_dim())
            .unwrap();
        assert!(dot.starts_with("digraph"));
        // Every edge the SPARQL oracle navigates is drawn.
        let oracle = explorer
            .rollup_edges_via_sparql(&eurostat_property::citizen(), &demo_schema::continent())
            .unwrap();
        assert!(!oracle.is_empty());
        for (child, parent) in &oracle {
            let edge = format!("\"{}\" -> \"{}\";", child.label, parent.label);
            assert!(dot.contains(&edge), "{edge} missing from\n{dot}");
        }

        // Unknown dimensions produce an empty graph rather than an error.
        let empty = explorer
            .instance_graph_dot(&Iri::new("http://example.org/unknownDim"))
            .unwrap();
        assert!(!empty.contains("->"));
    }

    #[test]
    fn catalog_backed_navigation_matches_the_sparql_oracle() {
        let (endpoint, dataset) = enriched_endpoint(200);
        let catalog = std::sync::Arc::new(cubestore::CubeCatalog::new());
        let explorer = open_on(&endpoint, &dataset, catalog).unwrap();
        // Warm the catalog, then count round-trips: navigation from columns
        // must not touch the endpoint again.
        explorer.members(&eurostat_property::citizen()).unwrap();
        let queries = endpoint.queries_executed();
        let columns = explorer.members(&eurostat_property::citizen()).unwrap();
        let count = explorer.member_count(&eurostat_property::citizen()).unwrap();
        let edges = explorer
            .rollup_edges(&eurostat_property::citizen(), &demo_schema::continent())
            .unwrap();
        let clusters = explorer
            .cluster_by_level(&demo_schema::citizenship_dim())
            .unwrap();
        assert_eq!(
            endpoint.queries_executed(),
            queries,
            "columnar navigation issued SPARQL round-trips"
        );
        // Cell-for-cell parity with the SPARQL oracle, labels included.
        assert_eq!(
            columns,
            explorer.members_via_sparql(&eurostat_property::citizen()).unwrap()
        );
        assert_eq!(
            count,
            explorer
                .member_count_via_sparql(&eurostat_property::citizen())
                .unwrap()
        );
        assert_eq!(
            edges,
            explorer
                .rollup_edges_via_sparql(&eurostat_property::citizen(), &demo_schema::continent())
                .unwrap()
        );
        assert_eq!(clusters.len(), 2);
        assert!(!edges.is_empty());
        assert!(columns.iter().any(|m| m.label == "Syria"));
    }

    #[test]
    fn catalog_backed_summary_matches_the_dataset_listing() {
        let (endpoint, dataset) = enriched_endpoint(130);
        let catalog = std::sync::Arc::new(cubestore::CubeCatalog::new());
        let explorer = open_on(&endpoint, &dataset, catalog).unwrap();
        let summary = explorer.summary().unwrap();
        let listed = list_cubes(&endpoint)
            .unwrap()
            .into_iter()
            .find(|c| c.dataset == dataset)
            .unwrap();
        assert_eq!(summary, listed, "columns and SPARQL listing agree");
        assert_eq!(summary.observations, 130);
        assert!(summary.enriched);
        assert!(summary.label.is_some());
    }

    #[test]
    fn catalog_backed_summary_tracks_tombstoned_removals() {
        // A whole-observation removal is absorbed by the catalog as a
        // tombstone (no rebuild); the explorer's summary — served from the
        // cube's stats — must track it exactly like the SPARQL listing.
        let (endpoint, dataset) = enriched_endpoint(140);
        let catalog = std::sync::Arc::new(cubestore::CubeCatalog::new());
        let explorer = open_on(&endpoint, &dataset, catalog.clone()).unwrap();
        assert_eq!(explorer.summary().unwrap().observations, 140);

        let node = endpoint
            .select(
                "PREFIX qb: <http://purl.org/linked-data/cube#>
                 SELECT ?o WHERE { ?o a qb:Observation } ORDER BY ?o LIMIT 1",
            )
            .unwrap()
            .get(0, "o")
            .cloned()
            .unwrap();
        let triples = endpoint.store().triples_matching(Some(&node), None, None);
        assert!(endpoint.store().remove_all(&triples) >= 4);

        let summary = explorer.summary().unwrap();
        assert_eq!(summary.observations, 139, "summary reflects the removal");
        let listed = list_cubes(&endpoint)
            .unwrap()
            .into_iter()
            .find(|c| c.dataset == dataset)
            .unwrap();
        assert_eq!(summary, listed, "columns and SPARQL listing agree");
        // The refresh was a tombstone, not a rebuild, and navigation still
        // matches the oracle.
        let report = catalog.last_report(&dataset).unwrap();
        assert_eq!(report.strategy, cubestore::MaintenanceStrategy::Delta);
        assert_eq!(report.rows_removed, 1);
        assert_eq!(
            explorer.members(&eurostat_property::citizen()).unwrap(),
            explorer
                .members_via_sparql(&eurostat_property::citizen())
                .unwrap()
        );
    }

    #[test]
    fn catalog_backed_summary_tracks_partial_removals() {
        // Partial-observation removals are delta-appliable too, and they
        // split into two accounting classes the summary must mirror: a
        // measure strip leaves the fragment dataset-linked (counted by the
        // SPARQL listing → still counted by the summary), a dataset unlink
        // makes it invisible (dropped from both counts).
        use rdf::vocab::{qb, sdmx_measure};

        let (endpoint, dataset) = enriched_endpoint(120);
        let catalog = std::sync::Arc::new(cubestore::CubeCatalog::new());
        let explorer = open_on(&endpoint, &dataset, catalog.clone()).unwrap();
        assert_eq!(explorer.summary().unwrap().observations, 120);

        let nodes: Vec<rdf::Term> = endpoint
            .select(
                "PREFIX qb: <http://purl.org/linked-data/cube#>
                 SELECT ?o WHERE { ?o a qb:Observation } ORDER BY ?o LIMIT 2",
            )
            .unwrap()
            .rows
            .iter()
            .filter_map(|r| r.first().cloned().flatten())
            .collect();

        // Measure strip: the fragment stays dataset-linked, so the listing
        // (COUNT of ?obs qb:dataSet ?ds) still counts it.
        let removed = endpoint.store().remove_matching(
            Some(&nodes[0]),
            Some(&sdmx_measure::obs_value()),
            None,
        );
        assert_eq!(removed.len(), 1);
        let summary = explorer.summary().unwrap();
        assert_eq!(summary.observations, 120, "still dataset-linked");
        let report = catalog.last_report(&dataset).unwrap();
        assert_eq!(report.strategy, cubestore::MaintenanceStrategy::Delta);
        assert_eq!(report.rows_removed, 1, "the row itself was tombstoned");

        // Dataset unlink: gone from both counts.
        let removed =
            endpoint
                .store()
                .remove_matching(Some(&nodes[1]), Some(&qb::data_set()), None);
        assert_eq!(removed.len(), 1);
        let summary = explorer.summary().unwrap();
        assert_eq!(summary.observations, 119, "unlinked fragment uncounted");
        assert_eq!(
            catalog.last_report(&dataset).unwrap().strategy,
            cubestore::MaintenanceStrategy::Delta
        );
        let listed = list_cubes(&endpoint)
            .unwrap()
            .into_iter()
            .find(|c| c.dataset == dataset)
            .unwrap();
        assert_eq!(summary, listed, "columns and SPARQL listing agree");
    }

    #[test]
    fn qb_errors_map_to_the_schema_variant() {
        let error: ExplorerError = qb::QbError::NotFound("d".into()).into();
        assert!(matches!(error, ExplorerError::Schema(_)), "{error}");
        let error: ExplorerError =
            cubestore::CubeStoreError::Build("boom".into()).into();
        assert!(matches!(error, ExplorerError::Columnar(_)), "{error}");
    }

    #[test]
    fn opening_a_non_enriched_cube_fails() {
        let endpoint = LocalEndpoint::new();
        let generated = datagen::generate(&datagen::EurostatConfig::small(10));
        endpoint.insert_triples(&generated.triples).unwrap();
        assert!(open(&endpoint, &generated.dataset).is_err());
    }

    #[test]
    fn navigation_operations_are_counted_in_the_shared_registry() {
        let (endpoint, dataset) = enriched_endpoint(80);
        let catalog = Arc::new(CubeCatalog::new());
        let explorer = open_on(&endpoint, &dataset, catalog.clone()).unwrap();
        explorer.summary().unwrap();
        explorer.members(&eurostat_property::citizen()).unwrap();
        explorer.members(&eurostat_property::citizen()).unwrap();
        explorer
            .member_count(&eurostat_property::citizen())
            .unwrap();
        explorer.schema_tree().unwrap();

        // The explorer shares the catalog's registry, so its per-operation
        // counters sit next to the catalog.* metrics of the serve calls the
        // navigation triggered.
        let snapshot = catalog.metrics().snapshot();
        assert_eq!(snapshot.counter("explorer.summary"), 1);
        assert_eq!(snapshot.counter("explorer.members"), 2);
        assert!(snapshot.counter("explorer.member_count") >= 1);
        assert_eq!(snapshot.counter("explorer.schema_tree"), 1);
        assert_eq!(snapshot.counter("catalog.refresh.fresh"), 1);
        assert!(snapshot.counter("catalog.overlay.serve_calls") >= 4);
        assert_eq!(snapshot.counter("explorer.members_via_sparql"), 0);

        // The oracle counts into the same registry, under its own name,
        // and pins nothing.
        let serve_calls = snapshot.counter("catalog.overlay.serve_calls");
        explorer.members_via_sparql(&eurostat_property::citizen()).unwrap();
        let snapshot = catalog.metrics().snapshot();
        assert_eq!(snapshot.counter("explorer.members"), 2);
        assert_eq!(snapshot.counter("explorer.members_via_sparql"), 1);
        assert_eq!(snapshot.counter("catalog.overlay.serve_calls"), serve_calls);
    }

    #[test]
    fn timedim_members_without_enrichment_are_absent() {
        let (endpoint, dataset) = enriched_endpoint(80);
        let explorer = open(&endpoint, &dataset).unwrap();
        // The time dimension was not enriched in this fixture, so the year
        // level does not exist and has no members.
        assert_eq!(explorer.member_count(&demo_schema::year()).unwrap(), 0);
        let members = explorer.members(&sdmx_dimension::ref_period()).unwrap();
        assert!(!members.is_empty(), "bottom-level members exist after enrichment");
    }
}

//! Materialization: one replay over the endpoint turns a QB4OLAP dataset
//! into a [`MaterializedCube`] — dictionary-encoded dimension columns, dense
//! typed measure vectors, per-level member indexes with attribute values,
//! and precomputed bottom-level → ancestor roll-up maps.
//!
//! A build is the replay of an empty cube (`delta.rs`); every replay reads
//! stars through this module's fact encoder and the hierarchy through
//! `read_hierarchy`.
//!
//! The build runs a handful of SPARQL queries *once*; afterwards every QL
//! pipeline executes directly over the columns with no endpoint round-trip.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use qb::{ComponentKind, DataStructureDefinition, ObservationTable};
use qb4olap::CubeSchema;
use rdf::{Iri, Term};
use sparql::Endpoint;

use crate::columns::{DimensionColumn, MeasureColumn, MeasureVector, StoredMeasure};
use crate::dictionary::{Dictionary, MemberId, AMBIGUOUS_MEMBER, NO_MEMBER};
use crate::error::CubeStoreError;
use crate::hierarchy::{LevelIndex, RollupMap};
use crate::observations::ObservationIndex;
use crate::tombstone::Tombstones;
use crate::zonemap::ZoneMaps;

/// Counters describing what one materialization did, kept up to date by
/// incremental maintenance (appends increment, tombstoned removals
/// decrement), so they always describe what a fresh build of the current
/// store would produce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Observations of the dataset on the endpoint (delta-applied removals
    /// subtract, so this tracks what the endpoint currently holds).
    pub observations_seen: usize,
    /// *Live* fact rows (physical rows minus tombstoned rows).
    pub rows: usize,
    /// Observations dropped (not typed `qb:Observation`, or missing a
    /// measure value — the SPARQL backend's join drops them too).
    pub rows_dropped: usize,
    /// Level indexes built.
    pub levels: usize,
    /// Roll-up maps precomputed.
    pub rollup_maps: usize,
    /// `skos:broader` member links read from the endpoint.
    pub broader_links: usize,
}

/// A QB4OLAP dataset materialized into columnar form.
///
/// Besides the fact columns and roll-up maps the executor needs, the cube
/// retains the member-level `skos:broader` adjacency, the observation →
/// row index and the display labels — the state incremental maintenance
/// ([`MaterializedCube::apply_delta`]) and the columnar Exploration paths
/// are served from.
///
/// # Copy-on-write refreshes
///
/// Every sizable component is either segmented ([`crate::cowvec::CowVec`]
/// columns), layered ([`ObservationIndex`]) or `Arc`-shared (dictionaries,
/// level indexes, roll-up maps, the broader adjacency, the tombstone
/// bitmap), so `cube.clone()` is O(components), not O(rows), and
/// [`MaterializedCube::apply_delta`] copies only the pieces a delta
/// actually extends. See `ARCHITECTURE.md` § "COW and tombstone
/// invariants" for the full cost model.
///
/// # Tombstones
///
/// Removed observations stay physically present in the columns but are
/// marked dead in a bitmap ([`MaterializedCube::tombstoned_rows`]); the
/// executor skips dead rows, and the catalog re-materializes the cube once
/// the live fraction falls below the compaction threshold.
#[derive(Debug, Clone)]
pub struct MaterializedCube {
    pub(crate) schema: Arc<CubeSchema>,
    /// The DSD the build read: its components are the columns of the
    /// observation table, so a delta replay reads stars without reading
    /// the schema again.
    pub(crate) structure: Arc<DataStructureDefinition>,
    /// Physical fact rows, tombstoned rows included.
    pub(crate) row_count: usize,
    pub(crate) dimensions: Vec<DimensionColumn>,
    pub(crate) measures: Vec<MeasureColumn>,
    pub(crate) levels: BTreeMap<Iri, LevelIndex>,
    pub(crate) rollups: BTreeMap<(Iri, Iri), RollupMap>,
    /// Materialized observation node → fact row (live rows only).
    pub(crate) observations: ObservationIndex,
    /// Dataset-linked observation nodes that were *dropped* (untyped, or
    /// missing a measure). A delta touching a fact triple of one forgets
    /// it and re-reads its star, like a live row's.
    pub(crate) dropped_observations: Arc<BTreeSet<Term>>,
    /// Member-level `skos:broader` adjacency (child → sorted parents),
    /// `Arc`-shared until a replay re-reads the hierarchy.
    pub(crate) broader: Arc<BTreeMap<Term, Vec<Term>>>,
    /// The dataset's `rdfs:label`, for catalog-served cube summaries.
    pub(crate) dataset_label: Option<String>,
    /// Dead-row bitmap; rows it marks are skipped by every scan.
    pub(crate) tombstones: Tombstones,
    /// Per-segment pruning metadata (distinct member codes per dimension),
    /// extended over the rows each replay appends, a build's included.
    pub(crate) zones: ZoneMaps,
    pub(crate) stats: BuildStats,
}

impl MaterializedCube {
    /// Materializes the dataset described by `schema` from the endpoint.
    ///
    /// The cube is a snapshot: triples loaded into the endpoint afterwards
    /// are not reflected (rebuild to pick them up). Observations are
    /// assumed to carry at most one value per dimension and per measure
    /// (QB well-formedness); of several values the row keeps the least
    /// `Term` rather than multiplying rows the way a raw SPARQL join would.
    ///
    /// A build is the replay of an empty cube: it reads the dataset's
    /// structure, then runs [`MaterializedCube::apply_delta`]'s tail with
    /// every node in the read set and the hierarchy dirty — one pivot
    /// SELECT of every observation star, then the hierarchy half.
    pub fn from_endpoint(
        endpoint: &dyn Endpoint,
        schema: &CubeSchema,
    ) -> Result<Self, CubeStoreError> {
        let structure = qb::load_dataset(endpoint, &schema.dataset)?.structure;
        let mut cube = MaterializedCube::empty(schema, structure)?;
        cube.read_back(endpoint, None, true)?;
        Ok(cube)
    }

    /// A cube of `schema` with no rows, no levels and no roll-up maps: one
    /// empty column per dimension, keyed by its bottom level (the level IRI
    /// doubles as the observation property, exactly as the SPARQL
    /// translator assumes), and one per measure.
    fn empty(
        schema: &CubeSchema,
        structure: DataStructureDefinition,
    ) -> Result<Self, CubeStoreError> {
        let dimensions = schema
            .dimensions
            .iter()
            .map(|dimension| {
                let bottom = schema
                    .bottom_level_of_dimension(&dimension.iri)
                    .ok_or_else(|| {
                        CubeStoreError::Build(format!(
                            "dimension <{}> has no bottom level",
                            dimension.iri.as_str()
                        ))
                    })?;
                Ok(DimensionColumn::new(
                    dimension.iri.clone(),
                    bottom,
                    Vec::new(),
                    Dictionary::new(),
                ))
            })
            .collect::<Result<Vec<_>, CubeStoreError>>()?;
        let measures = schema
            .measures
            .iter()
            .map(|spec| MeasureColumn {
                property: spec.property.clone(),
                aggregate: spec.aggregate,
                // Typed by its first accepted literal; with no accepted row
                // the empty integer vector keeps the cube usable (every
                // query returns zero cells).
                data: MeasureVector::Integer(crate::cowvec::CowVec::new()),
            })
            .collect();
        Ok(MaterializedCube {
            schema: Arc::new(schema.clone()),
            structure: Arc::new(structure),
            row_count: 0,
            zones: ZoneMaps::empty(dimensions.len()),
            dimensions,
            measures,
            levels: BTreeMap::new(),
            rollups: BTreeMap::new(),
            observations: ObservationIndex::default(),
            dropped_observations: Arc::default(),
            broader: Arc::default(),
            dataset_label: None,
            tombstones: Tombstones::new(),
            stats: BuildStats::default(),
        })
    }

    /// The schema the cube was materialized for.
    pub fn schema(&self) -> &CubeSchema {
        &self.schema
    }

    /// Number of physical fact rows, tombstoned rows included (the row-id
    /// space of the columns).
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Number of live fact rows (what a fresh build of the current store
    /// would materialize).
    pub fn live_row_count(&self) -> usize {
        self.row_count - self.tombstones.dead_rows()
    }

    /// Number of tombstoned (removed but not yet compacted) fact rows.
    pub fn tombstoned_rows(&self) -> usize {
        self.tombstones.dead_rows()
    }

    /// The dead-row bitmap (scans must skip the rows it marks).
    pub(crate) fn tombstones(&self) -> &Tombstones {
        &self.tombstones
    }

    /// The per-segment zone maps (the executor's pruning metadata).
    pub(crate) fn zone_maps(&self) -> &ZoneMaps {
        &self.zones
    }

    /// Checks every zone-map invariant against the actual column contents
    /// and the tombstone bitmap: exact distinct-code sets per (dimension,
    /// segment) and per-segment dead counts that re-count from the bitmap.
    /// `Err` carries the first violation found. Exposed so lifecycle tests
    /// (build → delta-append → tombstone → compaction) can assert the maps
    /// stay sound at every step.
    pub fn verify_zone_invariants(&self) -> Result<(), String> {
        self.zones
            .verify(&self.dimensions, self.row_count, &self.tombstones)
    }

    /// The column of a dimension, if the schema declares it.
    pub fn dimension_column(&self, dimension: &Iri) -> Option<&DimensionColumn> {
        self.dimensions.iter().find(|c| &c.dimension == dimension)
    }

    /// All dimension columns, in schema order.
    pub fn dimension_columns(&self) -> &[DimensionColumn] {
        &self.dimensions
    }

    /// All measure columns, in schema order.
    pub fn measure_columns(&self) -> &[MeasureColumn] {
        &self.measures
    }

    /// The member index of a level.
    pub fn level(&self, level: &Iri) -> Option<&LevelIndex> {
        self.levels.get(level)
    }

    /// The precomputed roll-up map of a dimension to a target level
    /// (including the identity-with-membership map for the bottom level).
    pub fn rollup(&self, dimension: &Iri, level: &Iri) -> Option<&RollupMap> {
        self.rollups.get(&(dimension.clone(), level.clone()))
    }

    /// Build counters.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// All level indexes, keyed by level IRI.
    pub fn levels(&self) -> &BTreeMap<Iri, LevelIndex> {
        &self.levels
    }

    /// The `skos:broader` parents of a member (empty if none are known).
    pub fn broader_parents(&self, member: &Term) -> &[Term] {
        self.broader.get(member).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if `node` is one of the live materialized observations
    /// (removed observations stop being reported here the moment their row
    /// is tombstoned).
    pub fn is_observation(&self, node: &Term) -> bool {
        self.observations.contains(node)
    }

    /// The dataset's `rdfs:label`, if it has one.
    pub fn dataset_label(&self) -> Option<&str> {
        self.dataset_label.as_deref()
    }
}

/// Extends every roll-up map to cover the bottom members its column
/// dictionary holds beyond the map's length — all of them for the empty
/// maps a build or a hierarchy re-read starts from, the members that
/// entered since for an append replay — so all produce identical maps.
/// Each new entry walks the `broader` links for exactly the path length
/// the hierarchy declares (zero hops for the bottom level's identity map)
/// and anchors the result at the target level's members: the same
/// navigation the generated SPARQL performs.
pub(crate) fn extend_rollup_maps(cube: &mut MaterializedCube) {
    let MaterializedCube {
        schema,
        dimensions,
        levels,
        rollups,
        broader,
        ..
    } = cube;
    for map in rollups.values_mut() {
        let column = dimensions
            .iter()
            .find(|column| column.dimension == map.dimension)
            .expect("every roll-up map belongs to a column");
        if map.len() == column.dictionary.len() {
            continue;
        }
        let bottom = &column.bottom_level;
        let steps = if map.target_level == *bottom {
            0
        } else {
            let dimension = schema
                .dimension(&map.dimension)
                .expect("every column has a schema dimension");
            let (_, steps) = dimension
                .rollup_path(bottom, &map.target_level)
                .expect("maps exist only along declared roll-up paths");
            steps.len()
        };
        let target_index = levels.get(&map.target_level).expect("all levels indexed");
        for code in map.len()..column.dictionary.len() {
            let term = column.dictionary.term(code as MemberId);
            map.push(resolve_rollup_target(term, steps, broader, target_index));
        }
    }
}

/// Resolves the roll-up target of one bottom member: walks the `broader`
/// adjacency for exactly `steps` hops (tracking path *counts*, because the
/// SPARQL join counts an observation once per distinct path, so a member
/// with several paths — even to a single ancestor — is marked ambiguous
/// and refused at execution time rather than silently undercounted) and
/// anchors the result at the target level's members.
fn resolve_rollup_target(
    term: &Term,
    steps: usize,
    broader: &BTreeMap<Term, Vec<Term>>,
    target_index: &LevelIndex,
) -> MemberId {
    let mut frontier: BTreeMap<&Term, usize> = BTreeMap::new();
    frontier.insert(term, 1);
    for _ in 0..steps {
        let mut next: BTreeMap<&Term, usize> = BTreeMap::new();
        for (current, paths) in frontier {
            for parent in broader.get(current).into_iter().flatten() {
                *next.entry(parent).or_default() += paths;
            }
        }
        frontier = next;
    }
    let anchored: Vec<(MemberId, usize)> = frontier
        .into_iter()
        .filter_map(|(t, paths)| target_index.dictionary().id(t).map(|id| (id, paths)))
        .collect();
    match anchored.as_slice() {
        [] => NO_MEMBER,
        [(id, 1)] => *id,
        _ => AMBIGUOUS_MEMBER,
    }
}

/// Turns observation-table rows into fact rows: a member is
/// dictionary-encoded and a measure literal parsed once per distinct
/// (column, term) of the table, however many rows carry it. Every replay,
/// a build's included, classifies and appends through it.
pub(crate) struct FactEncoder<'t> {
    table: &'t ObservationTable,
    /// The table column of each cube dimension's bottom level and of each
    /// cube measure, where the DSD declares the property with that kind.
    bottoms: Vec<Option<usize>>,
    measures: Vec<Option<usize>>,
    /// Per (cube column, table term), resolved on first use.
    codes: Vec<Vec<MemberId>>,
    values: Vec<Vec<Option<StoredMeasure>>>,
}

impl<'t> FactEncoder<'t> {
    pub(crate) fn new(
        structure: &DataStructureDefinition,
        dimensions: &[DimensionColumn],
        measures: &[MeasureColumn],
        table: &'t ObservationTable,
    ) -> Self {
        let column_of = |property: &Iri, kind: ComponentKind| {
            let components = &structure.components;
            let column = components.iter().position(|c| &c.property == property)?;
            (components[column].kind == kind).then_some(column)
        };
        let terms = table.terms.len();
        FactEncoder {
            table,
            bottoms: dimensions
                .iter()
                .map(|column| column_of(&column.bottom_level, ComponentKind::Dimension))
                .collect(),
            measures: measures
                .iter()
                .map(|column| column_of(&column.property, ComponentKind::Measure))
                .collect(),
            codes: vec![vec![NO_MEMBER; terms]; dimensions.len()],
            values: vec![vec![None; terms]; measures.len()],
        }
    }

    /// The term index of a measure's value in the observation, if bound.
    fn cell(&self, observation: usize, measure: usize) -> Option<usize> {
        let cell = self.table.cells(observation)[self.measures[measure]?] as usize;
        (cell < self.table.terms.len()).then_some(cell)
    }

    /// True if the observation is a fact row: typed, with a literal for
    /// every measure. The SPARQL pattern's inner joins drop any other
    /// star too; the replay records it as dropped.
    pub(crate) fn is_fact_row(&self, observation: usize) -> bool {
        self.table.typed(observation)
            && (0..self.measures.len()).all(|measure| {
                self.cell(observation, measure)
                    .is_some_and(|cell| self.table.terms[cell].is_literal())
            })
    }

    /// Appends the fact row of an observation [`Self::is_fact_row`] accepts:
    /// one code per dimension ([`NO_MEMBER`] where unbound), one value per
    /// measure. An empty measure column takes its type from its first
    /// accepted literal.
    pub(crate) fn append(
        &mut self,
        dimensions: &mut [DimensionColumn],
        measures: &mut [MeasureColumn],
        observation: usize,
    ) -> Result<(), CubeStoreError> {
        let table = self.table;
        for (index, column) in measures.iter_mut().enumerate() {
            let cell = self
                .cell(observation, index)
                .expect("a fact row binds every measure");
            let value = match self.values[index][cell] {
                Some(value) => value,
                None => {
                    let literal = table.terms[cell].as_literal().expect("classified literal");
                    if column.data.is_empty() {
                        column.data = MeasureVector::for_literal(literal)?;
                    }
                    *self.values[index][cell].insert(column.data.stored_value(literal)?)
                }
            };
            column.data.push_stored(value);
        }
        let cells = table.cells(observation);
        for (index, column) in dimensions.iter_mut().enumerate() {
            let cell = self.bottoms[index].map(|column| cells[column] as usize);
            let code = match cell.filter(|&cell| cell < table.terms.len()) {
                Some(cell) => {
                    let code = &mut self.codes[index][cell];
                    if *code == NO_MEMBER {
                        *code = column.dictionary.encode(&table.terms[cell]);
                    }
                    *code
                }
                None => NO_MEMBER,
            };
            column.codes.push(code);
        }
        Ok(())
    }
}

/// The rows of a two-column SELECT in which both columns are bound.
fn bound_pairs(endpoint: &dyn Endpoint, query: &str) -> Result<Vec<(Term, Term)>, CubeStoreError> {
    let solutions = endpoint.select(query)?;
    let term = |row: &[u32], column: usize| solutions.term(*row.get(column)?).cloned();
    Ok(solutions
        .rows()
        .filter_map(|row| Some((term(row, 0)?, term(row, 1)?)))
        .collect())
}

/// Reads the hierarchy half of the cube — the shared `rdfs:label` pairs,
/// each level's members and one SELECT per level attribute, and the
/// `skos:broader` adjacency — and installs it in place of the cube's
/// levels, adjacency and dataset label, with the counters that describe
/// them and one empty roll-up map per level reachable upward from each
/// bottom level (and the bottom itself) for [`extend_rollup_maps`] to
/// fill. The fact columns hold bottom-member codes only, so nothing else
/// depends on what it replaces.
pub(crate) fn read_hierarchy(
    endpoint: &dyn Endpoint,
    cube: &mut MaterializedCube,
) -> Result<(), CubeStoreError> {
    let schema = &*cube.schema;
    // Display labels, read once and shared by every level index (the
    // columnar Exploration paths serve member labels from here instead of
    // one SPARQL lookup per member).
    let label_pairs = bound_pairs(
        endpoint,
        "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
         SELECT ?m ?v WHERE { ?m rdfs:label ?v } ORDER BY ?m ?v",
    )?;
    let dataset_node = Term::Iri(schema.dataset.clone());
    let dataset_label = label_pairs
        .iter()
        .find(|(m, _)| m == &dataset_node)
        .and_then(|(_, v)| v.as_literal())
        .map(|l| l.lexical().to_string());

    // Level indexes: declared members + the attribute values dices read +
    // the display labels exploration reads. Of several values an attribute
    // keeps the first of the `ORDER BY ?m ?v` read.
    let mut levels: BTreeMap<Iri, LevelIndex> = BTreeMap::new();
    for dimension in &schema.dimensions {
        for level in dimension.levels() {
            if levels.contains_key(level) {
                continue;
            }
            let mut dictionary = Dictionary::new();
            for member in qb4olap::members_of_level(endpoint, level)? {
                dictionary.encode(&member);
            }
            let mut index = LevelIndex::new(level.clone(), dictionary);
            for attribute in schema.level_attributes(level) {
                let pairs = bound_pairs(
                    endpoint,
                    &format!(
                        "SELECT ?m ?v WHERE {{ ?m <{}> ?v }} ORDER BY ?m ?v",
                        attribute.iri.as_str()
                    ),
                )?;
                index.set_attribute(attribute.iri.clone(), &pairs);
            }
            if !index.has_attribute(&rdf::vocab::rdfs::label()) {
                index.set_attribute(rdf::vocab::rdfs::label(), &label_pairs);
            }
            levels.insert(level.clone(), index);
        }
    }

    // Member-level `skos:broader` adjacency, each parent list sorted.
    let mut broader: BTreeMap<Term, Vec<Term>> = BTreeMap::new();
    for (child, parent) in bound_pairs(
        endpoint,
        "PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
         SELECT ?c ?p WHERE { ?c skos:broader ?p } ORDER BY ?c ?p",
    )? {
        broader.entry(child).or_default().push(parent);
    }

    let mut rollups: BTreeMap<(Iri, Iri), RollupMap> = BTreeMap::new();
    for (dimension, column) in schema.dimensions.iter().zip(&cube.dimensions) {
        let bottom = &column.bottom_level;
        for target in std::iter::once(bottom.clone()).chain(dimension.ancestor_levels(bottom)) {
            let map = RollupMap::new(dimension.iri.clone(), target.clone(), Vec::new());
            rollups.insert((dimension.iri.clone(), target), map);
        }
    }

    cube.stats.levels = levels.len();
    cube.stats.rollup_maps = rollups.len();
    cube.stats.broader_links = broader.values().map(Vec::len).sum();
    cube.levels = levels;
    cube.rollups = rollups;
    cube.broader = Arc::new(broader);
    cube.dataset_label = dataset_label;
    Ok(())
}

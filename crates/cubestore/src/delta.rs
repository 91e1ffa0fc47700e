//! Incremental maintenance: applies recorded store deltas
//! ([`rdf::StoreDelta`]) to a [`MaterializedCube`], reading back from the
//! endpoint only what the deltas touch.
//!
//! There is one materialization path: a build
//! ([`MaterializedCube::from_endpoint`]) is the replay of an empty cube
//! with every node in the read set and the hierarchy dirty, and runs the
//! same tail after it as every replay runs after its last delta.
//!
//! A replay sorts each default-graph triple of each delta, inserted or
//! removed, into one of four cases:
//!
//! * A **schema or structure** triple (`qb:*` components, `qb4o:*`
//!   structure) refuses with [`CubeStoreError::DeltaUnsupported`]; the
//!   catalog folds, so a wrong classification can cost a rebuild but never
//!   correctness.
//! * A **fact** triple (`rdf:type qb:Observation`, a `qb:dataSet` link to
//!   this cube's dataset, a dimension or a measure value) whose subject the
//!   cube holds — a live row or a recorded drop — *forgets* that node: the
//!   row is tombstoned or the drop un-recorded, and the node's
//!   [`crate::BuildStats`] reversed. The node then joins the replay's read
//!   set, as does a node newly linked to the dataset; a node whose link the
//!   delta removed stays out of it. After the last delta the read set's
//!   stars are read in one pivot SELECT (`qb::load_observations` restricted
//!   by a `VALUES` block; a build reads every star unrestricted) and
//!   classified and encoded by the fact encoder: complete → appended,
//!   otherwise → recorded as dropped, not returned (unlinked) → invisible.
//! * A **hierarchy** triple (`skos:broader`, `qb4o:memberOf` into one of
//!   the cube's levels, a tracked level attribute, `rdfs:label`) marks the
//!   replay hierarchy-dirty. After the star read a dirty replay reads the
//!   hierarchy half once (`read_hierarchy` in `build.rs`), which writes
//!   the levels, adjacency and dataset label in place of the old ones, and
//!   refills every roll-up map from empty. The fact columns, their
//!   dictionaries, the zone maps and the tombstones stay shared: they hold
//!   bottom-member codes, which no hierarchy change moves.
//! * **Anything else** is skipped.
//!
//! Every cube a replay returns is therefore what a fresh build of the
//! store would hold, the physical row order aside.
//!
//! The decision table below is held equal to `DeltaContext::classify` by
//! `tests::the_module_doc_restates_the_decision_table`.
//!
//! # Delta-vs-rebuild decision table
//!
//! (EXPERIMENTS.md §E13 and §E29 measure the cost of each row.)
//!
//! | Triple | Decision | What the replay does |
//! |---|---|---|
//! | Schema or structure (`qb:*` components, `qb4o:*` structure) | **rebuild** | refuses; the catalog folds |
//! | Fact triple of an observation (type, this dataset's link, a dimension or measure value) | **apply** | forgets the node if the cube holds it, then re-reads its star after the last delta |
//! | Hierarchy (`skos:broader`, `qb4o:memberOf` into a cube level, a tracked level attribute, `rdfs:label`) | **apply** | re-reads the hierarchy half once, after the star read, and refills every roll-up map |
//! | Anything else (a named graph, a link to another dataset, other predicates) | **skip** | nothing: the cube materializes this dataset's default-graph stars only |
//!
//! Batching does not matter. A change spread over several `Store::remove`
//! or `insert` calls arrives as several deltas; whether one replay covers
//! them all or a serve lands between them, each replay re-reads what is
//! there at its epoch.

use std::collections::BTreeSet;
use std::sync::Arc;

use rdf::vocab::{qb, qb4o, rdf as rdfv, rdfs, skos};
use rdf::{Iri, StoreDelta, Term, Triple};
use sparql::Endpoint;

use crate::build::{extend_rollup_maps, read_hierarchy, FactEncoder, MaterializedCube};
use crate::error::CubeStoreError;

/// The nodes whose stars a replay reads back after its last delta: those a
/// delta newly linked to the dataset and those it forgot without unlinking.
type ReadSet = BTreeSet<Term>;

impl MaterializedCube {
    /// Applies a sequence of store deltas, returning the refreshed cube.
    ///
    /// On success the result is query-equivalent to a fresh
    /// [`MaterializedCube::from_endpoint`] over the mutated store. On
    /// [`CubeStoreError::DeltaUnsupported`] (a schema or structure
    /// triple) the cube is untouched and the caller should rebuild. Deltas
    /// of named graphs are skipped: the cube materializes the default
    /// graph, which is all the local SPARQL engine queries.
    ///
    /// The deltas are classified in order; after the last one the stars of
    /// the nodes they newly linked to the dataset or forgot are read from
    /// `endpoint` in one pivot SELECT, and if a hierarchy triple was among
    /// them the hierarchy half is read from the same `endpoint`. The reads
    /// see the store as it is when they run, so the result stands for the
    /// last delta's epoch only if the store has not moved since; the
    /// catalog publishes it only then. A replay that touches no observation
    /// and no hierarchy triple reads nothing.
    ///
    /// The returned cube shares every untouched component with `self`
    /// (copy-on-write): a pure observation append copies only each
    /// column's mutable tail and the small observation-index overlay, a
    /// whole-observation removal additionally copies the tombstone words —
    /// never the sealed column segments, dictionaries or level indexes.
    pub fn apply_delta(
        &self,
        deltas: &[StoreDelta],
        endpoint: &dyn Endpoint,
    ) -> Result<MaterializedCube, CubeStoreError> {
        let context = DeltaContext::for_cube(self);
        let mut cube = self.clone();
        let mut reads = ReadSet::new();
        let mut hierarchy_dirty = false;
        for delta in deltas {
            if delta.graph.is_some() {
                continue;
            }
            hierarchy_dirty |= apply_one(&mut cube, &context, &mut reads, delta)?;
        }
        cube.read_back(endpoint, Some(&reads), hierarchy_dirty)?;
        Ok(cube)
    }

    /// The tail of every replay, a build's included: reads the stars of
    /// `reads` (every dataset-linked node when `None`, as on a build), the
    /// hierarchy half when `hierarchy_dirty`, refills the roll-up maps,
    /// extends the zone maps over the appended rows and gives the
    /// observation index its one merge check.
    pub(crate) fn read_back(
        &mut self,
        endpoint: &dyn Endpoint,
        reads: Option<&ReadSet>,
        hierarchy_dirty: bool,
    ) -> Result<(), CubeStoreError> {
        read_stars(self, endpoint, reads)?;
        if hierarchy_dirty {
            read_hierarchy(endpoint, self)?;
        }
        extend_rollup_maps(self);
        // Zone maps: O(appended rows), touching only each map's tail. A
        // tombstone-only replay appends nothing, so the maps are untouched —
        // zone sets are never loosened by removals (a dead row's codes
        // staying recorded costs precision, not soundness).
        self.zones.extend(&self.dimensions, self.row_count);
        self.observations.merge_if_outgrown();
        Ok(())
    }
}

/// The four cases of the decision table; a schema or structure triple is
/// the classifier's error.
enum TripleKind {
    Fact,
    Hierarchy,
    Other,
}

/// Predicate classification tables, computed once per `apply_delta` call.
struct DeltaContext {
    /// Predicates that define schema structure: any insert or removal
    /// using them forces a rebuild.
    schema_predicates: BTreeSet<Iri>,
    /// Per-dimension bottom-level observation properties, in column order.
    bottom_order: Vec<Iri>,
    /// Measure properties, in column order.
    measure_order: Vec<Iri>,
    /// The cube's levels: a `qb4o:memberOf` into one is a hierarchy triple.
    levels: BTreeSet<Iri>,
    /// Attributes tracked on some level index (declared attributes plus the
    /// `rdfs:label` store exploration reads).
    tracked_attributes: BTreeSet<Iri>,
    /// The dataset node observations link to.
    dataset: Term,
}

impl DeltaContext {
    fn for_cube(cube: &MaterializedCube) -> Self {
        let schema_predicates: BTreeSet<Iri> = [
            qb::structure(),
            qb::component(),
            qb::dimension(),
            qb::measure(),
            qb::attribute(),
            qb::component_property(),
            qb4o::level(),
            qb4o::has_hierarchy(),
            qb4o::in_dimension(),
            qb4o::has_level(),
            qb4o::in_hierarchy(),
            qb4o::child_level(),
            qb4o::parent_level(),
            qb4o::pc_cardinality(),
            qb4o::cardinality(),
            qb4o::has_attribute(),
            qb4o::in_level(),
            qb4o::aggregate_function(),
        ]
        .into_iter()
        .collect();
        DeltaContext {
            schema_predicates,
            bottom_order: cube
                .dimensions
                .iter()
                .map(|c| c.bottom_level.clone())
                .collect(),
            measure_order: cube.measures.iter().map(|m| m.property.clone()).collect(),
            levels: cube.levels.keys().cloned().collect(),
            tracked_attributes: cube
                .levels
                .values()
                .flat_map(|index| index.attribute_iris().cloned())
                .collect(),
            dataset: Term::Iri(cube.schema.dataset.clone()),
        }
    }

    /// Sorts one triple into its case; a schema or structure triple
    /// refuses. `change` says whether it was inserted or removed.
    fn classify(&self, triple: &Triple, change: &str) -> Result<TripleKind, CubeStoreError> {
        let predicate = &triple.predicate;
        if self.schema_predicates.contains(predicate) {
            return Err(CubeStoreError::DeltaUnsupported(format!(
                "schema/structure triple {change} (<{}>)",
                predicate.as_str()
            )));
        }
        Ok(if self.is_fact_triple(triple) {
            TripleKind::Fact
        } else if *predicate == skos::broader()
            || *predicate == rdfs::label()
            || self.tracked_attributes.contains(predicate)
            || (*predicate == qb4o::member_of()
                && matches!(&triple.object, Term::Iri(level) if self.levels.contains(level)))
        {
            TripleKind::Hierarchy
        } else {
            TripleKind::Other
        })
    }

    /// True if the triple is part of what the materialization reads off an
    /// observation node: its type, its link to this dataset, a dimension or
    /// measure value.
    fn is_fact_triple(&self, triple: &Triple) -> bool {
        let predicate = &triple.predicate;
        (*predicate == qb::data_set() && triple.object == self.dataset)
            || (*predicate == rdfv::type_() && triple.object == Term::Iri(qb::observation()))
            || self.bottom_order.contains(predicate)
            || self.measure_order.contains(predicate)
    }
}

/// Forgets a node the cube holds: tombstones its live row or un-records its
/// drop, and takes it out of the counts. False if the cube holds neither.
fn forget(cube: &mut MaterializedCube, node: &Term) -> bool {
    if let Some(row) = cube.observations.remove(node) {
        cube.tombstones.kill(row);
        cube.stats.rows -= 1;
    } else if cube.dropped_observations.contains(node) {
        Arc::make_mut(&mut cube.dropped_observations).remove(node);
        cube.stats.rows_dropped -= 1;
    } else {
        return false;
    }
    cube.stats.observations_seen -= 1;
    true
}

/// Classifies one delta's triples, removals first: fact triples forget
/// nodes and grow the read set. Returns whether a hierarchy triple was
/// among them.
fn apply_one(
    cube: &mut MaterializedCube,
    context: &DeltaContext,
    reads: &mut ReadSet,
    delta: &StoreDelta,
) -> Result<bool, CubeStoreError> {
    let mut hierarchy_dirty = false;
    for triple in &delta.removed {
        match context.classify(triple, "removed")? {
            TripleKind::Fact if triple.predicate == qb::data_set() => {
                // Unlinked from the dataset, it is invisible: nothing to read.
                forget(cube, &triple.subject);
                reads.remove(&triple.subject);
            }
            TripleKind::Fact => {
                if forget(cube, &triple.subject) {
                    reads.insert(triple.subject.clone());
                }
            }
            TripleKind::Hierarchy => hierarchy_dirty = true,
            TripleKind::Other => {}
        }
    }
    for triple in &delta.inserted {
        match context.classify(triple, "inserted")? {
            // A node the cube holds is forgotten and re-read; a node newly
            // linked to the dataset is read. Any other node's star is read
            // once a delta links it.
            TripleKind::Fact => {
                if forget(cube, &triple.subject) || triple.predicate == qb::data_set() {
                    reads.insert(triple.subject.clone());
                }
            }
            TripleKind::Hierarchy => hierarchy_dirty = true,
            TripleKind::Other => {}
        }
    }
    Ok(hierarchy_dirty)
}

/// Reads the stars of the replay's read set (every dataset-linked node's
/// on a build) in one pivot SELECT and classifies each: a fact row is
/// appended, any other star recorded as dropped. A node the read does not
/// return (unlinked) is invisible.
fn read_stars(
    cube: &mut MaterializedCube,
    endpoint: &dyn Endpoint,
    reads: Option<&ReadSet>,
) -> Result<(), CubeStoreError> {
    let nodes: Option<Vec<Term>> = match reads {
        Some(reads) if reads.is_empty() => return Ok(()),
        Some(reads) => Some(reads.iter().cloned().collect()),
        None => None,
    };
    let structure = cube.structure.clone();
    let table =
        ::qb::load_observations(endpoint, &cube.schema.dataset, &structure, nodes.as_deref())?;
    let mut encoder = FactEncoder::new(&structure, &cube.dimensions, &cube.measures, &table);
    cube.observations.reserve(table.len());
    for observation in 0..table.len() {
        let node = &table.terms[table.node(observation) as usize];
        cube.stats.observations_seen += 1;
        if !encoder.is_fact_row(observation) {
            cube.stats.rows_dropped += 1;
            Arc::make_mut(&mut cube.dropped_observations).insert(node.clone());
            continue;
        }
        encoder.append(&mut cube.dimensions, &mut cube.measures, observation)?;
        cube.observations.insert(node.clone(), cube.row_count);
        cube.row_count += 1;
        cube.stats.rows += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use qb4olap::AggregateFunction;
    use rdf::vocab::{qb, rdf as rdfv, rdfs};
    use rdf::{Literal, Term, Triple};
    use sparql::{Endpoint, LocalEndpoint};

    use crate::dictionary::NO_MEMBER;
    use crate::executor::CubeQuery;
    use crate::testutil::{
        assert_matches_scratch_build, fixture, iri, member, observation_triples, rollup_to_country,
        run, run_with, structure_triple,
    };
    use crate::{CubeStoreError, MaterializedCube};

    use super::*;

    /// Builds the fixture cube with change tracking on, so mutations made
    /// through the endpoint are recorded as replayable deltas.
    fn tracked() -> (LocalEndpoint, MaterializedCube, u64) {
        tracked_with(&[])
    }

    fn deltas_after(endpoint: &LocalEndpoint, epoch: u64) -> Vec<StoreDelta> {
        endpoint.deltas_since(epoch).expect("change log enabled")
    }

    /// After a successful delta application the cube must equal a
    /// from-scratch materialization: results, counters, dropped set, live
    /// rows, levels, roll-up maps, adjacency and dataset label.
    fn assert_matches_rebuild(endpoint: &LocalEndpoint, cube: &MaterializedCube) {
        assert_matches_scratch_build(endpoint, cube, "delta-applied cube");
    }

    #[test]
    fn pure_observation_append_is_applied_in_place() {
        let (endpoint, cube, epoch) = tracked();
        endpoint
            .insert_triples(&observation_triples("o6", "c1", "m2", 40, 2))
            .unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(refreshed.row_count(), cube.row_count() + 1);
        assert_eq!(refreshed.stats().rows, cube.stats().rows + 1);
        assert!(refreshed.is_observation(&Term::iri("http://example.org/obs/o6")));
        assert_matches_rebuild(&endpoint, &refreshed);
        // The original cube is untouched (apply returns a new one).
        assert_eq!(cube.row_count(), 5);
    }

    #[test]
    fn new_member_with_rollup_link_label_and_observation() {
        let (endpoint, cube, epoch) = tracked();
        // A brand-new city c4 in country K2, with a label, plus an
        // observation that references it — all in one batch.
        let mut batch = vec![
            qb4olap::member_of_triple(&member("c4"), &iri("lv/city")),
            qb4olap::rollup_triple(&member("c4"), &member("K2")),
            Triple::new(member("c4"), rdfs::label(), Literal::string("City Four")),
        ];
        batch.extend(observation_triples("o7", "c4", "m1", 11, 1));
        endpoint.insert_triples(&batch).unwrap();

        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(refreshed.row_count(), 6);
        let city_index = refreshed.level(&iri("lv/city")).unwrap();
        let id = city_index.dictionary().id(&member("c4")).expect("declared");
        assert_eq!(
            city_index.attribute_value(&rdfs::label(), id),
            Some(&Term::Literal(Literal::string("City Four")))
        );
        assert_eq!(refreshed.broader_parents(&member("c4")), &[member("K2")]);
        // The K2 group gains the new observation's value.
        let cells = run(&refreshed, &rollup_to_country()).unwrap().into_cells();
        let k2m1 = cells
            .iter()
            .find(|c| c.coordinates == vec![member("K2"), member("m1")])
            .unwrap();
        assert_eq!(k2m1.values[0], Some(Term::integer(16)), "5 + 11");
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn consecutive_deltas_apply_in_order() {
        let (endpoint, cube, epoch) = tracked();
        endpoint
            .insert_triples(&observation_triples("o6", "c2", "m1", 1, 1))
            .unwrap();
        endpoint
            .insert_triples(&observation_triples("o7", "c1", "m2", 2, 2))
            .unwrap();
        let deltas = deltas_after(&endpoint, epoch);
        assert_eq!(deltas.len(), 2);
        let refreshed = cube.apply_delta(&deltas, &endpoint).unwrap();
        assert_eq!(refreshed.row_count(), 7);
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn whole_observation_removal_tombstones_the_row() {
        let (endpoint, cube, epoch) = tracked();
        // Remove o3 (c2, m1, 5, 1) completely, as ONE batch → one delta.
        let o3 = Term::iri("http://example.org/obs/o3");
        let removed = endpoint.store().remove_all(&[
            Triple::new(o3.clone(), rdfv::type_(), Term::Iri(qb::observation())),
            Triple::new(
                o3.clone(),
                qb::data_set(),
                Term::iri("http://example.org/ds"),
            ),
            Triple::new(o3.clone(), iri("lv/city"), member("c2")),
            Triple::new(o3.clone(), iri("lv/month"), member("m1")),
            Triple::new(o3.clone(), iri("measure/value"), Literal::integer(5)),
            Triple::new(o3.clone(), iri("measure/score"), Literal::integer(1)),
        ]);
        assert_eq!(removed, 6);
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        // The row stays physically present but dead.
        assert_eq!(refreshed.row_count(), 5, "physical rows unchanged");
        assert_eq!(refreshed.live_row_count(), 4);
        assert_eq!(refreshed.tombstoned_rows(), 1);
        assert_eq!(refreshed.stats().rows, 4);
        assert_eq!(refreshed.stats().observations_seen, 4);
        assert!(!refreshed.is_observation(&o3));
        assert_matches_rebuild(&endpoint, &refreshed);
        // The K2/m1 cell (5) is gone; K2/m2 (7) survives.
        assert!(!run(&refreshed, &rollup_to_country())
            .unwrap()
            .into_cells()
            .iter()
            .any(|c| c.coordinates == vec![member("K2"), member("m1")]));
        // The original cube is untouched.
        assert_eq!(cube.live_row_count(), 5);
        assert!(cube.is_observation(&o3));
    }

    #[test]
    fn removal_then_reappend_of_the_same_node_is_appliable() {
        let (endpoint, cube, epoch) = tracked();
        let o3 = Term::iri("http://example.org/obs/o3");
        endpoint.store().remove_all(&[
            Triple::new(o3.clone(), rdfv::type_(), Term::Iri(qb::observation())),
            Triple::new(
                o3.clone(),
                qb::data_set(),
                Term::iri("http://example.org/ds"),
            ),
            Triple::new(o3.clone(), iri("lv/city"), member("c2")),
            Triple::new(o3.clone(), iri("lv/month"), member("m1")),
            Triple::new(o3.clone(), iri("measure/value"), Literal::integer(5)),
            Triple::new(o3.clone(), iri("measure/score"), Literal::integer(1)),
        ]);
        // The same node comes back with a different value.
        endpoint
            .insert_triples(&observation_triples("o3", "c2", "m1", 50, 2))
            .unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(refreshed.row_count(), 6, "old row dead, new row appended");
        assert_eq!(refreshed.live_row_count(), 5);
        assert!(refreshed.is_observation(&o3));
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn partial_measure_removal_tombstones_and_drops_the_fragment() {
        // The row is tombstoned and the surviving fragment recorded as
        // *dropped*, exactly as a fresh build classifies it.
        let (endpoint, cube, epoch) = tracked();
        let o1 = Term::iri("http://example.org/obs/o1");
        assert!(endpoint.store().remove(&Triple::new(
            o1.clone(),
            iri("measure/value"),
            Literal::integer(10)
        )));
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(refreshed.row_count(), 5, "row stays physically present");
        assert_eq!(refreshed.live_row_count(), 4);
        assert_eq!(refreshed.stats().rows, 4);
        assert_eq!(
            refreshed.stats().observations_seen,
            5,
            "still dataset-linked"
        );
        assert_eq!(refreshed.stats().rows_dropped, 1);
        assert!(!refreshed.is_observation(&o1));
        assert_matches_rebuild(&endpoint, &refreshed);

        // Restoring a measure forgets the drop and re-reads the star: o1
        // is a fact row again.
        let epoch = endpoint.epoch();
        endpoint
            .insert_triples(&[Triple::new(
                o1.clone(),
                iri("measure/value"),
                Literal::integer(11),
            )])
            .unwrap();
        let restored = refreshed
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(restored.live_row_count(), 5);
        assert_eq!(restored.stats().rows_dropped, 0);
        assert!(restored.is_observation(&o1));
        assert_matches_rebuild(&endpoint, &restored);
    }

    #[test]
    fn partial_dataset_unlink_hides_the_fragment() {
        let (endpoint, cube, epoch) = tracked();
        let o3 = Term::iri("http://example.org/obs/o3");
        assert!(endpoint.store().remove(&Triple::new(
            o3.clone(),
            qb::data_set(),
            Term::iri("http://example.org/ds")
        )));
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(refreshed.live_row_count(), 4);
        assert_eq!(refreshed.stats().observations_seen, 4, "no longer counted");
        assert_eq!(refreshed.stats().rows_dropped, 0, "invisible, not dropped");
        assert!(!refreshed.is_observation(&o3));
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn partial_dimension_removal_reappends_the_surviving_row() {
        let (endpoint, cube, epoch) = tracked();
        let o1 = Term::iri("http://example.org/obs/o1");
        // Stripping only the city value leaves a complete observation with
        // an unbound city: tombstone the old row, re-append the survivor.
        assert!(endpoint
            .store()
            .remove(&Triple::new(o1.clone(), iri("lv/city"), member("c1"))));
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(
            refreshed.row_count(),
            6,
            "old row dead, survivor re-appended"
        );
        assert_eq!(refreshed.live_row_count(), 5);
        assert_eq!(refreshed.tombstoned_rows(), 1);
        assert_eq!(refreshed.stats().rows, 5);
        assert_eq!(refreshed.stats().observations_seen, 5);
        assert_eq!(refreshed.stats().rows_dropped, 0);
        assert!(refreshed.is_observation(&o1));
        let column = refreshed.dimension_column(&iri("dim/city")).unwrap();
        assert_eq!(
            column.code(5),
            NO_MEMBER,
            "the stripped dimension is unbound"
        );
        assert_matches_rebuild(&endpoint, &refreshed);
        // o1's 10 leaves every city roll-up (no city binding joins)...
        assert!(!run(&refreshed, &rollup_to_country())
            .unwrap()
            .into_cells()
            .iter()
            .any(|c| c.coordinates == vec![member("K1"), member("m1")]));
        // ... but still counts when the city dimension is sliced away.
        let sliced = CubeQuery {
            slices: vec![iri("dim/city")],
            ..CubeQuery::default()
        };
        let cells = run(&refreshed, &sliced).unwrap().into_cells();
        let m1 = cells
            .iter()
            .find(|c| c.coordinates == vec![member("m1")])
            .unwrap();
        assert_eq!(m1.values[0], Some(Term::integer(115)), "10 + 5 + 100");
    }

    /// The six fact triples of the fixture's o3 (c2, m1, 5, 1).
    fn o3_triples() -> Vec<Triple> {
        observation_triples("o3", "c2", "m1", 5, 1)
    }

    #[test]
    fn per_triple_whole_removal_drops_then_forgets() {
        // Removing a whole observation one triple at a time with a replay
        // after each: the first replay's star read finds the fragment
        // untyped and *drops* it; the next, unlinking it, forgets the drop
        // and reads nothing. (Replayed together the same removals apply
        // too, see `a_removal_spread_over_three_deltas_replays_as_one`.)
        let (endpoint, cube, epoch) = tracked();
        let [typed, linked, ..] = <[Triple; 6]>::try_from(o3_triples()).unwrap();
        assert!(endpoint.store().remove(&typed));
        let dropped = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(dropped.stats().rows_dropped, 1);
        assert_matches_rebuild(&endpoint, &dropped);

        let epoch = endpoint.epoch();
        assert!(endpoint.store().remove(&linked));
        let unlinked = dropped
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(unlinked.stats().rows_dropped, 0, "invisible, not dropped");
        assert_eq!(unlinked.stats().observations_seen, 4);
        assert_matches_rebuild(&endpoint, &unlinked);
    }

    #[test]
    fn a_removal_spread_over_three_deltas_replays_as_one() {
        // Type, then dataset link, then city, each its own delta: the
        // first tombstones o3, the star read after the last no longer
        // returns it (the surviving month and measures are unlinked).
        let (endpoint, cube, epoch) = tracked();
        let o3 = o3_triples();
        for triple in &o3[..3] {
            assert_eq!(endpoint.store().remove_all(std::slice::from_ref(triple)), 1);
        }
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(refreshed.live_row_count(), 4);
        assert_eq!(refreshed.stats().observations_seen, 4);
        assert_eq!(refreshed.stats().rows_dropped, 0, "invisible, not dropped");
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn a_measure_edit_replayed_as_one_applies() {
        // Strip o1's measure, then give it another value: two deltas, one
        // replay. The removal tombstones o1, the star read appends o1 with
        // the new value.
        let (endpoint, cube, epoch) = tracked();
        let o1 = Term::iri("http://example.org/obs/o1");
        assert!(endpoint.store().remove(&Triple::new(
            o1.clone(),
            iri("measure/value"),
            Literal::integer(10)
        )));
        endpoint
            .insert_triples(&[Triple::new(
                o1.clone(),
                iri("measure/value"),
                Literal::integer(11),
            )])
            .unwrap();
        let deltas = deltas_after(&endpoint, epoch);
        assert_eq!(deltas.len(), 2);
        let refreshed = cube.apply_delta(&deltas, &endpoint).unwrap();
        assert_eq!(refreshed.live_row_count(), 5);
        assert_eq!(refreshed.stats().rows_dropped, 0);
        assert!(refreshed.is_observation(&o1));
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn an_attribute_on_a_new_observation_applies() {
        // A label is a hierarchy triple wherever it lands: the replay
        // appends o6 and re-reads the hierarchy, which ignores a label on
        // a node no level declares.
        let (endpoint, cube, epoch) = tracked();
        let mut o6 = observation_triples("o6", "c1", "m2", 40, 2);
        let node = o6[0].subject.clone();
        o6.push(Triple::new(
            node.clone(),
            rdfs::label(),
            Literal::string("six"),
        ));
        endpoint.insert_triples(&o6).unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert!(refreshed.is_observation(&node));
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn an_attribute_on_an_unlinked_tombstoned_node_applies() {
        // o3 loses its dataset link (invisible, nothing read); a label on
        // it re-reads the hierarchy, which does not see it either.
        let (endpoint, cube, epoch) = tracked();
        let o3 = o3_triples();
        assert_eq!(endpoint.store().remove_all(&o3[1..2]), 1);
        endpoint
            .insert_triples(&[Triple::new(
                o3[0].subject.clone(),
                rdfs::label(),
                Literal::string("three"),
            )])
            .unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert!(!refreshed.is_observation(&o3[0].subject));
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    /// Builds the fixture cube over a store that also holds `early`.
    fn tracked_with(early: &[Triple]) -> (LocalEndpoint, MaterializedCube, u64) {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        endpoint.insert_triples(early).unwrap();
        endpoint.enable_change_tracking();
        let epoch = endpoint.epoch();
        let cube = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        (endpoint, cube, epoch)
    }

    /// o6 (c1, m2, 40, 2) split into its city triple and the rest.
    fn o6_split() -> (Triple, Vec<Triple>) {
        let mut rest = observation_triples("o6", "c1", "m2", 40, 2);
        let city = rest.remove(2);
        assert_eq!(city.predicate, iri("lv/city"));
        (city, rest)
    }

    #[test]
    fn a_dimension_value_stored_before_the_build_joins_its_observation() {
        let (city, rest) = o6_split();
        let (endpoint, cube, epoch) = tracked_with(&[city]);
        endpoint.insert_triples(&rest).unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        let column = refreshed.dimension_column(&iri("dim/city")).unwrap();
        assert_eq!(column.unbound_rows(), 0, "o6 reads its early city back");
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn a_dimension_value_from_an_earlier_delta_joins_its_observation() {
        let (city, rest) = o6_split();
        let (endpoint, cube, epoch) = tracked();
        endpoint.insert_triples(&[city]).unwrap();
        endpoint.insert_triples(&rest).unwrap();
        let deltas = deltas_after(&endpoint, epoch);
        assert_eq!(deltas.len(), 2);
        let refreshed = cube.apply_delta(&deltas, &endpoint).unwrap();
        let column = refreshed.dimension_column(&iri("dim/city")).unwrap();
        assert_eq!(column.unbound_rows(), 0, "o6 reads its city back");
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn a_blank_node_observation_is_read_back_by_its_label() {
        let (endpoint, cube, epoch) = tracked();
        let node = Term::blank("fresh");
        let star: Vec<Triple> = observation_triples("o6", "c2", "m2", 8, 3)
            .into_iter()
            .map(|triple| Triple::new(node.clone(), triple.predicate, triple.object))
            .collect();
        endpoint.insert_triples(&star).unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(refreshed.live_row_count(), 6);
        assert!(refreshed.is_observation(&node));
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn removing_either_value_of_a_duplicated_slot_applies() {
        // o1 carries TWO city values in the store; the row keeps the least
        // (c1). Removing either re-reads the star: the survivor is what a
        // fresh build now picks.
        let o1 = Term::iri("http://example.org/obs/o1");
        for (removed, survivor) in [("c2", "c1"), ("c1", "c2")] {
            let (endpoint, cube, epoch) =
                tracked_with(&[Triple::new(o1.clone(), iri("lv/city"), member("c2"))]);
            let column = cube.dimension_column(&iri("dim/city")).unwrap();
            let row = cube.observations.row_of(&o1).expect("o1 materialized");
            assert_eq!(column.dictionary.term(column.code(row)), &member("c1"));
            assert!(endpoint.store().remove(&Triple::new(
                o1.clone(),
                iri("lv/city"),
                member(removed)
            )));
            let refreshed = cube
                .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
                .unwrap();
            let column = refreshed.dimension_column(&iri("dim/city")).unwrap();
            let row = refreshed.observations.row_of(&o1).expect("o1 re-read");
            assert_eq!(column.dictionary.term(column.code(row)), &member(survivor));
            assert_matches_rebuild(&endpoint, &refreshed);
        }
    }

    #[test]
    fn a_cut_roll_up_link_applies_and_makes_the_city_ragged() {
        let (endpoint, cube, epoch) = tracked();
        assert!(endpoint
            .store()
            .remove(&qb4olap::rollup_triple(&member("c1"), &member("K1"))));
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(refreshed.stats().broader_links, 1);
        // c1's observations leave the country roll-up.
        let cells = run(&refreshed, &rollup_to_country()).unwrap().into_cells();
        assert!(!cells.iter().any(|c| c.coordinates[0] == member("K1")));
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn a_gained_dimension_value_rereads_the_star() {
        // Giving an existing observation a second dimension value forgets
        // its row and re-reads the star, which keeps the least value.
        let (endpoint, cube, epoch) = tracked();
        let o1 = Term::iri("http://example.org/obs/o1");
        endpoint
            .insert_triples(&[Triple::new(o1.clone(), iri("lv/city"), member("c2"))])
            .unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(
            refreshed.row_count(),
            6,
            "old row dead, re-read row appended"
        );
        assert_eq!(refreshed.live_row_count(), 5);
        assert!(refreshed.is_observation(&o1));
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn schema_and_hierarchy_structure_changes_force_a_rebuild() {
        for removed in [false, true] {
            let (endpoint, cube, epoch) = if removed {
                tracked_with(&[structure_triple()])
            } else {
                tracked()
            };
            if removed {
                assert!(endpoint.store().remove(&structure_triple()));
            } else {
                endpoint.insert_triples(&[structure_triple()]).unwrap();
            }
            let error = cube
                .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
                .unwrap_err();
            let CubeStoreError::DeltaUnsupported(detail) = error else {
                panic!("expected a delta refusal, got {error}");
            };
            let change = if removed { "removed" } else { "inserted" };
            assert!(
                detail.contains(&format!("structure triple {change}")),
                "{detail}"
            );
            assert!(detail.contains("hasLevel"), "{detail}");
        }
    }

    #[test]
    fn an_incomplete_insert_and_hierarchy_inserts_apply() {
        // An observation fragment missing its measures is recorded as
        // dropped, as a fresh build records it.
        let (endpoint, cube, epoch) = tracked();
        let node = Term::iri("http://example.org/obs/half");
        endpoint
            .insert_triples(&[
                Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())),
                Triple::new(
                    node.clone(),
                    qb::data_set(),
                    Term::iri("http://example.org/ds"),
                ),
            ])
            .unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert!(refreshed.dropped_observations.contains(&node));
        assert_matches_rebuild(&endpoint, &refreshed);

        // A broader link added to the ragged, already-materialized c3: its
        // observations join K2.
        let (endpoint, cube, epoch) = tracked();
        endpoint
            .insert_triples(&[qb4olap::rollup_triple(&member("c3"), &member("K2"))])
            .unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(refreshed.broader_parents(&member("c3")), &[member("K2")]);
        assert_matches_rebuild(&endpoint, &refreshed);

        // An attribute value for a member the cube has never seen.
        let (endpoint, cube, epoch) = tracked();
        endpoint
            .insert_triples(&[Triple::new(
                Term::iri("http://example.org/member/ghost"),
                iri("attr/countryName"),
                Literal::string("Ghost"),
            )])
            .unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn attribute_value_fills_an_empty_slot() {
        let (endpoint, cube, epoch) = tracked();
        // K2 has no countryName in the fixture; the delta provides one.
        endpoint
            .insert_triples(&[qb4olap::attribute_triple(
                &member("K2"),
                &iri("attr/countryName"),
                &Term::Literal(Literal::string("Beta")),
            )])
            .unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        let country = refreshed.level(&iri("lv/country")).unwrap();
        let id = country.dictionary().id(&member("K2")).unwrap();
        assert_eq!(
            country.attribute_value(&iri("attr/countryName"), id),
            Some(&Term::Literal(Literal::string("Beta")))
        );
        assert_matches_rebuild(&endpoint, &refreshed);
        // A second, different value applies too: the slot keeps the first
        // of the build's `ORDER BY ?m ?v` read, here still "Beta".
        let epoch = endpoint.epoch();
        endpoint
            .insert_triples(&[qb4olap::attribute_triple(
                &member("K2"),
                &iri("attr/countryName"),
                &Term::Literal(Literal::string("Gamma")),
            )])
            .unwrap();
        let conflicted = refreshed
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        let country = conflicted.level(&iri("lv/country")).unwrap();
        assert_eq!(
            country.attribute_value(&iri("attr/countryName"), id),
            Some(&Term::Literal(Literal::string("Beta")))
        );
        assert_matches_rebuild(&endpoint, &conflicted);
    }

    #[test]
    fn appends_to_float_measure_columns_apply_in_place() {
        // Previously refused as NonIntegralAppend: appending would have
        // summed floats in a different order than a rebuild. With the
        // order-independent compensated summator the append replays
        // bit-identically.
        let city = iri("lv/city");
        let value = iri("measure/value");
        let mut builder = ::qb::QbDatasetBuilder::new(iri("ds"), iri("dsd"))
            .dimension(city.clone())
            .measure(value.clone());
        let mut obs = ::qb::Observation::new(Term::iri("http://example.org/obs/f1"));
        obs.dimensions.insert(city.clone(), member("c1"));
        obs.measures
            .insert(value.clone(), Term::Literal(Literal::decimal(1.5)));
        builder = builder.observation(obs);
        let (_, mut triples) = builder.build();
        triples.push(qb4olap::member_of_triple(&member("c1"), &city));
        let endpoint = LocalEndpoint::new();
        endpoint.insert_triples(&triples).unwrap();

        let mut schema = qb4olap::CubeSchema::new(iri("dsdQB4O"), iri("ds"));
        let mut hierarchy = qb4olap::Hierarchy::new(iri("hier/city"));
        hierarchy.levels = vec![city.clone()];
        let mut dimension = qb4olap::Dimension::new(iri("dim/city"));
        dimension.hierarchies.push(hierarchy);
        schema.dimensions.push(dimension);
        schema.measures.push(qb4olap::MeasureSpec {
            property: value.clone(),
            aggregate: AggregateFunction::Sum,
        });

        endpoint.enable_change_tracking();
        let epoch = endpoint.epoch();
        let cube = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        // Adversarial decimal appends, one delta each: cancellation-heavy
        // magnitudes whose naive left-to-right sum depends on the order.
        for (serial, measure_value) in [2.5, 0.1, 0.2, 1e15, 0.3, -1e15, 0.30000000000000004, -0.7]
            .into_iter()
            .enumerate()
        {
            let node = Term::iri(format!("http://example.org/obs/f{}", serial + 2));
            endpoint
                .insert_triples(&[
                    Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())),
                    Triple::new(
                        node.clone(),
                        qb::data_set(),
                        Term::iri("http://example.org/ds"),
                    ),
                    Triple::new(node.clone(), city.clone(), member("c1")),
                    Triple::new(node, value.clone(), Literal::decimal(measure_value)),
                ])
                .unwrap();
        }
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(refreshed.row_count(), 9);
        // Bit-identical to a from-scratch rebuild, pruned or not.
        let rebuilt = MaterializedCube::from_endpoint(&endpoint, refreshed.schema()).unwrap();
        let reference = run(&rebuilt, &CubeQuery::default()).unwrap();
        for prune in [false, true] {
            assert_eq!(
                run_with(&refreshed, &CubeQuery::default(), prune)
                    .unwrap()
                    .0,
                reference,
                "float delta-applied cube diverges from a rebuild (prune={prune})"
            );
        }
    }

    #[test]
    fn other_datasets_observations_do_not_disturb_the_delta_path() {
        let (endpoint, cube, epoch) = tracked();
        // A complete observation of a *different* dataset, sharing the
        // measure property: invisible to this cube, so the delta applies
        // as a no-op instead of forcing a rebuild.
        let node = Term::iri("http://example.org/other/obs1");
        endpoint
            .insert_triples(&[
                Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())),
                Triple::new(
                    node.clone(),
                    qb::data_set(),
                    Term::iri("http://example.org/otherDs"),
                ),
                Triple::new(node, iri("measure/value"), Literal::integer(123)),
            ])
            .unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(refreshed.row_count(), cube.row_count());
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn completing_or_unlinking_a_dropped_observation_applies() {
        // An observation that is dataset-linked but untyped is dropped at
        // build time. A delta typing it forgets the drop and re-reads the
        // star, which a fresh build now accepts; one unlinking it forgets
        // the drop and reads nothing.
        let node = Term::iri("http://example.org/obs/late");
        let link = Triple::new(
            node.clone(),
            qb::data_set(),
            Term::iri("http://example.org/ds"),
        );
        let late = [
            link.clone(),
            Triple::new(node.clone(), iri("lv/city"), member("c1")),
            Triple::new(node.clone(), iri("lv/month"), member("m1")),
            Triple::new(node.clone(), iri("measure/value"), Literal::integer(7)),
            Triple::new(node.clone(), iri("measure/score"), Literal::integer(7)),
        ];

        let (endpoint, cube, epoch) = tracked_with(&late);
        assert_eq!(cube.stats().rows_dropped, 1, "untyped observation dropped");
        endpoint
            .insert_triples(&[Triple::new(
                node.clone(),
                rdfv::type_(),
                Term::Iri(qb::observation()),
            )])
            .unwrap();
        let completed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(completed.live_row_count(), 6);
        assert_eq!(completed.stats().rows_dropped, 0);
        assert!(completed.is_observation(&node));
        assert_matches_rebuild(&endpoint, &completed);

        let (endpoint, cube, epoch) = tracked_with(&late);
        assert!(endpoint.store().remove(&link));
        let unlinked = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(unlinked.stats().rows_dropped, 0);
        assert_eq!(unlinked.stats().observations_seen, 5, "no longer counted");
        assert_matches_rebuild(&endpoint, &unlinked);
    }

    #[test]
    fn delta_applied_adjacency_stays_sorted_like_a_rebuild() {
        let (endpoint, cube, epoch) = tracked();
        // Two roll-up links for a new member, inserted in reverse order;
        // the delta-applied adjacency must match the rebuilt (ordered)
        // read. (The member becomes ambiguous — fine, queries refusing it
        // is covered elsewhere.)
        endpoint
            .insert_triples(&[
                qb4olap::member_of_triple(&member("c9"), &iri("lv/city")),
                qb4olap::rollup_triple(&member("c9"), &member("K2")),
                qb4olap::rollup_triple(&member("c9"), &member("K1")),
            ])
            .unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        let rebuilt = MaterializedCube::from_endpoint(&endpoint, refreshed.schema()).unwrap();
        assert_eq!(
            refreshed.broader_parents(&member("c9")),
            rebuilt.broader_parents(&member("c9")),
            "adjacency order diverges from a rebuild"
        );
        assert_eq!(
            refreshed.broader_parents(&member("c9")),
            &[member("K1"), member("K2")]
        );
    }

    #[test]
    fn named_graph_and_irrelevant_deltas_are_ignored() {
        let (endpoint, cube, epoch) = tracked();
        endpoint
            .insert_triples_named(
                &Iri::new("http://example.org/graph/staging"),
                &observation_triples("staged", "c1", "m1", 999, 9),
            )
            .unwrap();
        // Unrelated triples in the default graph are invisible too.
        endpoint
            .insert_triples(&[Triple::new(
                Term::iri("http://example.org/elsewhere"),
                Iri::new("http://example.org/unrelated"),
                Literal::string("noise"),
            )])
            .unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(refreshed.row_count(), cube.row_count());
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    /// The SELECTs `run` makes the endpoint evaluate, and its result.
    fn selects<T>(endpoint: &LocalEndpoint, run: impl FnOnce() -> T) -> (usize, T) {
        let before = endpoint.queries_executed();
        let result = run();
        (endpoint.queries_executed() - before, result)
    }

    /// The machine-independent guard that only a hierarchy triple makes a
    /// replay read the hierarchy.
    #[test]
    fn replays_read_the_hierarchy_only_after_a_hierarchy_triple() {
        let (endpoint, cube, epoch) = tracked();
        let (hierarchy, _) = selects(&endpoint, || read_hierarchy(&endpoint, &mut cube.clone()));
        assert_eq!(
            hierarchy, 6,
            "labels, three levels, one attribute, the adjacency"
        );

        remove_o4(&endpoint);
        let deltas = deltas_after(&endpoint, epoch);
        let (count, tombstoned) = selects(&endpoint, || cube.apply_delta(&deltas, &endpoint));
        assert_eq!(count, 0, "a tombstone-only replay reads nothing");

        let epoch = endpoint.epoch();
        endpoint
            .insert_triples(&observation_triples("o6", "c1", "m2", 40, 2))
            .unwrap();
        let deltas = deltas_after(&endpoint, epoch);
        let tombstoned = tombstoned.unwrap();
        let (count, appended) = selects(&endpoint, || tombstoned.apply_delta(&deltas, &endpoint));
        assert_eq!(count, 1, "an append replay reads the stars alone");
        let appended = appended.unwrap();
        assert!(appended.levels[&iri("lv/city")]
            .dictionary()
            .shares_storage_with(cube.levels[&iri("lv/city")].dictionary()));

        let epoch = endpoint.epoch();
        let mut batch = observation_triples("o7", "c3", "m2", 1, 1);
        batch.push(qb4olap::rollup_triple(&member("c3"), &member("K2")));
        endpoint.insert_triples(&batch).unwrap();
        let deltas = deltas_after(&endpoint, epoch);
        let (count, dirty) = selects(&endpoint, || appended.apply_delta(&deltas, &endpoint));
        assert_eq!(
            count,
            1 + hierarchy,
            "a dirty replay reads the stars, then the hierarchy"
        );
        assert_matches_rebuild(&endpoint, &dirty.unwrap());
    }

    /// A pure append's refresh must share (not copy) the heavy components
    /// with the cube it refreshed — the copy-on-write guarantee.
    #[test]
    fn pure_append_shares_dictionaries_and_maps() {
        let (endpoint, cube, epoch) = tracked();
        endpoint
            .insert_triples(&observation_triples("o6", "c1", "m1", 8, 8))
            .unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        // Dictionaries saw no new member: fully shared.
        for (before, after) in cube.dimensions.iter().zip(&refreshed.dimensions) {
            assert!(
                before.dictionary.shares_storage_with(&after.dictionary),
                "append over existing members must not copy the column dictionary"
            );
        }
        for (level, index) in cube.levels.iter() {
            assert!(
                index
                    .dictionary()
                    .shares_storage_with(refreshed.levels[level].dictionary()),
                "level <{}> dictionary copied on a pure append",
                level.as_str()
            );
        }
    }

    /// A replay ends with the observation index's merge check; a freshly
    /// built cube's index is one base with an empty overlay, and a one-row
    /// append replay shares that base and every sealed zone-map segment
    /// with it.
    #[test]
    fn a_build_leaves_one_base_that_an_append_replay_shares() {
        let (endpoint, cube, epoch) = tracked();
        let mut triples = Vec::new();
        for i in 0..crate::cowvec::SEGMENT_LEN {
            triples.extend(observation_triples(&format!("a{i:06}"), "c1", "m1", 1, 1));
        }
        endpoint.insert_triples(&triples).unwrap();
        let grown = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert!(
            grown.observations.overlay.is_empty(),
            "the replay's merge check folds an overlay past 1/8 of the base"
        );
        // A build of the grown store, so a sealed segment exists.
        let built = MaterializedCube::from_endpoint(&endpoint, cube.schema()).unwrap();
        assert!(
            built.observations.overlay.is_empty(),
            "a build leaves one base"
        );
        assert_eq!(built.observations.len(), built.row_count());

        let epoch = endpoint.epoch();
        endpoint
            .insert_triples(&observation_triples("o6", "c1", "m2", 40, 2))
            .unwrap();
        let appended = built
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(appended.row_count(), built.row_count() + 1);
        assert!(
            Arc::ptr_eq(&appended.observations.base, &built.observations.base),
            "a one-row append must not rebuild the observation index"
        );
        assert_eq!(appended.observations.overlay.len(), 1);
        for (before, after) in built
            .zones
            .dimensions
            .iter()
            .zip(&appended.zones.dimensions)
        {
            assert_eq!((before.sealed.len(), after.sealed.len()), (1, 1));
            assert!(
                before
                    .sealed
                    .iter()
                    .zip(&after.sealed)
                    .all(|(a, b)| Arc::ptr_eq(a, b)),
                "a one-row append must not copy the sealed zone sets"
            );
        }
        assert_matches_rebuild(&endpoint, &appended);
    }

    /// The module doc's decision table has exactly four rows, and one
    /// representative triple per row gets that row's decision from
    /// [`DeltaContext::classify`]: rebuild is `Err`, apply is `Fact` or
    /// `Hierarchy`, skip is `Other`.
    #[test]
    fn the_module_doc_restates_the_decision_table() {
        let decisions: Vec<&str> = include_str!("delta.rs")
            .lines()
            .take_while(|line| line.starts_with("//!"))
            .filter_map(|line| line.strip_prefix("//! | "))
            .filter(|row| !row.starts_with("Triple |"))
            .map(|row| row.split(" | ").nth(1).unwrap().trim_matches('*'))
            .collect();
        assert_eq!(decisions, ["rebuild", "apply", "apply", "skip"]);

        let (_, cube, _) = tracked();
        let context = DeltaContext::for_cube(&cube);
        let o1 = Term::iri("http://example.org/obs/o1");
        // One representative per row, in the table's order, with the kind
        // an applied triple must get.
        let representatives = [
            (structure_triple(), ""),
            (
                Triple::new(o1, iri("measure/value"), Literal::integer(11)),
                " fact",
            ),
            (
                Triple::new(member("c2"), skos::broader(), member("K1")),
                " hierarchy",
            ),
            (
                Triple::new(
                    Term::iri("http://example.org/elsewhere"),
                    Iri::new("http://example.org/unrelated"),
                    Literal::string("noise"),
                ),
                "",
            ),
        ];
        for (decision, (triple, kind)) in decisions.iter().zip(representatives) {
            let got = match context.classify(&triple, "inserted") {
                Err(CubeStoreError::DeltaUnsupported(_)) => "rebuild",
                Err(error) => panic!("{triple:?}: {error}"),
                Ok(TripleKind::Fact) => "apply fact",
                Ok(TripleKind::Hierarchy) => "apply hierarchy",
                Ok(TripleKind::Other) => "skip",
            };
            assert_eq!(got, format!("{decision}{kind}"), "{triple:?}");
        }
    }

    /// Removes the fixture's o4 observation (the only row bound to city
    /// `c3`) through the endpoint so the next delta tombstones it.
    fn remove_o4(endpoint: &LocalEndpoint) {
        let o4 = Term::iri("http://example.org/obs/o4");
        let removed = endpoint.store().remove_all(&[
            Triple::new(o4.clone(), rdfv::type_(), Term::Iri(qb::observation())),
            Triple::new(
                o4.clone(),
                qb::data_set(),
                Term::iri("http://example.org/ds"),
            ),
            Triple::new(o4.clone(), iri("lv/city"), member("c3")),
            Triple::new(o4.clone(), iri("lv/month"), member("m1")),
            Triple::new(o4.clone(), iri("measure/value"), Literal::integer(100)),
            Triple::new(o4.clone(), iri("measure/score"), Literal::integer(9)),
        ]);
        assert_eq!(removed, 6);
    }

    /// A pure append extends only the tail segment's zone entries; the
    /// code sets of already-sealed segments are not touched.
    #[test]
    fn append_deltas_extend_only_the_tail_zone_entries() {
        let (endpoint, cube, epoch) = tracked();
        // Enough appended rows to seal segment 0 (the fixture holds 5).
        // Names are zero-padded so node order matches append order.
        let mut triples = Vec::new();
        for i in 0..crate::cowvec::SEGMENT_LEN {
            triples.extend(observation_triples(&format!("a{i:06}"), "c1", "m1", 1, 1));
        }
        endpoint.insert_triples(&triples).unwrap();
        let sealed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        sealed.verify_zone_invariants().unwrap();
        assert_eq!(sealed.zone_maps().segment_count(), 2);
        let frozen: Vec<Vec<_>> = (0..sealed.dimensions.len())
            .map(|d| sealed.zone_maps().dimension_codes(d, 0).unwrap().collect())
            .collect();

        let epoch = endpoint.epoch();
        endpoint
            .insert_triples(&observation_triples("b000000", "c3", "m2", 2, 2))
            .unwrap();
        let extended = sealed
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        extended.verify_zone_invariants().unwrap();
        for (d, codes) in frozen.iter().enumerate() {
            let after: Vec<_> = extended
                .zone_maps()
                .dimension_codes(d, 0)
                .unwrap()
                .collect();
            assert_eq!(&after, codes, "sealed zone sets must not change on append");
        }
        // The tail previously held only `c1` rows; the appended `c3` row
        // widens it to two codes.
        let city = extended
            .dimensions
            .iter()
            .position(|d| d.dimension == iri("dim/city"))
            .unwrap();
        let tail: Vec<_> = extended
            .zone_maps()
            .dimension_codes(city, 1)
            .unwrap()
            .collect();
        assert_eq!(tail.len(), 2, "tail zone gains the new row's member code");
        assert_matches_rebuild(&endpoint, &extended);
    }

    /// A tombstone-only delta leaves every zone entry exactly as it was:
    /// the dead row's codes stay recorded (zones never loosen), and the
    /// invariant checker still accepts the cube.
    #[test]
    fn tombstone_only_deltas_never_loosen_zone_entries() {
        let (endpoint, cube, epoch) = tracked();
        let before: Vec<Vec<_>> = (0..cube.dimensions.len())
            .map(|d| cube.zone_maps().dimension_codes(d, 0).unwrap().collect())
            .collect();
        remove_o4(&endpoint);
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert_eq!(refreshed.tombstoned_rows(), 1);
        refreshed.verify_zone_invariants().unwrap();
        assert_eq!(
            refreshed.zone_maps().rows(),
            5,
            "zones still cover the dead row"
        );
        for (d, codes) in before.iter().enumerate() {
            let after: Vec<_> = refreshed
                .zone_maps()
                .dimension_codes(d, 0)
                .unwrap()
                .collect();
            assert_eq!(&after, codes, "tombstone-only deltas keep zone sets intact");
        }
    }

    /// Compaction re-materializes from the endpoint, so the rebuilt cube's
    /// zone maps cover only live rows and drop codes that existed solely in
    /// tombstoned rows.
    #[test]
    fn compaction_rebuild_regenerates_zone_maps_from_live_rows() {
        let (endpoint, cube, epoch) = tracked();
        let city = cube
            .dimensions
            .iter()
            .position(|d| d.dimension == iri("dim/city"))
            .unwrap();
        remove_o4(&endpoint);
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        refreshed.verify_zone_invariants().unwrap();
        // The delta-applied cube still lists the dead row's city code.
        assert_eq!(
            refreshed
                .zone_maps()
                .dimension_codes(city, 0)
                .unwrap()
                .count(),
            3
        );
        let rebuilt = MaterializedCube::from_endpoint(&endpoint, cube.schema()).unwrap();
        assert_eq!(rebuilt.row_count(), 4);
        rebuilt.verify_zone_invariants().unwrap();
        assert_eq!(rebuilt.zone_maps().rows(), 4);
        assert_eq!(
            rebuilt
                .zone_maps()
                .dimension_codes(city, 0)
                .unwrap()
                .count(),
            2,
            "the rebuilt zones no longer mention the compacted-away member"
        );
    }
}

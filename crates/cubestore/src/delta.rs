//! Incremental maintenance: applies recorded store deltas
//! ([`rdf::StoreDelta`]) to a [`MaterializedCube`], reading back from the
//! endpoint only the stars of the observations the deltas touch.
//!
//! The delta path handles every *pure-data* mutation — appending new
//! observations (any measure type: float aggregation is order-independent
//! via [`sparql::NumericSum`], so append order cannot diverge from a
//! rebuild's row order), introducing brand-new members (with their
//! roll-up links, labels and attribute values), and any insert or removal
//! of an observation's fact triples — by extending the copy-on-write
//! columns and roll-up maps and tombstoning removed rows. Observation
//! changes follow one rule. A fact triple (`rdf:type qb:Observation`, a
//! `qb:dataSet` link to this cube's dataset, a dimension or a measure
//! value), inserted or removed, whose subject the cube holds — a live row
//! or a recorded drop — *forgets* that node: the row is tombstoned or the
//! drop un-recorded, and the node's [`crate::BuildStats`] reversed. The
//! node then joins the replay's read set, as does a node newly linked to
//! the dataset; a node whose link the delta removed stays out of it. After
//! the last delta the read set's stars are read in one pivot SELECT
//! (`qb::load_observations` restricted by a `VALUES` block) and classified
//! and encoded by the build's fact encoder, so every star ends up exactly
//! as a fresh build leaves it: complete → appended, otherwise → recorded
//! as dropped, not returned (unlinked) → invisible. Mutations the path
//! cannot replay with bit-identical results — structure, hierarchy and
//! attribute changes — refuse with [`CubeStoreError::DeltaUnsupported`],
//! whose typed [`DeltaRefusal`] becomes the rebuild reason in the
//! catalog's maintenance report, so a wrong classification can cost a
//! rebuild but never correctness.
//!
//! # Delta-vs-rebuild decision table
//!
//! What is appliable, what is refused, and why. The refusal kinds are the
//! [`RefusalKind`] variants; `tests::refusal_kinds_match_the_decision_table`
//! keeps this table and the classifier in sync. (EXPERIMENTS.md §E13
//! measures the cost difference between the two columns.)
//!
//! | Mutation | Decision | Refusal kind / rationale |
//! |---|---|---|
//! | Insert a new observation (complete or not) over known members | **apply**: read its star; a complete one extends each column's tail, any other is recorded as dropped | — |
//! | Insert a complete new observation referencing a brand-new member | **apply**: extend level index, adjacency and roll-up maps, then append | — |
//! | Insert the rest of an observation whose fragment was stored unlinked (before the build, or by an earlier delta of the replay) | **apply**: the star read sees the whole star, fragment included | — |
//! | Insert or remove a fact triple (type, this dataset's link, a dimension or measure value) of an observation the cube holds, live or dropped, in one delta or spread over several | **apply**: forget the node (tombstone the row or un-record the drop), read its star after the last delta, classify it like the build | — |
//! | Remove the `qb:dataSet` link of an observation the cube holds | **apply**: forget it; a fresh build cannot see it, so its star is not read | — |
//! | A dimension or measure with several values | **apply**: the star read keeps the least `Term`, whatever order the endpoint reports them in, as a fresh build does | — |
//! | Insert `qb4o:memberOf` for a fresh term | **apply**: add to the level index | — |
//! | Insert `skos:broader` for a fresh (not yet materialized) child | **apply**: extend the adjacency | — |
//! | Insert an attribute/label value filling an empty slot | **apply**: set the slot | — |
//! | Append to a populated **float** measure column | **apply**: extend the tail — SUM/AVG go through the order-independent compensated accumulator, so append order cannot move any aggregate off a rebuild's result by even an ulp | — |
//! | Insert/remove a schema or hierarchy-structure triple (`qb:*` components, `qb4o:*` structure) | refuse | [`RefusalKind::SchemaStructure`] — every roll-up map could change |
//! | Add a `skos:broader` link to an existing member | refuse | [`RefusalKind::RollupLinkAdded`] — frozen roll-up entries could change |
//! | Remove a `skos:broader` link of a known member | refuse | [`RefusalKind::RollupLinkRemoved`] — ragged-hierarchy drops must be recomputed |
//! | Remove a `qb4o:memberOf` declaration | refuse | [`RefusalKind::MemberRemoved`] |
//! | Declare a member for a term already in the fact columns / reachable in the hierarchy | refuse | [`RefusalKind::MemberConflict`] — its frozen roll-up entries were computed without the declaration |
//! | Attribute value conflicting with the materialized one | refuse | [`RefusalKind::AttributeConflict`] (first-value-wins needs build order) |
//! | Remove an attribute value / change or remove the dataset label | refuse | [`RefusalKind::AttributeRemoved`] / [`RefusalKind::DatasetLabelChanged`] |
//! | Attribute value for a member the cube never saw (a node of the read set included) | refuse | [`RefusalKind::UnknownMemberAttribute`] — it may matter to a member of a later delta |
//! | Anything in a named graph, a `qb:dataSet` link to another dataset, or triples invisible to the materialization | **skip** (no-op) | the cube materializes this dataset's default-graph stars only |
//!
//! Batching does not matter. A removal spread over several
//! `Store::remove` calls arrives as several deltas; whether one replay
//! covers them all or a serve lands between them, each replay forgets the
//! node and re-reads what is left of it at its epoch.

use std::collections::BTreeSet;
use std::sync::Arc;

use rdf::vocab::{qb, qb4o, rdf as rdfv, rdfs, skos};
use rdf::{Iri, StoreDelta, Term, Triple};
use sparql::Endpoint;

use crate::build::{extend_rollup_maps, FactEncoder, MaterializedCube};
use crate::error::{CubeStoreError, DeltaRefusal, RefusalKind};

/// The nodes whose stars a replay reads back after its last delta: those a
/// delta newly linked to the dataset and those it forgot without unlinking.
type ReadSet = BTreeSet<Term>;

impl MaterializedCube {
    /// Applies a sequence of store deltas, returning the refreshed cube.
    ///
    /// On success the result is query-equivalent to a fresh
    /// [`MaterializedCube::from_endpoint`] over the mutated store. On
    /// [`CubeStoreError::DeltaUnsupported`] the cube is untouched and the
    /// caller should rebuild (the [`DeltaRefusal`] is the reason). Deltas
    /// of named graphs are skipped: the cube materializes the default
    /// graph, which is all the local SPARQL engine queries.
    ///
    /// One read per replay: the deltas are classified in order, and after
    /// the last one the stars of the nodes they newly linked to the
    /// dataset or forgot are read from `endpoint` in one pivot SELECT and
    /// pushed through the build's fact encoder. The read sees the store as
    /// it is when it runs, so the result stands for the last delta's epoch
    /// only if the store has not moved since; the catalog publishes it
    /// only then. A replay that touches no observation reads nothing.
    ///
    /// The returned cube shares every untouched component with `self`
    /// (copy-on-write): a pure observation append copies only each
    /// column's mutable tail and the small observation-index overlay, a
    /// whole-observation removal additionally copies the tombstone words —
    /// never the sealed column segments, dictionaries or roll-up maps.
    pub fn apply_delta(
        &self,
        deltas: &[StoreDelta],
        endpoint: &dyn Endpoint,
    ) -> Result<MaterializedCube, CubeStoreError> {
        let context = DeltaContext::for_cube(self);
        let mut cube = self.clone();
        let mut reads = ReadSet::new();
        for delta in deltas {
            if delta.graph.is_some() {
                continue;
            }
            apply_one(&mut cube, &context, &mut reads, delta)?;
        }
        read_stars(&mut cube, endpoint, &reads)?;
        extend_rollup_maps(&mut cube);
        // Extend the zone maps over whatever rows the read appended:
        // O(appended rows), touching only each map's tail entries. A
        // tombstone-only replay appends nothing, so the maps are untouched —
        // zone sets are never loosened by removals (a dead row's codes
        // staying recorded costs precision, not soundness).
        cube.zones.extend(&cube.dimensions, cube.row_count);
        Ok(cube)
    }
}

/// Predicate classification tables, computed once per `apply_delta` call.
struct DeltaContext {
    /// Predicates that define schema/hierarchy structure: any effective
    /// insert or removal using them forces a rebuild.
    schema_predicates: BTreeSet<Iri>,
    /// Per-dimension bottom-level observation properties, in column order.
    bottom_order: Vec<Iri>,
    /// Measure properties, in column order.
    measure_order: Vec<Iri>,
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
        let tracked_attributes = cube
            .levels
            .values()
            .flat_map(|index| index.attribute_iris().cloned())
            .collect();
        DeltaContext {
            schema_predicates,
            bottom_order: cube
                .dimensions
                .iter()
                .map(|c| c.bottom_level.clone())
                .collect(),
            measure_order: cube.measures.iter().map(|m| m.property.clone()).collect(),
            tracked_attributes,
            dataset: Term::Iri(cube.schema.dataset.clone()),
        }
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

fn unsupported(kind: RefusalKind, detail: impl Into<String>) -> CubeStoreError {
    CubeStoreError::DeltaUnsupported(DeltaRefusal::new(kind, detail))
}

/// True if the term is dictionary-encoded in some fact column: its roll-up
/// map entries are already frozen, so hierarchy changes around it cannot be
/// replayed incrementally.
fn term_in_columns(cube: &MaterializedCube, term: &Term) -> bool {
    cube.dimensions
        .iter()
        .any(|column| column.dictionary.id(term).is_some())
}

/// True if the term appears as a parent in the broader adjacency: existing
/// members' roll-up walks can pass through it.
fn is_adjacency_parent(cube: &MaterializedCube, term: &Term) -> bool {
    cube.broader.values().any(|parents| parents.contains(term))
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

fn apply_one(
    cube: &mut MaterializedCube,
    context: &DeltaContext,
    reads: &mut ReadSet,
    delta: &StoreDelta,
) -> Result<(), CubeStoreError> {
    for triple in &delta.removed {
        if !context.is_fact_triple(triple) {
            check_removal(cube, context, triple)?;
        } else if triple.predicate == qb::data_set() {
            // Unlinked from the dataset, it is invisible: nothing to read.
            forget(cube, &triple.subject);
            reads.remove(&triple.subject);
        } else if forget(cube, &triple.subject) {
            reads.insert(triple.subject.clone());
        }
    }
    if delta.inserted.is_empty() {
        return Ok(());
    }

    // Classify every inserted triple against the state so far.
    let mut new_members: Vec<(Term, Iri)> = Vec::new();
    let mut new_broader: Vec<(Term, Term)> = Vec::new();
    let mut attribute_inserts: Vec<&Triple> = Vec::new();
    for triple in &delta.inserted {
        let predicate = &triple.predicate;
        if context.schema_predicates.contains(predicate) {
            return Err(unsupported(
                RefusalKind::SchemaStructure,
                format!("schema/hierarchy triple inserted (<{}>)", predicate.as_str()),
            ));
        }
        if *predicate == skos::broader() {
            if cube.broader.contains_key(&triple.subject)
                || is_adjacency_parent(cube, &triple.subject)
                || term_in_columns(cube, &triple.subject)
            {
                return Err(unsupported(
                    RefusalKind::RollupLinkAdded,
                    format!("roll-up link added to existing member {}", triple.subject),
                ));
            }
            new_broader.push((triple.subject.clone(), triple.object.clone()));
            continue;
        }
        if *predicate == qb4o::member_of() {
            let Term::Iri(level) = &triple.object else {
                continue;
            };
            let Some(index) = cube.levels.get(level) else {
                continue; // a level of some other cube
            };
            if index.dictionary.id(&triple.subject).is_some() {
                continue;
            }
            if term_in_columns(cube, &triple.subject) {
                return Err(unsupported(
                    RefusalKind::MemberConflict,
                    format!(
                        "member {} declared for a term already present in the fact columns",
                        triple.subject
                    ),
                ));
            }
            if is_adjacency_parent(cube, &triple.subject) {
                return Err(unsupported(
                    RefusalKind::MemberConflict,
                    format!(
                        "member {} declared for a term already reachable in the hierarchy",
                        triple.subject
                    ),
                ));
            }
            new_members.push((triple.subject.clone(), level.clone()));
            continue;
        }
        if context.is_fact_triple(triple) {
            // A node the cube holds is forgotten and re-read; a node newly
            // linked to the dataset is read. Any other node's star is read
            // once a delta links it.
            if forget(cube, &triple.subject) || *predicate == qb::data_set() {
                reads.insert(triple.subject.clone());
            }
            continue;
        }
        if context.tracked_attributes.contains(predicate) {
            attribute_inserts.push(triple);
            continue;
        }
        // Anything else (owl:sameAs links, other types, notations, other
        // datasets' triples, ...) is invisible to the materialization.
    }

    // Apply in dependency order: members, hierarchy links, then attribute
    // values. Observations are appended by the star read, and the roll-up
    // maps extended, after the last delta.
    for (member, level) in &new_members {
        let index = cube.levels.get_mut(level).expect("level classified above");
        index.add_member(member);
    }
    for (child, parent) in new_broader {
        // Keep each parent list sorted, exactly as the `ORDER BY ?c ?p`
        // read at build time leaves it.
        let parents = Arc::make_mut(&mut cube.broader).entry(child).or_default();
        if let Err(position) = parents.binary_search(&parent) {
            parents.insert(position, parent);
            cube.stats.broader_links += 1;
        }
    }
    for triple in attribute_inserts {
        apply_attribute_insert(cube, context, triple)?;
    }
    Ok(())
}

fn check_removal(
    cube: &MaterializedCube,
    context: &DeltaContext,
    triple: &Triple,
) -> Result<(), CubeStoreError> {
    let predicate = &triple.predicate;
    if context.schema_predicates.contains(predicate) {
        return Err(unsupported(
            RefusalKind::SchemaStructure,
            format!("schema/hierarchy triple removed (<{}>)", predicate.as_str()),
        ));
    }
    if *predicate == skos::broader() {
        if cube
            .broader
            .get(&triple.subject)
            .is_some_and(|parents| parents.contains(&triple.object))
        {
            return Err(unsupported(
                RefusalKind::RollupLinkRemoved,
                format!("roll-up link removed from member {}", triple.subject),
            ));
        }
        return Ok(());
    }
    if *predicate == qb4o::member_of() {
        if let Term::Iri(level) = &triple.object {
            if cube
                .levels
                .get(level)
                .is_some_and(|index| index.dictionary.id(&triple.subject).is_some())
            {
                return Err(unsupported(
                    RefusalKind::MemberRemoved,
                    format!(
                        "member {} removed from level <{}>",
                        triple.subject,
                        level.as_str()
                    ),
                ));
            }
        }
        return Ok(());
    }
    if cube.observations.contains(&triple.subject) {
        // Fact triples never reach here; what does on an observation node
        // are irrelevant decorations (labels etc.).
        return Ok(());
    }
    if context.tracked_attributes.contains(predicate) {
        if *predicate == rdfs::label() && triple.subject == context.dataset {
            let removed = triple.object.as_literal().map(|l| l.lexical());
            if cube.dataset_label.as_deref() == removed {
                return Err(unsupported(
                    RefusalKind::DatasetLabelChanged,
                    "dataset label removed",
                ));
            }
            return Ok(());
        }
        for index in cube.levels.values() {
            if let Some(id) = index.dictionary.id(&triple.subject) {
                if index.attribute_value(predicate, id) == Some(&triple.object) {
                    return Err(unsupported(
                        RefusalKind::AttributeRemoved,
                        format!("attribute value removed from member {}", triple.subject),
                    ));
                }
            }
        }
        return Ok(());
    }
    Ok(())
}

/// Reads the stars of the replay's read set in one pivot SELECT and
/// classifies each exactly as the build loop does: a fact row is appended,
/// any other star recorded as dropped. A node the read does not return
/// (unlinked) is invisible.
fn read_stars(
    cube: &mut MaterializedCube,
    endpoint: &dyn Endpoint,
    reads: &ReadSet,
) -> Result<(), CubeStoreError> {
    if reads.is_empty() {
        return Ok(());
    }
    let nodes: Vec<Term> = reads.iter().cloned().collect();
    let structure = cube.structure.clone();
    let table = ::qb::load_observations(endpoint, &cube.schema.dataset, &structure, Some(&nodes))?;
    let mut encoder = FactEncoder::new(&structure, &cube.dimensions, &cube.measures, &table);
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

fn apply_attribute_insert(
    cube: &mut MaterializedCube,
    context: &DeltaContext,
    triple: &Triple,
) -> Result<(), CubeStoreError> {
    if triple.subject == context.dataset && triple.predicate == rdfs::label() {
        let label = triple
            .object
            .as_literal()
            .map(|l| l.lexical().to_string())
            .ok_or_else(|| {
                unsupported(RefusalKind::DatasetLabelChanged, "non-literal dataset label")
            })?;
        match &cube.dataset_label {
            None => cube.dataset_label = Some(label),
            Some(existing) if *existing == label => {}
            Some(_) => {
                return Err(unsupported(
                    RefusalKind::DatasetLabelChanged,
                    "dataset label changed",
                ))
            }
        }
        return Ok(());
    }
    if cube.observations.contains(&triple.subject) {
        // Labels or attribute-named properties on observation nodes never
        // reach any query; ignore them.
        return Ok(());
    }
    let mut known_member = false;
    for index in cube.levels.values_mut() {
        let Some(id) = index.dictionary.id(&triple.subject) else {
            continue;
        };
        known_member = true;
        match index.attribute_value(&triple.predicate, id) {
            // The attribute is not tracked on this level, or the member has
            // no value yet: set_member_attribute handles both.
            None => {
                index.set_member_attribute(&triple.predicate, id, triple.object.clone());
            }
            Some(existing) if *existing == triple.object => {}
            Some(_) => {
                return Err(unsupported(
                    RefusalKind::AttributeConflict,
                    format!(
                        "member {} gained a second value for attribute <{}>",
                        triple.subject,
                        triple.predicate.as_str()
                    ),
                ));
            }
        }
    }
    if !known_member {
        // The value may matter to a member added in a *later* delta or to a
        // future rebuild; refusing keeps the cube bit-identical with one.
        return Err(unsupported(
            RefusalKind::UnknownMemberAttribute,
            format!("attribute value for unknown member {}", triple.subject),
        ));
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
        fixture, iri, member, observation_triples, rollup_to_country, run, run_with,
    };
    use crate::{CubeStoreError, MaterializedCube, RefusalKind};

    use super::*;

    /// Builds the fixture cube with change tracking on, so mutations made
    /// through the endpoint are recorded as replayable deltas.
    fn tracked() -> (LocalEndpoint, MaterializedCube, u64) {
        tracked_with(&[])
    }

    fn deltas_after(endpoint: &LocalEndpoint, epoch: u64) -> Vec<StoreDelta> {
        endpoint.deltas_since(epoch).expect("change log enabled")
    }

    /// The refusal of an error that must be a `DeltaUnsupported`.
    fn refusal(error: CubeStoreError) -> DeltaRefusal {
        match error {
            CubeStoreError::DeltaUnsupported(refusal) => refusal,
            other => panic!("expected a delta refusal, got {other}"),
        }
    }

    /// After a successful delta application, every query the fixture can
    /// answer, the build counters and the dropped set must agree with a
    /// from-scratch materialization.
    fn assert_matches_rebuild(endpoint: &LocalEndpoint, cube: &MaterializedCube) {
        let rebuilt = MaterializedCube::from_endpoint(endpoint, cube.schema()).unwrap();
        for query in [CubeQuery::default(), rollup_to_country()] {
            assert_eq!(
                run(cube, &query).unwrap(),
                run(&rebuilt, &query).unwrap(),
                "delta-applied cube diverges from a rebuild"
            );
        }
        assert_eq!(cube.stats(), rebuilt.stats(), "build counters diverge from a rebuild");
        assert_eq!(
            cube.dropped_observations, rebuilt.dropped_observations,
            "dropped set diverges from a rebuild"
        );
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
        let id = city_index.dictionary.id(&member("c4")).expect("declared");
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
            Triple::new(o3.clone(), qb::data_set(), Term::iri("http://example.org/ds")),
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
            Triple::new(o3.clone(), qb::data_set(), Term::iri("http://example.org/ds")),
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
        assert!(endpoint
            .store()
            .remove(&Triple::new(o1.clone(), iri("measure/value"), Literal::integer(10))));
        let refreshed = cube.apply_delta(&deltas_after(&endpoint, epoch), &endpoint).unwrap();
        assert_eq!(refreshed.row_count(), 5, "row stays physically present");
        assert_eq!(refreshed.live_row_count(), 4);
        assert_eq!(refreshed.stats().rows, 4);
        assert_eq!(refreshed.stats().observations_seen, 5, "still dataset-linked");
        assert_eq!(refreshed.stats().rows_dropped, 1);
        assert!(!refreshed.is_observation(&o1));
        assert_matches_rebuild(&endpoint, &refreshed);

        // Restoring a measure forgets the drop and re-reads the star: o1
        // is a fact row again.
        let epoch = endpoint.epoch();
        endpoint
            .insert_triples(&[Triple::new(o1.clone(), iri("measure/value"), Literal::integer(11))])
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
        let refreshed = cube.apply_delta(&deltas_after(&endpoint, epoch), &endpoint).unwrap();
        assert_eq!(refreshed.row_count(), 6, "old row dead, survivor re-appended");
        assert_eq!(refreshed.live_row_count(), 5);
        assert_eq!(refreshed.tombstoned_rows(), 1);
        assert_eq!(refreshed.stats().rows, 5);
        assert_eq!(refreshed.stats().observations_seen, 5);
        assert_eq!(refreshed.stats().rows_dropped, 0);
        assert!(refreshed.is_observation(&o1));
        let column = refreshed.dimension_column(&iri("dim/city")).unwrap();
        assert_eq!(column.code(5), NO_MEMBER, "the stripped dimension is unbound");
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
        assert!(endpoint
            .store()
            .remove(&Triple::new(o1.clone(), iri("measure/value"), Literal::integer(10))));
        endpoint
            .insert_triples(&[Triple::new(o1.clone(), iri("measure/value"), Literal::integer(11))])
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
    fn an_attribute_on_a_new_observation_refuses() {
        // The star read runs after the last delta: while the label is
        // classified, o6 is no member the cube knows.
        let (endpoint, cube, epoch) = tracked();
        let mut o6 = observation_triples("o6", "c1", "m2", 40, 2);
        let node = o6[0].subject.clone();
        o6.push(Triple::new(node, rdfs::label(), Literal::string("six")));
        endpoint.insert_triples(&o6).unwrap();
        let error = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap_err();
        assert_eq!(refusal(error).kind, RefusalKind::UnknownMemberAttribute);
    }

    #[test]
    fn an_attribute_on_an_unlinked_tombstoned_node_refuses() {
        // o3 loses its dataset link (invisible, nothing read); a label on
        // it is a value for a node the cube does not know.
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
        let error = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap_err();
        assert_eq!(refusal(error).kind, RefusalKind::UnknownMemberAttribute);
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
            assert!(endpoint
                .store()
                .remove(&Triple::new(o1.clone(), iri("lv/city"), member(removed))));
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
    fn relevant_removals_force_a_rebuild() {
        let (endpoint, cube, epoch) = tracked();
        // Cutting a roll-up link (the ragged-hierarchy mutation) cannot be
        // replayed in place.
        assert!(endpoint
            .store()
            .remove(&qb4olap::rollup_triple(&member("c1"), &member("K1"))));
        let error = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap_err();
        let refusal = refusal(error);
        assert_eq!(refusal.kind, RefusalKind::RollupLinkRemoved);
        assert!(refusal.detail.contains("roll-up link removed"), "{refusal}");
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
        assert_eq!(refreshed.row_count(), 6, "old row dead, re-read row appended");
        assert_eq!(refreshed.live_row_count(), 5);
        assert!(refreshed.is_observation(&o1));
        assert_matches_rebuild(&endpoint, &refreshed);
    }

    #[test]
    fn schema_and_hierarchy_structure_changes_force_a_rebuild() {
        let (endpoint, cube, epoch) = tracked();
        endpoint
            .insert_triples(&[Triple::new(
                Term::iri("http://example.org/dsdQB4O"),
                rdf::vocab::qb4o::has_level(),
                Term::iri("http://example.org/lv/region"),
            )])
            .unwrap();
        let error = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap_err();
        assert_eq!(refusal(error).kind, RefusalKind::SchemaStructure);
    }

    #[test]
    fn an_incomplete_insert_applies_and_conflicting_inserts_force_a_rebuild() {
        // An observation fragment missing its measures is recorded as
        // dropped, as a fresh build records it.
        let (endpoint, cube, epoch) = tracked();
        let node = Term::iri("http://example.org/obs/half");
        endpoint
            .insert_triples(&[
                Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())),
                Triple::new(node.clone(), qb::data_set(), Term::iri("http://example.org/ds")),
            ])
            .unwrap();
        let refreshed = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap();
        assert!(refreshed.dropped_observations.contains(&node));
        assert_matches_rebuild(&endpoint, &refreshed);

        // A broader link added to an already-materialized member.
        let (endpoint, cube, epoch) = tracked();
        endpoint
            .insert_triples(&[qb4olap::rollup_triple(&member("c3"), &member("K2"))])
            .unwrap();
        let error = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap_err();
        assert_eq!(refusal(error).kind, RefusalKind::RollupLinkAdded);

        // An attribute value for a member the cube has never seen.
        let (endpoint, cube, epoch) = tracked();
        endpoint
            .insert_triples(&[Triple::new(
                Term::iri("http://example.org/member/ghost"),
                iri("attr/countryName"),
                Literal::string("Ghost"),
            )])
            .unwrap();
        let error = cube
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap_err();
        assert_eq!(refusal(error).kind, RefusalKind::UnknownMemberAttribute);
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
        let id = country.dictionary.id(&member("K2")).unwrap();
        assert_eq!(
            country.attribute_value(&iri("attr/countryName"), id),
            Some(&Term::Literal(Literal::string("Beta")))
        );
        // A *second*, different value conflicts.
        let epoch = endpoint.epoch();
        endpoint
            .insert_triples(&[qb4olap::attribute_triple(
                &member("K2"),
                &iri("attr/countryName"),
                &Term::Literal(Literal::string("Gamma")),
            )])
            .unwrap();
        let error = refreshed
            .apply_delta(&deltas_after(&endpoint, epoch), &endpoint)
            .unwrap_err();
        assert_eq!(refusal(error).kind, RefusalKind::AttributeConflict);
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
        for (serial, measure_value) in
            [2.5, 0.1, 0.2, 1e15, 0.3, -1e15, 0.30000000000000004, -0.7]
                .into_iter()
                .enumerate()
        {
            let node = Term::iri(format!("http://example.org/obs/f{}", serial + 2));
            endpoint
                .insert_triples(&[
                    Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())),
                    Triple::new(node.clone(), qb::data_set(), Term::iri("http://example.org/ds")),
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
                run_with(&refreshed, &CubeQuery::default(), prune).unwrap().0,
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
                Triple::new(node.clone(), qb::data_set(), Term::iri("http://example.org/otherDs")),
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
        let link = Triple::new(node.clone(), qb::data_set(), Term::iri("http://example.org/ds"));
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
            .insert_triples(&[Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation()))])
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
        assert_eq!(refreshed.broader_parents(&member("c9")), &[member("K1"), member("K2")]);
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

    /// Every refusal the classifier can produce is one of the enumerated
    /// kinds, and every kind documented in the module-level decision table
    /// exists — this is the "tests and docs can enumerate them" guarantee
    /// the typed refusals were introduced for.
    #[test]
    fn refusal_kinds_match_the_decision_table() {
        let table = include_str!("delta.rs")
            .split("# Delta-vs-rebuild decision table")
            .nth(1)
            .expect("module docs contain the decision table")
            .split("use std::collections")
            .next()
            .expect("table precedes the code");
        for kind in RefusalKind::ALL {
            assert!(
                table.contains(&format!("{kind:?}")),
                "RefusalKind::{kind:?} is missing from the decision table in the module docs"
            );
        }
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
                    .dictionary
                    .shares_storage_with(&refreshed.levels[level].dictionary),
                "level <{}> dictionary copied on a pure append",
                level.as_str()
            );
        }
    }

    /// Removes the fixture's o4 observation (the only row bound to city
    /// `c3`) through the endpoint so the next delta tombstones it.
    fn remove_o4(endpoint: &LocalEndpoint) {
        let o4 = Term::iri("http://example.org/obs/o4");
        let removed = endpoint.store().remove_all(&[
            Triple::new(o4.clone(), rdfv::type_(), Term::Iri(qb::observation())),
            Triple::new(o4.clone(), qb::data_set(), Term::iri("http://example.org/ds")),
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
        assert_eq!(refreshed.zone_maps().rows(), 5, "zones still cover the dead row");
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
            refreshed.zone_maps().dimension_codes(city, 0).unwrap().count(),
            3
        );
        let rebuilt = MaterializedCube::from_endpoint(&endpoint, cube.schema()).unwrap();
        assert_eq!(rebuilt.row_count(), 4);
        rebuilt.verify_zone_invariants().unwrap();
        assert_eq!(rebuilt.zone_maps().rows(), 4);
        assert_eq!(
            rebuilt.zone_maps().dimension_codes(city, 0).unwrap().count(),
            2,
            "the rebuilt zones no longer mention the compacted-away member"
        );
    }
}

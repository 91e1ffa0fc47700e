//! A columnar in-memory cube engine for QB4OLAP datasets.
//!
//! The QB2OLAP querying module normally executes every QL pipeline by
//! translating it to SPARQL and evaluating it against the triple store.
//! That is faithful to the paper, but each query pays for triple-pattern
//! joins, `skos:broader` navigation and GROUP BY over decoded terms. This
//! crate trades one up-front materialization for SPARQL-free execution:
//!
//! * [`build::MaterializedCube::from_endpoint`] reads the observations,
//!   level members, attribute values and member roll-up links **once** and
//!   lays them out as columns — dictionary-encoded `u32` member ids per
//!   dimension ([`columns::DimensionColumn`]), dense typed measure vectors
//!   ([`columns::MeasureVector`]), and precomputed bottom-level → ancestor
//!   roll-up maps ([`hierarchy::RollupMap`]);
//! * [`executor::execute`] then runs a simplified OLAP pipeline
//!   (slice → dice → roll-up → aggregate) as a single vectorized pass over
//!   those columns.
//!
//! The executor is deliberately **bit-compatible** with the SPARQL backend:
//! it reuses [`sparql::compare_terms`], reproduces the SPARQL engine's
//! aggregate typing rules, and mirrors the generated query's join
//! semantics, so both backends return identical result cubes (the `ql`
//! crate's differential tests pin this). Data the columnar engine cannot
//! execute faithfully — roll-ups that are non-functional or have several
//! broader paths to an ancestor, non-numeric measures — is rejected with
//! [`CubeStoreError::Unsupported`] instead of approximated. The one
//! assumption taken on faith is QB well-formedness of the *fact* side:
//! observations with several values for one dimension or measure, and
//! members with several values for one attribute, keep a single value
//! (see [`build::MaterializedCube::from_endpoint`]) where a raw SPARQL
//! join would multiply rows.
//!
//! # Serving and maintenance
//!
//! Beyond one-shot materialization the crate is a *serving layer*: a
//! [`catalog::CubeCatalog`] keys live cubes by dataset IRI, validates the
//! store's mutation epoch on every access, and refreshes stale entries in
//! **O(delta)** rather than O(cube):
//!
//! * every sizable cube component is copy-on-write ([`cowvec::CowVec`]
//!   column segments, `Arc`-shared dictionaries / level indexes / roll-up
//!   maps, a layered observation index), so
//!   [`build::MaterializedCube::apply_delta`] clones only what a delta
//!   actually extends;
//! * observation *removals* — whole or partial — are applied by
//!   tombstoning the row ([`tombstone::Tombstones`]; a partial removal
//!   additionally re-classifies the surviving fragment like a fresh
//!   build would) — the executor skips dead rows — and the catalog
//!   compacts (re-materializes) once the live-row fraction drops below
//!   [`catalog::COMPACTION_LIVE_FRACTION`];
//! * aggregation is **order-independent** ([`sparql::NumericSum`]: exact
//!   `i128` integer sums plus correctly rounded compensated float sums,
//!   shared with the SPARQL engine), so appends of *any* measure type —
//!   floats included — replay bit-identically to a rebuild;
//! * everything the delta classifier cannot replay bit-identically
//!   refuses with a typed [`error::DeltaRefusal`] and falls back to a
//!   rebuild whose [`catalog::RebuildReason`] lands in the
//!   [`catalog::MaintenanceReport`] (the full decision table is in the
//!   [`delta`] module docs).
//!
//! * reads never have to wait on any of that:
//!   [`catalog::CubeCatalog::serve_snapshot`] pins an immutable
//!   [`overlay::CubeSnapshot`] — one cube, its epoch and a
//!   [`overlay::SinceFold`] record of what was accreted onto it since its
//!   last fold — while structural rebuilds and compactions run on a
//!   **background fold thread** and publish the new cube with an atomic
//!   swap (the [`overlay`] module documents why accreted results stay
//!   bit-identical to a full fold).
//!
//! The repo-level `ARCHITECTURE.md` places this crate in the overall
//! system and spells out the COW/tombstone invariants; EXPERIMENTS.md
//! §E12–§E13 quantify the refresh costs and §E18 the read latency held
//! during a forced background rebuild.

#![deny(missing_docs)]

pub mod build;
pub mod catalog;
pub mod columns;
pub mod cowvec;
pub mod delta;
pub mod dictionary;
pub mod error;
pub mod executor;
pub mod hierarchy;
pub mod observations;
pub mod overlay;
#[cfg(test)]
mod refusal_suite;
pub mod tombstone;
pub mod zonemap;

pub use build::{BuildStats, MaterializedCube};
pub use catalog::{
    CubeCatalog, MaintenanceReport, MaintenanceStrategy, RebuildReason, ReportLog,
    COMPACTION_LIVE_FRACTION,
};
pub use columns::{DimensionColumn, MeasureColumn, MeasureSlice, MeasureValue, MeasureVector};
pub use cowvec::CowVec;
pub use dictionary::{Dictionary, MemberId, AMBIGUOUS_MEMBER, NO_MEMBER};
pub use error::{CubeStoreError, DeltaRefusal, RefusalKind};
pub use executor::{
    execute, AxisSpec, CubeCell, CubeQuery, ExecOptions, MeasureFilter, MemberFilter,
    MemberPredicate, QueryOutput, ScanStats,
};
pub use hierarchy::{LevelIndex, RollupMap};
pub use observations::ObservationIndex;
pub use overlay::{CubeSnapshot, SinceFold};
pub use tombstone::Tombstones;
pub use zonemap::ZoneMaps;

/// Shared fixtures for the crate's unit tests (the build/executor tests in
/// this module plus the delta/catalog tests in their own modules).
#[cfg(test)]
pub(crate) mod testutil {
    use qb4olap::{
        AggregateFunction, Cardinality, CubeSchema, Dimension, Hierarchy, HierarchyStep,
        LevelAttribute, LevelComponent, MeasureSpec,
    };
    use rdf::{Iri, Literal, Term};
    use sparql::{Endpoint, LocalEndpoint};

    use crate::{
        execute, CubeQuery, CubeStoreError, ExecOptions, MaterializedCube, QueryOutput, ScanStats,
    };

    /// [`execute`] with the default options, the output alone.
    pub(crate) fn run(
        cube: &MaterializedCube,
        query: &CubeQuery,
    ) -> Result<QueryOutput, CubeStoreError> {
        execute(cube, query, &ExecOptions::default(), None).map(|(output, _)| output)
    }

    /// [`execute`] at an explicit pruning switch.
    pub(crate) fn run_with(
        cube: &MaterializedCube,
        query: &CubeQuery,
        prune: bool,
    ) -> Result<(QueryOutput, ScanStats), CubeStoreError> {
        execute(cube, query, &ExecOptions { prune }, None)
    }

    pub(crate) fn iri(suffix: &str) -> Iri {
        Iri::new(format!("http://example.org/{suffix}"))
    }

    pub(crate) fn member(suffix: &str) -> Term {
        Term::iri(format!("http://example.org/member/{suffix}"))
    }

    /// One complete fixture observation (typed, linked, both dimensions,
    /// both measures) — what the delta path accepts as a pure append.
    pub(crate) fn observation_triples(
        name: &str,
        city: &str,
        month: &str,
        value: i64,
        score: i64,
    ) -> Vec<rdf::Triple> {
        use rdf::vocab::{qb, rdf as rdfv};
        use rdf::Triple;
        let node = Term::iri(format!("http://example.org/obs/{name}"));
        vec![
            Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())),
            Triple::new(node.clone(), qb::data_set(), Term::iri("http://example.org/ds")),
            Triple::new(node.clone(), iri("lv/city"), member(city)),
            Triple::new(node.clone(), iri("lv/month"), member(month)),
            Triple::new(node.clone(), iri("measure/value"), Literal::integer(value)),
            Triple::new(node, iri("measure/score"), Literal::integer(score)),
        ]
    }

    /// A tiny two-dimensional cube: cities (rolling up to countries) ×
    /// months, with two measures. City `c3` is ragged (no country).
    ///
    /// Observations (city, month, value, score):
    ///   o1 (c1, m1, 10, 4), o2 (c1, m2, 20, 6), o3 (c2, m1, 5, 1),
    ///   o4 (c3, m1, 100, 9) — ragged city, o5 (c2, m2, 7, 3).
    pub(crate) fn fixture(score_aggregate: AggregateFunction) -> (LocalEndpoint, CubeSchema) {
        let city = iri("lv/city");
        let country = iri("lv/country");
        let month = iri("lv/month");
        let value = iri("measure/value");
        let score = iri("measure/score");

        let mut builder = qb::QbDatasetBuilder::new(iri("ds"), iri("dsd"))
            .dimension(city.clone())
            .dimension(month.clone())
            .measure(value.clone())
            .measure(score.clone());
        for (name, city_member, month_member, v, s) in [
            ("o1", "c1", "m1", 10, 4),
            ("o2", "c1", "m2", 20, 6),
            ("o3", "c2", "m1", 5, 1),
            ("o4", "c3", "m1", 100, 9),
            ("o5", "c2", "m2", 7, 3),
        ] {
            let mut obs = qb::Observation::new(Term::iri(format!("http://example.org/obs/{name}")));
            obs.dimensions.insert(city.clone(), member(city_member));
            obs.dimensions.insert(month.clone(), member(month_member));
            obs.measures
                .insert(value.clone(), Term::Literal(Literal::integer(v)));
            obs.measures
                .insert(score.clone(), Term::Literal(Literal::integer(s)));
            builder = builder.observation(obs);
        }
        let (_, mut triples) = builder.build();

        for (m, level) in [
            ("c1", &city),
            ("c2", &city),
            ("c3", &city),
            ("K1", &country),
            ("K2", &country),
            ("m1", &month),
            ("m2", &month),
        ] {
            triples.push(qb4olap::member_of_triple(&member(m), level));
        }
        triples.push(qb4olap::rollup_triple(&member("c1"), &member("K1")));
        triples.push(qb4olap::rollup_triple(&member("c2"), &member("K2")));
        // c3 stays ragged: no country ancestor.
        triples.push(qb4olap::attribute_triple(
            &member("K1"),
            &iri("attr/countryName"),
            &Term::Literal(Literal::string("Alpha")),
        ));
        // K2 has no countryName value at all.

        let endpoint = LocalEndpoint::new();
        endpoint.insert_triples(&triples).unwrap();

        let mut schema = CubeSchema::new(iri("dsdQB4O"), iri("ds"));
        let mut city_hierarchy = Hierarchy::new(iri("hier/city"));
        city_hierarchy.levels = vec![city.clone(), country.clone()];
        city_hierarchy.steps = vec![HierarchyStep {
            child: city.clone(),
            parent: country.clone(),
            cardinality: Cardinality::ManyToOne,
        }];
        let mut city_dim = Dimension::new(iri("dim/city"));
        city_dim.hierarchies.push(city_hierarchy);
        schema.dimensions.push(city_dim);

        let mut month_hierarchy = Hierarchy::new(iri("hier/month"));
        month_hierarchy.levels = vec![month.clone()];
        let mut month_dim = Dimension::new(iri("dim/month"));
        month_dim.hierarchies.push(month_hierarchy);
        schema.dimensions.push(month_dim);

        schema.level_components.push(LevelComponent {
            level: city,
            cardinality: Cardinality::ManyToOne,
            dimension: Some(iri("dim/city")),
        });
        schema.level_components.push(LevelComponent {
            level: month,
            cardinality: Cardinality::ManyToOne,
            dimension: Some(iri("dim/month")),
        });
        schema.measures.push(MeasureSpec {
            property: value,
            aggregate: AggregateFunction::Sum,
        });
        schema.measures.push(MeasureSpec {
            property: score,
            aggregate: score_aggregate,
        });
        schema
            .level_mut(&country)
            .attributes
            .push(LevelAttribute::new(iri("attr/countryName")));
        (endpoint, schema)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use qb4olap::{AggregateFunction, Cardinality, CubeSchema, Dimension, Hierarchy, HierarchyStep,
        LevelComponent, MeasureSpec};
    use rdf::{Literal, Term, Triple};
    use sparql::ast::CmpOp;
    use sparql::{Endpoint, LocalEndpoint};

    use super::testutil::{fixture, iri, member, run, run_with};
    use super::*;

    fn build(score_aggregate: AggregateFunction) -> MaterializedCube {
        let (endpoint, schema) = fixture(score_aggregate);
        MaterializedCube::from_endpoint(&endpoint, &schema).unwrap()
    }

    fn rollup_query() -> CubeQuery {
        CubeQuery {
            rollups: BTreeMap::from([(iri("dim/city"), iri("lv/country"))]),
            ..CubeQuery::default()
        }
    }

    #[test]
    fn build_materializes_columns_and_maps() {
        let cube = build(AggregateFunction::Avg);
        assert_eq!(cube.row_count(), 5);
        let stats = cube.stats();
        assert_eq!(stats.observations_seen, 5);
        assert_eq!(stats.rows, 5);
        assert_eq!(stats.rows_dropped, 0);
        assert_eq!(stats.levels, 3);
        // city→city (identity), city→country, month→month.
        assert_eq!(stats.rollup_maps, 3);
        assert_eq!(stats.broader_links, 2);

        let column = cube.dimension_column(&iri("dim/city")).unwrap();
        assert_eq!(column.len(), 5);
        assert_eq!(column.unbound_rows(), 0);
        let map = cube.rollup(&iri("dim/city"), &iri("lv/country")).unwrap();
        assert_eq!(map.unmapped_members(), 1, "c3 is ragged");
        assert_eq!(map.ambiguous_members(), 0);
        assert_eq!(cube.level(&iri("lv/country")).unwrap().member_count(), 2);
        assert_eq!(cube.measure_columns().len(), 2);
        assert!(cube.dimension_column(&iri("dim/nope")).is_none());
    }

    #[test]
    fn untyped_and_measureless_observations_are_dropped() {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        // An observation linked to the dataset but not typed qb:Observation,
        // and a typed one missing the `score` measure: the SPARQL pattern
        // joins drop both, so the builder must too.
        endpoint
            .insert_triples(&[
                Triple::new(
                    Term::iri("http://example.org/obs/untyped"),
                    rdf::vocab::qb::data_set(),
                    Term::iri("http://example.org/ds"),
                ),
                Triple::new(
                    Term::iri("http://example.org/obs/untyped"),
                    iri("measure/value"),
                    Literal::integer(1),
                ),
                Triple::new(
                    Term::iri("http://example.org/obs/half"),
                    rdf::vocab::rdf::type_(),
                    Term::Iri(rdf::vocab::qb::observation()),
                ),
                Triple::new(
                    Term::iri("http://example.org/obs/half"),
                    rdf::vocab::qb::data_set(),
                    Term::iri("http://example.org/ds"),
                ),
                Triple::new(
                    Term::iri("http://example.org/obs/half"),
                    iri("measure/value"),
                    Literal::integer(1),
                ),
            ])
            .unwrap();
        let cube = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        assert_eq!(cube.row_count(), 5);
        assert_eq!(cube.stats().rows_dropped, 2);
    }

    /// Everything a build produces, rendered deterministically:
    /// dictionaries in `MemberId` order, code columns, measure vectors,
    /// level indexes with their attributes, roll-up maps, zone maps, the
    /// observation → row index, the dropped / multi-valued sets, the
    /// broader adjacency and the build counters.
    fn build_state(cube: &MaterializedCube) -> String {
        let members = |dictionary: &Dictionary| -> Vec<Term> {
            dictionary.iter().map(|(_, term)| term.clone()).collect()
        };
        let mut out = format!("{:?}\n{:?}\n", cube.stats, cube.dataset_label);
        for column in &cube.dimensions {
            let codes: Vec<MemberId> = column.codes().collect();
            out += &format!("{:?} {:?}\n", column.dimension, members(&column.dictionary));
            out += &format!("{codes:?}\n");
        }
        for column in &cube.measures {
            out += &format!("{:?} {:?}\n", column.property, column.data);
        }
        for (level, index) in &cube.levels {
            out += &format!("{level:?} {:?}\n", members(&index.dictionary));
            for attribute in index.attribute_iris() {
                let values: Vec<Option<&Term>> = (0..index.member_count() as MemberId)
                    .map(|member| index.attribute_value(attribute, member))
                    .collect();
                out += &format!("  {attribute:?} {values:?}\n");
            }
        }
        for (key, map) in &cube.rollups {
            out += &format!("{key:?} {:?}\n", map.targets());
        }
        out += &format!("{:?}\n", cube.zones);
        out += &format!("{:?}\n{:?}\n", cube.dropped_observations, cube.multivalued_observations);
        out += &format!("{:?}\n", cube.broader);
        out
    }

    /// The build reads encoded solutions, from `LocalEndpoint` directly or
    /// through a wrapper that forwards only `query` (the trait's provided
    /// `select_encoded`). Both must materialize the very same cube —
    /// including the corners: dropped observations, a multi-valued slot, an
    /// unbound dimension, float measures.
    #[test]
    fn native_and_default_encoded_solutions_build_identical_cubes() {
        use sparql::ConservativeEndpoint;

        let (endpoint, schema) = fixture(AggregateFunction::Avg);
        let node = |name: &str| Term::iri(format!("http://example.org/obs/{name}"));
        let link = |name: &str| Triple::new(node(name), rdf::vocab::qb::data_set(), iri("ds"));
        let typed = |name: &str| {
            Triple::new(node(name), rdf::vocab::rdf::type_(), Term::Iri(rdf::vocab::qb::observation()))
        };
        let mut extra = vec![
            // Linked but untyped; typed but missing `score`: both dropped.
            link("untyped"),
            Triple::new(node("untyped"), iri("measure/value"), Literal::integer(1)),
            typed("half"),
            link("half"),
            Triple::new(node("half"), iri("measure/value"), Literal::integer(1)),
            // A second, different city on o1: multi-valued.
            Triple::new(node("o1"), iri("lv/city"), member("c2")),
            // Complete but for the month: an unbound dimension.
            typed("monthless"),
            link("monthless"),
            Triple::new(node("monthless"), iri("lv/city"), member("c9")),
            Triple::new(node("monthless"), iri("measure/value"), Literal::integer(20)),
            Triple::new(node("monthless"), iri("measure/score"), Literal::integer(6)),
        ];
        extra.extend(testutil::observation_triples("o6", "c1", "m2", 20, 6));
        endpoint.insert_triples(&extra).unwrap();

        let native = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        let by_default =
            MaterializedCube::from_endpoint(&ConservativeEndpoint::new(endpoint.clone()), &schema)
                .unwrap();
        assert_eq!(build_state(&native), build_state(&by_default));
        for name in ["o1", "o6", "monthless", "half"] {
            assert_eq!(
                native.observations.row_of(&node(name)),
                by_default.observations.row_of(&node(name))
            );
        }
        native.verify_zone_invariants().unwrap();
        // The corners are really there.
        let stats = native.stats();
        assert_eq!((stats.observations_seen, stats.rows, stats.rows_dropped), (9, 7, 2));
        assert_eq!(native.multivalued_observations.len(), 1);
        assert_eq!(native.dimension_column(&iri("dim/month")).unwrap().unbound_rows(), 1);
        // Repeated values share one dictionary entry and one parse.
        assert_eq!(native.dimension_column(&iri("dim/city")).unwrap().dictionary.len(), 4);

        // A float measure, and a literal that does not round-trip: the same
        // cube, and the same refusal, on both paths.
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        let value = |name: &str, literal: Literal| {
            Triple::new(node(name), iri("measure/value"), literal)
        };
        let floats = LocalEndpoint::new();
        for triple in endpoint.store().triples_matching(None, None, None) {
            if triple.predicate != iri("measure/value") {
                floats.insert_triples(&[triple]).unwrap();
            }
        }
        for (name, v) in [("o1", 1.5), ("o2", 2.0), ("o3", 1.5), ("o4", -0.25), ("o5", 2.0)] {
            floats.insert_triples(&[value(name, Literal::decimal(v))]).unwrap();
        }
        let native = MaterializedCube::from_endpoint(&floats, &schema).unwrap();
        let by_default =
            MaterializedCube::from_endpoint(&ConservativeEndpoint::new(floats.clone()), &schema)
                .unwrap();
        assert_eq!(build_state(&native), build_state(&by_default));
        assert!(matches!(native.measures[0].data, MeasureVector::Decimal(_)));

        floats.store().remove(&value("o5", Literal::decimal(2.0)));
        floats
            .insert_triples(&[value("o5", Literal::typed("02.50", rdf::vocab::xsd::decimal()))])
            .unwrap();
        let native = MaterializedCube::from_endpoint(&floats, &schema).unwrap_err();
        let by_default =
            MaterializedCube::from_endpoint(&ConservativeEndpoint::new(floats), &schema).unwrap_err();
        assert!(matches!(native, CubeStoreError::Unsupported(_)), "{native}");
        assert_eq!(native.to_string(), by_default.to_string());
    }

    /// The build orders rows by the `Term` order of the observation nodes,
    /// not by the order the store happens to hold them in: observations
    /// inserted in reverse `Term` order (so their store ids run backwards)
    /// materialize the very same rows — same node per row, same codes and
    /// measures per column, hence the same zone maps — across a segment
    /// boundary.
    #[test]
    fn observations_stored_out_of_term_order_materialize_the_same_rows() {
        let observations = cowvec::SEGMENT_LEN + 100;
        let stars: Vec<Vec<Triple>> = (0..observations)
            .map(|i| {
                let (city, month) = (["c1", "c2", "c3"][i % 3], ["m1", "m2"][i / 1500 % 2]);
                testutil::observation_triples(&format!("p{i:05}"), city, month, i as i64, 7)
            })
            .collect();
        let (forward, schema) = fixture(AggregateFunction::Sum);
        let (backward, _) = fixture(AggregateFunction::Sum);
        forward.insert_triples(&stars.concat()).unwrap();
        let reversed: Vec<Triple> = stars.iter().rev().flatten().cloned().collect();
        backward.insert_triples(&reversed).unwrap();

        // The stores really hold the nodes in opposite orders.
        let arrival = |endpoint: &LocalEndpoint| -> Vec<Term> {
            let linked = endpoint
                .select("SELECT ?o WHERE { ?o <http://purl.org/linked-data/cube#dataSet> ?d }")
                .unwrap();
            (0..linked.len()).filter_map(|row| linked.get(row, "o").cloned()).collect()
        };
        let (sent_forward, sent_backward) = (arrival(&forward), arrival(&backward));
        assert!(sent_forward.windows(2).all(|pair| pair[0] < pair[1]));
        assert!(sent_backward.windows(2).any(|pair| pair[0] > pair[1]));

        let forward = MaterializedCube::from_endpoint(&forward, &schema).unwrap();
        let backward = MaterializedCube::from_endpoint(&backward, &schema).unwrap();
        assert_eq!(forward.row_count(), observations + 5);
        assert_eq!(build_state(&forward), build_state(&backward));
        for node in &sent_forward {
            assert_eq!(forward.observations.row_of(node), backward.observations.row_of(node));
        }
        backward.verify_zone_invariants().unwrap();
    }

    #[test]
    fn rollup_drops_ragged_members_and_sums() {
        let cube = build(AggregateFunction::Sum);
        let output = run(&cube, &rollup_query()).unwrap();
        assert_eq!(
            output.axes,
            vec![
                AxisSpec {
                    dimension: iri("dim/city"),
                    level: iri("lv/country")
                },
                AxisSpec {
                    dimension: iri("dim/month"),
                    level: iri("lv/month")
                },
            ]
        );
        // o4 (ragged c3) contributes nowhere.
        let cells = output.into_cells();
        assert_eq!(cells.len(), 4);
        let cell = cells
            .iter()
            .find(|c| c.coordinates == vec![member("K1"), member("m1")])
            .unwrap();
        assert_eq!(cell.values[0], Some(Term::integer(10)));
        assert!(!cells.iter().any(|c| c.coordinates.contains(&member("c3"))));
        // Grand total excludes the ragged row's 100.
        let total: i64 = cells
            .iter()
            .map(|c| {
                c.values[0]
                    .as_ref()
                    .and_then(|t| t.as_literal().and_then(|l| l.as_integer()))
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 42);
    }

    #[test]
    fn slice_collapses_a_dimension() {
        let cube = build(AggregateFunction::Sum);
        let query = CubeQuery {
            slices: vec![iri("dim/month")],
            rollups: BTreeMap::from([(iri("dim/city"), iri("lv/country"))]),
            ..CubeQuery::default()
        };
        let output = run(&cube, &query).unwrap();
        assert_eq!(output.axes.len(), 1);
        let cells = output.into_cells();
        assert_eq!(cells.len(), 2);
        let k1 = cells
            .iter()
            .find(|c| c.coordinates == vec![member("K1")])
            .unwrap();
        assert_eq!(k1.values[0], Some(Term::integer(30)));
    }

    #[test]
    fn aggregate_functions_match_sparql_typing() {
        // score: avg of {4, 6} = decimal 5.0 on (K1, aggregated months).
        let cube = build(AggregateFunction::Avg);
        let query = CubeQuery {
            slices: vec![iri("dim/month")],
            rollups: BTreeMap::from([(iri("dim/city"), iri("lv/country"))]),
            ..CubeQuery::default()
        };
        let cells = run(&cube, &query).unwrap().into_cells();
        let k1 = cells
            .iter()
            .find(|c| c.coordinates == vec![member("K1")])
            .unwrap();
        assert_eq!(k1.values[1], Some(Term::Literal(Literal::decimal(5.0))));

        for (aggregate, expected_k2) in [
            (AggregateFunction::Min, Term::integer(1)),
            (AggregateFunction::Max, Term::integer(3)),
            (AggregateFunction::Count, Term::integer(2)),
        ] {
            let cube = build(aggregate);
            let cells = run(&cube, &query).unwrap().into_cells();
            let k2 = cells
                .iter()
                .find(|c| c.coordinates == vec![member("K2")])
                .unwrap();
            assert_eq!(k2.values[1], Some(expected_k2), "{aggregate:?}");
        }
    }

    #[test]
    fn member_filter_keeps_inner_join_semantics() {
        let cube = build(AggregateFunction::Sum);
        let compare = |op, value: &str| MemberFilter::Compare {
            dimension: iri("dim/city"),
            level: iri("lv/country"),
            attribute: iri("attr/countryName"),
            predicate: MemberPredicate::Str {
                op,
                value: value.to_string(),
            },
        };

        let mut query = rollup_query();
        query.member_filters = vec![compare(CmpOp::Eq, "Alpha")];
        let cells = run(&cube, &query).unwrap().into_cells();
        assert!(cells.iter().all(|c| c.coordinates[0] == member("K1")));
        assert_eq!(cells.len(), 2);

        // K2 has no countryName: the SPARQL join drops its rows even when
        // the condition is an OR whose other side would not need it.
        let mut query = rollup_query();
        query.member_filters = vec![MemberFilter::Or(
            Box::new(compare(CmpOp::Eq, "Alpha")),
            Box::new(compare(CmpOp::Ne, "Alpha")),
        )];
        let cells = run(&cube, &query).unwrap().into_cells();
        assert!(cells.iter().all(|c| c.coordinates[0] == member("K1")));

        // An IRI constant compared with the member's attribute term.
        let mut query = rollup_query();
        query.member_filters = vec![MemberFilter::Compare {
            dimension: iri("dim/city"),
            level: iri("lv/country"),
            attribute: iri("attr/countryName"),
            predicate: MemberPredicate::Constant {
                op: CmpOp::Eq,
                value: Term::Literal(Literal::string("Alpha")),
            },
        }];
        assert_eq!(run(&cube, &query).unwrap().len(), 2);
    }

    #[test]
    fn measure_filter_applies_to_aggregates() {
        let cube = build(AggregateFunction::Sum);
        let mut query = CubeQuery {
            slices: vec![iri("dim/month")],
            rollups: BTreeMap::from([(iri("dim/city"), iri("lv/country"))]),
            ..CubeQuery::default()
        };
        query.measure_filters = vec![MeasureFilter::Compare {
            measure: iri("measure/value"),
            op: CmpOp::Gt,
            value: Term::Literal(Literal::integer(20)),
        }];
        let output = run(&cube, &query).unwrap();
        assert_eq!(output.len(), 1);
        assert_eq!(output.cell(0).coordinates, vec![member("K1")]);

        // Per group (country, value-sum, score-sum): K1 = (30, 10),
        // K2 = (12, 4). Keep groups with score >= 5 AND
        // (value <= 12 OR score >= 10): only K1 survives.
        query.measure_filters = vec![MeasureFilter::And(
            Box::new(MeasureFilter::Compare {
                measure: iri("measure/score"),
                op: CmpOp::Ge,
                value: Term::Literal(Literal::integer(5)),
            }),
            Box::new(MeasureFilter::Or(
                Box::new(MeasureFilter::Compare {
                    measure: iri("measure/value"),
                    op: CmpOp::Le,
                    value: Term::Literal(Literal::integer(12)),
                }),
                Box::new(MeasureFilter::Compare {
                    measure: iri("measure/score"),
                    op: CmpOp::Ge,
                    value: Term::Literal(Literal::integer(10)),
                }),
            )),
        )];
        let output = run(&cube, &query).unwrap();
        assert_eq!(output.len(), 1);
        assert_eq!(output.cell(0).coordinates, vec![member("K1")]);
    }

    #[test]
    fn ambiguous_rollups_are_refused() {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        endpoint
            .insert_triples(&[qb4olap::rollup_triple(&member("c1"), &member("K2"))])
            .unwrap();
        let cube = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        assert_eq!(
            cube.rollup(&iri("dim/city"), &iri("lv/country"))
                .unwrap()
                .ambiguous_members(),
            1
        );
        let error = run(&cube, &rollup_query()).unwrap_err();
        assert!(matches!(error, CubeStoreError::Unsupported(_)), "{error}");
        // Queries that do not roll city up still work.
        assert!(run(&cube, &CubeQuery::default()).is_ok());
    }

    #[test]
    fn diamond_paths_to_one_ancestor_are_refused_not_undercounted() {
        // city → district → country where c1 reaches K1 through TWO
        // districts. The SPARQL join counts each observation once per
        // broader path (twice here), so the columnar engine must refuse
        // the roll-up rather than silently counting once.
        let city = iri("lv/city");
        let district = iri("lv/district");
        let country = iri("lv/country");
        let value = iri("measure/value");

        let mut builder = qb::QbDatasetBuilder::new(iri("ds"), iri("dsd"))
            .dimension(city.clone())
            .measure(value.clone());
        let mut obs = qb::Observation::new(Term::iri("http://example.org/obs/o1"));
        obs.dimensions.insert(city.clone(), member("c1"));
        obs.measures
            .insert(value.clone(), Term::Literal(Literal::integer(10)));
        builder = builder.observation(obs);
        let (_, mut triples) = builder.build();

        for (m, level) in [
            ("c1", &city),
            ("d1", &district),
            ("d2", &district),
            ("K1", &country),
        ] {
            triples.push(qb4olap::member_of_triple(&member(m), level));
        }
        for (child, parent) in [("c1", "d1"), ("c1", "d2"), ("d1", "K1"), ("d2", "K1")] {
            triples.push(qb4olap::rollup_triple(&member(child), &member(parent)));
        }
        let endpoint = LocalEndpoint::new();
        endpoint.insert_triples(&triples).unwrap();

        let mut schema = CubeSchema::new(iri("dsdQB4O"), iri("ds"));
        let mut hierarchy = Hierarchy::new(iri("hier/city"));
        hierarchy.levels = vec![city.clone(), district.clone(), country.clone()];
        hierarchy.steps = vec![
            HierarchyStep {
                child: city.clone(),
                parent: district.clone(),
                cardinality: Cardinality::ManyToOne,
            },
            HierarchyStep {
                child: district.clone(),
                parent: country.clone(),
                cardinality: Cardinality::ManyToOne,
            },
        ];
        let mut dim = Dimension::new(iri("dim/city"));
        dim.hierarchies.push(hierarchy);
        schema.dimensions.push(dim);
        schema.level_components.push(LevelComponent {
            level: city.clone(),
            cardinality: Cardinality::ManyToOne,
            dimension: Some(iri("dim/city")),
        });
        schema.measures.push(MeasureSpec {
            property: value,
            aggregate: AggregateFunction::Sum,
        });

        // The raw SPARQL navigation really does see the observation twice.
        let doubled = endpoint
            .select(
                "PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
                 PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
                 SELECT (SUM(?v) AS ?total) WHERE {
                   ?o <http://example.org/lv/city> ?c . ?o <http://example.org/measure/value> ?v .
                   ?c skos:broader ?d . ?d skos:broader ?k .
                   ?k qb4o:memberOf <http://example.org/lv/country> .
                 }",
            )
            .unwrap()
            .get(0, "total")
            .and_then(|t| t.as_literal().and_then(|l| l.as_integer()))
            .unwrap();
        assert_eq!(doubled, 20, "SPARQL bag semantics count one path twice");

        let cube = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        let map = cube.rollup(&iri("dim/city"), &country).unwrap();
        assert_eq!(map.ambiguous_members(), 1);
        // Rolling up to `district` (two distinct ancestors) is ambiguous
        // too; to `country` (one ancestor, two paths) must also refuse.
        for target in [district, country] {
            let query = CubeQuery {
                rollups: BTreeMap::from([(iri("dim/city"), target)]),
                ..CubeQuery::default()
            };
            assert!(matches!(
                run(&cube, &query).unwrap_err(),
                CubeStoreError::Unsupported(_)
            ));
        }
    }

    #[test]
    fn query_errors_on_unknown_schema_elements() {
        let cube = build(AggregateFunction::Sum);
        let query = CubeQuery {
            slices: vec![iri("dim/nope")],
            ..CubeQuery::default()
        };
        assert!(matches!(
            run(&cube, &query).unwrap_err(),
            CubeStoreError::Query(_)
        ));

        let query = CubeQuery {
            rollups: BTreeMap::from([(iri("dim/city"), iri("lv/galaxy"))]),
            ..CubeQuery::default()
        };
        assert!(matches!(
            run(&cube, &query).unwrap_err(),
            CubeStoreError::Query(_)
        ));

        let query = CubeQuery {
            measure_filters: vec![MeasureFilter::Compare {
                measure: iri("measure/nope"),
                op: CmpOp::Gt,
                value: Term::Literal(Literal::integer(0)),
            }],
            ..CubeQuery::default()
        };
        assert!(matches!(
            run(&cube, &query).unwrap_err(),
            CubeStoreError::Query(_)
        ));

        let mut query = rollup_query();
        query.member_filters = vec![MemberFilter::Compare {
            dimension: iri("dim/city"),
            level: iri("lv/city"), // not the level in the result
            attribute: iri("attr/countryName"),
            predicate: MemberPredicate::Str {
                op: CmpOp::Eq,
                value: "Alpha".to_string(),
            },
        }];
        assert!(matches!(
            run(&cube, &query).unwrap_err(),
            CubeStoreError::Query(_)
        ));
    }

    #[test]
    fn cells_are_sorted_canonically() {
        let cube = build(AggregateFunction::Sum);
        let cells = run(&cube, &CubeQuery::default()).unwrap().into_cells();
        assert_eq!(cells.len(), 5);
        let mut sorted = cells.clone();
        sorted.sort_by(|a, b| a.coordinates.cmp(&b.coordinates));
        assert_eq!(cells, sorted);
    }

    #[test]
    fn pruned_scan_matches_the_unpruned_scan() {
        let cube = build(AggregateFunction::Sum);
        let queries = [
            CubeQuery::default(),
            rollup_query(),
            CubeQuery {
                slices: vec![iri("dim/month")],
                rollups: BTreeMap::from([(iri("dim/city"), iri("lv/country"))]),
                ..CubeQuery::default()
            },
        ];
        for query in &queries {
            assert_eq!(
                run_with(&cube, query, false).unwrap().0,
                run_with(&cube, query, true).unwrap().0
            );
        }
        // Refusals surface either way: the ambiguous-roll-up refusal.
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        endpoint
            .insert_triples(&[qb4olap::rollup_triple(&member("c1"), &member("K2"))])
            .unwrap();
        let ambiguous = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        for prune in [false, true] {
            assert!(matches!(
                run_with(&ambiguous, &rollup_query(), prune).unwrap_err(),
                CubeStoreError::Unsupported(_)
            ));
        }
    }
}

//! The refusal suite. One change refuses a delta replay: a schema or
//! structure triple. Its trigger proves (a) the classifier refuses it with
//! a meaningful detail, and (b) the catalog's fallback rebuild restores
//! parity with a from-scratch materialization — and with what SPARQL
//! sees — on the mutated store.
//!
//! The shapes the retired refusal kinds used to refuse now apply as
//! deltas, and two table-driven tests keep each equal to a rebuild: the
//! observation shapes (`ObservationMutated`, `DroppedObservationMutated`,
//! `IncompleteObservation`, `MalformedObservation`) and the hierarchy
//! shapes (`RollupLinkAdded`, `RollupLinkRemoved`, `MemberRemoved`,
//! `MemberConflict`, `AttributeConflict`, `AttributeRemoved`,
//! `UnknownMemberAttribute`, `DatasetLabelChanged`).

use qb4olap::AggregateFunction;
use rdf::vocab::{qb, rdf as rdfv, rdfs};
use rdf::{Literal, Term, Triple};
use sparql::{Endpoint, LocalEndpoint};

use crate::catalog::{CubeCatalog, MaintenanceStrategy, RebuildReason};
use crate::executor::CubeQuery;
use crate::testutil::{
    assert_matches_scratch_build, fixture, iri, member, observation_triples, run,
    sparql_complete_observations, structure_triple,
};
use crate::MaterializedCube;

fn obs(name: &str) -> Term {
    Term::iri(format!("http://example.org/obs/{name}"))
}

fn no_setup(_: &LocalEndpoint) {}

/// The one refused mutation: a dangling `qb4o:hasLevel` triple.
fn refused_mutation(endpoint: &LocalEndpoint) {
    endpoint.insert_triples(&[structure_triple()]).unwrap();
}

/// The detail the refusal of [`refused_mutation`] carries.
const REFUSAL_DETAIL: &str = "schema/structure triple inserted";

#[test]
fn every_refusal_kind_has_a_minimal_trigger_and_a_clean_rebuild() {
    let (endpoint, schema) = fixture(AggregateFunction::Sum);
    let catalog = CubeCatalog::new();
    catalog.serve_settled(&endpoint, &schema).unwrap();

    refused_mutation(&endpoint);
    let rebuilt = catalog
        .serve_settled(&endpoint, &schema)
        .unwrap()
        .cube()
        .clone();

    let report = catalog.last_report(&schema.dataset).unwrap();
    assert_eq!(
        report.strategy,
        MaintenanceStrategy::Rebuild,
        "the refused delta must fall back to a rebuild"
    );
    let Some(RebuildReason::DeltaRefused(detail)) = report.reason else {
        panic!("expected a delta refusal, got {:?}", report.reason);
    };
    assert!(
        detail.contains(REFUSAL_DETAIL),
        "detail {detail:?} should mention {REFUSAL_DETAIL:?}"
    );

    // Parity: the fallback result is bit-identical to a from-scratch
    // materialization of the mutated store…
    let scratch = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
    assert_eq!(
        run(&rebuilt, &CubeQuery::default()).unwrap(),
        run(&scratch, &CubeQuery::default()).unwrap(),
        "rebuilt cube must equal a fresh materialization"
    );
    // …and its live rows agree with what SPARQL counts as complete
    // observations on the same store.
    assert_eq!(
        rebuilt.live_row_count(),
        sparql_complete_observations(&endpoint),
        "rebuilt cube must serve exactly the rows SPARQL sees"
    );
}

#[test]
fn every_refusal_kind_degrades_to_a_background_rebuild_on_the_snapshot_path() {
    let (endpoint, schema) = fixture(AggregateFunction::Sum);
    let catalog = CubeCatalog::new();
    let initial = catalog.serve_snapshot(&endpoint, &schema).unwrap();
    let pinned_epoch = initial.epoch();

    refused_mutation(&endpoint);
    // The reader is never blocked on the structural change: it gets the
    // stale-but-consistent pre-mutation pin back immediately while the
    // rebuild runs behind it.
    let stale = catalog.serve_snapshot(&endpoint, &schema).unwrap();
    stale.verify_consistent().unwrap();
    assert_eq!(
        stale.epoch(),
        pinned_epoch,
        "the stale pin stays at the pre-mutation epoch"
    );
    assert_eq!(
        run(stale.cube(), &CubeQuery::default()).unwrap(),
        run(initial.cube(), &CubeQuery::default()).unwrap(),
        "the stale snapshot serves the pinned state unchanged"
    );

    catalog.wait_for_maintenance(&schema.dataset);
    let fresh = catalog.current_snapshot(&schema.dataset).unwrap();
    assert_eq!(
        fresh.plan_line(),
        "OVERLAY none",
        "the fold reset the record"
    );
    assert_eq!(fresh.since_fold().fold_epoch, endpoint.epoch());
    let report = catalog.last_report(&schema.dataset).unwrap();
    assert_eq!(
        report.strategy,
        MaintenanceStrategy::Rebuild,
        "the background fold is a rebuild"
    );
    let Some(RebuildReason::DeltaRefused(detail)) = &report.reason else {
        panic!("expected a delta refusal, got {:?}", report.reason);
    };
    assert!(detail.contains(REFUSAL_DETAIL), "{detail}");
    assert!(
        report.overlap.is_some(),
        "the fold records the stale-serving overlap window"
    );

    // Parity after the fold: the published base is bit-identical to a
    // from-scratch materialization and agrees with SPARQL row counts.
    let scratch = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
    assert_eq!(
        run(fresh.cube(), &CubeQuery::default()).unwrap(),
        run(&scratch, &CubeQuery::default()).unwrap(),
        "folded base must equal a fresh materialization"
    );
    assert_eq!(
        fresh.cube().live_row_count(),
        sparql_complete_observations(&endpoint),
        "folded base must serve exactly the rows SPARQL sees"
    );
}

#[test]
fn refused_serves_leave_no_delta_strategy_in_the_reports() {
    let (endpoint, schema) = fixture(AggregateFunction::Sum);
    let catalog = CubeCatalog::new();
    catalog.serve_settled(&endpoint, &schema).unwrap();
    refused_mutation(&endpoint);
    catalog.serve_settled(&endpoint, &schema).unwrap();
    let strategies: Vec<MaintenanceStrategy> = catalog
        .reports(&schema.dataset)
        .iter()
        .map(|r| r.strategy)
        .collect();
    assert_eq!(
        strategies,
        vec![MaintenanceStrategy::Fresh, MaintenanceStrategy::Rebuild],
        "exactly one fresh build and one refusal-rebuild"
    );
}

/// One shape a retired refusal kind used to refuse: store state
/// established before the first build, the mutation that must now apply as
/// a delta, the deltas it makes and the live rows it forgets.
struct RetiredShape {
    name: &'static str,
    setup: fn(&LocalEndpoint),
    mutate: fn(&LocalEndpoint),
    deltas: usize,
    tombstoned: usize,
}

/// An observation of the fixture's dataset that the build drops: no score.
fn seed_scoreless(endpoint: &LocalEndpoint) {
    endpoint
        .insert_triples(&[
            Triple::new(obs("bad"), rdfv::type_(), Term::Iri(qb::observation())),
            Triple::new(obs("bad"), qb::data_set(), Term::Iri(iri("ds"))),
            Triple::new(obs("bad"), iri("lv/city"), member("c1")),
            Triple::new(obs("bad"), iri("lv/month"), member("m1")),
            Triple::new(obs("bad"), iri("measure/value"), Literal::integer(1)),
        ])
        .unwrap();
}

/// A second city on the fixture's o1, which the build's row does not keep
/// (c1 sorts first).
fn seed_second_city(endpoint: &LocalEndpoint) {
    endpoint
        .insert_triples(&[Triple::new(obs("o1"), iri("lv/city"), member("c2"))])
        .unwrap();
}

/// A new observation o9: typed, linked, city c1, month m1, plus `extra`.
fn insert_o9(endpoint: &LocalEndpoint, extra: &[(&str, Term)]) {
    let mut triples = vec![
        Triple::new(obs("o9"), rdfv::type_(), Term::Iri(qb::observation())),
        Triple::new(obs("o9"), qb::data_set(), Term::Iri(iri("ds"))),
        Triple::new(obs("o9"), iri("lv/city"), member("c1")),
        Triple::new(obs("o9"), iri("lv/month"), member("m1")),
    ];
    for (property, value) in extra {
        triples.push(Triple::new(obs("o9"), iri(property), value.clone()));
    }
    endpoint.insert_triples(&triples).unwrap();
}

const RETIRED_SHAPES: [RetiredShape; 8] = [
    RetiredShape {
        name: "observation-mutated: a live observation gains a measure value",
        setup: no_setup,
        mutate: |endpoint| {
            endpoint
                .insert_triples(&[Triple::new(
                    obs("o1"),
                    iri("measure/value"),
                    Literal::integer(99),
                )])
                .unwrap();
        },
        deltas: 1,
        tombstoned: 1,
    },
    RetiredShape {
        name: "observation-mutated: the value the row did not keep is removed",
        setup: seed_second_city,
        mutate: |endpoint| {
            assert!(endpoint
                .store()
                .remove(&Triple::new(obs("o1"), iri("lv/city"), member("c2"))));
        },
        deltas: 1,
        tombstoned: 1,
    },
    RetiredShape {
        name: "observation-mutated: the kept value of a duplicated slot is removed",
        setup: seed_second_city,
        mutate: |endpoint| {
            assert!(endpoint
                .store()
                .remove(&Triple::new(obs("o1"), iri("lv/city"), member("c1"))));
        },
        deltas: 1,
        tombstoned: 1,
    },
    RetiredShape {
        name: "dropped-observation-mutated: the missing measure arrives",
        setup: seed_scoreless,
        mutate: |endpoint| {
            endpoint
                .insert_triples(&[Triple::new(
                    obs("bad"),
                    iri("measure/score"),
                    Literal::integer(2),
                )])
                .unwrap();
        },
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "dropped-observation-mutated: the dropped observation is unlinked",
        setup: seed_scoreless,
        mutate: |endpoint| {
            assert!(endpoint.store().remove(&Triple::new(
                obs("bad"),
                qb::data_set(),
                Term::Iri(iri("ds"))
            )));
        },
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "incomplete-observation: a new observation misses a measure",
        setup: no_setup,
        mutate: |endpoint| insert_o9(endpoint, &[("measure/value", Term::integer(5))]),
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "malformed-observation: a new observation has two cities",
        setup: no_setup,
        mutate: |endpoint| {
            insert_o9(
                endpoint,
                &[
                    ("lv/city", member("c2")),
                    ("measure/value", Term::integer(5)),
                    ("measure/score", Term::integer(6)),
                ],
            )
        },
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "no-op: a live observation loses a link to another dataset",
        setup: |endpoint| {
            endpoint
                .insert_triples(&[Triple::new(
                    obs("o1"),
                    qb::data_set(),
                    Term::Iri(iri("otherDs")),
                )])
                .unwrap();
        },
        mutate: |endpoint| {
            assert!(endpoint.store().remove(&Triple::new(
                obs("o1"),
                qb::data_set(),
                Term::Iri(iri("otherDs"))
            )));
        },
        deltas: 1,
        tombstoned: 0,
    },
];

/// Serves the fixture, applies the shape's mutation, and asserts the next
/// serve replays it as a delta whose cube equals a scratch build.
fn assert_applies_as_a_delta_equal_to_a_rebuild(shape: &RetiredShape) {
    let name = shape.name;
    let (endpoint, schema) = fixture(AggregateFunction::Sum);
    (shape.setup)(&endpoint);
    let catalog = CubeCatalog::new();
    catalog.serve_settled(&endpoint, &schema).unwrap();

    (shape.mutate)(&endpoint);
    let served = catalog
        .serve_settled(&endpoint, &schema)
        .unwrap()
        .cube()
        .clone();
    let report = catalog.last_report(&schema.dataset).unwrap();
    assert_eq!(
        report.strategy,
        MaintenanceStrategy::Delta,
        "{name}: {report:?}"
    );
    assert_eq!(
        report.deltas_applied, shape.deltas,
        "{name}: deltas replayed"
    );
    assert_matches_scratch_build(&endpoint, &served, name);
    assert_eq!(
        served.live_row_count(),
        sparql_complete_observations(&endpoint),
        "{name}: the delta-served cube must serve exactly the rows SPARQL sees"
    );
    assert_eq!(
        served.tombstoned_rows(),
        shape.tombstoned,
        "{name}: rows forgotten"
    );
}

#[test]
fn retired_observation_shapes_apply_as_deltas_equal_to_a_rebuild() {
    for shape in &RETIRED_SHAPES {
        assert_applies_as_a_delta_equal_to_a_rebuild(shape);
    }
}

/// Sets K1's `countryName` beside the fixture's "Alpha".
fn second_country_name(endpoint: &LocalEndpoint, name: &str) {
    endpoint
        .insert_triples(&[qb4olap::attribute_triple(
            &member("K1"),
            &iri("attr/countryName"),
            &Term::Literal(Literal::string(name)),
        )])
        .unwrap();
}

/// Labels the fixture's dataset.
fn label_dataset(endpoint: &LocalEndpoint, label: &str) {
    endpoint
        .insert_triples(&[Triple::new(
            Term::Iri(iri("ds")),
            rdfs::label(),
            Literal::string(label),
        )])
        .unwrap();
}

const RETIRED_HIERARCHY_SHAPES: [RetiredShape; 12] = [
    RetiredShape {
        name: "rollup-link-added: the ragged, materialized c3 gains a country",
        setup: no_setup,
        mutate: |endpoint| {
            endpoint
                .insert_triples(&[qb4olap::rollup_triple(&member("c3"), &member("K1"))])
                .unwrap();
        },
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "rollup-link-removed: c1 loses its country",
        setup: no_setup,
        mutate: |endpoint| {
            assert!(endpoint
                .store()
                .remove(&qb4olap::rollup_triple(&member("c1"), &member("K1"))));
        },
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "member-removed: m1 is no longer a month",
        setup: no_setup,
        mutate: |endpoint| {
            assert!(endpoint
                .store()
                .remove(&qb4olap::member_of_triple(&member("m1"), &iri("lv/month"))));
        },
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "member-conflict: c1, in the city column, is declared a month",
        setup: no_setup,
        mutate: |endpoint| {
            endpoint
                .insert_triples(&[qb4olap::member_of_triple(&member("c1"), &iri("lv/month"))])
                .unwrap();
        },
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "attribute-conflict: K1 gains a name sorting after \"Alpha\"",
        setup: no_setup,
        mutate: |endpoint| second_country_name(endpoint, "Zeta"),
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "attribute-conflict: K1 gains a name sorting before \"Alpha\", which wins",
        setup: no_setup,
        mutate: |endpoint| second_country_name(endpoint, "Aardvark"),
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "attribute-removed: K1 loses its name",
        setup: no_setup,
        mutate: |endpoint| {
            assert!(endpoint.store().remove(&qb4olap::attribute_triple(
                &member("K1"),
                &iri("attr/countryName"),
                &Term::Literal(Literal::string("Alpha")),
            )));
        },
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "unknown-member-attribute: a name for K9, which no level declares",
        setup: no_setup,
        mutate: |endpoint| {
            endpoint
                .insert_triples(&[qb4olap::attribute_triple(
                    &member("K9"),
                    &iri("attr/countryName"),
                    &Term::Literal(Literal::string("Nine")),
                )])
                .unwrap();
        },
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "dataset-label-changed: the labeled dataset gains a second label",
        setup: |endpoint| label_dataset(endpoint, "Fixture cube"),
        mutate: |endpoint| label_dataset(endpoint, "Renamed cube"),
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "unknown-member-attribute: a new observation carries a label",
        setup: no_setup,
        mutate: |endpoint| {
            let mut o9 = observation_triples("o9", "c1", "m1", 5, 6);
            o9.push(Triple::new(
                obs("o9"),
                rdfs::label(),
                Literal::string("nine"),
            ));
            endpoint.insert_triples(&o9).unwrap();
        },
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "unknown-member-attribute: an unlinked observation gains a label",
        setup: |endpoint| {
            assert!(endpoint.store().remove(&Triple::new(
                obs("o3"),
                qb::data_set(),
                Term::Iri(iri("ds"))
            )));
        },
        mutate: |endpoint| {
            endpoint
                .insert_triples(&[Triple::new(
                    obs("o3"),
                    rdfs::label(),
                    Literal::string("three"),
                )])
                .unwrap();
        },
        deltas: 1,
        tombstoned: 0,
    },
    RetiredShape {
        name: "rollup-link-removed, then added back: c1 → K1 cut and restored in one replay",
        setup: no_setup,
        mutate: |endpoint| {
            let link = qb4olap::rollup_triple(&member("c1"), &member("K1"));
            assert!(endpoint.store().remove(&link));
            endpoint.insert_triples(&[link]).unwrap();
        },
        deltas: 2,
        tombstoned: 0,
    },
];

#[test]
fn retired_hierarchy_shapes_apply_as_deltas_equal_to_a_rebuild() {
    for shape in &RETIRED_HIERARCHY_SHAPES {
        assert_applies_as_a_delta_equal_to_a_rebuild(shape);
    }
}

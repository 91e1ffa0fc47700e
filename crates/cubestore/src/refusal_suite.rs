//! The refusal suite: one minimal triggering delta per [`RefusalKind`],
//! proving (a) the classifier reports exactly that kind with a meaningful
//! detail, and (b) the catalog's fallback rebuild restores parity with a
//! from-scratch materialization — and with what SPARQL sees — on the
//! mutated store.
//!
//! The kind → trigger mapping is an exhaustive `match`: adding a refusal
//! kind fails compilation here until its minimal trigger (and expected
//! detail) is written down.
//!
//! The shapes of the retired observation kinds (`ObservationMutated`,
//! `DroppedObservationMutated`, `IncompleteObservation`,
//! `MalformedObservation`) now apply as deltas; one table-driven test
//! keeps them equal to a rebuild.

use qb4olap::AggregateFunction;
use rdf::vocab::{qb, qb4o, rdf as rdfv, rdfs};
use rdf::{Literal, Term, Triple};
use sparql::{Endpoint, LocalEndpoint};

use crate::catalog::{CubeCatalog, MaintenanceStrategy, RebuildReason};
use crate::executor::CubeQuery;
use crate::testutil::{fixture, iri, member, rollup_to_country, run};
use crate::{MaterializedCube, RefusalKind};

/// One refusal scenario: optional store state established *before* the
/// first build, the minimal refused mutation, and the detail fragment the
/// refusal must carry.
struct Trigger {
    /// Store preparation applied before the first `serve` (e.g. seeding a
    /// dropped observation the build must have classified).
    setup: fn(&LocalEndpoint),
    /// The minimal mutation whose delta the classifier must refuse.
    mutate: fn(&LocalEndpoint),
    /// A fragment the refusal's human-readable detail must contain.
    detail_fragment: &'static str,
}

fn obs(name: &str) -> Term {
    Term::iri(format!("http://example.org/obs/{name}"))
}

fn no_setup(_: &LocalEndpoint) {}

/// The minimal trigger for each refusal kind. Wildcard-free on purpose.
fn trigger_for(kind: RefusalKind) -> Trigger {
    match kind {
        RefusalKind::SchemaStructure => Trigger {
            setup: no_setup,
            mutate: |endpoint| {
                endpoint
                    .insert_triples(&[Triple::new(
                        Term::Iri(iri("dsdQB4O")),
                        qb4o::has_level(),
                        Term::Iri(iri("lv/quarter")),
                    )])
                    .unwrap();
            },
            detail_fragment: "schema/hierarchy triple inserted",
        },
        RefusalKind::RollupLinkAdded => Trigger {
            setup: no_setup,
            // c3 is the ragged city frozen into the fact columns; giving it
            // a country after the build invalidates its roll-up entries.
            mutate: |endpoint| {
                endpoint
                    .insert_triples(&[qb4olap::rollup_triple(&member("c3"), &member("K1"))])
                    .unwrap();
            },
            detail_fragment: "roll-up link added",
        },
        RefusalKind::RollupLinkRemoved => Trigger {
            setup: no_setup,
            mutate: |endpoint| {
                assert!(endpoint
                    .store()
                    .remove(&qb4olap::rollup_triple(&member("c1"), &member("K1"))));
            },
            detail_fragment: "roll-up link removed",
        },
        RefusalKind::MemberRemoved => Trigger {
            setup: no_setup,
            mutate: |endpoint| {
                assert!(endpoint
                    .store()
                    .remove(&qb4olap::member_of_triple(&member("m1"), &iri("lv/month"))));
            },
            detail_fragment: "removed from level",
        },
        RefusalKind::MemberConflict => Trigger {
            setup: no_setup,
            // c1 already sits in the city fact column; declaring it a month
            // member would have changed the build's roll-up maps.
            mutate: |endpoint| {
                endpoint
                    .insert_triples(&[qb4olap::member_of_triple(&member("c1"), &iri("lv/month"))])
                    .unwrap();
            },
            detail_fragment: "already present in the fact columns",
        },
        RefusalKind::AttributeConflict => Trigger {
            setup: no_setup,
            mutate: |endpoint| {
                endpoint
                    .insert_triples(&[qb4olap::attribute_triple(
                        &member("K1"),
                        &iri("attr/countryName"),
                        &Term::Literal(Literal::string("Zeta")),
                    )])
                    .unwrap();
            },
            detail_fragment: "second value for attribute",
        },
        RefusalKind::AttributeRemoved => Trigger {
            setup: no_setup,
            mutate: |endpoint| {
                assert!(endpoint.store().remove(&qb4olap::attribute_triple(
                    &member("K1"),
                    &iri("attr/countryName"),
                    &Term::Literal(Literal::string("Alpha")),
                )));
            },
            detail_fragment: "attribute value removed",
        },
        RefusalKind::UnknownMemberAttribute => Trigger {
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
            detail_fragment: "unknown member",
        },
        RefusalKind::DatasetLabelChanged => Trigger {
            setup: |endpoint| {
                endpoint
                    .insert_triples(&[Triple::new(
                        Term::Iri(iri("ds")),
                        rdfs::label(),
                        Literal::string("Fixture cube"),
                    )])
                    .unwrap();
            },
            mutate: |endpoint| {
                endpoint
                    .insert_triples(&[Triple::new(
                        Term::Iri(iri("ds")),
                        rdfs::label(),
                        Literal::string("Renamed cube"),
                    )])
                    .unwrap();
            },
            detail_fragment: "dataset label changed",
        },
    }
}

/// Observations SPARQL sees as complete (typed, linked, every dimension
/// and measure bound), counted over the live store.
fn sparql_complete_observations(endpoint: &LocalEndpoint) -> usize {
    endpoint
        .select(
            "SELECT DISTINCT ?o WHERE { \
               ?o <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
                  <http://purl.org/linked-data/cube#Observation> . \
               ?o <http://purl.org/linked-data/cube#dataSet> <http://example.org/ds> . \
               ?o <http://example.org/lv/city> ?c . \
               ?o <http://example.org/lv/month> ?m . \
               ?o <http://example.org/measure/value> ?v . \
               ?o <http://example.org/measure/score> ?s . }",
        )
        .expect("the parity count query evaluates")
        .rows
        .len()
}

#[test]
fn every_refusal_kind_has_a_minimal_trigger_and_a_clean_rebuild() {
    for kind in RefusalKind::ALL {
        let trigger = trigger_for(kind);
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        (trigger.setup)(&endpoint);
        let catalog = CubeCatalog::new();
        catalog.serve_settled(&endpoint, &schema).unwrap();

        (trigger.mutate)(&endpoint);
        let rebuilt = catalog.serve_settled(&endpoint, &schema).unwrap().cube().clone();

        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(
            report.strategy,
            MaintenanceStrategy::Rebuild,
            "{kind}: the refused delta must fall back to a rebuild"
        );
        let Some(RebuildReason::DeltaRefused(refusal)) = report.reason else {
            panic!("{kind}: expected a delta refusal, got {:?}", report.reason);
        };
        assert_eq!(refusal.kind, kind, "the classifier reports the exact kind");
        assert!(
            refusal.detail.contains(trigger.detail_fragment),
            "{kind}: detail {:?} should mention {:?}",
            refusal.detail,
            trigger.detail_fragment
        );
        assert!(
            refusal.to_string().contains(kind.name()),
            "the rendered refusal names its kind"
        );

        // Parity: the fallback result is bit-identical to a from-scratch
        // materialization of the mutated store…
        let scratch = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        assert_eq!(
            run(&rebuilt, &CubeQuery::default()).unwrap(),
            run(&scratch, &CubeQuery::default()).unwrap(),
            "{kind}: rebuilt cube must equal a fresh materialization"
        );
        // …and its live rows agree with what SPARQL counts as complete
        // observations on the same store.
        assert_eq!(
            rebuilt.live_row_count(),
            sparql_complete_observations(&endpoint),
            "{kind}: rebuilt cube must serve exactly the rows SPARQL sees"
        );
    }
}

#[test]
fn every_refusal_kind_degrades_to_a_background_rebuild_on_the_snapshot_path() {
    for kind in RefusalKind::ALL {
        let trigger = trigger_for(kind);
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        (trigger.setup)(&endpoint);
        let catalog = CubeCatalog::new();
        let initial = catalog.serve_snapshot(&endpoint, &schema).unwrap();
        let pinned_epoch = initial.epoch();

        (trigger.mutate)(&endpoint);
        // The reader is never blocked on the structural change: it gets
        // the stale-but-consistent pre-mutation pin back immediately
        // while the rebuild runs behind it.
        let stale = catalog.serve_snapshot(&endpoint, &schema).unwrap();
        stale.verify_consistent().unwrap();
        assert_eq!(
            stale.epoch(),
            pinned_epoch,
            "{kind}: the stale pin stays at the pre-mutation epoch"
        );
        assert_eq!(
            run(stale.cube(), &CubeQuery::default()).unwrap(),
            run(initial.cube(), &CubeQuery::default()).unwrap(),
            "{kind}: the stale snapshot serves the pinned state unchanged"
        );

        catalog.wait_for_maintenance(&schema.dataset);
        let fresh = catalog.current_snapshot(&schema.dataset).unwrap();
        assert_eq!(fresh.plan_line(), "OVERLAY none", "{kind}: the fold reset the record");
        assert_eq!(fresh.since_fold().fold_epoch, endpoint.epoch());
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(
            report.strategy,
            MaintenanceStrategy::Rebuild,
            "{kind}: the background fold is a rebuild"
        );
        let Some(RebuildReason::DeltaRefused(refusal)) = &report.reason else {
            panic!("{kind}: expected a delta refusal, got {:?}", report.reason);
        };
        assert_eq!(refusal.kind, kind, "the classifier reports the exact kind");
        assert!(
            report.overlap.is_some(),
            "{kind}: the fold records the stale-serving overlap window"
        );

        // Parity after the fold: the published base is bit-identical to a
        // from-scratch materialization and agrees with SPARQL row counts.
        let scratch = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        assert_eq!(
            run(fresh.cube(), &CubeQuery::default()).unwrap(),
            run(&scratch, &CubeQuery::default()).unwrap(),
            "{kind}: folded base must equal a fresh materialization"
        );
        assert_eq!(
            fresh.cube().live_row_count(),
            sparql_complete_observations(&endpoint),
            "{kind}: folded base must serve exactly the rows SPARQL sees"
        );
    }
}

#[test]
fn refused_serves_leave_no_delta_strategy_in_the_reports() {
    for kind in RefusalKind::ALL {
        let trigger = trigger_for(kind);
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        (trigger.setup)(&endpoint);
        let catalog = CubeCatalog::new();
        catalog.serve_settled(&endpoint, &schema).unwrap();
        (trigger.mutate)(&endpoint);
        catalog.serve_settled(&endpoint, &schema).unwrap();
        let strategies: Vec<MaintenanceStrategy> = catalog
            .reports(&schema.dataset)
            .iter()
            .map(|r| r.strategy)
            .collect();
        assert_eq!(
            strategies,
            vec![MaintenanceStrategy::Fresh, MaintenanceStrategy::Rebuild],
            "{kind}: exactly one fresh build and one refusal-rebuild"
        );
    }
}

/// One shape a retired observation refusal kind used to refuse, with a
/// no-op next to them: store state established before the first build, the
/// mutation that must now apply as a delta, and the live rows it forgets.
struct RetiredShape {
    name: &'static str,
    setup: fn(&LocalEndpoint),
    mutate: fn(&LocalEndpoint),
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
        tombstoned: 0,
    },
    RetiredShape {
        name: "dropped-observation-mutated: the dropped observation is unlinked",
        setup: seed_scoreless,
        mutate: |endpoint| {
            assert!(endpoint
                .store()
                .remove(&Triple::new(obs("bad"), qb::data_set(), Term::Iri(iri("ds")))));
        },
        tombstoned: 0,
    },
    RetiredShape {
        name: "incomplete-observation: a new observation misses a measure",
        setup: no_setup,
        mutate: |endpoint| insert_o9(endpoint, &[("measure/value", Term::integer(5))]),
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
            assert!(endpoint
                .store()
                .remove(&Triple::new(obs("o1"), qb::data_set(), Term::Iri(iri("otherDs")))));
        },
        tombstoned: 0,
    },
];

#[test]
fn retired_observation_shapes_apply_as_deltas_equal_to_a_rebuild() {
    for shape in &RETIRED_SHAPES {
        let name = shape.name;
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        (shape.setup)(&endpoint);
        let catalog = CubeCatalog::new();
        catalog.serve_settled(&endpoint, &schema).unwrap();

        (shape.mutate)(&endpoint);
        let served = catalog.serve_settled(&endpoint, &schema).unwrap().cube().clone();
        let report = catalog.last_report(&schema.dataset).unwrap();
        assert_eq!(report.strategy, MaintenanceStrategy::Delta, "{name}: {report:?}");
        assert_eq!(report.deltas_applied, 1, "{name}: the mutation is one delta");

        let scratch = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        for query in [CubeQuery::default(), rollup_to_country()] {
            assert_eq!(
                run(&served, &query).unwrap(),
                run(&scratch, &query).unwrap(),
                "{name}: the delta-served cube must equal a fresh materialization"
            );
        }
        assert_eq!(served.stats(), scratch.stats(), "{name}: build counters");
        assert_eq!(
            served.dropped_observations, scratch.dropped_observations,
            "{name}: dropped set"
        );
        assert_eq!(
            served.live_row_count(),
            sparql_complete_observations(&endpoint),
            "{name}: the delta-served cube must serve exactly the rows SPARQL sees"
        );
        assert_eq!(served.tombstoned_rows(), shape.tombstoned, "{name}: rows forgotten");
    }
}

//! Observability gates (wired into `ci.sh`):
//!
//! * **explain-smoke** — `EXPLAIN ANALYZE` on a workload query must name
//!   every pipeline step with timings and row counts, on both execution
//!   backends, with a non-empty logical plan.
//! * **metrics-invariant** — a delta-only mutation run must report zero
//!   rebuilds *through the metrics snapshot* (`catalog.refresh.rebuild`),
//!   not by scraping maintenance reports, so the counters themselves are
//!   part of the contract.
//! * **pruning-visibility** — zone-map segment pruning must be observable
//!   through the query profile alone: a selective dice reports
//!   `segments_pruned > 0`, a full roll-up reports exactly zero, and the
//!   plan carries a `SEGMENTS` line.

use qb2olap::{Endpoint, ExecutionBackend, Qb2Olap, SparqlVariant};
use rdf::vocab::{eurostat_property, qb, rdf as rdfv, sdmx_measure};
use rdf::{Literal, Term, Triple};

#[test]
fn explain_smoke_profiles_every_pipeline_step_on_both_backends() {
    let cube = qb2olap::demo::setup_demo_cube(&datagen::EurostatConfig::small(400)).unwrap();
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let querying = tool.querying(&cube.dataset).unwrap();
    let prepared = querying.prepare(&datagen::workload::mary_query()).unwrap();

    let (sparql_cube, sparql_profile) = querying
        .execute_profiled(&prepared, SparqlVariant::Direct)
        .unwrap();
    assert_eq!(
        sparql_profile.step_names(),
        vec!["translate-sparql", "select", "assemble-cube"],
        "the SPARQL profile names every execution step"
    );
    assert!(
        !sparql_profile.plan.is_empty(),
        "the logical plan must not be empty"
    );
    assert_eq!(
        sparql_profile.plan.len(),
        prepared.pipeline.operation_count(),
        "one plan line per pipeline operation"
    );

    let (columnar_cube, columnar_profile) = querying
        .execute_profiled(&prepared, ExecutionBackend::Columnar)
        .unwrap();
    assert_eq!(
        columnar_profile.step_names(),
        vec![
            "materialize",
            "plan-axes",
            "compile-filters",
            "scan",
            "aggregate",
            "assemble-cube"
        ],
        "the columnar profile names every execution step"
    );
    assert!(!columnar_profile.plan.is_empty());
    assert_eq!(
        sparql_cube, columnar_cube,
        "profiling must not break parity"
    );

    // The facade's EXPLAIN renders both backends with their plans, step
    // timings and row counts.
    let explained = tool
        .explain(&cube.dataset, &datagen::workload::mary_query())
        .unwrap();
    assert!(explained.contains("EXPLAIN ANALYZE (backend=sparql:direct"));
    assert!(explained.contains("EXPLAIN ANALYZE (backend=columnar"));
    assert!(explained.contains("SLICE dimension=<"));
    assert!(explained.contains("rows="));
    assert!(explained.contains("scan"));
}

#[test]
fn query_profiles_expose_segment_pruning_through_the_profile_alone() {
    let cube = qb2olap::demo::setup_demo_cube(&datagen::EurostatConfig::small(400)).unwrap();
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let querying = tool.querying(&cube.dataset).unwrap();

    // A dice on a continent that does not exist: the zone maps prove every
    // segment irrelevant, so the scan visits nothing — and the profile
    // says so without any access to the executor internals.
    let atlantis = "PREFIX data: <http://eurostat.linked-statistics.org/data/>;
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
QUERY
$C1 := ROLLUP (data:migr_asyappctzm, schema:citizenshipDim, schema:continent);
$C2 := DICE ($C1, schema:citizenshipDim|schema:continent|schema:continentName = \"Atlantis\");
";
    let prepared = querying.prepare(atlantis).unwrap();
    let (result, profile) = querying
        .execute_profiled(&prepared, ExecutionBackend::Columnar)
        .unwrap();
    assert!(result.is_empty(), "no observation is Atlantean");
    assert!(
        profile.counter("segments_pruned") >= 1,
        "a selective dice must prune:\n{:?}",
        profile.counters
    );
    assert!(
        profile.counter("segments_pruned") + profile.counter("segments_dead")
            <= profile.counter("segments_total"),
        "segment counters must stay monotone:\n{:?}",
        profile.counters
    );
    assert_eq!(
        profile.counter("rows_scanned"),
        0,
        "pruned segments are never read"
    );
    assert!(
        profile
            .plan
            .iter()
            .any(|line| line.starts_with("SEGMENTS ")),
        "the plan carries the segment summary:\n{:?}",
        profile.plan
    );

    // A full roll-up with no dice cannot prune anything.
    let prepared = querying
        .prepare(&datagen::workload::totals_by_citizenship())
        .unwrap();
    let (_, profile) = querying
        .execute_profiled(&prepared, ExecutionBackend::Columnar)
        .unwrap();
    assert_eq!(
        profile.counter("segments_pruned"),
        0,
        "nothing to prune without a dice:\n{:?}",
        profile.counters
    );
    assert!(profile.counter("segments_total") >= 1);

    // The same facts flow into the process-wide metrics registry.
    let snapshot = tool.metrics();
    assert!(snapshot.counter("cubestore.scan.segments_total") >= 2);
    assert!(snapshot.counter("cubestore.scan.segments_pruned") >= 1);
}

#[test]
fn delta_only_mutation_run_reports_zero_rebuilds_via_the_snapshot() {
    let cube = qb2olap::demo::setup_demo_cube(&datagen::EurostatConfig::small(300)).unwrap();
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let querying = tool.querying(&cube.dataset).unwrap();
    let prepared = querying
        .prepare(&datagen::workload::totals_by_citizenship())
        .unwrap();
    querying
        .execute(&prepared, ExecutionBackend::Columnar)
        .unwrap();

    // Five pure appends — the incremental-maintenance sweet spot: each one
    // must refresh the served columns via the delta path.
    for i in 0..5u32 {
        let node = Term::iri(format!("http://example.org/obs/obs-late-{i}"));
        cube.endpoint
            .insert_triples(&[
                Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())),
                Triple::new(
                    node.clone(),
                    qb::data_set(),
                    Term::Iri(cube.dataset.clone()),
                ),
                Triple::new(
                    node.clone(),
                    eurostat_property::citizen(),
                    datagen::eurostat::citizen_member("SY"),
                ),
                Triple::new(
                    node,
                    sdmx_measure::obs_value(),
                    Literal::integer(10 + i as i64),
                ),
            ])
            .unwrap();
        querying
            .execute(&prepared, ExecutionBackend::Columnar)
            .unwrap();
    }

    // The invariant is asserted on the metrics snapshot alone.
    let snapshot = tool.metrics();
    assert_eq!(
        snapshot.counter("catalog.refresh.fresh"),
        1,
        "exactly one initial materialization"
    );
    assert!(
        snapshot.counter("catalog.refresh.delta") >= 5,
        "every append must refresh via the delta path:\n{}",
        snapshot.render_text()
    );
    assert_eq!(
        snapshot.counter("catalog.refresh.rebuild"),
        0,
        "a delta-only mutation run must never rebuild:\n{}",
        snapshot.render_text()
    );
    assert_eq!(
        snapshot.counter_prefix_sum("catalog.refusal."),
        0,
        "no delta refusals on pure appends"
    );
    assert!(snapshot.counter("ql.execute.columnar") >= 6);
}

//! The zone-map pruning differential gate (EXPERIMENTS.md §E17 support).
//!
//! Pruning must be invisible in results and visible only in the scan
//! counters: every query in the battery returns *bit-identical* cubes with
//! pruning on and off, while the counters stay monotone
//! (`segments_pruned + segments_dead <= segments_total`, pruned scans never
//! read more rows than unpruned ones) and collapse to zero when pruning is
//! disabled. The battery runs on the time-ordered
//! generator layout, where a leaf-month dice provably skips whole
//! segments.
//!
//! The switch is `ExecOptions::prune`; the qlsmith campaign's
//! `columnar-unpruned` leg checks the same property on every generated
//! program.

use std::collections::BTreeMap;

use cubestore::{
    execute, CubeQuery, CubeStoreError, ExecOptions, MaterializedCube, MeasureFilter, MemberFilter,
    MemberPredicate, QueryOutput, ScanStats,
};
use qb2olap::{demo, Qb2Olap};
use rdf::vocab::{demo_schema, rdfs, sdmx_dimension};
use sparql::ast::CmpOp;

/// One execution at an explicit pruning switch.
fn run(
    cube: &MaterializedCube,
    query: &CubeQuery,
    prune: bool,
) -> Result<(QueryOutput, ScanStats), CubeStoreError> {
    execute(cube, query, &ExecOptions { prune }, None)
}

/// A dice comparing a level attribute's string form with a constant.
fn attribute_dice(
    dimension: rdf::Iri,
    level: rdf::Iri,
    attribute: rdf::Iri,
    value: &str,
) -> MemberFilter {
    MemberFilter::Compare {
        dimension,
        level,
        attribute,
        predicate: MemberPredicate::Str {
            op: CmpOp::Eq,
            value: value.to_string(),
        },
    }
}

/// The query battery: full scans, clustered and unclustered dices, slices,
/// roll-ups and a HAVING filter — enough shapes to cover every branch of
/// the segment-pruning decision (`segment_prunable`).
fn query_battery() -> Vec<(&'static str, CubeQuery)> {
    let time_dim = demo_schema::time_dim();
    let month = sdmx_dimension::ref_period();
    let year = demo_schema::year();
    let citizenship = demo_schema::citizenship_dim();
    let continent = demo_schema::continent();
    vec![
        ("bottom-level cube", CubeQuery::default()),
        (
            "full rollup, no dice",
            CubeQuery {
                rollups: BTreeMap::from([
                    (citizenship.clone(), continent.clone()),
                    (time_dim.clone(), year.clone()),
                ]),
                ..CubeQuery::default()
            },
        ),
        (
            "leaf month dice (clustered)",
            CubeQuery {
                member_filters: vec![attribute_dice(
                    time_dim.clone(),
                    month.clone(),
                    rdfs::label(),
                    "2013-01",
                )],
                ..CubeQuery::default()
            },
        ),
        (
            "mid-level year dice",
            CubeQuery {
                rollups: BTreeMap::from([(time_dim.clone(), year.clone())]),
                member_filters: vec![attribute_dice(
                    time_dim.clone(),
                    year,
                    rdfs::label(),
                    "2014",
                )],
                ..CubeQuery::default()
            },
        ),
        (
            "continent dice (unclustered)",
            CubeQuery {
                rollups: BTreeMap::from([(citizenship.clone(), continent.clone())]),
                member_filters: vec![attribute_dice(
                    citizenship,
                    continent,
                    demo_schema::continent_name(),
                    "Africa",
                )],
                ..CubeQuery::default()
            },
        ),
        (
            "slice + leaf dice + having",
            CubeQuery {
                slices: vec![demo_schema::term("sexDim"), demo_schema::term("ageDim")],
                member_filters: vec![attribute_dice(time_dim, month, rdfs::label(), "2013-02")],
                measure_filters: vec![MeasureFilter::Compare {
                    measure: rdf::vocab::sdmx_measure::obs_value(),
                    op: CmpOp::Gt,
                    value: rdf::Term::Literal(rdf::Literal::integer(0)),
                }],
                ..CubeQuery::default()
            },
        ),
    ]
}

#[test]
fn battery_is_bit_identical_with_pruning_on_and_off() {
    // 12k time-ordered observations ≈ 3 segments, month "2013-01" fully
    // inside segment 0.
    let config = datagen::EurostatConfig {
        observations: 12_000,
        time_ordered: true,
        ..Default::default()
    };
    let demo = demo::setup_demo_cube(&config).unwrap();
    let tool = Qb2Olap::new(demo.endpoint.clone());
    let querying = tool.querying(&demo.dataset).unwrap();
    let cube = querying.materialize().unwrap();
    cube.verify_zone_invariants().unwrap();
    let live_rows = cube.live_row_count() as u64;

    for (name, query) in query_battery() {
        let (baseline, unpruned) =
            run(&cube, &query, false).unwrap_or_else(|e| panic!("'{name}' failed unpruned: {e}"));
        assert_eq!(
            unpruned.segments_pruned, 0,
            "'{name}': pruning was disabled"
        );
        assert_eq!(
            unpruned.rows_scanned, live_rows,
            "'{name}': unpruned scans all live rows"
        );

        let (output, stats) =
            run(&cube, &query, true).unwrap_or_else(|e| panic!("'{name}' failed pruned: {e}"));
        assert_eq!(output, baseline, "'{name}' diverges with pruning on");
        // Monotone sanity on the segment counters.
        assert!(
            stats.segments_pruned + stats.segments_dead <= stats.segments_total,
            "'{name}': pruned {} + dead {} > total {}",
            stats.segments_pruned,
            stats.segments_dead,
            stats.segments_total
        );
        assert!(
            stats.rows_scanned <= unpruned.rows_scanned,
            "'{name}': pruning increased rows scanned"
        );
    }

    // The clustered leaf dice actually exercises the pruner: on the
    // time-ordered layout the first month lives entirely in segment 0, so
    // the other segments are skipped and the scan touches a fraction of
    // the live rows.
    let (_, query) = query_battery().swap_remove(2);
    let (_, stats) = run(&cube, &query, true).unwrap();
    assert!(stats.segments_total >= 3, "expected a multi-segment cube");
    assert!(
        stats.segments_pruned >= stats.segments_total - 1,
        "leaf dice pruned {} of {} segments",
        stats.segments_pruned,
        stats.segments_total
    );
    assert!(
        stats.rows_scanned < live_rows / 2,
        "leaf dice scanned {} of {live_rows} live rows",
        stats.rows_scanned
    );

    // A full-rollup query with no dice prunes nothing.
    let (_, query) = query_battery().swap_remove(1);
    let (_, stats) = run(&cube, &query, true).unwrap();
    assert_eq!(stats.segments_pruned, 0, "nothing to prune without a dice");
}

//! E17 — zone-map segment pruning: selective dices at the leaf (month),
//! middle (year) and top (continent) of the demo hierarchies against the
//! full roll-up, on the time-ordered generator layout at the paper's 80k
//! scale, each with pruning on and off. The pruned/full ratio per query is
//! the headline number of EXPERIMENTS.md §E17.
//!
//! The default scale is the paper's 80,000 observations; set
//! `QB2OLAP_BENCH_OBSERVATIONS` to run smaller.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qb2olap::cubestore::{
    auto_scan_threads, execute_with_options, CubeQuery, ExecOptions, MemberFilter, MemberPredicate,
};
use qb2olap::Qb2Olap;
use qb2olap_bench::demo_cube_with;
use rdf::vocab::{demo_schema, rdfs, sdmx_dimension};
use sparql::ast::CmpOp;

fn dice(dimension: rdf::Iri, level: rdf::Iri, attribute: rdf::Iri, value: &str) -> MemberFilter {
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

fn bench_scan_pruning(c: &mut Criterion) {
    let observations = obs::env::usize_knob("QB2OLAP_BENCH_OBSERVATIONS", 80_000);
    let cube = demo_cube_with(&datagen::EurostatConfig {
        observations,
        time_ordered: true,
        ..Default::default()
    });
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let querying = tool.querying(&cube.dataset).expect("cube is enriched");
    let materialized = querying.materialize().expect("materialization");
    materialized.verify_zone_invariants().expect("zone maps verify");
    let threads = auto_scan_threads(materialized.live_row_count());

    let queries: Vec<(&str, CubeQuery)> = vec![
        (
            "leaf_month_dice",
            CubeQuery {
                member_filters: vec![dice(
                    demo_schema::time_dim(),
                    sdmx_dimension::ref_period(),
                    rdfs::label(),
                    "2013-01",
                )],
                ..CubeQuery::default()
            },
        ),
        (
            "mid_year_dice",
            CubeQuery {
                rollups: BTreeMap::from([(demo_schema::time_dim(), demo_schema::year())]),
                member_filters: vec![dice(
                    demo_schema::time_dim(),
                    demo_schema::year(),
                    rdfs::label(),
                    "2014",
                )],
                ..CubeQuery::default()
            },
        ),
        (
            "top_continent_dice",
            CubeQuery {
                rollups: BTreeMap::from([(
                    demo_schema::citizenship_dim(),
                    demo_schema::continent(),
                )]),
                member_filters: vec![dice(
                    demo_schema::citizenship_dim(),
                    demo_schema::continent(),
                    demo_schema::continent_name(),
                    "Africa",
                )],
                ..CubeQuery::default()
            },
        ),
        (
            "full_rollup",
            CubeQuery {
                rollups: BTreeMap::from([
                    (demo_schema::citizenship_dim(), demo_schema::continent()),
                    (demo_schema::time_dim(), demo_schema::year()),
                ]),
                ..CubeQuery::default()
            },
        ),
    ];

    let mut group = c.benchmark_group("scan_pruning");
    group.sample_size(10);
    for (name, query) in &queries {
        for (mode, prune) in [("pruned", true), ("full", false)] {
            group.bench_with_input(BenchmarkId::new(mode, name), query, |b, query| {
                b.iter(|| {
                    execute_with_options(&materialized, query, ExecOptions { threads, prune })
                        .unwrap()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scan_pruning);
criterion_main!(benches);

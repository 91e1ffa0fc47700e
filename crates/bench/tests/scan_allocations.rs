//! The columnar scan allocates per query and per group — never per row or
//! per segment. Checked by count, so the bound holds on any
//! machine: the same roll-up over a cube of 2 and of 10 sealed segments
//! produces the same groups, and must cost (nearly) the same number of
//! allocations although it visits five times the rows.

use qb2olap::cubestore::cowvec::SEGMENT_LEN;
use qb2olap::cubestore::{execute, CubeQuery, ExecOptions};
use qb2olap::rdf::Iri;
use qb2olap_bench::alloc_counter::{allocations, CountingAllocator};
use qb2olap_bench::demo_cube;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const SCHEMA: &str = "http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#";

/// Allocations one unpruned execution makes on a demo cube of
/// `segments` sealed segments — citizenship rolled up to continents, every
/// other dimension sliced — with the groups it produced.
fn execute_allocations(segments: usize) -> (u64, usize) {
    let cube = demo_cube(segments * SEGMENT_LEN);
    let tool = qb2olap::Qb2Olap::new(cube.endpoint.clone());
    let querying = tool
        .querying(&cube.dataset)
        .expect("the demo cube is enriched");
    let materialized = querying.materialize().expect("materializes");
    assert_eq!(materialized.row_count(), segments * SEGMENT_LEN);
    let citizenship = Iri::new(format!("{SCHEMA}citizenshipDim"));
    let query = CubeQuery {
        slices: materialized
            .schema()
            .dimensions
            .iter()
            .map(|dimension| dimension.iri.clone())
            .filter(|dimension| *dimension != citizenship)
            .collect(),
        rollups: [(citizenship, Iri::new(format!("{SCHEMA}continent")))].into(),
        ..CubeQuery::default()
    };
    let options = ExecOptions { prune: false };
    // Once unmeasured: lazily initialized statics allocate on first use.
    execute(&materialized, &query, &options, None).expect("executes");
    let before = allocations();
    let (output, stats) = execute(&materialized, &query, &options, None).expect("executes");
    let spent = allocations() - before;
    assert_eq!(stats.rows_scanned, (segments * SEGMENT_LEN) as u64);
    (spent, output.cells.len())
}

#[test]
fn scan_allocations_do_not_grow_with_the_rows_scanned() {
    let (small, small_groups) = execute_allocations(2);
    let (large, large_groups) = execute_allocations(10);
    assert!(small_groups > 1);
    assert_eq!(small_groups, large_groups, "the same groups at both sizes");
    // Eight more segments may cost a constant each (today: nothing; the
    // span list is one allocation at any size) — 8 × 4 096 more rows may not.
    const PER_SEGMENT: u64 = 2;
    assert!(
        large <= small + 8 * PER_SEGMENT,
        "{large} allocations over 10 segments against {small} over 2: the scan allocates per row"
    );
    // And in absolute terms: a handful per group, axis and measure.
    assert!(small < 200, "{small} allocations for {small_groups} groups");
}

//! The columnar scan allocates per query and per group — never per row or
//! per segment — and the `/ql` wire path on top of it (the coded execution
//! plus `coded_cube_to_json`) per distinct member, never per cell. Checked
//! by count, so the bounds hold on any machine:
//!
//! * the same roll-up over a cube of 2 and of 10 sealed segments produces
//!   the same groups, and must cost (nearly) the same number of
//!   allocations although it visits five times the rows;
//! * two roll-ups whose cell counts differ more than fivefold may differ in
//!   allocations by at most their difference in distinct members plus a
//!   small constant.

use std::sync::Mutex;

use qb2olap::cubestore::cowvec::SEGMENT_LEN;
use qb2olap::cubestore::{execute, CubeQuery, CubeSnapshot, ExecOptions};
use qb2olap::datagen::workload::PROLOGUE;
use qb2olap::rdf::Iri;
use qb2olap::QueryingModule;
use qb2olap_bench::alloc_counter::{allocations, CountingAllocator};
use qb2olap_bench::demo_cube;
use qb2olap_server::coded_cube_to_json;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The counter is process-wide: the tests take turns, so one's
/// allocations never land in the other's count.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

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
    (spent, output.len())
}

#[test]
fn scan_allocations_do_not_grow_with_the_rows_scanned() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
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

/// What the `/ql` wire path costs for one program on a settled pin:
/// allocations of `execute_coded_on_snapshot` plus `coded_cube_to_json`,
/// the cells returned and the distinct members the axes name.
fn wire_allocations(
    module: &QueryingModule<'_>,
    snapshot: &CubeSnapshot,
    operations: &str,
) -> (u64, usize, usize) {
    let prepared = module
        .prepare(&format!("{PROLOGUE}QUERY\n{operations}"))
        .expect("prepares");
    let serve = || {
        let coded = module
            .execute_coded_on_snapshot(&prepared, snapshot)
            .expect("executes");
        let body = coded_cube_to_json(&coded);
        (coded, body)
    };
    // Once unmeasured: lazily initialized statics allocate on first use.
    serve();
    let before = allocations();
    let (coded, body) = serve();
    let spent = allocations() - before;
    assert!(body.len() > 100);
    let members = (0..coded.output.axes.len())
        .map(|axis| coded.output.members(axis).len())
        .sum();
    (spent, coded.output.len(), members)
}

#[test]
fn wire_allocations_grow_with_distinct_members_not_cells() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let cube = demo_cube(2 * SEGMENT_LEN);
    let tool = qb2olap::Qb2Olap::new(cube.endpoint.clone());
    let module = tool
        .querying(&cube.dataset)
        .expect("the demo cube is enriched");
    let snapshot = module.snapshot_settled().expect("settled pin");
    let keep_citizenship_and_destination = "\
        $C1 := SLICE (data:migr_asyappctzm, schema:timeDim);
        $C2 := SLICE ($C1, schema:ageDim);
        $C3 := SLICE ($C2, schema:sexDim);
        $C4 := SLICE ($C3, schema:asylappDim);";
    // Continents × political organisations, then citizens × countries.
    let (small, small_cells, small_members) = wire_allocations(
        &module,
        &snapshot,
        &format!(
            "{keep_citizenship_and_destination}
        $C5 := ROLLUP ($C4, schema:citizenshipDim, schema:continent);
        $C6 := ROLLUP ($C5, schema:destinationDim, schema:politicalOrg);"
        ),
    );
    let (large, large_cells, large_members) =
        wire_allocations(&module, &snapshot, keep_citizenship_and_destination);
    assert!(small_cells > 1);
    assert!(
        large_cells >= 5 * small_cells,
        "{large_cells} cells against {small_cells}: not five times as many"
    );
    // Vectors that grow with the result double their capacity: a few
    // reallocations each (14 in all at 8 → 1 600 cells today).
    const CONSTANT: u64 = 16;
    let members = (large_members - small_members) as u64;
    assert!(
        large <= small + members + CONSTANT,
        "{large} allocations for {large_cells} cells ({large_members} members) against \
         {small} for {small_cells} ({small_members} members): the wire path allocates per cell"
    );
}

//! The id-level SPARQL evaluator allocates per query, per pattern and per
//! solution — never per intermediate row — and the cube build on top of it
//! allocates per distinct member, not per cell. Under both sits a triple
//! store whose bulk load allocates per distinct term, not per triple, and
//! whose background snapshot shares the indexes instead of copying them.
//! Checked by count, so the bounds hold on any machine: the same work over
//! a demo cube of 2 000 and of 8 000 observations touches four times the
//! triples and intermediate rows and must cost (nearly) the same number of
//! allocations beyond its output.

use qb2olap::cubestore::MaterializedCube;
use qb2olap::datagen::workload::mary_query;
use qb2olap::sparql::ConservativeEndpoint;
use qb2olap::{Endpoint, LocalEndpoint, SparqlVariant};
use qb2olap_bench::alloc_counter::{allocations, CountingAllocator};
use qb2olap_bench::demo_cube;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let value = f();
    (value, allocations() - before)
}

/// What one scale costs: (triples, allocations) of a bulk load into an
/// empty store and the allocations of a background handle on the enriched
/// store, (solutions, allocations) of the observation-pivot SELECT decoded,
/// dictionary-encoded, and dictionary-encoded through a wrapper that
/// forwards only `query`/`query_parsed`, and of Mary's translated SPARQL,
/// and (fact cells, allocations) of a cube build.
struct Scale {
    load: (u64, u64),
    handle: u64,
    pivot: (u64, u64),
    pivot_encoded: (u64, u64),
    pivot_wrapped: (u64, u64),
    mary: (u64, u64),
    build: (u64, u64),
}

fn measure(observations: usize) -> Scale {
    let cube = demo_cube(observations);
    let endpoint = &cube.endpoint;
    let triples = &cube.generated.triples;
    let (loaded, load_allocations) = counted(|| {
        LocalEndpoint::new()
            .insert_triples(triples)
            .expect("bulk load")
    });
    assert_eq!(loaded, triples.len());
    let (handle, handle_allocations) = counted(|| endpoint.background_handle());
    assert_eq!(
        handle
            .expect("a local endpoint has a handle")
            .triple_count(),
        endpoint.triple_count()
    );
    // The query `qb::load_observations` sends.
    let pivot = format!(
        "PREFIX qb: <http://purl.org/linked-data/cube#>
         SELECT ?obs ?p ?v WHERE {{
           ?obs qb:dataSet <{}> .
           ?obs ?p ?v .
         }}",
        cube.dataset.as_str()
    );
    let tool = qb2olap::Qb2Olap::new(endpoint.clone());
    let querying = tool
        .querying(&cube.dataset)
        .expect("the demo cube is enriched");
    let mary = querying
        .prepare(&mary_query())
        .expect("Mary's query prepares")
        .sparql(SparqlVariant::Direct);
    let schema = querying.schema().clone();
    let build = || MaterializedCube::from_endpoint(endpoint, &schema).expect("materializes");
    // Once unmeasured: lazily initialized statics allocate on first use.
    endpoint.select(&pivot).expect("pivot");
    build();

    let (decoded, pivot_allocations) = counted(|| endpoint.select(&pivot).expect("pivot"));
    let (encoded, encoded_allocations) =
        counted(|| endpoint.select_encoded(&pivot).expect("pivot"));
    assert_eq!(encoded.len(), decoded.len());
    let wrapper = ConservativeEndpoint::new(endpoint.clone());
    let (wrapped, wrapped_allocations) = counted(|| wrapper.select_encoded(&pivot).expect("pivot"));
    assert_eq!(wrapped, encoded);
    assert!(
        decoded.len() >= 8 * observations,
        "every triple of every observation"
    );
    let (answer, mary_allocations) = counted(|| endpoint.select(&mary).expect("Mary's query"));
    assert!(!answer.is_empty());
    let (materialized, build_allocations) = counted(build);
    assert_eq!(materialized.row_count(), observations);
    let columns = materialized.dimension_columns().len() + materialized.measure_columns().len();
    Scale {
        load: (loaded as u64, load_allocations),
        handle: handle_allocations,
        pivot: (decoded.len() as u64, pivot_allocations),
        pivot_encoded: (encoded.len() as u64, encoded_allocations),
        pivot_wrapped: (wrapped.len() as u64, wrapped_allocations),
        mary: (answer.len() as u64, mary_allocations),
        build: ((observations * columns) as u64, build_allocations),
    }
}

#[test]
fn sparql_and_build_allocations_do_not_grow_with_intermediate_rows() {
    let (small, large) = (measure(2_000), measure(8_000));

    // A bulk load allocates per distinct term (the interner's tables grow
    // by doubling) and per index (a sorted run and its offsets), never per
    // triple: four times the triples costs a few more doublings.
    assert!(large.load.0 >= 4 * small.load.0 - small.load.0 / 8);
    assert!(
        large.load.1 <= small.load.1 + 64,
        "{} allocations to load {} triples against {} for {}",
        large.load.1,
        large.load.0,
        small.load.1,
        small.load.0
    );
    // A background handle shares the index runs and copies only the
    // overlays and the interner — a fixed number of allocations at any size.
    assert!(
        large.handle.abs_diff(small.handle) <= 8,
        "{} allocations for a handle at {} triples against {} at {}",
        large.handle,
        large.load.0,
        small.handle,
        small.load.0
    );

    // Decoded solutions own one `Vec` each (the public shape); beyond
    // that the evaluator spends a constant — tables grow by doubling.
    const FIXED: u64 = 500;
    for (solutions, spent) in [small.pivot, large.pivot] {
        assert!(
            spent <= solutions + FIXED,
            "{spent} allocations for {solutions} decoded solutions"
        );
    }
    // Encoded solutions are one flat table: no per-solution cost at all.
    for (solutions, spent) in [small.pivot_encoded, large.pivot_encoded] {
        assert!(
            spent <= FIXED,
            "{spent} allocations for {solutions} encoded solutions"
        );
    }
    assert!(large.pivot_encoded.0 >= 4 * small.pivot_encoded.0);
    assert!(large.pivot_encoded.1 <= small.pivot_encoded.1 + 64);
    // A wrapper that forwards `query` (the shape of every timing or
    // conservative wrapper) hands out the same encoded table: no decode on
    // the way, so the same bounds.
    for (solutions, spent) in [small.pivot_wrapped, large.pivot_wrapped] {
        assert!(
            spent <= FIXED,
            "{spent} allocations for {solutions} encoded solutions through a wrapper"
        );
    }
    assert!(large.pivot_wrapped.0 >= 4 * small.pivot_wrapped.0);
    assert!(large.pivot_wrapped.1 <= small.pivot_wrapped.1 + 64);

    // Mary's query joins seventeen patterns over every observation and
    // filters on `STR(..)` of two attributes before grouping: a few dozen
    // groups out of tens of thousands of intermediate rows. It pays per
    // pattern and per group (key, members, aggregate inputs, output row).
    const PER_QUERY: u64 = 1_000;
    const PER_GROUP: u64 = 20;
    for (groups, spent) in [small.mary, large.mary] {
        assert!(
            spent <= PER_QUERY + PER_GROUP * groups,
            "{spent} allocations for {groups} groups"
        );
    }

    // The build allocates per distinct member (dictionaries, level
    // indexes, labels, roll-up maps) and per column — not per fact cell:
    // four times the cells over the same members costs a few more table
    // doublings.
    let (small_cells, small_spent) = small.build;
    let (large_cells, large_spent) = large.build;
    assert!(large_cells >= small_cells + 30_000);
    assert!(
        large_spent <= small_spent + 1_000,
        "{large_spent} allocations for {large_cells} cells against {small_spent} for {small_cells}"
    );
    assert!(
        small_spent < 8_000,
        "{small_spent} allocations to build {small_cells} cells"
    );
}

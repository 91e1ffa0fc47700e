//! Quickstart: the full QB2OLAP pipeline on a small synthetic Eurostat cube.
//!
//! Run with: `cargo run --release --example quickstart`

use qb2olap::{demo, Endpoint, Qb2Olap, SparqlVariant};

fn main() {
    // 1. Generate a small `migr_asyappctzm` QB dataset and load it, together
    //    with the DBpedia-like external graph, into a local endpoint; then
    //    run the Enrichment module with the demo choices.
    let cube =
        demo::setup_demo_cube(&datagen::EurostatConfig::small(2_000)).expect("demo setup succeeds");
    println!(
        "Loaded {} observations ({} triples) and enriched the cube: {} schema triples, {} instance triples\n",
        cube.generated.observation_count,
        cube.endpoint.triple_count(),
        cube.enrichment.schema_triples,
        cube.enrichment.instance_triples
    );

    let tool = Qb2Olap::new(cube.endpoint.clone());

    // 2. Exploration module: the cube structure tree (Figure 4).
    let explorer = tool.explorer(&cube.dataset).expect("cube is enriched");
    println!("{}", explorer.schema_tree().expect("schema tree renders"));

    // 3. Querying module: aggregate the origin nationality of immigrants per
    //    continent (the OLAP need that motivates Mary in the introduction).
    let querying = tool.querying(&cube.dataset).expect("cube is enriched");
    let (prepared, result, timings) = querying
        .run(&datagen::workload::rollup_citizenship_to_continent())
        .expect("query runs");
    println!(
        "QL was simplified from {} to {} operation(s) and translated to {} lines of SPARQL",
        prepared.report.original_operations,
        prepared.report.simplified_operations,
        prepared.sparql(SparqlVariant::Direct).lines().count()
    );
    println!(
        "Preparation took {:?}, execution took {:?}\n",
        timings.preparation, timings.execution
    );
    println!("{}", result.to_table_string());
}

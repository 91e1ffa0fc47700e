//! End-to-end integration test: Figure 1's architecture — one endpoint, three
//! modules — exercised from raw QB data to a result cube.

use qb2olap::{demo, Endpoint, Qb2Olap, SparqlVariant};
use rdf::vocab::{demo_schema, eurostat_property, qb4o};

#[test]
fn qb_data_to_result_cube() {
    // The QB dataset is loaded into the endpoint (demo starting state).
    let (endpoint, data) = datagen::load_demo_endpoint(&datagen::EurostatConfig::small(1_000));
    let observations_before = qb::count_observations(&endpoint, &data.dataset).unwrap();
    assert_eq!(observations_before, 1_000);

    // Before enrichment the Exploration and Querying modules refuse the cube.
    let tool = Qb2Olap::new(endpoint.clone());
    assert!(tool.explorer(&data.dataset).is_err());
    assert!(tool.querying(&data.dataset).is_err());

    // Enrichment module: the demo choices.
    let stats = demo::enrich_demo_cube(&endpoint, &data.dataset).unwrap();
    assert!(stats.schema_triples > 0);
    assert!(stats.instance_triples > 0);
    assert_eq!(stats.dimensions, 6);

    // The observations were NOT rewritten: QB4OLAP reuses data already
    // published in QB (a key design point of the vocabulary).
    let observations_after = qb::count_observations(&endpoint, &data.dataset).unwrap();
    assert_eq!(observations_after, observations_before);

    // Exploration module: the schema tree shows the paper's citizenship
    // hierarchy and the member clusters are consistent.
    let explorer = tool.explorer(&data.dataset).unwrap();
    let tree = explorer.schema_tree().unwrap();
    assert!(tree.contains("citizenshipDim"));
    assert!(tree.contains("level continent"));
    let clusters = explorer
        .cluster_by_level(&demo_schema::citizenship_dim())
        .unwrap();
    let countries = clusters.get(&eurostat_property::citizen()).unwrap().len();
    let continents = clusters.get(&demo_schema::continent()).unwrap().len();
    assert!(
        countries > continents,
        "{countries} countries vs {continents} continents"
    );

    // Querying module: roll up to continents; the result has one cell per
    // continent actually present in the data and preserves the grand total.
    let querying = tool.querying(&data.dataset).unwrap();
    let (prepared, cube, _) = querying
        .run(&datagen::workload::rollup_citizenship_to_continent())
        .unwrap();
    assert!(!cube.is_empty());
    assert!(cube.len() >= continents, "at least one cell per continent");
    let grand_total: f64 = endpoint
        .select(
            "PREFIX qb: <http://purl.org/linked-data/cube#>
             PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>
             SELECT (SUM(?v) AS ?t) WHERE { ?o a qb:Observation ; sdmx-measure:obsValue ?v }",
        )
        .unwrap()
        .get(0, "t")
        .and_then(|t| t.as_literal().and_then(|l| l.as_double()))
        .unwrap();
    assert!((cube.first_measure_total() - grand_total).abs() < 1e-6);

    // Both SPARQL variants agree.
    let direct = querying.execute(&prepared, SparqlVariant::Direct).unwrap();
    let alternative = querying
        .execute(&prepared, SparqlVariant::Alternative)
        .unwrap();
    assert_eq!(direct, alternative);

    // The generated schema triples use the QB4OLAP vocabulary as in the
    // paper's Section II listing.
    assert!(endpoint
        .ask(&format!(
            "PREFIX qb4o: <{}> PREFIX qb: <http://purl.org/linked-data/cube#>
             ASK {{ ?dsd qb:component ?c . ?c qb4o:level <{}> ; qb4o:cardinality qb4o:ManyToOne }}",
            qb4o::NAMESPACE,
            eurostat_property::citizen().as_str()
        ))
        .unwrap());
}

#[test]
fn demo_cube_at_paper_scale_subset() {
    // A 5k-observation subset keeps the integration suite fast while still
    // exercising the same code paths as the 80k demo configuration
    // (EXPERIMENTS.md E7 reproduces the full 80k scale).
    let cube = demo::setup_demo_cube(&datagen::EurostatConfig::small(5_000)).unwrap();
    assert_eq!(cube.generated.observation_count, 5_000);
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let (_, result, _) = tool
        .querying(&cube.dataset)
        .unwrap()
        .run(&datagen::workload::by_political_organisation())
        .unwrap();
    assert!(!result.is_empty());
    // The destination axis collapsed to the political-organisation level:
    // at most two distinct coordinates (EU / EFTA) appear on it.
    let polorg_axis = result
        .axes
        .iter()
        .position(|a| a.level.as_str().ends_with("politicalOrg"))
        .expect("politicalOrg axis present");
    let distinct: std::collections::BTreeSet<_> = result
        .cells
        .iter()
        .map(|c| c.coordinates[polorg_axis].clone())
        .collect();
    assert!(distinct.len() <= 2, "{distinct:?}");
}

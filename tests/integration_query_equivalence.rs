//! Cross-checks of the QL → SPARQL translation: the two generated variants,
//! the unoptimised vs simplified program, and an independent in-memory
//! aggregation must all agree (experiment E6 / E10 support).

use std::collections::BTreeMap;

use qb2olap::{demo, Endpoint, Qb2Olap, SparqlVariant};
use rdf::Term;

fn demo_tool(observations: usize) -> (Qb2Olap, rdf::Iri) {
    let cube = demo::setup_demo_cube(&datagen::EurostatConfig::small(observations)).unwrap();
    (Qb2Olap::new(cube.endpoint.clone()), cube.dataset)
}

#[test]
fn all_workload_queries_have_equivalent_variants() {
    let (tool, dataset) = demo_tool(1_500);
    let querying = tool.querying(&dataset).unwrap();
    for (name, text) in datagen::workload::bench_queries() {
        let prepared = querying
            .prepare(&text)
            .unwrap_or_else(|e| panic!("{name} failed to prepare: {e}"));
        let direct = querying.execute(&prepared, SparqlVariant::Direct).unwrap();
        let alternative = querying
            .execute(&prepared, SparqlVariant::Alternative)
            .unwrap();
        assert_eq!(direct, alternative, "variants disagree for '{name}'");
    }
}

#[test]
fn unoptimized_program_returns_the_same_cube() {
    let (tool, dataset) = demo_tool(1_000);
    let querying = tool.querying(&dataset).unwrap();
    let (_, optimised, _) = querying.run(&datagen::workload::mary_query()).unwrap();
    let (prepared, unoptimised, _) = querying
        .run(&datagen::workload::mary_query_unoptimized())
        .unwrap();
    assert!(prepared.report.fused_operations >= 2);
    assert!(prepared.report.slices_moved >= 1);
    assert_eq!(optimised, unoptimised);
}

#[test]
fn rollup_to_continent_matches_independent_aggregation() {
    let (tool, dataset) = demo_tool(1_200);
    let querying = tool.querying(&dataset).unwrap();

    // QB2OLAP's answer.
    let (_, cube, _) = querying
        .run(&datagen::workload::rollup_citizenship_to_continent())
        .unwrap();

    // Independent aggregation computed directly from the observation and
    // code-list triples, bypassing the QL/QB4OLAP machinery entirely.
    let endpoint = tool.endpoint();
    let rows = endpoint
        .select(
            "PREFIX qb: <http://purl.org/linked-data/cube#>
             PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>
             PREFIX property: <http://eurostat.linked-statistics.org/property#>
             PREFIX dic: <http://eurostat.linked-statistics.org/dic/>
             SELECT ?obs ?citizen ?v WHERE {
               ?obs a qb:Observation ; property:citizen ?citizen ; sdmx-measure:obsValue ?v .
             }",
        )
        .unwrap();
    let continents = endpoint
        .select(
            "PREFIX dic: <http://eurostat.linked-statistics.org/dic/>
             SELECT ?c ?cont WHERE { ?c <http://eurostat.linked-statistics.org/dic/continent> ?cont }",
        )
        .unwrap();
    let continent_of: BTreeMap<Term, Term> = (0..continents.len())
        .filter_map(
            |i| match (continents.get(i, "c"), continents.get(i, "cont")) {
                (Some(c), Some(cont)) => Some((c.clone(), cont.clone())),
                _ => None,
            },
        )
        .collect();

    let mut expected: BTreeMap<Term, f64> = BTreeMap::new();
    for i in 0..rows.len() {
        let citizen = rows.get(i, "citizen").unwrap();
        let value = rows
            .get(i, "v")
            .and_then(|t| t.as_literal().and_then(|l| l.as_double()))
            .unwrap();
        let continent = continent_of
            .get(citizen)
            .expect("every country has a continent");
        *expected.entry(continent.clone()).or_default() += value;
    }

    // Group the QB2OLAP cube's cells by the continent coordinate (the cube
    // also keeps the other non-sliced dimensions, so cells must be summed).
    let continent_axis = cube
        .axes
        .iter()
        .position(|a| a.level == rdf::vocab::demo_schema::continent())
        .expect("continent axis present");
    let mut actual: BTreeMap<Term, f64> = BTreeMap::new();
    for cell in &cube.cells {
        let continent = cell.coordinates[continent_axis].clone();
        let value = cell.values[0]
            .as_ref()
            .and_then(|t| t.as_literal().and_then(|l| l.as_double()))
            .unwrap_or(0.0);
        *actual.entry(continent).or_default() += value;
    }

    assert_eq!(expected.len(), actual.len());
    for (continent, total) in expected {
        let got = actual.get(&continent).copied().unwrap_or(f64::NAN);
        assert!(
            (got - total).abs() < 1e-6,
            "continent {continent}: expected {total}, got {got}"
        );
    }
}

#[test]
fn mary_query_only_returns_african_citizens_applying_in_france() {
    let (tool, dataset) = demo_tool(4_000);
    let querying = tool.querying(&dataset).unwrap();
    let (_, cube, _) = querying.run(&datagen::workload::mary_query()).unwrap();
    assert!(
        !cube.is_empty(),
        "the 4k sample contains matching observations"
    );

    // Every cell's citizenship coordinate is the Africa continent member and
    // the destination coordinate is France.
    let continent_axis = cube
        .axes
        .iter()
        .position(|a| a.level == rdf::vocab::demo_schema::continent())
        .unwrap();
    let geo_axis = cube
        .axes
        .iter()
        .position(|a| a.level == rdf::vocab::eurostat_property::geo())
        .unwrap();
    for cell in &cube.cells {
        assert_eq!(
            cell.coordinates[continent_axis],
            datagen::eurostat::continent_member("Africa")
        );
        assert_eq!(
            cell.coordinates[geo_axis],
            datagen::eurostat::geo_member("FR")
        );
    }
}

//! Manual SPARQL over the demo endpoint — the Querying module "also gives
//! the possibility to manually formulate SPARQL queries".
//!
//! Run with: `cargo run --release --example sparql_shell [-- "SELECT ..."]`
//! Without an argument, a default query listing the cube's levels and their
//! member counts is executed.

use qb2olap::{demo, Endpoint};

const DEFAULT_QUERY: &str = "\
PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
SELECT ?level (COUNT(?member) AS ?members) WHERE {
  ?member qb4o:memberOf ?level .
} GROUP BY ?level ORDER BY DESC(?members)";

fn main() {
    let cube =
        demo::setup_demo_cube(&datagen::EurostatConfig::small(2_000)).expect("demo setup succeeds");

    let query = std::env::args()
        .nth(1)
        .unwrap_or_else(|| DEFAULT_QUERY.to_string());
    println!("Executing SPARQL against the demo endpoint:\n{query}\n");

    match cube.endpoint.select(&query) {
        Ok(solutions) => println!("{}", solutions.to_table_string()),
        Err(e) => {
            eprintln!("query failed: {e}");
            std::process::exit(1);
        }
    }
}

//! The Enrichment module walkthrough (Figure 2 / Figure 4 of the paper):
//! redefinition, candidate discovery for the citizenship dimension, user
//! choices, and triple generation.
//!
//! Run with: `cargo run --release --example enrich_eurostat`

use enrichment::EnrichmentSession;
use qb2olap::demo::demo_enrichment_config;
use qb2olap::Endpoint;
use rdf::vocab::{eurostat_property, rdfs};

fn main() {
    let (endpoint, data) = datagen::load_demo_endpoint(&datagen::EurostatConfig::small(5_000));
    println!(
        "QB dataset <{}> loaded: {} observations, {} triples\n",
        data.dataset.as_str(),
        data.observation_count,
        endpoint.triple_count()
    );

    let mut session = EnrichmentSession::start(&endpoint, &data.dataset, demo_enrichment_config())
        .expect("the dataset is a well-formed QB dataset");

    // Redefinition phase.
    let schema = session.redefine().expect("redefinition succeeds").clone();
    println!(
        "Redefinition phase: {} dimensions redefined as levels, {} measure(s) with aggregate functions\n",
        schema.level_components.len(),
        schema.measures.len()
    );

    // Enrichment phase: candidates for the citizenship level.
    let candidates = session
        .discover_candidates(&eurostat_property::citizen())
        .expect("candidate discovery succeeds");
    println!("{}", candidates.to_report());

    // The user picks the continent roll-up and a name attribute.
    let continent_candidate = candidates
        .level_candidate(&datagen::eurostat::continent_property())
        .expect("the continent candidate is discovered")
        .clone();
    let continent = session
        .add_level(
            &eurostat_property::citizen(),
            &continent_candidate,
            "continent",
        )
        .expect("level is added");
    session
        .add_attribute(&continent, &rdfs::label(), "continentName")
        .expect("attribute is added");
    println!(
        "Added level <{}> with attribute continentName\n",
        continent.as_str()
    );

    // A second round on the new level discovers the all-citizenships level.
    let next_round = session
        .discover_candidates(&continent)
        .expect("second discovery round succeeds");
    println!(
        "Candidates for the new continent level:\n{}",
        next_round.to_report()
    );

    // Triple Generation phase.
    let stats = session.load_into_endpoint().expect("triples load");
    println!(
        "Triple Generation phase: {} schema triples and {} instance triples loaded into the endpoint",
        stats.schema_triples, stats.instance_triples
    );
    println!(
        "Schema now has {} dimensions, {} levels, {} attributes",
        stats.dimensions, stats.levels, stats.attributes
    );
    println!(
        "Validation: {}",
        if session.validate().expect("schema exists").is_valid() {
            "schema is well formed"
        } else {
            "schema has issues"
        }
    );
}

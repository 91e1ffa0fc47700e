//! Experiment-reproduction harness: regenerates the measurements behind every
//! figure and claim of the paper (E1–E10); EXPERIMENTS.md is the index.
//!
//! Usage:
//! ```text
//! cargo run --release -p qb2olap_bench --bin repro -- [all|e1|e2|...|e10] [--observations N] [--json]
//! ```
//!
//! An unknown experiment id or flag, or a non-numeric `--observations`
//! value, prints the usage line to stderr and exits with status 2.

use enrichment::{EnrichmentConfig, EnrichmentSession};
use qb2olap::{demo, Endpoint, Qb2Olap, SparqlVariant};
use qb2olap_bench::{
    demo_cube_with, measurements_to_json, render_measurements, timed, Measurement,
};
use rdf::vocab::eurostat_property;

const USAGE: &str = "usage: repro [all|e1|e2|...|e10] [--observations N] [--json]";

/// The experiment ids `repro` accepts besides `all`.
const EXPERIMENTS: [&str; 10] = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];

/// The parsed command line: experiment id, observation count, JSON output.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(String, usize, bool), String> {
    let mut experiment = "all".to_string();
    let mut observations = 20_000usize;
    let mut as_json = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--observations" => {
                let value = args.next().unwrap_or_default();
                observations = value
                    .parse()
                    .map_err(|_| format!("--observations needs a count, got '{value}'"))?;
            }
            "--json" => as_json = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            id => {
                let id = id.to_lowercase();
                if id != "all" && !EXPERIMENTS.contains(&id.as_str()) {
                    return Err(format!("unknown experiment '{id}'"));
                }
                experiment = id;
            }
        }
    }
    Ok((experiment, observations, as_json))
}

fn main() {
    let (experiment, observations, as_json) =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
            eprintln!("repro: {message}; {USAGE}");
            std::process::exit(2);
        });

    let mut rows: Vec<Measurement> = Vec::new();
    let run = |id: &str, experiment: &str| experiment == "all" || experiment == id;

    if run("e1", &experiment) {
        rows.extend(e1_pipeline(observations.min(10_000)));
    }
    if run("e2", &experiment) {
        rows.extend(e2_enrichment_scaling(observations));
    }
    if run("e3", &experiment) || run("e10", &experiment) {
        rows.extend(e3_e10_querying(observations));
    }
    if run("e4", &experiment) {
        rows.extend(e4_candidate_discovery());
    }
    if run("e5", &experiment) {
        rows.extend(e5_exploration());
    }
    if run("e6", &experiment) {
        rows.extend(e6_mary_query(observations));
    }
    if run("e7", &experiment) {
        rows.extend(e7_paper_scale());
    }
    if run("e8", &experiment) {
        rows.extend(e8_quasi_fd());
    }
    if run("e9", &experiment) {
        rows.extend(e9_simplification(observations.min(10_000)));
    }

    if as_json {
        println!("{}", measurements_to_json(&rows));
    } else {
        println!("{}", render_measurements(&rows));
    }
}

fn millis(duration: std::time::Duration) -> f64 {
    duration.as_secs_f64() * 1_000.0
}

/// E1 / Figure 1: the end-to-end pipeline over one endpoint.
fn e1_pipeline(observations: usize) -> Vec<Measurement> {
    let parameters = format!("observations={observations}");
    let (cube, setup) = timed(|| demo_cube_with(&datagen::EurostatConfig::small(observations)));
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let querying = tool.querying(&cube.dataset).expect("cube is enriched");
    let (_, query) = timed(|| {
        querying
            .run(&datagen::workload::rollup_citizenship_to_continent())
            .expect("query runs")
    });
    vec![
        Measurement::new("E1", &parameters, "load_and_enrich_ms", millis(setup)),
        Measurement::new("E1", &parameters, "rollup_query_ms", millis(query)),
        Measurement::new(
            "E1",
            &parameters,
            "endpoint_triples",
            cube.endpoint.triple_count() as f64,
        ),
    ]
}

/// E2 / Figure 2: per-phase timing and output sizes of the Enrichment module
/// as a function of the observation count.
fn e2_enrichment_scaling(max_observations: usize) -> Vec<Measurement> {
    let mut rows = Vec::new();
    for observations in [1_000usize, 5_000, 20_000, 80_000] {
        if observations > max_observations.max(1_000) {
            continue;
        }
        let (endpoint, data) =
            datagen::load_demo_endpoint(&datagen::EurostatConfig::small(observations));
        let parameters = format!("observations={observations}");

        let mut session = EnrichmentSession::start(
            &endpoint,
            &data.dataset,
            qb2olap::demo::demo_enrichment_config(),
        )
        .expect("session starts");
        let (_, redefinition) = timed(|| session.redefine().expect("redefinition"));
        let (candidates, discovery) = timed(|| {
            session
                .discover_candidates(&eurostat_property::citizen())
                .expect("discovery")
        });
        let (_, full) = timed(|| demo::enrich_demo_cube(&endpoint, &data.dataset).expect("enrich"));

        rows.push(Measurement::new(
            "E2",
            &parameters,
            "redefinition_ms",
            millis(redefinition),
        ));
        rows.push(Measurement::new(
            "E2",
            &parameters,
            "citizen_discovery_ms",
            millis(discovery),
        ));
        rows.push(Measurement::new(
            "E2",
            &parameters,
            "citizen_level_candidates",
            candidates.levels.len() as f64,
        ));
        rows.push(Measurement::new(
            "E2",
            &parameters,
            "full_enrichment_ms",
            millis(full),
        ));
    }
    rows
}

/// E3 / Figure 3 and E10: per-phase querying timings and the direct vs
/// alternative SPARQL variants across the workload.
fn e3_e10_querying(observations: usize) -> Vec<Measurement> {
    let cube = demo_cube_with(&datagen::EurostatConfig::small(observations));
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let querying = tool.querying(&cube.dataset).expect("cube is enriched");
    let mut rows = Vec::new();
    for (name, text) in datagen::workload::bench_queries() {
        let parameters = format!("query={name},observations={observations}");
        let (prepared, preparation) = timed(|| querying.prepare(&text).expect("prepare"));
        let (direct, direct_time) =
            timed(|| querying.execute(&prepared, SparqlVariant::Direct).expect("direct"));
        let (alternative, alternative_time) = timed(|| {
            querying
                .execute(&prepared, SparqlVariant::Alternative)
                .expect("alternative")
        });
        assert_eq!(direct, alternative, "variants must agree ({name})");
        rows.push(Measurement::new(
            "E3",
            &parameters,
            "simplify_and_translate_ms",
            millis(preparation),
        ));
        rows.push(Measurement::new(
            "E3",
            &parameters,
            "sparql_lines_direct",
            prepared.sparql(SparqlVariant::Direct).lines().count() as f64,
        ));
        rows.push(Measurement::new(
            "E10",
            &parameters,
            "execute_direct_ms",
            millis(direct_time),
        ));
        rows.push(Measurement::new(
            "E10",
            &parameters,
            "execute_alternative_ms",
            millis(alternative_time),
        ));
        rows.push(Measurement::new(
            "E10",
            &parameters,
            "result_cells",
            direct.len() as f64,
        ));
    }
    rows
}

/// E4 / Figure 4: candidate properties discovered for `property:citizen`.
fn e4_candidate_discovery() -> Vec<Measurement> {
    let (endpoint, data) = datagen::load_demo_endpoint(&datagen::EurostatConfig::small(5_000));
    let mut session = EnrichmentSession::start(
        &endpoint,
        &data.dataset,
        qb2olap::demo::demo_enrichment_config(),
    )
    .expect("session starts");
    session.redefine().expect("redefine");
    let candidates = session
        .discover_candidates(&eurostat_property::citizen())
        .expect("discovery");
    println!("{}", candidates.to_report());
    let continent_found = candidates
        .level_candidate(&datagen::eurostat::continent_property())
        .is_some();
    let external_found = candidates
        .level_candidate(&rdf::vocab::dbpedia::government_type())
        .is_some();
    vec![
        Measurement::new("E4", "level=property:citizen", "level_candidates", candidates.levels.len() as f64),
        Measurement::new("E4", "level=property:citizen", "attribute_candidates", candidates.attributes.len() as f64),
        Measurement::new("E4", "level=property:citizen", "continent_discovered", continent_found as u8 as f64),
        Measurement::new("E4", "level=property:citizen", "external_governmentType_discovered", external_found as u8 as f64),
    ]
}

/// E5 / Figure 5: member clustering per level and roll-up edges.
fn e5_exploration() -> Vec<Measurement> {
    let cube = demo_cube_with(&datagen::EurostatConfig::small(5_000));
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let explorer = tool.explorer(&cube.dataset).expect("cube is enriched");
    let clusters = explorer
        .cluster_by_level(&rdf::vocab::demo_schema::citizenship_dim())
        .expect("clusters");
    let edges = explorer
        .rollup_edges(
            &eurostat_property::citizen(),
            &rdf::vocab::demo_schema::continent(),
        )
        .expect("edges");
    println!("{}", explorer.schema_tree().expect("tree"));
    let mut rows = Vec::new();
    for (level, members) in &clusters {
        rows.push(Measurement::new(
            "E5",
            format!("level={}", level.local_name()),
            "members",
            members.len() as f64,
        ));
    }
    rows.push(Measurement::new(
        "E5",
        "citizen->continent",
        "rollup_edges",
        edges.len() as f64,
    ));
    rows
}

/// E6 / Section IV: Mary's query — simplification, > 30 lines of SPARQL,
/// equal results for both variants.
fn e6_mary_query(observations: usize) -> Vec<Measurement> {
    let cube = demo_cube_with(&datagen::EurostatConfig::small(observations));
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let querying = tool.querying(&cube.dataset).expect("cube is enriched");
    let prepared = querying
        .prepare(&datagen::workload::mary_query())
        .expect("prepare");
    let direct = querying
        .execute(&prepared, SparqlVariant::Direct)
        .expect("direct");
    let alternative = querying
        .execute(&prepared, SparqlVariant::Alternative)
        .expect("alternative");
    assert_eq!(
        direct, alternative,
        "E6: the SPARQL variants disagree on Mary's query"
    );
    let parameters = format!("observations={observations}");
    vec![
        Measurement::new(
            "E6",
            &parameters,
            "sparql_lines_direct",
            prepared.sparql(SparqlVariant::Direct).lines().count() as f64,
        ),
        Measurement::new(
            "E6",
            &parameters,
            "ql_operations",
            prepared.report.original_operations as f64,
        ),
        Measurement::new("E6", &parameters, "result_cells", direct.len() as f64),
    ]
}

/// E7 / Section I: the 80,000-observation demo scale.
fn e7_paper_scale() -> Vec<Measurement> {
    let config = datagen::EurostatConfig::default(); // 80,000 observations
    let (cube, setup) = timed(|| demo_cube_with(&config));
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let querying = tool.querying(&cube.dataset).expect("cube is enriched");
    let (result, query) = timed(|| {
        querying
            .run(&datagen::workload::mary_query())
            .expect("query runs")
            .1
    });
    vec![
        Measurement::new("E7", "observations=80000", "observations_generated", cube.generated.observation_count as f64),
        Measurement::new("E7", "observations=80000", "endpoint_triples", cube.endpoint.triple_count() as f64),
        Measurement::new("E7", "observations=80000", "load_and_enrich_ms", millis(setup)),
        Measurement::new("E7", "observations=80000", "mary_query_ms", millis(query)),
        Measurement::new("E7", "observations=80000", "mary_result_cells", result.len() as f64),
    ]
}

/// E8 / Section III-A: quasi-FD discovery under link noise as a function of
/// the error threshold.
fn e8_quasi_fd() -> Vec<Measurement> {
    let noisy = datagen::EurostatConfig {
        observations: 2_000,
        noise: datagen::NoiseConfig {
            missing_link_fraction: 0.1,
            conflicting_link_fraction: 0.1,
        },
        ..Default::default()
    };
    let (endpoint, data) = datagen::load_demo_endpoint(&noisy);
    let mut rows = Vec::new();
    for threshold in [0.0, 0.05, 0.1, 0.15, 0.2, 0.3] {
        let config = EnrichmentConfig::default()
            .without_external_sources()
            .with_fd_error_threshold(threshold)
            .with_min_support(0.5);
        let mut session =
            EnrichmentSession::start(&endpoint, &data.dataset, config).expect("session starts");
        session.redefine().expect("redefine");
        let candidates = session
            .discover_candidates(&eurostat_property::citizen())
            .expect("discovery");
        let accepted = candidates
            .level_candidate(&datagen::eurostat::continent_property())
            .is_some();
        rows.push(Measurement::new(
            "E8",
            format!("noise=0.2,threshold={threshold}"),
            "continent_accepted",
            accepted as u8 as f64,
        ));
        rows.push(Measurement::new(
            "E8",
            format!("noise=0.2,threshold={threshold}"),
            "level_candidates",
            candidates.levels.len() as f64,
        ));
    }
    rows
}

/// E9 / Section III-B: the simplification ablation — operation counts and
/// execution time of the naively written vs the simplified program.
fn e9_simplification(observations: usize) -> Vec<Measurement> {
    let cube = demo_cube_with(&datagen::EurostatConfig::small(observations));
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let querying = tool.querying(&cube.dataset).expect("cube is enriched");

    let mut rows = Vec::new();
    for (name, text) in [
        ("optimized", datagen::workload::mary_query()),
        ("unoptimized", datagen::workload::mary_query_unoptimized()),
    ] {
        let parameters = format!("program={name},observations={observations}");
        let (prepared, preparation) = timed(|| querying.prepare(&text).expect("prepare"));
        let (cube_result, execution) =
            timed(|| querying.execute(&prepared, SparqlVariant::Direct).expect("execute"));
        rows.push(Measurement::new(
            "E9",
            &parameters,
            "original_operations",
            prepared.report.original_operations as f64,
        ));
        rows.push(Measurement::new(
            "E9",
            &parameters,
            "simplified_operations",
            prepared.report.simplified_operations as f64,
        ));
        rows.push(Measurement::new(
            "E9",
            &parameters,
            "fused_operations",
            prepared.report.fused_operations as f64,
        ));
        rows.push(Measurement::new(
            "E9",
            &parameters,
            "prepare_ms",
            millis(preparation),
        ));
        rows.push(Measurement::new(
            "E9",
            &parameters,
            "execute_ms",
            millis(execution),
        ));
        rows.push(Measurement::new(
            "E9",
            &parameters,
            "result_cells",
            cube_result.len() as f64,
        ));
    }

    // Both programs must produce identical cubes (the point of rule (b)).
    assert_eq!(
        querying
            .run(&datagen::workload::mary_query())
            .expect("optimized runs")
            .1,
        querying
            .run(&datagen::workload::mary_query_unoptimized())
            .expect("unoptimized runs")
            .1,
        "E9: the naive and the simplified program disagree"
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(args: &str) -> Result<(String, usize, bool), String> {
        parse_args(args.split_whitespace().map(str::to_string))
    }

    #[test]
    fn known_ids_and_flags_parse_and_unknown_ones_are_refused() {
        assert_eq!(parse(""), Ok(("all".to_string(), 20_000, false)));
        assert_eq!(parse("E10 --observations 2000 --json"), Ok(("e10".to_string(), 2_000, true)));
        for refused in ["e13", "e99", "--bogus", "e1 --observations abc", "e1 --observations"] {
            assert!(parse(refused).is_err(), "'{refused}' must be refused");
        }
    }
}

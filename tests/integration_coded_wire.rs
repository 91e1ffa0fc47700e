//! The byte-identity gate of the `/ql` wire path: the server serializes a
//! columnar answer straight from the engine's coded result
//! (`coded_cube_to_json`), and that body must be byte for byte the
//! canonical serialization of the decoded cube (`cube_to_json`, the
//! reference the library, loadgen and the benchmark compare against).
//!
//! Every query runs on one settled pin of its cube:
//!
//! * the demo cube and a demo cube with `xsd:decimal` measures: the named
//!   workload (E3), the benchmark's generated list (`generated_queries(11,
//!   64)`), Mary's query in both spellings (E6, E9), and 500 qlsmith
//!   programs;
//! * the qlsmith fuzz cube — every aggregate function over integer and
//!   decimal measures — and the same cube with its decimal measures
//!   rewritten as `xsd:double`: 500 qlsmith programs each.
//!
//! That the decoded cube itself equals the SPARQL backend's answer is the
//! qlsmith campaign's five-leg gate (`integration_qlsmith`).

use std::collections::BTreeSet;

use qb2olap::{Endpoint, LocalEndpoint, Qb2Olap};
use qb2olap_server::{coded_cube_to_json, cube_to_json};
use ql::QueryingModule;
use qlsmith::fixture::fuzz_cube;
use qlsmith::ql_gen::QlGenerator;
use qlsmith::universe::SchemaUniverse;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdf::{Literal, Term, Triple};

const PROGRAMS: usize = 500;
const SEED: u64 = 0xC0DE_D0C5;

/// Runs every query on one settled pin and requires the coded body to be
/// the decoded body. Returns the aggregate datatypes the bodies named.
fn assert_coded_bodies_match(
    module: &QueryingModule<'_>,
    queries: impl IntoIterator<Item = (String, String)>,
) -> BTreeSet<&'static str> {
    let snapshot = module.snapshot_settled().expect("settled pin");
    let mut datatypes = BTreeSet::new();
    let mut cells = 0;
    for (name, text) in queries {
        let prepared = module
            .prepare(&text)
            .unwrap_or_else(|e| panic!("{name} prepares: {e}\n{text}"));
        let coded = module
            .execute_coded_on_snapshot(&prepared, &snapshot)
            .unwrap_or_else(|e| panic!("{name} executes: {e}\n{text}"));
        let body = coded_cube_to_json(&coded);
        let decoded = coded.clone().decode();
        assert_eq!(
            body,
            cube_to_json(&decoded),
            "{name}: coded and decoded bodies differ\n{text}"
        );
        assert_eq!(
            decoded,
            module.execute_on_snapshot(&prepared, &snapshot).unwrap(),
            "{name}: decode() is execute_on_snapshot's cube"
        );
        for cell in 0..coded.output.len() {
            datatypes.extend(coded.output.values(cell).iter().map(|v| v.datatype_str()));
        }
        cells += decoded.len();
    }
    assert!(cells > 0, "the queries returned cells");
    datatypes
}

fn qlsmith_programs(module: &QueryingModule<'_>) -> Vec<(String, String)> {
    let universe = SchemaUniverse::from_endpoint(module.endpoint(), module.schema()).unwrap();
    let generator = QlGenerator::new(&universe, module.schema());
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..PROGRAMS)
        .map(|spotlight| {
            let program = generator.generate(&mut rng, spotlight);
            (
                format!("qlsmith program {spotlight}"),
                program.to_ql_string(),
            )
        })
        .collect()
}

fn demo_lists() -> Vec<(String, String)> {
    use datagen::workload;
    let named = workload::bench_queries()
        .into_iter()
        .map(|(name, text)| (name.to_string(), text));
    let paper = [
        ("mary (E6)".to_string(), workload::mary_query()),
        (
            "mary unoptimized (E9)".to_string(),
            workload::mary_query_unoptimized(),
        ),
    ];
    named
        .chain(workload::generated_queries(11, 64))
        .chain(paper)
        .collect()
}

fn assert_demo_cube(config: &datagen::EurostatConfig) -> BTreeSet<&'static str> {
    let cube = qb2olap::demo::setup_demo_cube(config).expect("demo cube");
    let tool = Qb2Olap::new(cube.endpoint.clone());
    let module = tool.querying(&cube.dataset).expect("enriched cube");
    let programs = qlsmith_programs(&module);
    assert_coded_bodies_match(&module, demo_lists().into_iter().chain(programs))
}

#[test]
fn coded_bodies_match_decoded_bodies_on_the_demo_cubes() {
    let integer = assert_demo_cube(&datagen::EurostatConfig::small(1_500));
    assert!(
        integer.contains("http://www.w3.org/2001/XMLSchema#integer"),
        "{integer:?}"
    );
    let decimal = assert_demo_cube(&datagen::EurostatConfig {
        decimal_measures: true,
        ..datagen::EurostatConfig::small(1_500)
    });
    assert!(
        decimal.contains("http://www.w3.org/2001/XMLSchema#decimal"),
        "{decimal:?}"
    );
}

#[test]
fn coded_bodies_match_decoded_bodies_for_every_aggregate_and_measure_type() {
    let cube = fuzz_cube();
    let module = QueryingModule::with_schema(&cube.endpoint, cube.schema.clone());
    let decimals = assert_coded_bodies_match(&module, qlsmith_programs(&module));

    // The same cube with every xsd:decimal measure value as an xsd:double.
    let doubles = LocalEndpoint::new();
    let triples: Vec<Triple> = cube
        .endpoint
        .store()
        .triples_matching(None, None, None)
        .into_iter()
        .map(|triple| match triple.object.as_literal() {
            Some(literal) if literal.datatype() == &rdf::vocab::xsd::decimal() => {
                let value = literal.as_double().expect("a decimal parses");
                Triple::new(
                    triple.subject,
                    triple.predicate,
                    Term::Literal(Literal::double(value)),
                )
            }
            _ => triple,
        })
        .collect();
    doubles.insert_triples(&triples).unwrap();
    let module = QueryingModule::with_schema(&doubles, cube.schema.clone());
    let mut seen = assert_coded_bodies_match(&module, qlsmith_programs(&module));
    seen.extend(decimals);
    assert_eq!(
        seen.len(),
        3,
        "integer, decimal and double aggregates: {seen:?}"
    );
}

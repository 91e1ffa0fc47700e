//! The qlsmith campaign: seeded, grammar-covering differential fuzzing of
//! the whole QL pipeline (the five oracle legs of `qlsmith::diff::LEGS`,
//! bit-identical cells)
//! and of the SPARQL SELECT surface (direct AST evaluation vs the
//! pretty-print → parse → evaluate text path, and the join planner vs the
//! identity plan, row for row), interleaved with live store
//! mutations so generated queries also run against delta-refreshed,
//! tombstoned and rebuild-fallback catalog states.
//!
//! Knobs (see `crates/fuzz/src/lib.rs`): `QB2OLAP_FUZZ_SEED`,
//! `QB2OLAP_FUZZ_PROGRAMS`, `QB2OLAP_FUZZ_QUERIES`. `ci.sh` pins the seed
//! and raises both counts to 500.

use std::path::Path;

use ql::ast::{CubeRef, DiceCondition, DiceOp, DiceOperand, DiceValue, QlOperation};
use ql::cubestore::MaintenanceStrategy;
use ql::{CubeCell, QlError, QueryingModule, ResultCube};
use qlsmith::corpus::{corpus_programs, read_corpus_file, write_corpus_file};
use qlsmith::diff::{
    check_against_identity_plan, check_program, check_select, evaluate_on, identity_plan_forms,
    ModuleOracle, QlOracle,
};
use qlsmith::fixture::{firi, fmember, fuzz_cube, FuzzCube};
use qlsmith::ql_gen::{assemble, GrammarCoverage, QlGenerator};
use qlsmith::shrink::shrink_ql;
use qlsmith::sparql_gen::{SparqlCoverage, SparqlGenerator};
use qlsmith::universe::SchemaUniverse;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparql::testutil::evaluate_unrestored;
use sparql::Endpoint;

/// Applies one store mutation, cycling through four kinds: hierarchy
/// raggedness toggles (delta: the replay re-reads the hierarchy),
/// observation appends (delta), whole-row removals (delta + tombstone,
/// eventually compaction) and dangling structure triples (refused by the
/// delta path → rebuild).
fn mutate(cube: &mut FuzzCube, rng: &mut StdRng, round: usize) {
    match round % 4 {
        0 => cube.toggle_ragged_link(),
        1 => cube.append_observation(rng),
        2 => {
            cube.remove_observation(rng);
        }
        _ => cube.add_dangling_structure(),
    }
}

#[test]
fn ql_campaign_is_bit_identical_across_backends_and_mutations() {
    let mut cube = fuzz_cube();
    let endpoint = cube.endpoint.clone();
    let schema = cube.schema.clone();
    let universe = SchemaUniverse::from_endpoint(&endpoint, &schema).unwrap();
    let generator = QlGenerator::new(&universe, &schema);
    let module = QueryingModule::with_schema(&endpoint, schema.clone());
    let oracle = ModuleOracle::new(&module);

    let programs = qlsmith::campaign_programs();
    let mut rng = StdRng::seed_from_u64(qlsmith::campaign_seed());
    let mut coverage = GrammarCoverage::default();
    coverage.record_aggregates(&universe);

    for spotlight in 0..programs {
        if spotlight > 0 && spotlight % 10 == 0 {
            mutate(&mut cube, &mut rng, spotlight / 10);
        }
        let program = generator.generate(&mut rng, spotlight);
        coverage.record(&program);
        let text = program.to_ql_string();
        let verdict = check_program(&oracle, &text)
            .unwrap_or_else(|e| panic!("program {spotlight} failed to execute: {e}\n{text}"));
        assert!(
            verdict.is_none(),
            "program {spotlight} diverged: {verdict:?}"
        );
    }

    // The campaign ends with a per-production metrics snapshot
    // (`fuzz.ql.production.*` counters): the grammar gate reads hit counts
    // from it, not from recorder-internal state.
    let snapshot = coverage.snapshot();
    assert_eq!(
        GrammarCoverage::missing_in(&snapshot),
        Vec::<&'static str>::new(),
        "the campaign must touch every QL grammar production:\n{}",
        snapshot.render_text()
    );
    assert!(
        snapshot.counter("fuzz.ql.production.qloperation-slice") >= 1
            && snapshot.counter("fuzz.ql.production.diceop-ne") >= 1,
        "per-production hit counts are readable from the snapshot"
    );

    // The campaign really ran against mid-mutation-sequence states: the
    // catalog saw the first build, delta refreshes (appends, removals,
    // raggedness toggles) and refusal-driven rebuild fallbacks (dangling
    // structure triples).
    let reports = module.maintenance_reports();
    let strategies: Vec<MaintenanceStrategy> = reports.iter().map(|r| r.strategy).collect();
    assert!(
        strategies.contains(&MaintenanceStrategy::Delta),
        "appends/removals must accrete incrementally: {strategies:?}"
    );
    assert!(
        strategies.contains(&MaintenanceStrategy::Rebuild),
        "dangling structure triples must force rebuild fallbacks: {strategies:?}"
    );
    assert_eq!(
        strategies.first(),
        Some(&MaintenanceStrategy::Fresh),
        "the history starts with the first materialization"
    );
}

#[test]
fn sparql_campaign_text_and_parsed_paths_agree() {
    let mut cube = fuzz_cube();
    let endpoint = cube.endpoint.clone();
    let schema = cube.schema.clone();
    let universe = SchemaUniverse::from_endpoint(&endpoint, &schema).unwrap();
    let generator = SparqlGenerator::new(&universe);

    let queries = qlsmith::campaign_queries();
    let mut rng = StdRng::seed_from_u64(qlsmith::campaign_seed() ^ 0x5A5E);
    let mut coverage = SparqlCoverage::default();

    for spotlight in 0..queries {
        if spotlight > 0 && spotlight % 10 == 0 {
            mutate(&mut cube, &mut rng, spotlight / 10);
        }
        let query = generator.generate(&mut rng, spotlight);
        let member_list = generator.member_list(spotlight);
        for query in [query, member_list] {
            coverage.record(&query);
            let mismatch = check_select(&endpoint, &query);
            assert!(
                mismatch.is_none(),
                "query {spotlight}: the two evaluation paths diverged: {mismatch:?}"
            );
        }
    }

    let snapshot = coverage.snapshot();
    assert_eq!(
        SparqlCoverage::missing_in(&snapshot),
        Vec::<String>::new(),
        "the campaign must touch every SELECT grammar production:\n{}",
        snapshot.render_text()
    );
    assert!(
        snapshot.counter("fuzz.sparql.production.patternelement-triple") >= 1,
        "per-production hit counts are readable from the snapshot"
    );
}

/// The planned-vs-textual leg's self-test: an evaluator that plans each
/// run of triple patterns but skips the sort restoring textual row order
/// must be caught, while the shipped planned evaluation of the same
/// queries passes the same leg. The queries are generated ones plus a dice
/// through a roll-up, the shape the planner reorders (generated queries
/// over this small cube rarely save enough to be reordered).
#[test]
fn planned_vs_textual_leg_catches_a_plan_that_skips_the_restoring_sort() {
    let cube = fuzz_cube();
    let universe = SchemaUniverse::from_endpoint(&cube.endpoint, &cube.schema).unwrap();
    let generator = SparqlGenerator::new(&universe);
    let mut rng = StdRng::seed_from_u64(qlsmith::campaign_seed() ^ 0x5A5E);
    let dice = sparql::parse_select(&format!(
        "SELECT ?obs ?city WHERE {{ ?obs <http://purl.org/linked-data/cube#dataSet> <{}> . \
         ?obs <{}> ?city . ?city <http://www.w3.org/2004/02/skos/core#broader> ?country . \
         FILTER(?country = {}) }}",
        firi("ds").as_str(),
        firi("lv/city").as_str(),
        fmember("K1"),
    ))
    .unwrap();
    let queries = (0..200).map(|spotlight| generator.generate(&mut rng, spotlight));
    let mut caught = 0;
    for (index, query) in std::iter::once(dice).chain(queries).enumerate() {
        for form in identity_plan_forms(&query) {
            let planned = cube.endpoint.select_parsed(&form);
            assert!(
                check_against_identity_plan(&cube.endpoint, &form, &planned).is_none(),
                "query {index}: the planned evaluation left textual order"
            );
            let unrestored = evaluate_on(&cube.endpoint, &form, evaluate_unrestored);
            if check_against_identity_plan(&cube.endpoint, &form, &unrestored).is_some() {
                caught += 1;
            }
        }
    }
    assert!(caught > 0, "no query exposed the unrestored plan");
}

/// An oracle with a deliberately seeded defect: whenever the program text
/// contains a `!=` dice it appends a phantom cell to the last backend's
/// result. The harness self-test below proves the differential driver
/// catches it, the shrinker reduces the trigger to one statement, and the
/// corpus round-trip replays it.
struct FaultyOracle<'e> {
    inner: ModuleOracle<'e>,
}

impl QlOracle for FaultyOracle<'_> {
    fn evaluate(&self, ql_text: &str) -> Result<Vec<(&'static str, ResultCube)>, QlError> {
        let mut results = self.inner.evaluate(ql_text)?;
        if ql_text.contains("!=") {
            if let Some((_, cube)) = results.last_mut() {
                cube.cells.push(CubeCell {
                    coordinates: Vec::new(),
                    values: Vec::new(),
                });
            }
        }
        Ok(results)
    }
}

fn measure_dice(measure: &str, op: DiceOp, value: f64) -> QlOperation {
    QlOperation::Dice {
        cube: CubeRef::Variable(String::new()),
        condition: DiceCondition::Comparison {
            operand: DiceOperand::Measure(firi(measure)),
            op,
            value: DiceValue::Number(value),
        },
    }
}

#[test]
fn seeded_mismatch_is_caught_shrunk_and_replayed_from_the_corpus() {
    let cube = fuzz_cube();
    let module = QueryingModule::with_schema(&cube.endpoint, cube.schema.clone());
    let real = ModuleOracle::new(&module);
    let faulty = FaultyOracle {
        inner: ModuleOracle::new(&module),
    };

    // A four-step program whose only "interesting" ingredient is the `!=`
    // dice the faulty oracle keys on.
    let program = assemble(
        firi("ds"),
        vec![
            QlOperation::Slice {
                cube: CubeRef::Variable(String::new()),
                dimension: firi("dim/cat"),
            },
            QlOperation::Rollup {
                cube: CubeRef::Variable(String::new()),
                dimension: firi("dim/geo"),
                level: firi("lv/country"),
            },
            measure_dice("m/int_sum", DiceOp::Gt, 1.0),
            measure_dice("m/int_sum", DiceOp::Ne, 7.0),
        ],
    );

    // 1. The differential driver catches the seeded defect…
    let full_text = program.to_ql_string();
    let caught = check_program(&faulty, &full_text).unwrap();
    assert!(caught.is_some(), "the driver must flag the seeded mismatch");
    // …which the honest oracle does not exhibit, on any of its legs.
    assert!(check_program(&real, &full_text).unwrap().is_none());
    let legs: Vec<&str> = real
        .evaluate(&full_text)
        .unwrap()
        .iter()
        .map(|(l, _)| *l)
        .collect();
    assert_eq!(legs, qlsmith::diff::LEGS);

    // 2. The shrinker reduces the trigger to a single statement.
    let minimal = shrink_ql(&program, &cube.schema, |text| {
        matches!(check_program(&faulty, text), Ok(Some(_)))
    });
    assert_eq!(
        minimal.statements.len(),
        1,
        "only the != dice should survive: {}",
        minimal.to_ql_string()
    );
    assert!(minimal.to_ql_string().contains("!="));

    // 3. The minimized trigger round-trips through a corpus file and
    //    replays green against the honest oracle.
    let dir = std::env::temp_dir().join("qlsmith-selftest-corpus");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("selftest-ne-dice.ql");
    write_corpus_file(
        &path,
        qlsmith::campaign_seed(),
        "harness self-test: seeded oracle defect on != dices",
        &minimal.to_ql_string(),
    )
    .unwrap();
    let entry = read_corpus_file(&path).unwrap();
    let replayed = ql::parse_ql(&entry.ql_text).unwrap();
    ql::simplify(&replayed, &cube.schema).unwrap();
    assert!(
        check_program(&real, &entry.ql_text).unwrap().is_none(),
        "the corpus entry must replay green on the honest oracle"
    );
    // The faulty oracle still trips on the replayed text, proving the
    // corpus file preserves the trigger, not just some program.
    assert!(check_program(&faulty, &entry.ql_text).unwrap().is_some());
    std::fs::remove_file(&path).ok();
}

#[test]
fn committed_corpus_replays_green() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let entries = corpus_programs(&dir).unwrap();
    assert!(
        !entries.is_empty(),
        "the regression corpus must not be empty"
    );

    let cube = fuzz_cube();
    let module = QueryingModule::with_schema(&cube.endpoint, cube.schema.clone());
    let oracle = ModuleOracle::new(&module);
    for (path, entry) in entries {
        let program = ql::parse_ql(&entry.ql_text)
            .unwrap_or_else(|e| panic!("{}: corpus entry does not parse: {e}", path.display()));
        ql::simplify(&program, &cube.schema)
            .unwrap_or_else(|e| panic!("{}: corpus entry is ill-formed: {e}", path.display()));
        let verdict = check_program(&oracle, &entry.ql_text)
            .unwrap_or_else(|e| panic!("{}: corpus entry failed to execute: {e}", path.display()));
        assert!(
            verdict.is_none(),
            "{}: corpus entry regressed: {verdict:?}",
            path.display()
        );
    }
}

//! Predefined QL workloads over the enriched Eurostat cube.
//!
//! These are the queries used by the examples, the integration tests and the
//! benchmark harness. They assume the schema produced by the demo
//! enrichment configuration (`qb2olap::demo`), which uses the same names as
//! the paper: `schema:citizenshipDim`, `schema:destinationDim`,
//! `schema:timeDim`, `schema:asylappDim`, the levels `schema:continent` and
//! `schema:year`, and the attributes `schema:continentName` and
//! `schema:countryName`.

/// Continent-name constants for generated attribute dices: the four real
/// continents of the demo data plus one that matches nothing, so generated
/// workloads probe both hit and miss paths.
pub const CONTINENT_NAMES: &[&str] = &["Africa", "Asia", "Europe", "America", "Atlantis"];

/// Country-name constants for generated attribute dices, again with one
/// guaranteed miss.
pub const COUNTRY_NAMES: &[&str] = &["France", "Germany", "Sweden", "Hungary", "Nowhere"];

/// Draws one string from a name pool — the shared sampling idiom of the
/// workload generator and downstream fuzz harnesses (`qlsmith` mixes these
/// pools into its dice constants as plausible-but-foreign values).
pub fn sample_name(rng: &mut rand::rngs::StdRng, pool: &[&'static str]) -> &'static str {
    use rand::Rng;
    pool[rng.gen_range(0..pool.len())]
}

/// The QL prologue shared by all workload queries.
pub const PROLOGUE: &str = "\
PREFIX data: <http://eurostat.linked-statistics.org/data/>;
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
PREFIX property: <http://eurostat.linked-statistics.org/property#>;
PREFIX sdmx-dimension: <http://purl.org/linked-data/sdmx/2009/dimension#>;
";

/// Mary's query from Section IV of the paper, already simplified: number of
/// applications per year submitted by citizens of African countries whose
/// destination is France.
pub fn mary_query() -> String {
    format!(
        "{PROLOGUE}QUERY
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := ROLLUP ($C1, schema:citizenshipDim, schema:continent);
$C3 := ROLLUP ($C2, schema:timeDim, schema:year);
$C4 := DICE ($C3, (schema:citizenshipDim|schema:continent|schema:continentName = \"Africa\"));
$C5 := DICE ($C4, schema:destinationDim|property:geo|schema:countryName = \"France\");
"
    )
}

/// The same analysis written the way a user might naively write it: the
/// slice appears late and the citizenship dimension is rolled up, drilled
/// back down and rolled up again. The Query Simplification phase must
/// rewrite this into [`mary_query`]'s shape (rules (a) and (b) of
/// Section III-B).
pub fn mary_query_unoptimized() -> String {
    format!(
        "{PROLOGUE}QUERY
$C1 := ROLLUP (data:migr_asyappctzm, schema:citizenshipDim, schema:continent);
$C2 := DRILLDOWN ($C1, schema:citizenshipDim, property:citizen);
$C3 := ROLLUP ($C2, schema:citizenshipDim, schema:continent);
$C4 := ROLLUP ($C3, schema:timeDim, schema:year);
$C5 := SLICE ($C4, schema:asylappDim);
$C6 := DICE ($C5, (schema:citizenshipDim|schema:continent|schema:continentName = \"Africa\"));
$C7 := DICE ($C6, schema:destinationDim|property:geo|schema:countryName = \"France\");
"
    )
}

/// A single roll-up of citizenship to continent (the first OLAP need in the
/// paper's use case: "aggregate the origin nationality of immigrants per
/// continent").
pub fn rollup_citizenship_to_continent() -> String {
    format!(
        "{PROLOGUE}QUERY
$C1 := ROLLUP (data:migr_asyappctzm, schema:citizenshipDim, schema:continent);
"
    )
}

/// Roll-up of time to year combined with a dice on the measure value.
pub fn yearly_large_cells() -> String {
    format!(
        "{PROLOGUE}QUERY
$C1 := ROLLUP (data:migr_asyappctzm, schema:timeDim, schema:year);
$C2 := DICE ($C1, sdmx-measure:obsValue > 400);
",
    )
    .replace(
        "PREFIX sdmx-dimension:",
        "PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>;\nPREFIX sdmx-dimension:",
    )
}

/// Slice away everything except citizenship: total applications per country
/// of origin.
pub fn totals_by_citizenship() -> String {
    format!(
        "{PROLOGUE}QUERY
$C1 := SLICE (data:migr_asyappctzm, schema:timeDim);
$C2 := SLICE ($C1, schema:destinationDim);
$C3 := SLICE ($C2, schema:ageDim);
$C4 := SLICE ($C3, schema:sexDim);
$C5 := SLICE ($C4, schema:asylappDim);
"
    )
}

/// The "wider analysis" the paper's use case motivates: analyse migration
/// according to the political organisation of the host countries (EU vs
/// EFTA), enabled by the enrichment of the destination dimension.
pub fn by_political_organisation() -> String {
    format!(
        "{PROLOGUE}QUERY
$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
$C2 := SLICE ($C1, schema:ageDim);
$C3 := SLICE ($C2, schema:sexDim);
$C4 := ROLLUP ($C3, schema:destinationDim, schema:politicalOrg);
$C5 := ROLLUP ($C4, schema:timeDim, schema:year);
"
    )
}

/// The named workload used by the benchmark harness: `(name, QL program)`.
pub fn bench_queries() -> Vec<(&'static str, String)> {
    vec![
        ("mary", mary_query()),
        ("mary_unoptimized", mary_query_unoptimized()),
        ("rollup_continent", rollup_citizenship_to_continent()),
        ("yearly_large_cells", yearly_large_cells()),
        ("totals_by_citizenship", totals_by_citizenship()),
        ("by_political_organisation", by_political_organisation()),
    ]
}

/// A seeded generator of random — but always schema-valid — QL programs
/// over the demo cube: random slice subsets, random roll-up targets
/// (sometimes written redundantly, to exercise the simplification rules),
/// and random attribute/measure dices. The same `(seed, count)` always
/// yields the same programs, so differential harnesses (SPARQL variant vs
/// variant, SPARQL vs columnar backend) can replay a stable workload.
pub fn generated_queries(seed: u64, count: usize) -> Vec<(String, String)> {
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(count);
    for index in 0..count {
        // Which dimensions stay in the result (at least one must).
        let mut sliced = [false; 6];
        let dims = [
            "schema:citizenshipDim",
            "schema:destinationDim",
            "schema:timeDim",
            "schema:ageDim",
            "schema:sexDim",
            "schema:asylappDim",
        ];
        for flag in sliced.iter_mut() {
            *flag = rng.gen_bool(0.35);
        }
        if sliced.iter().all(|&s| s) {
            sliced[rng.gen_range(0..sliced.len())] = false;
        }

        // Roll-up targets for the kept hierarchical dimensions. The target
        // level decides which attribute dices stay valid later.
        let citizenship_target = if !sliced[0] && rng.gen_bool(0.6) {
            Some(if rng.gen_bool(0.75) {
                "schema:continent"
            } else {
                "schema:citAll"
            })
        } else {
            None
        };
        let destination_target = if !sliced[1] && rng.gen_bool(0.35) {
            Some("schema:politicalOrg")
        } else {
            None
        };
        let time_target = if !sliced[2] && rng.gen_bool(0.5) {
            Some("schema:year")
        } else {
            None
        };

        let mut operations: Vec<String> = Vec::new();
        let rollup = |operations: &mut Vec<String>,
                      rng: &mut StdRng,
                      dimension: &str,
                      bottom: &str,
                      target: &str| {
            // Sometimes write the roll-up redundantly (up, back down, up
            // again) so rule (b) fusion has something to do.
            if rng.gen_bool(0.25) {
                operations.push(format!("ROLLUP (@, {dimension}, {target})"));
                operations.push(format!("DRILLDOWN (@, {dimension}, {bottom})"));
            }
            operations.push(format!("ROLLUP (@, {dimension}, {target})"));
        };
        if let Some(target) = citizenship_target {
            rollup(
                &mut operations,
                &mut rng,
                "schema:citizenshipDim",
                "property:citizen",
                target,
            );
        }
        if let Some(target) = destination_target {
            rollup(
                &mut operations,
                &mut rng,
                "schema:destinationDim",
                "property:geo",
                target,
            );
        }
        if let Some(target) = time_target {
            rollup(
                &mut operations,
                &mut rng,
                "schema:timeDim",
                "sdmx-dimension:refPeriod",
                target,
            );
        }
        // Slices go last so that rule (a) (slice push-down) is exercised
        // whenever roll-ups precede them.
        for (dimension, &is_sliced) in dims.iter().zip(&sliced) {
            if is_sliced {
                operations.push(format!("SLICE (@, {dimension})"));
            }
        }

        // Dices (the grammar puts them at the end). Attribute dices must
        // target the dimension's *result* level.
        if citizenship_target == Some("schema:continent") && rng.gen_bool(0.6) {
            let name = sample_name(&mut rng, CONTINENT_NAMES);
            let op = if rng.gen_bool(0.8) { "=" } else { "!=" };
            operations.push(format!(
                "DICE (@, schema:citizenshipDim|schema:continent|schema:continentName {op} \"{name}\")"
            ));
        }
        if !sliced[1] && destination_target.is_none() && rng.gen_bool(0.4) {
            let name = sample_name(&mut rng, COUNTRY_NAMES);
            operations.push(format!(
                "DICE (@, schema:destinationDim|property:geo|schema:countryName = \"{name}\")"
            ));
        }
        if rng.gen_bool(0.4) {
            let threshold = rng.gen_range(1..=60) * 10;
            let op = [">", ">=", "<", "<="][rng.gen_range(0..4usize)];
            operations.push(format!("DICE (@, sdmx-measure:obsValue {op} {threshold})"));
        }
        // A program needs at least one operation to be valid QL.
        if operations.is_empty() {
            operations.push("SLICE (@, schema:asylappDim)".to_string());
        }

        let mut text = format!(
            "{PROLOGUE}PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>;\nQUERY\n"
        );
        for (position, operation) in operations.iter().enumerate() {
            let input = if position == 0 {
                "data:migr_asyappctzm".to_string()
            } else {
                format!("$C{position}")
            };
            text.push_str(&format!(
                "$C{} := {};\n",
                position + 1,
                operation.replace('@', &input)
            ));
        }
        queries.push((format!("generated_{seed}_{index}"), text));
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_share_the_prologue_and_query_keyword() {
        for (name, text) in bench_queries() {
            assert!(
                text.contains("QUERY"),
                "{name} is missing the QUERY keyword"
            );
            assert!(
                text.contains("PREFIX schema:"),
                "{name} is missing the schema prefix"
            );
            assert!(text.trim_end().ends_with(';'), "{name} must end with ';'");
        }
    }

    #[test]
    fn mary_query_matches_the_paper_shape() {
        let q = mary_query();
        assert_eq!(q.matches(":= SLICE").count(), 1);
        assert_eq!(q.matches(":= ROLLUP").count(), 2);
        assert_eq!(q.matches(":= DICE").count(), 2);
        assert!(q.contains("schema:continentName = \"Africa\""));
        assert!(q.contains("schema:countryName = \"France\""));
    }

    #[test]
    fn unoptimized_variant_has_redundant_operations() {
        let q = mary_query_unoptimized();
        assert!(q.contains("DRILLDOWN"));
        assert!(
            q.matches(":= ROLLUP").count() > mary_query().matches(":= ROLLUP").count(),
            "the unoptimised query must contain fusable roll-ups"
        );
    }

    #[test]
    fn measure_dice_query_declares_the_measure_prefix() {
        assert!(yearly_large_cells().contains("PREFIX sdmx-measure:"));
    }

    #[test]
    fn generated_queries_are_deterministic_and_well_formed() {
        let a = generated_queries(7, 24);
        let b = generated_queries(7, 24);
        assert_eq!(a, b, "same seed, same workload");
        assert_eq!(a.len(), 24);
        let c = generated_queries(8, 24);
        assert_ne!(a, c, "different seeds differ");

        for (name, text) in &a {
            assert!(name.starts_with("generated_7_"), "{name}");
            assert!(text.contains("QUERY"), "{name} misses QUERY:\n{text}");
            assert!(
                text.contains("$C1 := "),
                "{name} must have at least one statement:\n{text}"
            );
            assert!(
                text.contains("data:migr_asyappctzm"),
                "{name} must start from the dataset:\n{text}"
            );
            assert!(text.trim_end().ends_with(';'), "{name} must end with ';'");
        }
        // The workload mixes the operation kinds across programs.
        let all: String = a.iter().map(|(_, t)| t.as_str()).collect();
        for keyword in ["SLICE", "ROLLUP", "DRILLDOWN", "DICE"] {
            assert!(all.contains(keyword), "workload never uses {keyword}");
        }
    }
}

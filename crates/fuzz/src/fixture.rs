//! The generated fuzz cube: a deterministic QB4OLAP dataset whose shape is
//! chosen to reach every corner of the QL grammar.
//!
//! * three dimensions — a three-level geography (with a **ragged** city and
//!   a ragged country), a three-level time hierarchy, and a flat category;
//! * ten measures — one integer and one float column for **each** of the
//!   five aggregate functions, so every generated program aggregates all of
//!   them at once;
//! * attributes at four different levels with string, numeric and IRI
//!   values, so dice predicates can target every [`ql::ast::DiceValue`]
//!   variant — and, with a string attribute on the category as well as on
//!   the geography, one dice can compare attributes of two dimensions;
//! * measure values drawn from the [`crate::pool`] edge cases — signed
//!   zeros, subnormals, `f64::MAX` and `i64::MAX`-adjacent integers flow
//!   through MIN/MAX, while SUM/AVG columns stay bounded so the compensated
//!   sums cannot overflow.

use qb4olap::{
    AggregateFunction, Cardinality, CubeSchema, Dimension, Hierarchy, HierarchyStep,
    LevelAttribute, LevelComponent, MeasureSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdf::{Iri, Literal, Term, Triple};
use sparql::{Endpoint, LocalEndpoint};

use crate::pool;

/// Namespace of every IRI in the fuzz cube.
pub const NS: &str = "http://qlsmith.example/";

/// An IRI inside the fuzz cube's namespace.
pub fn firi(suffix: &str) -> Iri {
    Iri::new(format!("{NS}{suffix}"))
}

/// A member term inside the fuzz cube's namespace.
pub fn fmember(suffix: &str) -> Term {
    Term::iri(format!("{NS}member/{suffix}"))
}

/// The five aggregate functions, paired with the measure-name stem used by
/// the fixture (`m/int_<stem>` and `m/float_<stem>`).
pub const AGGREGATES: [(AggregateFunction, &str); 5] = [
    (AggregateFunction::Sum, "sum"),
    (AggregateFunction::Avg, "avg"),
    (AggregateFunction::Count, "count"),
    (AggregateFunction::Min, "min"),
    (AggregateFunction::Max, "max"),
];

/// The fuzz cube: endpoint, schema, and the observation nodes loaded so
/// far (mutation steps append to / remove from this list).
pub struct FuzzCube {
    /// The endpoint holding the cube's triples.
    pub endpoint: LocalEndpoint,
    /// The QB4OLAP schema of the cube.
    pub schema: CubeSchema,
    /// Observation nodes currently present in the store.
    pub observations: Vec<Term>,
    next_obs: usize,
    next_structure: usize,
}

/// City → country rollups; `c7` stays ragged (no country).
const CITY_COUNTRY: [(&str, &str); 7] = [
    ("c0", "K0"),
    ("c1", "K0"),
    ("c2", "K1"),
    ("c3", "K1"),
    ("c4", "K2"),
    ("c5", "K2"),
    ("c6", "K2"),
];

/// Country → continent rollups; `K2` stays ragged (no continent).
const COUNTRY_CONTINENT: [(&str, &str); 2] = [("K0", "X0"), ("K1", "X1")];

const CITIES: [&str; 8] = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];
const COUNTRIES: [&str; 3] = ["K0", "K1", "K2"];
const CONTINENTS: [&str; 2] = ["X0", "X1"];
const MONTHS: [&str; 12] = [
    "m00", "m01", "m02", "m03", "m04", "m05", "m06", "m07", "m08", "m09", "m10", "m11",
];
const QUARTERS: [&str; 4] = ["q0", "q1", "q2", "q3"];
const YEARS: [&str; 2] = ["y0", "y1"];
const CATEGORIES: [&str; 4] = ["a0", "a1", "a2", "a3"];

fn chain_dimension(schema: &mut CubeSchema, dim: &str, hier: &str, levels: &[Iri]) {
    let bottom = levels[0].clone();
    schema.level_components.push(LevelComponent {
        level: bottom.clone(),
        cardinality: Cardinality::ManyToOne,
        dimension: Some(firi(dim)),
    });
    let mut hierarchy = Hierarchy::new(firi(hier));
    hierarchy.levels = levels.to_vec();
    for pair in levels.windows(2) {
        hierarchy.steps.push(HierarchyStep {
            child: pair[0].clone(),
            parent: pair[1].clone(),
            cardinality: Cardinality::ManyToOne,
        });
    }
    let mut dimension = Dimension::new(firi(dim));
    dimension.hierarchies.push(hierarchy);
    schema.dimensions.push(dimension);
    for level in levels {
        schema.level_mut(level);
    }
}

/// The fuzz cube's schema (independent of the data).
pub fn fuzz_schema() -> CubeSchema {
    let mut schema = CubeSchema::new(firi("dsdQB4O"), firi("ds"));
    chain_dimension(
        &mut schema,
        "dim/geo",
        "hier/geo",
        &[firi("lv/city"), firi("lv/country"), firi("lv/continent")],
    );
    chain_dimension(
        &mut schema,
        "dim/time",
        "hier/time",
        &[firi("lv/month"), firi("lv/quarter"), firi("lv/year")],
    );
    chain_dimension(&mut schema, "dim/cat", "hier/cat", &[firi("lv/cat")]);

    for (aggregate, stem) in AGGREGATES {
        schema.measures.push(MeasureSpec {
            property: firi(&format!("m/int_{stem}")),
            aggregate,
        });
        schema.measures.push(MeasureSpec {
            property: firi(&format!("m/float_{stem}")),
            aggregate,
        });
    }

    schema
        .level_mut(&firi("lv/city"))
        .attributes
        .push(LevelAttribute::new(firi("attr/cityPop")));
    schema
        .level_mut(&firi("lv/country"))
        .attributes
        .push(LevelAttribute::new(firi("attr/countryName")));
    schema
        .level_mut(&firi("lv/country"))
        .attributes
        .push(LevelAttribute::new(firi("attr/flag")));
    schema
        .level_mut(&firi("lv/continent"))
        .attributes
        .push(LevelAttribute::new(firi("attr/continentCode")));
    schema
        .level_mut(&firi("lv/cat"))
        .attributes
        .push(LevelAttribute::new(firi("attr/catName")));
    schema
}

/// One complete observation (every dimension bound, all ten measures).
fn observation(rng: &mut StdRng, node_index: usize) -> qb::Observation {
    let mut obs = qb::Observation::new(Term::iri(format!("{NS}obs/o{node_index}")));
    obs.dimensions.insert(
        firi("lv/city"),
        fmember(CITIES[rng.gen_range(0..CITIES.len())]),
    );
    obs.dimensions.insert(
        firi("lv/month"),
        fmember(MONTHS[rng.gen_range(0..MONTHS.len())]),
    );
    obs.dimensions.insert(
        firi("lv/cat"),
        fmember(CATEGORIES[rng.gen_range(0..CATEGORIES.len())]),
    );
    for (_, stem) in AGGREGATES {
        // SUM/AVG columns stay bounded (the compensated sum is exact but
        // f64::MAX + f64::MAX overflows to infinity); MIN/MAX columns take
        // the full extreme pool; COUNT columns only count, any value works.
        let (int_value, float_value) = match stem {
            "min" | "max" => (pool::int_extreme(rng), pool::float_extreme(rng)),
            _ => {
                let bounded = pool::bounded_decimal(rng);
                // Mix the signed-zero / subnormal cases into the bounded
                // columns too — they are harmless for SUM but still probe
                // the order-independence of the accumulation.
                let float_value = if rng.gen_bool(0.125) {
                    [0.0, -0.0, 5e-324, -5e-324][rng.gen_range(0..4usize)]
                } else {
                    bounded
                };
                (rng.gen_range(-500..=500i64), float_value)
            }
        };
        obs.measures.insert(
            firi(&format!("m/int_{stem}")),
            Term::Literal(Literal::integer(int_value)),
        );
        obs.measures.insert(
            firi(&format!("m/float_{stem}")),
            Term::Literal(Literal::decimal(float_value)),
        );
    }
    obs
}

/// Builds the fuzz cube: 96 observations plus the full member / rollup /
/// attribute instance graph. Deterministic — every call returns the same
/// triples.
pub fn fuzz_cube() -> FuzzCube {
    let schema = fuzz_schema();
    let mut rng = StdRng::seed_from_u64(0xF1C5);

    let mut builder = qb::QbDatasetBuilder::new(firi("ds"), firi("dsd"))
        .dimension(firi("lv/city"))
        .dimension(firi("lv/month"))
        .dimension(firi("lv/cat"));
    for (_, stem) in AGGREGATES {
        builder = builder
            .measure(firi(&format!("m/int_{stem}")))
            .measure(firi(&format!("m/float_{stem}")));
    }
    let mut observations = Vec::new();
    for i in 0..96usize {
        let obs = observation(&mut rng, i);
        observations.push(obs.node.clone());
        builder = builder.observation(obs);
    }
    let (_, mut triples) = builder.build();

    for (level, members) in [
        ("lv/city", &CITIES[..]),
        ("lv/country", &COUNTRIES[..]),
        ("lv/continent", &CONTINENTS[..]),
        ("lv/month", &MONTHS[..]),
        ("lv/quarter", &QUARTERS[..]),
        ("lv/year", &YEARS[..]),
        ("lv/cat", &CATEGORIES[..]),
    ] {
        for member in members {
            triples.push(qb4olap::member_of_triple(&fmember(member), &firi(level)));
        }
    }
    for (child, parent) in CITY_COUNTRY {
        triples.push(qb4olap::rollup_triple(&fmember(child), &fmember(parent)));
    }
    for (child, parent) in COUNTRY_CONTINENT {
        triples.push(qb4olap::rollup_triple(&fmember(child), &fmember(parent)));
    }
    for (i, month) in MONTHS.iter().enumerate() {
        triples.push(qb4olap::rollup_triple(
            &fmember(month),
            &fmember(QUARTERS[i / 3]),
        ));
    }
    for (i, quarter) in QUARTERS.iter().enumerate() {
        triples.push(qb4olap::rollup_triple(
            &fmember(quarter),
            &fmember(YEARS[i / 2]),
        ));
    }

    for (i, city) in CITIES.iter().enumerate() {
        triples.push(qb4olap::attribute_triple(
            &fmember(city),
            &firi("attr/cityPop"),
            &Term::Literal(Literal::integer([90, 40, 1200, 7, 560, 3, 75, 220][i])),
        ));
    }
    for (i, country) in COUNTRIES.iter().enumerate() {
        triples.push(qb4olap::attribute_triple(
            &fmember(country),
            &firi("attr/countryName"),
            &Term::Literal(Literal::string(["Alpha", "Beta", "Gamma"][i])),
        ));
        triples.push(qb4olap::attribute_triple(
            &fmember(country),
            &firi("attr/flag"),
            &Term::iri(format!("{NS}flag/{country}")),
        ));
    }
    for (i, continent) in CONTINENTS.iter().enumerate() {
        triples.push(qb4olap::attribute_triple(
            &fmember(continent),
            &firi("attr/continentCode"),
            &Term::Literal(Literal::string(["AF", "EU"][i])),
        ));
    }

    for (i, category) in CATEGORIES.iter().enumerate() {
        triples.push(qb4olap::attribute_triple(
            &fmember(category),
            &firi("attr/catName"),
            &Term::Literal(Literal::string(["Ant", "Bee", "Cod", "Doe"][i])),
        ));
    }

    let endpoint = LocalEndpoint::new();
    endpoint.insert_triples(&triples).unwrap();
    FuzzCube {
        endpoint,
        schema,
        observations,
        next_obs: 96,
        next_structure: 0,
    }
}

impl FuzzCube {
    /// Appends one fresh, complete observation (a delta-appliable append).
    pub fn append_observation(&mut self, rng: &mut StdRng) {
        let obs = observation(rng, self.next_obs);
        self.next_obs += 1;
        self.observations.push(obs.node.clone());
        let triples = qb::observation_triples(&firi("ds"), &obs);
        self.endpoint.insert_triples(&triples).unwrap();
    }

    /// Removes one random observation completely (a partial-removal delta
    /// the cube engine tombstones). Keeps at least 24 rows so later
    /// programs still aggregate something. Returns whether a row was
    /// removed.
    pub fn remove_observation(&mut self, rng: &mut StdRng) -> bool {
        if self.observations.len() <= 24 {
            return false;
        }
        let index = rng.gen_range(0..self.observations.len());
        let node = self.observations.swap_remove(index);
        self.endpoint
            .store()
            .remove_matching(Some(&node), None, None);
        true
    }

    /// Toggles the ragged city `c7`'s rollup link to `K0`: a hierarchy
    /// triple, which a delta replay applies by re-reading the hierarchy.
    /// Both states keep the instance graph functional, so SPARQL and
    /// columnar results stay comparable.
    pub fn toggle_ragged_link(&mut self) {
        let triple = qb4olap::rollup_triple(&fmember("c7"), &fmember("K0"));
        if self.endpoint.store().contains(&triple) {
            self.endpoint.store().remove(&triple);
        } else {
            self.endpoint
                .insert_triples(std::slice::from_ref(&triple))
                .unwrap();
        }
    }

    /// Inserts a fresh `qb4o:hasLevel` triple on a fresh DSD node, the
    /// shape of qbbench's fold agitator: a structure triple, which no delta
    /// replay applies, so the next refresh rebuilds. The cube's own schema
    /// and results do not change.
    pub fn add_dangling_structure(&mut self) {
        let serial = self.next_structure;
        self.next_structure += 1;
        let triple = Triple::new(
            Term::Iri(firi(&format!("dsd/dangling{serial}"))),
            rdf::vocab::qb4o::has_level(),
            Term::Iri(firi(&format!("lv/dangling{serial}"))),
        );
        self.endpoint.insert_triples(&[triple]).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic_and_well_formed() {
        let a = fuzz_cube();
        let b = fuzz_cube();
        assert_eq!(a.endpoint.triple_count(), b.endpoint.triple_count());
        assert_eq!(a.observations.len(), 96);
        assert_eq!(a.schema.measures.len(), 10);
        assert_eq!(a.schema.dimensions.len(), 3);
        // The ragged members stay ragged.
        assert_eq!(
            qb4olap::parent_member(&a.endpoint, &fmember("c7"), &firi("lv/country")).unwrap(),
            None
        );
        assert_eq!(
            qb4olap::parent_member(&a.endpoint, &fmember("K2"), &firi("lv/continent")).unwrap(),
            None
        );
    }

    #[test]
    fn mutations_keep_the_observation_list_in_sync() {
        let mut cube = fuzz_cube();
        let mut rng = StdRng::seed_from_u64(3);
        let before = cube.endpoint.triple_count();
        cube.append_observation(&mut rng);
        assert_eq!(cube.observations.len(), 97);
        assert!(cube.endpoint.triple_count() > before);
        assert!(cube.remove_observation(&mut rng));
        assert_eq!(cube.observations.len(), 96);
        cube.toggle_ragged_link();
        assert!(
            qb4olap::parent_member(&cube.endpoint, &fmember("c7"), &firi("lv/country"))
                .unwrap()
                .is_some()
        );
        cube.toggle_ragged_link();
        assert!(
            qb4olap::parent_member(&cube.endpoint, &fmember("c7"), &firi("lv/country"))
                .unwrap()
                .is_none()
        );
        let before = cube.endpoint.triple_count();
        cube.add_dangling_structure();
        cube.add_dangling_structure();
        assert_eq!(
            cube.endpoint.triple_count(),
            before + 2,
            "each triple is fresh"
        );
    }
}

//! Synthetic generator for the Eurostat `migr_asyappctzm` QB dataset.
//!
//! The paper's demo uses the Linked Open Data publication of Eurostat's
//! monthly asylum-application statistics (≈ 80,000 observations for
//! 2013–2014). That dump is not redistributable here, so this module
//! generates a *structurally identical* dataset: the same DSD (six
//! dimensions + `sdmx-measure:obsValue`), the same dictionary namespaces for
//! code-list members, and member-level properties (continent, political
//! organisation, age group, year, `owl:sameAs` links into a DBpedia-like
//! graph) that exercise exactly the discovery paths of the Enrichment
//! module. Scale, noise and which link families are present are
//! configurable so every experiment in EXPERIMENTS.md can be regenerated.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qb::{Observation, QbDataset, QbDatasetBuilder};
use rdf::vocab::{
    eurostat_data, eurostat_dic, eurostat_dsd, eurostat_property, rdfs, sdmx_dimension,
    sdmx_measure, skos,
};
use rdf::{Iri, Literal, Term, Triple};

use crate::codelists::{
    demo_months, AGE_CLASSES, ASYL_APP_TYPES, CITIZEN_COUNTRIES, CONTINENTS, GEO_COUNTRIES, SEXES,
};
use crate::dbpedia;

/// Noise injected into the code-list links, used by the quasi-FD experiments
/// (the paper motivates quasi-FDs by exactly this kind of dirty linked data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Fraction of citizenship members whose continent link is missing.
    pub missing_link_fraction: f64,
    /// Fraction of citizenship members that carry a *second, conflicting*
    /// continent link.
    pub conflicting_link_fraction: f64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            missing_link_fraction: 0.0,
            conflicting_link_fraction: 0.0,
        }
    }
}

/// Configuration of the synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct EurostatConfig {
    /// Number of observations to generate (the demo subset has ≈ 80,000).
    pub observations: usize,
    /// RNG seed, for reproducible benchmarks.
    pub seed: u64,
    /// Whether to emit the code-list member triples (labels, notations,
    /// continent / political-organisation / age-group / year links).
    pub code_list_links: bool,
    /// Whether to emit `owl:sameAs` links from citizenship members to the
    /// synthetic DBpedia graph (needed for the external-enrichment demo).
    pub dbpedia_links: bool,
    /// Emit `xsd:decimal` measure values (quarter-step rates, the
    /// Eurostat-style float-heavy shape) instead of `xsd:integer` counts.
    /// Exercises the columnar engine's float path end to end: the measure
    /// vector materializes as `Decimal` and delta appends must replay
    /// float aggregation bit-identically (EXPERIMENTS.md §E14).
    pub decimal_measures: bool,
    /// Lay observations out in time-major order (all of month one, then
    /// month two, …) instead of striding the whole combination space.
    /// Real Eurostat dumps arrive month by month, which clusters each
    /// reference period into a handful of row segments — the layout the
    /// zone-map pruning experiment measures (EXPERIMENTS.md §E17). The
    /// default `false` keeps the historical shuffled layout byte for byte.
    pub time_ordered: bool,
    /// Link noise for quasi-FD experiments.
    pub noise: NoiseConfig,
}

impl Default for EurostatConfig {
    fn default() -> Self {
        EurostatConfig {
            observations: 80_000,
            seed: 42,
            code_list_links: true,
            dbpedia_links: true,
            decimal_measures: false,
            time_ordered: false,
            noise: NoiseConfig::default(),
        }
    }
}

impl EurostatConfig {
    /// A small configuration for unit tests and examples.
    pub fn small(observations: usize) -> Self {
        EurostatConfig {
            observations,
            ..Default::default()
        }
    }
}

/// The output of the generator.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// The dataset IRI (`data:migr_asyappctzm`).
    pub dataset: Iri,
    /// The DSD IRI (`dsd:migr_asyappctzm`).
    pub dsd: Iri,
    /// The QB dataset description.
    pub qb_dataset: QbDataset,
    /// All generated triples (DSD + dataset + observations + code lists).
    pub triples: Vec<Triple>,
    /// Number of observations generated.
    pub observation_count: usize,
}

// ---- member IRI helpers ------------------------------------------------------

/// The IRI of a citizenship code-list member, e.g. `dic:citizen#SY`.
pub fn citizen_member(code: &str) -> Term {
    Term::Iri(eurostat_dic::term(&format!("citizen#{code}")))
}

/// The IRI of a destination (host country) member, e.g. `dic:geo#FR`.
pub fn geo_member(code: &str) -> Term {
    Term::Iri(eurostat_dic::term(&format!("geo#{code}")))
}

/// The IRI of a monthly reference-period member, e.g. `dic:time#2014M03`.
pub fn time_member(year: i32, month: u32) -> Term {
    Term::Iri(eurostat_dic::term(&format!("time#{year}M{month:02}")))
}

/// The IRI of a yearly reference-period member, e.g. `dic:time#2014`.
pub fn year_member(year: i32) -> Term {
    Term::Iri(eurostat_dic::term(&format!("time#{year}")))
}

/// The IRI of an age-class member.
pub fn age_member(code: &str) -> Term {
    Term::Iri(eurostat_dic::term(&format!("age#{code}")))
}

/// The IRI of an age-group member (the coarser age level).
pub fn age_group_member(code: &str) -> Term {
    Term::Iri(eurostat_dic::term(&format!("agegroup#{code}")))
}

/// The IRI of a sex member.
pub fn sex_member(code: &str) -> Term {
    Term::Iri(eurostat_dic::term(&format!("sex#{code}")))
}

/// The IRI of an applicant-type member.
pub fn asyl_app_member(code: &str) -> Term {
    Term::Iri(eurostat_dic::term(&format!("asyl_app#{code}")))
}

/// The IRI of a continent member, e.g. `dic:continent#Africa`.
pub fn continent_member(name: &str) -> Term {
    Term::Iri(eurostat_dic::term(&format!("continent#{name}")))
}

/// The IRI of a political-organisation member (EU / EFTA).
pub fn political_org_member(name: &str) -> Term {
    Term::Iri(eurostat_dic::term(&format!("polorg#{name}")))
}

/// The "all citizenships" top-level member.
pub fn all_member() -> Term {
    Term::Iri(eurostat_dic::term("all#Total"))
}

/// The member-level property linking a country to its continent.
pub fn continent_property() -> Iri {
    eurostat_dic::term("continent")
}

/// The member-level property linking a host country to its political organisation.
pub fn political_org_property() -> Iri {
    eurostat_dic::term("politicalOrg")
}

/// The member-level property linking a month to its year.
pub fn year_property() -> Iri {
    eurostat_dic::term("year")
}

/// The member-level property linking an age class to its age group.
pub fn age_group_property() -> Iri {
    eurostat_dic::term("ageGroup")
}

/// The member-level property linking a continent (or group) to the all level.
pub fn all_property() -> Iri {
    eurostat_dic::term("all")
}

// ---- generation --------------------------------------------------------------

/// Generates the synthetic dataset.
pub fn generate(config: &EurostatConfig) -> GeneratedDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);

    let dataset_iri = eurostat_data::migr_asyappctzm();
    let dsd_iri = eurostat_dsd::migr_asyappctzm();

    let mut builder = QbDatasetBuilder::new(dataset_iri.clone(), dsd_iri.clone())
        .label("Asylum and first time asylum applicants by citizenship, age and sex (monthly data)")
        .dimension(sdmx_dimension::ref_period())
        .dimension(eurostat_property::citizen())
        .dimension(eurostat_property::geo())
        .dimension(eurostat_property::age())
        .dimension(eurostat_property::sex())
        .dimension(eurostat_property::asyl_app())
        .measure(sdmx_measure::obs_value());

    let months = demo_months();
    let radixes = [
        CITIZEN_COUNTRIES.len(),
        GEO_COUNTRIES.len(),
        months.len(),
        AGE_CLASSES.len(),
        SEXES.len(),
        ASYL_APP_TYPES.len(),
    ];
    let total_combinations: usize = radixes.iter().product();
    let observation_count = config.observations.min(total_combinations);

    // Walk the combination space with a stride coprime to its size so the
    // generated subset is spread over all dimension values while every
    // observation keeps a distinct dimension combination (no IC violations).
    let stride = coprime_stride(total_combinations);
    // In time-major order the month is the slow axis and only the five
    // other dimensions stride: month `m` owns rows
    // `[m * per_month, (m + 1) * per_month)`, so any single reference
    // period lands in a contiguous run of row segments. Distinctness
    // still holds because `per_month <= total_other` and the stride is
    // coprime with `total_other`.
    let other_radixes = [
        CITIZEN_COUNTRIES.len(),
        GEO_COUNTRIES.len(),
        AGE_CLASSES.len(),
        SEXES.len(),
        ASYL_APP_TYPES.len(),
    ];
    let total_other: usize = other_radixes.iter().product();
    let other_stride = coprime_stride(total_other);
    let per_month = observation_count.div_ceil(months.len()).max(1);
    for i in 0..observation_count {
        let [ci, gi, ti, ai, si, pi] = if config.time_ordered {
            let ti = i / per_month;
            let other = (i % per_month) * other_stride % total_other;
            let [ci, gi, ai, si, pi] = decompose(other, &other_radixes);
            [ci, gi, ti, ai, si, pi]
        } else {
            decompose((i * stride) % total_combinations, &radixes)
        };
        let (citizen_code, ..) = CITIZEN_COUNTRIES[ci];
        let (geo_code, ..) = GEO_COUNTRIES[gi];
        let (year, month) = months[ti];
        let (age_code, ..) = AGE_CLASSES[ai];
        let (sex_code, _) = SEXES[si];
        let (app_code, _) = ASYL_APP_TYPES[pi];

        let node = Term::Iri(eurostat_data::term(&format!("migr_asyappctzm/obs{i:06}")));
        let mut observation = Observation::new(node);
        observation
            .dimensions
            .insert(sdmx_dimension::ref_period(), time_member(year, month));
        observation
            .dimensions
            .insert(eurostat_property::citizen(), citizen_member(citizen_code));
        observation
            .dimensions
            .insert(eurostat_property::geo(), geo_member(geo_code));
        observation
            .dimensions
            .insert(eurostat_property::age(), age_member(age_code));
        observation
            .dimensions
            .insert(eurostat_property::sex(), sex_member(sex_code));
        observation
            .dimensions
            .insert(eurostat_property::asyl_app(), asyl_app_member(app_code));
        let measure_value = if config.decimal_measures {
            // Quarter-step decimal rates: exactly representable in f64, so
            // the canonical lexical form round-trips through the columnar
            // encoding.
            Literal::decimal(rng.gen_range(0..=2_000i64) as f64 / 4.0)
        } else {
            Literal::integer(rng.gen_range(0..=500))
        };
        observation
            .measures
            .insert(sdmx_measure::obs_value(), Term::Literal(measure_value));
        builder = builder.observation(observation);
    }

    let (qb_dataset, mut triples) = builder.build();

    if config.code_list_links {
        triples.extend(code_list_triples(config, &mut rng));
    }
    if config.dbpedia_links {
        triples.extend(dbpedia::same_as_links());
    }

    GeneratedDataset {
        dataset: dataset_iri,
        dsd: dsd_iri,
        qb_dataset,
        triples,
        observation_count,
    }
}

/// Generates the code-list member triples: labels, notations, and the
/// member-level properties the Enrichment module discovers as roll-up
/// candidates.
pub fn code_list_triples(config: &EurostatConfig, rng: &mut StdRng) -> Vec<Triple> {
    let mut triples = Vec::new();
    let label = |subject: &Term, text: &str| {
        Triple::new(
            subject.clone(),
            rdfs::label(),
            Literal::lang_string(text, "en"),
        )
    };
    let notation = |subject: &Term, code: &str| {
        Triple::new(subject.clone(), skos::notation(), Literal::string(code))
    };

    // Continents and the all-citizenships top member.
    triples.push(label(&all_member(), "Total"));
    for continent in CONTINENTS {
        let member = continent_member(continent);
        triples.push(label(&member, continent));
        triples.push(Triple::new(member.clone(), all_property(), all_member()));
    }

    // Political organisations of the host countries.
    for org in ["EU", "EFTA"] {
        let member = political_org_member(org);
        triples.push(label(&member, org));
    }

    // Citizenship countries (with configurable noise on the continent link).
    let citizen_count = CITIZEN_COUNTRIES.len() as f64;
    let missing_budget = (config.noise.missing_link_fraction * citizen_count).round() as usize;
    let conflicting_budget =
        (config.noise.conflicting_link_fraction * citizen_count).round() as usize;
    for (index, (code, name, continent, _gov, _pop)) in CITIZEN_COUNTRIES.iter().enumerate() {
        let member = citizen_member(code);
        triples.push(label(&member, name));
        triples.push(notation(&member, code));
        triples.push(Triple::new(
            member.clone(),
            rdf::vocab::rdf::type_(),
            Term::Iri(skos::concept()),
        ));
        let drop_link = index < missing_budget;
        if !drop_link {
            triples.push(Triple::new(
                member.clone(),
                continent_property(),
                continent_member(continent),
            ));
        }
        let conflict = index >= missing_budget && index < missing_budget + conflicting_budget;
        if conflict {
            // Pick a different continent at random for the conflicting link.
            let other = CONTINENTS
                .iter()
                .filter(|c| *c != continent)
                .nth(rng.gen_range(0..CONTINENTS.len() - 1))
                .unwrap_or(&CONTINENTS[0]);
            triples.push(Triple::new(
                member.clone(),
                continent_property(),
                continent_member(other),
            ));
        }
    }

    // Destination countries.
    for (code, name, continent, org, _eu) in GEO_COUNTRIES {
        let member = geo_member(code);
        triples.push(label(&member, name));
        triples.push(notation(&member, code));
        triples.push(Triple::new(
            member.clone(),
            continent_property(),
            continent_member(continent),
        ));
        triples.push(Triple::new(
            member.clone(),
            political_org_property(),
            political_org_member(org),
        ));
    }

    // Reference periods: months link to their year.
    for (year, month) in demo_months() {
        let member = time_member(year, month);
        triples.push(label(&member, &format!("{year}-{month:02}")));
        triples.push(Triple::new(
            member.clone(),
            year_property(),
            year_member(year),
        ));
    }
    for year in [2013, 2014] {
        triples.push(label(&year_member(year), &year.to_string()));
    }

    // Age classes link to age groups.
    for (code, name, group) in AGE_CLASSES {
        let member = age_member(code);
        triples.push(label(&member, name));
        triples.push(Triple::new(
            member.clone(),
            age_group_property(),
            age_group_member(group),
        ));
    }
    for group in ["Minor", "Adult", "Senior", "Unknown"] {
        triples.push(label(&age_group_member(group), group));
    }

    // Sexes and applicant types only carry labels.
    for (code, name) in SEXES {
        triples.push(label(&sex_member(code), name));
    }
    for (code, name) in ASYL_APP_TYPES {
        triples.push(label(&asyl_app_member(code), name));
    }

    triples
}

fn decompose<const N: usize>(mut index: usize, radixes: &[usize; N]) -> [usize; N] {
    let mut out = [0usize; N];
    for (slot, radix) in out.iter_mut().zip(radixes.iter()) {
        *slot = index % radix;
        index /= radix;
    }
    out
}

/// A stride that is coprime with `n`, used to spread the sampled
/// combinations over the whole space.
fn coprime_stride(n: usize) -> usize {
    let mut stride = (n / 7) | 1; // odd
    while gcd(stride, n) != 1 {
        stride += 2;
    }
    stride.max(1)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::vocab::owl;
    use rdf::Graph;

    #[test]
    fn generates_requested_number_of_distinct_observations() {
        let data = generate(&EurostatConfig::small(500));
        assert_eq!(data.observation_count, 500);
        let graph = Graph::from_triples(data.triples.clone());
        let observations = graph.subjects_of_type(&rdf::vocab::qb::observation());
        assert_eq!(observations.len(), 500);

        // Every observation carries all six dimensions and the measure.
        for obs in observations.iter().take(20) {
            assert!(graph.object(obs, &eurostat_property::citizen()).is_some());
            assert!(graph.object(obs, &sdmx_dimension::ref_period()).is_some());
            assert!(graph.object(obs, &sdmx_measure::obs_value()).is_some());
        }
    }

    #[test]
    fn observations_have_distinct_dimension_combinations() {
        let data = generate(&EurostatConfig::small(2000));
        let graph = Graph::from_triples(data.triples.clone());
        let mut combos = std::collections::BTreeSet::new();
        for obs in graph.subjects_of_type(&rdf::vocab::qb::observation()) {
            let key = (
                graph.object(&obs, &sdmx_dimension::ref_period()),
                graph.object(&obs, &eurostat_property::citizen()),
                graph.object(&obs, &eurostat_property::geo()),
                graph.object(&obs, &eurostat_property::age()),
                graph.object(&obs, &eurostat_property::sex()),
                graph.object(&obs, &eurostat_property::asyl_app()),
            );
            assert!(combos.insert(key), "duplicate dimension combination");
        }
    }

    #[test]
    fn code_lists_support_fd_discovery() {
        let data = generate(&EurostatConfig::small(100));
        let graph = Graph::from_triples(data.triples.clone());
        // Every citizenship member used in the data has exactly one continent.
        assert_eq!(
            graph.objects(&citizen_member("SY"), &continent_property()),
            vec![continent_member("Asia")]
        );
        assert_eq!(
            graph.objects(&geo_member("FR"), &political_org_property()),
            vec![political_org_member("EU")]
        );
        assert_eq!(
            graph.objects(&time_member(2014, 3), &year_property()),
            vec![year_member(2014)]
        );
        // Continents roll up to the single all member.
        assert_eq!(
            graph.objects(&continent_member("Africa"), &all_property()),
            vec![all_member()]
        );
        // sameAs links into the DBpedia-like graph exist.
        assert!(!graph
            .objects(&citizen_member("SY"), &owl::same_as())
            .is_empty());
    }

    #[test]
    fn noise_injection_drops_and_conflicts_links() {
        let config = EurostatConfig {
            observations: 10,
            noise: NoiseConfig {
                missing_link_fraction: 0.2,
                conflicting_link_fraction: 0.1,
            },
            ..Default::default()
        };
        let data = generate(&config);
        let graph = Graph::from_triples(data.triples.clone());
        let mut missing = 0;
        let mut conflicting = 0;
        for (code, ..) in CITIZEN_COUNTRIES {
            let links = graph.objects(&citizen_member(code), &continent_property());
            match links.len() {
                0 => missing += 1,
                1 => {}
                _ => conflicting += 1,
            }
        }
        assert_eq!(
            missing,
            (0.2f64 * CITIZEN_COUNTRIES.len() as f64).round() as usize
        );
        assert_eq!(
            conflicting,
            (0.1f64 * CITIZEN_COUNTRIES.len() as f64).round() as usize
        );
    }

    #[test]
    fn time_ordered_layout_clusters_months_and_keeps_combinations_distinct() {
        let config = EurostatConfig {
            observations: 2_400,
            time_ordered: true,
            ..Default::default()
        };
        let data = generate(&config);
        assert_eq!(data.observation_count, 2_400);
        let graph = Graph::from_triples(data.triples.clone());
        // Month m owns the contiguous run of rows [m*100, (m+1)*100).
        let months = demo_months();
        let per_month = 2_400usize.div_ceil(months.len());
        for i in [0usize, 99, 100, 1234, 2399] {
            let node = Term::Iri(eurostat_data::term(&format!("migr_asyappctzm/obs{i:06}")));
            let (year, month) = months[i / per_month];
            assert_eq!(
                graph.object(&node, &sdmx_dimension::ref_period()),
                Some(time_member(year, month)),
                "row {i} must carry its slot's month"
            );
        }
        // Distinctness is preserved (no IC violations).
        let mut combos = std::collections::BTreeSet::new();
        for obs in graph.subjects_of_type(&rdf::vocab::qb::observation()) {
            let key = (
                graph.object(&obs, &sdmx_dimension::ref_period()),
                graph.object(&obs, &eurostat_property::citizen()),
                graph.object(&obs, &eurostat_property::geo()),
                graph.object(&obs, &eurostat_property::age()),
                graph.object(&obs, &eurostat_property::sex()),
                graph.object(&obs, &eurostat_property::asyl_app()),
            );
            assert!(combos.insert(key), "duplicate dimension combination");
        }
        // The default layout is untouched by the new knob.
        let shuffled = generate(&EurostatConfig::small(2_400));
        assert_ne!(shuffled.triples, data.triples);
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = generate(&EurostatConfig::small(200));
        let b = generate(&EurostatConfig::small(200));
        assert_eq!(a.triples, b.triples);
        let different_seed = EurostatConfig {
            observations: 200,
            seed: 7,
            ..Default::default()
        };
        let c = generate(&different_seed);
        assert_ne!(
            a.triples, c.triples,
            "different seed changes measure values"
        );
    }

    #[test]
    fn requesting_more_than_the_space_caps_at_the_space() {
        let config = EurostatConfig {
            observations: usize::MAX,
            code_list_links: false,
            dbpedia_links: false,
            ..Default::default()
        };
        // Only check the arithmetic (do not actually materialise everything).
        let months = demo_months();
        let total = CITIZEN_COUNTRIES.len()
            * GEO_COUNTRIES.len()
            * months.len()
            * AGE_CLASSES.len()
            * SEXES.len()
            * ASYL_APP_TYPES.len();
        assert!(config.observations.min(total) == total);
    }

    #[test]
    fn mixed_radix_decomposition_is_bijective() {
        let radixes = [3usize, 4, 2, 5, 2, 2];
        let total: usize = radixes.iter().product();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..total {
            let digits = decompose(i, &radixes);
            for (d, r) in digits.iter().zip(&radixes) {
                assert!(d < r);
            }
            assert!(seen.insert(digits));
        }
        assert_eq!(seen.len(), total);
    }

    #[test]
    fn coprime_stride_is_coprime() {
        for n in [10usize, 1000, 80_000, 123456] {
            let s = coprime_stride(n);
            assert_eq!(gcd(s, n), 1);
        }
    }
}

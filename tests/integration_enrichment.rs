//! Integration tests of the Enrichment module over the generated Eurostat
//! data: discovery quality, external (DBpedia) enrichment, quasi-FD
//! behaviour under noise, and QB validation of the input.

use enrichment::{EnrichmentConfig, EnrichmentSession};
use qb2olap::demo::demo_enrichment_config;
use rdf::vocab::{dbpedia, eurostat_property, sdmx_dimension};

#[test]
fn discovered_hierarchies_cover_all_demo_dimensions() {
    let (endpoint, data) = datagen::load_demo_endpoint(&datagen::EurostatConfig::small(800));
    let mut session =
        EnrichmentSession::start(&endpoint, &data.dataset, demo_enrichment_config()).unwrap();
    session.redefine().unwrap();

    // Citizenship, destination, time and age all expose roll-up candidates.
    for (level, property) in [
        (
            eurostat_property::citizen(),
            datagen::eurostat::continent_property(),
        ),
        (
            eurostat_property::geo(),
            datagen::eurostat::political_org_property(),
        ),
        (
            sdmx_dimension::ref_period(),
            datagen::eurostat::year_property(),
        ),
        (
            eurostat_property::age(),
            datagen::eurostat::age_group_property(),
        ),
    ] {
        let candidates = session.discover_candidates(&level).unwrap();
        assert!(
            candidates.level_candidate(&property).is_some(),
            "no candidate {property} for level {level}",
            property = property.as_str(),
            level = level.as_str()
        );
    }

    // The sex dimension has no object-valued functional property, so no
    // roll-up candidate is suggested (only label attributes).
    let sex = session
        .discover_candidates(&eurostat_property::sex())
        .unwrap();
    assert!(sex.levels.is_empty());
    assert!(!sex.attributes.is_empty());
}

#[test]
fn external_dbpedia_candidates_require_following_same_as() {
    let (endpoint, data) = datagen::load_demo_endpoint(&datagen::EurostatConfig::small(400));

    let mut with_external =
        EnrichmentSession::start(&endpoint, &data.dataset, EnrichmentConfig::default()).unwrap();
    with_external.redefine().unwrap();
    let candidates = with_external
        .discover_candidates(&eurostat_property::citizen())
        .unwrap();
    let government = candidates
        .level_candidate(&dbpedia::government_type())
        .expect("external candidate found when sameAs links are followed");
    assert!(government.profile.via_same_as);

    let mut without_external = EnrichmentSession::start(
        &endpoint,
        &data.dataset,
        EnrichmentConfig::default().without_external_sources(),
    )
    .unwrap();
    without_external.redefine().unwrap();
    let candidates = without_external
        .discover_candidates(&eurostat_property::citizen())
        .unwrap();
    assert!(candidates
        .level_candidate(&dbpedia::government_type())
        .is_none());
}

#[test]
fn external_government_type_level_can_be_added_and_queried() {
    let (endpoint, data) = datagen::load_demo_endpoint(&datagen::EurostatConfig::small(600));
    let mut session =
        EnrichmentSession::start(&endpoint, &data.dataset, demo_enrichment_config()).unwrap();
    session.redefine().unwrap();
    let candidates = session
        .discover_candidates(&eurostat_property::citizen())
        .unwrap();
    let government = candidates
        .level_candidate(&dbpedia::government_type())
        .unwrap()
        .clone();
    let level = session
        .add_level(&eurostat_property::citizen(), &government, "governmentType")
        .unwrap();
    session.load_into_endpoint().unwrap();

    // The new level's members come from the external dataset and are now
    // queryable through the roll-up machinery.
    let pairs = qb4olap::rollup_pairs(&endpoint, &eurostat_property::citizen(), &level).unwrap();
    assert!(!pairs.is_empty());
    assert!(pairs.iter().all(|(_, parent)| parent
        .as_iri()
        .map(|i| i.as_str().contains("dbpedia.org"))
        .unwrap_or(false)));
}

#[test]
fn quasi_fd_threshold_trades_noise_for_recall() {
    let noisy = datagen::EurostatConfig {
        observations: 400,
        noise: datagen::NoiseConfig {
            missing_link_fraction: 0.1,
            conflicting_link_fraction: 0.1,
        },
        ..Default::default()
    };
    let (endpoint, data) = datagen::load_demo_endpoint(&noisy);

    let thresholds = [0.0, 0.05, 0.15, 0.3];
    let mut accepted = Vec::new();
    for threshold in thresholds {
        let config = EnrichmentConfig::default()
            .without_external_sources()
            .with_fd_error_threshold(threshold)
            .with_min_support(0.5);
        let mut session = EnrichmentSession::start(&endpoint, &data.dataset, config).unwrap();
        session.redefine().unwrap();
        let candidates = session
            .discover_candidates(&eurostat_property::citizen())
            .unwrap();
        accepted.push(
            candidates
                .level_candidate(&datagen::eurostat::continent_property())
                .is_some(),
        );
    }
    // Acceptance is monotone in the threshold and flips from rejected to
    // accepted somewhere in the sweep.
    assert!(!accepted[0], "strict FD must reject the noisy link");
    assert!(*accepted.last().unwrap(), "a lenient quasi-FD accepts it");
    for window in accepted.windows(2) {
        assert!(!window[0] || window[1], "acceptance must be monotone");
    }
}

#[test]
fn generated_qb_data_passes_validation() {
    let (endpoint, data) = datagen::load_demo_endpoint(&datagen::EurostatConfig::small(300));
    let dataset = qb::load_dataset(&endpoint, &data.dataset).unwrap();
    let report = qb::validate_dataset(&endpoint, &data.dataset, &dataset.structure).unwrap();
    assert!(
        report.is_valid(),
        "generated data violates QB constraints: {:?}",
        report.errors()
    );
}

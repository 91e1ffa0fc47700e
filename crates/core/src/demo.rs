//! The paper's demonstration scenario, fully scripted.
//!
//! Section IV of the paper walks Mary the journalist through the three
//! modules over the Eurostat asylum-applications cube. This module scripts
//! exactly those steps — generate/load the QB data, run the Enrichment
//! module with the choices shown in Figure 4 (plus the destination /
//! time / age enrichment needed for the wider analyses), and hand back an
//! endpoint ready for the Exploration and Querying modules — so that the
//! examples, integration tests and the experiment-reproduction harness all
//! share one canonical setup.

use datagen::{EurostatConfig, GeneratedDataset};
use enrichment::{EnrichmentConfig, EnrichmentError, EnrichmentSession, EnrichmentStats};
use rdf::vocab::{eurostat_property, rdfs, sdmx_dimension};
use rdf::Iri;
use sparql::LocalEndpoint;

/// The enrichment configuration used by the demo: the paper's dimension and
/// hierarchy names plus default fine-tuning parameters.
pub fn demo_enrichment_config() -> EnrichmentConfig {
    EnrichmentConfig::default()
        .name_dimension(
            eurostat_property::citizen(),
            "citizenshipDim",
            "citizenshipGeoHier",
        )
        .name_dimension(
            eurostat_property::geo(),
            "destinationDim",
            "destinationHier",
        )
        .name_dimension(sdmx_dimension::ref_period(), "timeDim", "timeHier")
        .name_dimension(eurostat_property::asyl_app(), "asylappDim", "asylappHier")
        .name_dimension(eurostat_property::age(), "ageDim", "ageHier")
        .name_dimension(eurostat_property::sex(), "sexDim", "sexHier")
}

/// A fully prepared demo cube: the endpoint holds the QB data, the QB4OLAP
/// schema and the level-instance triples.
#[derive(Debug, Clone)]
pub struct DemoCube {
    /// The endpoint shared by the three modules (Figure 1).
    pub endpoint: LocalEndpoint,
    /// The dataset IRI (`data:migr_asyappctzm`).
    pub dataset: Iri,
    /// Details of the generated data.
    pub generated: GeneratedDataset,
    /// Statistics of the enrichment run.
    pub enrichment: EnrichmentStats,
}

/// Generates the dataset, loads it into a fresh endpoint and runs the demo
/// enrichment (the user choices of Section IV).
pub fn setup_demo_cube(config: &EurostatConfig) -> Result<DemoCube, EnrichmentError> {
    let (endpoint, generated) = datagen::load_demo_endpoint(config);
    let enrichment = enrich_demo_cube(&endpoint, &generated.dataset)?;
    Ok(DemoCube {
        endpoint,
        dataset: generated.dataset.clone(),
        generated,
        enrichment,
    })
}

/// Runs the demo enrichment choices on an endpoint that already contains the
/// generated QB data, and loads the produced triples back into it.
///
/// Choices (mirroring the demo):
/// * citizenship: `citizen → continent → citAll`, with the `continentName`
///   attribute taken from the continents' labels;
/// * destination: `geo → politicalOrg`, with the `countryName` attribute;
/// * time: `refPeriod → year`;
/// * age: `age → ageGroup`;
/// * sex and applicant type stay single-level.
pub fn enrich_demo_cube(
    endpoint: &LocalEndpoint,
    dataset: &Iri,
) -> Result<EnrichmentStats, EnrichmentError> {
    let mut session = EnrichmentSession::start(endpoint, dataset, demo_enrichment_config())?;
    session.redefine()?;

    // Citizenship dimension: continent, then the all-citizenships top level.
    let candidates = session.discover_candidates(&eurostat_property::citizen())?;
    let continent_candidate = candidates
        .level_candidate(&datagen::eurostat::continent_property())
        .ok_or_else(|| {
            EnrichmentError::UnknownElement(
                "the continent candidate was not discovered for property:citizen".to_string(),
            )
        })?
        .clone();
    let continent = session.add_level(
        &eurostat_property::citizen(),
        &continent_candidate,
        "continent",
    )?;
    session.add_attribute(&continent, &rdfs::label(), "continentName")?;
    let upper = session.discover_candidates(&continent)?;
    if let Some(all_candidate) = upper.level_candidate(&datagen::eurostat::all_property()) {
        let all_candidate = all_candidate.clone();
        session.add_level(&continent, &all_candidate, "citAll")?;
    }

    // Destination dimension: countryName attribute and political organisation level.
    session.add_attribute(&eurostat_property::geo(), &rdfs::label(), "countryName")?;
    let geo_candidates = session.discover_candidates(&eurostat_property::geo())?;
    if let Some(polorg) =
        geo_candidates.level_candidate(&datagen::eurostat::political_org_property())
    {
        let polorg = polorg.clone();
        let level = session.add_level(&eurostat_property::geo(), &polorg, "politicalOrg")?;
        session.add_attribute(&level, &rdfs::label(), "politicalOrgName")?;
    }

    // Time dimension: months roll up to years.
    let time_candidates = session.discover_candidates(&sdmx_dimension::ref_period())?;
    if let Some(year) = time_candidates.level_candidate(&datagen::eurostat::year_property()) {
        let year = year.clone();
        session.add_level(&sdmx_dimension::ref_period(), &year, "year")?;
    }

    // Age dimension: age classes roll up to age groups.
    let age_candidates = session.discover_candidates(&eurostat_property::age())?;
    if let Some(group) = age_candidates.level_candidate(&datagen::eurostat::age_group_property()) {
        let group = group.clone();
        session.add_level(&eurostat_property::age(), &group, "ageGroup")?;
    }

    session.load_into_endpoint()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::vocab::demo_schema;

    #[test]
    fn demo_setup_produces_the_paper_schema() {
        let demo = setup_demo_cube(&EurostatConfig::small(250)).unwrap();
        assert_eq!(demo.generated.observation_count, 250);
        assert!(demo.enrichment.schema_triples > 0);
        assert!(demo.enrichment.instance_triples > 0);
        assert_eq!(demo.enrichment.dimensions, 6);

        let schema = qb4olap::schema_from_endpoint(&demo.endpoint, &demo.dataset).unwrap();
        // The citizenship hierarchy has the three levels from the paper's listing.
        let citizenship = schema.dimension(&demo_schema::citizenship_dim()).unwrap();
        let hierarchy = &citizenship.hierarchies[0];
        assert!(hierarchy.has_level(&rdf::vocab::eurostat_property::citizen()));
        assert!(hierarchy.has_level(&demo_schema::continent()));
        assert!(hierarchy.has_level(&demo_schema::cit_all()));
        // The attributes used by Mary's dices exist.
        assert!(schema
            .level_attributes(&demo_schema::continent())
            .iter()
            .any(|a| a.iri == demo_schema::continent_name()));
        assert!(schema
            .level_attributes(&rdf::vocab::eurostat_property::geo())
            .iter()
            .any(|a| a.iri == demo_schema::country_name()));
        // Time rolls up to year.
        assert!(schema
            .dimension(&demo_schema::time_dim())
            .unwrap()
            .has_level(&demo_schema::year()));
    }
}

//! Fine-tuning parameters of the Enrichment module.
//!
//! The paper stresses that, in the Linked Data context of external and
//! non-controlled sources, fine-tuning parameters are "essential to deal
//! with data quality issues, e.g., by searching for quasi FDs (i.e., an FD
//! with an allowed error threshold)". This module gathers all of them in one
//! configuration value with sensible defaults.

use std::collections::BTreeMap;

use qb4olap::AggregateFunction;
use rdf::{vocab::demo_schema, Iri};

/// How a dimension (and its default hierarchy) derived from a QB dimension
/// property should be named.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionNaming {
    /// Local name of the `qb:DimensionProperty` to create (e.g. `citizenshipDim`).
    pub dimension_name: String,
    /// Local name of the default hierarchy (e.g. `citizenshipGeoHier`).
    pub hierarchy_name: String,
}

/// Fine-tuning parameters for the Enrichment module.
#[derive(Debug, Clone, PartialEq)]
pub struct EnrichmentConfig {
    /// Namespace in which generated schema elements (dimensions, hierarchies,
    /// new levels, level attributes, the QB4OLAP DSD) are minted.
    /// Defaults to the paper's `schema:` namespace.
    pub schema_namespace: Iri,
    /// Default aggregate function assigned to measures during redefinition.
    pub default_aggregate: AggregateFunction,
    /// Allowed error for quasi functional dependencies: the fraction of
    /// members that may violate functionality (have more than one value for
    /// the candidate property) while the property is still suggested.
    pub fd_error_threshold: f64,
    /// Minimum fraction of members that must carry the candidate property at
    /// all (coverage / support).
    pub min_support: f64,
    /// Maximum allowed ratio `distinct parent values / members`: a roll-up
    /// only makes sense if it actually groups members (< 1.0).
    pub max_compression_ratio: f64,
    /// Cap on the number of members analysed per level (level-detection
    /// fine-tuning for very large levels). `None` analyses every member.
    pub max_sample_members: Option<usize>,
    /// Follow `owl:sameAs` links into external datasets (DBpedia in the
    /// demo) when collecting member properties.
    pub follow_same_as: bool,
    /// Suggest literal-valued properties (e.g. `rdfs:label`) as level
    /// attributes.
    pub suggest_attributes: bool,
    /// Per-bottom-level naming of the dimension / default hierarchy created
    /// during redefinition. Keys are the original QB dimension properties.
    /// Levels without an entry get names derived from the property's local
    /// name (`<local>Dim`, `<local>Hier`).
    pub dimension_naming: BTreeMap<Iri, DimensionNaming>,
}

impl Default for EnrichmentConfig {
    fn default() -> Self {
        EnrichmentConfig {
            schema_namespace: Iri::new(demo_schema::NAMESPACE),
            default_aggregate: AggregateFunction::Sum,
            fd_error_threshold: 0.0,
            min_support: 0.8,
            max_compression_ratio: 0.9,
            max_sample_members: None,
            follow_same_as: true,
            suggest_attributes: true,
            dimension_naming: BTreeMap::new(),
        }
    }
}

impl EnrichmentConfig {
    /// Sets the quasi-FD error threshold.
    pub fn with_fd_error_threshold(mut self, threshold: f64) -> Self {
        self.fd_error_threshold = threshold;
        self
    }

    /// Sets the minimum support (coverage) threshold.
    pub fn with_min_support(mut self, support: f64) -> Self {
        self.min_support = support;
        self
    }

    /// Disables following `owl:sameAs` links.
    pub fn without_external_sources(mut self) -> Self {
        self.follow_same_as = false;
        self
    }

    /// Registers an explicit dimension / hierarchy naming for a QB dimension
    /// property.
    pub fn name_dimension(
        mut self,
        qb_dimension: Iri,
        dimension_name: impl Into<String>,
        hierarchy_name: impl Into<String>,
    ) -> Self {
        self.dimension_naming.insert(
            qb_dimension,
            DimensionNaming {
                dimension_name: dimension_name.into(),
                hierarchy_name: hierarchy_name.into(),
            },
        );
        self
    }

    /// An IRI in the configured schema namespace.
    pub fn schema_iri(&self, local: &str) -> Iri {
        self.schema_namespace.join(local)
    }

    /// The dimension and hierarchy IRIs for a QB dimension property, using
    /// the explicit naming when configured and derived names otherwise.
    pub fn dimension_iris(&self, qb_dimension: &Iri) -> (Iri, Iri) {
        match self.dimension_naming.get(qb_dimension) {
            Some(naming) => (
                self.schema_iri(&naming.dimension_name),
                self.schema_iri(&naming.hierarchy_name),
            ),
            None => {
                let local = qb_dimension.local_name();
                (
                    self.schema_iri(&format!("{local}Dim")),
                    self.schema_iri(&format!("{local}Hier")),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::vocab::eurostat_property;

    #[test]
    fn defaults_match_the_paper_setup() {
        let config = EnrichmentConfig::default();
        assert_eq!(config.schema_namespace.as_str(), demo_schema::NAMESPACE);
        assert_eq!(config.default_aggregate, AggregateFunction::Sum);
        assert_eq!(config.fd_error_threshold, 0.0);
        assert!(config.follow_same_as);
    }

    #[test]
    fn builder_style_setters() {
        let config = EnrichmentConfig::default()
            .with_fd_error_threshold(0.05)
            .with_min_support(0.5)
            .without_external_sources();
        assert_eq!(config.fd_error_threshold, 0.05);
        assert_eq!(config.min_support, 0.5);
        assert!(!config.follow_same_as);
    }

    #[test]
    fn dimension_naming_explicit_and_derived() {
        let config = EnrichmentConfig::default().name_dimension(
            eurostat_property::citizen(),
            "citizenshipDim",
            "citizenshipGeoHier",
        );
        let (dim, hier) = config.dimension_iris(&eurostat_property::citizen());
        assert_eq!(dim, demo_schema::citizenship_dim());
        assert_eq!(hier, demo_schema::citizenship_geo_hier());

        let (dim, hier) = config.dimension_iris(&eurostat_property::geo());
        assert!(dim.as_str().ends_with("geoDim"));
        assert!(hier.as_str().ends_with("geoHier"));
    }

    #[test]
    fn schema_iri_joins_namespace() {
        let config = EnrichmentConfig::default();
        assert_eq!(config.schema_iri("continent"), demo_schema::continent());
    }
}

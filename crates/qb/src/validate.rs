//! Well-formedness checks for QB data, a practical subset of the W3C RDF
//! Data Cube integrity constraints.
//!
//! The Enrichment module runs these checks before redefinition so that data
//! quality issues (the paper's motivation for the fine-tuning parameters)
//! are surfaced to the user up front.

use rdf::{Iri, Term};
use sparql::Endpoint;

use crate::error::QbError;
use crate::model::DataStructureDefinition;

/// Severity of a validation finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The data violates a QB integrity constraint.
    Error,
    /// The data is usable but will degrade the OLAP experience
    /// (e.g. missing labels, as discussed for Nigeria's IRI in the paper).
    Warning,
}

/// One validation finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationIssue {
    /// Which check produced the finding.
    pub check: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

impl ValidationIssue {
    fn error(check: &'static str, message: impl Into<String>) -> Self {
        ValidationIssue {
            check,
            severity: Severity::Error,
            message: message.into(),
        }
    }

    fn warning(check: &'static str, message: impl Into<String>) -> Self {
        ValidationIssue {
            check,
            severity: Severity::Warning,
            message: message.into(),
        }
    }
}

/// A validation report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValidationReport {
    /// All findings.
    pub issues: Vec<ValidationIssue>,
}

impl ValidationReport {
    /// True if no error-severity issue was found.
    pub fn is_valid(&self) -> bool {
        !self.issues.iter().any(|i| i.severity == Severity::Error)
    }

    /// The error-severity issues.
    pub fn errors(&self) -> Vec<&ValidationIssue> {
        self.issues
            .iter()
            .filter(|i| i.severity == Severity::Error)
            .collect()
    }

    /// The warning-severity issues.
    pub fn warnings(&self) -> Vec<&ValidationIssue> {
        self.issues
            .iter()
            .filter(|i| i.severity == Severity::Warning)
            .collect()
    }
}

/// Validates a dataset published on an endpoint against its DSD.
///
/// Checks implemented (names follow the W3C IC numbering loosely):
/// * `dataset-structure` — the dataset links to a DSD (IC-2);
/// * `observation-dataset` — every observation of the dataset is typed
///   `qb:Observation` (IC-1);
/// * `dimension-complete` — every observation carries a value for every
///   dimension of the DSD (IC-12);
/// * `measure-present` — every observation carries at least one measure;
/// * `no-duplicate-observations` — no two observations agree on all
///   dimension values (IC-12 uniqueness reading);
/// * `members-have-labels` — dimension members have an `rdfs:label` or
///   `skos:prefLabel` (warning only; this is the descriptive-attribute gap
///   the paper highlights).
pub fn validate_dataset(
    endpoint: &dyn Endpoint,
    dataset: &Iri,
    dsd: &DataStructureDefinition,
) -> Result<ValidationReport, QbError> {
    let mut report = ValidationReport::default();
    let ds = dataset.as_str();

    // dataset-structure
    let has_structure = endpoint.ask(&format!(
        "PREFIX qb: <http://purl.org/linked-data/cube#> ASK {{ <{ds}> qb:structure ?dsd }}"
    ))?;
    if !has_structure {
        report.issues.push(ValidationIssue::error(
            "dataset-structure",
            format!("dataset <{ds}> has no qb:structure link"),
        ));
    }

    // observation-dataset typing
    let untyped = endpoint.select(&format!(
        "PREFIX qb: <http://purl.org/linked-data/cube#>
         SELECT (COUNT(?obs) AS ?n) WHERE {{
           ?obs qb:dataSet <{ds}> .
           FILTER NOT EXISTS {{ ?obs a qb:Observation }}
         }}"
    ))?;
    let untyped_count = count_of(&untyped);
    if untyped_count > 0 {
        report.issues.push(ValidationIssue::error(
            "observation-dataset",
            format!("{untyped_count} observation(s) lack rdf:type qb:Observation"),
        ));
    }

    // dimension-complete: every observation has a value for every dimension.
    for dim in dsd.dimensions() {
        let missing = endpoint.select(&format!(
            "PREFIX qb: <http://purl.org/linked-data/cube#>
             SELECT (COUNT(?obs) AS ?n) WHERE {{
               ?obs qb:dataSet <{ds}> .
               FILTER NOT EXISTS {{ ?obs <{dim}> ?v }}
             }}",
            dim = dim.as_str()
        ))?;
        let missing_count = count_of(&missing);
        if missing_count > 0 {
            report.issues.push(ValidationIssue::error(
                "dimension-complete",
                format!(
                    "{missing_count} observation(s) have no value for dimension <{}>",
                    dim.as_str()
                ),
            ));
        }
    }

    // measure-present: at least one measure bound per observation.
    if !dsd.measures().is_empty() {
        let measure_filters: Vec<String> = dsd
            .measures()
            .iter()
            .map(|m| format!("FILTER NOT EXISTS {{ ?obs <{}> ?v{} }}", m.as_str(), "m"))
            .collect();
        let query = format!(
            "PREFIX qb: <http://purl.org/linked-data/cube#>
             SELECT (COUNT(?obs) AS ?n) WHERE {{
               ?obs qb:dataSet <{ds}> .
               {}
             }}",
            measure_filters.join("\n               ")
        );
        let missing = endpoint.select(&query)?;
        let missing_count = count_of(&missing);
        if missing_count > 0 {
            report.issues.push(ValidationIssue::error(
                "measure-present",
                format!("{missing_count} observation(s) carry no measure value"),
            ));
        }
    }

    // no-duplicate-observations: group by all dimensions, flag groups > 1.
    if !dsd.dimensions().is_empty() {
        let dims = dsd.dimensions();
        let dim_vars: Vec<String> = (0..dims.len()).map(|i| format!("?d{i}")).collect();
        let dim_patterns: Vec<String> = dims
            .iter()
            .enumerate()
            .map(|(i, d)| format!("?obs <{}> ?d{i} .", d.as_str()))
            .collect();
        let query = format!(
            "PREFIX qb: <http://purl.org/linked-data/cube#>
             SELECT {vars} (COUNT(?obs) AS ?n) WHERE {{
               ?obs qb:dataSet <{ds}> .
               {patterns}
             }} GROUP BY {vars} HAVING (COUNT(?obs) > 1)",
            vars = dim_vars.join(" "),
            patterns = dim_patterns.join("\n               ")
        );
        let duplicates = endpoint.select(&query)?;
        if !duplicates.is_empty() {
            report.issues.push(ValidationIssue::error(
                "no-duplicate-observations",
                format!(
                    "{} group(s) of observations share identical dimension values",
                    duplicates.len()
                ),
            ));
        }
    }

    // members-have-labels (warning): IRI dimension members without a label.
    for dim in dsd.dimensions() {
        let unlabeled = endpoint.select(&format!(
            "PREFIX qb: <http://purl.org/linked-data/cube#>
             PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
             PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
             SELECT (COUNT(DISTINCT ?m) AS ?n) WHERE {{
               ?obs qb:dataSet <{ds}> ; <{dim}> ?m .
               FILTER(isIRI(?m))
               FILTER NOT EXISTS {{ ?m rdfs:label ?l }}
               FILTER NOT EXISTS {{ ?m skos:prefLabel ?pl }}
             }}",
            dim = dim.as_str()
        ))?;
        let unlabeled_count = count_of(&unlabeled);
        if unlabeled_count > 0 {
            report.issues.push(ValidationIssue::warning(
                "members-have-labels",
                format!(
                    "{unlabeled_count} member(s) of dimension <{}> have no rdfs:label / skos:prefLabel",
                    dim.as_str()
                ),
            ));
        }
    }

    Ok(report)
}

fn count_of(solutions: &sparql::EncodedSolutions) -> i64 {
    solutions
        .get(0, "n")
        .and_then(Term::as_literal)
        .and_then(|l| l.as_integer())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QbDatasetBuilder;
    use crate::model::Observation;
    use rdf::vocab::{eurostat_property, rdfs, sdmx_measure};
    use rdf::{Literal, Triple};
    use sparql::LocalEndpoint;

    fn build_endpoint(complete: bool) -> (LocalEndpoint, Iri, DataStructureDefinition) {
        let dataset_iri = Iri::new("http://example.org/dataset");
        let dsd_iri = Iri::new("http://example.org/dsd");
        let mut builder = QbDatasetBuilder::new(dataset_iri.clone(), dsd_iri)
            .dimension(eurostat_property::citizen())
            .dimension(eurostat_property::geo())
            .measure(sdmx_measure::obs_value());
        for (i, (cit, geo, v)) in [("SY", "DE", 10), ("NG", "FR", 7)].iter().enumerate() {
            let mut obs = Observation::new(Term::iri(format!("http://example.org/obs{i}")));
            obs.dimensions.insert(
                eurostat_property::citizen(),
                Term::iri(format!("http://example.org/dic/citizen#{cit}")),
            );
            if complete || i == 0 {
                obs.dimensions.insert(
                    eurostat_property::geo(),
                    Term::iri(format!("http://example.org/dic/geo#{geo}")),
                );
            }
            obs.measures.insert(
                sdmx_measure::obs_value(),
                Term::Literal(Literal::integer(*v)),
            );
            builder = builder.observation(obs);
        }
        let dsd = builder.dataset().structure.clone();
        let endpoint = LocalEndpoint::new();
        endpoint.insert_triples(&builder.build_triples()).unwrap();
        // Label the members so the label warning stays quiet in the valid case.
        if complete {
            for m in ["citizen#SY", "citizen#NG", "geo#DE", "geo#FR"] {
                endpoint
                    .insert_triples(&[Triple::new(
                        Term::iri(format!("http://example.org/dic/{m}")),
                        rdfs::label(),
                        Literal::string(m),
                    )])
                    .unwrap();
            }
        }
        (endpoint, dataset_iri, dsd)
    }

    #[test]
    fn valid_dataset_passes() {
        let (endpoint, dataset, dsd) = build_endpoint(true);
        let report = validate_dataset(&endpoint, &dataset, &dsd).unwrap();
        assert!(report.is_valid(), "unexpected issues: {:?}", report.issues);
        assert!(report.errors().is_empty());
    }

    #[test]
    fn missing_dimension_is_an_error() {
        let (endpoint, dataset, dsd) = build_endpoint(false);
        let report = validate_dataset(&endpoint, &dataset, &dsd).unwrap();
        assert!(!report.is_valid());
        assert!(report
            .issues
            .iter()
            .any(|i| i.check == "dimension-complete"));
    }

    #[test]
    fn unlabeled_members_are_a_warning_only() {
        let (endpoint, dataset, dsd) = build_endpoint(false);
        let report = validate_dataset(&endpoint, &dataset, &dsd).unwrap();
        assert!(report
            .issues
            .iter()
            .any(|i| i.check == "members-have-labels" && i.severity == Severity::Warning));
    }

    #[test]
    fn duplicate_observations_are_detected() {
        let (endpoint, dataset, dsd) = build_endpoint(true);
        // Add an observation that duplicates obs0's dimension values.
        let mut obs = Observation::new(Term::iri("http://example.org/obs-dup"));
        obs.dimensions.insert(
            eurostat_property::citizen(),
            Term::iri("http://example.org/dic/citizen#SY"),
        );
        obs.dimensions.insert(
            eurostat_property::geo(),
            Term::iri("http://example.org/dic/geo#DE"),
        );
        obs.measures.insert(
            sdmx_measure::obs_value(),
            Term::Literal(Literal::integer(99)),
        );
        endpoint
            .insert_triples(&crate::builder::observation_triples(&dataset, &obs))
            .unwrap();
        let report = validate_dataset(&endpoint, &dataset, &dsd).unwrap();
        assert!(report
            .issues
            .iter()
            .any(|i| i.check == "no-duplicate-observations"));
    }

    #[test]
    fn missing_structure_link_is_an_error() {
        let endpoint = LocalEndpoint::new();
        let dataset = Iri::new("http://example.org/empty");
        let dsd = DataStructureDefinition::new(Iri::new("http://example.org/dsd"));
        let report = validate_dataset(&endpoint, &dataset, &dsd).unwrap();
        assert!(report.issues.iter().any(|i| i.check == "dataset-structure"));
    }

    #[test]
    fn report_accessors() {
        let report = ValidationReport {
            issues: vec![
                ValidationIssue::error("a", "x"),
                ValidationIssue::warning("b", "y"),
            ],
        };
        assert!(!report.is_valid());
        assert_eq!(report.errors().len(), 1);
        assert_eq!(report.warnings().len(), 1);
    }
}

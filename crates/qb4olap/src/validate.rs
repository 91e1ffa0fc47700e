//! Structural validation of QB4OLAP cube schemas.
//!
//! The Enrichment module calls this after every user action so that the
//! schema shown in the exploration tree is always well formed, and before
//! the Triple Generation phase so that only valid schemas reach the
//! endpoint.

use std::collections::BTreeSet;

use rdf::Iri;

use crate::model::CubeSchema;

/// Severity of a schema finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaSeverity {
    /// The schema cannot be used for querying.
    Error,
    /// The schema is usable but a design smell was detected
    /// (e.g. a non-summarisable ManyToMany roll-up).
    Warning,
}

/// One schema validation finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaIssue {
    /// Which check produced the finding.
    pub check: &'static str,
    /// Error or warning.
    pub severity: SchemaSeverity,
    /// Human-readable description.
    pub message: String,
}

/// The result of validating a schema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchemaReport {
    /// All findings.
    pub issues: Vec<SchemaIssue>,
}

impl SchemaReport {
    /// True if no error-severity issue was found.
    pub fn is_valid(&self) -> bool {
        !self
            .issues
            .iter()
            .any(|i| i.severity == SchemaSeverity::Error)
    }

    fn error(&mut self, check: &'static str, message: String) {
        self.issues.push(SchemaIssue {
            check,
            severity: SchemaSeverity::Error,
            message,
        });
    }

    fn warning(&mut self, check: &'static str, message: String) {
        self.issues.push(SchemaIssue {
            check,
            severity: SchemaSeverity::Warning,
            message,
        });
    }
}

/// Validates a cube schema.
///
/// Checks:
/// * `has-measure` — at least one measure with an aggregate function;
/// * `has-level-component` — at least one fact–level component;
/// * `dimension-has-hierarchy` — every dimension declares ≥ 1 hierarchy with ≥ 1 level;
/// * `step-levels-declared` — every hierarchy step references levels declared
///   in its hierarchy;
/// * `component-in-dimension` — every fact–level component belongs to some
///   dimension (once dimensions exist);
/// * `no-cycles` — hierarchy steps are acyclic;
/// * `summarisable-cardinality` — warn on ManyToMany / OneToMany roll-ups.
pub fn validate_schema(schema: &CubeSchema) -> SchemaReport {
    let mut report = SchemaReport::default();

    if schema.measures.is_empty() {
        report.error(
            "has-measure",
            "the schema declares no measure; OLAP queries need at least one".to_string(),
        );
    }
    if schema.level_components.is_empty() {
        report.error(
            "has-level-component",
            "the schema declares no fact-level component (qb4o:level)".to_string(),
        );
    }

    for dimension in &schema.dimensions {
        if dimension.hierarchies.is_empty() {
            report.error(
                "dimension-has-hierarchy",
                format!(
                    "dimension <{}> declares no hierarchy",
                    dimension.iri.as_str()
                ),
            );
            continue;
        }
        for hierarchy in &dimension.hierarchies {
            if hierarchy.levels.is_empty() {
                report.error(
                    "dimension-has-hierarchy",
                    format!("hierarchy <{}> declares no level", hierarchy.iri.as_str()),
                );
            }
            for step in &hierarchy.steps {
                if !hierarchy.has_level(&step.child) || !hierarchy.has_level(&step.parent) {
                    report.error(
                        "step-levels-declared",
                        format!(
                            "hierarchy <{}> has a step {} -> {} whose levels are not all declared via qb4o:hasLevel",
                            hierarchy.iri.as_str(),
                            step.child.as_str(),
                            step.parent.as_str()
                        ),
                    );
                }
                if !step.cardinality.is_functional() {
                    report.warning(
                        "summarisable-cardinality",
                        format!(
                            "roll-up {} -> {} has cardinality {:?}; aggregates over it may double-count",
                            step.child.as_str(),
                            step.parent.as_str(),
                            step.cardinality
                        ),
                    );
                }
            }
            if has_cycle(hierarchy.steps.iter().map(|s| (&s.child, &s.parent))) {
                report.error(
                    "no-cycles",
                    format!(
                        "hierarchy <{}> contains a cyclic roll-up chain",
                        hierarchy.iri.as_str()
                    ),
                );
            }
        }
    }

    if !schema.dimensions.is_empty() {
        for component in &schema.level_components {
            if schema.dimension_of_level(&component.level).is_none() {
                report.warning(
                    "component-in-dimension",
                    format!(
                        "fact level <{}> is not part of any dimension hierarchy yet",
                        component.level.as_str()
                    ),
                );
            }
        }
    }

    report
}

/// Cycle detection over the child → parent edges.
fn has_cycle<'a>(edges: impl Iterator<Item = (&'a Iri, &'a Iri)>) -> bool {
    let edges: Vec<(&Iri, &Iri)> = edges.collect();
    let nodes: BTreeSet<&Iri> = edges.iter().flat_map(|(c, p)| [*c, *p]).collect();
    // Kahn's algorithm: if we cannot consume every node, there is a cycle.
    let mut remaining = edges.clone();
    let mut removable: Vec<&Iri> = Vec::new();
    let mut removed: BTreeSet<&Iri> = BTreeSet::new();
    loop {
        removable.clear();
        for node in &nodes {
            if removed.contains(node) {
                continue;
            }
            // A node with no outgoing edge among the remaining edges is safe.
            if remaining.iter().all(|(c, _)| c != node) {
                removable.push(node);
            }
        }
        if removable.is_empty() {
            break;
        }
        for node in &removable {
            removed.insert(node);
        }
        remaining.retain(|(_, p)| !removed.contains(p));
    }
    removed.len() != nodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        AggregateFunction, Cardinality, Dimension, Hierarchy, HierarchyStep, LevelComponent,
        MeasureSpec,
    };
    use rdf::vocab::{demo_schema, eurostat_property, sdmx_measure};

    fn valid_schema() -> CubeSchema {
        let mut schema = CubeSchema::new(
            Iri::new("http://example.org/dsdQB4O"),
            Iri::new("http://example.org/ds"),
        );
        schema.measures.push(MeasureSpec {
            property: sdmx_measure::obs_value(),
            aggregate: AggregateFunction::Sum,
        });
        schema.level_components.push(LevelComponent {
            level: eurostat_property::citizen(),
            cardinality: Cardinality::ManyToOne,
            dimension: Some(demo_schema::citizenship_dim()),
        });
        let mut hierarchy = Hierarchy::new(demo_schema::citizenship_geo_hier());
        hierarchy.levels = vec![eurostat_property::citizen(), demo_schema::continent()];
        hierarchy.steps = vec![HierarchyStep {
            child: eurostat_property::citizen(),
            parent: demo_schema::continent(),
            cardinality: Cardinality::ManyToOne,
        }];
        let mut dimension = Dimension::new(demo_schema::citizenship_dim());
        dimension.hierarchies.push(hierarchy);
        schema.dimensions.push(dimension);
        schema
    }

    #[test]
    fn valid_schema_passes() {
        let report = validate_schema(&valid_schema());
        assert!(report.is_valid(), "{:?}", report.issues);
    }

    #[test]
    fn missing_measure_and_levels_are_errors() {
        let schema = CubeSchema::new(
            Iri::new("http://example.org/dsd"),
            Iri::new("http://example.org/ds"),
        );
        let report = validate_schema(&schema);
        assert!(!report.is_valid());
        let checks: Vec<&str> = report.issues.iter().map(|i| i.check).collect();
        assert!(checks.contains(&"has-measure"));
        assert!(checks.contains(&"has-level-component"));
    }

    #[test]
    fn undeclared_step_level_is_an_error() {
        let mut schema = valid_schema();
        schema.dimensions[0].hierarchies[0]
            .steps
            .push(HierarchyStep {
                child: demo_schema::continent(),
                parent: demo_schema::cit_all(), // not in hierarchy.levels
                cardinality: Cardinality::ManyToOne,
            });
        let report = validate_schema(&schema);
        assert!(report
            .issues
            .iter()
            .any(|i| i.check == "step-levels-declared" && i.severity == SchemaSeverity::Error));
    }

    #[test]
    fn many_to_many_is_a_warning() {
        let mut schema = valid_schema();
        schema.dimensions[0].hierarchies[0].steps[0].cardinality = Cardinality::ManyToMany;
        let report = validate_schema(&schema);
        assert!(report.is_valid(), "warnings do not invalidate the schema");
        assert!(report
            .issues
            .iter()
            .any(|i| i.check == "summarisable-cardinality"));
    }

    #[test]
    fn cycle_is_detected() {
        let mut schema = valid_schema();
        {
            let hierarchy = &mut schema.dimensions[0].hierarchies[0];
            hierarchy.steps.push(HierarchyStep {
                child: demo_schema::continent(),
                parent: eurostat_property::citizen(),
                cardinality: Cardinality::ManyToOne,
            });
        }
        let report = validate_schema(&schema);
        assert!(report.issues.iter().any(|i| i.check == "no-cycles"));
    }

    #[test]
    fn orphan_level_component_is_a_warning() {
        let mut schema = valid_schema();
        schema.level_components.push(LevelComponent {
            level: Iri::new("http://example.org/unattached"),
            cardinality: Cardinality::ManyToOne,
            dimension: None,
        });
        let report = validate_schema(&schema);
        assert!(report
            .issues
            .iter()
            .any(|i| i.check == "component-in-dimension"));
    }

    #[test]
    fn empty_dimension_is_an_error() {
        let mut schema = valid_schema();
        schema
            .dimensions
            .push(Dimension::new(Iri::new("http://example.org/emptyDim")));
        let report = validate_schema(&schema);
        assert!(!report.is_valid());
    }
}

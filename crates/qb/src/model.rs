//! Data model for the W3C RDF Data Cube (QB) vocabulary.
//!
//! These types mirror what Section II of the paper calls the input of
//! QB2OLAP: a QB data set is a collection of observations whose schema is a
//! Data Structure Definition (DSD) made of dimension, measure and attribute
//! component properties.

use std::collections::BTreeMap;

use rdf::{Iri, Term};

/// The kind of a DSD component property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentKind {
    /// `qb:dimension`.
    Dimension,
    /// `qb:measure`.
    Measure,
    /// `qb:attribute`.
    Attribute,
}

impl ComponentKind {
    /// A human-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            ComponentKind::Dimension => "dimension",
            ComponentKind::Measure => "measure",
            ComponentKind::Attribute => "attribute",
        }
    }
}

/// One component specification of a DSD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// The component property (e.g. `property:citizen`, `sdmx-measure:obsValue`).
    pub property: Iri,
    /// Dimension, measure or attribute.
    pub kind: ComponentKind,
    /// `qb:order`, if declared.
    pub order: Option<u32>,
    /// `qb:componentRequired`, if declared (attributes only in practice).
    pub required: bool,
    /// `qb:codeList`, if declared.
    pub code_list: Option<Iri>,
}

impl Component {
    /// Creates a dimension component.
    pub fn dimension(property: Iri) -> Self {
        Component {
            property,
            kind: ComponentKind::Dimension,
            order: None,
            required: true,
            code_list: None,
        }
    }

    /// Creates a measure component.
    pub fn measure(property: Iri) -> Self {
        Component {
            property,
            kind: ComponentKind::Measure,
            order: None,
            required: true,
            code_list: None,
        }
    }

    /// Creates an attribute component.
    pub fn attribute(property: Iri) -> Self {
        Component {
            property,
            kind: ComponentKind::Attribute,
            order: None,
            required: false,
            code_list: None,
        }
    }
}

/// A Data Structure Definition: the schema of a QB data set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataStructureDefinition {
    /// The DSD IRI.
    pub iri: Iri,
    /// All components, in declaration order (then by `qb:order`).
    pub components: Vec<Component>,
}

impl DataStructureDefinition {
    /// Creates an empty DSD with the given IRI.
    pub fn new(iri: Iri) -> Self {
        DataStructureDefinition {
            iri,
            components: Vec::new(),
        }
    }

    /// All dimension component properties.
    pub fn dimensions(&self) -> Vec<&Iri> {
        self.components_of_kind(ComponentKind::Dimension)
    }

    /// All measure component properties.
    pub fn measures(&self) -> Vec<&Iri> {
        self.components_of_kind(ComponentKind::Measure)
    }

    /// All attribute component properties.
    pub fn attributes(&self) -> Vec<&Iri> {
        self.components_of_kind(ComponentKind::Attribute)
    }

    fn components_of_kind(&self, kind: ComponentKind) -> Vec<&Iri> {
        self.components
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| &c.property)
            .collect()
    }

    /// Finds the component for a given property.
    pub fn component(&self, property: &Iri) -> Option<&Component> {
        self.components.iter().find(|c| &c.property == property)
    }

    /// Adds a component.
    pub fn push(&mut self, component: Component) {
        self.components.push(component);
    }
}

/// A QB data set: an IRI, its DSD, and optional metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QbDataset {
    /// The dataset IRI.
    pub iri: Iri,
    /// Its structure.
    pub structure: DataStructureDefinition,
    /// `rdfs:label`, if any.
    pub label: Option<String>,
    /// `rdfs:comment`, if any.
    pub comment: Option<String>,
}

impl QbDataset {
    /// Creates a dataset description.
    pub fn new(iri: Iri, structure: DataStructureDefinition) -> Self {
        QbDataset {
            iri,
            structure,
            label: None,
            comment: None,
        }
    }
}

/// One observation (a fact, in OLAP terms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// The observation node (IRI or blank).
    pub node: Term,
    /// Dimension property → member.
    pub dimensions: BTreeMap<Iri, Term>,
    /// Measure property → value.
    pub measures: BTreeMap<Iri, Term>,
    /// Attribute property → value.
    pub attributes: BTreeMap<Iri, Term>,
}

impl Observation {
    /// Creates an empty observation for the given node.
    pub fn new(node: Term) -> Self {
        Observation {
            node,
            dimensions: BTreeMap::new(),
            measures: BTreeMap::new(),
            attributes: BTreeMap::new(),
        }
    }

    /// The member bound to a dimension, if present.
    pub fn dimension(&self, property: &Iri) -> Option<&Term> {
        self.dimensions.get(property)
    }

    /// The value bound to a measure, if present.
    pub fn measure(&self, property: &Iri) -> Option<&Term> {
        self.measures.get(property)
    }

    /// The numeric value of a measure, if present and numeric.
    pub fn measure_number(&self, property: &Iri) -> Option<f64> {
        self.measures
            .get(property)
            .and_then(|t| t.as_literal())
            .and_then(|l| l.as_double())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::vocab::{eurostat_property, sdmx_dimension, sdmx_measure};
    use rdf::Literal;

    fn eurostat_dsd() -> DataStructureDefinition {
        let mut dsd = DataStructureDefinition::new(rdf::vocab::eurostat_dsd::migr_asyappctzm());
        dsd.push(Component::dimension(sdmx_dimension::ref_period()));
        dsd.push(Component::dimension(eurostat_property::citizen()));
        dsd.push(Component::dimension(eurostat_property::geo()));
        dsd.push(Component::dimension(eurostat_property::age()));
        dsd.push(Component::dimension(eurostat_property::sex()));
        dsd.push(Component::dimension(eurostat_property::asyl_app()));
        dsd.push(Component::measure(sdmx_measure::obs_value()));
        dsd.push(Component::attribute(
            rdf::vocab::sdmx_attribute::obs_status(),
        ));
        dsd
    }

    #[test]
    fn dsd_component_classification() {
        let dsd = eurostat_dsd();
        assert_eq!(dsd.dimensions().len(), 6);
        assert_eq!(dsd.measures().len(), 1);
        assert_eq!(dsd.attributes().len(), 1);
        assert_eq!(
            dsd.component(&eurostat_property::citizen()).unwrap().kind,
            ComponentKind::Dimension
        );
        assert!(dsd.component(&Iri::new("http://missing")).is_none());
    }

    #[test]
    fn observation_accessors() {
        let mut obs = Observation::new(Term::iri("http://example.org/obs1"));
        obs.dimensions.insert(
            eurostat_property::citizen(),
            Term::iri("http://eurostat.linked-statistics.org/dic/citizen#SY"),
        );
        obs.measures.insert(
            sdmx_measure::obs_value(),
            Term::Literal(Literal::integer(125)),
        );
        assert!(obs.dimension(&eurostat_property::citizen()).is_some());
        assert!(obs.dimension(&eurostat_property::geo()).is_none());
        assert_eq!(obs.measure_number(&sdmx_measure::obs_value()), Some(125.0));
    }

    #[test]
    fn component_kind_names() {
        assert_eq!(ComponentKind::Dimension.as_str(), "dimension");
        assert_eq!(ComponentKind::Measure.as_str(), "measure");
        assert_eq!(ComponentKind::Attribute.as_str(), "attribute");
    }

    #[test]
    fn component_constructors() {
        let c = Component::dimension(eurostat_property::citizen());
        assert!(c.required);
        let a = Component::attribute(rdf::vocab::sdmx_attribute::obs_status());
        assert!(!a.required);
        assert_eq!(a.kind, ComponentKind::Attribute);
    }
}

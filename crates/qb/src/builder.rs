//! Programmatic construction of QB datasets and generation of their triples.
//!
//! The synthetic Eurostat generator ([`datagen`](https://docs.rs)) uses this
//! builder to publish a structurally faithful `migr_asyappctzm` data set; the
//! unit tests across the workspace use it to build small cubes.

use rdf::vocab::{qb, rdf as rdfv, rdfs};
use rdf::{BlankNode, Iri, Literal, Term, Triple};

use crate::model::{Component, ComponentKind, DataStructureDefinition, Observation, QbDataset};

/// Generates the RDF triples describing a DSD (one blank component
/// specification node per component, as in the paper's Section II listing).
pub fn dsd_triples(dsd: &DataStructureDefinition) -> Vec<Triple> {
    let mut triples = Vec::new();
    let dsd_term = Term::Iri(dsd.iri.clone());
    triples.push(Triple::new(
        dsd_term.clone(),
        rdfv::type_(),
        Term::Iri(qb::data_structure_definition()),
    ));
    for (index, component) in dsd.components.iter().enumerate() {
        let spec = Term::Blank(BlankNode::new(format!(
            "component-{}-{}",
            dsd.iri.local_name(),
            index
        )));
        triples.push(Triple::new(dsd_term.clone(), qb::component(), spec.clone()));
        triples.push(Triple::new(
            spec.clone(),
            rdfv::type_(),
            Term::Iri(qb::component_specification()),
        ));
        let link = match component.kind {
            ComponentKind::Dimension => qb::dimension(),
            ComponentKind::Measure => qb::measure(),
            ComponentKind::Attribute => qb::attribute(),
        };
        triples.push(Triple::new(
            spec.clone(),
            link,
            Term::Iri(component.property.clone()),
        ));
        if let Some(order) = component.order {
            triples.push(Triple::new(
                spec.clone(),
                qb::order(),
                Literal::integer(order as i64),
            ));
        }
        if component.kind == ComponentKind::Attribute {
            triples.push(Triple::new(
                spec.clone(),
                qb::component_required(),
                Literal::boolean(component.required),
            ));
        }
        if let Some(code_list) = &component.code_list {
            triples.push(Triple::new(
                spec,
                qb::code_list(),
                Term::Iri(code_list.clone()),
            ));
        }
        // Declare the property itself.
        let class = match component.kind {
            ComponentKind::Dimension => qb::dimension_property(),
            ComponentKind::Measure => qb::measure_property(),
            ComponentKind::Attribute => qb::attribute_property(),
        };
        triples.push(Triple::new(
            Term::Iri(component.property.clone()),
            rdfv::type_(),
            Term::Iri(class),
        ));
    }
    triples
}

/// Generates the triples describing a dataset (type, structure, label).
pub fn dataset_triples(dataset: &QbDataset) -> Vec<Triple> {
    let mut triples = vec![
        Triple::new(
            Term::Iri(dataset.iri.clone()),
            rdfv::type_(),
            Term::Iri(qb::data_set_class()),
        ),
        Triple::new(
            Term::Iri(dataset.iri.clone()),
            qb::structure(),
            Term::Iri(dataset.structure.iri.clone()),
        ),
    ];
    if let Some(label) = &dataset.label {
        triples.push(Triple::new(
            Term::Iri(dataset.iri.clone()),
            rdfs::label(),
            Literal::lang_string(label, "en"),
        ));
    }
    if let Some(comment) = &dataset.comment {
        triples.push(Triple::new(
            Term::Iri(dataset.iri.clone()),
            rdfs::comment(),
            Literal::lang_string(comment, "en"),
        ));
    }
    triples.extend(dsd_triples(&dataset.structure));
    triples
}

/// Generates the triples for one observation of a dataset.
pub fn observation_triples(dataset_iri: &Iri, observation: &Observation) -> Vec<Triple> {
    let node = observation.node.clone();
    let mut triples = vec![
        Triple::new(node.clone(), rdfv::type_(), Term::Iri(qb::observation())),
        Triple::new(node.clone(), qb::data_set(), Term::Iri(dataset_iri.clone())),
    ];
    for (property, member) in &observation.dimensions {
        triples.push(Triple::new(node.clone(), property.clone(), member.clone()));
    }
    for (property, value) in &observation.measures {
        triples.push(Triple::new(node.clone(), property.clone(), value.clone()));
    }
    for (property, value) in &observation.attributes {
        triples.push(Triple::new(node.clone(), property.clone(), value.clone()));
    }
    triples
}

/// A convenience builder that assembles a dataset plus its observations and
/// emits all triples at once.
#[derive(Debug, Clone)]
pub struct QbDatasetBuilder {
    dataset: QbDataset,
    observations: Vec<Observation>,
}

impl QbDatasetBuilder {
    /// Starts a builder for a dataset with the given IRIs.
    pub fn new(dataset_iri: Iri, dsd_iri: Iri) -> Self {
        QbDatasetBuilder {
            dataset: QbDataset::new(dataset_iri, DataStructureDefinition::new(dsd_iri)),
            observations: Vec::new(),
        }
    }

    /// Sets the dataset label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.dataset.label = Some(label.into());
        self
    }

    /// Adds a dimension component.
    pub fn dimension(mut self, property: Iri) -> Self {
        self.dataset.structure.push(Component::dimension(property));
        self
    }

    /// Adds a measure component.
    pub fn measure(mut self, property: Iri) -> Self {
        self.dataset.structure.push(Component::measure(property));
        self
    }

    /// Adds an attribute component.
    pub fn attribute(mut self, property: Iri) -> Self {
        self.dataset.structure.push(Component::attribute(property));
        self
    }

    /// Adds a fully formed component.
    pub fn component(mut self, component: Component) -> Self {
        self.dataset.structure.push(component);
        self
    }

    /// Adds an observation.
    pub fn observation(mut self, observation: Observation) -> Self {
        self.observations.push(observation);
        self
    }

    /// The dataset description built so far.
    pub fn dataset(&self) -> &QbDataset {
        &self.dataset
    }

    /// Number of observations added so far.
    pub fn observation_count(&self) -> usize {
        self.observations.len()
    }

    /// Emits all triples: dataset + DSD + observations.
    pub fn build_triples(&self) -> Vec<Triple> {
        let mut triples = dataset_triples(&self.dataset);
        for obs in &self.observations {
            triples.extend(observation_triples(&self.dataset.iri, obs));
        }
        triples
    }

    /// Consumes the builder, returning the dataset description and triples.
    pub fn build(self) -> (QbDataset, Vec<Triple>) {
        let triples = self.build_triples();
        (self.dataset, triples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::vocab::{eurostat_property, sdmx_measure};
    use rdf::Graph;

    fn tiny_dataset() -> QbDatasetBuilder {
        let mut obs1 = Observation::new(Term::iri("http://example.org/obs1"));
        obs1.dimensions.insert(
            eurostat_property::citizen(),
            Term::iri("http://example.org/SY"),
        );
        obs1.measures.insert(
            sdmx_measure::obs_value(),
            Term::Literal(Literal::integer(10)),
        );
        let mut obs2 = Observation::new(Term::iri("http://example.org/obs2"));
        obs2.dimensions.insert(
            eurostat_property::citizen(),
            Term::iri("http://example.org/NG"),
        );
        obs2.measures.insert(
            sdmx_measure::obs_value(),
            Term::Literal(Literal::integer(3)),
        );

        QbDatasetBuilder::new(
            Iri::new("http://example.org/dataset"),
            Iri::new("http://example.org/dsd"),
        )
        .label("Tiny asylum cube")
        .dimension(eurostat_property::citizen())
        .measure(sdmx_measure::obs_value())
        .observation(obs1)
        .observation(obs2)
    }

    #[test]
    fn builder_generates_complete_structure() {
        let builder = tiny_dataset();
        assert_eq!(builder.observation_count(), 2);
        let (dataset, triples) = builder.build();
        assert_eq!(dataset.structure.dimensions().len(), 1);
        let graph = Graph::from_triples(triples);

        // Dataset typed and linked to its DSD.
        assert!(graph.contains(&Triple::new(
            Term::Iri(dataset.iri.clone()),
            rdfv::type_(),
            Term::Iri(qb::data_set_class()),
        )));
        assert_eq!(
            graph.object(&Term::Iri(dataset.iri.clone()), &qb::structure()),
            Some(Term::Iri(dataset.structure.iri.clone()))
        );
        // Two component specifications.
        assert_eq!(
            graph
                .objects(&Term::Iri(dataset.structure.iri.clone()), &qb::component())
                .len(),
            2
        );
        // Observations typed and linked to the dataset.
        assert_eq!(graph.subjects_of_type(&qb::observation()).len(), 2);
        assert_eq!(
            graph
                .subjects(&qb::data_set(), &Term::Iri(dataset.iri.clone()))
                .len(),
            2
        );
    }

    #[test]
    fn observation_triples_include_all_components() {
        let mut obs = Observation::new(Term::iri("http://example.org/obs9"));
        obs.dimensions.insert(
            eurostat_property::citizen(),
            Term::iri("http://example.org/SY"),
        );
        obs.attributes.insert(
            rdf::vocab::sdmx_attribute::obs_status(),
            Term::Literal(Literal::string("provisional")),
        );
        obs.measures.insert(
            sdmx_measure::obs_value(),
            Term::Literal(Literal::integer(7)),
        );
        let triples = observation_triples(&Iri::new("http://example.org/dataset"), &obs);
        // type + dataSet + 1 dim + 1 measure + 1 attribute
        assert_eq!(triples.len(), 5);
    }

    #[test]
    fn dsd_triples_declare_property_classes() {
        let (dataset, triples) = tiny_dataset().build();
        let graph = Graph::from_triples(triples);
        assert!(graph.contains(&Triple::new(
            Term::Iri(eurostat_property::citizen()),
            rdfv::type_(),
            Term::Iri(qb::dimension_property()),
        )));
        assert!(graph.contains(&Triple::new(
            Term::Iri(sdmx_measure::obs_value()),
            rdfv::type_(),
            Term::Iri(qb::measure_property()),
        )));
        let _ = dataset;
    }

    #[test]
    fn attribute_components_carry_required_flag() {
        let mut component = Component::attribute(rdf::vocab::sdmx_attribute::obs_status());
        component.required = true;
        let builder = QbDatasetBuilder::new(
            Iri::new("http://example.org/ds2"),
            Iri::new("http://example.org/dsd2"),
        )
        .component(component);
        let graph = Graph::from_triples(builder.build_triples());
        assert_eq!(
            graph
                .triples_matching(None, Some(&qb::component_required()), None)
                .len(),
            1
        );
    }
}

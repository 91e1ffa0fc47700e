//! A synthetic DBpedia-like linked dataset.
//!
//! The paper's demo shows that "in the presence of linked data sets, our
//! tool is able to extract dimensional information (schema and instances)
//! from other data sets (e.g., DBpedia)". Live DBpedia is not available
//! here, so this module publishes a small graph in the DBpedia ontology
//! namespace with exactly the properties that demonstration needs: each
//! country of citizenship is an `dbo:Country` with a `dbo:continent`, a
//! `dbo:governmentType` and a `dbo:populationTotal`. The Eurostat members
//! point at these resources through `owl:sameAs`.

use rdf::vocab::{dbpedia as dbo, rdf as rdfv, rdfs};
use rdf::{Literal, Term, Triple};

use crate::codelists::CITIZEN_COUNTRIES;
use crate::eurostat::citizen_member;

/// The DBpedia resource namespace used by the synthetic graph.
pub const RESOURCE_NAMESPACE: &str = "http://dbpedia.org/resource/";

/// The IRI of a DBpedia-like resource for an entity name ("Syria" →
/// `dbr:Syria`).
pub fn resource(name: &str) -> Term {
    Term::iri(format!("{RESOURCE_NAMESPACE}{}", name.replace(' ', "_")))
}

/// The DBpedia-like resource of a country, by its English label.
pub fn country_resource(name: &str) -> Term {
    resource(name)
}

/// All triples of the synthetic DBpedia-like dataset.
pub fn dbpedia_graph() -> Vec<Triple> {
    let mut triples = Vec::new();
    for (_code, name, continent, government, population) in CITIZEN_COUNTRIES {
        let country = country_resource(name);
        triples.push(Triple::new(
            country.clone(),
            rdfv::type_(),
            Term::Iri(dbo::country()),
        ));
        triples.push(Triple::new(
            country.clone(),
            rdfs::label(),
            Literal::lang_string(*name, "en"),
        ));
        triples.push(Triple::new(
            country.clone(),
            dbo::continent(),
            resource(continent),
        ));
        triples.push(Triple::new(
            country.clone(),
            dbo::government_type(),
            resource(government),
        ));
        triples.push(Triple::new(
            country,
            dbo::population_total(),
            Literal::integer(*population as i64 * 1_000_000),
        ));
    }
    // Label the continents and government types so they can become level
    // attributes after external enrichment.
    let mut seen = std::collections::BTreeSet::new();
    for (_code, _name, continent, government, _pop) in CITIZEN_COUNTRIES {
        for value in [continent, government] {
            if seen.insert(*value) {
                triples.push(Triple::new(
                    resource(value),
                    rdfs::label(),
                    Literal::lang_string(*value, "en"),
                ));
            }
        }
    }
    triples
}

/// `owl:sameAs` links from the Eurostat citizenship members to the
/// DBpedia-like country resources. These live in the Eurostat graph (they
/// are published by the statistical office), while [`dbpedia_graph`] is the
/// external dataset.
pub fn same_as_links() -> Vec<Triple> {
    CITIZEN_COUNTRIES
        .iter()
        .map(|(code, name, ..)| {
            Triple::new(
                citizen_member(code),
                rdf::vocab::owl::same_as(),
                country_resource(name),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::Graph;

    #[test]
    fn every_country_has_continent_government_and_population() {
        let graph = Graph::from_triples(dbpedia_graph());
        for (_code, name, ..) in CITIZEN_COUNTRIES {
            let country = country_resource(name);
            assert_eq!(
                graph.objects(&country, &dbo::continent()).len(),
                1,
                "{name} continent"
            );
            assert_eq!(
                graph.objects(&country, &dbo::government_type()).len(),
                1,
                "{name} government type"
            );
            let population = graph
                .object(&country, &dbo::population_total())
                .and_then(|t| t.as_literal().and_then(|l| l.as_integer()))
                .unwrap_or(0);
            assert!(population > 0, "{name} population");
        }
    }

    #[test]
    fn same_as_links_cover_all_citizenship_members() {
        let links = same_as_links();
        assert_eq!(links.len(), CITIZEN_COUNTRIES.len());
        let graph = Graph::from_triples(links);
        assert_eq!(
            graph.object(&citizen_member("SY"), &rdf::vocab::owl::same_as()),
            Some(country_resource("Syria"))
        );
    }

    #[test]
    fn resource_names_are_iri_safe() {
        let r = resource("Saudi Arabia");
        assert_eq!(r, Term::iri("http://dbpedia.org/resource/Saudi_Arabia"));
    }
}

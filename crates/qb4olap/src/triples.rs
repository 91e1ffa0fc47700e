//! QB4OLAP schema ⇄ RDF triples.
//!
//! [`schema_triples`] is the Triple Generation phase output for the schema
//! part (Figure 2 of the paper); [`schema_from_endpoint`] is its inverse and
//! is what the Exploration and Querying modules use to read the enriched
//! schema back from the endpoint.

use rdf::vocab::{qb as qbv, qb4o, rdf as rdfv, rdfs};
use rdf::{BlankNode, Iri, Literal, Term, Triple};
use sparql::Endpoint;

use crate::error::Qb4olapError;
use crate::model::{
    AggregateFunction, Cardinality, CubeSchema, Dimension, Hierarchy, HierarchyStep,
    LevelAttribute, LevelComponent, MeasureSpec,
};

/// Generates all RDF triples describing a QB4OLAP cube schema.
pub fn schema_triples(schema: &CubeSchema) -> Vec<Triple> {
    let mut triples = Vec::new();
    let dsd = Term::Iri(schema.dsd.clone());

    triples.push(Triple::new(
        dsd.clone(),
        rdfv::type_(),
        Term::Iri(qbv::data_structure_definition()),
    ));
    triples.push(Triple::new(
        Term::Iri(schema.dataset.clone()),
        qbv::structure(),
        Term::Iri(schema.dsd.clone()),
    ));

    // Fact–level components.
    for (index, component) in schema.level_components.iter().enumerate() {
        let spec = Term::Blank(BlankNode::new(format!("q4-level-comp-{index}")));
        triples.push(Triple::new(dsd.clone(), qbv::component(), spec.clone()));
        triples.push(Triple::new(
            spec.clone(),
            qb4o::level(),
            Term::Iri(component.level.clone()),
        ));
        triples.push(Triple::new(
            spec,
            qb4o::cardinality(),
            Term::Iri(component.cardinality.iri()),
        ));
    }

    // Measure components with aggregate functions.
    for (index, measure) in schema.measures.iter().enumerate() {
        let spec = Term::Blank(BlankNode::new(format!("q4-measure-comp-{index}")));
        triples.push(Triple::new(dsd.clone(), qbv::component(), spec.clone()));
        triples.push(Triple::new(
            spec.clone(),
            qbv::measure(),
            Term::Iri(measure.property.clone()),
        ));
        triples.push(Triple::new(
            spec,
            qb4o::aggregate_function(),
            Term::Iri(measure.aggregate.iri()),
        ));
        triples.push(Triple::new(
            Term::Iri(measure.property.clone()),
            rdfv::type_(),
            Term::Iri(qbv::measure_property()),
        ));
    }

    // Levels and their attributes.
    for (level_iri, level) in &schema.levels {
        triples.push(Triple::new(
            Term::Iri(level_iri.clone()),
            rdfv::type_(),
            Term::Iri(qb4o::level_property()),
        ));
        if let Some(label) = &level.label {
            triples.push(Triple::new(
                Term::Iri(level_iri.clone()),
                rdfs::label(),
                Literal::lang_string(label, "en"),
            ));
        }
        for attribute in &level.attributes {
            triples.push(Triple::new(
                Term::Iri(attribute.iri.clone()),
                rdfv::type_(),
                Term::Iri(qb4o::level_attribute()),
            ));
            triples.push(Triple::new(
                Term::Iri(level_iri.clone()),
                qb4o::has_attribute(),
                Term::Iri(attribute.iri.clone()),
            ));
            triples.push(Triple::new(
                Term::Iri(attribute.iri.clone()),
                qb4o::in_level(),
                Term::Iri(level_iri.clone()),
            ));
            if let Some(label) = &attribute.label {
                triples.push(Triple::new(
                    Term::Iri(attribute.iri.clone()),
                    rdfs::label(),
                    Literal::lang_string(label, "en"),
                ));
            }
        }
    }

    // Dimensions, hierarchies, hierarchy steps.
    for dimension in &schema.dimensions {
        triples.push(Triple::new(
            Term::Iri(dimension.iri.clone()),
            rdfv::type_(),
            Term::Iri(qbv::dimension_property()),
        ));
        if let Some(label) = &dimension.label {
            triples.push(Triple::new(
                Term::Iri(dimension.iri.clone()),
                rdfs::label(),
                Literal::lang_string(label, "en"),
            ));
        }
        for hierarchy in &dimension.hierarchies {
            triples.push(Triple::new(
                Term::Iri(dimension.iri.clone()),
                qb4o::has_hierarchy(),
                Term::Iri(hierarchy.iri.clone()),
            ));
            triples.push(Triple::new(
                Term::Iri(hierarchy.iri.clone()),
                rdfv::type_(),
                Term::Iri(qb4o::hierarchy()),
            ));
            triples.push(Triple::new(
                Term::Iri(hierarchy.iri.clone()),
                qb4o::in_dimension(),
                Term::Iri(dimension.iri.clone()),
            ));
            if let Some(label) = &hierarchy.label {
                triples.push(Triple::new(
                    Term::Iri(hierarchy.iri.clone()),
                    rdfs::label(),
                    Literal::lang_string(label, "en"),
                ));
            }
            for level in &hierarchy.levels {
                triples.push(Triple::new(
                    Term::Iri(hierarchy.iri.clone()),
                    qb4o::has_level(),
                    Term::Iri(level.clone()),
                ));
            }
            for (index, step) in hierarchy.steps.iter().enumerate() {
                let node = Term::Blank(BlankNode::new(format!(
                    "ih-{}-{}",
                    hierarchy.iri.local_name(),
                    index
                )));
                triples.push(Triple::new(
                    node.clone(),
                    rdfv::type_(),
                    Term::Iri(qb4o::hierarchy_step()),
                ));
                triples.push(Triple::new(
                    node.clone(),
                    qb4o::in_hierarchy(),
                    Term::Iri(hierarchy.iri.clone()),
                ));
                triples.push(Triple::new(
                    node.clone(),
                    qb4o::child_level(),
                    Term::Iri(step.child.clone()),
                ));
                triples.push(Triple::new(
                    node.clone(),
                    qb4o::parent_level(),
                    Term::Iri(step.parent.clone()),
                ));
                triples.push(Triple::new(
                    node,
                    qb4o::pc_cardinality(),
                    Term::Iri(step.cardinality.iri()),
                ));
            }
        }
    }
    triples
}

/// Reads the QB4OLAP schema of a dataset back from an endpoint.
///
/// The dataset must have a `qb:structure` whose components use `qb4o:level`
/// (i.e. the Redefinition phase already happened).
pub fn schema_from_endpoint(
    endpoint: &dyn Endpoint,
    dataset: &Iri,
) -> Result<CubeSchema, Qb4olapError> {
    // Find the QB4OLAP DSD of the dataset.
    let dsd_solutions = endpoint.select(&format!(
        "PREFIX qb: <http://purl.org/linked-data/cube#>
         PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
         SELECT DISTINCT ?dsd WHERE {{
           <{ds}> qb:structure ?dsd .
           ?dsd qb:component ?c .
           ?c qb4o:level ?level .
         }}",
        ds = dataset.as_str()
    ))?;
    let dsd = dsd_solutions
        .get(0, "dsd")
        .and_then(Term::as_iri)
        .cloned()
        .ok_or_else(|| {
            Qb4olapError::SchemaNotFound(format!(
                "dataset <{}> has no QB4OLAP structure (run the Redefinition phase first)",
                dataset.as_str()
            ))
        })?;

    let mut schema = CubeSchema::new(dsd.clone(), dataset.clone());

    // Level components.
    let level_components = endpoint.select(&format!(
        "PREFIX qb: <http://purl.org/linked-data/cube#>
         PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
         SELECT ?level ?card WHERE {{
           <{dsd}> qb:component ?c .
           ?c qb4o:level ?level .
           OPTIONAL {{ ?c qb4o:cardinality ?card }}
         }} ORDER BY ?level",
        dsd = dsd.as_str()
    ))?;
    for i in 0..level_components.len() {
        let Some(level) = level_components
            .get(i, "level")
            .and_then(Term::as_iri)
            .cloned()
        else {
            continue;
        };
        let cardinality = level_components
            .get(i, "card")
            .and_then(Term::as_iri)
            .and_then(Cardinality::from_iri)
            .unwrap_or(Cardinality::ManyToOne);
        schema.level_components.push(LevelComponent {
            level: level.clone(),
            cardinality,
            dimension: None,
        });
        schema.level_mut(&level);
    }

    // Measures.
    let measures = endpoint.select(&format!(
        "PREFIX qb: <http://purl.org/linked-data/cube#>
         PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
         SELECT ?measure ?agg WHERE {{
           <{dsd}> qb:component ?c .
           ?c qb:measure ?measure .
           OPTIONAL {{ ?c qb4o:aggregateFunction ?agg }}
         }} ORDER BY ?measure",
        dsd = dsd.as_str()
    ))?;
    for i in 0..measures.len() {
        let Some(property) = measures.get(i, "measure").and_then(Term::as_iri).cloned() else {
            continue;
        };
        let aggregate = measures
            .get(i, "agg")
            .and_then(Term::as_iri)
            .and_then(AggregateFunction::from_iri)
            .unwrap_or(AggregateFunction::Sum);
        schema.measures.push(MeasureSpec {
            property,
            aggregate,
        });
    }

    // Hierarchies and dimensions.
    let hierarchies = endpoint.select(
        "PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
         SELECT ?dim ?hier ?level WHERE {
           ?hier a qb4o:Hierarchy ; qb4o:inDimension ?dim ; qb4o:hasLevel ?level .
         } ORDER BY ?dim ?hier ?level",
    )?;
    for i in 0..hierarchies.len() {
        let (Some(dim_iri), Some(hier_iri), Some(level_iri)) = (
            hierarchies.get(i, "dim").and_then(Term::as_iri).cloned(),
            hierarchies.get(i, "hier").and_then(Term::as_iri).cloned(),
            hierarchies.get(i, "level").and_then(Term::as_iri).cloned(),
        ) else {
            continue;
        };
        let dimension = match schema.dimension_mut(&dim_iri) {
            Some(d) => d,
            None => {
                schema.dimensions.push(Dimension::new(dim_iri.clone()));
                schema.dimensions.last_mut().expect("just pushed")
            }
        };
        let hierarchy = match dimension.hierarchies.iter_mut().find(|h| h.iri == hier_iri) {
            Some(h) => h,
            None => {
                dimension.hierarchies.push(Hierarchy::new(hier_iri.clone()));
                dimension.hierarchies.last_mut().expect("just pushed")
            }
        };
        if !hierarchy.levels.contains(&level_iri) {
            hierarchy.levels.push(level_iri.clone());
        }
        schema.level_mut(&level_iri);
    }

    // Hierarchy steps.
    let steps = endpoint.select(
        "PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
         SELECT ?hier ?child ?parent ?card WHERE {
           ?step a qb4o:HierarchyStep ;
                 qb4o:inHierarchy ?hier ;
                 qb4o:childLevel ?child ;
                 qb4o:parentLevel ?parent .
           OPTIONAL { ?step qb4o:pcCardinality ?card }
         } ORDER BY ?hier ?child",
    )?;
    for i in 0..steps.len() {
        let (Some(hier_iri), Some(child), Some(parent)) = (
            steps.get(i, "hier").and_then(Term::as_iri).cloned(),
            steps.get(i, "child").and_then(Term::as_iri).cloned(),
            steps.get(i, "parent").and_then(Term::as_iri).cloned(),
        ) else {
            continue;
        };
        let cardinality = steps
            .get(i, "card")
            .and_then(Term::as_iri)
            .and_then(Cardinality::from_iri)
            .unwrap_or(Cardinality::ManyToOne);
        for dimension in &mut schema.dimensions {
            if let Some(hierarchy) = dimension.hierarchies.iter_mut().find(|h| h.iri == hier_iri) {
                hierarchy.steps.push(HierarchyStep {
                    child: child.clone(),
                    parent: parent.clone(),
                    cardinality,
                });
            }
        }
    }

    // Level attributes.
    let attributes = endpoint.select(
        "PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
         SELECT ?level ?attr WHERE { ?level qb4o:hasAttribute ?attr } ORDER BY ?level ?attr",
    )?;
    for i in 0..attributes.len() {
        let (Some(level), Some(attr)) = (
            attributes.get(i, "level").and_then(Term::as_iri).cloned(),
            attributes.get(i, "attr").and_then(Term::as_iri).cloned(),
        ) else {
            continue;
        };
        if schema.levels.contains_key(&level) || schema.dimension_of_level(&level).is_some() {
            let entry = schema.level_mut(&level);
            if !entry.attributes.iter().any(|a| a.iri == attr) {
                entry.attributes.push(LevelAttribute::new(attr));
            }
        }
    }

    // Attach dimensions to level components now that hierarchies are known.
    let dimension_of: Vec<(Iri, Option<Iri>)> = schema
        .level_components
        .iter()
        .map(|c| {
            (
                c.level.clone(),
                schema.dimension_of_level(&c.level).map(|d| d.iri.clone()),
            )
        })
        .collect();
    for component in &mut schema.level_components {
        if let Some((_, dim)) = dimension_of.iter().find(|(l, _)| l == &component.level) {
            component.dimension = dim.clone();
        }
    }

    // Make sure every hierarchy level has a Level entry.
    let all_levels: Vec<Iri> = schema
        .dimensions
        .iter()
        .flat_map(|d| d.levels().into_iter().cloned().collect::<Vec<_>>())
        .collect();
    for level in all_levels {
        schema.level_mut(&level);
    }

    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::vocab::{demo_schema, eurostat_property, sdmx_measure};
    use rdf::Graph;
    use sparql::LocalEndpoint;

    fn demo_schema_value() -> CubeSchema {
        let mut schema = CubeSchema::new(
            demo_schema::term("migr_asyappctzmQB4O"),
            rdf::vocab::eurostat_data::migr_asyappctzm(),
        );
        schema.level_components.push(LevelComponent {
            level: eurostat_property::citizen(),
            cardinality: Cardinality::ManyToOne,
            dimension: Some(demo_schema::citizenship_dim()),
        });
        schema.measures.push(MeasureSpec {
            property: sdmx_measure::obs_value(),
            aggregate: AggregateFunction::Sum,
        });

        let mut hierarchy = Hierarchy::new(demo_schema::citizenship_geo_hier());
        hierarchy.levels = vec![
            eurostat_property::citizen(),
            demo_schema::continent(),
            demo_schema::cit_all(),
        ];
        hierarchy.steps = vec![
            HierarchyStep {
                child: eurostat_property::citizen(),
                parent: demo_schema::continent(),
                cardinality: Cardinality::ManyToOne,
            },
            HierarchyStep {
                child: demo_schema::continent(),
                parent: demo_schema::cit_all(),
                cardinality: Cardinality::ManyToOne,
            },
        ];
        let mut dimension = Dimension::new(demo_schema::citizenship_dim());
        dimension.hierarchies.push(hierarchy);
        schema.dimensions.push(dimension);

        for level in [
            eurostat_property::citizen(),
            demo_schema::continent(),
            demo_schema::cit_all(),
        ] {
            schema.level_mut(&level);
        }
        schema
            .level_mut(&demo_schema::continent())
            .attributes
            .push(LevelAttribute::new(demo_schema::continent_name()));
        schema
    }

    #[test]
    fn schema_triples_match_paper_structure() {
        let schema = demo_schema_value();
        let graph = Graph::from_triples(schema_triples(&schema));

        // The DSD is typed and carries one level component and one measure component.
        assert!(graph.contains(&Triple::new(
            Term::Iri(schema.dsd.clone()),
            rdfv::type_(),
            Term::Iri(qbv::data_structure_definition()),
        )));
        assert_eq!(
            graph
                .objects(&Term::Iri(schema.dsd.clone()), &qbv::component())
                .len(),
            2
        );
        // The citizenship dimension declares its hierarchy, as in the paper's listing.
        assert!(graph.contains(&Triple::new(
            Term::Iri(demo_schema::citizenship_dim()),
            qb4o::has_hierarchy(),
            Term::Iri(demo_schema::citizenship_geo_hier()),
        )));
        // Hierarchy steps exist with ManyToOne cardinality.
        let steps = graph.subjects_of_type(&qb4o::hierarchy_step());
        assert_eq!(steps.len(), 2);
        for step in steps {
            assert_eq!(
                graph.object(&step, &qb4o::pc_cardinality()),
                Some(Term::Iri(qb4o::many_to_one()))
            );
        }
        // The attribute is linked both ways.
        assert!(graph.contains(&Triple::new(
            Term::Iri(demo_schema::continent()),
            qb4o::has_attribute(),
            Term::Iri(demo_schema::continent_name()),
        )));
        assert!(graph.contains(&Triple::new(
            Term::Iri(demo_schema::continent_name()),
            qb4o::in_level(),
            Term::Iri(demo_schema::continent()),
        )));
    }

    #[test]
    fn schema_roundtrips_through_endpoint() {
        let schema = demo_schema_value();
        let endpoint = LocalEndpoint::new();
        endpoint.insert_triples(&schema_triples(&schema)).unwrap();

        let loaded = schema_from_endpoint(&endpoint, &schema.dataset).unwrap();
        assert_eq!(loaded.dsd, schema.dsd);
        assert_eq!(loaded.level_components.len(), 1);
        assert_eq!(
            loaded.level_components[0].dimension,
            Some(demo_schema::citizenship_dim())
        );
        assert_eq!(loaded.measures, schema.measures);
        assert_eq!(loaded.dimensions.len(), 1);
        let dim = &loaded.dimensions[0];
        assert_eq!(dim.hierarchies.len(), 1);
        assert_eq!(dim.hierarchies[0].levels.len(), 3);
        assert_eq!(dim.hierarchies[0].steps.len(), 2);
        assert_eq!(loaded.level_attributes(&demo_schema::continent()).len(), 1);
        assert_eq!(
            loaded.bottom_level_of_dimension(&demo_schema::citizenship_dim()),
            Some(eurostat_property::citizen())
        );
    }

    #[test]
    fn missing_qb4olap_structure_is_reported() {
        let endpoint = LocalEndpoint::new();
        let err = schema_from_endpoint(&endpoint, &Iri::new("http://example.org/none"))
            .expect_err("no schema present");
        assert!(matches!(err, Qb4olapError::SchemaNotFound(_)));
    }
}

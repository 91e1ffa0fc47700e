//! The sampling universe: a live cube's dimensions, levels, members and
//! attribute values, flattened into tables the generators draw from.
//!
//! Because every dimension, level, member and attribute value a generator
//! references comes out of these tables — which are read from the
//! endpoint's *actual* instance graph — generated queries are well-formed
//! by construction, not by luck.

use qb4olap::{AggregateFunction, CubeSchema, Qb4olapError};
use rand::rngs::StdRng;
use rand::Rng;
use rdf::{Iri, Term};
use sparql::Endpoint;

/// One attribute of one level, with the values it actually takes.
#[derive(Debug, Clone)]
pub struct AttrInfo {
    /// The attribute property IRI.
    pub attribute: Iri,
    /// Distinct values observed in the instance graph (may be empty for a
    /// declared-but-unpopulated attribute).
    pub values: Vec<Term>,
}

/// One level of one dimension, with its members and attributes.
#[derive(Debug, Clone)]
pub struct LevelInfo {
    /// The level IRI.
    pub level: Iri,
    /// All members of the level.
    pub members: Vec<Term>,
    /// The level's declared attributes with sampled values.
    pub attributes: Vec<AttrInfo>,
}

/// One dimension with its levels ordered bottom-up.
#[derive(Debug, Clone)]
pub struct DimensionInfo {
    /// The dimension IRI.
    pub dimension: Iri,
    /// Levels bottom-first: `levels[0]` is the fact-attached bottom level,
    /// each later entry is reachable from the bottom by a roll-up path.
    pub levels: Vec<LevelInfo>,
}

/// The full sampling universe of one cube.
#[derive(Debug, Clone)]
pub struct SchemaUniverse {
    /// The dataset IRI generated programs start from.
    pub dataset: Iri,
    /// Every dimension of the cube.
    pub dimensions: Vec<DimensionInfo>,
    /// Every measure with its declared aggregate function.
    pub measures: Vec<(Iri, AggregateFunction)>,
}

impl SchemaUniverse {
    /// Reads the universe from a live endpoint + schema.
    pub fn from_endpoint(
        endpoint: &dyn Endpoint,
        schema: &CubeSchema,
    ) -> Result<Self, Qb4olapError> {
        let mut dimensions = Vec::new();
        for dim in &schema.dimensions {
            let bottom = schema
                .bottom_level_of_dimension(&dim.iri)
                .expect("every dimension has a bottom level");
            let mut level_iris = vec![bottom.clone()];
            level_iris.extend(dim.ancestor_levels(&bottom));
            let mut levels = Vec::new();
            for level in &level_iris {
                let members = qb4olap::members_of_level(endpoint, level)?;
                let mut attributes = Vec::new();
                for attr in schema.level_attributes(level) {
                    let mut values = Vec::new();
                    for member in &members {
                        if let Some(value) = qb4olap::attribute_value(endpoint, member, &attr.iri)?
                        {
                            if !values.contains(&value) {
                                values.push(value);
                            }
                        }
                    }
                    attributes.push(AttrInfo {
                        attribute: attr.iri.clone(),
                        values,
                    });
                }
                levels.push(LevelInfo {
                    level: level.clone(),
                    members,
                    attributes,
                });
            }
            dimensions.push(DimensionInfo {
                dimension: dim.iri.clone(),
                levels,
            });
        }
        Ok(SchemaUniverse {
            dataset: schema.dataset.clone(),
            dimensions,
            measures: schema
                .measures
                .iter()
                .map(|m| (m.property.clone(), m.aggregate))
                .collect(),
        })
    }

    /// A uniformly random measure.
    pub fn random_measure(&self, rng: &mut StdRng) -> &(Iri, AggregateFunction) {
        &self.measures[rng.gen_range(0..self.measures.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{firi, fuzz_cube};

    #[test]
    fn universe_reads_the_fuzz_cube_bottom_up() {
        let cube = fuzz_cube();
        let universe = SchemaUniverse::from_endpoint(&cube.endpoint, &cube.schema).unwrap();
        assert_eq!(universe.dataset, firi("ds"));
        assert_eq!(universe.dimensions.len(), 3);
        assert_eq!(universe.measures.len(), 10);

        let geo = universe
            .dimensions
            .iter()
            .find(|d| d.dimension == firi("dim/geo"))
            .unwrap();
        assert_eq!(
            geo.levels
                .iter()
                .map(|l| l.level.clone())
                .collect::<Vec<_>>(),
            vec![firi("lv/city"), firi("lv/country"), firi("lv/continent")]
        );
        assert_eq!(geo.levels[0].members.len(), 8);
        assert_eq!(geo.levels[1].members.len(), 3);
        // countryName (3 string values) + flag (3 IRI values).
        assert_eq!(geo.levels[1].attributes.len(), 2);
        assert_eq!(geo.levels[1].attributes[0].values.len(), 3);

        let cat = universe
            .dimensions
            .iter()
            .find(|d| d.dimension == firi("dim/cat"))
            .unwrap();
        assert_eq!(cat.levels.len(), 1, "flat dimension has only its bottom");
    }
}

//! The QB4OLAP multidimensional schema model.
//!
//! QB4OLAP extends QB with the concepts the paper's Section II describes:
//! dimension levels (as DSD components via `qb4o:level`), dimension
//! hierarchies with hierarchy steps and parent/child cardinalities, level
//! attributes, and aggregate functions attached to measures.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rdf::vocab::qb4o;
use rdf::Iri;

/// An OLAP aggregate function (`qb4o:AggregateFunction` instances).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AggregateFunction {
    /// `qb4o:sum`.
    Sum,
    /// `qb4o:avg`.
    Avg,
    /// `qb4o:count`.
    Count,
    /// `qb4o:min`.
    Min,
    /// `qb4o:max`.
    Max,
}

impl AggregateFunction {
    /// The QB4OLAP IRI of the function.
    pub fn iri(self) -> Iri {
        match self {
            AggregateFunction::Sum => qb4o::sum(),
            AggregateFunction::Avg => qb4o::avg(),
            AggregateFunction::Count => qb4o::count(),
            AggregateFunction::Min => qb4o::min(),
            AggregateFunction::Max => qb4o::max(),
        }
    }

    /// Parses a QB4OLAP aggregate-function IRI.
    pub fn from_iri(iri: &Iri) -> Option<Self> {
        Some(match iri.local_name() {
            "sum" => AggregateFunction::Sum,
            "avg" => AggregateFunction::Avg,
            "count" => AggregateFunction::Count,
            "min" => AggregateFunction::Min,
            "max" => AggregateFunction::Max,
            _ => return None,
        })
    }

    /// The SPARQL aggregate keyword implementing this function.
    pub fn sparql_name(self) -> &'static str {
        match self {
            AggregateFunction::Sum => "SUM",
            AggregateFunction::Avg => "AVG",
            AggregateFunction::Count => "COUNT",
            AggregateFunction::Min => "MIN",
            AggregateFunction::Max => "MAX",
        }
    }
}

/// The cardinality of a fact–level or parent–child relationship.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cardinality {
    /// `qb4o:OneToOne`.
    OneToOne,
    /// `qb4o:OneToMany`.
    OneToMany,
    /// `qb4o:ManyToOne` (the usual roll-up cardinality).
    ManyToOne,
    /// `qb4o:ManyToMany`.
    ManyToMany,
}

impl Cardinality {
    /// The QB4OLAP IRI of the cardinality.
    pub fn iri(self) -> Iri {
        match self {
            Cardinality::OneToOne => qb4o::one_to_one(),
            Cardinality::OneToMany => qb4o::one_to_many(),
            Cardinality::ManyToOne => qb4o::many_to_one(),
            Cardinality::ManyToMany => qb4o::many_to_many(),
        }
    }

    /// Parses a QB4OLAP cardinality IRI.
    pub fn from_iri(iri: &Iri) -> Option<Self> {
        Some(match iri.local_name() {
            "OneToOne" => Cardinality::OneToOne,
            "OneToMany" => Cardinality::OneToMany,
            "ManyToOne" => Cardinality::ManyToOne,
            "ManyToMany" => Cardinality::ManyToMany,
            _ => return None,
        })
    }

    /// True if each child maps to at most one parent (summarisable roll-up).
    pub fn is_functional(self) -> bool {
        matches!(self, Cardinality::ManyToOne | Cardinality::OneToOne)
    }
}

/// A level attribute (`qb4o:LevelAttribute`), e.g. `schema:continentName`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelAttribute {
    /// The attribute IRI.
    pub iri: Iri,
    /// Optional human-readable label.
    pub label: Option<String>,
}

impl LevelAttribute {
    /// Creates an attribute.
    pub fn new(iri: Iri) -> Self {
        LevelAttribute { iri, label: None }
    }
}

/// A dimension level (`qb4o:LevelProperty`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Level {
    /// The level IRI (e.g. `property:citizen`, `schema:continent`).
    pub iri: Iri,
    /// Descriptive attributes attached to the level.
    pub attributes: Vec<LevelAttribute>,
    /// Optional human-readable label.
    pub label: Option<String>,
}

impl Level {
    /// Creates a level with no attributes.
    pub fn new(iri: Iri) -> Self {
        Level {
            iri,
            attributes: Vec::new(),
            label: None,
        }
    }

    /// Adds an attribute.
    pub fn with_attribute(mut self, attribute: LevelAttribute) -> Self {
        self.attributes.push(attribute);
        self
    }
}

/// A roll-up relationship between two levels of a hierarchy
/// (`qb4o:HierarchyStep`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyStep {
    /// The finer (child) level.
    pub child: Iri,
    /// The coarser (parent) level.
    pub parent: Iri,
    /// The parent–child cardinality.
    pub cardinality: Cardinality,
}

/// A dimension hierarchy (`qb4o:Hierarchy`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    /// The hierarchy IRI (e.g. `schema:citizenshipGeoHier`).
    pub iri: Iri,
    /// All levels of the hierarchy.
    pub levels: Vec<Iri>,
    /// Roll-up steps between consecutive levels.
    pub steps: Vec<HierarchyStep>,
    /// Optional label.
    pub label: Option<String>,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(iri: Iri) -> Self {
        Hierarchy {
            iri,
            levels: Vec::new(),
            steps: Vec::new(),
            label: None,
        }
    }

    /// True if the hierarchy declares the level.
    pub fn has_level(&self, level: &Iri) -> bool {
        self.levels.contains(level)
    }

    /// The parent level(s) reachable from `level` in one step.
    pub fn parents_of(&self, level: &Iri) -> Vec<&Iri> {
        self.steps
            .iter()
            .filter(|s| &s.child == level)
            .map(|s| &s.parent)
            .collect()
    }

    /// The child level(s) that roll up to `level` in one step.
    pub fn children_of(&self, level: &Iri) -> Vec<&Iri> {
        self.steps
            .iter()
            .filter(|s| &s.parent == level)
            .map(|s| &s.child)
            .collect()
    }

    /// Levels that are not a parent of any step (the finest levels).
    pub fn bottom_levels(&self) -> Vec<&Iri> {
        self.levels
            .iter()
            .filter(|l| self.steps.iter().all(|s| &s.parent != *l))
            .collect()
    }

    /// The sequence of steps from `from` up to `to`, if `to` is reachable by
    /// following parent links (breadth-first, shortest path).
    pub fn rollup_path(&self, from: &Iri, to: &Iri) -> Option<Vec<&HierarchyStep>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut queue: VecDeque<(&Iri, Vec<&HierarchyStep>)> = VecDeque::new();
        let mut visited: BTreeSet<&Iri> = BTreeSet::new();
        queue.push_back((from, Vec::new()));
        visited.insert(from);
        while let Some((level, path)) = queue.pop_front() {
            for step in self.steps.iter().filter(|s| &s.child == level) {
                if visited.contains(&step.parent) {
                    continue;
                }
                let mut new_path = path.clone();
                new_path.push(step);
                if &step.parent == to {
                    return Some(new_path);
                }
                visited.insert(&step.parent);
                queue.push_back((&step.parent, new_path));
            }
        }
        None
    }
}

/// A dimension (`qb:DimensionProperty` carrying QB4OLAP hierarchies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dimension {
    /// The dimension IRI (e.g. `schema:citizenshipDim`).
    pub iri: Iri,
    /// Its hierarchies.
    pub hierarchies: Vec<Hierarchy>,
    /// Optional label.
    pub label: Option<String>,
}

impl Dimension {
    /// Creates a dimension with no hierarchies.
    pub fn new(iri: Iri) -> Self {
        Dimension {
            iri,
            hierarchies: Vec::new(),
            label: None,
        }
    }

    /// All distinct levels across the dimension's hierarchies.
    pub fn levels(&self) -> Vec<&Iri> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for h in &self.hierarchies {
            for l in &h.levels {
                if seen.insert(l) {
                    out.push(l);
                }
            }
        }
        out
    }

    /// True if any hierarchy of the dimension declares the level.
    pub fn has_level(&self, level: &Iri) -> bool {
        self.hierarchies.iter().any(|h| h.has_level(level))
    }

    /// The bottom level of the dimension: the level that appears as a child
    /// but never as a parent across all hierarchies. Falls back to the first
    /// declared level.
    pub fn bottom_level(&self) -> Option<&Iri> {
        let mut parents: BTreeSet<&Iri> = BTreeSet::new();
        for h in &self.hierarchies {
            for s in &h.steps {
                parents.insert(&s.parent);
            }
        }
        self.levels()
            .into_iter()
            .find(|l| !parents.contains(l))
            .or_else(|| self.levels().into_iter().next())
    }

    /// Finds a roll-up path from `from` to `to` in any hierarchy of the
    /// dimension, returning the hierarchy and the steps.
    pub fn rollup_path(&self, from: &Iri, to: &Iri) -> Option<(&Hierarchy, Vec<&HierarchyStep>)> {
        for h in &self.hierarchies {
            if let Some(path) = h.rollup_path(from, to) {
                return Some((h, path));
            }
        }
        None
    }

    /// All levels reachable *upward* from `from` across the dimension's
    /// hierarchies, in declaration order and without duplicates (`from`
    /// itself is excluded). These are the valid roll-up targets a
    /// materialized-cube builder must precompute maps for.
    pub fn ancestor_levels(&self, from: &Iri) -> Vec<Iri> {
        self.levels()
            .into_iter()
            .filter(|level| *level != from && self.rollup_path(from, level).is_some())
            .cloned()
            .collect()
    }
}

/// A measure with its default aggregate function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureSpec {
    /// The measure property (e.g. `sdmx-measure:obsValue`).
    pub property: Iri,
    /// The default aggregate function (`qb4o:aggregateFunction`).
    pub aggregate: AggregateFunction,
}

/// A fact–level component of the QB4OLAP DSD (`qb4o:level` +
/// `qb4o:cardinality`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelComponent {
    /// The bottom level attached to the fact.
    pub level: Iri,
    /// The fact–level cardinality.
    pub cardinality: Cardinality,
    /// The dimension this level belongs to, once hierarchies are defined.
    pub dimension: Option<Iri>,
}

/// A complete QB4OLAP cube schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeSchema {
    /// The QB4OLAP DSD IRI (the redefined DSD, e.g.
    /// `schema:migr_asyappctzmQB4O`).
    pub dsd: Iri,
    /// The dataset the schema describes.
    pub dataset: Iri,
    /// Fact–level components.
    pub level_components: Vec<LevelComponent>,
    /// Measures with aggregate functions.
    pub measures: Vec<MeasureSpec>,
    /// Dimensions with hierarchies.
    pub dimensions: Vec<Dimension>,
    /// Level details (attributes) keyed by level IRI.
    pub levels: BTreeMap<Iri, Level>,
}

impl CubeSchema {
    /// Creates an empty schema for a dataset.
    pub fn new(dsd: Iri, dataset: Iri) -> Self {
        CubeSchema {
            dsd,
            dataset,
            level_components: Vec::new(),
            measures: Vec::new(),
            dimensions: Vec::new(),
            levels: BTreeMap::new(),
        }
    }

    /// Finds a dimension by IRI.
    pub fn dimension(&self, iri: &Iri) -> Option<&Dimension> {
        self.dimensions.iter().find(|d| &d.iri == iri)
    }

    /// Finds a dimension by IRI (mutable).
    pub fn dimension_mut(&mut self, iri: &Iri) -> Option<&mut Dimension> {
        self.dimensions.iter_mut().find(|d| &d.iri == iri)
    }

    /// The dimension that contains a given level.
    pub fn dimension_of_level(&self, level: &Iri) -> Option<&Dimension> {
        self.dimensions.iter().find(|d| d.has_level(level))
    }

    /// The level details for an IRI, if registered.
    pub fn level(&self, iri: &Iri) -> Option<&Level> {
        self.levels.get(iri)
    }

    /// Registers (or returns) level details.
    pub fn level_mut(&mut self, iri: &Iri) -> &mut Level {
        self.levels
            .entry(iri.clone())
            .or_insert_with(|| Level::new(iri.clone()))
    }

    /// The measure spec for a property.
    pub fn measure(&self, property: &Iri) -> Option<&MeasureSpec> {
        self.measures.iter().find(|m| &m.property == property)
    }

    /// The bottom level attached to the fact for a dimension, derived from
    /// the level components (preferred) or the dimension's own structure.
    pub fn bottom_level_of_dimension(&self, dimension: &Iri) -> Option<Iri> {
        if let Some(dim) = self.dimension(dimension) {
            // Prefer a level component that belongs to this dimension.
            for component in &self.level_components {
                if dim.has_level(&component.level) {
                    return Some(component.level.clone());
                }
            }
            return dim.bottom_level().cloned();
        }
        None
    }

    /// All level attributes declared for a level.
    pub fn level_attributes(&self, level: &Iri) -> Vec<&LevelAttribute> {
        self.level(level)
            .map(|l| l.attributes.iter().collect())
            .unwrap_or_default()
    }

    /// The attribute with the given IRI on any level, with its level.
    pub fn find_attribute(&self, attribute: &Iri) -> Option<(&Iri, &LevelAttribute)> {
        for (level_iri, level) in &self.levels {
            if let Some(attr) = level.attributes.iter().find(|a| &a.iri == attribute) {
                return Some((level_iri, attr));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::vocab::{demo_schema, eurostat_property};

    /// The citizenship dimension from the paper: citizen → continent → citAll.
    pub(crate) fn citizenship_dimension() -> Dimension {
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
        let mut dim = Dimension::new(demo_schema::citizenship_dim());
        dim.hierarchies.push(hierarchy);
        dim
    }

    #[test]
    fn aggregate_function_iri_roundtrip() {
        for f in [
            AggregateFunction::Sum,
            AggregateFunction::Avg,
            AggregateFunction::Count,
            AggregateFunction::Min,
            AggregateFunction::Max,
        ] {
            assert_eq!(AggregateFunction::from_iri(&f.iri()), Some(f));
        }
        assert_eq!(
            AggregateFunction::from_iri(&Iri::new("http://x#median")),
            None
        );
        assert_eq!(AggregateFunction::Sum.sparql_name(), "SUM");
    }

    #[test]
    fn cardinality_iri_roundtrip_and_functionality() {
        for c in [
            Cardinality::OneToOne,
            Cardinality::OneToMany,
            Cardinality::ManyToOne,
            Cardinality::ManyToMany,
        ] {
            assert_eq!(Cardinality::from_iri(&c.iri()), Some(c));
        }
        assert!(Cardinality::ManyToOne.is_functional());
        assert!(!Cardinality::ManyToMany.is_functional());
    }

    #[test]
    fn hierarchy_navigation() {
        let dim = citizenship_dimension();
        let h = &dim.hierarchies[0];
        assert_eq!(
            h.parents_of(&eurostat_property::citizen()),
            vec![&demo_schema::continent()]
        );
        assert_eq!(
            h.children_of(&demo_schema::continent()),
            vec![&eurostat_property::citizen()]
        );
        assert_eq!(h.bottom_levels(), vec![&eurostat_property::citizen()]);
    }

    #[test]
    fn rollup_path_search() {
        let dim = citizenship_dimension();
        let (h, path) = dim
            .rollup_path(&eurostat_property::citizen(), &demo_schema::cit_all())
            .expect("path exists");
        assert_eq!(h.iri, demo_schema::citizenship_geo_hier());
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].parent, demo_schema::continent());

        assert!(
            dim.rollup_path(&demo_schema::cit_all(), &eurostat_property::citizen())
                .is_none(),
            "roll-up paths only go upwards"
        );
        let (_, same) = dim
            .rollup_path(&eurostat_property::citizen(), &eurostat_property::citizen())
            .unwrap();
        assert!(same.is_empty());
    }

    #[test]
    fn dimension_bottom_level() {
        let dim = citizenship_dimension();
        assert_eq!(dim.bottom_level(), Some(&eurostat_property::citizen()));
        assert_eq!(dim.levels().len(), 3);
        assert!(dim.has_level(&demo_schema::continent()));
    }

    #[test]
    fn ancestor_levels_exclude_self_and_unreachable() {
        let dim = citizenship_dimension();
        assert_eq!(
            dim.ancestor_levels(&eurostat_property::citizen()),
            vec![demo_schema::continent(), demo_schema::cit_all()]
        );
        assert_eq!(
            dim.ancestor_levels(&demo_schema::continent()),
            vec![demo_schema::cit_all()]
        );
        assert!(dim.ancestor_levels(&demo_schema::cit_all()).is_empty());
    }

    #[test]
    fn cube_schema_lookups() {
        let mut schema = CubeSchema::new(
            Iri::new("http://example.org/dsdQB4O"),
            Iri::new("http://example.org/dataset"),
        );
        schema.dimensions.push(citizenship_dimension());
        schema.level_components.push(LevelComponent {
            level: eurostat_property::citizen(),
            cardinality: Cardinality::ManyToOne,
            dimension: Some(demo_schema::citizenship_dim()),
        });
        schema.measures.push(MeasureSpec {
            property: rdf::vocab::sdmx_measure::obs_value(),
            aggregate: AggregateFunction::Sum,
        });
        schema
            .level_mut(&demo_schema::continent())
            .attributes
            .push(LevelAttribute::new(demo_schema::continent_name()));

        assert!(schema.dimension(&demo_schema::citizenship_dim()).is_some());
        assert_eq!(
            schema
                .dimension_of_level(&demo_schema::continent())
                .map(|d| &d.iri),
            Some(&demo_schema::citizenship_dim())
        );
        assert_eq!(
            schema.bottom_level_of_dimension(&demo_schema::citizenship_dim()),
            Some(eurostat_property::citizen())
        );
        assert_eq!(
            schema
                .measure(&rdf::vocab::sdmx_measure::obs_value())
                .map(|m| m.aggregate),
            Some(AggregateFunction::Sum)
        );
        assert_eq!(schema.level_attributes(&demo_schema::continent()).len(), 1);
        let (level, _attr) = schema
            .find_attribute(&demo_schema::continent_name())
            .expect("attribute registered");
        assert_eq!(level, &demo_schema::continent());
        assert!(schema.find_attribute(&Iri::new("http://missing")).is_none());
    }
}

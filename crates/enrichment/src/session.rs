//! The Enrichment module workflow (Figure 2 of the paper).
//!
//! An [`EnrichmentSession`] drives the three phases over a SPARQL endpoint:
//!
//! 1. **Redefinition phase** — [`EnrichmentSession::redefine`]: the QB DSD is
//!    adjusted to QB4OLAP semantics (dimensions become levels with a
//!    fact-level cardinality, measures get an aggregate function) and one
//!    dimension with a default hierarchy is created per original dimension.
//! 2. **Enrichment phase** — [`EnrichmentSession::discover_candidates`]
//!    collects the level instances and their properties, runs the
//!    (quasi-)functional-dependency analysis and suggests candidate parent
//!    levels and attributes; [`EnrichmentSession::add_level`] /
//!    [`EnrichmentSession::add_attribute`] apply the user's choices and keep
//!    the dimension hierarchies up to date. The phase is repeated until the
//!    user has added all desired levels.
//! 3. **Triple Generation phase** — [`EnrichmentSession::generate_triples`]
//!    emits the QB4OLAP schema and level-instance triples, and
//!    [`EnrichmentSession::load_into_endpoint`] loads them into the endpoint
//!    for the Exploration and Querying modules.

use std::collections::{BTreeMap, BTreeSet};

use qb::{ComponentKind, QbDataset};
use qb4olap::{
    schema_triples, validate_schema, Cardinality, CubeSchema, Dimension, Hierarchy, HierarchyStep,
    LevelAttribute, LevelComponent, MeasureSpec, SchemaReport,
};
use rdf::vocab::{owl, qb4o, rdf as rdfv, skos};
use rdf::{Iri, Term, Triple};
use sparql::ast::{GroupGraphPattern, PatternElement, SelectQuery, ValuesRow};
use sparql::{Endpoint, Query};

use crate::candidates::{suggested_local_name, CandidateAttribute, CandidateLevel, CandidateSet};
use crate::config::EnrichmentConfig;
use crate::error::EnrichmentError;
use crate::fd::{analyze_members, rollup_assignment, MemberPropertyValues};

/// The triples produced by the Triple Generation phase.
#[derive(Debug, Clone, Default)]
pub struct EnrichmentOutput {
    /// Schema triples (DSD, dimensions, hierarchies, levels, attributes).
    pub schema_triples: Vec<Triple>,
    /// Instance triples (level members, roll-up links, attribute values).
    pub instance_triples: Vec<Triple>,
}

impl EnrichmentOutput {
    /// Total number of generated triples.
    pub fn len(&self) -> usize {
        self.schema_triples.len() + self.instance_triples.len()
    }

    /// True if nothing was generated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Summary statistics of an enrichment run (displayed by the demo UI and
/// recorded by the benchmark harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnrichmentStats {
    /// Number of schema triples loaded.
    pub schema_triples: usize,
    /// Number of instance triples loaded.
    pub instance_triples: usize,
    /// Number of dimensions in the schema.
    pub dimensions: usize,
    /// Number of levels in the schema.
    pub levels: usize,
    /// Number of level attributes in the schema.
    pub attributes: usize,
}

#[derive(Debug, Clone, Default)]
struct CollectedProperties {
    direct: MemberPropertyValues,
    external: MemberPropertyValues,
}

/// Parsed probe-query templates, built once per session and reused across
/// every phase and candidate: each chunked `VALUES (?m)` probe is executed
/// by patching the rows of a cached AST ([`Endpoint::select_parsed`])
/// instead of formatting and re-parsing SPARQL text per chunk.
#[derive(Debug, Default)]
struct ProbeCache {
    /// `?m ?p ?v` over the member batch (property collection).
    member_properties: Option<SelectQuery>,
    /// The same through one `owl:sameAs` hop (external enrichment).
    member_properties_external: Option<SelectQuery>,
    /// `?m <property> ?v` per attribute source property.
    attribute_direct: BTreeMap<Iri, SelectQuery>,
    /// The same through `owl:sameAs`, per attribute source property.
    attribute_external: BTreeMap<Iri, SelectQuery>,
}

/// The placeholder row every probe template is parsed with; it is replaced
/// by the actual member batch before execution.
const PROBE_PLACEHOLDER: &str = "(<urn:qb2olap:probe>)";

fn probe_template(text: &str) -> SelectQuery {
    sparql::parse_select(text).expect("static probe template parses")
}

fn member_properties_probe() -> SelectQuery {
    probe_template(&format!(
        "SELECT ?m ?p ?v WHERE {{ VALUES (?m) {{ {PROBE_PLACEHOLDER} }} ?m ?p ?v . }}"
    ))
}

fn member_properties_external_probe() -> SelectQuery {
    probe_template(&format!(
        "PREFIX owl: <http://www.w3.org/2002/07/owl#>
         SELECT ?m ?p ?v WHERE {{
           VALUES (?m) {{ {PROBE_PLACEHOLDER} }}
           ?m owl:sameAs ?ext .
           ?ext ?p ?v .
         }}"
    ))
}

fn attribute_probe(property: &Iri, external: bool) -> SelectQuery {
    let text = if external {
        format!(
            "PREFIX owl: <http://www.w3.org/2002/07/owl#>
             SELECT ?m ?v WHERE {{
               VALUES (?m) {{ {PROBE_PLACEHOLDER} }}
               ?m owl:sameAs ?ext . ?ext <{}> ?v .
             }}",
            property.as_str()
        )
    } else {
        format!(
            "SELECT ?m ?v WHERE {{ VALUES (?m) {{ {PROBE_PLACEHOLDER} }} ?m <{}> ?v . }}",
            property.as_str()
        )
    };
    probe_template(&text)
}

/// Instantiates a cached template for one member batch by replacing the
/// rows of its `VALUES` block.
fn probe_for_members(template: &SelectQuery, members: &[&Iri]) -> Query {
    let mut query = template.clone();
    let rows: Vec<ValuesRow> = members
        .iter()
        .map(|iri| vec![Some(Term::Iri((*iri).clone()))])
        .collect();
    replace_values_rows(&mut query.pattern, rows);
    Query::Select(query)
}

fn replace_values_rows(pattern: &mut GroupGraphPattern, rows: Vec<ValuesRow>) {
    for element in &mut pattern.elements {
        if let PatternElement::Values { rows: slot, .. } = element {
            *slot = rows;
            return;
        }
    }
    unreachable!("every probe template starts with a VALUES block");
}

/// An interactive enrichment session over one dataset.
pub struct EnrichmentSession<'e> {
    endpoint: &'e dyn Endpoint,
    config: EnrichmentConfig,
    qb_dataset: QbDataset,
    schema: Option<CubeSchema>,
    members: BTreeMap<Iri, Vec<Term>>,
    collected: BTreeMap<Iri, CollectedProperties>,
    rollups: BTreeSet<(Term, Term)>,
    attribute_values: BTreeSet<(Term, Iri, Term)>,
    probes: ProbeCache,
}

impl<'e> EnrichmentSession<'e> {
    /// Starts a session for a QB dataset already loaded on the endpoint.
    pub fn start(
        endpoint: &'e dyn Endpoint,
        dataset: &Iri,
        config: EnrichmentConfig,
    ) -> Result<Self, EnrichmentError> {
        let qb_dataset = qb::load_dataset(endpoint, dataset)?;
        Ok(EnrichmentSession {
            endpoint,
            config,
            qb_dataset,
            schema: None,
            members: BTreeMap::new(),
            collected: BTreeMap::new(),
            rollups: BTreeSet::new(),
            attribute_values: BTreeSet::new(),
            probes: ProbeCache::default(),
        })
    }

    /// The original QB dataset description.
    pub fn qb_dataset(&self) -> &QbDataset {
        &self.qb_dataset
    }

    /// The evolving QB4OLAP schema (available after [`Self::redefine`]).
    pub fn schema(&self) -> Option<&CubeSchema> {
        self.schema.as_ref()
    }

    fn schema_mut(&mut self) -> Result<&mut CubeSchema, EnrichmentError> {
        self.schema.as_mut().ok_or_else(|| {
            EnrichmentError::InvalidState(
                "the Redefinition phase has not been run yet (call redefine() first)".to_string(),
            )
        })
    }

    // ---- Redefinition phase -------------------------------------------------

    /// Runs the Redefinition phase: dimensions become levels (with a
    /// fact-level `ManyToOne` cardinality), measures are copied with the
    /// default aggregate function, and one dimension + default hierarchy is
    /// created per original QB dimension.
    pub fn redefine(&mut self) -> Result<&CubeSchema, EnrichmentError> {
        let dataset_local = self.qb_dataset.iri.local_name().to_string();
        let dsd_iri = self.config.schema_iri(&format!("{dataset_local}QB4O"));
        let mut schema = CubeSchema::new(dsd_iri, self.qb_dataset.iri.clone());

        for component in &self.qb_dataset.structure.components {
            match component.kind {
                ComponentKind::Dimension => {
                    let level = component.property.clone();
                    let (dimension_iri, hierarchy_iri) = self.config.dimension_iris(&level);
                    schema.level_components.push(LevelComponent {
                        level: level.clone(),
                        cardinality: Cardinality::ManyToOne,
                        dimension: Some(dimension_iri.clone()),
                    });
                    let mut hierarchy = Hierarchy::new(hierarchy_iri);
                    hierarchy.levels.push(level.clone());
                    let mut dimension = Dimension::new(dimension_iri);
                    dimension.hierarchies.push(hierarchy);
                    schema.dimensions.push(dimension);
                    schema.level_mut(&level);
                }
                ComponentKind::Measure => {
                    schema.measures.push(MeasureSpec {
                        property: component.property.clone(),
                        aggregate: self.config.default_aggregate,
                    });
                }
                ComponentKind::Attribute => {
                    // QB attributes (e.g. obsStatus) stay out of the MD schema.
                }
            }
        }

        self.schema = Some(schema);
        Ok(self.schema.as_ref().expect("just set"))
    }

    // ---- Enrichment phase ----------------------------------------------------

    /// Returns (collecting and caching if needed) the members of a level.
    ///
    /// For the original bottom levels, members are the distinct values bound
    /// to the dimension property across the dataset's observations; for
    /// levels added through [`Self::add_level`], members were recorded when
    /// the level was created.
    pub fn level_members(&mut self, level: &Iri) -> Result<Vec<Term>, EnrichmentError> {
        if let Some(members) = self.members.get(level) {
            return Ok(members.clone());
        }
        let is_bottom = self.qb_dataset.structure.dimensions().contains(&level);
        if !is_bottom {
            return Err(EnrichmentError::UnknownElement(format!(
                "level <{}> has no known members (it is neither an original dimension nor an added level)",
                level.as_str()
            )));
        }
        let mut members = qb::dimension_members(self.endpoint, &self.qb_dataset.iri, level)?;
        if let Some(cap) = self.config.max_sample_members {
            members.truncate(cap);
        }
        self.members.insert(level.clone(), members.clone());
        Ok(members)
    }

    /// Collects all properties of the members of a level (directly and,
    /// optionally, through one `owl:sameAs` hop into external datasets).
    fn collect_properties(&mut self, level: &Iri) -> Result<(), EnrichmentError> {
        if self.collected.contains_key(level) {
            return Ok(());
        }
        let members = self.level_members(level)?;
        let iri_members: Vec<&Iri> = members.iter().filter_map(Term::as_iri).collect();

        let mut collected = CollectedProperties::default();
        for member in &members {
            collected.direct.entry(member.clone()).or_default();
        }

        let excluded = [
            rdfv::type_(),
            owl::same_as(),
            qb4o::member_of(),
            skos::broader(),
        ];

        // Parse the probe shapes once per session; each chunk only swaps
        // the VALUES rows of the cached AST.
        let direct_template = self
            .probes
            .member_properties
            .get_or_insert_with(member_properties_probe);
        let external_template = if self.config.follow_same_as {
            Some(
                self.probes
                    .member_properties_external
                    .get_or_insert_with(member_properties_external_probe)
                    .clone(),
            )
        } else {
            None
        };
        for chunk in iri_members.chunks(64) {
            // Direct properties of the members.
            let solutions = self
                .endpoint
                .select_parsed(&probe_for_members(direct_template, chunk))?;
            for i in 0..solutions.len() {
                let (Some(m), Some(Term::Iri(p)), Some(v)) = (
                    solutions.get(i, "m").cloned(),
                    solutions.get(i, "p").cloned(),
                    solutions.get(i, "v").cloned(),
                ) else {
                    continue;
                };
                if excluded.contains(&p) {
                    continue;
                }
                collected
                    .direct
                    .entry(m)
                    .or_default()
                    .entry(p)
                    .or_default()
                    .insert(v);
            }

            // Properties reachable through owl:sameAs (external enrichment).
            if let Some(template) = &external_template {
                let solutions = self
                    .endpoint
                    .select_parsed(&probe_for_members(template, chunk))?;
                for i in 0..solutions.len() {
                    let (Some(m), Some(Term::Iri(p)), Some(v)) = (
                        solutions.get(i, "m").cloned(),
                        solutions.get(i, "p").cloned(),
                        solutions.get(i, "v").cloned(),
                    ) else {
                        continue;
                    };
                    if excluded.contains(&p) {
                        continue;
                    }
                    collected
                        .external
                        .entry(m)
                        .or_default()
                        .entry(p)
                        .or_default()
                        .insert(v);
                }
            }
        }
        self.collected.insert(level.clone(), collected);
        Ok(())
    }

    /// Runs the candidate-discovery step of the Enrichment phase for a level:
    /// analyses the properties of its members and suggests roll-up levels
    /// (object-valued (quasi-)FDs that compress the member set) and
    /// descriptive attributes (literal-valued FDs).
    pub fn discover_candidates(&mut self, level: &Iri) -> Result<CandidateSet, EnrichmentError> {
        self.collect_properties(level)?;
        let collected = self
            .collected
            .get(level)
            .expect("collect_properties just ran");

        let mut profiles = analyze_members(&collected.direct, false);
        if self.config.follow_same_as && !collected.external.is_empty() {
            // External profiles are computed over the same member set so the
            // coverage denominators stay comparable.
            let mut external = collected.external.clone();
            for member in collected.direct.keys() {
                external.entry(member.clone()).or_default();
            }
            profiles.extend(analyze_members(&external, true));
        }

        let mut set = CandidateSet {
            level: Some(level.clone()),
            ..Default::default()
        };
        for profile in profiles {
            if profile.members_with_value == 0 {
                continue;
            }
            let name = suggested_local_name(&profile.property);
            if profile.object_valued {
                let acceptable = profile.is_quasi_functional(self.config.fd_error_threshold)
                    && profile.coverage() + f64::EPSILON >= self.config.min_support
                    && profile.compression_ratio()
                        <= self.config.max_compression_ratio + f64::EPSILON;
                if acceptable {
                    set.levels.push(CandidateLevel {
                        score: profile.score(),
                        suggested_name: name,
                        profile,
                    });
                }
            } else if self.config.suggest_attributes && profile.is_functional() {
                set.attributes.push(CandidateAttribute {
                    suggested_name: name,
                    profile,
                });
            }
        }
        set.levels.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        set.attributes
            .sort_by(|a, b| a.profile.property.cmp(&b.profile.property));
        Ok(set)
    }

    /// Applies a user choice: adds a new (coarser) level above `child_level`,
    /// named `level_name` in the schema namespace, populated through the
    /// candidate's source property. The dimension hierarchy containing
    /// `child_level` is updated automatically, as described in the paper.
    ///
    /// Returns the IRI of the new level so further enrichment rounds can be
    /// run on it.
    pub fn add_level(
        &mut self,
        child_level: &Iri,
        candidate: &CandidateLevel,
        level_name: &str,
    ) -> Result<Iri, EnrichmentError> {
        self.collect_properties(child_level)?;
        let collected = self
            .collected
            .get(child_level)
            .expect("collect_properties just ran");
        let values = if candidate.profile.via_same_as {
            &collected.external
        } else {
            &collected.direct
        };
        let assignment = rollup_assignment(values, &candidate.profile.property);
        if assignment.is_empty() {
            return Err(EnrichmentError::UnknownElement(format!(
                "property <{}> has no values on the members of <{}>",
                candidate.profile.property.as_str(),
                child_level.as_str()
            )));
        }

        let new_level = self.config.schema_iri(level_name);
        let cardinality = if candidate.profile.is_functional() {
            Cardinality::ManyToOne
        } else {
            Cardinality::ManyToMany
        };

        // Record instance data: parents become members of the new level and
        // every child member rolls up to its parent.
        let mut parents: BTreeSet<Term> = BTreeSet::new();
        for (child, parent) in &assignment {
            parents.insert(parent.clone());
            self.rollups.insert((child.clone(), parent.clone()));
        }
        self.members
            .insert(new_level.clone(), parents.into_iter().collect());

        // Update the schema: extend the hierarchy that contains the child level.
        let schema = self.schema_mut()?;
        let dimension = schema
            .dimensions
            .iter_mut()
            .find(|d| d.has_level(child_level))
            .ok_or_else(|| {
                EnrichmentError::UnknownElement(format!(
                    "level <{}> does not belong to any dimension",
                    child_level.as_str()
                ))
            })?;
        let hierarchy = dimension
            .hierarchies
            .iter_mut()
            .find(|h| h.has_level(child_level))
            .expect("dimension found through this level");
        if !hierarchy.levels.contains(&new_level) {
            hierarchy.levels.push(new_level.clone());
        }
        hierarchy.steps.push(HierarchyStep {
            child: child_level.clone(),
            parent: new_level.clone(),
            cardinality,
        });
        schema.level_mut(&new_level);

        Ok(new_level)
    }

    /// Applies a user choice: declares a descriptive attribute on a level,
    /// named `attribute_name` in the schema namespace, populated from
    /// `source_property` on the level's members (directly, or through
    /// `owl:sameAs` when the property was discovered externally).
    pub fn add_attribute(
        &mut self,
        level: &Iri,
        source_property: &Iri,
        attribute_name: &str,
    ) -> Result<Iri, EnrichmentError> {
        let members = self
            .members
            .get(level)
            .cloned()
            .map(Ok)
            .unwrap_or_else(|| self.level_members(level))?;
        let attribute_iri = self.config.schema_iri(attribute_name);

        let mut found = 0usize;
        let iri_members: Vec<&Iri> = members.iter().filter_map(Term::as_iri).collect();
        // One parsed template per source property, shared by every chunk
        // (and by repeated add_attribute calls for the same property).
        let direct_template = self
            .probes
            .attribute_direct
            .entry(source_property.clone())
            .or_insert_with(|| attribute_probe(source_property, false))
            .clone();
        let external_template = if self.config.follow_same_as {
            Some(
                self.probes
                    .attribute_external
                    .entry(source_property.clone())
                    .or_insert_with(|| attribute_probe(source_property, true))
                    .clone(),
            )
        } else {
            None
        };
        for chunk in iri_members.chunks(64) {
            let solutions = self
                .endpoint
                .select_parsed(&probe_for_members(&direct_template, chunk))?;
            let mut matched_members: BTreeSet<Term> = BTreeSet::new();
            for i in 0..solutions.len() {
                if let (Some(m), Some(v)) = (
                    solutions.get(i, "m").cloned(),
                    solutions.get(i, "v").cloned(),
                ) {
                    matched_members.insert(m.clone());
                    self.attribute_values.insert((m, attribute_iri.clone(), v));
                    found += 1;
                }
            }
            if let Some(template) = &external_template {
                let solutions = self
                    .endpoint
                    .select_parsed(&probe_for_members(template, chunk))?;
                for i in 0..solutions.len() {
                    if let (Some(m), Some(v)) = (
                        solutions.get(i, "m").cloned(),
                        solutions.get(i, "v").cloned(),
                    ) {
                        if matched_members.contains(&m) {
                            continue;
                        }
                        self.attribute_values.insert((m, attribute_iri.clone(), v));
                        found += 1;
                    }
                }
            }
        }
        if found == 0 {
            return Err(EnrichmentError::UnknownElement(format!(
                "property <{}> has no values on the members of <{}>",
                source_property.as_str(),
                level.as_str()
            )));
        }

        let schema = self.schema_mut()?;
        let level_entry = schema.level_mut(level);
        if !level_entry
            .attributes
            .iter()
            .any(|a| a.iri == attribute_iri)
        {
            level_entry
                .attributes
                .push(LevelAttribute::new(attribute_iri.clone()));
        }
        Ok(attribute_iri)
    }

    /// Validates the current schema (run after every change by the demo UI).
    pub fn validate(&self) -> Result<SchemaReport, EnrichmentError> {
        let schema = self.schema.as_ref().ok_or_else(|| {
            EnrichmentError::InvalidState("redefine() has not been run yet".to_string())
        })?;
        Ok(validate_schema(schema))
    }

    // ---- Triple Generation phase ----------------------------------------------

    /// Runs the Triple Generation phase: emits schema and instance triples
    /// for everything accumulated so far.
    pub fn generate_triples(&mut self) -> Result<EnrichmentOutput, EnrichmentError> {
        // Bottom levels need their member lists materialised so that
        // qb4o:memberOf triples can be generated for them too.
        let bottom_levels: Vec<Iri> = self
            .qb_dataset
            .structure
            .dimensions()
            .into_iter()
            .cloned()
            .collect();
        for level in &bottom_levels {
            self.level_members(level)?;
        }

        let schema = self.schema.as_ref().ok_or_else(|| {
            EnrichmentError::InvalidState("redefine() has not been run yet".to_string())
        })?;

        let mut output = EnrichmentOutput {
            schema_triples: schema_triples(schema),
            instance_triples: Vec::new(),
        };
        for (level, members) in &self.members {
            for member in members {
                output
                    .instance_triples
                    .push(qb4olap::member_of_triple(member, level));
            }
        }
        for (child, parent) in &self.rollups {
            output
                .instance_triples
                .push(qb4olap::rollup_triple(child, parent));
        }
        for (member, attribute, value) in &self.attribute_values {
            output
                .instance_triples
                .push(qb4olap::attribute_triple(member, attribute, value));
        }
        Ok(output)
    }

    /// Generates the triples and loads them into the endpoint, returning the
    /// run statistics.
    pub fn load_into_endpoint(&mut self) -> Result<EnrichmentStats, EnrichmentError> {
        let output = self.generate_triples()?;
        self.endpoint.insert_triples(&output.schema_triples)?;
        self.endpoint.insert_triples(&output.instance_triples)?;
        let schema = self.schema.as_ref().expect("generate_triples checked");
        Ok(EnrichmentStats {
            schema_triples: output.schema_triples.len(),
            instance_triples: output.instance_triples.len(),
            dimensions: schema.dimensions.len(),
            levels: schema.levels.len(),
            attributes: schema.levels.values().map(|l| l.attributes.len()).sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{load_demo_endpoint, EurostatConfig, NoiseConfig};
    use rdf::vocab::{dbpedia, demo_schema, eurostat_property, rdfs, sdmx_measure};
    use sparql::LocalEndpoint;

    fn demo_config() -> EnrichmentConfig {
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
            .name_dimension(
                rdf::vocab::sdmx_dimension::ref_period(),
                "timeDim",
                "timeHier",
            )
            .name_dimension(eurostat_property::asyl_app(), "asylappDim", "asylappHier")
    }

    fn session_on<'e>(endpoint: &'e LocalEndpoint, dataset: &Iri) -> EnrichmentSession<'e> {
        EnrichmentSession::start(endpoint, dataset, demo_config()).unwrap()
    }

    #[test]
    fn redefinition_creates_levels_dimensions_and_measures() {
        let (endpoint, data) = load_demo_endpoint(&EurostatConfig::small(150));
        let mut session = session_on(&endpoint, &data.dataset);
        let schema = session.redefine().unwrap().clone();

        assert_eq!(schema.level_components.len(), 6);
        assert_eq!(schema.dimensions.len(), 6);
        assert_eq!(schema.measures.len(), 1);
        assert_eq!(
            schema.measures[0].aggregate,
            qb4olap::AggregateFunction::Sum
        );
        // The paper's naming is honoured.
        assert!(schema.dimension(&demo_schema::citizenship_dim()).is_some());
        assert_eq!(
            schema.bottom_level_of_dimension(&demo_schema::citizenship_dim()),
            Some(eurostat_property::citizen())
        );
        // Every dimension starts with a single-level default hierarchy.
        for dimension in &schema.dimensions {
            assert_eq!(dimension.hierarchies.len(), 1);
            assert_eq!(dimension.hierarchies[0].levels.len(), 1);
        }
    }

    #[test]
    fn candidate_discovery_finds_continent_for_citizen() {
        let (endpoint, data) = load_demo_endpoint(&EurostatConfig::small(300));
        let mut session = session_on(&endpoint, &data.dataset);
        session.redefine().unwrap();

        let candidates = session
            .discover_candidates(&eurostat_property::citizen())
            .unwrap();
        // The in-dataset continent link is a candidate...
        let continent = candidates
            .level_candidate(&datagen::eurostat::continent_property())
            .expect("continent candidate discovered");
        assert!(continent.profile.is_functional());
        assert!(continent.profile.coverage() > 0.9);
        // ... and so are the external DBpedia properties (government type).
        let government = candidates
            .level_candidate(&dbpedia::government_type())
            .expect("external governmentType candidate discovered");
        assert!(government.profile.via_same_as);
        // rdfs:label is suggested as an attribute, not as a level.
        assert!(candidates.attribute_candidate(&rdfs::label()).is_some());
        assert!(candidates.level_candidate(&rdfs::label()).is_none());
    }

    #[test]
    fn add_level_updates_hierarchy_and_members() {
        let (endpoint, data) = load_demo_endpoint(&EurostatConfig::small(300));
        let mut session = session_on(&endpoint, &data.dataset);
        session.redefine().unwrap();

        let candidates = session
            .discover_candidates(&eurostat_property::citizen())
            .unwrap();
        let continent_candidate = candidates
            .level_candidate(&datagen::eurostat::continent_property())
            .unwrap()
            .clone();
        let continent_level = session
            .add_level(
                &eurostat_property::citizen(),
                &continent_candidate,
                "continent",
            )
            .unwrap();
        assert_eq!(continent_level, demo_schema::continent());

        let schema = session.schema().unwrap();
        let dimension = schema.dimension(&demo_schema::citizenship_dim()).unwrap();
        let hierarchy = &dimension.hierarchies[0];
        assert!(hierarchy.has_level(&continent_level));
        assert_eq!(hierarchy.steps.len(), 1);
        assert_eq!(hierarchy.steps[0].cardinality, Cardinality::ManyToOne);

        // The new level's members are the continents of the countries in use.
        let members = session.level_members(&continent_level).unwrap();
        assert!(members.len() >= 2 && members.len() <= 4, "{members:?}");

        // A second round on the new level discovers the all-citizenships level.
        let next = session.discover_candidates(&continent_level).unwrap();
        assert!(next
            .level_candidate(&datagen::eurostat::all_property())
            .is_some());
    }

    #[test]
    fn add_attribute_from_labels() {
        let (endpoint, data) = load_demo_endpoint(&EurostatConfig::small(200));
        let mut session = session_on(&endpoint, &data.dataset);
        session.redefine().unwrap();
        let candidates = session
            .discover_candidates(&eurostat_property::citizen())
            .unwrap();
        let continent_candidate = candidates
            .level_candidate(&datagen::eurostat::continent_property())
            .unwrap()
            .clone();
        let continent_level = session
            .add_level(
                &eurostat_property::citizen(),
                &continent_candidate,
                "continent",
            )
            .unwrap();

        let attribute = session
            .add_attribute(&continent_level, &rdfs::label(), "continentName")
            .unwrap();
        assert_eq!(attribute, demo_schema::continent_name());
        let schema = session.schema().unwrap();
        assert_eq!(schema.level_attributes(&continent_level).len(), 1);

        // Unknown properties are rejected.
        assert!(matches!(
            session.add_attribute(
                &continent_level,
                &Iri::new("http://example.org/doesNotExist"),
                "broken"
            ),
            Err(EnrichmentError::UnknownElement(_))
        ));
    }

    #[test]
    fn triple_generation_loads_queryable_rollups() {
        let (endpoint, data) = load_demo_endpoint(&EurostatConfig::small(250));
        let mut session = session_on(&endpoint, &data.dataset);
        session.redefine().unwrap();
        let candidates = session
            .discover_candidates(&eurostat_property::citizen())
            .unwrap();
        let continent_candidate = candidates
            .level_candidate(&datagen::eurostat::continent_property())
            .unwrap()
            .clone();
        let continent_level = session
            .add_level(
                &eurostat_property::citizen(),
                &continent_candidate,
                "continent",
            )
            .unwrap();
        session
            .add_attribute(&continent_level, &rdfs::label(), "continentName")
            .unwrap();

        let before = endpoint.triple_count();
        let stats = session.load_into_endpoint().unwrap();
        assert!(endpoint.triple_count() > before);
        assert!(stats.schema_triples > 0 && stats.instance_triples > 0);
        assert_eq!(stats.dimensions, 6);

        // The schema can be read back (what Exploration/Querying do)...
        let loaded = qb4olap::schema_from_endpoint(&endpoint, &data.dataset).unwrap();
        assert!(loaded.dimension(&demo_schema::citizenship_dim()).is_some());
        // ... and the instance roll-ups are queryable.
        let pairs =
            qb4olap::rollup_pairs(&endpoint, &eurostat_property::citizen(), &continent_level)
                .unwrap();
        assert!(!pairs.is_empty());
        // Attribute values are present on the continent members.
        let attr = qb4olap::attribute_value(
            &endpoint,
            &datagen::eurostat::continent_member("Africa"),
            &demo_schema::continent_name(),
        )
        .unwrap();
        assert!(attr.is_some());

        // The validation report is clean.
        assert!(session.validate().unwrap().is_valid());
    }

    #[test]
    fn quasi_fd_threshold_controls_noisy_candidates() {
        let noisy = EurostatConfig {
            observations: 200,
            noise: NoiseConfig {
                missing_link_fraction: 0.0,
                conflicting_link_fraction: 0.2,
            },
            ..Default::default()
        };
        let (endpoint, data) = load_demo_endpoint(&noisy);

        // With a strict threshold the conflicting continent links disqualify
        // the property...
        let strict = EnrichmentConfig::default()
            .without_external_sources()
            .with_fd_error_threshold(0.0);
        let mut session = EnrichmentSession::start(&endpoint, &data.dataset, strict).unwrap();
        session.redefine().unwrap();
        let candidates = session
            .discover_candidates(&eurostat_property::citizen())
            .unwrap();
        assert!(candidates
            .level_candidate(&datagen::eurostat::continent_property())
            .is_none());

        // ... while a quasi-FD threshold of 25% lets it through again.
        let lenient = EnrichmentConfig::default()
            .without_external_sources()
            .with_fd_error_threshold(0.25);
        let mut session = EnrichmentSession::start(&endpoint, &data.dataset, lenient).unwrap();
        session.redefine().unwrap();
        let candidates = session
            .discover_candidates(&eurostat_property::citizen())
            .unwrap();
        let candidate = candidates
            .level_candidate(&datagen::eurostat::continent_property())
            .expect("quasi-FD accepted");
        assert!(!candidate.profile.is_functional());
    }

    #[test]
    fn workflow_misuse_is_reported() {
        let (endpoint, data) = load_demo_endpoint(&EurostatConfig::small(50));
        let mut session = session_on(&endpoint, &data.dataset);
        // Using the Enrichment phase before redefinition.
        let candidates = session
            .discover_candidates(&eurostat_property::citizen())
            .unwrap();
        let candidate = candidates.levels.first().cloned().unwrap();
        assert!(matches!(
            session.add_level(&eurostat_property::citizen(), &candidate, "x"),
            Err(EnrichmentError::InvalidState(_))
        ));
        assert!(matches!(
            session.validate(),
            Err(EnrichmentError::InvalidState(_))
        ));
        // Asking for members of an unknown level.
        assert!(matches!(
            session.level_members(&Iri::new("http://example.org/notALevel")),
            Err(EnrichmentError::UnknownElement(_))
        ));
        // Sessions on unknown datasets fail to start.
        assert!(EnrichmentSession::start(
            &endpoint,
            &Iri::new("http://example.org/ghost"),
            EnrichmentConfig::default()
        )
        .is_err());
    }

    #[test]
    fn probe_templates_are_parsed_once_and_reused_across_phases() {
        let (endpoint, data) = load_demo_endpoint(&EurostatConfig::small(250));
        let mut session = session_on(&endpoint, &data.dataset);
        session.redefine().unwrap();

        let candidates = session
            .discover_candidates(&eurostat_property::citizen())
            .unwrap();
        assert!(session.probes.member_properties.is_some());
        assert!(session.probes.member_properties_external.is_some());
        let cached = session.probes.member_properties.clone().unwrap();

        // A second discovery round (another phase, another level) reuses
        // the very same parsed template instead of re-parsing.
        let continent = candidates
            .level_candidate(&datagen::eurostat::continent_property())
            .unwrap()
            .clone();
        let continent_level = session
            .add_level(&eurostat_property::citizen(), &continent, "continent")
            .unwrap();
        session.discover_candidates(&continent_level).unwrap();
        assert_eq!(session.probes.member_properties.as_ref(), Some(&cached));

        // Attribute probes are cached per source property.
        session
            .add_attribute(&continent_level, &rdfs::label(), "continentName")
            .unwrap();
        assert_eq!(session.probes.attribute_direct.len(), 1);
        session
            .add_attribute(&eurostat_property::citizen(), &rdfs::label(), "citizenName")
            .unwrap();
        assert_eq!(
            session.probes.attribute_direct.len(),
            1,
            "same property, same template"
        );
        assert!(session.probes.attribute_direct.contains_key(&rdfs::label()));
    }

    #[test]
    fn measure_aggregate_follows_configuration() {
        let (endpoint, data) = load_demo_endpoint(&EurostatConfig::small(60));
        let mut config = demo_config();
        config.default_aggregate = qb4olap::AggregateFunction::Avg;
        let mut session = EnrichmentSession::start(&endpoint, &data.dataset, config).unwrap();
        let schema = session.redefine().unwrap();
        assert_eq!(
            schema
                .measure(&sdmx_measure::obs_value())
                .map(|m| m.aggregate),
            Some(qb4olap::AggregateFunction::Avg)
        );
    }
}

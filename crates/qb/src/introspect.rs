//! Introspection of QB data sets published on a SPARQL endpoint.
//!
//! Mirrors the first step of the Enrichment module workflow (Figure 2): the
//! tool "triggers the queries" needed to retrieve the cube structure from
//! the endpoint, so the user never writes SPARQL herself. All functions here
//! work against the [`Endpoint`] trait, exactly as the original tool works
//! against Virtuoso.

use std::collections::{BTreeMap, BTreeSet};

use rdf::{Iri, Term};
use sparql::{EncodedSolutions, Endpoint, Solutions};

use crate::error::QbError;
use crate::model::{Component, ComponentKind, DataStructureDefinition, QbDataset};

/// A QB dataset discovered on an endpoint, with its DSD IRI and observation count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSummary {
    /// The dataset IRI.
    pub dataset: Iri,
    /// The DSD it points to.
    pub structure: Iri,
    /// Its `rdfs:label`, if any.
    pub label: Option<String>,
    /// Number of observations linked to it.
    pub observations: usize,
}

/// Lists all QB datasets available on the endpoint.
pub fn list_datasets(endpoint: &dyn Endpoint) -> Result<Vec<DatasetSummary>, QbError> {
    let solutions = endpoint.select(
        "PREFIX qb: <http://purl.org/linked-data/cube#>
         PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
         SELECT ?ds ?dsd ?label (COUNT(?obs) AS ?n) WHERE {
           ?ds a qb:DataSet ; qb:structure ?dsd .
           OPTIONAL { ?ds rdfs:label ?label }
           OPTIONAL { ?obs qb:dataSet ?ds }
         } GROUP BY ?ds ?dsd ?label ORDER BY ?ds",
    )?;
    let mut out = Vec::with_capacity(solutions.len());
    for i in 0..solutions.len() {
        let dataset = expect_iri(&solutions, i, "ds")?;
        let structure = expect_iri(&solutions, i, "dsd")?;
        let label = solutions
            .get(i, "label")
            .and_then(|t| t.as_literal())
            .map(|l| l.lexical().to_string());
        let observations = solutions
            .get(i, "n")
            .and_then(|t| t.as_literal())
            .and_then(|l| l.as_integer())
            .unwrap_or(0) as usize;
        out.push(DatasetSummary {
            dataset,
            structure,
            label,
            observations,
        });
    }
    Ok(out)
}

/// Loads the DSD of a dataset: its dimension, measure and attribute components.
pub fn load_dsd(endpoint: &dyn Endpoint, dsd: &Iri) -> Result<DataStructureDefinition, QbError> {
    let query = format!(
        "PREFIX qb: <http://purl.org/linked-data/cube#>
         SELECT ?prop ?kind ?order ?required ?codeList WHERE {{
           <{dsd}> qb:component ?spec .
           {{ ?spec qb:dimension ?prop . BIND(\"dimension\" AS ?kind) }}
           UNION {{ ?spec qb:measure ?prop . BIND(\"measure\" AS ?kind) }}
           UNION {{ ?spec qb:attribute ?prop . BIND(\"attribute\" AS ?kind) }}
           OPTIONAL {{ ?spec qb:order ?order }}
           OPTIONAL {{ ?spec qb:componentRequired ?required }}
           OPTIONAL {{ ?spec qb:codeList ?codeList }}
         }} ORDER BY ?order ?prop",
        dsd = dsd.as_str()
    );
    let solutions = endpoint.select(&query)?;
    if solutions.is_empty() {
        return Err(QbError::NotFound(format!(
            "no qb:component found for DSD <{}>",
            dsd.as_str()
        )));
    }
    let mut structure = DataStructureDefinition::new(dsd.clone());
    for i in 0..solutions.len() {
        let property = expect_iri(&solutions, i, "prop")?;
        let kind = match solutions
            .get(i, "kind")
            .and_then(|t| t.as_literal())
            .map(|l| l.lexical().to_string())
            .unwrap_or_default()
            .as_str()
        {
            "dimension" => ComponentKind::Dimension,
            "measure" => ComponentKind::Measure,
            "attribute" => ComponentKind::Attribute,
            other => {
                return Err(QbError::Malformed(format!(
                    "unknown component kind '{other}'"
                )))
            }
        };
        let order = solutions
            .get(i, "order")
            .and_then(|t| t.as_literal())
            .and_then(|l| l.as_integer())
            .map(|o| o as u32);
        let required = solutions
            .get(i, "required")
            .and_then(|t| t.as_literal())
            .and_then(|l| l.as_boolean())
            .unwrap_or(kind != ComponentKind::Attribute);
        let code_list = solutions
            .get(i, "codeList")
            .and_then(|t| t.as_iri())
            .cloned();
        structure.push(Component {
            property,
            kind,
            order,
            required,
            code_list,
        });
    }
    // Deduplicate (OPTIONAL rows can fan out if a spec repeats annotations).
    structure.components.dedup_by(|a, b| a.property == b.property && a.kind == b.kind);
    Ok(structure)
}

/// Loads a dataset description (label, comment, structure).
pub fn load_dataset(endpoint: &dyn Endpoint, dataset: &Iri) -> Result<QbDataset, QbError> {
    let query = format!(
        "PREFIX qb: <http://purl.org/linked-data/cube#>
         PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
         SELECT ?dsd ?label ?comment WHERE {{
           <{ds}> qb:structure ?dsd .
           OPTIONAL {{ <{ds}> rdfs:label ?label }}
           OPTIONAL {{ <{ds}> rdfs:comment ?comment }}
         }}",
        ds = dataset.as_str()
    );
    let solutions = endpoint.select(&query)?;
    if solutions.is_empty() {
        return Err(QbError::NotFound(format!(
            "dataset <{}> has no qb:structure",
            dataset.as_str()
        )));
    }
    let dsd_iri = expect_iri(&solutions, 0, "dsd")?;
    let structure = load_dsd(endpoint, &dsd_iri)?;
    let mut ds = QbDataset::new(dataset.clone(), structure);
    ds.label = solutions
        .get(0, "label")
        .and_then(|t| t.as_literal())
        .map(|l| l.lexical().to_string());
    ds.comment = solutions
        .get(0, "comment")
        .and_then(|t| t.as_literal())
        .map(|l| l.lexical().to_string());
    Ok(ds)
}

/// Counts the observations of a dataset.
pub fn count_observations(endpoint: &dyn Endpoint, dataset: &Iri) -> Result<usize, QbError> {
    let query = format!(
        "PREFIX qb: <http://purl.org/linked-data/cube#>
         SELECT (COUNT(?obs) AS ?n) WHERE {{ ?obs qb:dataSet <{}> }}",
        dataset.as_str()
    );
    let solutions = endpoint.select(&query)?;
    Ok(solutions
        .get(0, "n")
        .and_then(|t| t.as_literal())
        .and_then(|l| l.as_integer())
        .unwrap_or(0) as usize)
}

/// The distinct members bound to a dimension across a dataset's observations.
pub fn dimension_members(
    endpoint: &dyn Endpoint,
    dataset: &Iri,
    dimension: &Iri,
) -> Result<Vec<Term>, QbError> {
    let query = format!(
        "PREFIX qb: <http://purl.org/linked-data/cube#>
         SELECT DISTINCT ?member WHERE {{
           ?obs qb:dataSet <{ds}> ; <{dim}> ?member .
         }} ORDER BY ?member",
        ds = dataset.as_str(),
        dim = dimension.as_str()
    );
    let solutions = endpoint.select(&query)?;
    Ok(solutions
        .rows
        .iter()
        .filter_map(|row| row.first().cloned().flatten())
        .collect())
}

/// The observations of a dataset, pivoted: one row per observation node (in
/// `Term` order of the nodes), one column per DSD component (in
/// [`DataStructureDefinition::components`] order). Nodes and cells are
/// indexes into [`ObservationTable::terms`], the distinct terms of the
/// table, so a consumer does its per-term work — dictionary-encoding a
/// member, parsing a measure literal — once per term and not once per cell.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObservationTable {
    /// The distinct terms nodes and cells index into.
    pub terms: Vec<Term>,
    columns: usize,
    nodes: Vec<u32>,
    cells: Vec<u32>,
    typed: Vec<bool>,
    /// `(observation, column)` of the dimension/measure slots that carried
    /// several distinct values.
    multivalued: BTreeSet<(usize, usize)>,
}

impl ObservationTable {
    /// The cell of a component the observation has no value for.
    pub const UNBOUND: u32 = EncodedSolutions::UNBOUND;

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the dataset has no observations.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The observation node (IRI or blank), as an index into `terms`.
    pub fn node(&self, observation: usize) -> u32 {
        self.nodes[observation]
    }

    /// One cell per DSD component: the value bound to it, as an index into
    /// `terms`, or [`ObservationTable::UNBOUND`]. A slot that carried
    /// several values keeps the last one the endpoint reported.
    pub fn cells(&self, observation: usize) -> &[u32] {
        &self.cells[observation * self.columns..(observation + 1) * self.columns]
    }

    /// True if the observation's star holds `rdf:type qb:Observation` (the
    /// IRI; other types next to it do not matter).
    pub fn typed(&self, observation: usize) -> bool {
        self.typed[observation]
    }

    /// The columns of the observation's dimension/measure slots that
    /// carried **several distinct values** in the store (QB-malformed data;
    /// the cell keeps only one). Consumers that freeze a single value per
    /// slot — the columnar materialization — must treat these observations
    /// conservatively: removing the kept value would silently expose the
    /// other one.
    pub fn multivalued(&self, observation: usize) -> impl Iterator<Item = usize> + '_ {
        self.multivalued
            .range((observation, 0)..(observation + 1, 0))
            .map(|&(_, column)| column)
    }
}

/// What a predicate term of the observation star is to the table.
#[derive(Debug, Clone, Copy)]
enum Predicate {
    /// Not an IRI: the solution is skipped.
    NotIri,
    /// The property of a DSD component: its column.
    Component(usize),
    /// `rdf:type`.
    Type,
    /// Any other property: it makes the node an observation, nothing more.
    Other,
}

/// Loads the observations of a dataset with one flat read of their stars,
/// classifying each bound property according to the DSD and noting which
/// observations are typed `qb:Observation`.
pub fn load_observations(
    endpoint: &dyn Endpoint,
    dataset: &Iri,
    dsd: &DataStructureDefinition,
) -> Result<ObservationTable, QbError> {
    const UNBOUND: u32 = ObservationTable::UNBOUND;
    let query = format!(
        "PREFIX qb: <http://purl.org/linked-data/cube#>
         SELECT ?obs ?p ?v WHERE {{
           ?obs qb:dataSet <{ds}> .
           ?obs ?p ?v .
         }}",
        ds = dataset.as_str(),
    );
    let solutions = endpoint.select_encoded(&query)?;
    let column = |name: &str| {
        solutions
            .column(name)
            .ok_or_else(|| QbError::Malformed(format!("the endpoint did not project ?{name}")))
    };
    let (obs_column, p_column, v_column) = (column("obs")?, column("p")?, column("v")?);

    // Per distinct term, resolved on first use: the table row of a node,
    // and what a predicate is to the table.
    let columns = dsd.components.len();
    let mut row_of_node = vec![UNBOUND; solutions.terms.len()];
    let mut predicates: Vec<Option<Predicate>> = vec![None; solutions.terms.len()];
    let (rdf_type, class) = (rdf::vocab::rdf::type_(), Term::Iri(rdf::vocab::qb::observation()));
    let mut table = ObservationTable {
        columns,
        ..ObservationTable::default()
    };
    for row in solutions.rows() {
        let (obs, p, v) = (row[obs_column], row[p_column], row[v_column]);
        if [obs, p, v].contains(&UNBOUND) {
            continue;
        }
        let predicate = *predicates[p as usize].get_or_insert_with(|| {
            match solutions.terms[p as usize].as_iri() {
                None => Predicate::NotIri,
                Some(property) if *property == rdf_type => Predicate::Type,
                Some(property) => dsd
                    .components
                    .iter()
                    .position(|c| &c.property == property)
                    .map_or(Predicate::Other, Predicate::Component),
            }
        });
        if let Predicate::NotIri = predicate {
            continue;
        }
        let observation = match row_of_node[obs as usize] {
            UNBOUND => {
                row_of_node[obs as usize] = table.nodes.len() as u32;
                table.nodes.push(obs);
                table.typed.push(false);
                table.cells.resize(table.cells.len() + columns, UNBOUND);
                table.nodes.len() - 1
            }
            known => known as usize,
        };
        match predicate {
            Predicate::Component(column) => {
                let cell = &mut table.cells[observation * columns + column];
                if dsd.components[column].kind != ComponentKind::Attribute
                    && ![UNBOUND, v].contains(cell)
                {
                    table.multivalued.insert((observation, column));
                }
                *cell = v;
            }
            Predicate::Type => table.typed[observation] |= solutions.terms[v as usize] == class,
            _ => {}
        }
    }

    // Rows in `Term` order of their nodes: one permutation sort and one
    // gather, whatever order the endpoint sent the stars in.
    let node = |table: &ObservationTable, observation: usize| {
        &solutions.terms[table.nodes[observation] as usize]
    };
    if !(1..table.len()).all(|next| node(&table, next - 1) < node(&table, next)) {
        let mut order: Vec<u32> = (0..table.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| node(&table, a as usize).cmp(node(&table, b as usize)));
        let mut cells = Vec::with_capacity(table.cells.len());
        let mut position = vec![0; order.len()];
        for (new, &old) in order.iter().enumerate() {
            cells.extend_from_slice(table.cells(old as usize));
            position[old as usize] = new;
        }
        table = ObservationTable {
            nodes: order.iter().map(|&old| table.nodes[old as usize]).collect(),
            typed: order.iter().map(|&old| table.typed[old as usize]).collect(),
            multivalued: table.multivalued.iter().map(|&(old, c)| (position[old], c)).collect(),
            cells,
            ..table
        };
    }
    table.terms = solutions.terms;
    Ok(table)
}

/// The distinct properties observed on a set of resources, with usage counts.
/// This is the query behind candidate-level discovery in the Enrichment phase.
pub fn properties_of_members(
    endpoint: &dyn Endpoint,
    members: &[Term],
) -> Result<BTreeMap<Iri, usize>, QbError> {
    let mut counts: BTreeMap<Iri, usize> = BTreeMap::new();
    if members.is_empty() {
        return Ok(counts);
    }
    let values: Vec<String> = members
        .iter()
        .filter_map(|m| m.as_iri())
        .map(|iri| format!("(<{}>)", iri.as_str()))
        .collect();
    if values.is_empty() {
        return Ok(counts);
    }
    let query = format!(
        "SELECT ?p (COUNT(?m) AS ?n) WHERE {{
           VALUES (?m) {{ {values} }}
           ?m ?p ?v .
         }} GROUP BY ?p ORDER BY ?p",
        values = values.join(" ")
    );
    let solutions = endpoint.select(&query)?;
    for i in 0..solutions.len() {
        if let (Some(Term::Iri(p)), Some(n)) = (
            solutions.get(i, "p").cloned(),
            solutions
                .get(i, "n")
                .and_then(|t| t.as_literal())
                .and_then(|l| l.as_integer()),
        ) {
            counts.insert(p, n as usize);
        }
    }
    Ok(counts)
}

fn expect_iri(solutions: &Solutions, row: usize, var: &str) -> Result<Iri, QbError> {
    solutions
        .get(row, var)
        .and_then(|t| t.as_iri())
        .cloned()
        .ok_or_else(|| QbError::Malformed(format!("expected an IRI binding for ?{var}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QbDatasetBuilder;
    use crate::model::Observation;
    use rdf::vocab::{eurostat_property, sdmx_measure};
    use rdf::Literal;
    use sparql::LocalEndpoint;

    fn endpoint_with_tiny_cube() -> (LocalEndpoint, Iri, Iri) {
        let dataset_iri = Iri::new("http://example.org/dataset");
        let dsd_iri = Iri::new("http://example.org/dsd");
        let mut builder = QbDatasetBuilder::new(dataset_iri.clone(), dsd_iri.clone())
            .label("Tiny cube")
            .dimension(eurostat_property::citizen())
            .dimension(eurostat_property::geo())
            .measure(sdmx_measure::obs_value());
        for (i, (cit, geo, v)) in [("SY", "DE", 10), ("SY", "FR", 4), ("NG", "FR", 7)]
            .iter()
            .enumerate()
        {
            let mut obs = Observation::new(Term::iri(format!("http://example.org/obs{i}")));
            obs.dimensions.insert(
                eurostat_property::citizen(),
                Term::iri(format!("http://example.org/dic/citizen#{cit}")),
            );
            obs.dimensions.insert(
                eurostat_property::geo(),
                Term::iri(format!("http://example.org/dic/geo#{geo}")),
            );
            obs.measures.insert(
                sdmx_measure::obs_value(),
                Term::Literal(Literal::integer(*v)),
            );
            builder = builder.observation(obs);
        }
        let endpoint = LocalEndpoint::new();
        endpoint.insert_triples(&builder.build_triples()).unwrap();
        (endpoint, dataset_iri, dsd_iri)
    }

    #[test]
    fn list_datasets_finds_the_cube() {
        let (endpoint, dataset, dsd) = endpoint_with_tiny_cube();
        let datasets = list_datasets(&endpoint).unwrap();
        assert_eq!(datasets.len(), 1);
        assert_eq!(datasets[0].dataset, dataset);
        assert_eq!(datasets[0].structure, dsd);
        assert_eq!(datasets[0].observations, 3);
        assert_eq!(datasets[0].label.as_deref(), Some("Tiny cube"));
    }

    #[test]
    fn load_dsd_classifies_components() {
        let (endpoint, _dataset, dsd) = endpoint_with_tiny_cube();
        let structure = load_dsd(&endpoint, &dsd).unwrap();
        assert_eq!(structure.dimensions().len(), 2);
        assert_eq!(structure.measures().len(), 1);
        assert!(structure.attributes().is_empty());
    }

    #[test]
    fn load_dataset_includes_label_and_structure() {
        let (endpoint, dataset, _dsd) = endpoint_with_tiny_cube();
        let ds = load_dataset(&endpoint, &dataset).unwrap();
        assert_eq!(ds.label.as_deref(), Some("Tiny cube"));
        assert_eq!(ds.structure.components.len(), 3);
    }

    #[test]
    fn observation_count_and_members() {
        let (endpoint, dataset, _dsd) = endpoint_with_tiny_cube();
        assert_eq!(count_observations(&endpoint, &dataset).unwrap(), 3);
        let members =
            dimension_members(&endpoint, &dataset, &eurostat_property::citizen()).unwrap();
        assert_eq!(members.len(), 2);
        let geos = dimension_members(&endpoint, &dataset, &eurostat_property::geo()).unwrap();
        assert_eq!(geos.len(), 2);
    }

    #[test]
    fn load_observations_roundtrip() {
        let (endpoint, dataset, dsd) = endpoint_with_tiny_cube();
        let structure = load_dsd(&endpoint, &dsd).unwrap();
        let table = load_observations(&endpoint, &dataset, &structure).unwrap();
        assert_eq!(table.len(), 3);
        // Rows come in node order; columns follow the DSD (citizen, geo,
        // obsValue) and every cell resolves through the shared term list.
        let decoded: Vec<Vec<String>> = (0..table.len())
            .map(|o| {
                std::iter::once(table.node(o))
                    .chain(table.cells(o).iter().copied())
                    .map(|cell| table.terms[cell as usize].display_label())
                    .collect()
            })
            .collect();
        assert_eq!(
            decoded,
            vec![
                vec!["obs0", "SY", "DE", "10"],
                vec!["obs1", "SY", "FR", "4"],
                vec!["obs2", "NG", "FR", "7"],
            ]
        );
        assert!((0..3).all(|o| table.multivalued(o).next().is_none()));
        // Five distinct members, three nodes, three values: shared cells
        // share a term.
        assert_eq!(table.cells(0)[0], table.cells(1)[0]);
    }

    /// An endpoint that answers SELECTs with the rows in reverse: an order
    /// a foreign endpoint may send the stars in.
    struct Reversed(LocalEndpoint);

    impl Endpoint for Reversed {
        fn query(&self, sparql: &str) -> Result<sparql::QueryResults, sparql::SparqlError> {
            Ok(match self.0.query(sparql)? {
                sparql::QueryResults::Solutions(encoded) => {
                    let mut solutions = sparql::Solutions::from(encoded);
                    solutions.rows.reverse();
                    sparql::QueryResults::Solutions(solutions.into())
                }
                other => other,
            })
        }
        fn insert_triples(&self, triples: &[rdf::Triple]) -> Result<usize, sparql::SparqlError> {
            self.0.insert_triples(triples)
        }
        fn insert_triples_named(
            &self,
            graph: &Iri,
            triples: &[rdf::Triple],
        ) -> Result<usize, sparql::SparqlError> {
            self.0.insert_triples_named(graph, triples)
        }
        fn triple_count(&self) -> usize {
            self.0.triple_count()
        }
    }

    #[test]
    fn load_observations_orders_rows_whatever_the_endpoint_sends() {
        let (endpoint, dataset, dsd) = endpoint_with_tiny_cube();
        endpoint
            .insert_triples(&[rdf::Triple::new(
                Term::iri("http://example.org/obs0"),
                eurostat_property::geo(),
                Term::iri("http://example.org/dic/geo#AT"),
            )])
            .unwrap();
        let structure = load_dsd(&endpoint, &dsd).unwrap();
        let native = load_observations(&endpoint, &dataset, &structure).unwrap();
        let reversed = load_observations(&Reversed(endpoint), &dataset, &structure).unwrap();
        let decode = |table: &ObservationTable, cell: u32| table.terms.get(cell as usize).cloned();
        for o in 0..native.len() {
            assert_eq!(decode(&native, native.node(o)), decode(&reversed, reversed.node(o)));
            assert_eq!(
                native.multivalued(o).collect::<Vec<_>>(),
                reversed.multivalued(o).collect::<Vec<_>>()
            );
            // Single-valued cells agree; the multi-valued one keeps
            // whichever value arrived last.
            for (c, (&a, &b)) in native.cells(o).iter().zip(reversed.cells(o)).enumerate() {
                if !native.multivalued(o).any(|m| m == c) {
                    assert_eq!(decode(&native, a), decode(&reversed, b));
                }
            }
        }
    }

    #[test]
    fn load_observations_flags_multivalued_slots() {
        let (endpoint, dataset, dsd) = endpoint_with_tiny_cube();
        // Give obs0 a second, different destination and a duplicate
        // (identical) citizenship triple: only the former is multi-valued.
        endpoint
            .insert_triples(&[rdf::Triple::new(
                Term::iri("http://example.org/obs0"),
                eurostat_property::geo(),
                Term::iri("http://example.org/dic/geo#AT"),
            )])
            .unwrap();
        let structure = load_dsd(&endpoint, &dsd).unwrap();
        let table = load_observations(&endpoint, &dataset, &structure).unwrap();
        assert_eq!(
            table.terms[table.node(0) as usize],
            Term::iri("http://example.org/obs0")
        );
        let geo = structure
            .components
            .iter()
            .position(|c| c.property == eurostat_property::geo())
            .unwrap();
        assert_eq!(table.multivalued(0).collect::<Vec<_>>(), vec![geo]);
        assert!((1..table.len()).all(|o| table.multivalued(o).next().is_none()));
    }

    #[test]
    fn typed_means_the_star_holds_rdf_type_qb_observation() {
        use rdf::vocab::{qb, rdf as rdfv};
        let dataset = Iri::new("http://example.org/dataset");
        let node = |name: &str| Term::iri(format!("http://example.org/{name}"));
        let class = Term::Iri(qb::observation());
        let mut triples = Vec::new();
        for (name, types) in [
            ("typed", vec![class.clone()]),
            ("untyped", vec![]),
            ("two-types", vec![Term::iri("http://example.org/Other"), class.clone()]),
            ("literal-type", vec![Term::string(qb::observation().as_str())]),
        ] {
            triples.push(rdf::Triple::new(node(name), qb::data_set(), Term::Iri(dataset.clone())));
            for class in types {
                triples.push(rdf::Triple::new(node(name), rdfv::type_(), class));
            }
        }
        let endpoint = LocalEndpoint::new();
        endpoint.insert_triples(&triples).unwrap();
        let dsd = DataStructureDefinition::new(Iri::new("http://example.org/dsd"));
        let table = load_observations(&endpoint, &dataset, &dsd).unwrap();
        let typed: Vec<(Term, bool)> = (0..table.len())
            .map(|o| (table.terms[table.node(o) as usize].clone(), table.typed(o)))
            .collect();
        assert_eq!(
            typed,
            vec![
                (node("literal-type"), false),
                (node("two-types"), true),
                (node("typed"), true),
                (node("untyped"), false),
            ]
        );
    }

    #[test]
    fn properties_of_members_counts_usage() {
        let (endpoint, _dataset, _dsd) = endpoint_with_tiny_cube();
        // Attach an extra property to the citizenship members.
        endpoint
            .insert_triples(&[
                rdf::Triple::new(
                    Term::iri("http://example.org/dic/citizen#SY"),
                    Iri::new("http://example.org/continent"),
                    Term::iri("http://example.org/Asia"),
                ),
                rdf::Triple::new(
                    Term::iri("http://example.org/dic/citizen#NG"),
                    Iri::new("http://example.org/continent"),
                    Term::iri("http://example.org/Africa"),
                ),
            ])
            .unwrap();
        let members = vec![
            Term::iri("http://example.org/dic/citizen#SY"),
            Term::iri("http://example.org/dic/citizen#NG"),
        ];
        let counts = properties_of_members(&endpoint, &members).unwrap();
        assert_eq!(
            counts.get(&Iri::new("http://example.org/continent")),
            Some(&2)
        );
    }

    #[test]
    fn missing_resources_are_reported() {
        let (endpoint, _dataset, _dsd) = endpoint_with_tiny_cube();
        assert!(matches!(
            load_dsd(&endpoint, &Iri::new("http://example.org/nope")),
            Err(QbError::NotFound(_))
        ));
        assert!(matches!(
            load_dataset(&endpoint, &Iri::new("http://example.org/nope")),
            Err(QbError::NotFound(_))
        ));
    }
}

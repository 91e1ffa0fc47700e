//! The differential oracle: every QL program runs through **every**
//! execution backend, every SPARQL query through the parsed path, the
//! text path and the identity plan, and the results must be bit-identical.

use std::cell::RefCell;

use cubestore::{ExecOptions, MaterializedCube};
use ql::{execute_columnar, PreparedQuery, QlError, QueryingModule, ResultCube, SparqlVariant};
use rdf::Graph;
use sparql::ast::{Query, SelectQuery};
use sparql::pretty::query_to_string;
use sparql::testutil::evaluate_textual;
use sparql::{EncodedSolutions, Endpoint, LocalEndpoint, QueryResults, SparqlError};

/// The legs [`ModuleOracle`] evaluates every program on, in order, all
/// against one settled pin of the store:
///
/// * `columnar` — the served path: the pinned snapshot with the default
///   [`ExecOptions`];
/// * `columnar-unpruned` — the same snapshot with zone-map pruning off, so
///   the pruner cannot hide a divergence;
/// * `columnar-scratch` — a cube materialized from scratch at the pin's
///   epoch, so overlay accretion, tombstones and folds are checked against
///   a build that never saw a delta;
/// * `sparql-direct` and `sparql-alternative` — the paper's path: both
///   generated SPARQL variants evaluated on the endpoint.
pub const LEGS: [&str; 5] = [
    "columnar",
    "columnar-unpruned",
    "columnar-scratch",
    "sparql-direct",
    "sparql-alternative",
];

/// Evaluates one QL program text through every backend.
///
/// A trait so the shrinker's self-test can wrap the real oracle with an
/// intentionally faulty one.
pub trait QlOracle {
    /// Executes the program on every backend, returning `(label, result)`
    /// pairs with canonically sorted cells.
    fn evaluate(&self, ql_text: &str) -> Result<Vec<(&'static str, ResultCube)>, QlError>;
}

/// The real oracle: a [`QueryingModule`] over a live endpoint + schema,
/// evaluating the [`LEGS`]. The scratch cube is built once per store
/// epoch; the store must not move while a program is evaluated.
pub struct ModuleOracle<'e> {
    module: &'e QueryingModule<'e>,
    scratch: RefCell<Option<(u64, MaterializedCube)>>,
}

impl<'e> ModuleOracle<'e> {
    /// Wraps a querying module.
    pub fn new(module: &'e QueryingModule<'e>) -> Self {
        ModuleOracle {
            module,
            scratch: RefCell::new(None),
        }
    }

    /// `columnar-scratch`: the prepared query on a from-scratch cube of
    /// the store at `epoch`.
    fn scratch_leg(&self, prepared: &PreparedQuery, epoch: u64) -> Result<ResultCube, QlError> {
        let mut scratch = self.scratch.borrow_mut();
        if scratch.as_ref().map(|(built, _)| *built) != Some(epoch) {
            let endpoint = self.module.endpoint();
            let cube = MaterializedCube::from_endpoint(endpoint, self.module.schema())?;
            if endpoint.epoch() != epoch {
                return Err(QlError::Columnar(
                    "the store moved under the oracle".to_string(),
                ));
            }
            *scratch = Some((epoch, cube));
        }
        let (_, cube) = scratch.as_ref().expect("built above");
        let (coded, _) = execute_columnar(cube, prepared, &ExecOptions::default(), None)?;
        Ok(coded.decode())
    }
}

impl QlOracle for ModuleOracle<'_> {
    fn evaluate(&self, ql_text: &str) -> Result<Vec<(&'static str, ResultCube)>, QlError> {
        let prepared = self.module.prepare(ql_text)?;
        let snapshot = self.module.snapshot_settled()?;
        let unpruned = ExecOptions { prune: false };
        let cubes = [
            self.module.execute_on_snapshot(&prepared, &snapshot)?,
            execute_columnar(snapshot.cube(), &prepared, &unpruned, None)?
                .0
                .decode(),
            self.scratch_leg(&prepared, snapshot.epoch())?,
            self.module.execute(&prepared, SparqlVariant::Direct)?,
            self.module.execute(&prepared, SparqlVariant::Alternative)?,
        ];
        Ok(LEGS
            .into_iter()
            .zip(cubes)
            .map(|(label, mut cube)| {
                cube.sort_cells();
                (label, cube)
            })
            .collect())
    }
}

/// A backend disagreement on one QL program.
#[derive(Debug, Clone)]
pub struct QlMismatch {
    /// The program text that exposed the disagreement.
    pub ql_text: String,
    /// The first backend of the disagreeing pair.
    pub left: &'static str,
    /// The second backend of the disagreeing pair.
    pub right: &'static str,
    /// A short human-readable description of the first difference.
    pub detail: String,
}

/// First difference between two sorted result cubes, if any.
fn first_difference(a: &ResultCube, b: &ResultCube) -> Option<String> {
    if a.axes != b.axes {
        return Some(format!("axes differ: {:?} vs {:?}", a.axes, b.axes));
    }
    if a.measures != b.measures {
        return Some(format!(
            "measures differ: {:?} vs {:?}",
            a.measures, b.measures
        ));
    }
    if a.cells.len() != b.cells.len() {
        return Some(format!(
            "{} cells vs {} cells",
            a.cells.len(),
            b.cells.len()
        ));
    }
    for (i, (ca, cb)) in a.cells.iter().zip(&b.cells).enumerate() {
        if ca != cb {
            return Some(format!("cell {i}: {ca:?} vs {cb:?}"));
        }
    }
    None
}

/// Runs one program through the oracle and checks all backends agree.
///
/// `Ok(None)` means agreement; `Ok(Some(mismatch))` is a reportable
/// disagreement; `Err` means the (well-formed, by construction) program
/// failed to execute at all — itself a bug worth surfacing loudly.
pub fn check_program(oracle: &dyn QlOracle, ql_text: &str) -> Result<Option<QlMismatch>, QlError> {
    let results = oracle.evaluate(ql_text)?;
    let (base_label, base) = &results[0];
    for (label, cube) in &results[1..] {
        if let Some(detail) = first_difference(base, cube) {
            return Ok(Some(QlMismatch {
                ql_text: ql_text.to_string(),
                left: base_label,
                right: label,
                detail,
            }));
        }
    }
    Ok(None)
}

/// A SPARQL path disagreement: direct AST evaluation vs the pretty-printed
/// text round-trip, or the planned evaluation vs the identity plan.
#[derive(Debug, Clone)]
pub struct SparqlMismatch {
    /// The query rendered as text.
    pub sparql_text: String,
    /// What differed.
    pub detail: String,
}

/// Executes one generated SELECT query on three paths — the parsed AST
/// (`select_parsed`), the pretty-printed text (`select`) and the identity
/// plan ([`sparql::testutil::evaluate_textual`]: every run of triple
/// patterns joined in textual order, every FILTER over its group's final
/// rows) — and checks the outcomes agree: identical solutions in identical
/// order, or all errors. The identity-plan leg checks every form of
/// [`identity_plan_forms`].
pub fn check_select(endpoint: &LocalEndpoint, query: &SelectQuery) -> Option<SparqlMismatch> {
    let wrapped = Query::Select(query.clone());
    let text = query_to_string(&wrapped);
    let via_ast = endpoint.select_parsed(&wrapped);
    let via_text = endpoint.select(&text);
    agree(&text, ("parsed path", &via_ast), ("text path", &via_text)).or_else(|| {
        identity_plan_forms(query).iter().find_map(|form| {
            let planned = endpoint.select_parsed(form);
            check_against_identity_plan(endpoint, form, &planned)
        })
    })
}

/// The forms of a SELECT the identity-plan leg compares: the query, and —
/// when it has an ORDER BY, which would hide the evaluator's row order —
/// the query without it (LIMIT and OFFSET kept).
pub fn identity_plan_forms(query: &SelectQuery) -> Vec<Query> {
    let mut forms = vec![Query::Select(query.clone())];
    if !query.order_by.is_empty() {
        let unordered = SelectQuery {
            order_by: Vec::new(),
            ..query.clone()
        };
        forms.push(Query::Select(unordered));
    }
    forms
}

/// The planned-vs-textual leg: `planned`, the outcome of a planned
/// evaluation of `query` on `endpoint`, must equal the identity plan's row
/// for row. The join planner reorders patterns and moves FILTERs, then
/// sorts rows back into textual order; this leg is what holds it to that.
pub fn check_against_identity_plan(
    endpoint: &LocalEndpoint,
    query: &Query,
    planned: &SparqlResult<EncodedSolutions>,
) -> Option<SparqlMismatch> {
    let textual = evaluate_on(endpoint, query, evaluate_textual);
    let text = query_to_string(query);
    agree(
        &text,
        ("planned evaluation", planned),
        ("identity plan", &textual),
    )
}

/// Evaluates `query` on the endpoint's default graph with one of the
/// `sparql::testutil` evaluators and returns its solutions.
pub fn evaluate_on(
    endpoint: &LocalEndpoint,
    query: &Query,
    evaluate: fn(&Graph, &Query) -> SparqlResult<QueryResults>,
) -> SparqlResult<EncodedSolutions> {
    match endpoint
        .store()
        .with_default_graph(|graph| evaluate(graph, query))?
    {
        QueryResults::Solutions(solutions) => Ok(solutions),
        QueryResults::Boolean(_) => Err(SparqlError::Endpoint("expected a SELECT".to_string())),
    }
}

/// Two outcomes agree when both are the same solutions in the same order,
/// or both are errors.
fn agree(
    text: &str,
    (left, a): (&str, &SparqlResult<EncodedSolutions>),
    (right, b): (&str, &SparqlResult<EncodedSolutions>),
) -> Option<SparqlMismatch> {
    let detail = match (a, b) {
        (Ok(a), Ok(b)) if a == b => return None,
        (Ok(a), Ok(b)) if a.len() == b.len() => format!(
            "{left} and {right} returned {} solutions each, differing in rows or order",
            a.len()
        ),
        (Ok(a), Ok(b)) => format!("{left} returned {} solutions, {right} {}", a.len(), b.len()),
        (Err(_), Err(_)) => return None,
        (Ok(_), Err(e)) => format!("{left} succeeded, {right} failed: {e}"),
        (Err(e), Ok(_)) => format!("{right} succeeded, {left} failed: {e}"),
    };
    Some(SparqlMismatch {
        sparql_text: text.to_string(),
        detail,
    })
}

/// Convenience: the error type both endpoint paths share.
pub type SparqlResult<T> = Result<T, SparqlError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::fuzz_cube;
    use crate::ql_gen::QlGenerator;
    use crate::universe::SchemaUniverse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn backends_agree_on_generated_programs() {
        let cube = fuzz_cube();
        let universe = SchemaUniverse::from_endpoint(&cube.endpoint, &cube.schema).unwrap();
        let generator = QlGenerator::new(&universe, &cube.schema);
        let module = QueryingModule::with_schema(&cube.endpoint, cube.schema.clone());
        let oracle = ModuleOracle::new(&module);
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        for spotlight in 0..40 {
            let program = generator.generate(&mut rng, spotlight);
            let text = program.to_ql_string();
            let verdict = check_program(&oracle, &text)
                .unwrap_or_else(|e| panic!("execution failed: {e:?}\n{text}"));
            assert!(verdict.is_none(), "mismatch: {verdict:?}");
        }
    }
}

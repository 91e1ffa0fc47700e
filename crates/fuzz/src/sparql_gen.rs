//! The SPARQL SELECT generator: a seeded walk of the **entire**
//! [`sparql::ast`] SELECT grammar over a QB cube's data graph.
//!
//! Every query keeps a well-formed core — observations of the dataset with
//! a dimension member and a measure value — and layers spotlighted
//! productions on top: one of the nine pattern elements, one of the
//! thirteen expression forms, one of the twenty-two scalar functions
//! (arity-correct by an exhaustive table), one of the seven aggregates,
//! plus the solution modifiers (`DISTINCT`, `GROUP BY`, `HAVING`,
//! `ORDER BY`, `LIMIT`, `OFFSET`). The spotlight index cycles through the
//! production tables, so full grammar coverage needs only
//! `lcm`-of-table-sizes many queries, not luck. Beside each query a
//! campaign runs the spotlight's member list
//! ([`SparqlGenerator::member_list`]).

use rand::rngs::StdRng;
use rand::Rng;
use rdf::vocab::{qb, qb4o, skos, xsd};
use rdf::{Literal, Term};
use sparql::ast::{
    AggregateExpr, AggregateFunction, ArithOp, CmpOp, Expression, Function, GroupGraphPattern,
    OrderCondition, PatternElement, Projection, SelectItem, SelectQuery, TriplePattern, Variable,
};
use sparql::testutil::{
    arith_op_index, call, cmp, cmp_op_index, constant, group, has_first_witness_shape,
    ALL_AGGREGATES, ALL_ARITH_OPS, ALL_CMP_OPS, ALL_FUNCTIONS,
};

use crate::universe::SchemaUniverse;

/// The seeded SPARQL generator over one cube's data graph.
pub struct SparqlGenerator<'a> {
    universe: &'a SchemaUniverse,
}

impl<'a> SparqlGenerator<'a> {
    /// Creates a generator for a cube.
    pub fn new(universe: &'a SchemaUniverse) -> Self {
        SparqlGenerator { universe }
    }

    /// Generates one SELECT query; `spotlight` (the campaign index)
    /// cycles the featured productions.
    pub fn generate(&self, rng: &mut StdRng, spotlight: usize) -> SelectQuery {
        let mut query = self.core(spotlight);
        let dim = &self.universe.dimensions[spotlight % self.universe.dimensions.len()];

        // Featured pattern element (9 variants).
        let element = self.featured_element(rng, spotlight, dim);
        query.pattern.elements.push(element);

        // Featured scalar function, arity-correct (22 variants).
        query.pattern.push_filter(function_showcase(
            ALL_FUNCTIONS[spotlight % ALL_FUNCTIONS.len()],
        ));

        // Featured expression form (13 variants).
        if spotlight % 13 != 9 {
            let expr = self.featured_expression(rng, spotlight, dim);
            query.pattern.push_filter(expr);
        }

        // A comparison and an arithmetic showcase so the operator tables
        // fill quickly: FILTER(?v <op> (?v <arith> 1) …) stays true-ish.
        let arith_op = ALL_ARITH_OPS[spotlight % ALL_ARITH_OPS.len()];
        let cmp_op = ALL_CMP_OPS[spotlight % ALL_CMP_OPS.len()];
        query.pattern.elements.push(sparql::testutil::bind(
            sparql::testutil::arith(
                Expression::var("v"),
                arith_op,
                constant(Literal::integer(2)),
            ),
            "calc",
        ));
        query.pattern.push_filter(Expression::Or(
            Box::new(cmp(
                Expression::var("v"),
                cmp_op,
                constant(Literal::integer(rng.gen_range(-50..=50i64))),
            )),
            Box::new(cmp(Expression::var("v"), CmpOp::Le, Expression::var("v"))),
        ));

        // Solution modifiers; aggregated shape on even spotlights
        // (featured-expression 9 — Aggregate — always aggregates).
        if spotlight.is_multiple_of(2) || spotlight % 13 == 9 {
            let function = ALL_AGGREGATES[spotlight % ALL_AGGREGATES.len()];
            let agg = AggregateExpr {
                function,
                distinct: spotlight.is_multiple_of(4),
                expr: match function {
                    AggregateFunction::Count if spotlight.is_multiple_of(3) => None, // COUNT(*)
                    AggregateFunction::GroupConcat => {
                        Some(Box::new(call(Function::Str, vec![Expression::var("v")])))
                    }
                    _ => Some(Box::new(Expression::var("v"))),
                },
            };
            query.projection = Projection::Items(vec![
                SelectItem::Var(Variable::new("mem")),
                SelectItem::Expr {
                    expr: Expression::Aggregate(agg),
                    alias: Variable::new("a"),
                },
            ]);
            query.group_by = vec![Expression::var("mem")];
            if spotlight.is_multiple_of(3) {
                query.having = vec![cmp(
                    Expression::Aggregate(AggregateExpr {
                        function: AggregateFunction::Count,
                        distinct: false,
                        expr: Some(Box::new(Expression::var("v"))),
                    }),
                    CmpOp::Ge,
                    constant(Literal::integer(0)),
                )];
            }
            query.order_by = vec![OrderCondition {
                expr: Expression::var("mem"),
                descending: spotlight.is_multiple_of(8),
            }];
        } else {
            if spotlight % 6 == 1 {
                query.distinct = true;
            }
            if spotlight % 5 == 1 {
                query.projection = Projection::Items(vec![
                    SelectItem::Var(Variable::new("obs")),
                    SelectItem::Var(Variable::new("mem")),
                    SelectItem::Expr {
                        expr: sparql::testutil::arith(
                            Expression::var("v"),
                            ArithOp::Add,
                            constant(Literal::integer(1)),
                        ),
                        alias: Variable::new("vplus"),
                    },
                ]);
            }
            query.order_by = vec![
                OrderCondition {
                    expr: Expression::var("obs"),
                    descending: false,
                },
                OrderCondition {
                    expr: Expression::var("v"),
                    descending: spotlight % 8 == 3,
                },
            ];
        }
        if spotlight.is_multiple_of(5) {
            query.limit = Some(1 + spotlight % 40);
        }
        if spotlight.is_multiple_of(10) {
            query.offset = Some(spotlight % 7);
        }
        query
    }

    /// One of the nine [`PatternElement`] variants, spotlight-indexed.
    /// The well-formed core: dataset observations with one member of the
    /// spotlight's dimension (`?mem`) and one measure value (`?v`).
    fn core(&self, spotlight: usize) -> SelectQuery {
        let mut query = SelectQuery::new();
        let dim = &self.universe.dimensions[spotlight % self.universe.dimensions.len()];
        let bottom = &dim.levels[0];
        let (measure, _) = &self.universe.measures[spotlight % self.universe.measures.len()];
        query.pattern.push_triple(TriplePattern::new(
            Variable::new("obs"),
            qb::data_set(),
            Term::Iri(self.universe.dataset.clone()),
        ));
        query.pattern.push_triple(TriplePattern::new(
            Variable::new("obs"),
            bottom.level.clone(),
            Variable::new("mem"),
        ));
        query.pattern.push_triple(TriplePattern::new(
            Variable::new("obs"),
            measure.clone(),
            Variable::new("v"),
        ));
        query
    }

    /// The Enrichment phase's member list over the core,
    /// `SELECT DISTINCT ?mem … ORDER BY ?mem`, varied by `spotlight`: `?v` as a second key, a descending key, a FILTER on
    /// `?v` (existential where `?mem` is the only key), LIMIT and OFFSET.
    /// It draws nothing from a random stream, so running it beside each
    /// generated query leaves the generated queries as they were.
    pub fn member_list(&self, spotlight: usize) -> SelectQuery {
        let mut query = self.core(spotlight);
        let keys: &[&str] = match spotlight % 2 {
            0 => &["mem"],
            _ => &["v", "mem"],
        };
        if spotlight.is_multiple_of(3) {
            let bound = (spotlight % 7) as i64 - 3;
            query.pattern.push_filter(cmp(
                Expression::var("v"),
                CmpOp::Gt,
                constant(Literal::integer(bound)),
            ));
        }
        query.distinct = true;
        query.projection = Projection::Items(
            keys.iter()
                .rev()
                .map(|key| SelectItem::Var(Variable::new(*key)))
                .collect(),
        );
        query.order_by = keys
            .iter()
            .map(|key| OrderCondition {
                expr: Expression::var(*key),
                descending: *key == "mem" && (spotlight / 2) % 2 == 1,
            })
            .collect();
        match spotlight % 5 {
            1 => query.limit = Some(2),
            2 => query.offset = Some(1),
            3 => (query.offset, query.limit) = (Some(1), Some(3)),
            _ => {}
        }
        query
    }

    fn featured_element(
        &self,
        rng: &mut StdRng,
        spotlight: usize,
        dim: &crate::universe::DimensionInfo,
    ) -> PatternElement {
        let bottom = &dim.levels[0];
        let sample_member = |rng: &mut StdRng| -> Term {
            bottom.members[rng.gen_range(0..bottom.members.len())].clone()
        };
        match spotlight % 9 {
            0 => PatternElement::Triple(TriplePattern::new(
                Variable::new("mem"),
                qb4o::member_of(),
                Term::Iri(bottom.level.clone()),
            )),
            1 => PatternElement::Filter(cmp(
                call(Function::Str, vec![Expression::var("mem")]),
                CmpOp::Ne,
                constant(Literal::string("")),
            )),
            2 => PatternElement::Optional(group(vec![PatternElement::Triple(TriplePattern::new(
                Variable::new("mem"),
                skos::broader(),
                Variable::new("parent"),
            ))])),
            3 => {
                let other =
                    &self.universe.dimensions[(spotlight / 9 + 1) % self.universe.dimensions.len()];
                PatternElement::Union(
                    group(vec![PatternElement::Triple(TriplePattern::new(
                        Variable::new("obs"),
                        bottom.level.clone(),
                        Variable::new("u"),
                    ))]),
                    group(vec![PatternElement::Triple(TriplePattern::new(
                        Variable::new("obs"),
                        other.levels[0].level.clone(),
                        Variable::new("u"),
                    ))]),
                )
            }
            4 => PatternElement::Minus(group(vec![PatternElement::Triple(TriplePattern::new(
                Variable::new("obs"),
                bottom.level.clone(),
                sample_member(rng),
            ))])),
            5 => {
                sparql::testutil::bind(call(Function::Str, vec![Expression::var("mem")]), "memstr")
            }
            6 => {
                let rows = vec![
                    vec![Some(sample_member(rng))],
                    vec![Some(sample_member(rng))],
                    vec![None], // UNDEF
                ];
                PatternElement::Values {
                    vars: vec![Variable::new("mem")],
                    rows,
                }
            }
            7 => {
                let mut sub = SelectQuery::new();
                sub.projection = Projection::Items(vec![SelectItem::Var(Variable::new("obs"))]);
                sub.pattern.push_triple(TriplePattern::new(
                    Variable::new("obs"),
                    qb::data_set(),
                    Term::Iri(self.universe.dataset.clone()),
                ));
                PatternElement::SubSelect(Box::new(sub))
            }
            _ => PatternElement::Group(group(vec![PatternElement::Triple(TriplePattern::new(
                Variable::new("mem"),
                qb4o::member_of(),
                Term::Iri(bottom.level.clone()),
            ))])),
        }
    }

    /// One of the thirteen [`Expression`] variants as a filter expression.
    /// Variant 9 (`Aggregate`) is handled by the caller via the projection.
    fn featured_expression(
        &self,
        rng: &mut StdRng,
        spotlight: usize,
        dim: &crate::universe::DimensionInfo,
    ) -> Expression {
        let bottom = &dim.levels[0];
        let member = bottom.members[rng.gen_range(0..bottom.members.len())].clone();
        match spotlight % 13 {
            0 => cmp(Expression::var("v"), CmpOp::Le, Expression::var("v")),
            1 => cmp(
                constant(Literal::integer(1)),
                CmpOp::Le,
                constant(Literal::integer(2)),
            ),
            2 => Expression::Not(Box::new(cmp(
                Expression::var("v"),
                CmpOp::Gt,
                Expression::var("v"),
            ))),
            3 => Expression::And(
                Box::new(cmp(Expression::var("v"), CmpOp::Le, Expression::var("v"))),
                Box::new(call(Function::Bound, vec![Expression::var("mem")])),
            ),
            4 => Expression::Or(
                Box::new(cmp(
                    Expression::var("v"),
                    CmpOp::Gt,
                    constant(Literal::integer(0)),
                )),
                Box::new(cmp(
                    Expression::var("v"),
                    CmpOp::Le,
                    constant(Literal::integer(0)),
                )),
            ),
            5 => cmp(
                Expression::var("v"),
                ALL_CMP_OPS[(spotlight / 13) % ALL_CMP_OPS.len()],
                constant(Literal::integer(rng.gen_range(-20..=20i64))),
            ),
            6 => cmp(
                sparql::testutil::arith(
                    Expression::var("v"),
                    ALL_ARITH_OPS[(spotlight / 13) % ALL_ARITH_OPS.len()],
                    constant(Literal::integer(3)),
                ),
                CmpOp::Ge,
                Expression::var("v"),
            ),
            7 => cmp(
                Expression::Neg(Box::new(Expression::var("v"))),
                CmpOp::Le,
                constant(Literal::integer(i64::MAX)),
            ),
            8 => call(
                Function::Contains,
                vec![
                    call(Function::Str, vec![Expression::var("mem")]),
                    constant(Literal::string("member")),
                ],
            ),
            9 => unreachable!("Aggregate is staged via the projection"),
            10 => Expression::In(
                Box::new(Expression::var("mem")),
                vec![
                    constant(member),
                    constant(Term::iri("http://qlsmith.example/nonexistent")),
                ],
            ),
            11 => Expression::Exists(Box::new(group(vec![PatternElement::Triple(
                TriplePattern::new(
                    Variable::new("mem"),
                    qb4o::member_of(),
                    Term::Iri(bottom.level.clone()),
                ),
            )]))),
            _ => Expression::NotExists(Box::new(group(vec![PatternElement::Triple(
                TriplePattern::new(
                    Variable::new("mem"),
                    skos::broader(),
                    Variable::new("ghost"),
                ),
            )]))),
        }
    }
}

/// A boolean filter expression exercising `function`, with the right arity
/// and argument types. The `match` is wildcard-free: a new built-in cannot
/// be added to the AST without teaching the fuzzer how to call it.
fn function_showcase(function: Function) -> Expression {
    let mem_str = || call(Function::Str, vec![Expression::var("mem")]);
    match function {
        Function::Str => cmp(mem_str(), CmpOp::Ne, constant(Literal::string(""))),
        Function::Lang => cmp(
            call(Function::Lang, vec![Expression::var("v")]),
            CmpOp::Eq,
            constant(Literal::string("")),
        ),
        Function::Datatype => cmp(
            call(Function::Datatype, vec![Expression::var("mem")]),
            CmpOp::Ne,
            constant(Term::Iri(xsd::string())),
        ),
        Function::Bound => call(Function::Bound, vec![Expression::var("v")]),
        Function::IsIri => call(Function::IsIri, vec![Expression::var("mem")]),
        Function::IsLiteral => Expression::Not(Box::new(call(
            Function::IsLiteral,
            vec![Expression::var("mem")],
        ))),
        Function::IsBlank => Expression::Not(Box::new(call(
            Function::IsBlank,
            vec![Expression::var("mem")],
        ))),
        Function::Regex => call(
            Function::Regex,
            vec![mem_str(), constant(Literal::string("member"))],
        ),
        Function::Contains => call(
            Function::Contains,
            vec![mem_str(), constant(Literal::string("qlsmith"))],
        ),
        Function::StrStarts => call(
            Function::StrStarts,
            vec![mem_str(), constant(Literal::string("http"))],
        ),
        Function::StrEnds => Expression::Not(Box::new(call(
            Function::StrEnds,
            vec![mem_str(), constant(Literal::string("zzz"))],
        ))),
        Function::UCase => cmp(
            call(Function::UCase, vec![mem_str()]),
            CmpOp::Ne,
            constant(Literal::string("")),
        ),
        Function::LCase => cmp(
            call(Function::LCase, vec![mem_str()]),
            CmpOp::Ne,
            constant(Literal::string("")),
        ),
        Function::StrLen => cmp(
            call(Function::StrLen, vec![mem_str()]),
            CmpOp::Gt,
            constant(Literal::integer(0)),
        ),
        Function::Concat => cmp(
            call(
                Function::Concat,
                vec![mem_str(), constant(Literal::string("-x"))],
            ),
            CmpOp::Ne,
            constant(Literal::string("-x")),
        ),
        Function::Abs => cmp(
            call(Function::Abs, vec![Expression::var("v")]),
            CmpOp::Ge,
            constant(Literal::integer(0)),
        ),
        Function::Year => cmp(
            call(Function::Year, vec![Expression::var("v")]),
            CmpOp::Ge,
            constant(Literal::integer(0)),
        ),
        Function::Month => cmp(
            call(Function::Month, vec![Expression::var("v")]),
            CmpOp::Ge,
            constant(Literal::integer(0)),
        ),
        Function::If => cmp(
            call(
                Function::If,
                vec![
                    cmp(
                        Expression::var("v"),
                        CmpOp::Ge,
                        constant(Literal::integer(0)),
                    ),
                    constant(Literal::integer(1)),
                    constant(Literal::integer(2)),
                ],
            ),
            CmpOp::Ge,
            constant(Literal::integer(1)),
        ),
        Function::Coalesce => cmp(
            call(
                Function::Coalesce,
                vec![Expression::var("v"), constant(Literal::integer(0))],
            ),
            CmpOp::Le,
            Expression::var("v"),
        ),
        Function::Iri => cmp(
            call(Function::Iri, vec![mem_str()]),
            CmpOp::Eq,
            Expression::var("mem"),
        ),
        Function::SameTerm => call(
            Function::SameTerm,
            vec![Expression::var("mem"), Expression::var("mem")],
        ),
    }
}

/// The fixed-name SELECT grammar productions (pattern elements, expression
/// kinds, query-level clauses); operator and function productions are
/// enumerated from the `sparql::testutil` tables.
const SELECT_PRODUCTIONS: [&str; 33] = [
    "PatternElement::Triple",
    "PatternElement::Filter",
    "PatternElement::Optional",
    "PatternElement::Union",
    "PatternElement::Minus",
    "PatternElement::Bind",
    "PatternElement::Values",
    "PatternElement::SubSelect",
    "PatternElement::Group",
    "Expression::Var",
    "Expression::Constant",
    "Expression::Not",
    "Expression::And",
    "Expression::Or",
    "Expression::Compare",
    "Expression::Arithmetic",
    "Expression::Neg",
    "Expression::Call",
    "Expression::Aggregate",
    "Expression::In",
    "Expression::Exists",
    "Expression::NotExists",
    "Projection::Wildcard",
    "Projection::Items",
    "SelectItem::Expr",
    "DISTINCT",
    "GROUP BY",
    "HAVING",
    "ORDER BY",
    "ORDER BY … DESC",
    "LIMIT",
    "OFFSET",
    MEMBER_LIST,
];

/// The member-list shape, which may stop at the first witness per answer
/// ([`has_first_witness_shape`]).
const MEMBER_LIST: &str = "SELECT DISTINCT … ORDER BY its projection";

/// Every SELECT grammar production the generator must reach, by display
/// name.
pub fn all_select_productions() -> Vec<String> {
    let mut out: Vec<String> = SELECT_PRODUCTIONS.iter().map(|s| s.to_string()).collect();
    out.extend(
        ALL_FUNCTIONS
            .iter()
            .map(|f| format!("Function::{}", f.as_str())),
    );
    out.extend(
        ALL_AGGREGATES
            .iter()
            .map(|a| format!("Aggregate::{}", a.as_str())),
    );
    out.extend((0..ALL_CMP_OPS.len()).map(|i| format!("CmpOp#{i}")));
    out.extend((0..ALL_ARITH_OPS.len()).map(|i| format!("ArithOp#{i}")));
    out
}

/// Coverage recorder over the whole SELECT grammar: one counter per
/// production (`fuzz.sparql.production.*` in an [`obs::MetricsRegistry`]),
/// incremented by wildcard-free matches. [`SparqlCoverage::missing`] reads
/// a metrics snapshot, the same per-production hit counts the campaign's
/// end-of-run gate and any external dashboard see.
#[derive(Debug, Clone)]
pub struct SparqlCoverage {
    registry: std::sync::Arc<obs::MetricsRegistry>,
}

impl Default for SparqlCoverage {
    fn default() -> Self {
        SparqlCoverage::new(std::sync::Arc::new(obs::MetricsRegistry::default()))
    }
}

impl SparqlCoverage {
    /// The counter-name prefix of every SELECT production counter.
    pub const PREFIX: &'static str = "fuzz.sparql.production.";

    /// A recorder whose counters live in `registry` (share one to merge
    /// coverage across campaign shards).
    pub fn new(registry: std::sync::Arc<obs::MetricsRegistry>) -> Self {
        SparqlCoverage { registry }
    }

    /// The registry backing the per-production counters.
    pub fn registry(&self) -> &std::sync::Arc<obs::MetricsRegistry> {
        &self.registry
    }

    /// A point-in-time snapshot of the per-production hit counts.
    pub fn snapshot(&self) -> obs::MetricsSnapshot {
        self.registry.snapshot()
    }

    fn hit(&mut self, production: &str) {
        self.registry
            .counter(&crate::production_metric_key(Self::PREFIX, production))
            .inc();
    }

    /// Records every production a query exercises.
    pub fn record(&mut self, query: &SelectQuery) {
        if query.distinct {
            self.hit("DISTINCT");
        }
        if has_first_witness_shape(query) {
            self.hit(MEMBER_LIST);
        }
        match &query.projection {
            Projection::Wildcard => self.hit("Projection::Wildcard"),
            Projection::Items(items) => {
                self.hit("Projection::Items");
                for item in items {
                    match item {
                        SelectItem::Var(_) => {}
                        SelectItem::Expr { expr, .. } => {
                            self.hit("SelectItem::Expr");
                            self.record_expression(expr);
                        }
                    }
                }
            }
        }
        self.record_pattern(&query.pattern);
        if !query.group_by.is_empty() {
            self.hit("GROUP BY");
            for expr in &query.group_by {
                self.record_expression(expr);
            }
        }
        if !query.having.is_empty() {
            self.hit("HAVING");
            for expr in &query.having {
                self.record_expression(expr);
            }
        }
        if !query.order_by.is_empty() {
            self.hit("ORDER BY");
            for cond in &query.order_by {
                if cond.descending {
                    self.hit("ORDER BY … DESC");
                }
                self.record_expression(&cond.expr);
            }
        }
        if query.limit.is_some() {
            self.hit("LIMIT");
        }
        if query.offset.is_some() {
            self.hit("OFFSET");
        }
    }

    fn record_pattern(&mut self, pattern: &GroupGraphPattern) {
        for element in &pattern.elements {
            match element {
                PatternElement::Triple(_) => self.hit("PatternElement::Triple"),
                PatternElement::Filter(expr) => {
                    self.hit("PatternElement::Filter");
                    self.record_expression(expr);
                }
                PatternElement::Optional(g) => {
                    self.hit("PatternElement::Optional");
                    self.record_pattern(g);
                }
                PatternElement::Union(a, b) => {
                    self.hit("PatternElement::Union");
                    self.record_pattern(a);
                    self.record_pattern(b);
                }
                PatternElement::Minus(g) => {
                    self.hit("PatternElement::Minus");
                    self.record_pattern(g);
                }
                PatternElement::Bind { expr, .. } => {
                    self.hit("PatternElement::Bind");
                    self.record_expression(expr);
                }
                PatternElement::Values { .. } => self.hit("PatternElement::Values"),
                PatternElement::SubSelect(sub) => {
                    self.hit("PatternElement::SubSelect");
                    self.record(sub);
                }
                PatternElement::Group(g) => {
                    self.hit("PatternElement::Group");
                    self.record_pattern(g);
                }
            }
        }
    }

    fn record_expression(&mut self, expr: &Expression) {
        match expr {
            Expression::Var(_) => self.hit("Expression::Var"),
            Expression::Constant(_) => self.hit("Expression::Constant"),
            Expression::Not(inner) => {
                self.hit("Expression::Not");
                self.record_expression(inner);
            }
            Expression::And(a, b) => {
                self.hit("Expression::And");
                self.record_expression(a);
                self.record_expression(b);
            }
            Expression::Or(a, b) => {
                self.hit("Expression::Or");
                self.record_expression(a);
                self.record_expression(b);
            }
            Expression::Compare(a, op, b) => {
                self.hit("Expression::Compare");
                self.hit(&format!("CmpOp#{}", cmp_op_index(*op)));
                self.record_expression(a);
                self.record_expression(b);
            }
            Expression::Arithmetic(a, op, b) => {
                self.hit("Expression::Arithmetic");
                self.hit(&format!("ArithOp#{}", arith_op_index(*op)));
                self.record_expression(a);
                self.record_expression(b);
            }
            Expression::Neg(inner) => {
                self.hit("Expression::Neg");
                self.record_expression(inner);
            }
            Expression::Call(function, args) => {
                self.hit("Expression::Call");
                self.hit(&format!("Function::{}", function.as_str()));
                for arg in args {
                    self.record_expression(arg);
                }
            }
            Expression::Aggregate(agg) => {
                self.hit("Expression::Aggregate");
                self.hit(&format!("Aggregate::{}", agg.function.as_str()));
                if let Some(inner) = &agg.expr {
                    self.record_expression(inner);
                }
            }
            Expression::In(subject, list) => {
                self.hit("Expression::In");
                self.record_expression(subject);
                for item in list {
                    self.record_expression(item);
                }
            }
            Expression::Exists(g) => {
                self.hit("Expression::Exists");
                self.record_pattern(g);
            }
            Expression::NotExists(g) => {
                self.hit("Expression::NotExists");
                self.record_pattern(g);
            }
        }
    }

    /// The productions not yet exercised — the campaign asserts this is
    /// empty.
    pub fn missing(&self) -> Vec<String> {
        Self::missing_in(&self.snapshot())
    }

    /// The productions whose counters are zero in `snapshot` — how the
    /// campaign's end-of-run gate reads the recorder.
    pub fn missing_in(snapshot: &obs::MetricsSnapshot) -> Vec<String> {
        all_select_productions()
            .into_iter()
            .filter(|production| {
                snapshot.counter(&crate::production_metric_key(Self::PREFIX, production)) == 0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::check_select;
    use crate::fixture::fuzz_cube;
    use rand::SeedableRng;

    #[test]
    fn generated_queries_cover_the_select_grammar() {
        let cube = fuzz_cube();
        let universe = SchemaUniverse::from_endpoint(&cube.endpoint, &cube.schema).unwrap();
        let generator = SparqlGenerator::new(&universe);
        let mut rng = StdRng::seed_from_u64(0x5E1ECF);
        let mut coverage = SparqlCoverage::default();
        for spotlight in 0..300 {
            coverage.record(&generator.generate(&mut rng, spotlight));
            coverage.record(&generator.member_list(spotlight));
        }
        assert_eq!(coverage.missing(), Vec::<String>::new());
    }

    #[test]
    fn both_endpoint_paths_agree_on_generated_queries() {
        let cube = fuzz_cube();
        let universe = SchemaUniverse::from_endpoint(&cube.endpoint, &cube.schema).unwrap();
        let generator = SparqlGenerator::new(&universe);
        let mut rng = StdRng::seed_from_u64(0xACC0);
        for spotlight in 0..60 {
            let query = generator.generate(&mut rng, spotlight);
            let mismatch = check_select(&cube.endpoint, &query);
            assert!(mismatch.is_none(), "paths disagree: {mismatch:?}");
        }
    }

    /// Every member list agrees on both paths and with the identity plan,
    /// and on this one-dataset cube the single-key ones stop at the first
    /// witness: fewer index probes than the identity plan's full join.
    #[test]
    fn member_lists_agree_and_stop_at_the_first_witness() {
        let cube = fuzz_cube();
        let universe = SchemaUniverse::from_endpoint(&cube.endpoint, &cube.schema).unwrap();
        let generator = SparqlGenerator::new(&universe);
        let probes = |evaluate: &dyn Fn()| {
            let before = sparql::EvalCounters::thread_totals();
            evaluate();
            sparql::EvalCounters::thread_totals()
                .since(before)
                .index_probes
        };
        for spotlight in 0..60 {
            let query = generator.member_list(spotlight);
            assert!(has_first_witness_shape(&query), "{spotlight}");
            let mismatch = check_select(&cube.endpoint, &query);
            assert!(mismatch.is_none(), "paths disagree: {mismatch:?}");
            let query = sparql::ast::Query::Select(query);
            let planned = probes(&|| drop(sparql::Endpoint::select_parsed(&cube.endpoint, &query)));
            let textual = probes(&|| {
                drop(crate::diff::evaluate_on(
                    &cube.endpoint,
                    &query,
                    sparql::testutil::evaluate_textual,
                ))
            });
            if spotlight.is_multiple_of(2) {
                assert!(planned < textual, "{spotlight}: {planned} vs {textual}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let cube = fuzz_cube();
        let universe = SchemaUniverse::from_endpoint(&cube.endpoint, &cube.schema).unwrap();
        let generator = SparqlGenerator::new(&universe);
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for spotlight in 0..25 {
            assert_eq!(
                generator.generate(&mut a, spotlight),
                generator.generate(&mut b, spotlight)
            );
        }
    }
}

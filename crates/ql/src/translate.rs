//! The Query Translation phase (Section III-B): a simplified
//! [`QueryPipeline`] is lowered, guided by the QB4OLAP metadata, into one
//! typed cube plan — the [`TranslationOutput`] — that both execution
//! backends run. [`translate`] does every check; rendering cannot fail.
//!
//! * The columnar backend executes the plan's [`CubeQuery`] as it is.
//! * The SPARQL backend renders the plan, on demand, into one of the two
//!   semantically equivalent SELECT queries of the paper:
//!   * the **direct** translation joins the observations with the roll-up
//!     paths (`skos:broader` navigation anchored with `qb4o:memberOf`),
//!     attaches dice attributes to the grouped members and filters them
//!     with `FILTER`, aggregates with `GROUP BY` + the measure's
//!     `qb4o:aggregateFunction`, and turns measure dices into `HAVING`;
//!   * the **alternative** translation applies "optimization heuristics
//!     thought to deal with some of the typical limitations of SPARQL
//!     endpoints": an attribute dice on one dimension is evaluated first,
//!     in a nested sub-SELECT that pre-selects the qualifying level
//!     members, so the observation join only touches the restricted
//!     members. A dice spanning several dimensions stays inline, as in
//!     the direct translation.

use std::collections::BTreeSet;

use cubestore::{CubeQuery, MeasureFilter, MemberFilter, MemberPredicate};
use qb4olap::{AggregateFunction, CubeSchema};
use rdf::vocab::{qb as qbv, qb4o, skos};
use rdf::{Iri, Literal, PrefixMap, Term};
use sparql::ast::{
    AggregateExpr, AggregateFunction as SparqlAgg, CmpOp, Expression, GroupGraphPattern,
    OrderCondition, PatternElement, Projection, SelectItem, SelectQuery, TriplePattern, VarOrTerm,
    Variable,
};

use crate::ast::{DiceCondition, DiceOp, DiceOperand, DiceValue};
use crate::cube::CubeAxis;
use crate::error::QlError;
use crate::pipeline::QueryPipeline;

/// The output of the translation phase: the cube plan both backends run.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslationOutput {
    /// What the columnar backend executes: the slices, the roll-ups, and
    /// the dices as member (pre-aggregation) and measure (`HAVING`)
    /// filters.
    pub(crate) query: CubeQuery,
    /// The axes of the result cube (dimension, level, output variable).
    pub axes: Vec<CubeAxis>,
    /// The measures of the result cube: `(property, output variable)`.
    pub measures: Vec<(Iri, String)>,
    dataset: Iri,
    /// Per axis: the bottom level property the observations join on, and
    /// the variables of its roll-up path, bottom first, ending with the
    /// axis variable.
    paths: Vec<(Iri, Vec<String>)>,
    /// Per measure: its aggregate function. Its raw variable is
    /// `?m<index>`.
    aggregates: Vec<AggregateFunction>,
}

/// Which of the two generated SPARQL queries to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SparqlVariant {
    /// The direct translation.
    #[default]
    Direct,
    /// The alternative translation with early member restriction.
    Alternative,
}

/// Translates a simplified pipeline into the cube plan.
pub fn translate(
    pipeline: &QueryPipeline,
    schema: &CubeSchema,
) -> Result<TranslationOutput, QlError> {
    let mut names = Names::default();
    let mut axes = Vec::new();
    let mut paths = Vec::new();
    for dimension in &schema.dimensions {
        if pipeline.slices.contains(&dimension.iri) {
            continue;
        }
        let bottom = schema
            .bottom_level_of_dimension(&dimension.iri)
            .ok_or_else(|| {
                QlError::Validation(format!(
                    "dimension <{}> has no bottom level",
                    dimension.iri.as_str()
                ))
            })?;
        let target = pipeline
            .rollups
            .get(&dimension.iri)
            .cloned()
            .unwrap_or_else(|| bottom.clone());
        let mut variables = vec![names.fresh(bottom.local_name())];
        if target != bottom {
            let (_, steps) = dimension.rollup_path(&bottom, &target).ok_or_else(|| {
                QlError::Validation(format!(
                    "no roll-up path from <{}> to <{}> in dimension <{}>",
                    bottom.as_str(),
                    target.as_str(),
                    dimension.iri.as_str()
                ))
            })?;
            for step in &steps {
                variables.push(names.fresh(step.parent.local_name()));
            }
        }
        axes.push(CubeAxis {
            dimension: dimension.iri.clone(),
            level: target,
            variable: variables.last().expect("the bottom variable").clone(),
        });
        paths.push((bottom, variables));
    }
    let measures: Vec<(Iri, String)> = schema
        .measures
        .iter()
        .map(|measure| {
            let output = names.fresh(measure.property.local_name());
            (measure.property.clone(), output)
        })
        .collect();

    let (member_dices, measure_dices) = pipeline.partition_dices()?;
    let query = CubeQuery {
        slices: pipeline.slices.clone(),
        rollups: pipeline.rollups.clone(),
        member_filters: member_dices
            .into_iter()
            .map(|dice| member_filter(dice, &axes))
            .collect::<Result<_, _>>()?,
        measure_filters: measure_dices
            .into_iter()
            .map(|dice| measure_filter(dice, &measures))
            .collect::<Result<_, _>>()?,
    };
    Ok(TranslationOutput {
        query,
        axes,
        measures,
        dataset: pipeline.dataset.clone(),
        paths,
        aggregates: schema.measures.iter().map(|m| m.aggregate).collect(),
    })
}

/// Lowers an attribute dice, checking that every comparison targets a
/// kept dimension at its result level.
fn member_filter(condition: &DiceCondition, axes: &[CubeAxis]) -> Result<MemberFilter, QlError> {
    match condition {
        DiceCondition::And(a, b) => Ok(MemberFilter::And(
            Box::new(member_filter(a, axes)?),
            Box::new(member_filter(b, axes)?),
        )),
        DiceCondition::Or(a, b) => Ok(MemberFilter::Or(
            Box::new(member_filter(a, axes)?),
            Box::new(member_filter(b, axes)?),
        )),
        DiceCondition::Comparison { operand, op, value } => match operand {
            DiceOperand::Attribute {
                dimension,
                level,
                attribute,
            } => {
                if !axes
                    .iter()
                    .any(|a| &a.dimension == dimension && &a.level == level)
                {
                    return Err(QlError::Validation(format!(
                        "the dice on dimension <{}> refers to level <{}>, which is not the level of that dimension in the result",
                        dimension.as_str(),
                        level.as_str()
                    )));
                }
                // String dices compare `STR(?attr)`; numbers and IRIs
                // compare the raw term.
                let op = to_sparql_cmp(*op);
                let predicate = match value {
                    DiceValue::String(s) => MemberPredicate::Str {
                        op,
                        value: s.clone(),
                    },
                    DiceValue::Number(_) | DiceValue::Iri(_) => MemberPredicate::Constant {
                        op,
                        value: constant_term(value),
                    },
                };
                Ok(MemberFilter::Compare {
                    dimension: dimension.clone(),
                    level: level.clone(),
                    attribute: attribute.clone(),
                    predicate,
                })
            }
            DiceOperand::Measure(_) => Err(QlError::Validation(
                "measure comparisons cannot appear inside attribute dice conditions".to_string(),
            )),
        },
    }
}

/// Lowers a measure dice, checking that every measure is the cube's.
fn measure_filter(
    condition: &DiceCondition,
    measures: &[(Iri, String)],
) -> Result<MeasureFilter, QlError> {
    match condition {
        DiceCondition::And(a, b) => Ok(MeasureFilter::And(
            Box::new(measure_filter(a, measures)?),
            Box::new(measure_filter(b, measures)?),
        )),
        DiceCondition::Or(a, b) => Ok(MeasureFilter::Or(
            Box::new(measure_filter(a, measures)?),
            Box::new(measure_filter(b, measures)?),
        )),
        DiceCondition::Comparison { operand, op, value } => match operand {
            DiceOperand::Measure(property) => {
                if !measures.iter().any(|(p, _)| p == property) {
                    return Err(QlError::Validation(format!(
                        "unknown measure <{}>",
                        property.as_str()
                    )));
                }
                Ok(MeasureFilter::Compare {
                    measure: property.clone(),
                    op: to_sparql_cmp(*op),
                    value: constant_term(value),
                })
            }
            DiceOperand::Attribute { .. } => Err(QlError::Validation(
                "attribute comparisons cannot appear inside measure dice conditions".to_string(),
            )),
        },
    }
}

/// The constant term a QL dice value compares against, on both backends.
/// An integral number is an `xsd:integer` only inside the `i64` range
/// (−2⁶³ ≤ n < 2⁶³); any other number is the `xsd:decimal` of its exact
/// value.
fn constant_term(value: &DiceValue) -> Term {
    match value {
        DiceValue::Number(n) => {
            let i64_range = i64::MIN as f64..-(i64::MIN as f64);
            Term::Literal(if n.fract() == 0.0 && i64_range.contains(n) {
                Literal::integer(*n as i64)
            } else {
                Literal::decimal(*n)
            })
        }
        DiceValue::String(s) => Term::Literal(Literal::string(s)),
        DiceValue::Iri(iri) => Term::Iri(iri.clone()),
    }
}

/// SPARQL variable names handed out so far.
#[derive(Default)]
struct Names(BTreeSet<String>);

impl Names {
    /// `base` with every non-alphanumeric replaced by `_`, numbered from 2
    /// when already taken.
    fn fresh(&mut self, base: &str) -> String {
        let sanitized: String = base
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let sanitized = if sanitized.is_empty() {
            "v".to_string()
        } else {
            sanitized
        };
        let mut name = sanitized.clone();
        let mut counter = 1;
        while !self.0.insert(name.clone()) {
            counter += 1;
            name = format!("{sanitized}{counter}");
        }
        name
    }
}

impl TranslationOutput {
    /// The direct translation as SPARQL text.
    pub fn direct_sparql(&self) -> String {
        sparql::select_to_string(&self.select(false))
    }

    /// The alternative translation as SPARQL text.
    pub fn alternative_sparql(&self) -> String {
        sparql::select_to_string(&self.select(true))
    }

    /// Renders the plan as the direct or the alternative SELECT.
    fn select(&self, alternative: bool) -> SelectQuery {
        let mut names = Names(
            self.paths
                .iter()
                .flat_map(|(_, variables)| variables.iter().cloned())
                .chain(self.measures.iter().map(|(_, output)| output.clone()))
                .collect(),
        );
        // The alternative variant numbers its attribute variables after
        // the direct variant's (`?continentName2`).
        if alternative {
            for filter in &self.query.member_filters {
                self.member_expression(filter, &mut names, &mut Vec::new());
            }
        }

        // Attribute dices: in the alternative variant, a dice on a single
        // dimension pre-restricts that dimension's members in a nested
        // sub-select placed before the observation join; every other dice
        // joins the attributes and filters after it.
        let mut pattern = GroupGraphPattern::new();
        let mut inline = Vec::new();
        for filter in &self.query.member_filters {
            let mut triples = Vec::new();
            let expression = self.member_expression(filter, &mut names, &mut triples);
            match single_dimension(filter).filter(|_| alternative) {
                Some(dimension) => {
                    let axis = self.axis(dimension);
                    let mut sub = SelectQuery::new();
                    sub.prefixes = PrefixMap::with_common_prefixes();
                    sub.projection = Projection::Items(vec![SelectItem::Var(Variable::new(
                        axis.variable.clone(),
                    ))]);
                    sub.distinct = true;
                    sub.pattern.push_triple(TriplePattern::new(
                        VarOrTerm::var(axis.variable.clone()),
                        qb4o::member_of(),
                        VarOrTerm::Term(Term::Iri(axis.level.clone())),
                    ));
                    for triple in triples {
                        sub.pattern.push_triple(triple);
                    }
                    sub.pattern.push_filter(expression);
                    pattern
                        .elements
                        .push(PatternElement::SubSelect(Box::new(sub)));
                }
                None => inline.push((triples, expression)),
            }
        }

        // Observation skeleton.
        let obs = || VarOrTerm::var("o");
        pattern.push_triple(TriplePattern::new(
            obs(),
            rdf::vocab::rdf::type_(),
            qbv::observation(),
        ));
        pattern.push_triple(TriplePattern::new(
            obs(),
            qbv::data_set(),
            VarOrTerm::Term(Term::Iri(self.dataset.clone())),
        ));

        // Dimension joins and roll-up navigation.
        for ((bottom_property, variables), axis) in self.paths.iter().zip(&self.axes) {
            pattern.push_triple(TriplePattern::new(
                obs(),
                bottom_property.clone(),
                VarOrTerm::var(variables[0].clone()),
            ));
            for step in variables.windows(2) {
                pattern.push_triple(TriplePattern::new(
                    VarOrTerm::var(step[0].clone()),
                    skos::broader(),
                    VarOrTerm::var(step[1].clone()),
                ));
            }
            // Anchor the member carried by the axis variable at its level,
            // "guided by the dimension hierarchy representation provided by
            // the QB4OLAP metadata".
            pattern.push_triple(TriplePattern::new(
                VarOrTerm::var(axis.variable.clone()),
                qb4o::member_of(),
                VarOrTerm::Term(Term::Iri(axis.level.clone())),
            ));
        }

        // Measures.
        for (index, (property, _)) in self.measures.iter().enumerate() {
            pattern.push_triple(TriplePattern::new(
                obs(),
                property.clone(),
                VarOrTerm::var(format!("m{index}")),
            ));
        }

        for (triples, expression) in inline {
            for triple in triples {
                pattern.push_triple(triple);
            }
            pattern.push_filter(expression);
        }

        // Projection, grouping, ordering.
        let mut query = SelectQuery::new();
        query.prefixes = PrefixMap::with_common_prefixes();
        let mut items: Vec<SelectItem> = Vec::new();
        for axis in &self.axes {
            let variable = Variable::new(axis.variable.clone());
            items.push(SelectItem::Var(variable.clone()));
            query.group_by.push(Expression::Var(variable.clone()));
            query.order_by.push(OrderCondition {
                expr: Expression::Var(variable),
                descending: false,
            });
        }
        for (index, (_, output)) in self.measures.iter().enumerate() {
            items.push(SelectItem::Expr {
                expr: self.aggregate(index),
                alias: Variable::new(output.clone()),
            });
        }
        query.projection = Projection::Items(items);
        query.pattern = pattern;

        // Measure dices become HAVING constraints over the aggregates.
        for filter in &self.query.measure_filters {
            query.having.push(self.measure_expression(filter));
        }
        query
    }

    /// The axis of a kept dimension.
    fn axis(&self, dimension: &Iri) -> &CubeAxis {
        self.axes
            .iter()
            .find(|axis| &axis.dimension == dimension)
            .expect("translate checked every diced dimension")
    }

    /// The aggregate of the `index`-th measure over its raw variable.
    fn aggregate(&self, index: usize) -> Expression {
        Expression::Aggregate(AggregateExpr {
            function: to_sparql_aggregate(self.aggregates[index]),
            distinct: false,
            expr: Some(Box::new(Expression::var(format!("m{index}")))),
        })
    }

    /// The filter expression of an attribute dice; pushes the triples
    /// joining each compared attribute to its axis member.
    fn member_expression(
        &self,
        filter: &MemberFilter,
        names: &mut Names,
        triples: &mut Vec<TriplePattern>,
    ) -> Expression {
        match filter {
            MemberFilter::And(a, b) => Expression::And(
                Box::new(self.member_expression(a, names, triples)),
                Box::new(self.member_expression(b, names, triples)),
            ),
            MemberFilter::Or(a, b) => Expression::Or(
                Box::new(self.member_expression(a, names, triples)),
                Box::new(self.member_expression(b, names, triples)),
            ),
            MemberFilter::Compare {
                dimension,
                attribute,
                predicate,
                ..
            } => {
                let variable = names.fresh(attribute.local_name());
                triples.push(TriplePattern::new(
                    VarOrTerm::var(self.axis(dimension).variable.clone()),
                    attribute.clone(),
                    VarOrTerm::var(variable.clone()),
                ));
                let (left, op, constant) = match predicate {
                    MemberPredicate::Str { op, value } => (
                        Expression::Call(
                            sparql::ast::Function::Str,
                            vec![Expression::var(variable)],
                        ),
                        op,
                        Term::Literal(Literal::string(value)),
                    ),
                    MemberPredicate::Constant { op, value } => {
                        (Expression::var(variable), op, value.clone())
                    }
                };
                Expression::Compare(
                    Box::new(left),
                    *op,
                    Box::new(Expression::Constant(constant)),
                )
            }
        }
    }

    /// The `HAVING` expression of a measure dice.
    fn measure_expression(&self, filter: &MeasureFilter) -> Expression {
        match filter {
            MeasureFilter::And(a, b) => Expression::And(
                Box::new(self.measure_expression(a)),
                Box::new(self.measure_expression(b)),
            ),
            MeasureFilter::Or(a, b) => Expression::Or(
                Box::new(self.measure_expression(a)),
                Box::new(self.measure_expression(b)),
            ),
            MeasureFilter::Compare { measure, op, value } => {
                let index = self
                    .measures
                    .iter()
                    .position(|(property, _)| property == measure)
                    .expect("translate checked every diced measure");
                Expression::Compare(
                    Box::new(self.aggregate(index)),
                    *op,
                    Box::new(Expression::Constant(value.clone())),
                )
            }
        }
    }
}

/// The dimension every comparison of an attribute dice refers to, if
/// there is only one.
fn single_dimension(filter: &MemberFilter) -> Option<&Iri> {
    match filter {
        MemberFilter::Compare { dimension, .. } => Some(dimension),
        MemberFilter::And(a, b) | MemberFilter::Or(a, b) => {
            let dimension = single_dimension(a)?;
            (single_dimension(b)? == dimension).then_some(dimension)
        }
    }
}

/// The SPARQL comparison operator implementing a QL dice operator; the
/// columnar backend compares with the same SPARQL value semantics.
fn to_sparql_cmp(op: DiceOp) -> CmpOp {
    match op {
        DiceOp::Eq => CmpOp::Eq,
        DiceOp::Ne => CmpOp::Ne,
        DiceOp::Lt => CmpOp::Lt,
        DiceOp::Le => CmpOp::Le,
        DiceOp::Gt => CmpOp::Gt,
        DiceOp::Ge => CmpOp::Ge,
    }
}

fn to_sparql_aggregate(aggregate: AggregateFunction) -> SparqlAgg {
    match aggregate {
        AggregateFunction::Sum => SparqlAgg::Sum,
        AggregateFunction::Avg => SparqlAgg::Avg,
        AggregateFunction::Count => SparqlAgg::Count,
        AggregateFunction::Min => SparqlAgg::Min,
        AggregateFunction::Max => SparqlAgg::Max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ql;
    use crate::pipeline::simplify;
    use crate::testutil::demo_cube_schema;
    use rdf::vocab::demo_schema;

    fn translate_text(text: &str) -> TranslationOutput {
        let schema = demo_cube_schema();
        let program = parse_ql(text).unwrap();
        let (pipeline, _) = simplify(&program, &schema).unwrap();
        translate(&pipeline, &schema).unwrap()
    }

    /// Mary's query with its two dices merged into one, whose attribute
    /// comparisons span the citizenship and destination dimensions.
    fn mary_query_with_one_dice() -> String {
        datagen::workload::mary_query()
            .replace("\"Africa\"));\n$C5 := DICE ($C4, ", "\"Africa\") AND ")
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// One query's snapshot section: both variants' text.
    fn both_variants(name: &str, text: &str) -> String {
        let output = translate_text(text);
        format!(
            "#### {name}\n-- direct\n{}\n-- alternative\n{}\n",
            output.direct_sparql(),
            output.alternative_sparql()
        )
    }

    /// Pins the generated SPARQL byte for byte: the named workload (E3,
    /// which holds Mary's query of E6 and the naive program of E9) against
    /// the committed text, and `generated_queries(11, 64)` against a
    /// committed FNV-1a digest per query.
    #[test]
    fn generated_sparql_matches_the_committed_snapshot() {
        let golden = include_str!("../testdata/workload.sparql");
        let expected: Vec<&str> = golden.split("#### ").skip(1).collect();
        let workload = datagen::workload::bench_queries();
        assert_eq!(expected.len(), workload.len(), "one section per query");
        for ((name, text), expected) in workload.iter().zip(expected) {
            let rendered = both_variants(name, text);
            assert!(
                rendered == format!("#### {expected}"),
                "the SPARQL of {name} changed; expected\n#### {expected}\ngot\n{rendered}"
            );
        }

        let digests = include_str!("../testdata/generated_queries_11_64.fnv");
        let generated = datagen::workload::generated_queries(11, 64);
        assert_eq!(
            digests.lines().count(),
            generated.len(),
            "one digest per query"
        );
        for ((name, text), line) in generated.iter().zip(digests.lines()) {
            let rendered = both_variants(name, text);
            let digest = format!("{name} {:016x}", fnv1a(rendered.as_bytes()));
            assert!(
                digest == line,
                "the SPARQL of {name} changed ({digest}, committed {line}):\n{text}\n{rendered}"
            );
        }
    }

    #[test]
    fn mary_query_translates_to_long_sparql() {
        let output = translate_text(&datagen::workload::mary_query());
        let direct = output.direct_sparql();
        // The paper: "the above query translates to more than 30 lines of SPARQL".
        assert!(
            direct.lines().count() > 30,
            "expected > 30 lines, got {}:\n{direct}",
            direct.lines().count()
        );
        // Both variants reparse as valid SPARQL.
        sparql::parse_select(&direct).expect("direct variant must be valid SPARQL");
        sparql::parse_select(&output.alternative_sparql())
            .expect("alternative variant must be valid SPARQL");
        // Five axes remain (asylapp sliced out of six dimensions).
        assert_eq!(output.axes.len(), 5);
        assert!(output
            .axes
            .iter()
            .any(|a| a.level == demo_schema::continent()));
        assert!(output.axes.iter().any(|a| a.level == demo_schema::year()));
        assert_eq!(output.measures.len(), 1);
    }

    #[test]
    fn direct_variant_filters_alternative_uses_subselects() {
        let output = translate_text(&datagen::workload::mary_query());
        let direct = output.direct_sparql();
        let alternative = output.alternative_sparql();
        assert!(direct.contains("FILTER"), "{direct}");
        assert!(!direct.contains("SELECT DISTINCT ?continent"), "{direct}");
        assert!(
            alternative.contains("SELECT DISTINCT"),
            "the alternative variant pre-restricts members:\n{alternative}"
        );
        assert!(alternative.contains("memberOf"), "{alternative}");
    }

    #[test]
    fn a_dice_spanning_two_dimensions_stays_inline_in_the_alternative_variant() {
        let output = translate_text(&mary_query_with_one_dice());
        assert_eq!(output.query.member_filters.len(), 1);
        let filter =
            "FILTER((STR(?continentName2) = \"Africa\" && STR(?countryName2) = \"France\"))";
        let alternative = output.alternative_sparql();
        assert!(alternative.contains(filter), "{alternative}");
        assert!(!alternative.contains("SELECT DISTINCT"), "{alternative}");
        let direct = output.direct_sparql();
        assert!(direct.contains(&filter.replace('2', "")), "{direct}");
    }

    #[test]
    fn rollup_paths_navigate_broader_links() {
        let output = translate_text(&datagen::workload::rollup_citizenship_to_continent());
        let direct = output.direct_sparql();
        assert!(direct.contains("skos:broader"), "{direct}");
        assert!(direct.contains("qb4o:memberOf"), "{direct}");
        assert!(direct.contains("GROUP BY"), "{direct}");
        assert!(direct.contains("SUM(?m0)"), "{direct}");
    }

    #[test]
    fn measure_dice_becomes_having() {
        let output = translate_text(&datagen::workload::yearly_large_cells());
        let direct = output.direct_sparql();
        assert!(direct.contains("HAVING"), "{direct}");
        assert!(
            direct.contains("> \"400\"") || direct.contains("> 400"),
            "{direct}"
        );
    }

    #[test]
    fn multi_level_rollup_chains_broader_twice() {
        let schema = demo_cube_schema();
        let program = parse_ql(
            "PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
             PREFIX data: <http://eurostat.linked-statistics.org/data/>;
             QUERY
             $C1 := ROLLUP (data:migr_asyappctzm, schema:citizenshipDim, schema:citAll);",
        )
        .unwrap();
        let (pipeline, _) = simplify(&program, &schema).unwrap();
        let output = translate(&pipeline, &schema).unwrap();
        let direct = output.direct_sparql();
        assert_eq!(direct.matches("skos:broader").count(), 2, "{direct}");
    }

    #[test]
    fn slicing_all_dimensions_leaves_a_single_cell_query() {
        let output = translate_text(&datagen::workload::totals_by_citizenship());
        // Only the citizenship dimension remains as an axis.
        assert_eq!(output.axes.len(), 1);
        assert_eq!(output.axes[0].dimension, demo_schema::citizenship_dim());
        let direct = output.direct_sparql();
        assert!(direct.contains("GROUP BY ?citizen"), "{direct}");
    }

    #[test]
    fn mixing_measures_and_attributes_in_one_dice_is_rejected() {
        let schema = demo_cube_schema();
        let program = parse_ql(
            "PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
             PREFIX property: <http://eurostat.linked-statistics.org/property#>;
             PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>;
             PREFIX data: <http://eurostat.linked-statistics.org/data/>;
             QUERY
             $C1 := DICE (data:migr_asyappctzm,
               schema:destinationDim|property:geo|schema:countryName = \"France\"
               AND sdmx-measure:obsValue > 10);",
        )
        .unwrap();
        let (pipeline, _) = simplify(&program, &schema).unwrap();
        assert!(matches!(
            translate(&pipeline, &schema),
            Err(QlError::Validation(_))
        ));
    }

    #[test]
    fn mary_query_lowers_to_columnar_terms() {
        let schema = demo_cube_schema();
        let program = parse_ql(&datagen::workload::mary_query()).unwrap();
        let (pipeline, _) = simplify(&program, &schema).unwrap();
        let query = translate(&pipeline, &schema).unwrap().query;
        assert_eq!(query.slices, pipeline.slices);
        assert_eq!(query.rollups, pipeline.rollups);
        assert_eq!(query.member_filters.len(), 2);
        assert!(query.measure_filters.is_empty());
        match &query.member_filters[0] {
            MemberFilter::Compare { predicate, .. } => {
                assert_eq!(
                    predicate,
                    &MemberPredicate::Str {
                        op: CmpOp::Eq,
                        value: "Africa".to_string()
                    }
                );
            }
            other => panic!("expected a comparison, got {other:?}"),
        }
    }

    #[test]
    fn measure_dice_lowers_to_a_measure_filter() {
        let query = translate_text(&datagen::workload::yearly_large_cells()).query;
        assert!(query.member_filters.is_empty());
        assert_eq!(query.measure_filters.len(), 1);
        match &query.measure_filters[0] {
            MeasureFilter::Compare { op, value, .. } => {
                assert_eq!(*op, CmpOp::Gt);
                assert_eq!(value, &Term::integer(400));
            }
            other => panic!("expected a comparison, got {other:?}"),
        }
    }

    #[test]
    fn constants_match_the_sparql_translator() {
        let number = |n: f64| constant_term(&DiceValue::Number(n));
        assert_eq!(number(400.0), Term::integer(400));
        assert_eq!(number(2.5), Term::Literal(Literal::decimal(2.5)));
        // Integral numbers outside the i64 range keep their exact value.
        assert_eq!(number(-(2f64.powi(63))), Term::integer(i64::MIN));
        for n in [1e20, 2f64.powi(63), f64::MAX, -f64::MAX] {
            assert_eq!(number(n), Term::Literal(Literal::decimal(n)), "{n}");
        }
        assert_eq!(
            constant_term(&DiceValue::String("x".into())),
            Term::Literal(Literal::string("x"))
        );
        assert_eq!(
            constant_term(&DiceValue::Iri(rdf::Iri::new("http://m"))),
            Term::iri("http://m")
        );
        // Both backends get the same constant: the HAVING text and the
        // measure filter.
        let output = translate_text(
            &datagen::workload::yearly_large_cells().replace("> 400", "> 100000000000000000000"),
        );
        assert!(
            output
                .direct_sparql()
                .contains("> \"100000000000000000000\"^^xsd:decimal"),
            "{}",
            output.direct_sparql()
        );
        assert!(matches!(
            &output.query.measure_filters[0],
            MeasureFilter::Compare { value, .. } if *value == Term::Literal(Literal::decimal(1e20))
        ));
    }
}

//! The Query Translation phase (Section III-B): a simplified
//! [`QueryPipeline`] is translated into SPARQL, guided by the QB4OLAP
//! metadata.
//!
//! Two semantically equivalent SELECT queries are produced, exactly as in
//! the paper:
//!
//! * the **direct** translation joins the observations with the roll-up
//!   paths (`skos:broader` navigation anchored with `qb4o:memberOf`),
//!   attaches dice attributes to the grouped members and filters them with
//!   `FILTER`, aggregates with `GROUP BY` + the measure's
//!   `qb4o:aggregateFunction`, and turns measure dices into `HAVING`;
//! * the **alternative** translation applies "optimization heuristics
//!   thought to deal with some of the typical limitations of SPARQL
//!   endpoints": attribute dices are evaluated first in nested sub-SELECTs
//!   that pre-select the qualifying level members, so the observation join
//!   only touches the restricted members.

use std::collections::BTreeSet;

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

/// The output of the translation phase.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslationOutput {
    /// The direct translation.
    pub direct: SelectQuery,
    /// The alternative, endpoint-friendly translation.
    pub alternative: SelectQuery,
    /// The axes of the result cube (dimension, level, output variable).
    pub axes: Vec<CubeAxis>,
    /// The measures of the result cube: `(property, output variable)`.
    pub measures: Vec<(Iri, String)>,
}

impl TranslationOutput {
    /// The direct translation as SPARQL text.
    pub fn direct_sparql(&self) -> String {
        sparql::select_to_string(&self.direct)
    }

    /// The alternative translation as SPARQL text.
    pub fn alternative_sparql(&self) -> String {
        sparql::select_to_string(&self.alternative)
    }
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

/// Translates a simplified pipeline into the two SPARQL variants.
pub fn translate(
    pipeline: &QueryPipeline,
    schema: &CubeSchema,
) -> Result<TranslationOutput, QlError> {
    Translator::new(pipeline, schema).run()
}

struct DimensionPlan {
    axis: CubeAxis,
    bottom_level: Iri,
    bottom_property: Iri,
    bottom_variable: String,
    /// Intermediate variables of the roll-up path, bottom-exclusive,
    /// ending with the axis variable.
    path_variables: Vec<String>,
}

struct Translator<'a> {
    pipeline: &'a QueryPipeline,
    schema: &'a CubeSchema,
    used_names: BTreeSet<String>,
}

impl<'a> Translator<'a> {
    fn new(pipeline: &'a QueryPipeline, schema: &'a CubeSchema) -> Self {
        Translator {
            pipeline,
            schema,
            used_names: BTreeSet::new(),
        }
    }

    fn fresh_name(&mut self, base: &str) -> String {
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
        while !self.used_names.insert(name.clone()) {
            counter += 1;
            name = format!("{sanitized}{counter}");
        }
        name
    }

    fn run(mut self) -> Result<TranslationOutput, QlError> {
        // Plan each kept (non-sliced) dimension.
        let mut plans: Vec<DimensionPlan> = Vec::new();
        for dimension in &self.schema.dimensions {
            if self.pipeline.slices.contains(&dimension.iri) {
                continue;
            }
            let bottom = self
                .schema
                .bottom_level_of_dimension(&dimension.iri)
                .ok_or_else(|| {
                    QlError::Validation(format!(
                        "dimension <{}> has no bottom level",
                        dimension.iri.as_str()
                    ))
                })?;
            let target = self
                .pipeline
                .rollups
                .get(&dimension.iri)
                .cloned()
                .unwrap_or_else(|| bottom.clone());
            let bottom_variable = self.fresh_name(bottom.local_name());
            let mut path_variables = Vec::new();
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
                    path_variables.push(self.fresh_name(step.parent.local_name()));
                }
            }
            let axis_variable = path_variables
                .last()
                .cloned()
                .unwrap_or_else(|| bottom_variable.clone());
            plans.push(DimensionPlan {
                axis: CubeAxis {
                    dimension: dimension.iri.clone(),
                    level: target,
                    variable: axis_variable,
                },
                bottom_level: bottom,
                bottom_property: self
                    .schema
                    .bottom_level_of_dimension(&dimension.iri)
                    .expect("checked above"),
                bottom_variable,
                path_variables,
            });
        }

        // Measures.
        let mut measures: Vec<(Iri, String, String, AggregateFunction)> = Vec::new();
        for (index, measure) in self.schema.measures.iter().enumerate() {
            let raw_variable = format!("m{index}");
            let output_variable = self.fresh_name(measure.property.local_name());
            measures.push((
                measure.property.clone(),
                raw_variable,
                output_variable,
                measure.aggregate,
            ));
        }

        let (attribute_dices, measure_dices) = self.pipeline.partition_dices()?;

        let direct = self.build_query(&plans, &measures, &attribute_dices, &measure_dices, false)?;
        let alternative =
            self.build_query(&plans, &measures, &attribute_dices, &measure_dices, true)?;

        Ok(TranslationOutput {
            direct,
            alternative,
            axes: plans.into_iter().map(|p| p.axis).collect(),
            measures: measures
                .into_iter()
                .map(|(property, _, output, _)| (property, output))
                .collect(),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn build_query(
        &mut self,
        plans: &[DimensionPlan],
        measures: &[(Iri, String, String, AggregateFunction)],
        attribute_dices: &[&DiceCondition],
        measure_dices: &[&DiceCondition],
        alternative: bool,
    ) -> Result<SelectQuery, QlError> {
        let mut query = SelectQuery::new();
        query.prefixes = PrefixMap::with_common_prefixes();

        let obs = Variable::new("o");
        let mut pattern = GroupGraphPattern::new();

        // In the alternative variant, pre-restrict the diced members with
        // nested sub-selects placed before the observation join.
        if alternative {
            for dice in attribute_dices {
                if let Some(element) = self.member_restriction_subselect(plans, dice)? {
                    pattern.elements.push(element);
                }
            }
        }

        // Observation skeleton.
        pattern.push_triple(TriplePattern::new(
            VarOrTerm::Var(obs.clone()),
            rdf::vocab::rdf::type_(),
            qbv::observation(),
        ));
        pattern.push_triple(TriplePattern::new(
            VarOrTerm::Var(obs.clone()),
            qbv::data_set(),
            VarOrTerm::Term(Term::Iri(self.pipeline.dataset.clone())),
        ));

        // Dimension joins and roll-up navigation.
        for plan in plans {
            pattern.push_triple(TriplePattern::new(
                VarOrTerm::Var(obs.clone()),
                plan.bottom_property.clone(),
                VarOrTerm::var(plan.bottom_variable.clone()),
            ));
            let mut previous = plan.bottom_variable.clone();
            for variable in &plan.path_variables {
                pattern.push_triple(TriplePattern::new(
                    VarOrTerm::var(previous.clone()),
                    skos::broader(),
                    VarOrTerm::var(variable.clone()),
                ));
                previous = variable.clone();
            }
            // Anchor the member carried by the axis variable at its level,
            // "guided by the dimension hierarchy representation provided by
            // the QB4OLAP metadata".
            pattern.push_triple(TriplePattern::new(
                VarOrTerm::var(plan.axis.variable.clone()),
                qb4o::member_of(),
                VarOrTerm::Term(Term::Iri(plan.axis.level.clone())),
            ));
            let _ = &plan.bottom_level;
        }

        // Measures.
        for (property, raw, _, _) in measures {
            pattern.push_triple(TriplePattern::new(
                VarOrTerm::Var(obs.clone()),
                property.clone(),
                VarOrTerm::var(raw.clone()),
            ));
        }

        // Attribute dices: in the direct variant, join the attributes and
        // filter; in the alternative variant the sub-selects already
        // restricted the members, so nothing more is needed here.
        if !alternative {
            for dice in attribute_dices {
                let (triples, expression) = self.attribute_dice_patterns(plans, dice)?;
                for triple in triples {
                    pattern.push_triple(triple);
                }
                pattern.push_filter(expression);
            }
        }

        // Projection, grouping, ordering.
        let mut items: Vec<SelectItem> = Vec::new();
        let mut group_by: Vec<Expression> = Vec::new();
        let mut order_by: Vec<OrderCondition> = Vec::new();
        for plan in plans {
            let variable = Variable::new(plan.axis.variable.clone());
            items.push(SelectItem::Var(variable.clone()));
            group_by.push(Expression::Var(variable.clone()));
            order_by.push(OrderCondition {
                expr: Expression::Var(variable),
                descending: false,
            });
        }
        for (_, raw, output, aggregate) in measures {
            items.push(SelectItem::Expr {
                expr: Expression::Aggregate(AggregateExpr {
                    function: to_sparql_aggregate(*aggregate),
                    distinct: false,
                    expr: Some(Box::new(Expression::var(raw.clone()))),
                }),
                alias: Variable::new(output.clone()),
            });
        }
        query.projection = Projection::Items(items);
        query.pattern = pattern;
        query.group_by = group_by;
        query.order_by = order_by;

        // Measure dices become HAVING constraints over the aggregates.
        for dice in measure_dices {
            query.having.push(self.measure_dice_expression(measures, dice)?);
        }

        Ok(query)
    }

    /// The plan whose *current* level matches the dice operand's level.
    fn plan_for_attribute<'p>(
        &self,
        plans: &'p [DimensionPlan],
        dimension: &Iri,
        level: &Iri,
    ) -> Result<&'p DimensionPlan, QlError> {
        plans
            .iter()
            .find(|p| &p.axis.dimension == dimension && &p.axis.level == level)
            .ok_or_else(|| {
                QlError::Validation(format!(
                    "the dice on dimension <{}> refers to level <{}>, which is not the level of that dimension in the result",
                    dimension.as_str(),
                    level.as_str()
                ))
            })
    }

    /// Attribute triples + filter expression for a dice (direct variant).
    fn attribute_dice_patterns(
        &mut self,
        plans: &[DimensionPlan],
        dice: &DiceCondition,
    ) -> Result<(Vec<TriplePattern>, Expression), QlError> {
        let mut triples = Vec::new();
        let expression = self.condition_expression(plans, dice, &mut triples)?;
        Ok((triples, expression))
    }

    fn condition_expression(
        &mut self,
        plans: &[DimensionPlan],
        condition: &DiceCondition,
        triples: &mut Vec<TriplePattern>,
    ) -> Result<Expression, QlError> {
        match condition {
            DiceCondition::And(a, b) => Ok(Expression::And(
                Box::new(self.condition_expression(plans, a, triples)?),
                Box::new(self.condition_expression(plans, b, triples)?),
            )),
            DiceCondition::Or(a, b) => Ok(Expression::Or(
                Box::new(self.condition_expression(plans, a, triples)?),
                Box::new(self.condition_expression(plans, b, triples)?),
            )),
            DiceCondition::Comparison { operand, op, value } => match operand {
                DiceOperand::Attribute {
                    dimension,
                    level,
                    attribute,
                } => {
                    let plan = self.plan_for_attribute(plans, dimension, level)?;
                    let attribute_variable = self.fresh_name(attribute.local_name());
                    triples.push(TriplePattern::new(
                        VarOrTerm::var(plan.axis.variable.clone()),
                        attribute.clone(),
                        VarOrTerm::var(attribute_variable.clone()),
                    ));
                    Ok(comparison_expression(&attribute_variable, *op, value))
                }
                DiceOperand::Measure(_) => Err(QlError::Validation(
                    "measure comparisons cannot appear inside attribute dice conditions"
                        .to_string(),
                )),
            },
        }
    }

    /// A `{ SELECT ?member WHERE { ?member qb4o:memberOf <level> ; <attr> ?a . FILTER(...) } }`
    /// sub-select that pre-restricts the members of the diced level
    /// (alternative variant). Only produced when the whole condition refers
    /// to a single dimension; otherwise `None` is returned and the condition
    /// is handled exactly like the direct variant.
    fn member_restriction_subselect(
        &mut self,
        plans: &[DimensionPlan],
        dice: &DiceCondition,
    ) -> Result<Option<PatternElement>, QlError> {
        let comparisons = dice.comparisons();
        let mut dimensions: BTreeSet<&Iri> = BTreeSet::new();
        for (operand, _, _) in &comparisons {
            if let DiceOperand::Attribute { dimension, .. } = operand {
                dimensions.insert(dimension);
            }
        }
        if dimensions.len() != 1 {
            return Ok(None);
        }
        let dimension = (*dimensions.iter().next().expect("one dimension")).clone();
        let level = match &comparisons[0].0 {
            DiceOperand::Attribute { level, .. } => level.clone(),
            DiceOperand::Measure(_) => return Ok(None),
        };
        let plan = self.plan_for_attribute(plans, &dimension, &level)?;
        let member_variable = plan.axis.variable.clone();

        let mut sub = SelectQuery::new();
        sub.prefixes = PrefixMap::with_common_prefixes();
        sub.projection = Projection::Items(vec![SelectItem::Var(Variable::new(
            member_variable.clone(),
        ))]);
        sub.distinct = true;
        let mut sub_pattern = GroupGraphPattern::new();
        sub_pattern.push_triple(TriplePattern::new(
            VarOrTerm::var(member_variable.clone()),
            qb4o::member_of(),
            VarOrTerm::Term(Term::Iri(level.clone())),
        ));
        let mut triples = Vec::new();
        let expression = self.condition_expression(plans, dice, &mut triples)?;
        for triple in triples {
            sub_pattern.push_triple(triple);
        }
        sub_pattern.push_filter(expression);
        sub.pattern = sub_pattern;
        Ok(Some(PatternElement::SubSelect(Box::new(sub))))
    }

    /// HAVING expression for a measure dice.
    fn measure_dice_expression(
        &self,
        measures: &[(Iri, String, String, AggregateFunction)],
        condition: &DiceCondition,
    ) -> Result<Expression, QlError> {
        match condition {
            DiceCondition::And(a, b) => Ok(Expression::And(
                Box::new(self.measure_dice_expression(measures, a)?),
                Box::new(self.measure_dice_expression(measures, b)?),
            )),
            DiceCondition::Or(a, b) => Ok(Expression::Or(
                Box::new(self.measure_dice_expression(measures, a)?),
                Box::new(self.measure_dice_expression(measures, b)?),
            )),
            DiceCondition::Comparison { operand, op, value } => match operand {
                DiceOperand::Measure(property) => {
                    let (_, raw, _, aggregate) = measures
                        .iter()
                        .find(|(p, ..)| p == property)
                        .ok_or_else(|| {
                            QlError::Validation(format!(
                                "unknown measure <{}>",
                                property.as_str()
                            ))
                        })?;
                    let aggregate_expr = Expression::Aggregate(AggregateExpr {
                        function: to_sparql_aggregate(*aggregate),
                        distinct: false,
                        expr: Some(Box::new(Expression::var(raw.clone()))),
                    });
                    let constant = match value {
                        DiceValue::Number(n) => Expression::Constant(Term::Literal(
                            if n.fract() == 0.0 {
                                Literal::integer(*n as i64)
                            } else {
                                Literal::decimal(*n)
                            },
                        )),
                        DiceValue::String(s) => {
                            Expression::Constant(Term::Literal(Literal::string(s)))
                        }
                        DiceValue::Iri(iri) => Expression::Constant(Term::Iri(iri.clone())),
                    };
                    Ok(Expression::Compare(
                        Box::new(aggregate_expr),
                        to_sparql_cmp(*op),
                        Box::new(constant),
                    ))
                }
                DiceOperand::Attribute { .. } => Err(QlError::Validation(
                    "attribute comparisons cannot appear inside measure dice conditions"
                        .to_string(),
                )),
            },
        }
    }
}

fn comparison_expression(variable: &str, op: DiceOp, value: &DiceValue) -> Expression {
    match value {
        DiceValue::String(s) => Expression::Compare(
            Box::new(Expression::Call(
                sparql::ast::Function::Str,
                vec![Expression::var(variable)],
            )),
            to_sparql_cmp(op),
            Box::new(Expression::Constant(Term::Literal(Literal::string(s)))),
        ),
        DiceValue::Number(n) => Expression::Compare(
            Box::new(Expression::var(variable)),
            to_sparql_cmp(op),
            Box::new(Expression::Constant(Term::Literal(if n.fract() == 0.0 {
                Literal::integer(*n as i64)
            } else {
                Literal::decimal(*n)
            }))),
        ),
        DiceValue::Iri(iri) => Expression::Compare(
            Box::new(Expression::var(variable)),
            to_sparql_cmp(op),
            Box::new(Expression::Constant(Term::Iri(iri.clone()))),
        ),
    }
}

/// The SPARQL comparison operator implementing a QL dice operator (shared
/// with the columnar backend, which reuses the SPARQL value-comparison
/// semantics).
pub(crate) fn to_sparql_cmp(op: DiceOp) -> CmpOp {
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
        assert!(direct.contains("> \"400\"") || direct.contains("> 400"), "{direct}");
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
        assert_eq!(
            output.axes[0].dimension,
            demo_schema::citizenship_dim()
        );
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
}

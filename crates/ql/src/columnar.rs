//! The columnar execution backend: lowers a simplified [`QueryPipeline`]
//! into a [`cubestore::CubeQuery`] and runs it on a
//! [`cubestore::MaterializedCube`], producing a [`CodedCube`] that decodes
//! to the [`crate::ResultCube`] the SPARQL backend computes for the same
//! prepared query.

use std::time::Instant;

use cubestore::{
    CubeQuery, ExecOptions, MaterializedCube, MeasureFilter, MemberFilter, MemberPredicate,
};
use rdf::{Literal, Term};

use crate::ast::{DiceCondition, DiceOperand, DiceValue};
use crate::cube::CodedCube;
use crate::error::QlError;
use crate::executor::PreparedQuery;
use crate::pipeline::QueryPipeline;
use crate::translate::to_sparql_cmp;

/// Lowers a simplified pipeline into columnar terms, with the dices split
/// into member (pre-aggregation) and measure (post-aggregation) filters by
/// the same [`QueryPipeline::partition_dices`] the SPARQL translator uses.
pub(crate) fn to_cube_query(pipeline: &QueryPipeline) -> Result<CubeQuery, QlError> {
    let (member_dices, measure_dices) = pipeline.partition_dices()?;
    Ok(CubeQuery {
        slices: pipeline.slices.clone(),
        rollups: pipeline.rollups.clone(),
        member_filters: member_dices.into_iter().map(member_filter).collect::<Result<_, _>>()?,
        measure_filters: measure_dices.into_iter().map(measure_filter).collect::<Result<_, _>>()?,
    })
}

/// The constant term a QL dice value compares against — the same literal
/// the SPARQL translator puts into the generated query.
fn constant_term(value: &DiceValue) -> Term {
    match value {
        DiceValue::Number(n) => Term::Literal(if n.fract() == 0.0 {
            Literal::integer(*n as i64)
        } else {
            Literal::decimal(*n)
        }),
        DiceValue::String(s) => Term::Literal(Literal::string(s)),
        DiceValue::Iri(iri) => Term::Iri(iri.clone()),
    }
}

fn member_filter(condition: &DiceCondition) -> Result<MemberFilter, QlError> {
    match condition {
        DiceCondition::And(a, b) => Ok(MemberFilter::And(
            Box::new(member_filter(a)?),
            Box::new(member_filter(b)?),
        )),
        DiceCondition::Or(a, b) => Ok(MemberFilter::Or(
            Box::new(member_filter(a)?),
            Box::new(member_filter(b)?),
        )),
        DiceCondition::Comparison { operand, op, value } => match operand {
            DiceOperand::Attribute {
                dimension,
                level,
                attribute,
            } => {
                // String dices compare `STR(?attr)` in the generated
                // SPARQL; numbers and IRIs compare the raw term.
                let predicate = match value {
                    DiceValue::String(s) => MemberPredicate::Str {
                        op: to_sparql_cmp(*op),
                        value: s.clone(),
                    },
                    DiceValue::Number(_) | DiceValue::Iri(_) => MemberPredicate::Constant {
                        op: to_sparql_cmp(*op),
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

fn measure_filter(condition: &DiceCondition) -> Result<MeasureFilter, QlError> {
    match condition {
        DiceCondition::And(a, b) => Ok(MeasureFilter::And(
            Box::new(measure_filter(a)?),
            Box::new(measure_filter(b)?),
        )),
        DiceCondition::Or(a, b) => Ok(MeasureFilter::Or(
            Box::new(measure_filter(a)?),
            Box::new(measure_filter(b)?),
        )),
        DiceCondition::Comparison { operand, op, value } => match operand {
            DiceOperand::Measure(property) => Ok(MeasureFilter::Compare {
                measure: property.clone(),
                op: to_sparql_cmp(*op),
                value: constant_term(value),
            }),
            DiceOperand::Attribute { .. } => Err(QlError::Validation(
                "attribute comparisons cannot appear inside measure dice conditions".to_string(),
            )),
        },
    }
}

/// Runs a prepared query on the materialized cube and labels the coded
/// result with the *same* axes and measure variables as the SPARQL
/// translation, so the two backends produce comparable (identical) cubes
/// once decoded. Also returns the scan totals so the caller can feed the
/// metrics registry. A `profile` gets the `lower-pipeline` step and
/// everything [`cubestore::execute`] records, in that order.
pub fn execute_columnar(
    cube: &MaterializedCube,
    prepared: &PreparedQuery,
    options: &ExecOptions,
    mut profile: Option<&mut obs::ExecutionProfile>,
) -> Result<(CodedCube, cubestore::ScanStats), QlError> {
    let started = Instant::now();
    let query = to_cube_query(&prepared.pipeline)?;
    if let Some(profile) = profile.as_deref_mut() {
        profile.push_step("lower-pipeline", started.elapsed(), None, "");
    }
    let (output, stats) = cubestore::execute(cube, &query, options, profile)?;
    Ok((label_output(output, prepared)?, stats))
}

/// Validates the axis alignment and labels the output, whose cells
/// `cubestore` returns in the cube's canonical coordinate order already.
fn label_output(
    output: cubestore::QueryOutput,
    prepared: &PreparedQuery,
) -> Result<CodedCube, QlError> {
    // Both planners walk the schema dimensions in order, so the axes must
    // line up; anything else means the materialization is out of sync with
    // the schema the query was prepared against.
    let translated = &prepared.translation.axes;
    if output.axes.len() != translated.len()
        || output
            .axes
            .iter()
            .zip(translated)
            .any(|(a, t)| a.dimension != t.dimension || a.level != t.level)
    {
        return Err(QlError::Columnar(format!(
            "axis mismatch between the materialized cube and the prepared query \
             (columnar: {:?}, translation: {:?}); re-materialize the cube",
            output.axes, translated
        )));
    }

    Ok(CodedCube {
        axes: prepared.translation.axes.clone(),
        measures: prepared.translation.measures.clone(),
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ql;
    use crate::pipeline::simplify;
    use crate::testutil::demo_cube_schema;
    use sparql::ast::CmpOp;

    fn pipeline_of(text: &str) -> QueryPipeline {
        let schema = demo_cube_schema();
        let program = parse_ql(text).unwrap();
        simplify(&program, &schema).unwrap().0
    }

    #[test]
    fn mary_query_lowers_to_columnar_terms() {
        let pipeline = pipeline_of(&datagen::workload::mary_query());
        let query = to_cube_query(&pipeline).unwrap();
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
        let pipeline = pipeline_of(&datagen::workload::yearly_large_cells());
        let query = to_cube_query(&pipeline).unwrap();
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
        assert_eq!(
            constant_term(&DiceValue::Number(400.0)),
            Term::integer(400)
        );
        assert_eq!(
            constant_term(&DiceValue::Number(2.5)),
            Term::Literal(Literal::decimal(2.5))
        );
        assert_eq!(
            constant_term(&DiceValue::String("x".into())),
            Term::Literal(Literal::string("x"))
        );
        assert_eq!(
            constant_term(&DiceValue::Iri(rdf::Iri::new("http://m"))),
            Term::iri("http://m")
        );
    }
}

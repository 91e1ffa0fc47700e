//! The Query Simplification phase (Section III-B).
//!
//! A parsed QL program is validated against the QB4OLAP cube schema and
//! rewritten into a canonical [`QueryPipeline`] applying the paper's two
//! optimisation rules:
//!
//! * **(a)** SLICE operations are performed as soon as possible, to reduce
//!   the size of intermediate results;
//! * **(b)** all ROLLUP / DRILLDOWN operations over the same dimension are
//!   fused into a single ROLLUP from the dimension's bottom level to the
//!   last level reached by the sequence.

use std::collections::BTreeMap;

use qb4olap::CubeSchema;
use rdf::Iri;

use crate::ast::{CubeRef, DiceCondition, DiceOperand, QlOperation, QlProgram, QlStatement};
use crate::error::QlError;

/// The canonical, simplified form of a QL program.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPipeline {
    /// The dataset the query runs against.
    pub dataset: Iri,
    /// Dimensions sliced out, in first-mention order.
    pub slices: Vec<Iri>,
    /// For each rolled-up dimension, the final target level (only dimensions
    /// whose final level differs from their bottom level appear here).
    pub rollups: BTreeMap<Iri, Iri>,
    /// Dice conditions, in program order.
    pub dices: Vec<DiceCondition>,
}

/// What the simplification phase did, for display in the demo UI and for the
/// E9 ablation experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimplificationReport {
    /// Operations in the original program.
    pub original_operations: usize,
    /// Operations in the simplified program.
    pub simplified_operations: usize,
    /// ROLLUP/DRILLDOWN operations fused away by rule (b).
    pub fused_operations: usize,
    /// SLICE operations moved to the front by rule (a).
    pub slices_moved: usize,
}

impl QueryPipeline {
    /// Number of operations in the simplified pipeline.
    pub fn operation_count(&self) -> usize {
        self.slices.len() + self.rollups.len() + self.dices.len()
    }

    /// The dices split into member dices (on level attributes, applied
    /// before aggregation) and measure dices (on aggregated measures, the
    /// `HAVING` side), each in program order — the split the cube plan's
    /// member and measure filters follow. A dice mixing the two is
    /// refused.
    pub(crate) fn partition_dices(
        &self,
    ) -> Result<(Vec<&DiceCondition>, Vec<&DiceCondition>), QlError> {
        let mut member_dices = Vec::new();
        let mut measure_dices = Vec::new();
        for dice in &self.dices {
            let comparisons = dice.comparisons();
            let on_measures = comparisons
                .iter()
                .filter(|(operand, _, _)| matches!(operand, DiceOperand::Measure(_)))
                .count();
            if on_measures == 0 {
                member_dices.push(dice);
            } else if on_measures == comparisons.len() {
                measure_dices.push(dice);
            } else {
                return Err(QlError::Validation(
                    "a single DICE condition cannot mix measures and level attributes".to_string(),
                ));
            }
        }
        Ok((member_dices, measure_dices))
    }

    /// One logical-plan line per pipeline step, in execution order
    /// (slices, roll-ups, dices) — the `plan:` section of an execution
    /// profile. Exactly [`Self::operation_count`] lines.
    pub fn plan_lines(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.operation_count());
        for dimension in &self.slices {
            lines.push(format!("SLICE dimension=<{}>", dimension.as_str()));
        }
        for (dimension, level) in &self.rollups {
            lines.push(format!(
                "ROLLUP dimension=<{}> level=<{}>",
                dimension.as_str(),
                level.as_str()
            ));
        }
        for dice in &self.dices {
            lines.push(format!("DICE comparisons={}", dice.comparisons().len()));
        }
        lines
    }

    /// Renders the pipeline as a canonical QL program (slices first, then
    /// roll-ups, then dices), mirroring what the Querying module shows after
    /// simplification.
    pub fn to_program(&self, prefixes: rdf::PrefixMap) -> QlProgram {
        let mut statements = Vec::new();
        let mut counter = 0usize;
        let mut last: Option<String> = None;
        let mut push = |operation: QlOperation, last: &mut Option<String>, counter: &mut usize| {
            *counter += 1;
            let target = format!("C{counter}");
            statements.push(QlStatement {
                target: target.clone(),
                operation,
            });
            *last = Some(target);
        };
        let input = |last: &Option<String>, dataset: &Iri| match last {
            Some(var) => CubeRef::Variable(var.clone()),
            None => CubeRef::Dataset(dataset.clone()),
        };
        for dimension in &self.slices {
            let cube = input(&last, &self.dataset);
            push(
                QlOperation::Slice {
                    cube,
                    dimension: dimension.clone(),
                },
                &mut last,
                &mut counter,
            );
        }
        for (dimension, level) in &self.rollups {
            let cube = input(&last, &self.dataset);
            push(
                QlOperation::Rollup {
                    cube,
                    dimension: dimension.clone(),
                    level: level.clone(),
                },
                &mut last,
                &mut counter,
            );
        }
        for condition in &self.dices {
            let cube = input(&last, &self.dataset);
            push(
                QlOperation::Dice {
                    cube,
                    condition: condition.clone(),
                },
                &mut last,
                &mut counter,
            );
        }
        QlProgram {
            prefixes,
            statements,
        }
    }
}

/// Validates a QL program against a cube schema and simplifies it into a
/// [`QueryPipeline`].
pub fn simplify(
    program: &QlProgram,
    schema: &CubeSchema,
) -> Result<(QueryPipeline, SimplificationReport), QlError> {
    if program.statements.is_empty() {
        return Err(QlError::Validation("empty QL program".to_string()));
    }

    // The first statement must start from a dataset; every later statement
    // must consume the cube produced by the previous one (linear chains, as
    // in the paper's examples).
    let dataset = match program.statements[0].operation.input() {
        CubeRef::Dataset(iri) => iri.clone(),
        CubeRef::Variable(v) => {
            return Err(QlError::Validation(format!(
            "the first statement must start from a dataset, found the undefined cube variable ${v}"
        )))
        }
    };
    if dataset != schema.dataset {
        return Err(QlError::Validation(format!(
            "the program queries <{}> but the schema describes <{}>",
            dataset.as_str(),
            schema.dataset.as_str()
        )));
    }
    for window in program.statements.windows(2) {
        let previous = &window[0];
        let current = &window[1];
        match current.operation.input() {
            CubeRef::Variable(v) if *v == previous.target => {}
            CubeRef::Variable(v) => {
                return Err(QlError::Validation(format!(
                    "statement ${} consumes ${v}, but the previous statement defined ${}",
                    current.target, previous.target
                )))
            }
            CubeRef::Dataset(_) => {
                return Err(QlError::Validation(format!(
                    "statement ${} restarts from the dataset; only the first statement may do so",
                    current.target
                )))
            }
        }
    }

    // Grammar shape: (ROLLUP | SLICE | DRILLDOWN)* (DICE)*.
    let first_dice = program
        .statements
        .iter()
        .position(|s| matches!(s.operation, QlOperation::Dice { .. }));
    if let Some(first_dice) = first_dice {
        if let Some(offender) = program.statements[first_dice..]
            .iter()
            .find(|s| !matches!(s.operation, QlOperation::Dice { .. }))
        {
            return Err(QlError::Validation(format!(
                "dicing must be written at the end of the QL program, but ${} applies {} after a DICE",
                offender.target,
                offender.operation.name()
            )));
        }
    }

    let mut slices: Vec<Iri> = Vec::new();
    let mut current_level: BTreeMap<Iri, Iri> = BTreeMap::new();
    let mut dices: Vec<DiceCondition> = Vec::new();
    let mut fused = 0usize;
    let mut slices_moved = 0usize;
    let mut seen_non_slice = false;

    for statement in &program.statements {
        match &statement.operation {
            QlOperation::Slice { dimension, .. } => {
                let dim = lookup_dimension(schema, dimension)?;
                if slices.contains(&dim.iri) {
                    return Err(QlError::Validation(format!(
                        "dimension <{}> is sliced twice",
                        dimension.as_str()
                    )));
                }
                if current_level.contains_key(&dim.iri) {
                    return Err(QlError::Validation(format!(
                        "dimension <{}> is sliced after being rolled up",
                        dimension.as_str()
                    )));
                }
                if seen_non_slice {
                    slices_moved += 1;
                }
                slices.push(dim.iri.clone());
            }
            QlOperation::Rollup {
                dimension, level, ..
            }
            | QlOperation::Drilldown {
                dimension, level, ..
            } => {
                seen_non_slice = true;
                let dim = lookup_dimension(schema, dimension)?;
                if slices.contains(&dim.iri) {
                    return Err(QlError::Validation(format!(
                        "dimension <{}> was sliced out and cannot be rolled up or drilled down",
                        dimension.as_str()
                    )));
                }
                if !dim.has_level(level) {
                    return Err(QlError::Validation(format!(
                        "level <{}> does not belong to dimension <{}>",
                        level.as_str(),
                        dimension.as_str()
                    )));
                }
                let bottom = schema.bottom_level_of_dimension(&dim.iri).ok_or_else(|| {
                    QlError::Validation(format!(
                        "dimension <{}> has no bottom level",
                        dim.iri.as_str()
                    ))
                })?;
                let from = current_level
                    .get(&dim.iri)
                    .cloned()
                    .unwrap_or(bottom.clone());
                let is_rollup = matches!(statement.operation, QlOperation::Rollup { .. });
                let reachable_up = dim.rollup_path(&from, level).is_some();
                let reachable_down = dim.rollup_path(level, &from).is_some();
                if is_rollup && !reachable_up {
                    return Err(QlError::Validation(format!(
                        "cannot roll up dimension <{}> from <{}> to <{}>: no hierarchy path",
                        dimension.as_str(),
                        from.as_str(),
                        level.as_str()
                    )));
                }
                if !is_rollup && !reachable_down {
                    return Err(QlError::Validation(format!(
                        "cannot drill down dimension <{}> from <{}> to <{}>: <{}> is not a finer level",
                        dimension.as_str(),
                        from.as_str(),
                        level.as_str(),
                        level.as_str()
                    )));
                }
                if current_level.contains_key(&dim.iri) {
                    fused += 1;
                }
                current_level.insert(dim.iri.clone(), level.clone());
            }
            QlOperation::Dice { condition, .. } => {
                validate_condition(schema, condition, &slices, &current_level)?;
                dices.push(condition.clone());
            }
        }
    }

    // Rule (b): a fused roll-up that ends on the bottom level disappears.
    let mut rollups = BTreeMap::new();
    for (dimension, level) in current_level {
        let bottom = schema
            .bottom_level_of_dimension(&dimension)
            .expect("validated above");
        if level != bottom {
            rollups.insert(dimension, level);
        } else {
            fused += 1;
        }
    }

    let pipeline = QueryPipeline {
        dataset,
        slices,
        rollups,
        dices,
    };
    let report = SimplificationReport {
        original_operations: program.statements.len(),
        simplified_operations: pipeline.operation_count(),
        fused_operations: fused,
        slices_moved,
    };
    Ok((pipeline, report))
}

fn lookup_dimension<'s>(
    schema: &'s CubeSchema,
    dimension: &Iri,
) -> Result<&'s qb4olap::Dimension, QlError> {
    schema.dimension(dimension).ok_or_else(|| {
        QlError::Validation(format!(
            "unknown dimension <{}> (known dimensions: {})",
            dimension.as_str(),
            schema
                .dimensions
                .iter()
                .map(|d| d.iri.local_name().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    })
}

fn validate_condition(
    schema: &CubeSchema,
    condition: &DiceCondition,
    slices: &[Iri],
    current_level: &BTreeMap<Iri, Iri>,
) -> Result<(), QlError> {
    for (operand, _op, _value) in condition.comparisons() {
        match operand {
            DiceOperand::Measure(measure) => {
                if schema.measure(measure).is_none() {
                    return Err(QlError::Validation(format!(
                        "unknown measure <{}>",
                        measure.as_str()
                    )));
                }
            }
            DiceOperand::Attribute {
                dimension,
                level,
                attribute,
            } => {
                let dim = lookup_dimension(schema, dimension)?;
                if slices.contains(&dim.iri) {
                    return Err(QlError::Validation(format!(
                        "cannot dice on dimension <{}>: it was sliced out",
                        dimension.as_str()
                    )));
                }
                if !dim.has_level(level) {
                    return Err(QlError::Validation(format!(
                        "level <{}> does not belong to dimension <{}>",
                        level.as_str(),
                        dimension.as_str()
                    )));
                }
                let bottom = schema
                    .bottom_level_of_dimension(&dim.iri)
                    .expect("dimension exists");
                let cube_level = current_level.get(&dim.iri).unwrap_or(&bottom);
                if cube_level != level {
                    return Err(QlError::Validation(format!(
                        "the dice on <{}> refers to level <{}>, but dimension <{}> is at level <{}> at that point of the program",
                        attribute.as_str(),
                        level.as_str(),
                        dimension.as_str(),
                        cube_level.as_str()
                    )));
                }
                if !schema
                    .level_attributes(level)
                    .iter()
                    .any(|a| &a.iri == attribute)
                {
                    return Err(QlError::Validation(format!(
                        "level <{}> has no attribute <{}>",
                        level.as_str(),
                        attribute.as_str()
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ql;
    use crate::testutil::demo_cube_schema;
    use rdf::vocab::demo_schema;

    #[test]
    fn mary_query_simplifies_to_the_expected_pipeline() {
        let schema = demo_cube_schema();
        let program = parse_ql(&datagen::workload::mary_query()).unwrap();
        let (pipeline, report) = simplify(&program, &schema).unwrap();

        assert_eq!(pipeline.slices, vec![demo_schema::asylapp_dim()]);
        assert_eq!(pipeline.rollups.len(), 2);
        assert_eq!(
            pipeline.rollups.get(&demo_schema::citizenship_dim()),
            Some(&demo_schema::continent())
        );
        assert_eq!(
            pipeline.rollups.get(&demo_schema::time_dim()),
            Some(&demo_schema::year())
        );
        assert_eq!(pipeline.dices.len(), 2);
        assert_eq!(report.original_operations, 5);
        assert_eq!(report.simplified_operations, 5);
        assert_eq!(report.fused_operations, 0);
    }

    #[test]
    fn unoptimized_query_is_fused_and_reordered() {
        let schema = demo_cube_schema();
        let program = parse_ql(&datagen::workload::mary_query_unoptimized()).unwrap();
        let (pipeline, report) = simplify(&program, &schema).unwrap();

        // The roll-up/drill-down/roll-up chain over citizenship fuses into a
        // single roll-up to continent, and the late slice moves to the front.
        assert_eq!(
            pipeline.rollups.get(&demo_schema::citizenship_dim()),
            Some(&demo_schema::continent())
        );
        assert_eq!(report.original_operations, 7);
        assert_eq!(report.simplified_operations, 5);
        assert!(report.fused_operations >= 2);
        assert!(report.slices_moved >= 1);

        // The simplified pipeline is identical to the one of the already
        // optimised query.
        let optimised = parse_ql(&datagen::workload::mary_query()).unwrap();
        let (expected, _) = simplify(&optimised, &schema).unwrap();
        assert_eq!(pipeline, expected);
    }

    #[test]
    fn rollup_then_drilldown_back_to_bottom_disappears() {
        let schema = demo_cube_schema();
        let program = parse_ql(
            "PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
             PREFIX property: <http://eurostat.linked-statistics.org/property#>;
             PREFIX data: <http://eurostat.linked-statistics.org/data/>;
             QUERY
             $C1 := ROLLUP (data:migr_asyappctzm, schema:citizenshipDim, schema:continent);
             $C2 := DRILLDOWN ($C1, schema:citizenshipDim, property:citizen);",
        )
        .unwrap();
        let (pipeline, report) = simplify(&program, &schema).unwrap();
        assert!(pipeline.rollups.is_empty());
        assert_eq!(report.simplified_operations, 0);
        assert_eq!(report.fused_operations, 2);
    }

    #[test]
    fn canonical_program_rendering() {
        let schema = demo_cube_schema();
        let program = parse_ql(&datagen::workload::mary_query_unoptimized()).unwrap();
        let (pipeline, _) = simplify(&program, &schema).unwrap();
        let canonical = pipeline.to_program(rdf::PrefixMap::with_common_prefixes());
        // Slices come first in the canonical rendering.
        assert!(matches!(
            canonical.statements[0].operation,
            QlOperation::Slice { .. }
        ));
        let text = canonical.to_ql_string();
        assert!(text.contains("SLICE"));
        assert!(text.contains("ROLLUP"));
        assert!(text.contains("DICE"));
        // The canonical program re-simplifies to the same pipeline.
        let (again, _) = simplify(&canonical, &schema).unwrap();
        assert_eq!(again, pipeline);
    }

    #[test]
    fn validation_errors() {
        let schema = demo_cube_schema();
        let parse = |text: &str| parse_ql(text).unwrap();
        let prologue = "PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
             PREFIX property: <http://eurostat.linked-statistics.org/property#>;
             PREFIX data: <http://eurostat.linked-statistics.org/data/>;
             PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>;
             QUERY\n";

        // Unknown dimension.
        let program = parse(&format!(
            "{prologue}$C1 := SLICE (data:migr_asyappctzm, schema:bogusDim);"
        ));
        assert!(matches!(
            simplify(&program, &schema),
            Err(QlError::Validation(_))
        ));

        // Level not in dimension.
        let program = parse(&format!(
            "{prologue}$C1 := ROLLUP (data:migr_asyappctzm, schema:timeDim, schema:continent);"
        ));
        assert!(matches!(
            simplify(&program, &schema),
            Err(QlError::Validation(_))
        ));

        // Dice attribute on the wrong level (continent attribute while the
        // dimension is still at the bottom level).
        let program = parse(&format!(
            "{prologue}$C1 := DICE (data:migr_asyappctzm, schema:citizenshipDim|schema:continent|schema:continentName = \"Africa\");"
        ));
        assert!(matches!(
            simplify(&program, &schema),
            Err(QlError::Validation(_))
        ));

        // Rolling up a sliced dimension.
        let program = parse(&format!(
            "{prologue}$C1 := SLICE (data:migr_asyappctzm, schema:citizenshipDim);
             $C2 := ROLLUP ($C1, schema:citizenshipDim, schema:continent);"
        ));
        assert!(matches!(
            simplify(&program, &schema),
            Err(QlError::Validation(_))
        ));

        // Operation after a dice violates the grammar shape.
        let program = parse(&format!(
            "{prologue}$C1 := DICE (data:migr_asyappctzm, sdmx-measure:obsValue > 5);
             $C2 := SLICE ($C1, schema:asylappDim);"
        ));
        assert!(matches!(
            simplify(&program, &schema),
            Err(QlError::Validation(_))
        ));

        // Broken chaining.
        let program = parse(&format!(
            "{prologue}$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
             $C2 := SLICE (data:migr_asyappctzm, schema:sexDim);"
        ));
        assert!(matches!(
            simplify(&program, &schema),
            Err(QlError::Validation(_))
        ));

        // Unknown measure in a dice.
        let program = parse(&format!(
            "{prologue}$C1 := DICE (data:migr_asyappctzm, schema:notAMeasure > 5);"
        ));
        assert!(matches!(
            simplify(&program, &schema),
            Err(QlError::Validation(_))
        ));

        // Querying a dataset the schema does not describe.
        let program = parse(&format!(
            "{prologue}$C1 := SLICE (data:someOtherDataset, schema:asylappDim);"
        ));
        assert!(matches!(
            simplify(&program, &schema),
            Err(QlError::Validation(_))
        ));
    }

    #[test]
    fn drilldown_below_bottom_is_rejected() {
        let schema = demo_cube_schema();
        let program = parse_ql(
            "PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
             PREFIX property: <http://eurostat.linked-statistics.org/property#>;
             PREFIX data: <http://eurostat.linked-statistics.org/data/>;
             QUERY
             $C1 := DRILLDOWN (data:migr_asyappctzm, schema:citizenshipDim, schema:continent);",
        )
        .unwrap();
        assert!(matches!(
            simplify(&program, &schema),
            Err(QlError::Validation(_))
        ));
    }
}

//! Abstract syntax of the QL language.
//!
//! QL follows the cube-algebra style of Ciferri et al. (as cited in the
//! paper): a QL program is a sequence of assignments
//! `$Cn := OP(...)` where `OP` is `SLICE`, `ROLLUP`, `DRILLDOWN` or `DICE`,
//! and the grammar imposes the shape `(ROLLUP | SLICE | DRILLDOWN)* (DICE)*`.

use rdf::{Iri, PrefixMap};

/// A reference to a cube: either the published dataset or the result of a
/// previous statement (`$C2`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CubeRef {
    /// The dataset IRI (e.g. `data:migr_asyappctzm`).
    Dataset(Iri),
    /// A cube variable, without the `$` (e.g. `C1`).
    Variable(String),
}

/// The left-hand side of a dice comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiceOperand {
    /// A `dimension|level|attribute` path, as in
    /// `schema:citizenshipDim|schema:continent|schema:continentName`.
    Attribute {
        /// The dimension.
        dimension: Iri,
        /// The level within the dimension.
        level: Iri,
        /// The level attribute.
        attribute: Iri,
    },
    /// A measure of the cube (e.g. `sdmx-measure:obsValue`).
    Measure(Iri),
}

/// The right-hand side of a dice comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum DiceValue {
    /// A string constant (compared against the string value of the operand).
    String(String),
    /// A numeric constant.
    Number(f64),
    /// An IRI constant (compared against member identity).
    Iri(Iri),
}

/// Comparison operators allowed in dice conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiceOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl DiceOp {
    /// Surface syntax of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            DiceOp::Eq => "=",
            DiceOp::Ne => "!=",
            DiceOp::Lt => "<",
            DiceOp::Le => "<=",
            DiceOp::Gt => ">",
            DiceOp::Ge => ">=",
        }
    }
}

/// A dice condition: comparisons combined with AND / OR.
#[derive(Debug, Clone, PartialEq)]
pub enum DiceCondition {
    /// A single comparison.
    Comparison {
        /// Left-hand side.
        operand: DiceOperand,
        /// Operator.
        op: DiceOp,
        /// Right-hand side.
        value: DiceValue,
    },
    /// Conjunction.
    And(Box<DiceCondition>, Box<DiceCondition>),
    /// Disjunction.
    Or(Box<DiceCondition>, Box<DiceCondition>),
}

impl DiceCondition {
    /// All comparisons in the condition, in syntactic order.
    pub fn comparisons(&self) -> Vec<(&DiceOperand, DiceOp, &DiceValue)> {
        match self {
            DiceCondition::Comparison { operand, op, value } => vec![(operand, *op, value)],
            DiceCondition::And(a, b) | DiceCondition::Or(a, b) => {
                let mut out = a.comparisons();
                out.extend(b.comparisons());
                out
            }
        }
    }
}

/// One OLAP operation.
#[derive(Debug, Clone, PartialEq)]
pub enum QlOperation {
    /// `SLICE(cube, dimension)` — remove a dimension, aggregating the
    /// measures over it.
    Slice {
        /// Input cube.
        cube: CubeRef,
        /// Dimension to slice out.
        dimension: Iri,
    },
    /// `ROLLUP(cube, dimension, level)` — aggregate the dimension up to the
    /// given level.
    Rollup {
        /// Input cube.
        cube: CubeRef,
        /// Dimension to roll up.
        dimension: Iri,
        /// Target level.
        level: Iri,
    },
    /// `DRILLDOWN(cube, dimension, level)` — disaggregate the dimension down
    /// to the given level.
    Drilldown {
        /// Input cube.
        cube: CubeRef,
        /// Dimension to drill down.
        dimension: Iri,
        /// Target level.
        level: Iri,
    },
    /// `DICE(cube, condition)` — keep only the cells satisfying the condition.
    Dice {
        /// Input cube.
        cube: CubeRef,
        /// The filter condition.
        condition: DiceCondition,
    },
}

impl QlOperation {
    /// The input cube reference of the operation.
    pub fn input(&self) -> &CubeRef {
        match self {
            QlOperation::Slice { cube, .. }
            | QlOperation::Rollup { cube, .. }
            | QlOperation::Drilldown { cube, .. }
            | QlOperation::Dice { cube, .. } => cube,
        }
    }

    /// The operation's name as written in QL.
    pub fn name(&self) -> &'static str {
        match self {
            QlOperation::Slice { .. } => "SLICE",
            QlOperation::Rollup { .. } => "ROLLUP",
            QlOperation::Drilldown { .. } => "DRILLDOWN",
            QlOperation::Dice { .. } => "DICE",
        }
    }
}

/// One statement: `$Cn := OP(...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QlStatement {
    /// The assigned cube variable, without the `$`.
    pub target: String,
    /// The operation.
    pub operation: QlOperation,
}

/// A full QL program.
#[derive(Debug, Clone, PartialEq)]
pub struct QlProgram {
    /// Prefixes declared before the `QUERY` keyword.
    pub prefixes: PrefixMap,
    /// Statements in order.
    pub statements: Vec<QlStatement>,
}

impl QlProgram {
    /// The dataset the program starts from (the first statement must
    /// reference a dataset IRI).
    pub fn dataset(&self) -> Option<&Iri> {
        self.statements
            .iter()
            .find_map(|s| match s.operation.input() {
                CubeRef::Dataset(iri) => Some(iri),
                CubeRef::Variable(_) => None,
            })
    }

    /// Number of operations of each kind `(slice, rollup, drilldown, dice)`.
    pub fn operation_counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for statement in &self.statements {
            match statement.operation {
                QlOperation::Slice { .. } => counts.0 += 1,
                QlOperation::Rollup { .. } => counts.1 += 1,
                QlOperation::Drilldown { .. } => counts.2 += 1,
                QlOperation::Dice { .. } => counts.3 += 1,
            }
        }
        counts
    }

    /// Renders the program back as QL text.
    pub fn to_ql_string(&self) -> String {
        let mut out = String::new();
        for (prefix, ns) in self.prefixes.iter() {
            out.push_str(&format!("PREFIX {prefix}: <{ns}>;\n"));
        }
        out.push_str("QUERY\n");
        for statement in &self.statements {
            out.push_str(&format!(
                "$ {target} := {op};\n",
                target = statement.target,
                op = render_operation(&statement.operation, &self.prefixes)
            ));
        }
        out.replace("$ ", "$")
    }
}

fn render_cube_ref(cube: &CubeRef, prefixes: &PrefixMap) -> String {
    match cube {
        CubeRef::Dataset(iri) => prefixes.compact(iri),
        CubeRef::Variable(name) => format!("${name}"),
    }
}

fn render_value(value: &DiceValue, prefixes: &PrefixMap) -> String {
    match value {
        DiceValue::String(s) => format!("\"{s}\""),
        DiceValue::Number(n) => format!("{n}"),
        DiceValue::Iri(iri) => prefixes.compact(iri),
    }
}

fn render_condition(condition: &DiceCondition, prefixes: &PrefixMap) -> String {
    match condition {
        DiceCondition::Comparison { operand, op, value } => {
            let lhs = match operand {
                DiceOperand::Attribute {
                    dimension,
                    level,
                    attribute,
                } => format!(
                    "{}|{}|{}",
                    prefixes.compact(dimension),
                    prefixes.compact(level),
                    prefixes.compact(attribute)
                ),
                DiceOperand::Measure(m) => prefixes.compact(m),
            };
            format!("{lhs} {} {}", op.as_str(), render_value(value, prefixes))
        }
        DiceCondition::And(a, b) => format!(
            "({} AND {})",
            render_condition(a, prefixes),
            render_condition(b, prefixes)
        ),
        DiceCondition::Or(a, b) => format!(
            "({} OR {})",
            render_condition(a, prefixes),
            render_condition(b, prefixes)
        ),
    }
}

fn render_operation(operation: &QlOperation, prefixes: &PrefixMap) -> String {
    match operation {
        QlOperation::Slice { cube, dimension } => format!(
            "SLICE ({}, {})",
            render_cube_ref(cube, prefixes),
            prefixes.compact(dimension)
        ),
        QlOperation::Rollup {
            cube,
            dimension,
            level,
        } => format!(
            "ROLLUP ({}, {}, {})",
            render_cube_ref(cube, prefixes),
            prefixes.compact(dimension),
            prefixes.compact(level)
        ),
        QlOperation::Drilldown {
            cube,
            dimension,
            level,
        } => format!(
            "DRILLDOWN ({}, {}, {})",
            render_cube_ref(cube, prefixes),
            prefixes.compact(dimension),
            prefixes.compact(level)
        ),
        QlOperation::Dice { cube, condition } => format!(
            "DICE ({}, ({}))",
            render_cube_ref(cube, prefixes),
            render_condition(condition, prefixes)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::vocab::demo_schema;

    #[test]
    fn operation_accessors() {
        let op = QlOperation::Rollup {
            cube: CubeRef::Variable("C1".into()),
            dimension: demo_schema::citizenship_dim(),
            level: demo_schema::continent(),
        };
        assert_eq!(op.name(), "ROLLUP");
        assert_eq!(op.input(), &CubeRef::Variable("C1".into()));
    }

    #[test]
    fn condition_comparisons_are_flattened() {
        let condition = DiceCondition::And(
            Box::new(DiceCondition::Comparison {
                operand: DiceOperand::Measure(rdf::vocab::sdmx_measure::obs_value()),
                op: DiceOp::Gt,
                value: DiceValue::Number(10.0),
            }),
            Box::new(DiceCondition::Comparison {
                operand: DiceOperand::Attribute {
                    dimension: demo_schema::citizenship_dim(),
                    level: demo_schema::continent(),
                    attribute: demo_schema::continent_name(),
                },
                op: DiceOp::Eq,
                value: DiceValue::String("Africa".into()),
            }),
        );
        assert_eq!(condition.comparisons().len(), 2);
    }

    #[test]
    fn program_counts_and_dataset() {
        let program = QlProgram {
            prefixes: PrefixMap::with_common_prefixes(),
            statements: vec![
                QlStatement {
                    target: "C1".into(),
                    operation: QlOperation::Slice {
                        cube: CubeRef::Dataset(rdf::vocab::eurostat_data::migr_asyappctzm()),
                        dimension: demo_schema::asylapp_dim(),
                    },
                },
                QlStatement {
                    target: "C2".into(),
                    operation: QlOperation::Rollup {
                        cube: CubeRef::Variable("C1".into()),
                        dimension: demo_schema::citizenship_dim(),
                        level: demo_schema::continent(),
                    },
                },
            ],
        };
        assert_eq!(program.operation_counts(), (1, 1, 0, 0));
        assert_eq!(
            program.dataset(),
            Some(&rdf::vocab::eurostat_data::migr_asyappctzm())
        );
        let text = program.to_ql_string();
        assert!(text.contains("QUERY"));
        assert!(text.contains("$C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);"));
        assert!(text.contains("$C2 := ROLLUP ($C1, schema:citizenshipDim, schema:continent);"));
    }
}

//! AST builder conveniences for test harnesses (feature `testutil`).
//!
//! The qlsmith fuzzer generates [`SelectQuery`] values programmatically and
//! needs two things the regular API keeps implicit: terse constructors for
//! deeply nested expression trees, and *exhaustive* tables of the grammar's
//! productions. Every table below is paired with an index function whose
//! `match` has no wildcard arm, so adding a variant to the AST without
//! extending the generator fails to compile — that is the grammar-coverage
//! guarantee the CI gate relies on.
//!
//! [`evaluate_decoded`] runs a SELECT straight against a graph the way an
//! endpoint's `select` does, for tests that bypass the store.

use rdf::{Graph, Term};

use crate::ast::{
    AggregateExpr, AggregateFunction, ArithOp, CmpOp, Expression, Function, GroupGraphPattern,
    PatternElement, Query, SelectQuery, Variable,
};
use crate::endpoint::select_result;
use crate::eval::evaluate_query;
use crate::results::Solutions;

/// Evaluates a SELECT against `graph` and decodes its solutions, as
/// [`crate::Endpoint::select`] does. Panics on an evaluation error.
pub fn evaluate_decoded(graph: &Graph, query: &SelectQuery) -> Solutions {
    let results =
        evaluate_query(graph, &Query::Select(query.clone())).expect("the query evaluates");
    select_result(results).expect("a SELECT result").into()
}

/// Every comparison operator, in a fixed order.
pub const ALL_CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Every arithmetic operator, in a fixed order.
pub const ALL_ARITH_OPS: [ArithOp; 4] = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div];

/// Every built-in scalar function, in a fixed order.
pub const ALL_FUNCTIONS: [Function; 22] = [
    Function::Str,
    Function::Lang,
    Function::Datatype,
    Function::Bound,
    Function::IsIri,
    Function::IsLiteral,
    Function::IsBlank,
    Function::Regex,
    Function::Contains,
    Function::StrStarts,
    Function::StrEnds,
    Function::UCase,
    Function::LCase,
    Function::StrLen,
    Function::Concat,
    Function::Abs,
    Function::Year,
    Function::Month,
    Function::If,
    Function::Coalesce,
    Function::Iri,
    Function::SameTerm,
];

/// Every aggregate function, in a fixed order.
pub const ALL_AGGREGATES: [AggregateFunction; 7] = [
    AggregateFunction::Count,
    AggregateFunction::Sum,
    AggregateFunction::Avg,
    AggregateFunction::Min,
    AggregateFunction::Max,
    AggregateFunction::Sample,
    AggregateFunction::GroupConcat,
];

/// Index of a comparison operator in [`ALL_CMP_OPS`] (exhaustive).
pub fn cmp_op_index(op: CmpOp) -> usize {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

/// Index of an arithmetic operator in [`ALL_ARITH_OPS`] (exhaustive).
pub fn arith_op_index(op: ArithOp) -> usize {
    match op {
        ArithOp::Add => 0,
        ArithOp::Sub => 1,
        ArithOp::Mul => 2,
        ArithOp::Div => 3,
    }
}

/// Index of a scalar function in [`ALL_FUNCTIONS`] (exhaustive).
pub fn function_index(function: Function) -> usize {
    match function {
        Function::Str => 0,
        Function::Lang => 1,
        Function::Datatype => 2,
        Function::Bound => 3,
        Function::IsIri => 4,
        Function::IsLiteral => 5,
        Function::IsBlank => 6,
        Function::Regex => 7,
        Function::Contains => 8,
        Function::StrStarts => 9,
        Function::StrEnds => 10,
        Function::UCase => 11,
        Function::LCase => 12,
        Function::StrLen => 13,
        Function::Concat => 14,
        Function::Abs => 15,
        Function::Year => 16,
        Function::Month => 17,
        Function::If => 18,
        Function::Coalesce => 19,
        Function::Iri => 20,
        Function::SameTerm => 21,
    }
}

/// Index of an aggregate function in [`ALL_AGGREGATES`] (exhaustive).
pub fn aggregate_index(function: AggregateFunction) -> usize {
    match function {
        AggregateFunction::Count => 0,
        AggregateFunction::Sum => 1,
        AggregateFunction::Avg => 2,
        AggregateFunction::Min => 3,
        AggregateFunction::Max => 4,
        AggregateFunction::Sample => 5,
        AggregateFunction::GroupConcat => 6,
    }
}

/// `a <op> b` as an expression.
pub fn cmp(a: Expression, op: CmpOp, b: Expression) -> Expression {
    Expression::Compare(Box::new(a), op, Box::new(b))
}

/// `a <op> b` arithmetic.
pub fn arith(a: Expression, op: ArithOp, b: Expression) -> Expression {
    Expression::Arithmetic(Box::new(a), op, Box::new(b))
}

/// A scalar function call.
pub fn call(function: Function, args: Vec<Expression>) -> Expression {
    Expression::Call(function, args)
}

/// An aggregate expression such as `SUM(?m)`; `None` means `COUNT(*)`.
pub fn aggregate(
    function: AggregateFunction,
    distinct: bool,
    expr: Option<Expression>,
) -> Expression {
    Expression::Aggregate(AggregateExpr {
        function,
        distinct,
        expr: expr.map(Box::new),
    })
}

/// `BIND(expr AS ?var)`.
pub fn bind(expr: Expression, var: impl Into<String>) -> PatternElement {
    PatternElement::Bind {
        expr,
        var: Variable::new(var),
    }
}

/// A constant-term expression (shorthand for [`Expression::Constant`]).
pub fn constant(term: impl Into<Term>) -> Expression {
    Expression::Constant(term.into())
}

/// A group graph pattern holding the given elements.
pub fn group(elements: Vec<PatternElement>) -> GroupGraphPattern {
    GroupGraphPattern { elements }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_tables_are_self_consistent() {
        for (i, op) in ALL_CMP_OPS.iter().enumerate() {
            assert_eq!(cmp_op_index(*op), i);
        }
        for (i, op) in ALL_ARITH_OPS.iter().enumerate() {
            assert_eq!(arith_op_index(*op), i);
        }
        for (i, f) in ALL_FUNCTIONS.iter().enumerate() {
            assert_eq!(function_index(*f), i);
            assert_eq!(Function::from_name(f.as_str()), Some(*f));
        }
        for (i, f) in ALL_AGGREGATES.iter().enumerate() {
            assert_eq!(aggregate_index(*f), i);
            assert_eq!(AggregateFunction::from_name(f.as_str()), Some(*f));
        }
    }
}

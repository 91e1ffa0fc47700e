//! Abstract syntax tree for the SPARQL subset QB2OLAP uses.
//!
//! The QL → SPARQL translator builds these structures programmatically and
//! pretty-prints them (see [`crate::pretty`]); the parser produces the same
//! structures from query text, so translated queries can be re-parsed and
//! executed by the local engine exactly as a remote endpoint would.

use rdf::{Iri, PrefixMap, Term};

/// A SPARQL variable (without the leading `?`/`$`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Variable(pub String);

impl Variable {
    /// Creates a variable from a name without the sigil.
    pub fn new(name: impl Into<String>) -> Self {
        Variable(name.into())
    }

    /// The variable name without the sigil.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Variable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A variable or a concrete RDF term, as allowed in subject/object positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarOrTerm {
    /// A variable.
    Var(Variable),
    /// A concrete term.
    Term(Term),
}

impl VarOrTerm {
    /// Convenience constructor for a variable.
    pub fn var(name: impl Into<String>) -> Self {
        VarOrTerm::Var(Variable::new(name))
    }

    /// Convenience constructor for an IRI term.
    pub fn iri(iri: impl AsRef<str>) -> Self {
        VarOrTerm::Term(Term::iri(iri))
    }
}

impl From<Variable> for VarOrTerm {
    fn from(v: Variable) -> Self {
        VarOrTerm::Var(v)
    }
}

impl From<Term> for VarOrTerm {
    fn from(t: Term) -> Self {
        VarOrTerm::Term(t)
    }
}

impl From<Iri> for VarOrTerm {
    fn from(iri: Iri) -> Self {
        VarOrTerm::Term(Term::Iri(iri))
    }
}

/// A variable or an IRI, as allowed in predicate position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarOrIri {
    /// A variable.
    Var(Variable),
    /// An IRI.
    Iri(Iri),
}

impl From<Variable> for VarOrIri {
    fn from(v: Variable) -> Self {
        VarOrIri::Var(v)
    }
}

impl From<Iri> for VarOrIri {
    fn from(iri: Iri) -> Self {
        VarOrIri::Iri(iri)
    }
}

/// A triple pattern inside a basic graph pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject position.
    pub subject: VarOrTerm,
    /// Predicate position.
    pub predicate: VarOrIri,
    /// Object position.
    pub object: VarOrTerm,
}

impl TriplePattern {
    /// Creates a triple pattern.
    pub fn new(
        subject: impl Into<VarOrTerm>,
        predicate: impl Into<VarOrIri>,
        object: impl Into<VarOrTerm>,
    ) -> Self {
        TriplePattern {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
        }
    }

    /// All variables mentioned by the pattern.
    pub fn variables(&self) -> Vec<&Variable> {
        let mut vars = Vec::new();
        if let VarOrTerm::Var(v) = &self.subject {
            vars.push(v);
        }
        if let VarOrIri::Var(v) = &self.predicate {
            vars.push(v);
        }
        if let VarOrTerm::Var(v) = &self.object {
            vars.push(v);
        }
        vars
    }
}

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
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

impl CmpOp {
    /// The SPARQL surface syntax of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ArithOp {
    /// The SPARQL surface syntax of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// Built-in scalar functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Function {
    /// `STR(x)` — lexical form / IRI string.
    Str,
    /// `LANG(x)` — language tag.
    Lang,
    /// `DATATYPE(x)` — datatype IRI.
    Datatype,
    /// `BOUND(?x)`.
    Bound,
    /// `ISIRI(x)`.
    IsIri,
    /// `ISLITERAL(x)`.
    IsLiteral,
    /// `ISBLANK(x)`.
    IsBlank,
    /// `REGEX(text, pattern [, flags])` (substring semantics; `i` flag only).
    Regex,
    /// `CONTAINS(haystack, needle)`.
    Contains,
    /// `STRSTARTS(s, prefix)`.
    StrStarts,
    /// `STRENDS(s, suffix)`.
    StrEnds,
    /// `UCASE(s)`.
    UCase,
    /// `LCASE(s)`.
    LCase,
    /// `STRLEN(s)`.
    StrLen,
    /// `CONCAT(a, b, ...)`.
    Concat,
    /// `ABS(n)`.
    Abs,
    /// `YEAR(date)` — year component of a date-like literal.
    Year,
    /// `MONTH(date)` — month component of a date-like literal.
    Month,
    /// `IF(cond, a, b)`.
    If,
    /// `COALESCE(a, b, ...)`.
    Coalesce,
    /// `IRI(s)` / `URI(s)`.
    Iri,
    /// `SAMETERM(a, b)`.
    SameTerm,
}

impl Function {
    /// The SPARQL surface syntax of the function name.
    pub fn as_str(self) -> &'static str {
        match self {
            Function::Str => "STR",
            Function::Lang => "LANG",
            Function::Datatype => "DATATYPE",
            Function::Bound => "BOUND",
            Function::IsIri => "isIRI",
            Function::IsLiteral => "isLITERAL",
            Function::IsBlank => "isBLANK",
            Function::Regex => "REGEX",
            Function::Contains => "CONTAINS",
            Function::StrStarts => "STRSTARTS",
            Function::StrEnds => "STRENDS",
            Function::UCase => "UCASE",
            Function::LCase => "LCASE",
            Function::StrLen => "STRLEN",
            Function::Concat => "CONCAT",
            Function::Abs => "ABS",
            Function::Year => "YEAR",
            Function::Month => "MONTH",
            Function::If => "IF",
            Function::Coalesce => "COALESCE",
            Function::Iri => "IRI",
            Function::SameTerm => "sameTerm",
        }
    }

    /// Parses a (case-insensitive) function name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name.to_ascii_uppercase().as_str() {
            "STR" => Function::Str,
            "LANG" => Function::Lang,
            "DATATYPE" => Function::Datatype,
            "BOUND" => Function::Bound,
            "ISIRI" | "ISURI" => Function::IsIri,
            "ISLITERAL" => Function::IsLiteral,
            "ISBLANK" => Function::IsBlank,
            "REGEX" => Function::Regex,
            "CONTAINS" => Function::Contains,
            "STRSTARTS" => Function::StrStarts,
            "STRENDS" => Function::StrEnds,
            "UCASE" => Function::UCase,
            "LCASE" => Function::LCase,
            "STRLEN" => Function::StrLen,
            "CONCAT" => Function::Concat,
            "ABS" => Function::Abs,
            "YEAR" => Function::Year,
            "MONTH" => Function::Month,
            "IF" => Function::If,
            "COALESCE" => Function::Coalesce,
            "IRI" | "URI" => Function::Iri,
            "SAMETERM" => Function::SameTerm,
            _ => return None,
        })
    }
}

/// SPARQL aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunction {
    /// `COUNT`.
    Count,
    /// `SUM`.
    Sum,
    /// `AVG`.
    Avg,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
    /// `SAMPLE`.
    Sample,
    /// `GROUP_CONCAT`.
    GroupConcat,
}

impl AggregateFunction {
    /// The SPARQL surface syntax of the aggregate name.
    pub fn as_str(self) -> &'static str {
        match self {
            AggregateFunction::Count => "COUNT",
            AggregateFunction::Sum => "SUM",
            AggregateFunction::Avg => "AVG",
            AggregateFunction::Min => "MIN",
            AggregateFunction::Max => "MAX",
            AggregateFunction::Sample => "SAMPLE",
            AggregateFunction::GroupConcat => "GROUP_CONCAT",
        }
    }

    /// Parses a (case-insensitive) aggregate name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggregateFunction::Count,
            "SUM" => AggregateFunction::Sum,
            "AVG" => AggregateFunction::Avg,
            "MIN" => AggregateFunction::Min,
            "MAX" => AggregateFunction::Max,
            "SAMPLE" => AggregateFunction::Sample,
            "GROUP_CONCAT" => AggregateFunction::GroupConcat,
            _ => return None,
        })
    }
}

/// An aggregate expression such as `SUM(?m)` or `COUNT(DISTINCT ?x)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateExpr {
    /// Which aggregate.
    pub function: AggregateFunction,
    /// Whether `DISTINCT` was specified.
    pub distinct: bool,
    /// The aggregated expression; `None` means `COUNT(*)`.
    pub expr: Option<Box<Expression>>,
}

/// A SPARQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expression {
    /// A variable reference.
    Var(Variable),
    /// A constant term (IRI or literal).
    Constant(Term),
    /// Logical negation.
    Not(Box<Expression>),
    /// Logical conjunction.
    And(Box<Expression>, Box<Expression>),
    /// Logical disjunction.
    Or(Box<Expression>, Box<Expression>),
    /// Comparison.
    Compare(Box<Expression>, CmpOp, Box<Expression>),
    /// Arithmetic.
    Arithmetic(Box<Expression>, ArithOp, Box<Expression>),
    /// Unary minus.
    Neg(Box<Expression>),
    /// Built-in function call.
    Call(Function, Vec<Expression>),
    /// Aggregate (only valid in projections/HAVING of grouped queries).
    Aggregate(AggregateExpr),
    /// `expr IN (e1, e2, ...)`.
    In(Box<Expression>, Vec<Expression>),
    /// `EXISTS { ... }`.
    Exists(Box<GroupGraphPattern>),
    /// `NOT EXISTS { ... }`.
    NotExists(Box<GroupGraphPattern>),
}

impl Expression {
    /// Convenience: a variable reference expression.
    pub fn var(name: impl Into<String>) -> Self {
        Expression::Var(Variable::new(name))
    }

    /// Convenience: a constant term expression.
    pub fn constant(term: impl Into<Term>) -> Self {
        Expression::Constant(term.into())
    }

    /// Convenience: `a = b`.
    pub fn eq(a: Expression, b: Expression) -> Self {
        Expression::Compare(Box::new(a), CmpOp::Eq, Box::new(b))
    }

    /// Convenience: conjunction of a list of expressions (`true` if empty).
    pub fn and_all(mut exprs: Vec<Expression>) -> Self {
        match exprs.len() {
            0 => Expression::Constant(Term::Literal(rdf::Literal::boolean(true))),
            1 => exprs.remove(0),
            _ => {
                let first = exprs.remove(0);
                exprs
                    .into_iter()
                    .fold(first, |acc, e| Expression::And(Box::new(acc), Box::new(e)))
            }
        }
    }

    /// True if the expression (recursively) contains an aggregate.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expression::Aggregate(_) => true,
            Expression::Var(_) | Expression::Constant(_) => false,
            Expression::Not(e) | Expression::Neg(e) => e.contains_aggregate(),
            Expression::And(a, b) | Expression::Or(a, b) => {
                a.contains_aggregate() || b.contains_aggregate()
            }
            Expression::Compare(a, _, b) | Expression::Arithmetic(a, _, b) => {
                a.contains_aggregate() || b.contains_aggregate()
            }
            Expression::Call(_, args) => args.iter().any(Expression::contains_aggregate),
            Expression::In(e, list) => {
                e.contains_aggregate() || list.iter().any(Expression::contains_aggregate)
            }
            Expression::Exists(_) | Expression::NotExists(_) => false,
        }
    }

    /// True if the expression (recursively) contains an `EXISTS` or
    /// `NOT EXISTS`.
    pub fn contains_exists(&self) -> bool {
        match self {
            Expression::Exists(_) | Expression::NotExists(_) => true,
            Expression::Var(_) | Expression::Constant(_) => false,
            Expression::Not(e) | Expression::Neg(e) => e.contains_exists(),
            Expression::And(a, b)
            | Expression::Or(a, b)
            | Expression::Compare(a, _, b)
            | Expression::Arithmetic(a, _, b) => a.contains_exists() || b.contains_exists(),
            Expression::Call(_, args) => args.iter().any(Expression::contains_exists),
            Expression::Aggregate(aggregate) => aggregate
                .expr
                .as_deref()
                .is_some_and(Expression::contains_exists),
            Expression::In(e, list) => {
                e.contains_exists() || list.iter().any(Expression::contains_exists)
            }
        }
    }

    /// Calls `visit` for every variable the expression mentions, `EXISTS`
    /// bodies included.
    pub fn visit_variables<'a>(&'a self, visit: &mut dyn FnMut(&'a Variable)) {
        match self {
            Expression::Var(v) => visit(v),
            Expression::Constant(_) => {}
            Expression::Not(e) | Expression::Neg(e) => e.visit_variables(visit),
            Expression::And(a, b)
            | Expression::Or(a, b)
            | Expression::Compare(a, _, b)
            | Expression::Arithmetic(a, _, b) => {
                a.visit_variables(visit);
                b.visit_variables(visit);
            }
            Expression::Call(_, args) => args.iter().for_each(|e| e.visit_variables(visit)),
            Expression::Aggregate(aggregate) => {
                if let Some(e) = &aggregate.expr {
                    e.visit_variables(visit);
                }
            }
            Expression::In(e, list) => {
                e.visit_variables(visit);
                list.iter().for_each(|e| e.visit_variables(visit));
            }
            Expression::Exists(pattern) | Expression::NotExists(pattern) => {
                pattern.visit_variables(visit)
            }
        }
    }
}

/// One row of a `VALUES` block: each entry is a term or `UNDEF`.
pub type ValuesRow = Vec<Option<Term>>;

/// Elements of a group graph pattern, in syntactic order.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternElement {
    /// A triple pattern.
    Triple(TriplePattern),
    /// `FILTER(expr)`.
    Filter(Expression),
    /// `OPTIONAL { ... }`.
    Optional(GroupGraphPattern),
    /// `{ ... } UNION { ... }`.
    Union(GroupGraphPattern, GroupGraphPattern),
    /// `MINUS { ... }`.
    Minus(GroupGraphPattern),
    /// `BIND(expr AS ?var)`.
    Bind {
        /// The bound expression.
        expr: Expression,
        /// The target variable.
        var: Variable,
    },
    /// `VALUES (?v1 ?v2) { (t11 t12) (t21 t22) ... }`.
    Values {
        /// The variables bound by the block.
        vars: Vec<Variable>,
        /// The rows of terms (`None` = `UNDEF`).
        rows: Vec<ValuesRow>,
    },
    /// A nested `{ SELECT ... }` sub-query.
    SubSelect(Box<SelectQuery>),
    /// A nested group `{ ... }`.
    Group(GroupGraphPattern),
}

/// A `{ ... }` group graph pattern.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupGraphPattern {
    /// The elements in syntactic order.
    pub elements: Vec<PatternElement>,
}

impl GroupGraphPattern {
    /// Creates an empty group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a triple pattern.
    pub fn push_triple(&mut self, pattern: TriplePattern) {
        self.elements.push(PatternElement::Triple(pattern));
    }

    /// Appends a filter.
    pub fn push_filter(&mut self, expr: Expression) {
        self.elements.push(PatternElement::Filter(expr));
    }

    /// Calls `visit` for every variable in scope of the group: everything
    /// its elements mention, and of a sub-select what it projects (its
    /// inner variables are a scope of their own).
    pub fn visit_variables<'a>(&'a self, visit: &mut dyn FnMut(&'a Variable)) {
        for element in &self.elements {
            match element {
                PatternElement::Triple(pattern) => {
                    pattern.variables().into_iter().for_each(&mut *visit)
                }
                PatternElement::Filter(expr) => expr.visit_variables(visit),
                PatternElement::Optional(g)
                | PatternElement::Minus(g)
                | PatternElement::Group(g) => g.visit_variables(visit),
                PatternElement::Union(a, b) => {
                    a.visit_variables(visit);
                    b.visit_variables(visit);
                }
                PatternElement::Bind { expr, var } => {
                    expr.visit_variables(visit);
                    visit(var);
                }
                PatternElement::Values { vars, .. } => vars.iter().for_each(&mut *visit),
                PatternElement::SubSelect(sub) => match &sub.projection {
                    Projection::Wildcard => sub.pattern.visit_variables(visit),
                    Projection::Items(items) => {
                        items.iter().for_each(|item| visit(item.output_variable()))
                    }
                },
            }
        }
    }

    /// Number of triple patterns (recursively, including nested groups,
    /// optionals, unions and sub-selects).
    pub fn triple_pattern_count(&self) -> usize {
        self.elements
            .iter()
            .map(|e| match e {
                PatternElement::Triple(_) => 1,
                PatternElement::Optional(g)
                | PatternElement::Group(g)
                | PatternElement::Minus(g) => g.triple_pattern_count(),
                PatternElement::Union(a, b) => a.triple_pattern_count() + b.triple_pattern_count(),
                PatternElement::SubSelect(q) => q.pattern.triple_pattern_count(),
                _ => 0,
            })
            .sum()
    }
}

/// An item of a SELECT projection.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A plain variable.
    Var(Variable),
    /// `(expr AS ?alias)`.
    Expr {
        /// The projected expression.
        expr: Expression,
        /// The alias variable.
        alias: Variable,
    },
}

impl SelectItem {
    /// The output variable name of this item.
    pub fn output_variable(&self) -> &Variable {
        match self {
            SelectItem::Var(v) => v,
            SelectItem::Expr { alias, .. } => alias,
        }
    }
}

/// The projection of a SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *`.
    Wildcard,
    /// An explicit list of items.
    Items(Vec<SelectItem>),
}

/// One `ORDER BY` condition.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderCondition {
    /// The sort key expression.
    pub expr: Expression,
    /// True for descending order.
    pub descending: bool,
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// Prefixes declared in the query (used for pretty-printing).
    pub prefixes: PrefixMap,
    /// Whether `DISTINCT` was specified.
    pub distinct: bool,
    /// The projection.
    pub projection: Projection,
    /// The WHERE pattern.
    pub pattern: GroupGraphPattern,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expression>,
    /// `HAVING` constraints.
    pub having: Vec<Expression>,
    /// `ORDER BY` conditions.
    pub order_by: Vec<OrderCondition>,
    /// `LIMIT`.
    pub limit: Option<usize>,
    /// `OFFSET`.
    pub offset: Option<usize>,
}

impl SelectQuery {
    /// Creates an empty `SELECT *` query.
    pub fn new() -> Self {
        SelectQuery {
            prefixes: PrefixMap::new(),
            distinct: false,
            projection: Projection::Wildcard,
            pattern: GroupGraphPattern::new(),
            group_by: Vec::new(),
            having: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }

    /// True if the query uses grouping or any aggregate in its projection.
    pub fn is_aggregated(&self) -> bool {
        if !self.group_by.is_empty() {
            return true;
        }
        match &self.projection {
            Projection::Wildcard => false,
            Projection::Items(items) => items.iter().any(|i| match i {
                SelectItem::Var(_) => false,
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            }),
        }
    }

    /// Calls `visit` for every variable in the query's own scope (see
    /// [`GroupGraphPattern::visit_variables`]): the evaluator sizes its
    /// fixed-width solution rows from the distinct names seen here.
    pub fn visit_variables<'a>(&'a self, visit: &mut dyn FnMut(&'a Variable)) {
        self.pattern.visit_variables(visit);
        if let Projection::Items(items) = &self.projection {
            for item in items {
                if let SelectItem::Expr { expr, .. } = item {
                    expr.visit_variables(visit);
                }
                visit(item.output_variable());
            }
        }
        let modifiers = self.group_by.iter().chain(&self.having);
        for expr in modifiers.chain(self.order_by.iter().map(|c| &c.expr)) {
            expr.visit_variables(visit);
        }
    }

    /// The output variable names, if the projection is explicit.
    pub fn output_variables(&self) -> Option<Vec<Variable>> {
        match &self.projection {
            Projection::Wildcard => None,
            Projection::Items(items) => {
                Some(items.iter().map(|i| i.output_variable().clone()).collect())
            }
        }
    }
}

impl Default for SelectQuery {
    fn default() -> Self {
        Self::new()
    }
}

/// An ASK query.
#[derive(Debug, Clone, PartialEq)]
pub struct AskQuery {
    /// Prefixes declared in the query.
    pub prefixes: PrefixMap,
    /// The WHERE pattern.
    pub pattern: GroupGraphPattern,
}

/// Any parsed query form.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A SELECT query.
    Select(SelectQuery),
    /// An ASK query.
    Ask(AskQuery),
}

impl Query {
    /// Returns the SELECT query, if this is one.
    pub fn as_select(&self) -> Option<&SelectQuery> {
        match self {
            Query::Select(q) => Some(q),
            Query::Ask(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_pattern_variables() {
        let p = TriplePattern::new(
            VarOrTerm::var("obs"),
            rdf::vocab::qb::data_set(),
            VarOrTerm::iri("http://example.org/ds"),
        );
        let vars: Vec<&str> = p.variables().iter().map(|v| v.name()).collect();
        assert_eq!(vars, vec!["obs"]);
    }

    #[test]
    fn and_all_folds() {
        let e = Expression::and_all(vec![
            Expression::var("a"),
            Expression::var("b"),
            Expression::var("c"),
        ]);
        match e {
            Expression::And(left, right) => {
                assert!(matches!(*right, Expression::Var(ref v) if v.name() == "c"));
                assert!(matches!(*left, Expression::And(_, _)));
            }
            other => panic!("unexpected fold shape: {other:?}"),
        }
    }

    #[test]
    fn aggregate_detection() {
        let sum = Expression::Aggregate(AggregateExpr {
            function: AggregateFunction::Sum,
            distinct: false,
            expr: Some(Box::new(Expression::var("m"))),
        });
        assert!(sum.contains_aggregate());

        let mut q = SelectQuery::new();
        q.projection = Projection::Items(vec![SelectItem::Expr {
            expr: sum,
            alias: Variable::new("total"),
        }]);
        assert!(q.is_aggregated());

        let plain = SelectQuery::new();
        assert!(!plain.is_aggregated());
    }

    #[test]
    fn triple_pattern_count_recurses() {
        let mut inner = GroupGraphPattern::new();
        inner.push_triple(TriplePattern::new(
            VarOrTerm::var("s"),
            rdf::vocab::rdfs::label(),
            VarOrTerm::var("l"),
        ));
        let mut outer = GroupGraphPattern::new();
        outer.push_triple(TriplePattern::new(
            VarOrTerm::var("s"),
            rdf::vocab::rdf::type_(),
            VarOrTerm::var("t"),
        ));
        outer.elements.push(PatternElement::Optional(inner.clone()));
        outer
            .elements
            .push(PatternElement::Union(inner.clone(), inner));
        assert_eq!(outer.triple_pattern_count(), 4);
    }

    #[test]
    fn function_and_aggregate_name_parsing() {
        assert_eq!(Function::from_name("regex"), Some(Function::Regex));
        assert_eq!(Function::from_name("isUri"), Some(Function::IsIri));
        assert_eq!(Function::from_name("nope"), None);
        assert_eq!(
            AggregateFunction::from_name("sum"),
            Some(AggregateFunction::Sum)
        );
        assert_eq!(AggregateFunction::from_name("median"), None);
    }

    #[test]
    fn output_variables() {
        let mut q = SelectQuery::new();
        assert_eq!(q.output_variables(), None);
        q.projection = Projection::Items(vec![
            SelectItem::Var(Variable::new("year")),
            SelectItem::Expr {
                expr: Expression::var("m"),
                alias: Variable::new("total"),
            },
        ]);
        let vars = q.output_variables().unwrap();
        assert_eq!(vars, vec![Variable::new("year"), Variable::new("total")]);
    }
}

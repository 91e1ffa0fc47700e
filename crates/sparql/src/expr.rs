//! Values and expressions of the id-level evaluator.
//!
//! [`Terms`] is the evaluator's view of term ids: ids below the graph's term
//! count are the graph's own, ids above it belong to a per-query **side
//! interner** holding the terms a query *computes* (BIND / expression /
//! aggregate results, `VALUES` and expression constants). The side interner
//! consults the graph's interner first, so one term never has two ids and
//! id equality stays term equality. [`Expr`] is an expression with its
//! variables resolved to row slots and its constants to ids — compiled once
//! per query, evaluated per row without a name lookup.

use std::cmp::Ordering;
use std::hash::RandomState;

use rdf::hash::{FxHashMap, FxHashSet};
use rdf::{Graph, Interner, Literal, Term, TermId};

use crate::ast::{AggregateFunction, ArithOp, CmpOp, Expression, Function};
use crate::eval::Rows;
use crate::numeric::{NumericSum, NumericValue};

/// The slot value of a variable that is not bound in a row.
pub(crate) const UNBOUND: TermId = TermId::MAX;

/// A possibly unbound id and how it reads as a number.
pub(crate) type SortKey = (TermId, Option<f64>);

/// The rows of one group, for aggregate evaluation.
#[derive(Clone, Copy)]
pub(crate) struct Group<'a> {
    pub rows: &'a Rows,
    pub members: &'a [usize],
}

/// An [`Expression`] resolved against one scope.
pub(crate) enum Expr {
    /// A variable's slot (`None`: not registered, so unbound in every row).
    Var(Option<usize>),
    Const(TermId),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Compare(Box<Expr>, CmpOp, Box<Expr>),
    Arithmetic(Box<Expr>, ArithOp, Box<Expr>),
    Neg(Box<Expr>),
    Call(Function, Vec<Expr>),
    Aggregate {
        function: AggregateFunction,
        distinct: bool,
        /// `None` is `COUNT(*)`.
        expr: Option<Box<Expr>>,
    },
    In(Box<Expr>, Vec<Expr>),
    /// `EXISTS` below the top level of an expression: a type error.
    Error,
}

/// Term ids of one evaluation: the graph's plus the side interner's.
pub(crate) struct Terms<'g> {
    pub graph: &'g Graph,
    /// First side-interner id (the graph's term count).
    base: TermId,
    /// Keyed (SipHash): it interns the query's own constants, which a
    /// request chooses. The id tables below hash ids this program assigned.
    computed: Interner<RandomState>,
    /// How each term met so far reads as a number, parsed once.
    numeric: FxHashMap<TermId, Option<NumericValue>>,
    /// Results of one-argument function calls, by (function, argument):
    /// `STR(?x)` over a million rows computes — and allocates — one string
    /// per distinct `?x`.
    unary_calls: FxHashMap<(u8, TermId), Option<TermId>>,
    /// The ids of `false` and `true`.
    booleans: [TermId; 2],
}

impl<'g> Terms<'g> {
    pub(crate) fn new(graph: &'g Graph) -> Self {
        let mut terms = Terms {
            graph,
            base: graph.term_count() as TermId,
            computed: Interner::default(),
            numeric: FxHashMap::default(),
            unary_calls: FxHashMap::default(),
            booleans: [UNBOUND; 2],
        };
        terms.booleans = [false, true].map(|b| terms.intern(Term::Literal(Literal::boolean(b))));
        terms
    }

    /// The term behind a bound id.
    pub(crate) fn get(&self, id: TermId) -> &Term {
        match id.checked_sub(self.base) {
            None => self.graph.term(id),
            Some(computed) => self.computed.resolve(computed),
        }
    }

    /// How many ids exist so far: every id is below this.
    pub(crate) fn issued(&self) -> usize {
        self.base as usize + self.computed.len()
    }

    /// The id of `term`: the graph's if it has one, else the side interner's.
    pub(crate) fn intern(&mut self, term: Term) -> TermId {
        if let Some(id) = self.graph.term_id(&term) {
            return id;
        }
        let id = self.base + self.computed.intern(&term);
        assert!(id < UNBOUND, "term id space exhausted");
        id
    }

    pub(crate) fn boolean(&self, value: bool) -> TermId {
        self.booleans[usize::from(value)]
    }

    fn integer(&mut self, value: i64) -> TermId {
        self.intern(Term::Literal(Literal::integer(value)))
    }

    fn string(&mut self, value: impl AsRef<str>) -> TermId {
        self.intern(Term::Literal(Literal::string(value)))
    }

    /// Wraps an f64 result as an integer literal when it is integral.
    fn number(&mut self, value: f64) -> TermId {
        if value.fract() == 0.0 && value.abs() < 9.0e15 {
            self.integer(value as i64)
        } else {
            self.intern(Term::Literal(Literal::decimal(value)))
        }
    }

    /// The numeric reading of a term (`None` for [`UNBOUND`] too).
    fn numeric(&mut self, id: TermId) -> Option<NumericValue> {
        if id == UNBOUND {
            return None;
        }
        if let Some(&known) = self.numeric.get(&id) {
            return known;
        }
        let value = NumericValue::of(self.get(id));
        self.numeric.insert(id, value);
        value
    }

    fn double(&mut self, id: TermId) -> Option<f64> {
        self.numeric(id).map(|value| value.double)
    }

    /// SPARQL effective boolean value.
    pub(crate) fn effective_boolean(&self, id: TermId) -> Option<bool> {
        match self.booleans.iter().position(|&b| b == id) {
            Some(value) => Some(value == 1),
            None => effective_boolean(self.get(id)),
        }
    }

    /// [`compare_terms`] over ids: numeric through the cache, equality of
    /// anything else on the ids alone.
    fn compare(&mut self, a: TermId, op: CmpOp, b: TermId) -> Option<bool> {
        if let (Some(na), Some(nb)) = (self.double(a), self.double(b)) {
            return compare_numbers(na, op, nb);
        }
        Some(match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            _ if a == b => apply_cmp(op, Ordering::Equal),
            _ => compare_non_numeric(self.get(a), op, self.get(b)),
        })
    }

    /// An id with its numeric reading looked up, for [`Terms::order`].
    pub(crate) fn sort_key(&mut self, id: TermId) -> SortKey {
        (id, self.double(id))
    }

    /// ORDER BY's ordering: unbound first, then numeric where both sides
    /// are — NaN after every other number, as in `Term` order — and `Term`
    /// order otherwise. A total order: numbers sit together in `Term` order
    /// too, so comparing them by value or by term agrees against anything
    /// else.
    pub(crate) fn order(&self, a: SortKey, b: SortKey) -> Ordering {
        match (a, b) {
            ((UNBOUND, _), (UNBOUND, _)) => Ordering::Equal,
            ((UNBOUND, _), _) => Ordering::Less,
            (_, (UNBOUND, _)) => Ordering::Greater,
            ((_, Some(na)), (_, Some(nb))) => na
                .partial_cmp(&nb)
                .unwrap_or_else(|| na.is_nan().cmp(&nb.is_nan())),
            ((a, _), (b, _)) => self.term_order(a, b),
        }
    }

    /// `Term` order of two bound ids.
    pub(crate) fn term_order(&self, a: TermId, b: TermId) -> Ordering {
        if a == b {
            Ordering::Equal
        } else {
            self.get(a).cmp(self.get(b))
        }
    }

    /// The string value of a term (IRI string, literal lexical form, blank label).
    fn text(&self, id: TermId) -> &str {
        match self.get(id) {
            Term::Iri(iri) => iri.as_str(),
            Term::Blank(b) => b.as_str(),
            Term::Literal(lit) => lit.lexical(),
        }
    }

    /// Resolves `expr`'s variables through `slot` and interns its constants.
    pub(crate) fn compile(
        &mut self,
        expr: &Expression,
        slot: &dyn Fn(&str) -> Option<usize>,
    ) -> Expr {
        let mut sub = |e: &Expression| Box::new(self.compile(e, slot));
        match expr {
            Expression::Var(v) => Expr::Var(slot(v.name())),
            Expression::Constant(t) => Expr::Const(self.intern(t.clone())),
            Expression::Not(e) => Expr::Not(sub(e)),
            Expression::And(a, b) => Expr::And(sub(a), sub(b)),
            Expression::Or(a, b) => Expr::Or(sub(a), sub(b)),
            Expression::Compare(a, op, b) => Expr::Compare(sub(a), *op, sub(b)),
            Expression::Arithmetic(a, op, b) => Expr::Arithmetic(sub(a), *op, sub(b)),
            Expression::Neg(e) => Expr::Neg(sub(e)),
            Expression::Call(function, args) => Expr::Call(
                *function,
                args.iter().map(|e| self.compile(e, slot)).collect(),
            ),
            Expression::Aggregate(aggregate) => Expr::Aggregate {
                function: aggregate.function,
                distinct: aggregate.distinct,
                expr: aggregate.expr.as_deref().map(sub),
            },
            Expression::In(e, list) => {
                let needle = sub(e);
                Expr::In(needle, list.iter().map(|e| self.compile(e, slot)).collect())
            }
            Expression::Exists(_) | Expression::NotExists(_) => Expr::Error,
        }
    }

    /// Evaluates `expr` on `row`; `None` is an unbound value or a type
    /// error. With `group`, aggregates reachable through the boolean,
    /// comparison and arithmetic operators range over the group's rows and
    /// `row` is its sample row.
    pub(crate) fn eval(
        &mut self,
        expr: &Expr,
        row: &[TermId],
        group: Option<Group>,
    ) -> Option<TermId> {
        Some(match expr {
            Expr::Var(slot) => match row[(*slot)?] {
                UNBOUND => return None,
                id => id,
            },
            Expr::Const(id) => *id,
            Expr::Not(inner) => {
                let value = self.eval(inner, row, group)?;
                self.boolean(!self.effective_boolean(value)?)
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                let mut side = |e| {
                    let value = self.eval(e, row, group)?;
                    self.effective_boolean(value)
                };
                // The value that decides the connective whatever the other
                // side is (even an error).
                let decisive = matches!(expr, Expr::Or(..));
                match (side(a), side(b)) {
                    (Some(x), _) | (_, Some(x)) if x == decisive => self.boolean(decisive),
                    (Some(_), Some(_)) => self.boolean(!decisive),
                    _ => return None,
                }
            }
            Expr::Compare(a, op, b) => {
                let va = self.eval(a, row, group)?;
                let vb = self.eval(b, row, group)?;
                let holds = self.compare(va, *op, vb)?;
                self.boolean(holds)
            }
            Expr::Arithmetic(a, op, b) => {
                let va = self.eval(a, row, group)?;
                let va = self.double(va)?;
                let vb = self.eval(b, row, group)?;
                let vb = self.double(vb)?;
                self.number(match op {
                    ArithOp::Add => va + vb,
                    ArithOp::Sub => va - vb,
                    ArithOp::Mul => va * vb,
                    ArithOp::Div if vb == 0.0 => return None,
                    ArithOp::Div => va / vb,
                })
            }
            Expr::Neg(inner) => {
                let value = self.eval(inner, row, None)?;
                let value = self.double(value)?;
                self.number(-value)
            }
            Expr::Call(function, args) => return self.call(*function, args, row),
            Expr::Aggregate {
                function,
                distinct,
                expr,
            } => return self.aggregate(*function, *distinct, expr.as_deref(), group?),
            Expr::In(needle, haystack) => {
                let value = self.eval(needle, row, None)?;
                let found = haystack.iter().any(|candidate| {
                    self.eval(candidate, row, None)
                        .is_some_and(|c| self.compare(value, CmpOp::Eq, c) == Some(true))
                });
                self.boolean(found)
            }
            Expr::Error => return None,
        })
    }

    fn call(&mut self, function: Function, args: &[Expr], row: &[TermId]) -> Option<TermId> {
        // Every function of one argument is pure and strict in its value;
        // only BOUND looks at the variable instead.
        if let ([only], true) = (args, function != Function::Bound) {
            if !matches!(only, Expr::Const(_)) {
                let value = self.eval(only, row, None)?;
                let key = (function as u8, value);
                if let Some(&known) = self.unary_calls.get(&key) {
                    return known;
                }
                let result = self.call(function, &[Expr::Const(value)], row);
                self.unary_calls.insert(key, result);
                return result;
            }
        }
        let arg = |terms: &mut Self, i: usize| terms.eval(args.get(i)?, row, None);
        Some(match function {
            Function::Bound => match args.first() {
                Some(Expr::Var(slot)) => self.boolean(slot.is_some_and(|s| row[s] != UNBOUND)),
                _ => return None,
            },
            Function::Str => {
                let value = arg(self, 0)?;
                self.intern(Term::Literal(Literal::string(self.text(value))))
            }
            Function::Lang | Function::Datatype => {
                let value = arg(self, 0)?;
                let literal = self.get(value).as_literal()?;
                let result = match function {
                    Function::Lang => Term::string(literal.language().unwrap_or("")),
                    _ => Term::Iri(literal.datatype().clone()),
                };
                self.intern(result)
            }
            Function::IsIri | Function::IsLiteral | Function::IsBlank => {
                let value = arg(self, 0)?;
                let term = self.get(value);
                self.boolean(match function {
                    Function::IsIri => term.is_iri(),
                    Function::IsLiteral => term.is_literal(),
                    _ => term.is_blank(),
                })
            }
            Function::Regex => {
                let (text, pattern) = (arg(self, 0)?, arg(self, 1)?);
                let flags = arg(self, 2);
                let (text, pattern) = (self.text(text), self.text(pattern));
                let matched = if flags.is_some_and(|f| self.text(f).contains('i')) {
                    regex_like_match(&text.to_lowercase(), &pattern.to_lowercase())
                } else {
                    regex_like_match(text, pattern)
                };
                self.boolean(matched)
            }
            Function::Contains | Function::StrStarts | Function::StrEnds => {
                let (text, part) = (arg(self, 0)?, arg(self, 1)?);
                let (text, part) = (self.text(text), self.text(part));
                self.boolean(match function {
                    Function::Contains => text.contains(part),
                    Function::StrStarts => text.starts_with(part),
                    _ => text.ends_with(part),
                })
            }
            Function::UCase => {
                let value = arg(self, 0)?;
                self.string(self.text(value).to_uppercase())
            }
            Function::LCase => {
                let value = arg(self, 0)?;
                self.string(self.text(value).to_lowercase())
            }
            Function::StrLen => {
                let value = arg(self, 0)?;
                self.integer(self.text(value).chars().count() as i64)
            }
            Function::Concat => {
                let mut out = String::new();
                for e in args {
                    let value = self.eval(e, row, None)?;
                    out.push_str(self.text(value));
                }
                self.string(out)
            }
            Function::Abs => {
                let value = arg(self, 0)?;
                let value = self.double(value)?;
                self.number(value.abs())
            }
            Function::Year | Function::Month => {
                let value = arg(self, 0)?;
                let digits = if function == Function::Year {
                    0..4
                } else {
                    5..7
                };
                let component = self.text(value).get(digits)?.parse::<i64>().ok()?;
                self.integer(component)
            }
            Function::If => {
                let condition = arg(self, 0)?;
                let branch = if self.effective_boolean(condition)? {
                    1
                } else {
                    2
                };
                return arg(self, branch);
            }
            Function::Coalesce => return args.iter().find_map(|e| self.eval(e, row, None)),
            Function::Iri => {
                let value = arg(self, 0)?;
                self.intern(Term::iri(self.text(value)))
            }
            Function::SameTerm => {
                let same = arg(self, 0)? == arg(self, 1)?;
                self.boolean(same)
            }
        })
    }

    fn aggregate(
        &mut self,
        function: AggregateFunction,
        distinct: bool,
        expr: Option<&Expr>,
        group: Group,
    ) -> Option<TermId> {
        // COUNT(*) counts rows.
        let Some(inner) = expr else {
            return Some(self.integer(group.members.len() as i64));
        };
        let mut values: Vec<TermId> = group
            .members
            .iter()
            .filter_map(|&member| self.eval(inner, group.rows.row(member), None))
            .collect();
        if distinct {
            let mut seen = FxHashSet::default();
            values.retain(|&value| seen.insert(value));
        }
        // Order-independent accumulation (integers exactly, floats through
        // the compensated expansion): the result depends only on the
        // multiset of values, so the columnar engine — which scans the same
        // values in a different (chunked, append-reordered) sequence
        // through the same NumericSum — stays bit-identical.
        let sum = |terms: &mut Self| {
            let mut sum = NumericSum::new();
            for &value in &values {
                sum.add_value(terms.numeric(value)?);
            }
            Some(sum)
        };
        Some(match function {
            AggregateFunction::Count => self.integer(values.len() as i64),
            AggregateFunction::Sum => {
                let total = sum(self)?.sum_term();
                self.intern(total)
            }
            AggregateFunction::Avg if values.is_empty() => self.integer(0),
            AggregateFunction::Avg => {
                let mean = sum(self)?.value() / values.len() as f64;
                self.intern(Term::Literal(Literal::decimal(mean)))
            }
            AggregateFunction::Min => values.into_iter().min_by(|&a, &b| self.term_order(a, b))?,
            AggregateFunction::Max => values.into_iter().max_by(|&a, &b| self.term_order(a, b))?,
            AggregateFunction::Sample => *values.first()?,
            AggregateFunction::GroupConcat => {
                let parts: Vec<&str> = values.iter().map(|&value| self.text(value)).collect();
                self.string(parts.join(" "))
            }
        })
    }
}

// ---- value helpers ---------------------------------------------------------

/// SPARQL effective boolean value.
fn effective_boolean(term: &Term) -> Option<bool> {
    match term {
        Term::Literal(lit) => {
            if let Some(b) = lit.as_boolean() {
                Some(b)
            } else if lit.is_numeric() {
                lit.as_double().map(|n| n != 0.0)
            } else if lit.language().is_some() || lit.datatype() == &rdf::vocab::xsd::string() {
                Some(!lit.lexical().is_empty())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// SPARQL value comparison: numeric when both sides are numeric literals,
/// lexical between literals (with equality also requiring matching
/// datatype/language), term identity otherwise. Returns `None` on type
/// errors. Public so that engines that must agree cell-for-cell with this
/// evaluator (the columnar backend) can reuse the exact same semantics.
pub fn compare_terms(a: &Term, op: CmpOp, b: &Term) -> Option<bool> {
    let numeric = |term: &Term| term.as_literal().and_then(Literal::as_double);
    match (numeric(a), numeric(b)) {
        (Some(na), Some(nb)) => compare_numbers(na, op, nb),
        _ => Some(compare_non_numeric(a, op, b)),
    }
}

/// [`compare_terms`] when both sides are numeric literals, on the `f64`s
/// their lexical forms parse to: `None` when either is NaN.
pub fn compare_numbers(a: f64, op: CmpOp, b: f64) -> Option<bool> {
    a.partial_cmp(&b).map(|ord| apply_cmp(op, ord))
}

/// [`compare_terms`] when at most one side is a numeric literal.
fn compare_non_numeric(a: &Term, op: CmpOp, b: &Term) -> bool {
    match (a, b, op) {
        (_, _, CmpOp::Eq) => a == b,
        (_, _, CmpOp::Ne) => a != b,
        // String/date-like comparison on lexical forms.
        (Term::Literal(la), Term::Literal(lb), _) => apply_cmp(op, la.lexical().cmp(lb.lexical())),
        // Ordering IRIs/blank nodes is not defined in SPARQL; we still
        // provide a deterministic order for robustness.
        _ => apply_cmp(op, a.cmp(b)),
    }
}

fn apply_cmp(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// A tiny "regex" matcher supporting the common idioms QB2OLAP emits:
/// plain substring search plus optional `^` / `$` anchors.
fn regex_like_match(text: &str, pattern: &str) -> bool {
    let starts = pattern.starts_with('^');
    let ends = pattern.ends_with('$') && pattern.len() > 1;
    let core = &pattern[usize::from(starts)..pattern.len() - usize::from(ends)];
    match (starts, ends) {
        (true, true) => text == core,
        (true, false) => text.starts_with(core),
        (false, true) => text.ends_with(core),
        (false, false) => text.contains(core),
    }
}

//! The query evaluator: executes parsed queries against an [`rdf::Graph`].
//!
//! Evaluation works on **term ids**, not terms. A partial solution is a
//! fixed-width row of [`TermId`]s — one slot per variable of the query,
//! `UNBOUND` where a variable has no binding — and the solutions of a
//! pattern are one flat `Rows` table. Triple patterns resolve their
//! constants to ids once and run index nested-loop joins over the graph's
//! SPO/POS/OSP ranges ([`Graph::matching_ids`]); sub-selects, `VALUES` and
//! `OPTIONAL` join whole tables; FILTER, BIND, GROUP BY, DISTINCT and
//! ORDER BY evaluate compiled expressions (`crate::expr`) over the ids.
//! A finished SELECT table leaves as [`EncodedSolutions`]: its ids are
//! re-numbered densely and each distinct term is cloned once. Decoding into
//! [`crate::Solutions`] happens at the endpoint's edge, never here. This is
//! sufficient for the workloads QB2OLAP generates (star-shaped observation
//! joins plus roll-up navigation joins and a final GROUP BY).

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use rdf::hash::FxHashMap;
use rdf::{Graph, Term, TermId};

use crate::ast::*;
use crate::error::SparqlError;
pub use crate::expr::{compare_numbers, compare_terms};
use crate::expr::{Expr, Group, SortKey, Terms, UNBOUND};
use crate::results::{EncodedSolutions, QueryResults};

/// Evaluates any query form against a graph — the evaluator's one entry.
/// A SELECT's finished table is re-numbered densely into
/// [`EncodedSolutions`], cloning each distinct term once.
pub fn evaluate_query(graph: &Graph, query: &Query) -> Result<QueryResults, SparqlError> {
    let select = match query {
        Query::Select(select) => select,
        Query::Ask(ask) => {
            let scope = Scope::new(|visit| ask.pattern.visit_variables(visit));
            let mut ev = Evaluator::new(graph, scope);
            let unit = Rows::unit(ev.scope.width);
            return Ok(QueryResults::Boolean(
                ev.eval_group(&ask.pattern, unit)?.len > 0,
            ));
        }
    };
    let mut ev = Evaluator::new(graph, Scope::default());
    let (names, mut table) = ev.run_select(select)?;
    let mut local: FxHashMap<TermId, u32> = FxHashMap::default();
    let mut terms = Vec::new();
    for id in table.ids.iter_mut().filter(|id| **id != UNBOUND) {
        let global = *id;
        *id = *local.entry(global).or_insert_with(|| {
            terms.push(ev.terms.get(global).clone());
            terms.len() as u32 - 1
        });
    }
    let variables = names.into_iter().map(Variable::new).collect();
    Ok(QueryResults::Solutions(EncodedSolutions::new(
        variables, terms, table.ids, table.len,
    )))
}

/// A table of partial solutions: `len` rows of `width` ids, row-major.
#[derive(Clone)]
pub(crate) struct Rows {
    width: usize,
    /// Kept explicitly: a table over zero slots still has a row count.
    len: usize,
    ids: Vec<TermId>,
}

impl Rows {
    fn new(width: usize) -> Self {
        Rows {
            width,
            len: 0,
            ids: Vec::new(),
        }
    }

    /// The join identity: one row binding nothing.
    fn unit(width: usize) -> Self {
        Rows {
            width,
            len: 1,
            ids: vec![UNBOUND; width],
        }
    }

    pub(crate) fn row(&self, index: usize) -> &[TermId] {
        &self.ids[index * self.width..(index + 1) * self.width]
    }

    fn row_mut(&mut self, index: usize) -> &mut [TermId] {
        &mut self.ids[index * self.width..(index + 1) * self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &[TermId]> + '_ {
        (0..self.len).map(|index| self.row(index))
    }

    fn push(&mut self, row: &[TermId]) {
        self.ids.extend_from_slice(row);
        self.len += 1;
    }

    /// Appends `row` extended by `bindings` (slot, id), unless a slot is
    /// already bound to something else — a repeated slot checks against the
    /// binding its first occurrence made. Unbound ids bind nothing.
    fn push_merged(&mut self, row: &[TermId], bindings: impl Iterator<Item = (usize, TermId)>) {
        let start = self.ids.len();
        self.ids.extend_from_slice(row);
        for (slot, id) in bindings.filter(|&(_, id)| id != UNBOUND) {
            let cell = &mut self.ids[start + slot];
            if *cell != UNBOUND && *cell != id {
                self.ids.truncate(start);
                return;
            }
            *cell = id;
        }
        self.len += 1;
    }

    fn append(&mut self, other: Rows) {
        self.ids.extend_from_slice(&other.ids);
        self.len += other.len;
    }

    /// Keeps the rows whose index `keep` accepts, in order.
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let (width, mut kept) = (self.width, 0);
        for index in 0..self.len {
            if keep(index) {
                self.ids
                    .copy_within(index * width..(index + 1) * width, kept * width);
                kept += 1;
            }
        }
        self.ids.truncate(kept * width);
        self.len = kept;
    }

    /// Binds `slot` to `column[i]` in every row `i` where that is bound
    /// (BIND / `AS` semantics: an error leaves the row as it was).
    fn bind_column(&mut self, slot: usize, column: &[TermId]) {
        for (index, &value) in column.iter().enumerate() {
            if value != UNBOUND {
                self.row_mut(index)[slot] = value;
            }
        }
    }

    /// The rows `order` names, narrowed to `slots`.
    fn gather(&self, order: impl Iterator<Item = usize>, slots: &[usize]) -> Rows {
        let mut out = Rows::new(slots.len());
        for index in order {
            let row = self.row(index);
            out.ids.extend(slots.iter().map(|&slot| row[slot]));
            out.len += 1;
        }
        out
    }
}

/// Numbers the rows of `keys` by distinct key in first-occurrence order:
/// each row's group, and each group's first row.
fn group_ids(keys: &Rows) -> (Vec<usize>, Vec<usize>) {
    let mut index: FxHashMap<&[TermId], usize> = FxHashMap::default();
    let mut firsts = Vec::new();
    let group_of = keys
        .iter()
        .enumerate()
        .map(|(row, key)| {
            *index.entry(key).or_insert_with(|| {
                firsts.push(row);
                firsts.len() - 1
            })
        })
        .collect();
    (group_of, firsts)
}

/// Sorts `items` stably by `order`. `Term`'s order — and with it ORDER BY's —
/// is not total over literals of mixed kinds (`"10" < 7 < 10 < "10"`), and
/// the standard library's sorts may panic on such an order; a plain merge
/// sort just leaves those rows in some order, and agrees with any other
/// stable sort wherever the order is consistent.
fn merge_sort(items: &mut Vec<usize>, order: impl Fn(usize, usize) -> Ordering) {
    let len = items.len();
    let mut merged = items.clone();
    let mut width = 1;
    while width < len {
        for start in (0..len).step_by(2 * width) {
            let (middle, end) = ((start + width).min(len), (start + 2 * width).min(len));
            let (mut left, mut right) = (start, middle);
            for slot in &mut merged[start..end] {
                // The right run only wins when strictly smaller: stability.
                let from = if right < end
                    && (left == middle || order(items[right], items[left]).is_lt())
                {
                    &mut right
                } else {
                    &mut left
                };
                *slot = items[*from];
                *from += 1;
            }
        }
        std::mem::swap(items, &mut merged);
        width *= 2;
    }
}

/// Joins every row of `rows` with every compatible row of `other`, whose
/// columns bind `slots`: two rows are compatible when no slot is bound to
/// different ids in both. Output is `rows`-major, `other` order within.
/// The columns bound in every row on both sides form a sort key, so each
/// row meets only its candidates; with no such column that is every row.
fn join(rows: &Rows, slots: &[usize], other: &Rows) -> Rows {
    let key: Vec<usize> = (0..slots.len())
        .filter(|&column| {
            other.iter().all(|row| row[column] != UNBOUND)
                && rows.iter().all(|row| row[slots[column]] != UNBOUND)
        })
        .collect();
    let other_key = |index: usize| key.iter().map(move |&column| other.row(index)[column]);
    let mut order: Vec<usize> = (0..other.len).collect();
    order.sort_by(|&a, &b| other_key(a).cmp(other_key(b)));
    let mut out = Rows::new(rows.width);
    for row in rows.iter() {
        let row_key = || key.iter().map(|&column| row[slots[column]]);
        let start = order.partition_point(|&index| other_key(index).lt(row_key()));
        for &index in order[start..]
            .iter()
            .take_while(|&&index| other_key(index).eq(row_key()))
        {
            out.push_merged(
                row,
                slots.iter().copied().zip(other.row(index).iter().copied()),
            );
        }
    }
    out
}

/// The variables of one (sub-)query, in registration order. Their names are
/// the request's, so `index` keeps the keyed default hasher. Slots are
/// handed out as evaluation first meets a variable — exactly the order
/// `SELECT *` reports — while the row width is fixed up front from every
/// name the query mentions, plus one hidden slot (the last) that tags rows
/// with their origin while an OPTIONAL or EXISTS body runs over them.
#[derive(Default)]
struct Scope<'q> {
    vars: Vec<&'q str>,
    index: HashMap<&'q str, usize>,
    width: usize,
}

impl<'q> Scope<'q> {
    fn new(visit_variables: impl FnOnce(&mut dyn FnMut(&'q Variable))) -> Self {
        let mut names = HashSet::new();
        visit_variables(&mut |v| {
            names.insert(v.name());
        });
        Scope {
            width: names.len() + 1,
            ..Scope::default()
        }
    }
}

/// One position of a triple pattern, resolved once per pattern.
#[derive(Clone, Copy, PartialEq)]
enum Position {
    Slot(usize),
    /// `None`: a constant the graph has never seen.
    Constant(Option<TermId>),
}

impl Position {
    fn bound(self, row: &[TermId]) -> Option<TermId> {
        match self {
            Position::Constant(id) => id,
            Position::Slot(slot) => Some(row[slot]).filter(|&id| id != UNBOUND),
        }
    }
}

struct Evaluator<'g, 'q> {
    terms: Terms<'g>,
    scope: Scope<'q>,
}

impl<'g, 'q> Evaluator<'g, 'q> {
    fn new(graph: &'g Graph, scope: Scope<'q>) -> Self {
        Evaluator {
            terms: Terms::new(graph),
            scope,
        }
    }

    fn var_id(&mut self, name: &'q str) -> usize {
        let next = self.scope.vars.len();
        debug_assert!(
            next + 1 < self.scope.width || self.scope.index.contains_key(name),
            "?{name} was not counted when the rows were sized"
        );
        *self.scope.index.entry(name).or_insert_with(|| {
            self.scope.vars.push(name);
            next
        })
    }

    /// Evaluates `expr` once per row, `UNBOUND` standing for errors. A
    /// top-level `EXISTS` runs its body over all rows at once.
    fn eval_column(&mut self, expr: &'q Expression, rows: &Rows) -> Vec<TermId> {
        if let Expression::Exists(pattern) | Expression::NotExists(pattern) = expr {
            let negated = matches!(expr, Expression::NotExists(_));
            return match self.correlated(pattern, rows) {
                Err(_) => vec![UNBOUND; rows.len],
                Ok(matches) => {
                    let mut found = vec![negated; rows.len];
                    for row in matches.iter() {
                        found[row[matches.width - 1] as usize] = !negated;
                    }
                    found.into_iter().map(|b| self.terms.boolean(b)).collect()
                }
            };
        }
        let index = &self.scope.index;
        let compiled = self.terms.compile(expr, &|name| index.get(name).copied());
        let value = |row| self.terms.eval(&compiled, row, None).unwrap_or(UNBOUND);
        rows.iter().map(value).collect()
    }

    /// Evaluates `inner` with every row of `rows` as its own input, all at
    /// once: the result rows carry the index of the row they extend in the
    /// hidden slot. (Nothing runs over no rows, so the variables of a body
    /// that is never reached stay unregistered.)
    fn correlated(
        &mut self,
        inner: &'q GroupGraphPattern,
        rows: &Rows,
    ) -> Result<Rows, SparqlError> {
        let mut tagged = rows.clone();
        for index in 0..tagged.len {
            tagged.row_mut(index)[rows.width - 1] = index as TermId;
        }
        match rows.len {
            0 => Ok(tagged),
            _ => self.eval_group(inner, tagged),
        }
    }

    // ---- SELECT pipeline -------------------------------------------------

    /// Evaluates a (sub-)query in a scope of its own, down to the table of
    /// its projected columns.
    fn run_select(&mut self, query: &'q SelectQuery) -> Result<(Vec<&'q str>, Rows), SparqlError> {
        let scope = Scope::new(|visit| query.visit_variables(visit));
        let outer = std::mem::replace(&mut self.scope, scope);
        let result = self.select(query);
        self.scope = outer;
        result
    }

    fn select(&mut self, query: &'q SelectQuery) -> Result<(Vec<&'q str>, Rows), SparqlError> {
        let rows = self.eval_group(&query.pattern, Rows::unit(self.scope.width))?;
        let (mut rows, names) = if query.is_aggregated() {
            self.aggregate(query, rows)?
        } else {
            self.project_plain(query, rows)
        };
        let slots: Vec<usize> = names.iter().map(|name| self.scope.index[name]).collect();

        // DISTINCT on the projected values, keeping first occurrences.
        if query.distinct {
            let (_, firsts) = group_ids(&rows.gather(0..rows.len, &slots));
            let mut firsts = firsts.into_iter().peekable();
            rows.retain(|index| firsts.next_if_eq(&index).is_some());
        }

        // ORDER BY: one key column per condition, with the numeric reading
        // of each key looked up once; ties keep their order.
        let mut order: Vec<usize> = (0..rows.len).collect();
        if !query.order_by.is_empty() {
            let keys: Vec<(Vec<SortKey>, bool)> = query
                .order_by
                .iter()
                .map(|cond| {
                    let column = self.eval_column(&cond.expr, &rows);
                    let keyed = column.into_iter().map(|id| self.terms.sort_key(id));
                    (keyed.collect(), cond.descending)
                })
                .collect();
            merge_sort(&mut order, |a, b| {
                keys.iter()
                    .map(|(column, descending)| {
                        let ord = self.terms.order(column[a], column[b]);
                        if *descending {
                            ord.reverse()
                        } else {
                            ord
                        }
                    })
                    .find(|ord| ord.is_ne())
                    .unwrap_or(Ordering::Equal)
            });
        }

        // OFFSET / LIMIT, then the final projection to the output width.
        let window = order
            .into_iter()
            .skip(query.offset.unwrap_or(0))
            .take(query.limit.unwrap_or(usize::MAX));
        Ok((names, rows.gather(window, &slots)))
    }

    /// Projection of a non-aggregated query: binds expression aliases into
    /// the rows and determines the output variable list.
    fn project_plain(&mut self, query: &'q SelectQuery, mut rows: Rows) -> (Rows, Vec<&'q str>) {
        let Projection::Items(items) = &query.projection else {
            return (rows, self.scope.vars.clone());
        };
        for item in items {
            let slot = self.var_id(item.output_variable().name());
            if let SelectItem::Expr { expr, .. } = item {
                let column = self.eval_column(expr, &rows);
                rows.bind_column(slot, &column);
            }
        }
        (
            rows,
            items
                .iter()
                .map(|item| item.output_variable().name())
                .collect(),
        )
    }

    /// Grouping and aggregation: one output row per group that passes
    /// HAVING, binding only the projected variables, groups in `Term` order
    /// of their keys.
    fn aggregate(
        &mut self,
        query: &'q SelectQuery,
        rows: Rows,
    ) -> Result<(Rows, Vec<&'q str>), SparqlError> {
        let Projection::Items(items) = &query.projection else {
            return Err(SparqlError::unsupported(
                "SELECT * cannot be combined with GROUP BY / aggregates",
            ));
        };

        // Partition rows into groups keyed by the GROUP BY expressions; with
        // none there is a single (possibly empty) implicit group.
        let columns: Vec<Vec<TermId>> = query
            .group_by
            .iter()
            .map(|e| self.eval_column(e, &rows))
            .collect();
        let mut keys = Rows::new(columns.len());
        for row in 0..rows.len {
            keys.ids.extend(columns.iter().map(|column| column[row]));
            keys.len += 1;
        }
        let (group_of, firsts) = match columns.len() {
            0 => (vec![0; rows.len], vec![0]),
            _ => group_ids(&keys),
        };
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); firsts.len()];
        for (row, &group) in group_of.iter().enumerate() {
            members[group].push(row);
        }
        let mut groups: Vec<usize> = (0..firsts.len()).collect();
        merge_sort(&mut groups, |a, b| {
            let (a, b) = (keys.row(firsts[a]), keys.row(firsts[b]));
            // Key order is plain `Term` order, unbound first.
            let mut pairs = a
                .iter()
                .zip(b)
                .map(|(&a, &b)| self.terms.order((a, None), (b, None)));
            pairs.find(|ord| ord.is_ne()).unwrap_or(Ordering::Equal)
        });

        let names: Vec<&str> = items
            .iter()
            .map(|item| item.output_variable().name())
            .collect();
        let slots: Vec<usize> = names.iter().map(|name| self.var_id(name)).collect();
        let index = &self.scope.index;
        let slot_of = |name: &str| index.get(name).copied();
        let mut compile = |e: &Expression| self.terms.compile(e, &slot_of);
        let having: Vec<Expr> = query.having.iter().map(&mut compile).collect();
        let projected: Vec<Expr> = items
            .iter()
            .map(|item| match item {
                SelectItem::Var(v) => Expr::Var(slot_of(v.name())),
                SelectItem::Expr { expr, .. } => compile(expr),
            })
            .collect();

        let unbound = vec![UNBOUND; rows.width];
        let mut out = Rows::new(rows.width);
        for members in groups.into_iter().map(|group| &members[group]) {
            let sample = members.first().map_or(&unbound[..], |&row| rows.row(row));
            let group = Some(Group {
                rows: &rows,
                members,
            });
            let passes = |terms: &mut Terms, e| {
                terms
                    .eval(e, sample, group)
                    .and_then(|value| terms.effective_boolean(value))
                    == Some(true)
            };
            if !having.iter().all(|e| passes(&mut self.terms, e)) {
                continue;
            }
            out.push(&unbound);
            for (expr, &slot) in projected.iter().zip(&slots) {
                if let Some(value) = self.terms.eval(expr, sample, group) {
                    out.row_mut(out.len - 1)[slot] = value;
                }
            }
        }
        Ok((out, names))
    }

    // ---- graph pattern evaluation -----------------------------------------

    fn eval_group(
        &mut self,
        group: &'q GroupGraphPattern,
        input: Rows,
    ) -> Result<Rows, SparqlError> {
        let mut rows = input;
        let mut filters: Vec<&Expression> = Vec::new();

        for element in &group.elements {
            match element {
                PatternElement::Triple(pattern) => rows = self.eval_triple(pattern, &rows),
                PatternElement::Filter(expr) => filters.push(expr),
                PatternElement::Optional(inner) => {
                    // A left join: the body's extensions of each row in its
                    // place, the row itself where there are none. A UNION
                    // in the body emits branch by branch, so bring each
                    // row's extensions together first (stably).
                    let tag = rows.width - 1;
                    let matches = self.correlated(inner, &rows)?;
                    let mut order: Vec<usize> = (0..matches.len).collect();
                    order.sort_by_key(|&index| matches.row(index)[tag]);
                    let mut order = order.into_iter().peekable();
                    let mut next = Rows::new(rows.width);
                    for (index, row) in rows.iter().enumerate() {
                        let before = next.len;
                        while let Some(m) =
                            order.next_if(|&m| matches.row(m)[tag] == index as TermId)
                        {
                            next.push(matches.row(m));
                            // An enclosing body's tag, not this one's.
                            next.row_mut(next.len - 1)[tag] = row[tag];
                        }
                        if next.len == before {
                            next.push(row);
                        }
                    }
                    rows = next;
                }
                PatternElement::Union(left, right) => {
                    let mut combined = self.eval_group(left, rows.clone())?;
                    combined.append(self.eval_group(right, rows)?);
                    rows = combined;
                }
                PatternElement::Minus(inner) => {
                    let right = self.eval_group(inner, Rows::unit(rows.width))?;
                    let vars = self.scope.vars.len();
                    let excludes = |row: &[TermId], r: &[TermId]| {
                        let shared = || (0..vars).filter(|&v| row[v] != UNBOUND && r[v] != UNBOUND);
                        shared().next().is_some() && shared().all(|v| row[v] == r[v])
                    };
                    let kept: Vec<bool> = rows
                        .iter()
                        .map(|row| !right.iter().any(|r| excludes(row, r)))
                        .collect();
                    rows.retain(|index| kept[index]);
                }
                PatternElement::Bind { expr, var } => {
                    let slot = self.var_id(var.name());
                    let column = self.eval_column(expr, &rows);
                    rows.bind_column(slot, &column);
                }
                PatternElement::Values {
                    vars,
                    rows: value_rows,
                } => {
                    let slots: Vec<usize> = vars.iter().map(|v| self.var_id(v.name())).collect();
                    let mut table = Rows::new(slots.len());
                    for value_row in value_rows {
                        let cells = value_row.iter().map(|term| match term {
                            Some(term) => self.terms.intern(term.clone()),
                            None => UNBOUND,
                        });
                        table
                            .ids
                            .extend(cells.chain(std::iter::repeat(UNBOUND)).take(slots.len()));
                        table.len += 1;
                    }
                    rows = join(&rows, &slots, &table);
                }
                PatternElement::SubSelect(sub) => {
                    let (names, table) = self.run_select(sub)?;
                    let slots: Vec<usize> = names.iter().map(|name| self.var_id(name)).collect();
                    rows = join(&rows, &slots, &table);
                }
                PatternElement::Group(inner) => rows = self.eval_group(inner, rows)?,
            }
        }

        // Apply the group's filters over its final rows.
        for filter in filters {
            let column = self.eval_column(filter, &rows);
            let passes = |id| id != UNBOUND && self.terms.effective_boolean(id) == Some(true);
            rows.retain(|index| passes(column[index]));
        }
        Ok(rows)
    }

    fn eval_triple(&mut self, pattern: &'q TriplePattern, rows: &Rows) -> Rows {
        let graph = self.terms.graph;
        let subject = match &pattern.subject {
            VarOrTerm::Var(v) => Position::Slot(self.var_id(v.name())),
            VarOrTerm::Term(t) => Position::Constant(graph.term_id(t)),
        };
        let predicate = match &pattern.predicate {
            VarOrIri::Var(v) => Position::Slot(self.var_id(v.name())),
            VarOrIri::Iri(iri) => Position::Constant(graph.term_id(&Term::Iri(iri.clone()))),
        };
        let object = match &pattern.object {
            VarOrTerm::Var(v) => Position::Slot(self.var_id(v.name())),
            VarOrTerm::Term(t) => Position::Constant(graph.term_id(t)),
        };
        let positions = [subject, predicate, object];
        let mut out = Rows::new(rows.width);
        if positions.contains(&Position::Constant(None)) {
            return out;
        }
        // The star joins of a cube query extend each row about once.
        out.ids.reserve(rows.ids.len());
        // A slot holding a computed term (or a literal, in predicate
        // position) finds an empty range: such ids are in no index.
        for row in rows.iter() {
            let [s, p, o] = positions.map(|position| position.bound(row));
            for (s, p, o) in graph.matching_ids(s, p, o) {
                // Positions that were bound match themselves; a variable
                // repeated in the pattern must match its first binding.
                let matched = positions.iter().zip([s, p, o]);
                out.push_merged(
                    row,
                    matched.filter_map(|(position, id)| match position {
                        Position::Slot(slot) => Some((*slot, id)),
                        Position::Constant(_) => None,
                    }),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, parse_select};
    use crate::results::Solutions;
    use crate::testutil::evaluate_decoded;
    use rdf::parser::parse_turtle;
    use rdf::Iri;

    fn graph() -> Graph {
        parse_turtle(
            r#"
@prefix ex: <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:obs1 a ex:Observation ; ex:country ex:SY ; ex:year "2013"^^xsd:gYear ; ex:value 10 .
ex:obs2 a ex:Observation ; ex:country ex:SY ; ex:year "2014"^^xsd:gYear ; ex:value 20 .
ex:obs3 a ex:Observation ; ex:country ex:NG ; ex:year "2014"^^xsd:gYear ; ex:value 5 .
ex:obs4 a ex:Observation ; ex:country ex:FR ; ex:year "2014"^^xsd:gYear ; ex:value 7 .

ex:SY ex:continent ex:Asia ; rdfs:label "Syria"@en .
ex:NG ex:continent ex:Africa ; rdfs:label "Nigeria"@en .
ex:FR ex:continent ex:Europe ; rdfs:label "France"@en .
"#,
        )
        .unwrap()
        .into_graph()
    }

    fn select(g: &Graph, q: &str) -> Solutions {
        evaluate_decoded(g, &parse_select(q).unwrap())
    }

    #[test]
    fn basic_bgp_join() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             SELECT ?obs ?continent WHERE {
               ?obs ex:country ?c .
               ?c ex:continent ?continent .
             }",
        );
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn filter_on_numeric_value() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             SELECT ?obs WHERE { ?obs ex:value ?v . FILTER(?v >= 10) }",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn group_by_aggregation() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             SELECT ?continent (SUM(?v) AS ?total) WHERE {
               ?obs ex:country ?c ; ex:value ?v .
               ?c ex:continent ?continent .
             } GROUP BY ?continent ORDER BY DESC(?total)",
        );
        assert_eq!(s.len(), 3);
        // Asia (10+20=30) should come first.
        assert_eq!(
            s.get(0, "continent"),
            Some(&Term::iri("http://example.org/Asia"))
        );
        assert_eq!(s.get(0, "total"), Some(&Term::integer(30)));
    }

    #[test]
    fn count_star_and_avg() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             SELECT (COUNT(*) AS ?n) (AVG(?v) AS ?avg) WHERE { ?obs ex:value ?v . }",
        );
        assert_eq!(s.get(0, "n"), Some(&Term::integer(4)));
        let avg = s
            .get(0, "avg")
            .unwrap()
            .as_literal()
            .unwrap()
            .as_double()
            .unwrap();
        assert!((avg - 10.5).abs() < 1e-9);
    }

    #[test]
    fn optional_keeps_unmatched_rows() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
             SELECT ?c ?label WHERE {
               ?obs ex:country ?c .
               OPTIONAL { ?c rdfs:label ?label . FILTER(CONTAINS(STR(?label), \"Nig\")) }
             }",
        );
        assert_eq!(s.len(), 4);
        let bound = s.rows.iter().filter(|r| r[1].is_some()).count();
        assert_eq!(bound, 1);
    }

    #[test]
    fn union_and_distinct() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             SELECT DISTINCT ?x WHERE {
               { ?x ex:continent ex:Asia } UNION { ?x ex:continent ex:Africa }
             }",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn values_restricts_bindings() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             SELECT ?obs WHERE {
               VALUES ?c { ex:SY }
               ?obs ex:country ?c .
             }",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn bind_and_str_functions() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
             SELECT ?c ?upper WHERE {
               ?c rdfs:label ?label .
               BIND(UCASE(STR(?label)) AS ?upper)
               FILTER(STRSTARTS(?upper, \"SY\"))
             }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(
            s.get(0, "upper").unwrap().as_literal().unwrap().lexical(),
            "SYRIA"
        );
    }

    #[test]
    fn subselect_joins_with_outer_pattern() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             SELECT ?c ?total WHERE {
               { SELECT ?c (SUM(?v) AS ?total) WHERE { ?o ex:country ?c ; ex:value ?v } GROUP BY ?c }
               ?c ex:continent ex:Asia .
             }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0, "total"), Some(&Term::integer(30)));
    }

    #[test]
    fn minus_removes_matching_rows() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             SELECT ?c WHERE {
               ?obs ex:country ?c .
               MINUS { ?c ex:continent ex:Asia }
             }",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn exists_filter() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             SELECT DISTINCT ?c WHERE {
               ?obs ex:country ?c .
               FILTER EXISTS { ?c ex:continent ex:Europe }
             }",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ask_queries() {
        let g = graph();
        let yes = evaluate_query(
            &g,
            &parse_query("PREFIX ex: <http://example.org/> ASK { ex:SY ex:continent ex:Asia }")
                .unwrap(),
        )
        .unwrap();
        assert_eq!(yes.boolean(), Some(true));
        let no = evaluate_query(
            &g,
            &parse_query("PREFIX ex: <http://example.org/> ASK { ex:SY ex:continent ex:Europe }")
                .unwrap(),
        )
        .unwrap();
        assert_eq!(no.boolean(), Some(false));
    }

    #[test]
    fn order_limit_offset() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             SELECT ?obs ?v WHERE { ?obs ex:value ?v } ORDER BY DESC(?v) LIMIT 2 OFFSET 1",
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0, "v"), Some(&Term::integer(10)));
        assert_eq!(s.get(1, "v"), Some(&Term::integer(7)));
    }

    #[test]
    fn having_filters_groups() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             SELECT ?c (SUM(?v) AS ?total) WHERE { ?o ex:country ?c ; ex:value ?v }
             GROUP BY ?c HAVING (SUM(?v) > 6)",
        );
        assert_eq!(s.len(), 2, "SY (30) and FR (7) pass, NG (5) does not");
    }

    #[test]
    fn year_function_on_gyear() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             SELECT ?obs (YEAR(?y) AS ?yr) WHERE { ?obs ex:year ?y } ORDER BY ?obs",
        );
        assert_eq!(s.get(0, "yr"), Some(&Term::integer(2013)));
    }

    #[test]
    fn repeated_variable_in_pattern() {
        let mut g = graph();
        // self-loop: ex:X ex:rel ex:X
        g.insert(&rdf::Triple::new(
            Term::iri("http://example.org/X"),
            Iri::new("http://example.org/rel"),
            Term::iri("http://example.org/X"),
        ));
        g.insert(&rdf::Triple::new(
            Term::iri("http://example.org/X"),
            Iri::new("http://example.org/rel"),
            Term::iri("http://example.org/Y"),
        ));
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:rel ?x }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0, "x"), Some(&Term::iri("http://example.org/X")));
    }

    #[test]
    fn in_expression_and_lang() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
             SELECT ?c WHERE {
               ?c rdfs:label ?l .
               FILTER(STR(?l) IN (\"Syria\", \"France\"))
               FILTER(LANG(?l) = \"en\")
             } ORDER BY ?c",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn wildcard_projection_contains_all_vars() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/> SELECT * WHERE { ?obs ex:value ?v }",
        );
        assert_eq!(s.variables.len(), 2);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn empty_group_count_is_zero() {
        let g = graph();
        let s = select(
            &g,
            "PREFIX ex: <http://example.org/>
             SELECT (COUNT(*) AS ?n) WHERE { ?x ex:doesNotExist ?y }",
        );
        assert_eq!(s.get(0, "n"), Some(&Term::integer(0)));
    }
}

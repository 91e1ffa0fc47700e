//! The query evaluator: executes parsed queries against an [`rdf::Graph`].
//!
//! Evaluation works on **term ids**, not terms. A partial solution is a
//! fixed-width row of [`TermId`]s — one slot per variable of the query,
//! `UNBOUND` where a variable has no binding — and the solutions of a
//! pattern are one flat `Rows` table. A group evaluates its elements in
//! order, each run of triple patterns as one planned step (`crate::plan`):
//! **plan** — join the run's patterns in estimated-cardinality order and
//! give each of the group's FILTERs the first step that binds every
//! variable it reads; **execute** — index nested-loop joins over the
//! graph's SPO/POS/OSP ranges ([`Graph::range`]), filtering as the
//! plan says; **restore** — sort a reordered run's rows back into the
//! order textual evaluation yields, so every result is the textual one,
//! row for row; one SELECT shape may stop at the first witness per answer
//! instead (`plan::witness_split`). Sub-selects, `VALUES` and `OPTIONAL`
//! join whole tables; FILTERs no run can place, BIND, GROUP BY, DISTINCT
//! and ORDER BY evaluate compiled expressions (`crate::expr`) over the
//! ids. A finished SELECT table leaves as [`EncodedSolutions`]: its ids
//! are re-numbered densely in row-major first-occurrence order and each
//! distinct term is cloned once. That table is what every caller of
//! [`crate::Endpoint::select`] reads.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use rdf::hash::{FxHashMap, FxHashSet};
use rdf::{Graph, Term, TermId};

use crate::ast::*;
use crate::error::SparqlError;
pub use crate::expr::{compare_numbers, compare_terms};
use crate::expr::{Expr, Group, SortKey, Terms, UNBOUND};
use crate::plan::{self, FilterSlots, Position};
use crate::results::{EncodedSolutions, QueryResults};

/// Evaluates any query form against a graph — the evaluator's one entry.
/// A SELECT's finished table is re-numbered densely into
/// [`EncodedSolutions`], cloning each distinct term once.
pub fn evaluate_query(graph: &Graph, query: &Query) -> Result<QueryResults, SparqlError> {
    evaluate_in(graph, query, JoinOrder::Planned)
}

/// [`evaluate_query`] with the runs of triple patterns joined in `order`.
pub(crate) fn evaluate_in(
    graph: &Graph,
    query: &Query,
    order: JoinOrder,
) -> Result<QueryResults, SparqlError> {
    let mut ev = Evaluator::new(graph, Scope::default(), order);
    let result = ev.evaluate(query);
    COUNTERS.with(|totals| totals.set(totals.get().plus(ev.counters)));
    result
}

/// The work the evaluator has done: rows out of triple-pattern steps, index
/// lookups and the index keys they walked. Machine-independent, so a plan's
/// effect shows the same on any box; the query executor reports them in its
/// profile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalCounters {
    /// Rows out of every triple-pattern step, before any FILTER.
    pub rows_intermediate: u64,
    /// [`Graph::range`] lookups.
    pub index_probes: u64,
    /// Keys those ranges yielded, plus their seeks.
    pub keys_walked: u64,
}

/// The granularity [`NUMBERS`] grows in: 16 KiB of entries, so a store
/// that gains terms between SELECTs regrows it once per 4 096 new ids, and
/// it holds 4 bytes per id issued plus less than one step.
const NUMBERS_STEP: usize = 4_096;

thread_local! {
    /// The dense table [`Evaluator::number`] renumbers a SELECT's ids
    /// through: entry `id` holds the id's new number plus one while a
    /// table is numbered, and 0 otherwise. Kept between SELECTs, so one
    /// costs its cells and its distinct terms, not the store's size; it
    /// grows only when the ids outgrow it, to the ids issued rounded up to
    /// a multiple of [`NUMBERS_STEP`].
    static NUMBERS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static COUNTERS: Cell<EvalCounters> = const {
        Cell::new(EvalCounters { rows_intermediate: 0, index_probes: 0, keys_walked: 0 })
    };
}

impl EvalCounters {
    /// The totals of every evaluation this thread has run; the difference
    /// of two readings ([`Self::since`]) counts the evaluations between
    /// them, whichever endpoint wrapper they went through.
    pub fn thread_totals() -> Self {
        COUNTERS.with(Cell::get)
    }

    /// The work done since the `earlier` reading.
    pub fn since(self, earlier: Self) -> Self {
        EvalCounters {
            rows_intermediate: self.rows_intermediate - earlier.rows_intermediate,
            index_probes: self.index_probes - earlier.index_probes,
            keys_walked: self.keys_walked - earlier.keys_walked,
        }
    }

    /// The work of two readings together.
    pub fn plus(self, other: Self) -> Self {
        EvalCounters {
            rows_intermediate: self.rows_intermediate + other.rows_intermediate,
            index_probes: self.index_probes + other.index_probes,
            keys_walked: self.keys_walked + other.keys_walked,
        }
    }
}

/// The order the patterns of a run join in. The planned order is the only
/// one a query runs in; the other two exist for the tests that check it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinOrder {
    /// Greedy on estimated rows, FILTERs where their variables are bound,
    /// rows restored to textual order.
    Planned,
    /// Textual order with the group's FILTERs over its final rows: the
    /// reference the planned order must reproduce row for row.
    #[cfg(any(test, feature = "testutil"))]
    Textual,
    /// The planned order without the restoring sort: a defect the
    /// planned-vs-textual oracle must catch.
    #[cfg(any(test, feature = "testutil"))]
    Unrestored,
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

struct Evaluator<'g, 'q> {
    terms: Terms<'g>,
    scope: Scope<'q>,
    join_order: JoinOrder,
    counters: EvalCounters,
}

impl<'g, 'q> Evaluator<'g, 'q> {
    fn new(graph: &'g Graph, scope: Scope<'q>, join_order: JoinOrder) -> Self {
        Evaluator {
            terms: Terms::new(graph),
            scope,
            join_order,
            counters: EvalCounters::default(),
        }
    }

    fn evaluate(&mut self, query: &'q Query) -> Result<QueryResults, SparqlError> {
        let select = match query {
            Query::Select(select) => select,
            Query::Ask(ask) => {
                self.scope = Scope::new(|visit| ask.pattern.visit_variables(visit));
                let unit = Rows::unit(self.scope.width);
                return Ok(QueryResults::Boolean(
                    self.eval_group(&ask.pattern, unit)?.len > 0,
                ));
            }
        };
        let (names, mut table) = self.run_select(select)?;
        let terms = self.number(&mut table.ids);
        let variables = names.into_iter().map(Variable::new).collect();
        Ok(QueryResults::Solutions(EncodedSolutions::new(
            variables, terms, table.ids, table.len,
        )))
    }

    /// Renumbers the bound ids of a finished table densely, in row-major
    /// first-occurrence order, through the thread's [`NUMBERS`] table, and
    /// returns the term of each number, cloned once. Leaves the table all
    /// zero again, resetting only the entries it set.
    fn number(&self, ids: &mut [TermId]) -> Vec<Term> {
        NUMBERS.with_borrow_mut(|numbers| {
            let issued = self.terms.issued();
            if numbers.len() < issued {
                // All zero between SELECTs, so a zeroed table replaces it.
                *numbers = vec![0; issued.next_multiple_of(NUMBERS_STEP)];
            }
            let mut globals: Vec<TermId> = Vec::new();
            for id in ids.iter_mut().filter(|id| **id != UNBOUND) {
                let number = &mut numbers[*id as usize];
                if *number == 0 {
                    globals.push(*id);
                    *number = globals.len() as u32;
                }
                *id = *number - 1;
            }
            globals
                .into_iter()
                .map(|id| {
                    numbers[id as usize] = 0;
                    self.terms.get(id).clone()
                })
                .collect()
        })
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
        let split = self.join_order.plans().then(|| plan::witness_split(query));
        if let Some(rows) = split
            .flatten()
            .and_then(|split| self.first_witnesses(query, &split))
        {
            let (names, table, tied) = self.modify(query, rows, true)?;
            // ORDER BY ties distinct keys only when they are equal numbers
            // (`10`, `10.0`); those keep their arrival order, which the
            // textual run decides. Such a query runs again in full.
            if !tied {
                return Ok((names, table));
            }
        }
        let rows = self.eval_group(&query.pattern, Rows::unit(self.scope.width))?;
        let (names, table, _) = self.modify(query, rows, false)?;
        Ok((names, table))
    }

    /// The solution modifiers over a query's solutions: projection or
    /// aggregation, DISTINCT, ORDER BY, OFFSET / LIMIT. With `find_ties`,
    /// also whether ORDER BY left two rows equal on every key.
    fn modify(
        &mut self,
        query: &'q SelectQuery,
        rows: Rows,
        find_ties: bool,
    ) -> Result<(Vec<&'q str>, Rows, bool), SparqlError> {
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
        let mut tied = false;
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
            let compare = |&a: &usize, &b: &usize| {
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
            };
            order.sort_by(compare);
            tied = find_ties
                && order
                    .windows(2)
                    .any(|pair| compare(&pair[0], &pair[1]).is_eq());
        }

        // OFFSET / LIMIT, then the final projection to the output width.
        let window = order
            .into_iter()
            .skip(query.offset.unwrap_or(0))
            .take(query.limit.unwrap_or(usize::MAX));
        Ok((names, rows.gather(window, &slots), tied))
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
        groups.sort_by(|&a, &b| {
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
        // The group's filters; a run that places one takes it out.
        let mut filters: Vec<Option<&'q Expression>> = group
            .elements
            .iter()
            .filter_map(|element| match element {
                PatternElement::Filter(expr) => Some(Some(expr)),
                _ => None,
            })
            .collect();

        let mut next = 0;
        while let Some(element) = group.elements.get(next) {
            next += 1;
            match element {
                PatternElement::Triple(_) => {
                    // The run: this pattern and the patterns after it,
                    // across FILTERs (group-wide, wherever they stand).
                    let len = group.elements[next - 1..]
                        .iter()
                        .take_while(|e| {
                            matches!(e, PatternElement::Triple(_) | PatternElement::Filter(_))
                        })
                        .count();
                    let run: Vec<&'q TriplePattern> = group.elements[next - 1..next - 1 + len]
                        .iter()
                        .filter_map(|element| match element {
                            PatternElement::Triple(pattern) => Some(pattern),
                            _ => None,
                        })
                        .collect();
                    next += len - 1;
                    let rest = &group.elements[next..];
                    rows = self.eval_run(group, rest, &run, rows, &mut filters);
                }
                PatternElement::Filter(_) => {}
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

        // The filters no run placed, over the group's final rows.
        for filter in filters.into_iter().flatten() {
            self.filter(filter, &mut rows);
        }
        Ok(rows)
    }

    /// Keeps the rows on which `filter` is true.
    fn filter(&mut self, filter: &'q Expression, rows: &mut Rows) {
        let column = self.eval_column(filter, rows);
        let passes = |id| id != UNBOUND && self.terms.effective_boolean(id) == Some(true);
        rows.retain(|index| passes(column[index]));
    }

    /// Evaluates one run of `group`'s triple patterns over `rows`: plan,
    /// execute, restore. Runs the `filters` the plan places, taking them
    /// out of the list. `rest` holds the group's elements after the run: a
    /// body among them that runs per row (an OPTIONAL, an EXISTS) registers
    /// its variables only if rows reach it, so a FILTER placed early could
    /// change what `SELECT *` reports; then the run places none.
    fn eval_run(
        &mut self,
        group: &'q GroupGraphPattern,
        rest: &'q [PatternElement],
        patterns: &[&'q TriplePattern],
        mut rows: Rows,
        filters: &mut [Option<&'q Expression>],
    ) -> Rows {
        // Registered in textual order, as textual evaluation meets them.
        let positions: Vec<[Position; 3]> = patterns.iter().map(|p| self.positions(p)).collect();
        if !self.join_order.plans() || rows.len == 0 {
            for positions in &positions {
                rows = self.join_triple(*positions, &rows);
            }
            return rows;
        }

        let tag = rows.width - 1;
        let entering: Vec<bool> = (0..tag)
            .map(|slot| rows.iter().all(|row| row[slot] != UNBOUND))
            .collect();
        let places = !rest
            .iter()
            .any(|element| !matches!(element, PatternElement::Filter(_)) && runs_per_row(element));
        let offered = if places { filters } else { &mut [] };
        let (plan, mut after) = self.plan_steps(group, &positions, &entering, offered);

        for filter in std::mem::take(&mut after[0]) {
            self.filter(filter, &mut rows);
        }
        let reorders = plan.reorders();
        // A reordered run tags each row with its index, for the restore.
        let mut tags = Vec::new();
        if reorders {
            tags = rows.iter().map(|row| row[tag]).collect();
            for index in 0..rows.len {
                rows.row_mut(index)[tag] = index as TermId;
            }
        }
        let out = self.join_steps(&positions, &plan.order, &mut after, &rows);
        if !reorders {
            return out;
        }
        self.restore(out, &rows, &positions, &tags)
    }

    /// Plans `positions` as one run of `group` entered by rows that bind
    /// the `entering` slots, offered each FILTER in `filters` that the run
    /// may place: the plan, and per step the FILTERs to run after it
    /// (`[0]`: on the rows entering the run). A placed FILTER is taken out
    /// of `filters`.
    fn plan_steps(
        &self,
        group: &'q GroupGraphPattern,
        positions: &[[Position; 3]],
        entering: &[bool],
        filters: &mut [Option<&'q Expression>],
    ) -> (plan::RunPlan, Vec<Vec<&'q Expression>>) {
        let (offered, slots) = self.offered(group, filters);
        let plan = plan::plan_run(self.terms.graph, positions, entering, &slots);
        let mut after: Vec<Vec<&'q Expression>> = vec![Vec::new(); plan.order.len() + 1];
        for (index, step) in offered.into_iter().zip(&plan.filter_after) {
            if let Some(step) = *step {
                after[step].extend(filters[index].take());
            }
        }
        (plan, after)
    }

    /// The FILTERs in `filters` that a run of `group` may place: their
    /// indexes and slots.
    fn offered(
        &self,
        group: &'q GroupGraphPattern,
        filters: &[Option<&'q Expression>],
    ) -> (Vec<usize>, Vec<FilterSlots>) {
        filters
            .iter()
            .enumerate()
            .filter_map(|(index, filter)| Some((index, self.placeable((*filter)?, group)?)))
            .unzip()
    }

    /// Joins `rows` with the patterns `steps` names, in turn, running the
    /// FILTERs in `after[k]` after the `k`-th step.
    fn join_steps(
        &mut self,
        positions: &[[Position; 3]],
        steps: &[usize],
        after: &mut [Vec<&'q Expression>],
        rows: &Rows,
    ) -> Rows {
        let mut out: Option<Rows> = None;
        for (step, &pattern) in steps.iter().enumerate() {
            let mut next = self.join_triple(positions[pattern], out.as_ref().unwrap_or(rows));
            for filter in std::mem::take(&mut after[step + 1]) {
                self.filter(filter, &mut next);
            }
            out = Some(next);
        }
        out.unwrap_or_else(|| rows.clone())
    }

    /// Sorts the rows a reordered run yielded back into textual order —
    /// by input row, then by the ids textual evaluation met them in
    /// ([`plan::textual_key`]) — and gives each row its input row's tag
    /// back. Distinct rows have distinct keys, so the order is exactly the
    /// textual one.
    fn restore(
        &self,
        out: Rows,
        input: &Rows,
        positions: &[[Position; 3]],
        tags: &[TermId],
    ) -> Rows {
        let tag = out.width - 1;
        let mut order: Vec<usize> = (0..out.len).collect();
        // The key's slots, and the input row they were derived for: rows
        // entering a run mostly bind the same slots, and share one key.
        let mut key: (Vec<usize>, Option<&[TermId]>) = (Vec::new(), None);
        let same_slots = |a: &[TermId], b: &[TermId]| {
            a.iter()
                .zip(b)
                .all(|(x, y)| (*x == UNBOUND) == (*y == UNBOUND))
        };
        let mut start = 0;
        while start < out.len && self.join_order.restores() {
            let origin = out.row(start)[tag];
            let end = start
                + (start..out.len)
                    .take_while(|&i| out.row(i)[tag] == origin)
                    .count();
            let row = input.row(origin as usize);
            if end - start > 1 {
                if !key.1.is_some_and(|keyed| same_slots(keyed, row)) {
                    key = (plan::textual_key(positions, row), Some(row));
                }
                let (slots, out) = (&key.0, &out);
                let key_of = |index: usize| slots.iter().map(move |&slot| out.row(index)[slot]);
                order[start..end].sort_unstable_by(|&a, &b| key_of(a).cmp(key_of(b)));
            }
            start = end;
        }
        let all: Vec<usize> = (0..out.width).collect();
        let mut restored = out.gather(order.into_iter(), &all);
        for index in 0..restored.len {
            let row = restored.row_mut(index);
            row[tag] = tags[row[tag] as usize];
        }
        restored
    }

    /// Evaluates the one run of a query [`plan::witness_split`] splits,
    /// stopping at the first witness per key: the driver's steps join as
    /// any run's do, but for its last ([`Self::witness_step`]). `None` when
    /// the full join is estimated cheaper ([`plan::witnesses_pay`]).
    fn first_witnesses(
        &mut self,
        query: &'q SelectQuery,
        split: &plan::WitnessSplit,
    ) -> Option<Rows> {
        let (width, group) = (self.scope.width, &query.pattern);
        let (mut patterns, mut filters) = (Vec::new(), Vec::new());
        for element in &group.elements {
            match element {
                PatternElement::Triple(pattern) => patterns.push(self.positions(pattern)),
                PatternElement::Filter(filter) => filters.push(Some(filter)),
                _ => unreachable!("a split query's WHERE is one run"),
            }
        }
        if patterns
            .iter()
            .any(|pattern| pattern.contains(&Position::Constant(None)))
        {
            return Some(Rows::new(width));
        }
        let driver: Vec<[Position; 3]> = split.driver.iter().map(|&p| patterns[p]).collect();
        let checks: Vec<[Position; 3]> = split.checks.iter().map(|&p| patterns[p]).collect();
        let entering = vec![false; width];
        let (_, slots) = self.offered(group, &filters);
        let (plan, mut after) = self.plan_steps(group, &driver, &entering, &mut filters);
        // The driver binds every variable a FILTER reads, so it places
        // them all; a FILTER left over would go unchecked.
        let first = driver[plan.order[0]];
        if filters.iter().any(Option::is_some)
            || !plan::witnesses_pay(self.terms.graph, &patterns, first, &entering, &slots)
        {
            return None;
        }
        // The ORDER BY keys are the projected variables.
        let index = &self.scope.index;
        let key: Vec<usize> = query
            .order_by
            .iter()
            .filter_map(|condition| match &condition.expr {
                Expression::Var(v) => index.get(v.name()).copied(),
                _ => None,
            })
            .collect();

        let mut rows = Rows::unit(width);
        for filter in std::mem::take(&mut after[0]) {
            self.filter(filter, &mut rows);
        }
        let (&last, steps) = plan.order.split_last().expect("a driver holds a pattern");
        let rows = self.join_steps(&driver, steps, &mut after, &rows);
        let index = &self.scope.index;
        let slot_of = |name: &str| index.get(name).copied();
        let last_filters: Vec<Expr> = after[driver.len()]
            .iter()
            .map(|filter| self.terms.compile(filter, &slot_of))
            .collect();
        Some(self.witness_step(driver[last], &rows, &last_filters, &checks, &key))
    }

    /// The driver's last step: extends `rows` by the matches of `positions`
    /// until each `key` has a witness, a row that passes `filters` and
    /// every existence check. A match of a witnessed key is skipped before
    /// it becomes a row, and where the key is read off the first components
    /// of the range's key order ([`witness_prefix`]), one seek skips every
    /// other match of that key.
    fn witness_step(
        &mut self,
        positions: [Position; 3],
        rows: &Rows,
        filters: &[Expr],
        checks: &[[Position; 3]],
        key: &[usize],
    ) -> Rows {
        // Each key slot's id, from the match where the pattern holds the
        // slot (a slot the row binds matches itself), else from the row.
        let sources: Vec<Result<usize, usize>> = key
            .iter()
            .map(|&slot| {
                let held = positions.iter().position(|&p| p == Position::Slot(slot));
                held.ok_or(slot)
            })
            .collect();
        let mut witnessed: FxHashSet<Box<[TermId]>> = FxHashSet::default();
        // The last key met that has a witness: where no seek skips them, a
        // key's other matches come next and cost one comparison each.
        let (mut probe, mut seen) = (Vec::with_capacity(key.len()), Vec::new());
        let (mut candidate, mut out) = (Rows::new(rows.width), Rows::new(rows.width));
        let graph = self.terms.graph;
        let mut walked = 0;
        for row in rows.iter() {
            let bound = positions.map(|position| position.bound(row));
            let mut range = graph.range(bound[0], bound[1], bound[2]);
            let prefix = witness_prefix(range.order(), bound, &sources);
            while let Some((s, p, o)) = range.next() {
                walked += 1;
                let ids = [s, p, o];
                probe.clear();
                probe.extend(sources.iter().map(|source| match *source {
                    Ok(position) => ids[position],
                    Err(slot) => row[slot],
                }));
                if probe != seen && !witnessed.contains(probe.as_slice()) {
                    candidate.ids.clear();
                    candidate.len = 0;
                    candidate.push_merged(row, slot_bindings(positions, ids));
                    if candidate.len == 0 {
                        continue;
                    }
                    let merged = candidate.row(0);
                    self.counters.rows_intermediate += 1;
                    let passes = |terms: &mut Terms, filter| {
                        let value = terms.eval(filter, merged, None);
                        value.is_some_and(|id| terms.effective_boolean(id) == Some(true))
                    };
                    if !filters.iter().all(|filter| passes(&mut self.terms, filter))
                        || !checks.iter().all(|&check| self.exists(check, merged))
                    {
                        continue;
                    }
                    out.push(merged);
                    witnessed.insert(probe.as_slice().into());
                }
                std::mem::swap(&mut probe, &mut seen);
                match prefix {
                    Some(0) => break,
                    Some(prefix) => {
                        range.seek_past((s, p, o), prefix);
                        walked += 1;
                    }
                    None => {}
                }
            }
        }
        self.counters.index_probes += rows.len as u64;
        self.counters.keys_walked += walked;
        out
    }

    /// Whether `check` has a match that agrees with `row`, in one probe: a
    /// variable the pattern repeats must match itself.
    fn exists(&mut self, check: [Position; 3], row: &[TermId]) -> bool {
        let [s, p, o] = check.map(|position| position.bound(row));
        let agrees = |ids: [TermId; 3]| {
            (0..3).all(|a| (a + 1..3).all(|b| check[a] != check[b] || ids[a] == ids[b]))
        };
        let mut found = false;
        for (s, p, o) in self.terms.graph.range(s, p, o) {
            self.counters.keys_walked += 1;
            if agrees([s, p, o]) {
                found = true;
                break;
            }
        }
        self.counters.index_probes += 1;
        self.counters.rows_intermediate += u64::from(found);
        found
    }

    /// The slots a FILTER reads, if a run may place it: it holds no
    /// `EXISTS`, every variable it reads is in scope, and no BIND of the
    /// group rebinds one (a value seen early could still change). Also the
    /// slot it pins to one value, if it is an equality with a constant.
    fn placeable(
        &self,
        filter: &'q Expression,
        group: &'q GroupGraphPattern,
    ) -> Option<FilterSlots> {
        if filter.contains_exists() {
            return None;
        }
        let mut names = Vec::new();
        filter.visit_variables(&mut |v| names.push(v.name()));
        if names.iter().any(|name| binds(group, name)) {
            return None;
        }
        let slot_of = |name: &str| self.scope.index.get(name).copied();
        let slots = names
            .iter()
            .map(|name| slot_of(name))
            .collect::<Option<Vec<usize>>>()?;
        let variable = |e: &'q Expression| match e {
            Expression::Var(v) => Some(v),
            Expression::Call(Function::Str, args) => match args.as_slice() {
                [Expression::Var(v)] => Some(v),
                _ => None,
            },
            _ => None,
        };
        let pinned = match filter {
            Expression::Compare(a, CmpOp::Eq, b) => match (&**a, &**b) {
                (e, Expression::Constant(_)) | (Expression::Constant(_), e) => variable(e),
                _ => None,
            },
            _ => None,
        };
        Some(FilterSlots {
            slots,
            pinned: pinned.and_then(|v| slot_of(v.name())),
        })
    }

    /// A triple pattern's positions; registers its variables.
    fn positions(&mut self, pattern: &'q TriplePattern) -> [Position; 3] {
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
        [subject, predicate, object]
    }

    /// Extends every row of `rows` by each match of a triple pattern.
    fn join_triple(&mut self, positions: [Position; 3], rows: &Rows) -> Rows {
        let graph = self.terms.graph;
        let mut out = Rows::new(rows.width);
        if positions.contains(&Position::Constant(None)) {
            return out;
        }
        // The star joins of a cube query extend each row about once.
        out.ids.reserve(rows.ids.len());
        // A slot holding a computed term (or a literal, in predicate
        // position) finds an empty range: such ids are in no index.
        let mut walked = 0;
        for row in rows.iter() {
            let [s, p, o] = positions.map(|position| position.bound(row));
            graph.range(s, p, o).for_each(|(s, p, o)| {
                walked += 1;
                out.push_merged(row, slot_bindings(positions, [s, p, o]));
            });
        }
        self.counters.index_probes += rows.len as u64;
        self.counters.rows_intermediate += out.len as u64;
        self.counters.keys_walked += walked;
        out
    }
}

impl JoinOrder {
    /// Whether runs are planned at all.
    fn plans(self) -> bool {
        match self {
            JoinOrder::Planned => true,
            #[cfg(any(test, feature = "testutil"))]
            JoinOrder::Textual => false,
            #[cfg(any(test, feature = "testutil"))]
            JoinOrder::Unrestored => true,
        }
    }

    /// Whether a reordered run's rows are sorted back into textual order.
    fn restores(self) -> bool {
        match self {
            JoinOrder::Planned => true,
            #[cfg(any(test, feature = "testutil"))]
            JoinOrder::Textual => true,
            #[cfg(any(test, feature = "testutil"))]
            JoinOrder::Unrestored => false,
        }
    }
}

/// How many leading components of a range's key `order` fix the witness
/// key of its matches, where `bound` holds the range's bound components and
/// `sources` the key's ([`Evaluator::witness_step`]): the bound ones, then
/// exactly the free positions the key reads, when those come first among
/// the free ones. `Some(0)` when the key reads no free position (every
/// match of the range has the row's key), `None` when no prefix short of
/// the whole key fixes it.
fn witness_prefix(
    order: [usize; 3],
    bound: [Option<TermId>; 3],
    sources: &[Result<usize, usize>],
) -> Option<usize> {
    let read = |position: usize| bound[position].is_none() && sources.contains(&Ok(position));
    let fixed = order
        .iter()
        .take_while(|&&position| bound[position].is_some())
        .count();
    match order.iter().filter(|&&position| read(position)).count() {
        0 => Some(0),
        reads if fixed + reads < 3 && order[fixed..fixed + reads].iter().all(|&p| read(p)) => {
            Some(fixed + reads)
        }
        _ => None,
    }
}

/// What one match of a pattern binds: (slot, id) per variable position.
/// Positions that were bound match themselves; a variable repeated in the
/// pattern must match its first binding ([`Rows::push_merged`]).
fn slot_bindings(
    positions: [Position; 3],
    ids: [TermId; 3],
) -> impl Iterator<Item = (usize, TermId)> {
    positions
        .into_iter()
        .zip(ids)
        .filter_map(|(position, id)| match position {
            Position::Slot(slot) => Some((slot, id)),
            Position::Constant(_) => None,
        })
}

/// Whether evaluating `element` runs a body once per row that reaches it —
/// an OPTIONAL, or an EXISTS in a BIND or a nested group's FILTER.
fn runs_per_row(element: &PatternElement) -> bool {
    match element {
        PatternElement::Optional(_) => true,
        PatternElement::Bind { expr, .. } | PatternElement::Filter(expr) => expr.contains_exists(),
        PatternElement::Group(g) => g.elements.iter().any(runs_per_row),
        PatternElement::Union(a, b) => a.elements.iter().chain(&b.elements).any(runs_per_row),
        PatternElement::Triple(_)
        | PatternElement::Minus(_)
        | PatternElement::Values { .. }
        | PatternElement::SubSelect(_) => false,
    }
}

/// Whether a BIND in `group` — or in a body whose rows replace the group's
/// (OPTIONAL, UNION, a nested group) — assigns `name`.
fn binds(group: &GroupGraphPattern, name: &str) -> bool {
    group.elements.iter().any(|element| match element {
        PatternElement::Bind { var, .. } => var.name() == name,
        PatternElement::Optional(g) | PatternElement::Group(g) => binds(g, name),
        PatternElement::Union(a, b) => binds(a, name) || binds(b, name),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, parse_select};
    use crate::testutil::evaluate_select;
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

    fn select(g: &Graph, q: &str) -> EncodedSolutions {
        evaluate_select(g, &parse_select(q).unwrap())
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
        let bound = (0..s.len())
            .filter(|&r| s.get(r, "label").is_some())
            .count();
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

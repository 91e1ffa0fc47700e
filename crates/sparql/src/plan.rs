//! The plan step of the evaluator: the order a run of triple patterns joins
//! in, where the group's FILTERs run, and the key that puts a reordered
//! run's rows back into the order textual evaluation yields.
//!
//! A *run* is a maximal sequence of a group's triple patterns with nothing
//! between them but FILTERs; every other element (OPTIONAL, UNION, MINUS,
//! BIND, VALUES, a sub-select, a nested group) is a barrier that no pattern
//! moves across. [`plan_run`] orders a run greedily on estimated output
//! rows, the way oxigraph's `PlanNode` builder separates planning from
//! evaluation: constant positions are counted from the graph's sorted runs
//! ([`Graph::count_matching`]), and a position whose variable is already
//! bound — or pinned to one value by an equality FILTER — divides that
//! count by the number of distinct values it takes. That number is read
//! off the first matching triple: the count with its value fixed is the
//! fan-out of one value, and count ÷ fan-out the distinct values. A pattern
//! that shares no variable with what is bound (a cross product) is taken
//! only while it is estimated at one row or less, or when nothing else is
//! left. Ties keep textual order, so a run whose textual order is already
//! greedy — the cube build's pivot, the enrichment probes — is not moved,
//! and so is a run the greedy order would not save half its rows on: a
//! reordered run pays a sort to restore textual row order.
//!
//! One SELECT shape may stop at the first witness per answer instead
//! ([`witness_split`], [`witnesses_pay`]).

use rdf::{Graph, TermId};

use crate::ast::{Expression, PatternElement, Projection, SelectItem, SelectQuery};
use crate::expr::UNBOUND;

/// One position of a triple pattern, resolved once per pattern.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Position {
    Slot(usize),
    /// `None`: a constant the graph has never seen.
    Constant(Option<TermId>),
}

impl Position {
    /// The id this position holds in `row`, if any.
    pub(crate) fn bound(self, row: &[TermId]) -> Option<TermId> {
        match self {
            Position::Constant(id) => id,
            Position::Slot(slot) => Some(row[slot]).filter(|&id| id != UNBOUND),
        }
    }
}

/// A FILTER a run may place: the slots it reads, and the slot an equality
/// with a constant (`?v = c`, `STR(?v) = c`) pins to one value, if it is
/// one.
pub(crate) struct FilterSlots {
    pub(crate) slots: Vec<usize>,
    pub(crate) pinned: Option<usize>,
}

/// The compiled plan of one run.
pub(crate) struct RunPlan {
    /// Indexes into the run's patterns, in execution order.
    pub(crate) order: Vec<usize>,
    /// For each filter offered to the planner: `Some(0)` to run it on the
    /// rows entering the run, `Some(k)` after the `k`-th step (1-based),
    /// `None` when the run never binds all of its slots.
    pub(crate) filter_after: Vec<Option<usize>>,
}

impl RunPlan {
    /// True when the order is not the patterns' textual order.
    pub(crate) fn reorders(&self) -> bool {
        self.order
            .iter()
            .enumerate()
            .any(|(step, &pattern)| step != pattern)
    }
}

/// What the planner knows of one pattern before it is placed.
struct Estimate {
    positions: [Position; 3],
    /// Triples matching the constant positions.
    count: usize,
    /// Per position: triples matching the constants with that position
    /// fixed to its value in the first match — one value's fan-out.
    fan_out: [usize; 3],
}

impl Estimate {
    fn new(graph: &Graph, positions: [Position; 3]) -> Self {
        let constants = positions.map(|position| match position {
            Position::Constant(id) => id,
            Position::Slot(_) => None,
        });
        let absent = positions.contains(&Position::Constant(None));
        let [s, p, o] = constants;
        let count = if absent {
            0
        } else {
            graph.count_matching(s, p, o)
        };
        let mut fan_out = [0; 3];
        if let Some((s0, p0, o0)) = graph.range(s, p, o).next().filter(|_| count > 0) {
            for (position, value) in [s0, p0, o0].into_iter().enumerate() {
                let mut fixed = constants;
                fixed[position] = Some(value);
                let [s, p, o] = fixed;
                fan_out[position] = graph.count_matching(s, p, o);
            }
        }
        Estimate {
            positions,
            count,
            fan_out,
        }
    }

    /// Estimated rows per input row, given which slots hold one value.
    fn rows(&self, known: &[bool]) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let count = self.count as f64;
        let mut rows = count;
        for (position, fan_out) in self.positions.iter().zip(self.fan_out) {
            if matches!(position, Position::Slot(slot) if known[*slot]) {
                rows = rows * fan_out as f64 / count;
            }
        }
        rows
    }
}

/// The slots of a pattern's variable positions.
fn slots(positions: &[Position; 3]) -> impl Iterator<Item = usize> + '_ {
    positions.iter().filter_map(|position| match position {
        Position::Slot(slot) => Some(*slot),
        Position::Constant(_) => None,
    })
}

/// Orders a run's patterns and places the filters offered to it.
/// `entering` holds, per slot, whether every row entering the run binds it.
pub(crate) fn plan_run(
    graph: &Graph,
    patterns: &[[Position; 3]],
    entering: &[bool],
    filters: &[FilterSlots],
) -> RunPlan {
    // A single pattern has one order, and needs no estimate.
    let order = match patterns.len() {
        1 => vec![0],
        _ => greedy_order(graph, patterns, entering, filters),
    };
    // Each filter runs after the first step that leaves all its slots bound.
    let mut bound = entering.to_vec();
    let mut filter_after = vec![None; filters.len()];
    for step in 0..=order.len() {
        if step > 0 {
            for slot in slots(&patterns[order[step - 1]]) {
                bound[slot] = true;
            }
        }
        for (filter, after) in filters.iter().zip(&mut filter_after) {
            if after.is_none() && filter.slots.iter().all(|&slot| bound[slot]) {
                *after = Some(step);
            }
        }
    }
    RunPlan {
        order,
        filter_after,
    }
}

/// The greedy join order: at each step the pattern with the fewest
/// estimated rows among those that join what is bound (or stay at one row
/// or less), the textually first on a tie. The textual order stays when
/// the greedy one is not estimated to join at most half its rows: a
/// reordered run pays a sort of its output to restore textual order, and
/// a small saving does not cover it (a roll-up saves 2 of 16 row steps
/// and would sort 40 000 rows).
fn greedy_order(
    graph: &Graph,
    patterns: &[[Position; 3]],
    entering: &[bool],
    filters: &[FilterSlots],
) -> Vec<usize> {
    let estimates: Vec<Estimate> = patterns
        .iter()
        .map(|&positions| Estimate::new(graph, positions))
        .collect();
    let mut known = entering.to_vec();
    for slot in filters.iter().filter_map(|filter| filter.pinned) {
        known[slot] = true;
    }
    let order = greedy(patterns, &estimates, entering, known.clone());
    let textual: Vec<usize> = (0..patterns.len()).collect();
    let joined = |order: &[usize]| rows_joined(patterns, &estimates, order, known.clone());
    match joined(&order) * 2.0 <= joined(&textual) {
        true => order,
        false => textual,
    }
}

/// Estimated rows out of every step of joining in `order`.
fn rows_joined(
    patterns: &[[Position; 3]],
    estimates: &[Estimate],
    order: &[usize],
    mut known: Vec<bool>,
) -> f64 {
    let (mut rows, mut total) = (1.0, 0.0);
    for &pattern in order {
        rows *= estimates[pattern].rows(&known);
        total += rows;
        for slot in slots(&patterns[pattern]) {
            known[slot] = true;
        }
    }
    total
}

/// The greedy order itself; `known` holds the slots bound on entry or
/// pinned by a FILTER.
fn greedy(
    patterns: &[[Position; 3]],
    estimates: &[Estimate],
    entering: &[bool],
    mut known: Vec<bool>,
) -> Vec<usize> {
    let mut bound = entering.to_vec();
    let mut left: Vec<usize> = (0..patterns.len()).collect();
    let mut order = Vec::with_capacity(patterns.len());
    while !left.is_empty() {
        let rows = |pattern: usize| estimates[pattern].rows(&known);
        let joins = |pattern: usize| {
            let mut slots = slots(&patterns[pattern]).peekable();
            slots.peek().is_none() || slots.any(|slot| bound[slot])
        };
        let allowed = |pattern: usize| joins(pattern) || rows(pattern) <= 1.0;
        let any_allowed = left.iter().any(|&pattern| allowed(pattern));
        let mut best: Option<(usize, f64)> = None;
        for (at, &pattern) in left.iter().enumerate() {
            if any_allowed && !allowed(pattern) {
                continue;
            }
            let estimate = rows(pattern);
            if best.is_none_or(|(_, least)| estimate < least) {
                best = Some((at, estimate));
            }
        }
        let (at, _) = best.expect("a pattern is left");
        let pattern = left.remove(at);
        for slot in slots(&patterns[pattern]) {
            bound[slot] = true;
            known[slot] = true;
        }
        order.push(pattern);
    }
    order
}

/// How [`witness_split`] splits a run: indexes into the run's triple
/// patterns, in textual order.
pub(crate) struct WitnessSplit {
    pub(crate) driver: Vec<usize>,
    pub(crate) checks: Vec<usize>,
}

/// The split of `query`'s run, if the query qualifies: DISTINCT and not
/// aggregated; a WHERE of triple patterns and FILTERs only, no FILTER with
/// EXISTS, every variable a FILTER reads bound by a pattern; plain projected
/// variables, each bound by a pattern; ORDER BY keys that are plain
/// variables, exactly the projected ones (in any order and direction); and
/// at least one *existential* variable, one the patterns bind but the
/// query does not project. Then the output is the sorted set of keys some
/// solution binds, whichever solution it is, so the evaluator may try each
/// key's solutions only until one exists.
///
/// The run splits into a *driver*, the patterns that bind the keys and
/// whatever joins them, and *existence checks*, patterns whose variables
/// are bound by the driver or private to them (in no other pattern, read by
/// no FILTER): each check is one probe that finds a match or drops the row.
/// Every pattern starts in the driver. Each in turn, fewest shared
/// variables first (the leaves of the join), moves to the checks if every
/// check, itself included, still finds each of its variables either
/// private to it or bound by a driver pattern.
///
/// The driver's last step computes each match's key first and skips a key
/// already witnessed before the match becomes a row; a new key's row must
/// pass the step's FILTERs and every check to become its witness. One row
/// per key comes out, and no restoring sort runs. Whether this beats the
/// full join depends on the data: [`witnesses_pay`].
pub(crate) fn witness_split(query: &SelectQuery) -> Option<WitnessSplit> {
    let Projection::Items(items) = &query.projection else {
        return None;
    };
    if !query.distinct || query.is_aggregated() || !query.having.is_empty() {
        return None;
    }
    let projected = items
        .iter()
        .map(|item| match item {
            SelectItem::Var(v) => Some(v.name()),
            SelectItem::Expr { .. } => None,
        })
        .collect::<Option<Vec<&str>>>()?;
    let ordered = query
        .order_by
        .iter()
        .map(|condition| match &condition.expr {
            Expression::Var(v) => Some(v.name()),
            _ => None,
        })
        .collect::<Option<Vec<&str>>>()?;
    if ordered.is_empty()
        || !ordered.iter().all(|name| projected.contains(name))
        || !projected.iter().all(|name| ordered.contains(name))
    {
        return None;
    }
    let (mut vars, mut read): (Vec<Vec<&str>>, Vec<&str>) = (Vec::new(), Vec::new());
    for element in &query.pattern.elements {
        match element {
            PatternElement::Triple(pattern) => {
                vars.push(pattern.variables().iter().map(|v| v.name()).collect())
            }
            PatternElement::Filter(filter) if !filter.contains_exists() => {
                filter.visit_variables(&mut |v| read.push(v.name()))
            }
            _ => return None,
        }
    }
    let bound = |name: &&str| vars.iter().any(|names| names.contains(name));
    let existential = vars.iter().flatten().any(|name| !projected.contains(name));
    if !existential || !projected.iter().chain(&read).all(bound) {
        return None;
    }
    // A variable private to `pattern`: in no other pattern, not projected,
    // read by no FILTER.
    let private = |pattern: usize, name: &str| {
        !projected.contains(&name)
            && !read.contains(&name)
            && (0..vars.len()).all(|other| other == pattern || !vars[other].contains(&name))
    };
    let shared = |pattern: usize| {
        vars[pattern]
            .iter()
            .filter(|name| !private(pattern, name))
            .count()
    };
    let mut driver = vec![true; vars.len()];
    let is_check = |pattern: usize, driver: &[bool]| {
        vars[pattern].iter().all(|name| {
            private(pattern, name)
                || (0..vars.len()).any(|other| driver[other] && vars[other].contains(name))
        })
    };
    let mut candidates: Vec<usize> = (0..vars.len()).collect();
    candidates.sort_by_key(|&pattern| shared(pattern));
    for candidate in candidates {
        driver[candidate] = false;
        let checks_hold = (0..vars.len())
            .filter(|&pattern| !driver[pattern])
            .all(|pattern| is_check(pattern, &driver));
        driver[candidate] = !checks_hold;
    }
    let (driver, checks) = (0..vars.len()).partition(|&pattern| driver[pattern]);
    Some(WitnessSplit { driver, checks })
}

/// Whether a split run stops at the first witness per key rather than
/// joining in full: the driver's planned first step, `driver_first`, is
/// estimated at no more rows than the full run's planned first step. The
/// full join materializes at least that step; the witness walk reads each
/// of its matches once, and probes each check at most once per match. A
/// driver that would walk more loses: the member list of a small dataset,
/// whose dimension other datasets share, walks every dataset's
/// observations, where the full join starts from the dataset's own.
pub(crate) fn witnesses_pay(
    graph: &Graph,
    patterns: &[[Position; 3]],
    driver_first: [Position; 3],
    entering: &[bool],
    filters: &[FilterSlots],
) -> bool {
    let full = plan_run(graph, patterns, entering, filters);
    let mut known = entering.to_vec();
    for slot in filters.iter().filter_map(|filter| filter.pinned) {
        known[slot] = true;
    }
    let rows = |positions| Estimate::new(graph, positions).rows(&known);
    rows(driver_first) <= rows(patterns[full.order[0]])
}

/// The slots whose ids order the rows a run yields for one input row as
/// textual evaluation yields them: for each pattern in textual order, the
/// slots of the positions free at its step, in the key order of the index
/// [`Graph::range`] walks for that bound shape — OSP when the object
/// is bound and the predicate is not, POS when the predicate is bound and
/// the subject is not, SPO otherwise.
pub(crate) fn textual_key(patterns: &[[Position; 3]], input: &[TermId]) -> Vec<usize> {
    let mut bound: Vec<bool> = input.iter().map(|&id| id != UNBOUND).collect();
    let mut key = Vec::new();
    for positions in patterns {
        let shape = positions.map(|position| match position {
            Position::Constant(_) => true,
            Position::Slot(slot) => bound[slot],
        });
        let key_order = match shape {
            [_, false, true] => [2, 0, 1],
            [false, true, _] => [1, 2, 0],
            _ => [0, 1, 2],
        };
        for position in key_order.into_iter().filter(|&position| !shape[position]) {
            if let Position::Slot(slot) = positions[position] {
                key.push(slot);
            }
        }
        for position in positions {
            if let Position::Slot(slot) = *position {
                bound[slot] = true;
            }
        }
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use rdf::{Iri, Term, Triple};

    fn split(where_and_modifiers: &str) -> Option<(Vec<usize>, Vec<usize>)> {
        let query = parse_select(&format!(
            "PREFIX ex: <http://example.org/> SELECT DISTINCT {where_and_modifiers}"
        ))
        .unwrap();
        witness_split(&query).map(|split| (split.driver, split.checks))
    }

    #[test]
    fn a_split_drives_on_the_projected_keys_and_checks_the_leaves() {
        // The enrichment's member query: the dataset link is the check.
        assert_eq!(
            split("?m WHERE { ?o ex:dataSet ex:ds ; ex:dim ?m } ORDER BY ?m"),
            Some((vec![1], vec![0]))
        );
        // A check may read a driver variable that is projected, and bind a
        // private one; two checks hang off one driver pattern.
        assert_eq!(
            split("?m WHERE { ?o ex:dim ?m . ?m ex:label ?l . ?o ex:dataSet ex:ds } ORDER BY ?m"),
            Some((vec![0], vec![1, 2]))
        );
        // A FILTER's variable is no check's own: its pattern drives.
        assert_eq!(
            split("?m WHERE { ?o ex:dataSet ex:ds ; ex:dim ?m ; ex:value ?v FILTER(?v > 5) } ORDER BY DESC(?m)"),
            Some((vec![1, 2], vec![0]))
        );
        // A chain: ?x is shared by two patterns, so neither is a check.
        assert_eq!(
            split(
                "?a ?b WHERE { ?o ex:p ?a . ?o ex:q ?b . ?o ex:r ?x . ?x ex:s ?y } ORDER BY ?b ?a"
            ),
            Some((vec![0, 1, 2], vec![3]))
        );
    }

    #[test]
    fn only_an_order_over_exactly_the_projection_splits() {
        let run = "WHERE { ?o ex:dataSet ex:ds ; ex:dim ?m ; ex:value ?v }";
        assert!(split(&format!("?m {run} ORDER BY ?m ?m")).is_some());
        for rejected in [
            format!("?m {run}"),
            format!("?m ?v {run} ORDER BY ?m"),
            format!("?m {run} ORDER BY ?m ?v"),
            format!("?m {run} ORDER BY ASC(STR(?m))"),
            format!("(?m AS ?n) {run} ORDER BY ?n"),
            format!("* {run} ORDER BY ?m"),
            // No existential variable: nothing to stop early on.
            format!("?o ?m ?v {run} ORDER BY ?o ?m ?v"),
            // Not one run, or a FILTER the driver cannot place.
            "?m WHERE { ?o ex:dim ?m OPTIONAL { ?o ex:value ?v } } ORDER BY ?m".to_string(),
            "?m WHERE { ?o ex:dim ?m FILTER EXISTS { ?o ex:value ?v } } ORDER BY ?m".to_string(),
            "?m WHERE { ?o ex:dim ?m FILTER(BOUND(?z)) } ORDER BY ?m".to_string(),
            // A projected variable no pattern binds.
            "?m ?z WHERE { ?o ex:dim ?m } ORDER BY ?m ?z".to_string(),
        ] {
            assert_eq!(split(&rejected), None, "{rejected}");
        }
        let aggregated = parse_select(
            "PREFIX ex: <http://example.org/> SELECT DISTINCT ?m WHERE { ?o ex:dim ?m } GROUP BY ?m ORDER BY ?m",
        )
        .unwrap();
        assert!(witness_split(&aggregated).is_none());
    }

    /// For every bound shape, `Graph::range` yields its matches in
    /// strictly ascending order of the free positions `textual_key` names:
    /// the key mirrors the index choice.
    #[test]
    fn textual_key_follows_the_order_matching_ids_yields() {
        let term = |i: usize| Term::iri(format!("http://example.org/t{}", i % 5));
        let graph = Graph::from_triples((0..120).map(|i| {
            let p = Iri::new(format!("http://example.org/t{}", (i / 5) % 5));
            Triple::new(term(i * 7 + 1), p, term(i / 25))
        }));
        let ids: Vec<TermId> = (0..5).filter_map(|i| graph.term_id(&term(i))).collect();
        for shape in 0..8u8 {
            let bound = [shape & 1 != 0, shape & 2 != 0, shape & 4 != 0];
            for &value in &ids {
                // Slots 0, 1, 2 for s, p, o; a bound one holds `value`.
                let positions = [0, 1, 2].map(Position::Slot);
                let input: Vec<TermId> = (0..3)
                    .map(|slot| if bound[slot] { value } else { UNBOUND })
                    .collect();
                let key = textual_key(&[positions], &input);
                assert_eq!(key.len(), bound.iter().filter(|b| !**b).count());
                let [s, p, o] = [0, 1, 2].map(|slot| bound[slot].then_some(value));
                let keys: Vec<Vec<TermId>> = graph
                    .range(s, p, o)
                    .map(|(s, p, o)| key.iter().map(|&slot| [s, p, o][slot]).collect())
                    .collect();
                assert!(
                    keys.windows(2).all(|pair| pair[0] < pair[1]),
                    "shape {bound:?}: {keys:?}"
                );
            }
        }
    }
}

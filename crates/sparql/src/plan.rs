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

use rdf::{Graph, TermId};

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
        if let Some((s0, p0, o0)) = graph.matching_ids(s, p, o).next().filter(|_| count > 0) {
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

/// The slots whose ids order the rows a run yields for one input row as
/// textual evaluation yields them: for each pattern in textual order, the
/// slots of the positions free at its step, in the key order of the index
/// [`Graph::matching_ids`] walks for that bound shape — OSP when the object
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
    use rdf::{Iri, Term, Triple};

    /// For every bound shape, `Graph::matching_ids` yields its matches in
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
                    .matching_ids(s, p, o)
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

//! Query results: [`QueryResults`], a boolean for ASK or, for SELECT, the
//! one table form every caller reads, [`EncodedSolutions`] — each distinct
//! term once, plus flat rows of indexes into that list.

use rdf::Term;

use crate::ast::Variable;

/// A SELECT result: the output variables, every distinct term of the
/// result once, and flat rows of indexes into that list.
///
/// It is the evaluator's only SELECT output ([`QueryResults::Solutions`]),
/// and [`crate::Endpoint::select`] returns it as the evaluator produced it.
/// Work that depends on the *term* — hashing it into a dictionary, parsing
/// a measure literal, writing it as JSON — is done once per entry of
/// [`Self::terms`] and reused for every cell that carries its index;
/// [`Self::get`] reads one cell by variable name. Terms are numbered in
/// row-major first-occurrence order, so a table has one encoding and `==`
/// means "same table". The ids mean nothing across results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EncodedSolutions {
    /// Output variables, in projection order.
    pub variables: Vec<Variable>,
    /// The distinct terms bound anywhere in the result, in row-major
    /// first-occurrence order.
    pub terms: Vec<Term>,
    /// Row-major cells, `variables.len()` per solution: an index into
    /// `terms`, or [`EncodedSolutions::UNBOUND`].
    ids: Vec<u32>,
    /// Number of solutions (kept explicitly: a result over zero variables
    /// still has a row count).
    len: usize,
}

impl EncodedSolutions {
    /// The cell value of a variable that is unbound in a solution.
    pub const UNBOUND: u32 = u32::MAX;

    /// Assembles a result from its parts; `ids` holds `len` rows of
    /// `variables.len()` cells.
    pub(crate) fn new(
        variables: Vec<Variable>,
        terms: Vec<Term>,
        ids: Vec<u32>,
        len: usize,
    ) -> Self {
        debug_assert_eq!(ids.len(), len * variables.len());
        EncodedSolutions {
            variables,
            terms,
            ids,
            len,
        }
    }

    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The index of a variable by name, if it is part of the output.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.variables.iter().position(|v| v.name() == name)
    }

    /// The cells of solution `row`, aligned with `variables`.
    pub fn row(&self, row: usize) -> &[u32] {
        let width = self.variables.len();
        &self.ids[row * width..(row + 1) * width]
    }

    /// Iterates the solutions' cells in order.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len).map(|row| self.row(row))
    }

    /// The term behind a cell (`None` for [`EncodedSolutions::UNBOUND`]).
    pub fn term(&self, cell: u32) -> Option<&Term> {
        self.terms.get(cell as usize)
    }

    /// The binding of `name` in solution `row`: `None` when it is unbound,
    /// when `name` is not an output variable, or past the last row.
    pub fn get(&self, row: usize, name: &str) -> Option<&Term> {
        if row >= self.len {
            return None;
        }
        self.term(self.row(row)[self.column(name)?])
    }

    /// Renders the solutions as a fixed-width text table (used by the demo
    /// examples and the exploration module's text UI).
    pub fn to_table_string(&self) -> String {
        let rendered: Vec<String> = self.terms.iter().map(render_term).collect();
        let cell = |id: u32| rendered.get(id as usize).map_or("", String::as_str);
        let headers: Vec<String> = self
            .variables
            .iter()
            .map(|v| format!("?{}", v.name()))
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        for row in self.rows() {
            for (width, &id) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell(id).len());
            }
        }

        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        push_line(&mut out, &widths, headers.iter().map(String::as_str));
        sep(&mut out);
        for row in self.rows() {
            push_line(&mut out, &widths, row.iter().map(|&id| cell(id)));
        }
        sep(&mut out);
        out.push_str(&format!("{} solution(s)\n", self.len));
        out
    }
}

/// Appends one table line: each cell padded to its column's width.
fn push_line<'a>(out: &mut String, widths: &[usize], cells: impl Iterator<Item = &'a str>) {
    out.push('|');
    for (cell, w) in cells.zip(widths) {
        out.push_str(&format!(" {cell:<w$} |"));
    }
    out.push('\n');
}

/// Renders a term compactly for table output (no angle brackets or quotes).
fn render_term(term: &Term) -> String {
    match term {
        Term::Iri(iri) => iri.as_str().to_string(),
        Term::Blank(b) => format!("_:{}", b.as_str()),
        Term::Literal(lit) => lit.lexical().to_string(),
    }
}

/// The result of executing a query: dictionary-encoded solutions for
/// SELECT, a boolean for ASK.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResults {
    /// SELECT results.
    Solutions(EncodedSolutions),
    /// ASK result.
    Boolean(bool),
}

impl QueryResults {
    /// Returns the boolean, if this is an ASK result.
    pub fn boolean(&self) -> Option<bool> {
        match self {
            QueryResults::Boolean(b) => Some(*b),
            QueryResults::Solutions(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{evaluate_select, solutions};

    fn sample() -> EncodedSolutions {
        let query = crate::parse_select(
            "SELECT ?country ?total WHERE { \
             VALUES (?country ?total) { (<http://ex/SY> 120) (<http://ex/NG> UNDEF) (<http://ex/SY> 7) } }",
        )
        .unwrap();
        evaluate_select(&rdf::Graph::new(), &query)
    }

    #[test]
    fn accessors() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.column("total"), Some(1));
        assert_eq!(s.column("missing"), None);
        assert_eq!(s.get(0, "total"), Some(&Term::integer(120)));
        assert_eq!(s.get(1, "total"), None, "an unbound cell");
        assert_eq!(s.row(1)[1], EncodedSolutions::UNBOUND);
        assert_eq!(s.get(3, "total"), None, "past the last row");
        assert_eq!(s.get(0, "missing"), None);
        assert_eq!(s.terms.len(), 4, "each distinct term once");
        assert_eq!(s.row(0)[0], s.row(2)[0]);
    }

    #[test]
    fn a_zero_variable_result_keeps_its_row_count() {
        let s = solutions(&[], &[vec![], vec![]]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.rows().count(), 2);
        assert!(s.terms.is_empty());
        assert!(s.to_table_string().contains("2 solution(s)"));
    }

    #[test]
    fn table_rendering() {
        let table = sample().to_table_string();
        assert!(table.contains("?country"));
        assert!(table.contains("http://ex/SY"));
        assert!(table.contains("3 solution(s)"));
    }

    #[test]
    fn query_results_accessors() {
        let r = QueryResults::Solutions(sample());
        assert!(r.boolean().is_none());
        assert_eq!(QueryResults::Boolean(true).boolean(), Some(true));
    }
}

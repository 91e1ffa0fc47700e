//! Query result representations.

use rdf::{Interner, Term};

use crate::ast::Variable;

/// A table of solutions: a list of output variables plus one row per solution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Solutions {
    /// Output variables, in projection order.
    pub variables: Vec<Variable>,
    /// One row per solution; entries align with `variables` and are `None`
    /// when the variable is unbound in that solution.
    pub rows: Vec<Vec<Option<Term>>>,
}

impl Solutions {
    /// Creates an empty solution table with the given variables.
    pub fn new(variables: Vec<Variable>) -> Self {
        Solutions {
            variables,
            rows: Vec::new(),
        }
    }

    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The index of a variable by name, if it is part of the output.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.variables.iter().position(|v| v.name() == name)
    }

    /// The binding of `name` in row `row`, if bound.
    pub fn get(&self, row: usize, name: &str) -> Option<&Term> {
        let col = self.column(name)?;
        self.rows.get(row)?.get(col)?.as_ref()
    }

    /// Renders the solutions as a fixed-width text table (used by the demo
    /// examples and the exploration module's text UI).
    pub fn to_table_string(&self) -> String {
        let headers: Vec<String> = self
            .variables
            .iter()
            .map(|v| format!("?{}", v.name()))
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let s = t.as_ref().map(render_term).unwrap_or_default();
                        if i < widths.len() {
                            widths[i] = widths[i].max(s.len());
                        }
                        s
                    })
                    .collect()
            })
            .collect();

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
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &rendered {
            out.push('|');
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out.push_str(&format!("{} solution(s)\n", self.rows.len()));
        out
    }
}

/// Dictionary-encoded solutions: every distinct term of a result once, plus
/// flat rows of indexes into that list.
///
/// This is the shape bulk consumers (the columnar cube build) read: work
/// that depends on the *term* — hashing it into a dictionary, parsing a
/// measure literal — is done once per entry of [`Self::terms`] and reused
/// for every cell that carries its index. It is the evaluator's only SELECT
/// output ([`QueryResults::Solutions`]); [`crate::Endpoint::select`] decodes
/// it into [`Solutions`] at the edge. The ids are private to one result and
/// mean nothing across results.
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
}

/// Encodes decoded solutions, numbering terms in row-major first-occurrence
/// order — the numbering the evaluator's results carry.
impl From<Solutions> for EncodedSolutions {
    fn from(solutions: Solutions) -> Self {
        let width = solutions.variables.len();
        let mut distinct = Interner::new();
        let mut ids = Vec::with_capacity(solutions.rows.len() * width);
        for row in &solutions.rows {
            for cell in (0..width).map(|column| row.get(column).and_then(Option::as_ref)) {
                ids.push(cell.map_or(Self::UNBOUND, |term| distinct.intern(term)));
            }
        }
        let terms = distinct.iter().map(|(_, term)| term.clone()).collect();
        EncodedSolutions::new(solutions.variables, terms, ids, solutions.rows.len())
    }
}

/// Decodes encoded solutions: one cloned term per bound cell. The one
/// decoder behind [`crate::Endpoint::select`] and
/// [`crate::Endpoint::select_parsed`].
impl From<EncodedSolutions> for Solutions {
    fn from(encoded: EncodedSolutions) -> Self {
        let rows = encoded
            .rows()
            .map(|row| {
                row.iter()
                    .map(|&cell| encoded.term(cell).cloned())
                    .collect()
            })
            .collect();
        Solutions {
            variables: encoded.variables,
            rows,
        }
    }
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

    fn sample() -> Solutions {
        Solutions {
            variables: vec![Variable::new("country"), Variable::new("total")],
            rows: vec![
                vec![Some(Term::iri("http://ex/SY")), Some(Term::integer(120))],
                vec![Some(Term::iri("http://ex/NG")), None],
            ],
        }
    }

    #[test]
    fn accessors() {
        let s = sample();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.column("total"), Some(1));
        assert_eq!(s.column("missing"), None);
        assert_eq!(s.get(0, "total"), Some(&Term::integer(120)));
        assert_eq!(s.get(1, "total"), None);
        assert_eq!(s.get(5, "total"), None);
    }

    #[test]
    fn encoding_round_trips() {
        let encoded = EncodedSolutions::from(sample());
        assert_eq!(encoded.len(), 2);
        assert_eq!(encoded.terms.len(), 3, "each distinct term once");
        assert_eq!(encoded.row(1)[1], EncodedSolutions::UNBOUND);
        assert_eq!(Solutions::from(encoded), sample());
    }

    #[test]
    fn table_rendering() {
        let s = sample();
        let table = s.to_table_string();
        assert!(table.contains("?country"));
        assert!(table.contains("http://ex/SY"));
        assert!(table.contains("2 solution(s)"));
    }

    #[test]
    fn query_results_accessors() {
        let r = QueryResults::Solutions(sample().into());
        assert!(r.boolean().is_none());
        assert_eq!(QueryResults::Boolean(true).boolean(), Some(true));
    }
}

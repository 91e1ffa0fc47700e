//! Canonical JSON serialization of query results.
//!
//! The vendored `serde_json` shim has no derive support and no parser, so
//! the wire format is rendered by hand — which is a feature here, not a
//! workaround: these functions are the *definition* of the server's wire
//! format, and the integration tests + `loadgen` call the very same
//! functions on library-side results to assert that a response body is
//! **bit-identical** to a local call. Terms are rendered in their
//! N-Triples form (the `Display` impl of [`rdf::Term`]), which keeps IRIs,
//! blank nodes and typed literals unambiguous inside JSON strings.

use std::fmt::{self, Write};

use crate::http::escape_json_into;
use cubestore::QueryOutput;
use ql::{CodedCube, CubeAxis, CubeCell, ResultCube};
use rdf::{Iri, Term};
use sparql::EncodedSolutions;

/// A [`fmt::Write`] sink that JSON-escapes everything formatted into it on
/// the way into the output buffer, so a term's `Display` form lands in the
/// body without an intermediate `String`.
struct Escaped<'a>(&'a mut String);

impl Write for Escaped<'_> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        escape_json_into(self.0, text);
        Ok(())
    }
}

/// Appends `value`'s `Display` form as one JSON string.
fn push_string(out: &mut String, value: impl fmt::Display) {
    out.push('"');
    write!(Escaped(out), "{value}").expect("writing into a String cannot fail");
    out.push('"');
}

/// Appends a term in its N-Triples form, or `null` for an absent one.
fn push_term(out: &mut String, term: Option<&Term>) {
    match term {
        Some(term) => push_string(out, term),
        None => out.push_str("null"),
    }
}

/// Renders a [`ResultCube`] as the canonical `/ql` response body.
///
/// Shape:
/// ```json
/// {"axes":[{"dimension":"...","level":"...","variable":"..."}],
///  "measures":[{"measure":"...","variable":"..."}],
///  "cells":[{"coordinates":["<iri>"],"values":["\"4\"^^<...>",null]}]}
/// ```
/// Cells arrive already in the cube's canonical coordinate order
/// ([`ResultCube::sort_cells`]), so two identical cubes always serialize
/// to identical bytes.
pub fn cube_to_json(cube: &ResultCube) -> String {
    write_cube(&cube.axes, &cube.measures, cube.cells.as_slice())
}

/// Renders a columnar result straight from its codes: the bytes of
/// [`cube_to_json`] on the decoded cube, without decoding it. Each axis's
/// members are escaped once, however many cells name them, and an
/// aggregate is formatted into the body without a literal.
pub fn coded_cube_to_json(cube: &CodedCube) -> String {
    let output = &cube.output;
    let members = (0..output.axes.len())
        .map(|axis| {
            let members = output.members(axis);
            let mut text = String::with_capacity(64 * members.len());
            let mut bounds = Vec::with_capacity(members.len() + 1);
            bounds.push(0);
            for member in members {
                push_term(&mut text, Some(member));
                bounds.push(text.len());
            }
            EscapedMembers { text, bounds }
        })
        .collect();
    write_cube(&cube.axes, &cube.measures, &CodedCells { output, members })
}

/// Where [`write_cube`] reads the cells from. Each `write_*` appends one
/// complete JSON value.
trait CellSource {
    fn cells(&self) -> usize;
    fn write_coordinate(&self, out: &mut String, cell: usize, axis: usize);
    fn write_value(&self, out: &mut String, cell: usize, measure: usize);
}

impl CellSource for [CubeCell] {
    fn cells(&self) -> usize {
        self.len()
    }

    fn write_coordinate(&self, out: &mut String, cell: usize, axis: usize) {
        push_term(out, Some(&self[cell].coordinates[axis]));
    }

    fn write_value(&self, out: &mut String, cell: usize, measure: usize) {
        push_term(out, self[cell].values[measure].as_ref());
    }
}

/// One axis's members as JSON strings, back to back: member `rank` is
/// `text[bounds[rank]..bounds[rank + 1]]`.
struct EscapedMembers {
    text: String,
    bounds: Vec<usize>,
}

struct CodedCells<'a> {
    output: &'a QueryOutput,
    members: Vec<EscapedMembers>,
}

impl CellSource for CodedCells<'_> {
    fn cells(&self) -> usize {
        self.output.len()
    }

    fn write_coordinate(&self, out: &mut String, cell: usize, axis: usize) {
        let EscapedMembers { text, bounds } = &self.members[axis];
        let rank = self.output.ranks(cell)[axis] as usize;
        out.push_str(&text[bounds[rank]..bounds[rank + 1]]);
    }

    /// The literal's N-Triples form `"<lexical>"^^<datatype>` as a JSON
    /// string. Neither a numeric lexical form nor an XSD datatype IRI holds
    /// a character JSON escapes, so only the quotes around the lexical form
    /// are escaped, here.
    fn write_value(&self, out: &mut String, cell: usize, measure: usize) {
        let value = self.output.values(cell)[measure];
        out.push_str("\"\\\"");
        write!(out, "{value}").expect("writing into a String cannot fail");
        out.push_str("\\\"^^<");
        out.push_str(value.datatype_str());
        out.push_str(">\"");
    }
}

/// The `/ql` body over any cell source: the punctuation of the wire format,
/// written in one place.
fn write_cube(
    axes: &[CubeAxis],
    measures: &[(Iri, String)],
    cells: &(impl CellSource + ?Sized),
) -> String {
    // Per cell: 31 bytes of punctuation plus one quoted term per axis and
    // measure — an IRI or a typed literal, ≈ 60 bytes either way. The
    // header names two or three IRIs per axis and measure.
    let width = axes.len() + measures.len();
    let per_cell = 32 + 64 * width;
    let mut out = String::with_capacity(64 + 192 * width + cells.cells() * per_cell);
    out.push_str("{\"axes\":[");
    for (i, axis) in axes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"dimension\":");
        push_string(&mut out, axis.dimension.as_str());
        out.push_str(",\"level\":");
        push_string(&mut out, axis.level.as_str());
        out.push_str(",\"variable\":");
        push_string(&mut out, &axis.variable);
        out.push('}');
    }
    out.push_str("],\"measures\":[");
    for (i, (measure, variable)) in measures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"measure\":");
        push_string(&mut out, measure.as_str());
        out.push_str(",\"variable\":");
        push_string(&mut out, variable);
        out.push('}');
    }
    out.push_str("],\"cells\":[");
    for cell in 0..cells.cells() {
        if cell > 0 {
            out.push(',');
        }
        out.push_str("{\"coordinates\":[");
        for axis in 0..axes.len() {
            if axis > 0 {
                out.push(',');
            }
            cells.write_coordinate(&mut out, cell, axis);
        }
        out.push_str("],\"values\":[");
        for measure in 0..measures.len() {
            if measure > 0 {
                out.push(',');
            }
            cells.write_value(&mut out, cell, measure);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out.push('\n');
    out
}

/// Renders SPARQL SELECT solutions as the canonical `/sparql` response
/// body: `{"variables":[...],"rows":[["<term>",null,...],...]}` with terms
/// in N-Triples form and unbound variables as `null`.
pub fn solutions_to_json(solutions: &EncodedSolutions) -> String {
    let per_row = 4 + 64 * solutions.variables.len();
    let mut out = String::with_capacity(64 + solutions.len() * per_row);
    out.push_str("{\"variables\":[");
    for (i, variable) in solutions.variables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_string(&mut out, variable.name());
    }
    out.push_str("],\"rows\":[");
    for (i, row) in solutions.rows().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &cell) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_term(&mut out, solutions.term(cell));
        }
        out.push(']');
    }
    out.push_str("]}");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::Iri;
    use sparql::{Endpoint, LocalEndpoint};

    fn select(query: &str) -> EncodedSolutions {
        LocalEndpoint::new().select(query).unwrap()
    }

    #[test]
    fn solutions_serialize_with_nulls_and_escapes() {
        let solutions = select(
            r#"SELECT ?s ?v WHERE { VALUES (?s ?v) {
                 (<http://x/a> "say \"hi\"") (<http://x/b> UNDEF) } }"#,
        );
        let json = solutions_to_json(&solutions);
        assert!(json.starts_with("{\"variables\":[\"s\",\"v\"]"));
        assert!(json.contains("\"<http://x/a>\""));
        // N-Triples escapes the inner quotes (`\"`), JSON escapes that
        // again (`\\\"`) — the wire form is doubly escaped.
        assert!(
            json.contains(r#"\\\"hi\\\""#),
            "literal quoting is escaped: {json}"
        );
        assert!(json.contains(",null]"), "unbound binding is null: {json}");
    }

    #[test]
    fn cube_serialization_is_deterministic() {
        let solutions = select(
            "SELECT ?year ?total WHERE { VALUES (?year ?total) {
               (<http://t/2014> 7) (<http://t/2013> UNDEF) } }",
        );
        let cube = ResultCube::from_solutions(
            vec![ql::CubeAxis {
                dimension: Iri::new("http://s/timeDim"),
                level: Iri::new("http://s/year"),
                variable: "year".into(),
            }],
            vec![(Iri::new("http://m/obsValue"), "total".into())],
            &solutions,
        );
        let first = cube_to_json(&cube);
        assert_eq!(first, cube_to_json(&cube), "same cube, same bytes");
        assert!(first.contains("\"dimension\":\"http://s/timeDim\""));
        // from_solutions sorts cells canonically: 2013 precedes 2014.
        let i2013 = first.find("2013").unwrap();
        let i2014 = first.find("2014").unwrap();
        assert!(i2013 < i2014, "cells arrive in canonical order");
        assert!(first.contains("\"values\":[null]"));
        assert!(first.ends_with("\n"));
    }
}

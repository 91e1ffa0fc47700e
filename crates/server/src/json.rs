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
use ql::ResultCube;
use rdf::Term;
use sparql::Solutions;

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
    // Per cell: 31 bytes of punctuation plus one quoted term per axis and
    // measure — an IRI or a typed literal, ≈ 60 bytes either way. The
    // header names two or three IRIs per axis and measure.
    let (axes, measures) = (cube.axes.len(), cube.measures.len());
    let per_cell = 32 + 64 * (axes + measures);
    let mut out = String::with_capacity(64 + 192 * (axes + measures) + cube.cells.len() * per_cell);
    out.push_str("{\"axes\":[");
    for (i, axis) in cube.axes.iter().enumerate() {
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
    for (i, (measure, variable)) in cube.measures.iter().enumerate() {
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
    for (i, cell) in cube.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"coordinates\":[");
        for (j, term) in cell.coordinates.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_term(&mut out, Some(term));
        }
        out.push_str("],\"values\":[");
        for (j, value) in cell.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_term(&mut out, value.as_ref());
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out.push('\n');
    out
}

/// Renders SPARQL SELECT [`Solutions`] as the canonical `/sparql` response
/// body: `{"variables":[...],"rows":[["<term>",null,...],...]}` with terms
/// in N-Triples form and unbound variables as `null`.
pub fn solutions_to_json(solutions: &Solutions) -> String {
    let per_row = 4 + 64 * solutions.variables.len();
    let mut out = String::with_capacity(64 + solutions.rows.len() * per_row);
    out.push_str("{\"variables\":[");
    for (i, variable) in solutions.variables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_string(&mut out, variable.name());
    }
    out.push_str("],\"rows\":[");
    for (i, row) in solutions.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, binding) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_term(&mut out, binding.as_ref());
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
    use rdf::{Iri, Term};
    use sparql::Variable;

    #[test]
    fn solutions_serialize_with_nulls_and_escapes() {
        let solutions = Solutions {
            variables: vec![Variable::new("s"), Variable::new("v")],
            rows: vec![
                vec![Some(Term::iri("http://x/a")), Some(Term::string("say \"hi\""))],
                vec![Some(Term::iri("http://x/b")), None],
            ],
        };
        let json = solutions_to_json(&solutions);
        assert!(json.starts_with("{\"variables\":[\"s\",\"v\"]"));
        assert!(json.contains("\"<http://x/a>\""));
        // N-Triples escapes the inner quotes (`\"`), JSON escapes that
        // again (`\\\"`) — the wire form is doubly escaped.
        assert!(json.contains(r#"\\\"hi\\\""#), "literal quoting is escaped: {json}");
        assert!(json.contains(",null]"), "unbound binding is null: {json}");
    }

    #[test]
    fn cube_serialization_is_deterministic() {
        let solutions = Solutions {
            variables: vec![Variable::new("year"), Variable::new("total")],
            rows: vec![
                vec![Some(Term::iri("http://t/2014")), Some(Term::integer(7))],
                vec![Some(Term::iri("http://t/2013")), None],
            ],
        };
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

//! The result of a QL query: a data cube computed on the fly.

use rdf::{Iri, Term};
use sparql::EncodedSolutions;

pub use cubestore::CubeCell;
use cubestore::QueryOutput;

/// One axis of the result cube: a dimension kept in the result, the level it
/// was aggregated to, and the SPARQL variable that carries its members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeAxis {
    /// The dimension.
    pub dimension: Iri,
    /// The level of the dimension present in the result.
    pub level: Iri,
    /// The SPARQL variable name (without `?`).
    pub variable: String,
}

/// A result cube.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultCube {
    /// The axes (non-sliced dimensions at their final levels).
    pub axes: Vec<CubeAxis>,
    /// The measures: `(measure property, output variable name)`.
    pub measures: Vec<(Iri, String)>,
    /// The cells.
    pub cells: Vec<CubeCell>,
}

/// A columnar result before decoding: the prepared query's axes and
/// measure variables over the engine's coded output (per-axis members,
/// per-cell ranks, typed aggregates). The HTTP `/ql` route serializes it as
/// it is; [`CodedCube::decode`] builds the [`ResultCube`] a library caller
/// gets.
#[derive(Debug, Clone, PartialEq)]
pub struct CodedCube {
    /// The axes, aligned with `output.axes`.
    pub axes: Vec<CubeAxis>,
    /// The measures: `(measure property, output variable name)`, aligned
    /// with `output.measures`.
    pub measures: Vec<(Iri, String)>,
    /// The coded cells, in canonical coordinate order.
    pub output: QueryOutput,
}

impl CodedCube {
    /// The decoded cube: one term per coordinate and value.
    pub fn decode(self) -> ResultCube {
        let cells = self.output.into_cells();
        debug_assert!(
            cells
                .windows(2)
                .all(|pair| pair[0].coordinates <= pair[1].coordinates),
            "cubestore returns cells in canonical coordinate order"
        );
        ResultCube {
            axes: self.axes,
            measures: self.measures,
            cells,
        }
    }
}

impl ResultCube {
    /// Builds a cube from SPARQL solutions using the axis/measure variables.
    /// Each variable's column is resolved once; a variable the solutions do
    /// not project reads as unbound.
    pub fn from_solutions(
        axes: Vec<CubeAxis>,
        measures: Vec<(Iri, String)>,
        solutions: &EncodedSolutions,
    ) -> Self {
        let axis_columns: Vec<_> = axes.iter().map(|a| solutions.column(&a.variable)).collect();
        let measure_columns: Vec<_> = measures.iter().map(|(_, v)| solutions.column(v)).collect();
        let cells = solutions
            .rows()
            .map(|row| {
                let term = |column: &Option<usize>| solutions.term(row[(*column)?]).cloned();
                let axis_term = |column| term(column).unwrap_or_else(|| Term::string(""));
                CubeCell {
                    coordinates: axis_columns.iter().map(axis_term).collect(),
                    values: measure_columns.iter().map(term).collect(),
                }
            })
            .collect();
        let mut cube = ResultCube {
            axes,
            measures,
            cells,
        };
        cube.sort_cells();
        cube
    }

    /// Sorts cells by their coordinates (canonical order, so that cubes can
    /// be compared independently of how they were computed).
    pub fn sort_cells(&mut self) {
        self.cells.sort_by(|a, b| a.coordinates.cmp(&b.coordinates));
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the cube has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The numeric total of the first measure over all cells (handy in tests
    /// and summaries).
    pub fn first_measure_total(&self) -> f64 {
        self.cells
            .iter()
            .filter_map(|c| c.values.first().cloned().flatten())
            .filter_map(|t| t.as_literal().and_then(|l| l.as_double()))
            .sum()
    }

    /// Looks up a cell by its coordinates.
    pub fn cell(&self, coordinates: &[Term]) -> Option<&CubeCell> {
        self.cells.iter().find(|c| c.coordinates == coordinates)
    }

    /// Renders the cube as a text table (the "resulting cube computed
    /// on-the-fly" the demo shows).
    pub fn to_table_string(&self) -> String {
        let mut headers: Vec<String> = self
            .axes
            .iter()
            .map(|a| a.level.local_name().to_string())
            .collect();
        headers.extend(self.measures.iter().map(|(_, v)| v.clone()));

        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|cell| {
                let mut row: Vec<String> =
                    cell.coordinates.iter().map(Term::display_label).collect();
                row.extend(
                    cell.values
                        .iter()
                        .map(|v| v.as_ref().map(Term::display_label).unwrap_or_default()),
                );
                row
            })
            .collect();

        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            out.push('|');
            for (value, width) in cells.iter().zip(&widths) {
                out.push_str(&format!(" {value:<width$} |"));
            }
            out.push('\n');
        };
        write_row(&headers, &mut out);
        out.push('|');
        for width in &widths {
            out.push_str(&format!("{}|", "-".repeat(width + 2)));
        }
        out.push('\n');
        for row in &rows {
            write_row(row, &mut out);
        }
        out.push_str(&format!("{} cell(s)\n", self.cells.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparql::Endpoint;

    fn sample_cube() -> ResultCube {
        let solutions = sparql::LocalEndpoint::new()
            .select(
                "SELECT ?continent ?year ?obsValue WHERE { VALUES (?continent ?year ?obsValue) {
                   (<http://dic/continent#Africa> <http://dic/time#2014> 250)
                   (<http://dic/continent#Asia> <http://dic/time#2013> 420) } }",
            )
            .unwrap();
        ResultCube::from_solutions(
            vec![
                CubeAxis {
                    dimension: Iri::new("http://schema/citizenshipDim"),
                    level: Iri::new("http://schema/continent"),
                    variable: "continent".to_string(),
                },
                CubeAxis {
                    dimension: Iri::new("http://schema/timeDim"),
                    level: Iri::new("http://schema/year"),
                    variable: "year".to_string(),
                },
            ],
            vec![(
                rdf::vocab::sdmx_measure::obs_value(),
                "obsValue".to_string(),
            )],
            &solutions,
        )
    }

    #[test]
    fn cube_from_solutions() {
        let cube = sample_cube();
        assert_eq!(cube.len(), 2);
        assert!(!cube.is_empty());
        assert_eq!(cube.first_measure_total(), 670.0);
        let cell = cube
            .cell(&[
                Term::iri("http://dic/continent#Africa"),
                Term::iri("http://dic/time#2014"),
            ])
            .expect("cell exists");
        assert_eq!(cell.values[0], Some(Term::integer(250)));
        assert!(cube.cell(&[Term::iri("http://nope")]).is_none());
    }

    #[test]
    fn table_rendering_contains_labels() {
        let table = sample_cube().to_table_string();
        assert!(table.contains("continent"));
        assert!(table.contains("Africa"));
        assert!(table.contains("2 cell(s)"));
    }

    #[test]
    fn cells_are_sorted_canonically() {
        let cube = sample_cube();
        let mut coordinates: Vec<_> = cube.cells.iter().map(|c| c.coordinates.clone()).collect();
        let sorted = {
            let mut copy = coordinates.clone();
            copy.sort();
            copy
        };
        assert_eq!(coordinates, sorted);
        coordinates.reverse();
        assert_ne!(coordinates, sorted);
    }
}

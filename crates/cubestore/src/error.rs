//! Error types of the columnar cube engine.

use std::fmt;

/// Errors raised while materializing or querying a columnar cube.
#[derive(Debug, Clone, PartialEq)]
pub enum CubeStoreError {
    /// The cube could not be materialized from the endpoint.
    Build(String),
    /// The data uses a feature the columnar engine does not implement
    /// (non-functional roll-ups, non-numeric measures, ...). Callers should
    /// fall back to the SPARQL backend.
    Unsupported(String),
    /// The query references schema elements the materialized cube does not
    /// have (unknown dimension, level without a roll-up map, ...).
    Query(String),
    /// A store delta inserts or removes a schema or structure triple, so
    /// it cannot be replayed onto the columns (see the decision table in
    /// the [`crate::delta`] module docs). Callers fall back to a full
    /// rebuild; the detail becomes the rebuild reason the maintenance
    /// report records.
    DeltaUnsupported(String),
    /// The endpoint failed while the cube was being materialized.
    Sparql(String),
}

impl fmt::Display for CubeStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CubeStoreError::Build(m) => write!(f, "cube build error: {m}"),
            CubeStoreError::Unsupported(m) => write!(f, "unsupported by the columnar engine: {m}"),
            CubeStoreError::Query(m) => write!(f, "columnar query error: {m}"),
            CubeStoreError::DeltaUnsupported(r) => {
                write!(f, "delta cannot be applied incrementally: {r}")
            }
            CubeStoreError::Sparql(m) => write!(f, "endpoint error during materialization: {m}"),
        }
    }
}

impl std::error::Error for CubeStoreError {}

impl From<sparql::SparqlError> for CubeStoreError {
    fn from(e: sparql::SparqlError) -> Self {
        CubeStoreError::Sparql(e.to_string())
    }
}

impl From<qb::QbError> for CubeStoreError {
    fn from(e: qb::QbError) -> Self {
        CubeStoreError::Build(e.to_string())
    }
}

impl From<qb4olap::Qb4olapError> for CubeStoreError {
    fn from(e: qb4olap::Qb4olapError) -> Self {
        CubeStoreError::Build(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(CubeStoreError::Build("b".into()).to_string().contains("b"));
        assert!(CubeStoreError::Unsupported("u".into())
            .to_string()
            .contains("unsupported"));
        assert!(CubeStoreError::Query("q".into()).to_string().contains("q"));
        assert!(CubeStoreError::DeltaUnsupported("d".into())
            .to_string()
            .contains("incrementally: d"));
        let e: CubeStoreError = sparql::SparqlError::eval("boom").into();
        assert!(e.to_string().contains("boom"));
        let e: CubeStoreError = qb::QbError::NotFound("d".into()).into();
        assert!(e.to_string().contains("d"));
        let e: CubeStoreError = qb4olap::Qb4olapError::SchemaNotFound("s".into()).into();
        assert!(e.to_string().contains("s"));
    }
}

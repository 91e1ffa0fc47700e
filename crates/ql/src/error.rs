//! Error type for the QL querying module.

use std::fmt;

/// Errors raised while parsing, validating, translating or executing QL.
#[derive(Debug, Clone, PartialEq)]
pub enum QlError {
    /// A QL syntax error.
    Parse {
        /// 1-based line.
        line: usize,
        /// Description.
        message: String,
    },
    /// The program is syntactically valid but inconsistent with the cube
    /// schema (unknown dimension, unreachable level, attribute on the wrong
    /// level, ...).
    Validation(String),
    /// The generated SPARQL failed to execute.
    Sparql(String),
    /// The QB4OLAP layer failed (schema could not be read back, ...).
    Schema(String),
    /// The columnar backend failed to materialize or execute (data the
    /// columnar engine does not support, stale materialization, ...).
    Columnar(String),
}

impl fmt::Display for QlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QlError::Parse { line, message } => {
                write!(f, "QL syntax error at line {line}: {message}")
            }
            QlError::Validation(m) => write!(f, "QL validation error: {m}"),
            QlError::Sparql(m) => write!(f, "SPARQL execution error: {m}"),
            QlError::Schema(m) => write!(f, "schema error: {m}"),
            QlError::Columnar(m) => write!(f, "columnar execution error: {m}"),
        }
    }
}

impl std::error::Error for QlError {}

impl From<sparql::SparqlError> for QlError {
    fn from(e: sparql::SparqlError) -> Self {
        QlError::Sparql(e.to_string())
    }
}

impl From<qb4olap::Qb4olapError> for QlError {
    fn from(e: qb4olap::Qb4olapError) -> Self {
        QlError::Schema(e.to_string())
    }
}

impl From<qb::QbError> for QlError {
    fn from(e: qb::QbError) -> Self {
        QlError::Schema(e.to_string())
    }
}

impl From<cubestore::CubeStoreError> for QlError {
    fn from(e: cubestore::CubeStoreError) -> Self {
        QlError::Columnar(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(QlError::Parse {
            line: 3,
            message: "x".into()
        }
        .to_string()
        .contains("line 3"));
        assert!(QlError::Validation("v".into()).to_string().contains("v"));
        let e: QlError = sparql::SparqlError::eval("boom").into();
        assert!(e.to_string().contains("boom"));
        let e: QlError = qb4olap::Qb4olapError::SchemaNotFound("s".into()).into();
        assert!(e.to_string().contains("s"));
        let e: QlError = qb::QbError::NotFound("d".into()).into();
        assert!(e.to_string().contains("d"));
        let e: QlError = cubestore::CubeStoreError::Unsupported("nf".into()).into();
        assert!(e.to_string().contains("nf"));
        assert!(QlError::Columnar("c".into())
            .to_string()
            .contains("columnar"));
    }
}

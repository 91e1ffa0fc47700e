//! Error type for the SPARQL engine.

use std::fmt;

/// Errors raised while parsing or evaluating SPARQL queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparqlError {
    /// A syntax error, with position information.
    Parse {
        /// 1-based line number.
        line: usize,
        /// 1-based column number.
        column: usize,
        /// Description of the problem.
        message: String,
    },
    /// A query is syntactically valid but not supported by this engine.
    Unsupported(String),
    /// A runtime evaluation error (type errors inside aggregates, etc.).
    Eval(String),
    /// The endpoint could not execute the query.
    Endpoint(String),
}

impl SparqlError {
    /// Creates a parse error.
    pub fn parse(line: usize, column: usize, message: impl Into<String>) -> Self {
        SparqlError::Parse {
            line,
            column,
            message: message.into(),
        }
    }

    /// Creates an evaluation error.
    pub fn eval(message: impl Into<String>) -> Self {
        SparqlError::Eval(message.into())
    }

    /// Creates an "unsupported feature" error.
    pub fn unsupported(message: impl Into<String>) -> Self {
        SparqlError::Unsupported(message.into())
    }
}

impl fmt::Display for SparqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparqlError::Parse {
                line,
                column,
                message,
            } => write!(f, "SPARQL syntax error at {line}:{column}: {message}"),
            SparqlError::Unsupported(m) => write!(f, "unsupported SPARQL feature: {m}"),
            SparqlError::Eval(m) => write!(f, "SPARQL evaluation error: {m}"),
            SparqlError::Endpoint(m) => write!(f, "SPARQL endpoint error: {m}"),
        }
    }
}

impl std::error::Error for SparqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert!(SparqlError::parse(1, 2, "x").to_string().contains("1:2"));
        assert!(SparqlError::unsupported("paths")
            .to_string()
            .contains("paths"));
        assert!(SparqlError::eval("bad").to_string().contains("bad"));
        assert!(SparqlError::Endpoint("down".into())
            .to_string()
            .contains("down"));
    }
}

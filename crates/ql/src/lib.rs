//! The Querying module of QB2OLAP (Section III-B of the paper).
//!
//! Users write OLAP queries in the high-level language **QL** — a sequence
//! of `SLICE`, `ROLLUP`, `DRILLDOWN` and `DICE` operations — and the module
//! simplifies the program, translates it into one cube plan using the
//! QB4OLAP metadata, executes that plan on the endpoint (rendered as one of
//! two semantically equivalent SPARQL variants) or on the columnar engine,
//! and materialises the resulting cube on the fly.
//!
//! * [`ast`] / [`parser`] — the QL language;
//! * [`pipeline`] — the Query Simplification phase (slice push-down,
//!   roll-up/drill-down fusion) and schema validation;
//! * [`translate`](mod@translate) — the Query Translation phase: the one
//!   lowering of a pipeline into the cube plan ([`TranslationOutput`]) and
//!   its on-demand rendering as direct or alternative SPARQL;
//! * [`executor`] — the Execution phase behind the
//!   [`executor::ExecutionBackend`] seam (SPARQL on the endpoint, or the
//!   columnar [`cubestore`] engine) and the end-to-end
//!   [`executor::QueryingModule`];
//! * [`columnar`] — the one columnar execution path every
//!   [`executor::QueryingModule`] columnar call goes through: it runs the
//!   plan's [`cubestore::CubeQuery`] as it is;
//! * [`cube`] — the result cube.

#![warn(missing_docs)]

pub mod ast;
pub mod columnar;
pub mod cube;
pub mod error;
pub mod executor;
pub mod parser;
pub mod pipeline;
pub mod translate;

pub use cubestore;
pub use obs;

#[cfg(any(test, feature = "testutil"))]
pub mod testutil;

pub use ast::{
    CubeRef, DiceCondition, DiceOp, DiceOperand, DiceValue, QlOperation, QlProgram, QlStatement,
};
pub use columnar::execute_columnar;
pub use cube::{CodedCube, CubeAxis, CubeCell, ResultCube};
pub use cubestore::{CubeCatalog, MaintenanceReport, MaintenanceStrategy};
pub use error::QlError;
pub use executor::{ExecutionBackend, PreparedQuery, QueryTimings, QueryingModule};
pub use parser::parse_ql;
pub use pipeline::{simplify, QueryPipeline, SimplificationReport};
pub use translate::{translate, SparqlVariant, TranslationOutput};

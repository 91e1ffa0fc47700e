//! The W3C RDF Data Cube (QB) layer of the QB2OLAP reproduction.
//!
//! QB is the input format of QB2OLAP: statistical data sets published as
//! collections of observations whose schema is a Data Structure Definition
//! (DSD). This crate provides:
//!
//! * [`model`] — DSDs, components, datasets and observations;
//! * [`builder`] — triple generation for QB structures (used by the
//!   synthetic Eurostat generator and by tests);
//! * [`introspect`] — SPARQL-based discovery of QB structures on an
//!   endpoint, mirroring how the Enrichment module retrieves the cube
//!   structure (Figure 2 of the paper);
//! * [`validate`] — a practical subset of the QB integrity constraints.

#![warn(missing_docs)]

pub mod builder;
pub mod error;
pub mod introspect;
pub mod model;
pub mod validate;

pub use builder::{dataset_triples, dsd_triples, observation_triples, QbDatasetBuilder};
pub use error::QbError;
pub use introspect::{
    count_observations, dimension_members, list_datasets, load_dataset, load_dsd,
    load_observations, properties_of_members, DatasetSummary, ObservationTable,
};
pub use model::{Component, ComponentKind, DataStructureDefinition, Observation, QbDataset};
pub use validate::{validate_dataset, Severity, ValidationIssue, ValidationReport};

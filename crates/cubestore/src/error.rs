//! Error types of the columnar cube engine, including the enumerable
//! delta-refusal reasons incremental maintenance reports.

use std::fmt;

/// Why a store delta could not be replayed onto the columns — the typed
/// half of a [`DeltaRefusal`].
///
/// The variants enumerate every refusal the delta classifier can produce
/// (see the decision table in the [`crate::delta`] module docs); tests
/// iterate [`RefusalKind::ALL`] to keep the table and the code in sync.
/// Every refusal makes the catalog fall back to a full rebuild, so a wrong
/// classification can cost performance but never correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RefusalKind {
    /// A schema/hierarchy-structure triple was inserted or removed.
    SchemaStructure,
    /// A `skos:broader` link was added to an already-materialized member.
    RollupLinkAdded,
    /// A `skos:broader` link of a materialized member was removed.
    RollupLinkRemoved,
    /// A `qb4o:memberOf` declaration of a materialized member was removed.
    MemberRemoved,
    /// A member declaration collided with a term already frozen in the
    /// fact columns or reachable in the hierarchy.
    MemberConflict,
    /// An attribute value conflicted with the one already materialized.
    AttributeConflict,
    /// An attribute value of a materialized member was removed.
    AttributeRemoved,
    /// An attribute value arrived for a member the cube has never seen.
    UnknownMemberAttribute,
    /// The dataset's `rdfs:label` changed or was removed.
    DatasetLabelChanged,
}

impl RefusalKind {
    /// Every refusal kind, for exhaustive enumeration in tests and docs.
    ///
    /// Six historical kinds are gone, lifted into the delta path:
    /// `NonIntegralAppend` (float aggregation is order-independent now —
    /// compensated summation — so float appends replay exactly),
    /// `PartialObservationRemoval`, `ObservationMutated`,
    /// `DroppedObservationMutated`, `IncompleteObservation` and
    /// `MalformedObservation` (any fact triple of an observation the cube
    /// holds forgets the node and re-reads its star, which the build's
    /// encoder classifies; a slot with several values keeps the least
    /// `Term`).
    pub const ALL: [RefusalKind; 9] = [
        RefusalKind::SchemaStructure,
        RefusalKind::RollupLinkAdded,
        RefusalKind::RollupLinkRemoved,
        RefusalKind::MemberRemoved,
        RefusalKind::MemberConflict,
        RefusalKind::AttributeConflict,
        RefusalKind::AttributeRemoved,
        RefusalKind::UnknownMemberAttribute,
        RefusalKind::DatasetLabelChanged,
    ];

    /// A stable, slug-like name (used in maintenance telemetry).
    pub fn name(self) -> &'static str {
        match self {
            RefusalKind::SchemaStructure => "schema-structure",
            RefusalKind::RollupLinkAdded => "rollup-link-added",
            RefusalKind::RollupLinkRemoved => "rollup-link-removed",
            RefusalKind::MemberRemoved => "member-removed",
            RefusalKind::MemberConflict => "member-conflict",
            RefusalKind::AttributeConflict => "attribute-conflict",
            RefusalKind::AttributeRemoved => "attribute-removed",
            RefusalKind::UnknownMemberAttribute => "unknown-member-attribute",
            RefusalKind::DatasetLabelChanged => "dataset-label-changed",
        }
    }
}

impl fmt::Display for RefusalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One delta-refusal: the enumerable kind plus the human-readable detail
/// (which triple/node/member tripped the classifier).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRefusal {
    /// The enumerable refusal class.
    pub kind: RefusalKind,
    /// What exactly was refused, for logs and error messages.
    pub detail: String,
}

impl DeltaRefusal {
    /// Creates a refusal.
    pub fn new(kind: RefusalKind, detail: impl Into<String>) -> Self {
        DeltaRefusal {
            kind,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for DeltaRefusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.detail, self.kind)
    }
}

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
    /// A store delta cannot be applied incrementally. Callers fall back to
    /// a full rebuild; the [`DeltaRefusal`] becomes the rebuild reason the
    /// maintenance report records.
    DeltaUnsupported(DeltaRefusal),
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
        let e: CubeStoreError = sparql::SparqlError::eval("boom").into();
        assert!(e.to_string().contains("boom"));
        let e: CubeStoreError = qb::QbError::NotFound("d".into()).into();
        assert!(e.to_string().contains("d"));
        let e: CubeStoreError = qb4olap::Qb4olapError::SchemaNotFound("s".into()).into();
        assert!(e.to_string().contains("s"));
    }

    #[test]
    fn refusals_carry_kind_and_detail() {
        let refusal = DeltaRefusal::new(RefusalKind::RollupLinkRemoved, "link gone");
        let error = CubeStoreError::DeltaUnsupported(refusal.clone());
        let rendered = error.to_string();
        assert!(rendered.contains("link gone"), "{rendered}");
        assert!(rendered.contains("rollup-link-removed"), "{rendered}");
        assert_eq!(refusal.kind, RefusalKind::RollupLinkRemoved);
    }

    #[test]
    fn refusal_kinds_enumerate_with_distinct_names() {
        let names: std::collections::BTreeSet<&str> =
            RefusalKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), RefusalKind::ALL.len(), "names are distinct");
    }
}

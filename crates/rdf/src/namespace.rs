//! Prefix management for compact (CURIE-style) IRI rendering and parsing.

use std::collections::BTreeMap;

use crate::term::Iri;
use crate::vocab;

/// A bidirectional prefix ↔ namespace map.
///
/// Used by the Turtle parser/serialiser, the SPARQL pretty-printer, and the
/// exploration module when rendering IRIs in a user-friendly compact form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixMap {
    prefixes: BTreeMap<String, String>,
}

impl PrefixMap {
    /// Creates an empty prefix map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a prefix map pre-populated with every vocabulary QB2OLAP uses
    /// (rdf, rdfs, xsd, owl, skos, qb, qb4o, sdmx-*, eurostat, schema, dbo).
    pub fn with_common_prefixes() -> Self {
        let mut map = Self::new();
        map.insert("rdf", vocab::rdf::NAMESPACE);
        map.insert("rdfs", vocab::rdfs::NAMESPACE);
        map.insert("xsd", vocab::xsd::NAMESPACE);
        map.insert("owl", vocab::owl::NAMESPACE);
        map.insert("skos", vocab::skos::NAMESPACE);
        map.insert("qb", vocab::qb::NAMESPACE);
        map.insert("qb4o", vocab::qb4o::NAMESPACE);
        map.insert("sdmx-dimension", vocab::sdmx_dimension::NAMESPACE);
        map.insert("sdmx-measure", vocab::sdmx_measure::NAMESPACE);
        map.insert("sdmx-attribute", vocab::sdmx_attribute::NAMESPACE);
        map.insert("property", vocab::eurostat_property::NAMESPACE);
        map.insert("dsd", vocab::eurostat_dsd::NAMESPACE);
        map.insert("data", vocab::eurostat_data::NAMESPACE);
        map.insert("dic", vocab::eurostat_dic::NAMESPACE);
        map.insert("schema", vocab::demo_schema::NAMESPACE);
        map.insert("dbo", vocab::dbpedia::NAMESPACE);
        map
    }

    /// Registers (or replaces) a prefix.
    pub fn insert(&mut self, prefix: impl Into<String>, namespace: impl Into<String>) {
        self.prefixes.insert(prefix.into(), namespace.into());
    }

    /// Looks up the namespace bound to a prefix.
    pub fn namespace(&self, prefix: &str) -> Option<&str> {
        self.prefixes.get(prefix).map(String::as_str)
    }

    /// Number of registered prefixes.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// True if no prefix is registered.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// Iterates over `(prefix, namespace)` pairs in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.prefixes.iter().map(|(p, n)| (p.as_str(), n.as_str()))
    }

    /// Expands a prefixed name (`prefix:local`) to a full IRI.
    ///
    /// Returns `None` if the prefix is unknown or the input has no colon.
    pub fn expand(&self, prefixed: &str) -> Option<Iri> {
        let (prefix, local) = prefixed.split_once(':')?;
        let ns = self.prefixes.get(prefix)?;
        Some(Iri::new(format!("{ns}{local}")))
    }

    /// Compacts a full IRI to `prefix:local` if a registered namespace is a
    /// prefix of it; otherwise returns the angle-bracketed full form.
    pub fn compact(&self, iri: &Iri) -> String {
        let s = iri.as_str();
        let mut best: Option<(&str, &str)> = None;
        for (prefix, ns) in &self.prefixes {
            if let Some(local) = s.strip_prefix(ns.as_str()) {
                if best.map(|(_, bns)| ns.len() > bns.len()).unwrap_or(true) {
                    best = Some((prefix, ns));
                    let _ = local;
                }
            }
        }
        match best {
            Some((prefix, ns)) => {
                let local = &s[ns.len()..];
                if is_valid_local_name(local) {
                    format!("{prefix}:{local}")
                } else {
                    format!("<{s}>")
                }
            }
            None => format!("<{s}>"),
        }
    }
}

/// True if `local` can be written as the local part of a prefixed name in
/// Turtle/SPARQL without escaping (a conservative approximation).
fn is_valid_local_name(local: &str) -> bool {
    !local.is_empty()
        && local
            .chars()
            .all(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.')
        && !local.ends_with('.')
        && !local.starts_with('.')
        && !local.starts_with('-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_and_compact_roundtrip() {
        let map = PrefixMap::with_common_prefixes();
        let iri = map.expand("qb:DataSet").expect("known prefix");
        assert_eq!(iri.as_str(), "http://purl.org/linked-data/cube#DataSet");
        assert_eq!(map.compact(&iri), "qb:DataSet");
    }

    #[test]
    fn expand_unknown_prefix_is_none() {
        let map = PrefixMap::new();
        assert!(map.expand("qb:DataSet").is_none());
        assert!(map.expand("noColonHere").is_none());
    }

    #[test]
    fn compact_unknown_namespace_uses_angle_brackets() {
        let map = PrefixMap::with_common_prefixes();
        let iri = Iri::new("http://unknown.example/x");
        assert_eq!(map.compact(&iri), "<http://unknown.example/x>");
    }

    #[test]
    fn compact_prefers_longest_namespace() {
        let mut map = PrefixMap::new();
        map.insert("a", "http://example.org/");
        map.insert("b", "http://example.org/deep/");
        let iri = Iri::new("http://example.org/deep/x");
        assert_eq!(map.compact(&iri), "b:x");
    }

    #[test]
    fn compact_falls_back_for_odd_local_names() {
        let mut map = PrefixMap::new();
        map.insert("ex", "http://example.org/");
        let iri = Iri::new("http://example.org/a b");
        assert_eq!(map.compact(&iri), "<http://example.org/a b>");
    }

    #[test]
    fn common_prefixes_cover_paper_namespaces() {
        let map = PrefixMap::with_common_prefixes();
        for p in [
            "rdf",
            "rdfs",
            "xsd",
            "skos",
            "qb",
            "qb4o",
            "sdmx-dimension",
            "sdmx-measure",
            "property",
            "schema",
            "data",
            "dbo",
        ] {
            assert!(map.namespace(p).is_some(), "missing prefix {p}");
        }
    }
}

//! Serialisers for N-Triples and (pretty-printed, prefixed) Turtle.

use std::collections::BTreeMap;

use crate::graph::Graph;
use crate::namespace::PrefixMap;
use crate::term::{Iri, Term, Triple};

/// Serialises a graph as N-Triples (one triple per line, canonical order).
pub fn to_ntriples(graph: &Graph) -> String {
    let mut lines: Vec<String> = graph.iter().map(|t| format_triple_ntriples(&t)).collect();
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Serialises a single triple as one N-Triples line (without the newline).
pub fn format_triple_ntriples(triple: &Triple) -> String {
    format!(
        "{} {} {} .",
        format_term_ntriples(&triple.subject),
        Term::Iri(triple.predicate.clone()),
        format_term_ntriples(&triple.object)
    )
}

fn format_term_ntriples(term: &Term) -> String {
    term.to_string()
}

/// Serialises a graph as Turtle, grouping triples by subject and compacting
/// IRIs with the given prefix map. Prefix declarations for every prefix that
/// is actually used are emitted at the top.
pub fn to_turtle(graph: &Graph, prefixes: &PrefixMap) -> String {
    // Group triples by subject, then by predicate, preserving a stable order.
    let mut by_subject: BTreeMap<Term, BTreeMap<Iri, Vec<Term>>> = BTreeMap::new();
    for triple in graph.iter() {
        by_subject
            .entry(triple.subject.clone())
            .or_default()
            .entry(triple.predicate.clone())
            .or_default()
            .push(triple.object.clone());
    }

    let mut body = String::new();
    let mut used_prefixes: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();

    let compact = |term: &Term, used: &mut std::collections::BTreeSet<String>| -> String {
        match term {
            Term::Iri(iri) => {
                let c = prefixes.compact(iri);
                if let Some((prefix, _)) = c.split_once(':') {
                    if !c.starts_with('<') {
                        used.insert(prefix.to_string());
                    }
                }
                c
            }
            other => other.to_string(),
        }
    };

    for (subject, predicates) in &by_subject {
        let subject_str = compact(subject, &mut used_prefixes);
        body.push_str(&subject_str);
        let mut first_pred = true;
        for (predicate, objects) in predicates {
            if first_pred {
                body.push(' ');
                first_pred = false;
            } else {
                body.push_str(" ;\n    ");
            }
            let pred_str = if *predicate == crate::vocab::rdf::type_() {
                "a".to_string()
            } else {
                compact(&Term::Iri(predicate.clone()), &mut used_prefixes)
            };
            body.push_str(&pred_str);
            body.push(' ');
            let mut object_strs: Vec<String> = objects
                .iter()
                .map(|o| {
                    if let Term::Literal(lit) = o {
                        // Compact the datatype IRI too when possible.
                        if lit.language().is_none()
                            && lit.datatype() != &crate::vocab::xsd::string()
                        {
                            let dt = prefixes.compact(lit.datatype());
                            if !dt.starts_with('<') {
                                if let Some((prefix, _)) = dt.split_once(':') {
                                    used_prefixes.insert(prefix.to_string());
                                }
                                return format!(
                                    "\"{}\"^^{}",
                                    crate::term::escape_literal(lit.lexical()),
                                    dt
                                );
                            }
                        }
                        o.to_string()
                    } else {
                        compact(o, &mut used_prefixes)
                    }
                })
                .collect();
            object_strs.sort();
            body.push_str(&object_strs.join(", "));
        }
        body.push_str(" .\n");
    }

    let mut header = String::new();
    for (prefix, ns) in prefixes.iter() {
        if used_prefixes.contains(prefix) {
            header.push_str(&format!("@prefix {prefix}: <{ns}> .\n"));
        }
    }
    if !header.is_empty() {
        header.push('\n');
    }
    header + &body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_ntriples, parse_turtle};
    use crate::term::Literal;
    use crate::vocab::{qb, rdf};

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        g.insert(&Triple::new(
            Term::iri("http://example.org/ds"),
            rdf::type_(),
            Term::Iri(qb::data_set_class()),
        ));
        g.insert(&Triple::new(
            Term::iri("http://example.org/ds"),
            crate::vocab::rdfs::label(),
            Literal::lang_string("Asylum applications", "en"),
        ));
        g.insert(&Triple::new(
            Term::iri("http://example.org/obs1"),
            Iri::new("http://purl.org/linked-data/sdmx/2009/measure#obsValue"),
            Literal::integer(125),
        ));
        g
    }

    #[test]
    fn ntriples_roundtrip() {
        let g = sample_graph();
        let nt = to_ntriples(&g);
        let parsed = parse_ntriples(&nt).expect("reparse").into_graph();
        assert_eq!(parsed.len(), g.len());
        for t in g.iter() {
            assert!(parsed.contains(&t), "missing {t}");
        }
    }

    #[test]
    fn turtle_roundtrip_with_prefixes() {
        let g = sample_graph();
        let prefixes = PrefixMap::with_common_prefixes();
        let ttl = to_turtle(&g, &prefixes);
        assert!(
            ttl.contains("@prefix qb:"),
            "prefix header expected:\n{ttl}"
        );
        assert!(
            ttl.contains("a qb:DataSet"),
            "rdf:type shortened to 'a':\n{ttl}"
        );
        let parsed = parse_turtle(&ttl).expect("reparse").into_graph();
        assert_eq!(parsed.len(), g.len());
        for t in g.iter() {
            assert!(parsed.contains(&t), "missing {t}");
        }
    }

    #[test]
    fn only_used_prefixes_are_declared() {
        let mut g = Graph::new();
        g.insert(&Triple::new(
            Term::iri("http://x/s"),
            Iri::new("http://x/p"),
            Term::iri("http://x/o"),
        ));
        let ttl = to_turtle(&g, &PrefixMap::with_common_prefixes());
        assert!(!ttl.contains("@prefix qb:"));
    }

    #[test]
    fn empty_graph_serialises_to_empty_strings() {
        let g = Graph::new();
        assert_eq!(to_ntriples(&g), "");
        assert_eq!(to_turtle(&g, &PrefixMap::new()), "");
    }

    #[test]
    fn literal_datatypes_are_compacted() {
        let mut g = Graph::new();
        g.insert(&Triple::new(
            Term::iri("http://x/s"),
            Iri::new("http://x/p"),
            Literal::integer(3),
        ));
        let ttl = to_turtle(&g, &PrefixMap::with_common_prefixes());
        assert!(ttl.contains("^^xsd:integer"), "{ttl}");
    }
}

//! RDF substrate for the QB2OLAP reproduction.
//!
//! This crate provides everything QB2OLAP needs from an RDF library and a
//! triple store (the roles played by Apache Jena and Virtuoso in the
//! original system):
//!
//! * [`term`] — IRIs, blank nodes, typed literals, triples;
//! * [`graph`] — an in-memory graph with term interning and SPO/POS/OSP
//!   indexes, each a shared sorted run with first-term offsets plus a small
//!   insert/remove overlay;
//! * [`hash`] — the Fx hasher the interner and the id tables use;
//! * [`heap`] — the allocator policy of a process that holds a store;
//! * [`store`] — a thread-safe store with a default graph and named graphs,
//!   whose snapshots share the graphs' runs;
//! * [`parser`] / [`serializer`] — Turtle and N-Triples I/O;
//! * [`namespace`] — prefix management;
//! * [`vocab`] — the RDF/RDFS/XSD/SKOS/QB/QB4OLAP/SDMX/Eurostat vocabularies.
//!
//! # Example
//!
//! ```
//! use rdf::prelude::*;
//!
//! let store = Store::new();
//! store
//!     .load_turtle(
//!         "@prefix qb: <http://purl.org/linked-data/cube#> .
//!          @prefix ex: <http://example.org/> .
//!          ex:obs1 a qb:Observation ; ex:value 42 .",
//!     )
//!     .unwrap();
//! assert_eq!(store.len(), 2);
//! let obs = store.subjects_of_type(&vocab::qb::observation());
//! assert_eq!(obs, vec![Term::iri("http://example.org/obs1")]);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod graph;
pub mod hash;
pub mod heap;
pub mod namespace;
pub mod parser;
pub mod serializer;
pub mod store;
pub mod term;
pub mod vocab;

pub use error::{ParseError, StoreError};
pub use graph::{EncodedTriple, Graph, Interner, Range, TermId};
pub use namespace::PrefixMap;
pub use store::{Store, StoreDelta, DEFAULT_CHANGE_LOG_CAPACITY};
pub use term::{BlankNode, Iri, Literal, Numeric, Term, Triple};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::graph::Graph;
    pub use crate::namespace::PrefixMap;
    pub use crate::store::Store;
    pub use crate::term::{BlankNode, Iri, Literal, Term, Triple};
    pub use crate::vocab;
}

// Randomised invariant tests. The seed repo expressed these with `proptest`,
// which is unavailable in the offline build; seeded `StdRng` sampling keeps
// the same invariant coverage (without shrinking) and stays deterministic.
#[cfg(test)]
mod proptests {
    use rand::{rngs::StdRng, Rng, SeedableRng};

    use crate::graph::Graph;
    use crate::parser::parse_ntriples;
    use crate::serializer::to_ntriples;
    use crate::term::{Iri, Literal, Term, Triple};

    const CASES: u64 = 128;

    fn random_string(rng: &mut StdRng, lengths: std::ops::Range<usize>, pool: &str) -> String {
        let chars: Vec<char> = pool.chars().collect();
        (0..rng.gen_range(lengths))
            .map(|_| chars[rng.gen_range(0..chars.len())])
            .collect()
    }

    fn random_iri(rng: &mut StdRng) -> Iri {
        let s = random_string(rng, 1..9, "abcdefghijklmnopqrstuvwxyz");
        Iri::new(format!("http://example.org/{s}"))
    }

    fn random_literal(rng: &mut StdRng) -> Literal {
        match rng.gen_range(0..4u8) {
            0 => {
                let printable: String = (b' '..=b'~').map(char::from).collect();
                Literal::string(random_string(rng, 0..21, &printable))
            }
            1 => Literal::integer(rng.gen_range(i32::MIN as i64..=i32::MAX as i64)),
            2 => Literal::boolean(rng.gen_bool(0.5)),
            _ => {
                let text = random_string(
                    rng,
                    0..11,
                    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ ",
                );
                let lang = random_string(rng, 2..3, "abcdefghijklmnopqrstuvwxyz");
                Literal::lang_string(text, lang)
            }
        }
    }

    fn random_blank_label(rng: &mut StdRng) -> String {
        random_string(rng, 1..7, "abcdefghijklmnopqrstuvwxyz0123456789")
    }

    fn random_term(rng: &mut StdRng) -> Term {
        match rng.gen_range(0..3u8) {
            0 => Term::Iri(random_iri(rng)),
            1 => Term::Literal(random_literal(rng)),
            _ => Term::blank(random_blank_label(rng)),
        }
    }

    fn random_subject(rng: &mut StdRng) -> Term {
        if rng.gen_bool(0.5) {
            Term::Iri(random_iri(rng))
        } else {
            Term::blank(random_blank_label(rng))
        }
    }

    fn random_triple(rng: &mut StdRng) -> Triple {
        Triple::new(random_subject(rng), random_iri(rng), random_term(rng))
    }

    fn random_triples(rng: &mut StdRng, counts: std::ops::Range<usize>) -> Vec<Triple> {
        (0..rng.gen_range(counts))
            .map(|_| random_triple(rng))
            .collect()
    }

    /// Serialising a graph to N-Triples and parsing it back yields the
    /// same set of triples.
    #[test]
    fn ntriples_roundtrip() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = Graph::from_triples(random_triples(&mut rng, 0..40));
            let nt = to_ntriples(&graph);
            let reparsed = parse_ntriples(&nt)
                .expect("serialiser output must parse")
                .into_graph();
            assert_eq!(reparsed.len(), graph.len(), "seed {seed}");
            for t in graph.iter() {
                assert!(reparsed.contains(&t), "seed {seed}: missing triple {t}");
            }
        }
    }

    /// Graph insertion is idempotent and pattern matching with all
    /// components bound agrees with `contains`.
    #[test]
    fn graph_insert_idempotent() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let triples = random_triples(&mut rng, 0..40);
            let mut graph = Graph::new();
            for t in &triples {
                graph.insert(t);
            }
            let len_once = graph.len();
            for t in &triples {
                graph.insert(t);
            }
            assert_eq!(graph.len(), len_once, "seed {seed}");
            for t in &triples {
                assert!(graph.contains(t), "seed {seed}");
                let matched =
                    graph.triples_matching(Some(&t.subject), Some(&t.predicate), Some(&t.object));
                assert_eq!(matched.len(), 1, "seed {seed}");
            }
        }
    }

    /// Any pattern query returns a subset of the full graph and the
    /// unconstrained pattern returns everything.
    #[test]
    fn pattern_queries_are_consistent() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = Graph::from_triples(random_triples(&mut rng, 1..30));
            let all = graph.triples_matching(None, None, None);
            assert_eq!(all.len(), graph.len(), "seed {seed}");
            for t in &all {
                let by_subject = graph.triples_matching(Some(&t.subject), None, None);
                assert!(by_subject.contains(t), "seed {seed}");
                let by_predicate = graph.triples_matching(None, Some(&t.predicate), None);
                assert!(by_predicate.contains(t), "seed {seed}");
                let by_object = graph.triples_matching(None, None, Some(&t.object));
                assert!(by_object.contains(t), "seed {seed}");
            }
        }
    }
}

//! An in-memory, indexed RDF graph.
//!
//! Terms are interned into dense `u32` identifiers and triples are kept in
//! three `BTreeSet` indexes (SPO, POS, OSP) so that any triple pattern with
//! a bound prefix can be answered with a range scan. This mirrors the
//! index layout of typical RDF stores (the role Virtuoso plays in the
//! original QB2OLAP deployment).

use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};

use crate::term::{Iri, Term, Triple};

/// A dense identifier for an interned term.
pub type TermId = u32;

/// Interns [`Term`]s to dense [`TermId`]s and back.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    terms: Vec<Term>,
    ids: HashMap<Term, TermId>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `term`, interning it if necessary.
    pub fn intern(&mut self, term: &Term) -> TermId {
        // Probe first: most calls hit (a bulk load interns ~3 terms per
        // triple over a far smaller vocabulary), and a hit clones nothing.
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = self.terms.len() as TermId;
        self.terms.push(term.clone());
        self.ids.insert(term.clone(), id);
        id
    }

    /// Returns the id of `term` if it has already been interned.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// Returns the term for a previously issued id.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this interner.
    pub fn resolve(&self, id: TermId) -> &Term {
        &self.terms[id as usize]
    }

    /// Reserves room for at least `additional` more distinct terms.
    pub fn reserve(&mut self, additional: usize) {
        self.terms.reserve(additional);
        self.ids.reserve(additional);
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (i as TermId, t))
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// A triple of interned term ids in (subject, predicate, object) order.
pub type EncodedTriple = (TermId, TermId, TermId);

/// An in-memory RDF graph with SPO/POS/OSP indexes.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    interner: Interner,
    /// Predicate IRI → id of its `Term::Iri`, so encoding a triple wraps a
    /// predicate in a `Term` once per distinct IRI, not once per triple.
    predicates: HashMap<Iri, TermId>,
    spo: BTreeSet<(TermId, TermId, TermId)>,
    pos: BTreeSet<(TermId, TermId, TermId)>,
    osp: BTreeSet<(TermId, TermId, TermId)>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triples in the graph.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True if the graph contains no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Number of distinct terms appearing in the graph.
    pub fn term_count(&self) -> usize {
        self.interner.len()
    }

    /// Interns a triple's components without inserting it.
    fn encode(&mut self, triple: &Triple) -> EncodedTriple {
        let s = self.interner.intern(&triple.subject);
        let p = match self.predicates.get(&triple.predicate) {
            Some(&id) => id,
            None => {
                let id = self.interner.intern(&Term::Iri(triple.predicate.clone()));
                self.predicates.insert(triple.predicate.clone(), id);
                id
            }
        };
        let o = self.interner.intern(&triple.object);
        (s, p, o)
    }

    /// The id of a predicate IRI, if any triple could carry it.
    fn predicate_id(&self, predicate: &Iri) -> Option<TermId> {
        match self.predicates.get(predicate) {
            Some(&id) => Some(id),
            // Interned only as a subject or object so far.
            None => self.interner.get(&Term::Iri(predicate.clone())),
        }
    }

    /// Inserts a triple. Returns `true` if it was not already present.
    pub fn insert(&mut self, triple: &Triple) -> bool {
        let encoded = self.encode(triple);
        self.insert_encoded(encoded)
    }

    /// Inserts a batch of triples, returning how many were new.
    ///
    /// Into an **empty** graph this takes the fast path the ROADMAP's
    /// bulk-load hot path asks for: encode everything, sort + dedup once,
    /// and build the three indexes from the sorted runs — instead of three
    /// per-triple `BTreeSet` probes. On a non-empty graph it falls back to
    /// per-triple insertion (the batch must still be checked against what
    /// is already there). Triples may be passed by reference: nothing of a
    /// triple is cloned but the terms the graph has not seen yet.
    pub fn bulk_insert<I>(&mut self, triples: I) -> usize
    where
        I: IntoIterator,
        I::Item: Borrow<Triple>,
    {
        let iter = triples.into_iter();
        if !self.spo.is_empty() {
            return iter.filter(|triple| self.insert(triple.borrow())).count();
        }
        // A fresh graph: no existing triples to collide with, so the only
        // duplicates are within the batch itself — sort + dedup finds them
        // in one pass. The interner grows with the distinct terms it meets:
        // a batch has several triples per term, and a table sized for the
        // triples would be touched sparsely, a fresh page per probe.
        let mut encoded: Vec<EncodedTriple> = iter.map(|t| self.encode(t.borrow())).collect();
        encoded.sort_unstable();
        encoded.dedup();
        self.spo = encoded.iter().copied().collect();
        self.pos = encoded.iter().map(|&(s, p, o)| (p, o, s)).collect();
        self.osp = encoded.iter().map(|&(s, p, o)| (o, s, p)).collect();
        encoded.len()
    }

    /// Inserts a triple given by already-interned ids.
    pub fn insert_encoded(&mut self, (s, p, o): EncodedTriple) -> bool {
        let added = self.spo.insert((s, p, o));
        if added {
            self.pos.insert((p, o, s));
            self.osp.insert((o, s, p));
        }
        added
    }

    /// Removes a triple. Returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.interner.get(&triple.subject),
            self.predicate_id(&triple.predicate),
            self.interner.get(&triple.object),
        ) else {
            return false;
        };
        let removed = self.spo.remove(&(s, p, o));
        if removed {
            self.pos.remove(&(p, o, s));
            self.osp.remove(&(o, s, p));
        }
        removed
    }

    /// True if the graph contains the given triple.
    pub fn contains(&self, triple: &Triple) -> bool {
        match (
            self.interner.get(&triple.subject),
            self.predicate_id(&triple.predicate),
            self.interner.get(&triple.object),
        ) {
            (Some(s), Some(p), Some(o)) => self.spo.contains(&(s, p, o)),
            _ => false,
        }
    }

    /// Interns a term (for callers that want to work at the id level,
    /// e.g. the SPARQL evaluator).
    pub fn intern(&mut self, term: &Term) -> TermId {
        self.interner.intern(term)
    }

    /// Looks up the id of a term without interning it.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.interner.get(term)
    }

    /// Resolves an id back to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.interner.resolve(id)
    }

    /// Iterates over all triples (decoded).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().map(move |&(s, p, o)| self.decode((s, p, o)))
    }

    /// Decodes an encoded triple into a [`Triple`].
    ///
    /// # Panics
    /// Panics if the predicate id does not resolve to an IRI.
    pub fn decode(&self, (s, p, o): EncodedTriple) -> Triple {
        let predicate = match self.interner.resolve(p) {
            Term::Iri(iri) => iri.clone(),
            other => panic!("predicate id {p} is not an IRI: {other}"),
        };
        Triple {
            subject: self.interner.resolve(s).clone(),
            predicate,
            object: self.interner.resolve(o).clone(),
        }
    }

    /// Matches a triple pattern, returning decoded triples.
    ///
    /// `None` components are wildcards. The best index for the bound prefix
    /// is chosen automatically.
    pub fn triples_matching(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Iri>,
        object: Option<&Term>,
    ) -> Vec<Triple> {
        self.matching(subject, predicate, object)
            .map(|t| self.decode(t))
            .collect()
    }

    /// Matches a triple pattern given as terms at the id level; a term the
    /// graph has never seen matches nothing.
    fn matching(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Iri>,
        object: Option<&Term>,
    ) -> impl Iterator<Item = EncodedTriple> + '_ {
        let s = subject.map(|t| self.interner.get(t));
        let p = predicate.map(|iri| self.predicate_id(iri));
        let o = object.map(|t| self.interner.get(t));
        let known = ![s, p, o].contains(&Some(None));
        known
            .then(|| self.matching_ids(s.flatten(), p.flatten(), o.flatten()))
            .into_iter()
            .flatten()
    }

    /// Matches a triple pattern where components are given as optional ids.
    pub fn match_ids(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<EncodedTriple> {
        self.matching_ids(s, p, o).collect()
    }

    /// Iterates the triples matching an id-level pattern (`None` =
    /// wildcard) straight off the index whose sort order has the bound
    /// components as a prefix — one range scan, nothing collected. This is
    /// the single place an index is chosen; every other matcher sits on it.
    pub fn matching_ids(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> impl Iterator<Item = EncodedTriple> + '_ {
        // An index key back to (s, p, o) order.
        type ToSpo = fn((TermId, TermId, TermId)) -> EncodedTriple;
        // (index, its key components in sort order, key → (s, p, o)).
        let (index, [a, b, c], to_spo): (_, _, ToSpo) = match (s, p, o) {
            (Some(_), None, Some(_)) | (None, None, Some(_)) => {
                (&self.osp, [o, s, p], |(o, s, p)| (s, p, o))
            }
            (None, Some(_), _) => (&self.pos, [p, o, s], |(p, o, s)| (s, p, o)),
            _ => (&self.spo, [s, p, o], |spo| spo),
        };
        debug_assert!(a.is_some() || b.is_none(), "bound components form a prefix");
        debug_assert!(b.is_some() || c.is_none(), "bound components form a prefix");
        let low = (a.unwrap_or(0), b.unwrap_or(0), c.unwrap_or(0));
        let high = (
            a.unwrap_or(TermId::MAX),
            b.unwrap_or(TermId::MAX),
            c.unwrap_or(TermId::MAX),
        );
        index.range(low..=high).map(move |&key| to_spo(key))
    }

    /// Convenience: all objects of `(subject, predicate, ?o)`.
    pub fn objects(&self, subject: &Term, predicate: &Iri) -> Vec<Term> {
        self.matching(Some(subject), Some(predicate), None)
            .map(|(_, _, o)| self.term(o).clone())
            .collect()
    }

    /// Convenience: the first object of `(subject, predicate, ?o)`, if any.
    pub fn object(&self, subject: &Term, predicate: &Iri) -> Option<Term> {
        self.matching(Some(subject), Some(predicate), None)
            .map(|(_, _, o)| self.term(o).clone())
            .next()
    }

    /// Convenience: all subjects of `(?s, predicate, object)`.
    pub fn subjects(&self, predicate: &Iri, object: &Term) -> Vec<Term> {
        self.matching(None, Some(predicate), Some(object))
            .map(|(s, _, _)| self.term(s).clone())
            .collect()
    }

    /// Convenience: all subjects that have `rdf:type` `class`.
    pub fn subjects_of_type(&self, class: &Iri) -> Vec<Term> {
        self.subjects(&crate::vocab::rdf::type_(), &Term::Iri(class.clone()))
    }

    /// Convenience: all distinct predicates used on `subject`.
    pub fn predicates_of(&self, subject: &Term) -> Vec<Iri> {
        let mut preds: Vec<Iri> = self
            .triples_matching(Some(subject), None, None)
            .into_iter()
            .map(|t| t.predicate)
            .collect();
        preds.sort();
        preds.dedup();
        preds
    }

    /// Extends this graph with all triples from another graph.
    pub fn extend_from(&mut self, other: &Graph) {
        for triple in other.iter() {
            self.insert(&triple);
        }
    }

    /// Builds a graph from an iterator of triples.
    pub fn from_triples<I: IntoIterator<Item = Triple>>(triples: I) -> Self {
        let mut g = Graph::new();
        for t in triples {
            g.insert(&t);
        }
        g
    }
}

impl Extend<Triple> for Graph {
    fn extend<T: IntoIterator<Item = Triple>>(&mut self, iter: T) {
        for t in iter {
            self.insert(&t);
        }
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<T: IntoIterator<Item = Triple>>(iter: T) -> Self {
        Graph::from_triples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;
    use crate::vocab::{rdf, rdfs};

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Iri::new(p), Term::iri(o))
    }

    #[test]
    fn insert_contains_remove() {
        let mut g = Graph::new();
        let triple = t("http://s", "http://p", "http://o");
        assert!(g.insert(&triple));
        assert!(!g.insert(&triple), "duplicate insert must return false");
        assert_eq!(g.len(), 1);
        assert!(g.contains(&triple));
        assert!(g.remove(&triple));
        assert!(!g.contains(&triple));
        assert!(g.is_empty());
    }

    #[test]
    fn pattern_matching_all_shapes() {
        let mut g = Graph::new();
        g.insert(&t("http://a", "http://p1", "http://x"));
        g.insert(&t("http://a", "http://p2", "http://y"));
        g.insert(&t("http://b", "http://p1", "http://x"));
        g.insert(&t("http://b", "http://p1", "http://z"));

        let a = Term::iri("http://a");
        let p1 = Iri::new("http://p1");
        let x = Term::iri("http://x");

        assert_eq!(g.triples_matching(None, None, None).len(), 4);
        assert_eq!(g.triples_matching(Some(&a), None, None).len(), 2);
        assert_eq!(g.triples_matching(None, Some(&p1), None).len(), 3);
        assert_eq!(g.triples_matching(None, None, Some(&x)).len(), 2);
        assert_eq!(g.triples_matching(Some(&a), Some(&p1), None).len(), 1);
        assert_eq!(g.triples_matching(None, Some(&p1), Some(&x)).len(), 2);
        assert_eq!(g.triples_matching(Some(&a), None, Some(&x)).len(), 1);
        assert_eq!(g.triples_matching(Some(&a), Some(&p1), Some(&x)).len(), 1);
    }

    #[test]
    fn an_iri_is_one_term_in_any_position() {
        let mut g = Graph::new();
        // `q` is first seen as an object and then used as a predicate, `p`
        // the other way round: one id each, whichever way they came in.
        g.insert(&t("http://a", "http://p", "http://q"));
        assert!(!g.contains(&t("http://a", "http://q", "http://p")));
        assert!(g.insert(&t("http://a", "http://q", "http://p")));
        assert_eq!(g.term_count(), 3);
        assert_eq!(g.triples_matching(None, Some(&Iri::new("http://q")), None).len(), 1);
        assert_eq!(g.subjects(&Iri::new("http://p"), &Term::iri("http://q")).len(), 1);
        assert!(g.remove(&t("http://a", "http://q", "http://p")));
        assert!(!g.remove(&t("http://a", "http://q", "http://p")));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn matching_ids_agrees_with_a_full_scan_for_every_shape() {
        let mut g = Graph::new();
        for i in 0..60u32 {
            g.insert(&t(
                &format!("http://s{}", i % 7),
                &format!("http://p{}", i % 3),
                &format!("http://o{}", i % 5),
            ));
        }
        let all = g.match_ids(None, None, None);
        assert_eq!(all.len(), g.len());
        let (s0, p0, o0) = all[all.len() / 2];
        let unused = g.term_count() as TermId + 7;
        for s in [None, Some(s0), Some(unused)] {
            for p in [None, Some(p0), Some(unused)] {
                for o in [None, Some(o0), Some(unused)] {
                    let wanted = |bound: Option<TermId>, id| bound.is_none_or(|b| b == id);
                    let mut expected: Vec<EncodedTriple> = all
                        .iter()
                        .copied()
                        .filter(|&(ts, tp, to)| wanted(s, ts) && wanted(p, tp) && wanted(o, to))
                        .collect();
                    let mut matched: Vec<EncodedTriple> = g.matching_ids(s, p, o).collect();
                    assert_eq!(matched, g.match_ids(s, p, o));
                    matched.sort_unstable();
                    expected.sort_unstable();
                    assert_eq!(matched, expected, "pattern ({s:?}, {p:?}, {o:?})");
                }
            }
        }
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let mut g = Graph::new();
        g.insert(&t("http://a", "http://p", "http://x"));
        let unknown = Term::iri("http://unknown");
        assert!(g.triples_matching(Some(&unknown), None, None).is_empty());
        assert!(g
            .triples_matching(None, Some(&Iri::new("http://nope")), None)
            .is_empty());
    }

    #[test]
    fn convenience_accessors() {
        let mut g = Graph::new();
        let syria = Term::iri("http://ex/SY");
        g.insert(&Triple::new(
            syria.clone(),
            rdf::type_(),
            Term::iri("http://ex/Country"),
        ));
        g.insert(&Triple::new(
            syria.clone(),
            rdfs::label(),
            Literal::string("Syria"),
        ));

        assert_eq!(
            g.object(&syria, &rdfs::label()),
            Some(Term::Literal(Literal::string("Syria")))
        );
        assert_eq!(
            g.subjects_of_type(&Iri::new("http://ex/Country")),
            vec![syria.clone()]
        );
        assert_eq!(g.predicates_of(&syria).len(), 2);
    }

    #[test]
    fn literal_objects_are_distinct_from_iris() {
        let mut g = Graph::new();
        g.insert(&Triple::new(
            Term::iri("http://s"),
            Iri::new("http://p"),
            Literal::string("http://o"),
        ));
        // An IRI with the same characters is a different term.
        assert!(!g.contains(&t("http://s", "http://p", "http://o")));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn bulk_insert_into_fresh_graph_matches_loop_insert() {
        let triples: Vec<Triple> = (0..200)
            .map(|i| {
                t(
                    &format!("http://s{}", i % 40),
                    &format!("http://p{}", i % 7),
                    &format!("http://o{}", i % 23),
                )
            })
            .collect();
        let mut with_duplicates = triples.clone();
        with_duplicates.extend(triples.iter().take(50).cloned());

        let mut bulk = Graph::new();
        let added = bulk.bulk_insert(with_duplicates.clone());

        let mut reference = Graph::new();
        let mut reference_added = 0;
        for triple in &with_duplicates {
            if reference.insert(triple) {
                reference_added += 1;
            }
        }

        assert_eq!(added, reference_added);
        assert_eq!(bulk.len(), reference.len());
        for triple in &triples {
            assert!(bulk.contains(triple));
        }
        // All three indexes answer pattern queries consistently.
        let p0 = Iri::new("http://p0");
        assert_eq!(
            bulk.triples_matching(None, Some(&p0), None).len(),
            reference.triples_matching(None, Some(&p0), None).len()
        );
        let s1 = Term::iri("http://s1");
        assert_eq!(
            bulk.triples_matching(Some(&s1), None, None).len(),
            reference.triples_matching(Some(&s1), None, None).len()
        );
        let o2 = Term::iri("http://o2");
        assert_eq!(
            bulk.triples_matching(None, None, Some(&o2)).len(),
            reference.triples_matching(None, None, Some(&o2)).len()
        );
    }

    #[test]
    fn bulk_insert_into_non_empty_graph_checks_existing_triples() {
        let mut g = Graph::new();
        g.insert(&t("http://a", "http://p", "http://x"));
        let added = g.bulk_insert(vec![
            t("http://a", "http://p", "http://x"), // already present
            t("http://b", "http://p", "http://y"),
            t("http://b", "http://p", "http://y"), // duplicate within batch
        ]);
        assert_eq!(added, 1);
        assert_eq!(g.len(), 2);
        // A later removal keeps all indexes in sync.
        assert!(g.remove(&t("http://b", "http://p", "http://y")));
        assert!(g.triples_matching(None, None, Some(&Term::iri("http://y"))).is_empty());
    }

    #[test]
    fn extend_and_from_iterator() {
        let triples = vec![
            t("http://a", "http://p", "http://x"),
            t("http://b", "http://p", "http://y"),
        ];
        let g: Graph = triples.clone().into_iter().collect();
        assert_eq!(g.len(), 2);

        let mut g2 = Graph::new();
        g2.extend_from(&g);
        g2.extend(triples);
        assert_eq!(g2.len(), 2);
    }

    #[test]
    fn interner_iter_is_in_id_order() {
        let mut interner = Interner::new();
        interner.reserve(2);
        let a = interner.intern(&Term::iri("http://a"));
        let b = interner.intern(&Term::iri("http://b"));
        let pairs: Vec<(TermId, Term)> =
            interner.iter().map(|(id, t)| (id, t.clone())).collect();
        assert_eq!(
            pairs,
            vec![(a, Term::iri("http://a")), (b, Term::iri("http://b"))]
        );
    }

    #[test]
    fn decode_roundtrip() {
        let mut g = Graph::new();
        let triple = Triple::new(
            Term::blank("b1"),
            Iri::new("http://p"),
            Literal::integer(7),
        );
        g.insert(&triple);
        let decoded: Vec<Triple> = g.iter().collect();
        assert_eq!(decoded, vec![triple]);
    }
}

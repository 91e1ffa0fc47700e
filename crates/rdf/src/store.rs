//! A thread-safe RDF store holding a default graph plus named graphs.
//!
//! This plays the role Virtuoso plays in the original QB2OLAP deployment:
//! the QB source data, the generated QB4OLAP schema triples, and the
//! generated level-instance triples are all loaded into one store, and the
//! SPARQL engine evaluates queries against it. The store is cheap to clone
//! (`Arc` internally) so the Enrichment, Exploration and Querying modules
//! can share a single endpoint, as in Figure 1 of the paper.
//!
//! [`Store::snapshot`] is what background maintenance reads from: a
//! separate store holding the same graphs at one epoch. It shares every
//! graph's sorted index runs and copies only their overlays and interners
//! (see [`crate::graph`]).

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::StoreError;
use crate::graph::Graph;
use crate::parser;
use crate::term::{Iri, Term, Triple};

/// One recorded store mutation: the triples actually inserted into /
/// removed from one graph (`graph: None` = the default graph) by a single
/// mutating call. Deltas carry the [`Store::epoch`] value they produced, so
/// downstream consumers (the columnar cube catalog) can replay exactly the
/// changes they have not seen yet instead of re-reading the world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreDelta {
    /// The store epoch after this mutation was applied.
    pub epoch: u64,
    /// The named graph that changed (`None` = the default graph).
    pub graph: Option<Iri>,
    /// Triples that were newly inserted (duplicates of existing triples are
    /// not recorded).
    pub inserted: Vec<Triple>,
    /// Triples that were actually removed.
    pub removed: Vec<Triple>,
}

impl StoreDelta {
    /// True if the delta records no changes.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.removed.is_empty()
    }
}

/// Default maximum number of deltas retained by the change log before the
/// oldest entries are dropped (dropping advances the log's coverage start,
/// forcing consumers that fell too far behind to rebuild).
pub const DEFAULT_CHANGE_LOG_CAPACITY: usize = 4096;

#[derive(Debug)]
struct ChangeLog {
    /// Epoch from which the log has complete coverage: a consumer that last
    /// saw epoch `e >= covered_from` can replay `deltas` to catch up.
    covered_from: u64,
    deltas: VecDeque<StoreDelta>,
    capacity: usize,
}

impl ChangeLog {
    fn new(covered_from: u64, capacity: usize) -> Self {
        ChangeLog {
            covered_from,
            deltas: VecDeque::new(),
            capacity,
        }
    }

    fn record(&mut self, delta: StoreDelta) {
        self.deltas.push_back(delta);
        self.trim();
    }

    /// Drops entries beyond the capacity, advancing coverage past them.
    fn trim(&mut self) {
        while self.deltas.len() > self.capacity {
            let dropped = self.deltas.pop_front().expect("len > capacity >= 0");
            self.covered_from = dropped.epoch;
        }
    }

    /// Drops all entries and restarts coverage at `epoch` (used by bulk
    /// wipes like [`Store::clear`], whose per-triple replay would be larger
    /// than a rebuild).
    fn reset(&mut self, epoch: u64) {
        self.deltas.clear();
        self.covered_from = epoch;
    }
}

#[derive(Debug, Default)]
struct StoreInner {
    default_graph: Graph,
    named_graphs: BTreeMap<Iri, Graph>,
    /// Monotonically increasing mutation counter: bumped by every mutating
    /// call that actually changed the store.
    epoch: u64,
    /// Change log, recording per-mutation deltas while enabled.
    log: Option<ChangeLog>,
}

impl StoreInner {
    /// Bumps the epoch and records a delta for an effective mutation.
    fn commit(&mut self, graph: Option<Iri>, inserted: Vec<Triple>, removed: Vec<Triple>) {
        self.epoch += 1;
        if let Some(log) = &mut self.log {
            log.record(StoreDelta {
                epoch: self.epoch,
                graph,
                inserted,
                removed,
            });
        }
    }

    /// [`Self::commit`] for a single inserted or removed triple, cloning
    /// it (and allocating the delta) only when the log is recording — the
    /// per-triple mutation paths stay allocation-free with the log off.
    fn commit_one(&mut self, graph: Option<&Iri>, triple: &Triple, removed: bool) {
        self.epoch += 1;
        if let Some(log) = &mut self.log {
            let (inserted, removed) = if removed {
                (Vec::new(), vec![triple.clone()])
            } else {
                (vec![triple.clone()], Vec::new())
            };
            log.record(StoreDelta {
                epoch: self.epoch,
                graph: graph.cloned(),
                inserted,
                removed,
            });
        }
    }

    /// Bumps the epoch without logging triples, invalidating the log's
    /// coverage (consumers must rebuild).
    fn commit_unlogged(&mut self) {
        self.epoch += 1;
        if let Some(log) = &mut self.log {
            log.reset(self.epoch);
        }
    }
}

/// A shared, thread-safe collection of RDF graphs.
#[derive(Debug, Clone)]
pub struct Store {
    inner: Arc<RwLock<StoreInner>>,
}

impl Default for Store {
    fn default() -> Self {
        // A process that holds a store keeps the heap it grows into.
        crate::heap::keep_freed_memory();
        Store {
            inner: Arc::default(),
        }
    }
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The store's mutation epoch: 0 for a fresh store, bumped by every
    /// mutating call that actually changed data. Consumers holding derived
    /// state (e.g. a materialized cube) compare epochs to detect staleness.
    pub fn epoch(&self) -> u64 {
        self.inner.read().epoch
    }

    /// Enables the change log with the default capacity
    /// ([`DEFAULT_CHANGE_LOG_CAPACITY`]). Mutations from this point on are
    /// recorded as [`StoreDelta`]s and can be replayed via
    /// [`Self::deltas_since`]. Enabling an already-enabled log is a no-op:
    /// a capacity chosen via [`Self::enable_change_log_with_capacity`] is
    /// kept.
    pub fn enable_change_log(&self) {
        let mut inner = self.inner.write();
        if inner.log.is_none() {
            let epoch = inner.epoch;
            inner.log = Some(ChangeLog::new(epoch, DEFAULT_CHANGE_LOG_CAPACITY));
        }
    }

    /// Enables the change log, retaining at most `capacity` deltas (older
    /// entries are dropped and the coverage start advances past them). On
    /// an already-enabled log this adjusts the capacity, trimming
    /// immediately when it shrinks.
    pub fn enable_change_log_with_capacity(&self, capacity: usize) {
        let mut inner = self.inner.write();
        match &mut inner.log {
            Some(log) => {
                log.capacity = capacity;
                log.trim();
            }
            None => {
                let epoch = inner.epoch;
                inner.log = Some(ChangeLog::new(epoch, capacity));
            }
        }
    }

    /// Disables and drops the change log.
    pub fn disable_change_log(&self) {
        self.inner.write().log = None;
    }

    /// An epoch-consistent snapshot of the store: the graphs and the epoch
    /// are captured atomically under one read lock, the change log is not
    /// carried over, and later mutations of the original are invisible to
    /// the snapshot (and vice versa). Background maintenance reads from
    /// such a snapshot so a rebuild racing live writers still materializes
    /// one well-defined store state instead of a torn mix of epochs.
    ///
    /// The lock is held for cloning each graph: its index runs are shared,
    /// its overlays and its interner are copied — the interner as its terms
    /// (a reference-count bump each) and one flat copy of its id table —
    /// time linear in the distinct terms and recent changes, a fixed number
    /// of allocations.
    pub fn snapshot(&self) -> Store {
        let inner = self.inner.read();
        Store {
            inner: Arc::new(RwLock::new(StoreInner {
                default_graph: inner.default_graph.clone(),
                named_graphs: inner.named_graphs.clone(),
                epoch: inner.epoch,
                log: None,
            })),
        }
    }

    /// True if the change log is currently recording.
    pub fn change_log_enabled(&self) -> bool {
        self.inner.read().log.is_some()
    }

    /// The deltas recording every mutation after epoch `since`, oldest
    /// first. Returns `None` when the log cannot answer — it is disabled,
    /// was enabled only after `since`, or has dropped entries past `since`
    /// — in which case the consumer must rebuild its derived state from a
    /// fresh snapshot.
    pub fn deltas_since(&self, since: u64) -> Option<Vec<StoreDelta>> {
        let inner = self.inner.read();
        let log = inner.log.as_ref()?;
        if since < log.covered_from {
            return None;
        }
        Some(
            log.deltas
                .iter()
                .filter(|d| d.epoch > since)
                .cloned()
                .collect(),
        )
    }

    /// Inserts a triple into the default graph.
    pub fn insert(&self, triple: &Triple) -> bool {
        let mut inner = self.inner.write();
        let added = inner.default_graph.insert(triple);
        if added {
            inner.commit_one(None, triple, false);
        }
        added
    }

    /// Inserts a triple into a named graph (creating the graph if needed).
    pub fn insert_named(&self, graph: &Iri, triple: &Triple) -> bool {
        let mut inner = self.inner.write();
        let added = inner
            .named_graphs
            .entry(graph.clone())
            .or_default()
            .insert(triple);
        if added {
            inner.commit_one(Some(graph), triple, false);
        }
        added
    }

    /// Bulk-loads triples into the default graph, holding the write lock
    /// once and taking [`Graph::bulk_insert`]'s sort-and-merge path. With
    /// the change log enabled the per-triple path is used instead, so the
    /// exact set of newly inserted triples can be recorded. Triples may be
    /// passed by reference (see [`Graph::bulk_insert`]).
    pub fn bulk_insert<I>(&self, triples: I) -> usize
    where
        I: IntoIterator,
        I::Item: Borrow<Triple>,
    {
        let mut inner = self.inner.write();
        if inner.log.is_some() {
            let mut inserted = Vec::new();
            for t in triples {
                if inner.default_graph.insert(t.borrow()) {
                    inserted.push(t.borrow().clone());
                }
            }
            let added = inserted.len();
            if added > 0 {
                inner.commit(None, inserted, Vec::new());
            }
            return added;
        }
        let added = inner.default_graph.bulk_insert(triples);
        if added > 0 {
            inner.commit_unlogged();
        }
        added
    }

    /// Inserts all triples into a named graph.
    pub fn insert_all_named<I: IntoIterator<Item = Triple>>(
        &self,
        graph: &Iri,
        triples: I,
    ) -> usize {
        let mut inner = self.inner.write();
        let g = inner.named_graphs.entry(graph.clone()).or_default();
        let mut inserted = Vec::new();
        for t in triples {
            if g.insert(&t) {
                inserted.push(t);
            }
        }
        let added = inserted.len();
        if added > 0 {
            inner.commit(Some(graph.clone()), inserted, Vec::new());
        }
        added
    }

    /// Removes a triple from the default graph.
    pub fn remove(&self, triple: &Triple) -> bool {
        let mut inner = self.inner.write();
        let removed = inner.default_graph.remove(triple);
        if removed {
            inner.commit_one(None, triple, true);
        }
        removed
    }

    /// Removes all given triples from the default graph as **one**
    /// mutation: the epoch bumps once and, with the change log enabled,
    /// the triples actually removed land in a single [`StoreDelta`].
    ///
    /// Batching matters to delta consumers: the columnar cube catalog can
    /// tombstone a removed observation only when *all* of its triples
    /// disappear within one delta — per-triple [`Store::remove`] calls
    /// produce one single-triple delta each, which the catalog must treat
    /// as partial removals and resolve with a full rebuild.
    ///
    /// Returns the number of triples actually removed.
    pub fn remove_all(&self, triples: &[Triple]) -> usize {
        let mut inner = self.inner.write();
        let mut removed = Vec::new();
        for triple in triples {
            if inner.default_graph.remove(triple) {
                removed.push(triple.clone());
            }
        }
        let count = removed.len();
        if count > 0 {
            inner.commit(None, Vec::new(), removed);
        }
        count
    }

    /// Removes every default-graph triple matching the pattern (`None` =
    /// wildcard) as **one** mutation — one epoch bump and, with the change
    /// log enabled, one [`StoreDelta`] — and returns the removed triples.
    ///
    /// This is the race-free form of the `triples_matching` + `remove_all`
    /// idiom: the match and the removal happen under a single write lock,
    /// so no concurrent mutation can slip between them. Like
    /// [`Store::remove_all`], the single-delta batching is what lets the
    /// columnar cube catalog absorb the removal in O(delta) — a whole
    /// observation (`subject` pattern) tombstones in one step, and a
    /// partial pattern (e.g. one measure property of one subject) arrives
    /// as one partial-removal delta instead of several.
    pub fn remove_matching(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Iri>,
        object: Option<&Term>,
    ) -> Vec<Triple> {
        let mut inner = self.inner.write();
        let matched = inner
            .default_graph
            .triples_matching(subject, predicate, object);
        for triple in &matched {
            inner.default_graph.remove(triple);
        }
        if !matched.is_empty() {
            inner.commit(None, Vec::new(), matched.clone());
        }
        matched
    }

    /// True if the default graph contains the triple.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.inner.read().default_graph.contains(triple)
    }

    /// Number of triples in the default graph.
    pub fn len(&self) -> usize {
        self.inner.read().default_graph.len()
    }

    /// True if the default graph is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().default_graph.is_empty()
    }

    /// Total number of triples across the default and all named graphs.
    pub fn total_len(&self) -> usize {
        let inner = self.inner.read();
        inner.default_graph.len() + inner.named_graphs.values().map(Graph::len).sum::<usize>()
    }

    /// Names of all named graphs.
    pub fn graph_names(&self) -> Vec<Iri> {
        self.inner.read().named_graphs.keys().cloned().collect()
    }

    /// Runs `f` with a read-only view of the default graph.
    pub fn with_default_graph<R>(&self, f: impl FnOnce(&Graph) -> R) -> R {
        f(&self.inner.read().default_graph)
    }

    /// Runs `f` with a read-only view of a named graph.
    pub fn with_named_graph<R>(
        &self,
        name: &Iri,
        f: impl FnOnce(&Graph) -> R,
    ) -> Result<R, StoreError> {
        let inner = self.inner.read();
        let graph = inner
            .named_graphs
            .get(name)
            .ok_or_else(|| StoreError::GraphNotFound(name.as_str().to_string()))?;
        Ok(f(graph))
    }

    /// Pattern match against the default graph.
    pub fn triples_matching(
        &self,
        subject: Option<&Term>,
        predicate: Option<&Iri>,
        object: Option<&Term>,
    ) -> Vec<Triple> {
        self.inner
            .read()
            .default_graph
            .triples_matching(subject, predicate, object)
    }

    /// Convenience: the first object of `(subject, predicate, ?o)` in the
    /// default graph.
    pub fn object(&self, subject: &Term, predicate: &Iri) -> Option<Term> {
        self.inner.read().default_graph.object(subject, predicate)
    }

    /// Convenience: all objects of `(subject, predicate, ?o)` in the default graph.
    pub fn objects(&self, subject: &Term, predicate: &Iri) -> Vec<Term> {
        self.inner.read().default_graph.objects(subject, predicate)
    }

    /// Convenience: all subjects with `rdf:type class` in the default graph.
    pub fn subjects_of_type(&self, class: &Iri) -> Vec<Term> {
        self.inner.read().default_graph.subjects_of_type(class)
    }

    /// Loads a Turtle document into the default graph. Returns the number of
    /// triples added.
    pub fn load_turtle(&self, turtle: &str) -> Result<usize, StoreError> {
        let doc = parser::parse_turtle(turtle)?;
        Ok(self.bulk_insert(doc.triples))
    }

    /// Loads an N-Triples document into the default graph.
    pub fn load_ntriples(&self, ntriples: &str) -> Result<usize, StoreError> {
        let doc = parser::parse_ntriples(ntriples)?;
        Ok(self.bulk_insert(doc.triples))
    }

    /// Serialises the default graph to N-Triples.
    pub fn to_ntriples(&self) -> String {
        crate::serializer::to_ntriples(&self.inner.read().default_graph)
    }

    /// Removes all triples from the default graph and all named graphs.
    ///
    /// The change log (if enabled) is reset rather than populated with one
    /// giant removal delta: replaying a wipe is never cheaper than
    /// rebuilding, so consumers see a coverage gap and rebuild.
    pub fn clear(&self) {
        let mut inner = self.inner.write();
        inner.default_graph = Graph::new();
        inner.named_graphs.clear();
        inner.commit_unlogged();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;
    use crate::vocab::rdfs;

    #[test]
    fn default_graph_operations() {
        let store = Store::new();
        let t = Triple::new(
            Term::iri("http://s"),
            Iri::new("http://p"),
            Literal::integer(1),
        );
        assert!(store.insert(&t));
        assert!(store.contains(&t));
        assert_eq!(store.len(), 1);
        assert!(store.remove(&t));
        assert!(store.is_empty());
    }

    #[test]
    fn named_graph_isolation_and_union() {
        let store = Store::new();
        let schema_graph = Iri::new("http://example.org/graph/schema");
        let t1 = Triple::new(
            Term::iri("http://a"),
            Iri::new("http://p"),
            Term::iri("http://b"),
        );
        let t2 = Triple::new(
            Term::iri("http://c"),
            Iri::new("http://p"),
            Term::iri("http://d"),
        );
        store.insert(&t1);
        store.insert_named(&schema_graph, &t2);

        assert_eq!(store.len(), 1);
        assert_eq!(store.total_len(), 2);
        assert_eq!(store.graph_names(), vec![schema_graph.clone()]);
        assert!(
            !store.contains(&t2),
            "named-graph triples stay out of the default graph"
        );

        // Between them the two graphs hold both triples, each exactly one.
        let in_named = store
            .with_named_graph(&schema_graph, |g| {
                (g.len(), g.contains(&t1), g.contains(&t2))
            })
            .expect("graph exists");
        assert_eq!(in_named, (1, false, true));
        assert!(store.with_default_graph(|g| g.contains(&t1)));
        assert!(store
            .with_named_graph(&Iri::new("http://missing"), |g| g.len())
            .is_err());
    }

    #[test]
    fn bulk_insert_fast_path_and_incremental_fallback() {
        let store = Store::new();
        let batch: Vec<Triple> = (0..100)
            .map(|i| {
                Triple::new(
                    Term::iri(format!("http://s{i}")),
                    Iri::new("http://p"),
                    Literal::integer(i),
                )
            })
            .collect();
        // Fresh store: fast path.
        assert_eq!(store.bulk_insert(batch.clone()), 100);
        assert_eq!(store.len(), 100);
        // Non-empty store: duplicates are detected against existing data.
        assert_eq!(store.bulk_insert(batch[..10].to_vec()), 0);
        assert_eq!(store.len(), 100);
        assert!(store.contains(&batch[0]));
    }

    #[test]
    fn load_and_serialize() {
        let store = Store::new();
        let added = store
            .load_turtle("@prefix ex: <http://e/> . ex:s ex:p ex:o , ex:o2 .")
            .expect("load");
        assert_eq!(added, 2);
        let nt = store.to_ntriples();
        assert_eq!(nt.lines().count(), 2);

        let store2 = Store::new();
        store2.load_ntriples(&nt).expect("reload");
        assert_eq!(store2.len(), 2);
    }

    #[test]
    fn parse_errors_are_reported() {
        let store = Store::new();
        let err = store
            .load_turtle("ex:s ex:p ex:o .")
            .expect_err("undefined prefix");
        assert!(matches!(err, StoreError::Parse(_)));
    }

    #[test]
    fn clear_removes_everything() {
        let store = Store::new();
        store.insert(&Triple::new(
            Term::iri("http://s"),
            rdfs::label(),
            Literal::string("x"),
        ));
        store.insert_named(
            &Iri::new("http://g"),
            &Triple::new(Term::iri("http://s"), rdfs::label(), Literal::string("y")),
        );
        store.clear();
        assert_eq!(store.total_len(), 0);
        assert!(store.graph_names().is_empty());
    }

    #[test]
    fn epoch_tracks_effective_mutations_only() {
        let store = Store::new();
        assert_eq!(store.epoch(), 0);
        let t = Triple::new(
            Term::iri("http://s"),
            Iri::new("http://p"),
            Literal::integer(1),
        );
        assert!(store.insert(&t));
        assert_eq!(store.epoch(), 1);
        // A duplicate insert and a no-op removal leave the epoch alone.
        assert!(!store.insert(&t));
        assert!(!store.remove(&Triple::new(
            Term::iri("http://other"),
            Iri::new("http://p"),
            Literal::integer(2),
        )));
        assert_eq!(store.epoch(), 1);
        assert!(store.remove(&t));
        assert_eq!(store.epoch(), 2);
        // Bulk loads count as one epoch step.
        store.bulk_insert((0..5).map(|i| {
            Triple::new(
                Term::iri(format!("http://s{i}")),
                Iri::new("http://p"),
                Literal::integer(i),
            )
        }));
        assert_eq!(store.epoch(), 3);
        store.clear();
        assert_eq!(store.epoch(), 4);
    }

    #[test]
    fn change_log_replays_mutations() {
        let store = Store::new();
        let t0 = Triple::new(
            Term::iri("http://pre"),
            Iri::new("http://p"),
            Literal::integer(0),
        );
        store.insert(&t0);
        assert_eq!(store.deltas_since(0), None, "log not enabled yet");

        store.enable_change_log();
        assert!(store.change_log_enabled());
        let enabled_at = store.epoch();
        // Coverage starts at the enabling epoch: asking for earlier history
        // is answered with None (rebuild).
        assert_eq!(store.deltas_since(enabled_at.saturating_sub(1)), None);
        assert_eq!(store.deltas_since(enabled_at), Some(Vec::new()));

        let t1 = Triple::new(
            Term::iri("http://a"),
            Iri::new("http://p"),
            Literal::integer(1),
        );
        let t2 = Triple::new(
            Term::iri("http://b"),
            Iri::new("http://p"),
            Literal::integer(2),
        );
        store.bulk_insert(vec![t1.clone(), t2.clone(), t1.clone()]);
        store.remove(&t2);
        let g = Iri::new("http://g");
        store.insert_named(&g, &t0);

        let deltas = store.deltas_since(enabled_at).expect("covered");
        assert_eq!(deltas.len(), 3);
        assert_eq!(deltas[0].inserted, vec![t1.clone(), t2.clone()]);
        assert!(deltas[0].removed.is_empty() && deltas[0].graph.is_none());
        assert_eq!(deltas[1].removed, vec![t2.clone()]);
        assert_eq!(deltas[2].graph, Some(g));
        assert!(deltas.windows(2).all(|w| w[0].epoch < w[1].epoch));
        assert!(!deltas[0].is_empty());

        // Catching up from a later epoch returns only the tail.
        let tail = store.deltas_since(deltas[1].epoch).expect("covered");
        assert_eq!(tail.len(), 1);

        // clear() resets coverage: everything before it is unanswerable.
        store.clear();
        assert_eq!(store.deltas_since(enabled_at), None);
        assert_eq!(store.deltas_since(store.epoch()), Some(Vec::new()));

        store.disable_change_log();
        assert!(!store.change_log_enabled());
        assert_eq!(store.deltas_since(store.epoch()), None);
    }

    #[test]
    fn remove_all_records_one_delta_and_one_epoch_step() {
        let store = Store::new();
        let triples: Vec<Triple> = (0..4)
            .map(|i| {
                Triple::new(
                    Term::iri("http://s"),
                    Iri::new("http://p"),
                    Literal::integer(i),
                )
            })
            .collect();
        store.bulk_insert(triples.clone());
        store.enable_change_log();
        let epoch = store.epoch();

        // Three present triples plus one that never existed: only the
        // effective removals are counted and recorded.
        let mut batch = triples[..3].to_vec();
        batch.push(Triple::new(
            Term::iri("http://s"),
            Iri::new("http://p"),
            Literal::integer(99),
        ));
        assert_eq!(store.remove_all(&batch), 3);
        assert_eq!(store.epoch(), epoch + 1, "one batch = one epoch step");
        let deltas = store.deltas_since(epoch).expect("covered");
        assert_eq!(deltas.len(), 1, "one batch = one delta");
        assert_eq!(deltas[0].removed, triples[..3].to_vec());
        assert!(deltas[0].inserted.is_empty());
        assert_eq!(store.len(), 1);

        // A batch removing nothing is a no-op: no epoch bump, no delta.
        assert_eq!(store.remove_all(&batch[..3]), 0);
        assert_eq!(store.epoch(), epoch + 1);
    }

    #[test]
    fn remove_matching_batches_one_delta_per_pattern() {
        let store = Store::new();
        let subject = Term::iri("http://s");
        let p1 = Iri::new("http://p1");
        let p2 = Iri::new("http://p2");
        store.insert(&Triple::new(
            subject.clone(),
            p1.clone(),
            Literal::integer(1),
        ));
        store.insert(&Triple::new(
            subject.clone(),
            p1.clone(),
            Literal::integer(2),
        ));
        store.insert(&Triple::new(
            subject.clone(),
            p2.clone(),
            Literal::integer(3),
        ));
        store.insert(&Triple::new(
            Term::iri("http://other"),
            p1.clone(),
            Literal::integer(4),
        ));
        store.enable_change_log();
        let epoch = store.epoch();

        // One predicate of one subject: both values go in one delta.
        let removed = store.remove_matching(Some(&subject), Some(&p1), None);
        assert_eq!(removed.len(), 2);
        assert_eq!(store.epoch(), epoch + 1, "one pattern = one epoch step");
        let deltas = store.deltas_since(epoch).expect("covered");
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].removed, removed);
        assert_eq!(store.len(), 2);

        // Whole subject: the rest of its triples in one more delta.
        assert_eq!(store.remove_matching(Some(&subject), None, None).len(), 1);
        // A pattern matching nothing is a no-op: no epoch bump, no delta.
        assert!(store.remove_matching(Some(&subject), None, None).is_empty());
        assert_eq!(store.epoch(), epoch + 2);
        assert_eq!(store.len(), 1, "unrelated subjects untouched");
    }

    #[test]
    fn enable_change_log_keeps_a_custom_capacity() {
        let store = Store::new();
        store.enable_change_log_with_capacity(2);
        // A consumer blindly enabling tracking must not clobber the
        // configured capacity...
        store.enable_change_log();
        let start = store.epoch();
        for i in 0..3 {
            store.insert(&Triple::new(
                Term::iri(format!("http://s{i}")),
                Iri::new("http://p"),
                Literal::integer(i),
            ));
        }
        assert_eq!(store.deltas_since(start), None, "capacity 2 was kept");
        // ... while an explicit re-configuration applies (and trims).
        store.enable_change_log_with_capacity(1);
        assert_eq!(store.deltas_since(start + 2).expect("covered").len(), 1);
    }

    #[test]
    fn change_log_capacity_drops_oldest_coverage() {
        let store = Store::new();
        store.enable_change_log_with_capacity(2);
        let start = store.epoch();
        for i in 0..4 {
            store.insert(&Triple::new(
                Term::iri(format!("http://s{i}")),
                Iri::new("http://p"),
                Literal::integer(i),
            ));
        }
        // Only the last two mutations are retained.
        assert_eq!(store.deltas_since(start), None, "coverage start advanced");
        let deltas = store.deltas_since(start + 2).expect("covered");
        assert_eq!(deltas.len(), 2);
    }

    #[test]
    fn store_is_cloneable_and_shared() {
        let store = Store::new();
        let clone = store.clone();
        clone.insert(&Triple::new(
            Term::iri("http://s"),
            Iri::new("http://p"),
            Term::iri("http://o"),
        ));
        assert_eq!(store.len(), 1, "clones share the same underlying data");
    }
}

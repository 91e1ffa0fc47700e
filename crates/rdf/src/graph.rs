//! An in-memory, indexed RDF graph.
//!
//! Terms are interned into dense `u32` identifiers — each term stored once,
//! found through a table of ids keyed by its hash — and triples are kept in
//! three orderings — SPO, POS and OSP — so that any triple pattern with a
//! bound prefix is one contiguous range of one of them. This mirrors the
//! index layout of typical RDF stores (the role Virtuoso plays in the
//! original QB2OLAP deployment).
//!
//! Each ordering is an immutable **sorted run** shared behind an `Arc`, a
//! **first-term offset table** that turns a bound first component into a
//! direct slice of the run, and a small **overlay**: a `BTreeSet` of keys
//! inserted since the run was built and one of run keys removed since. A
//! lookup ([`Graph::range`]) slices the run and binary-searches the other
//! bound components; only where the overlay has held a key of that first
//! component does it merge the overlay in, so a [`Range`] yields exactly the
//! key order of a sorted set and can [`seek`](Range::seek) forward in it.
//! Bulk loads, large batches and an overlay grown past a fixed share
//! of its run all go through one merge that writes a new run; a bulk load
//! sorts each subject's keys as it encodes them and merges those runs.
//! Cloning a graph shares the runs and copies the overlays and the
//! interner (its terms, a reference count each, and its id table, one
//! flat copy). See ARCHITECTURE.md § "The triple store".

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::hash::{BuildHasher, Hasher};
use std::ops::Bound::{self, Excluded, Included};
use std::sync::Arc;

use crate::hash::FxBuildHasher;
use crate::term::{Iri, Term, Triple};

/// A dense identifier for an interned term.
pub type TermId = u32;

/// Interns [`Term`]s to dense [`TermId`]s and back.
///
/// Each term is stored once, in `terms` at its id. The lookup side is an
/// open-addressing table of ids: a slot holds an id and 32 bits of its
/// term's hash, a probe compares a term's bytes only against the ids whose
/// stored hash matches, and a growth re-places the slots by the stored
/// hashes alone. A term is hashed as its kind and the bytes of its strings
/// ([`Self::intern_iri`] hashes a bare [`Iri`] as its `Term::Iri`),
/// through [`FxHasher`](crate::hash::FxHasher) unless `S` says otherwise:
/// the store, decoded results and the cube dictionaries intern loaded
/// data. A table fed terms a request chose names a keyed hasher.
#[derive(Debug, Default, Clone)]
pub struct Interner<S = FxBuildHasher> {
    terms: Vec<Term>,
    /// A power of two long (or empty), at most half full.
    slots: Vec<Slot>,
    hasher: S,
}

/// One entry of the id table: an issued id and the hash its term probes
/// with, or [`Slot::EMPTY`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: TermId,
}

impl Slot {
    /// No id: `TermId::MAX` is never issued.
    const EMPTY: Slot = Slot {
        hash: 0,
        id: TermId::MAX,
    };

    fn is_empty(self) -> bool {
        self.id == TermId::MAX
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S: BuildHasher> Interner<S> {
    /// Returns the id for `term`, interning it if necessary.
    pub fn intern(&mut self, term: &Term) -> TermId {
        // Probe first: most calls hit (a bulk load interns ~3 terms per
        // triple over a far smaller vocabulary), and a hit clones nothing.
        let hash = self.hash(term);
        match self.find(hash, |stored| stored == term) {
            Ok(id) => id,
            Err(slot) => self.push(slot, hash, term.clone()),
        }
    }

    /// Returns the id of `term` if it has already been interned.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.find(self.hash(term), |stored| stored == term).ok()
    }

    /// [`Self::intern`] of `Term::Iri(iri)`, without wrapping `iri` in a
    /// `Term` unless it is new: a store's predicates come as bare IRIs.
    pub fn intern_iri(&mut self, iri: &Iri) -> TermId {
        let hash = self.hash_iri(iri);
        match self.find(hash, |stored| stored.as_iri() == Some(iri)) {
            Ok(id) => id,
            Err(slot) => self.push(slot, hash, Term::Iri(iri.clone())),
        }
    }

    /// [`Self::get`] of `Term::Iri(iri)`.
    pub fn get_iri(&self, iri: &Iri) -> Option<TermId> {
        self.find(self.hash_iri(iri), |stored| stored.as_iri() == Some(iri))
            .ok()
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
        let wanted = slots_for(self.terms.len() + additional);
        if wanted > self.slots.len() {
            self.resize(wanted);
        }
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms.iter().enumerate().map(|(i, t)| (i as TermId, t))
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    fn hash(&self, term: &Term) -> u32 {
        match term {
            Term::Iri(iri) => self.hash_iri(iri),
            Term::Blank(blank) => hash_parts(&self.hasher, 1, &[blank.as_str()]),
            Term::Literal(literal) => match literal.language() {
                None => hash_parts(
                    &self.hasher,
                    2,
                    &[literal.lexical(), literal.datatype().as_str()],
                ),
                Some(language) => hash_parts(&self.hasher, 3, &[literal.lexical(), language]),
            },
        }
    }

    fn hash_iri(&self, iri: &Iri) -> u32 {
        hash_parts(&self.hasher, 0, &[iri.as_str()])
    }

    /// The id whose term has `hash` and satisfies `is`, or else the empty
    /// slot where such a term goes.
    fn find(&self, hash: u32, is: impl Fn(&Term) -> bool) -> Result<TermId, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.is_empty() {
                return Err(at);
            }
            if slot.hash == hash && is(&self.terms[slot.id as usize]) {
                return Ok(slot.id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Issues the next id to `term`, which `find` placed at `slot`.
    fn push(&mut self, mut slot: usize, hash: u32, term: Term) -> TermId {
        let id = next_id(self.terms.len());
        if slots_for(self.terms.len() + 1) > self.slots.len() {
            self.resize(slots_for(self.terms.len() + 1));
            slot = self.empty_slot(hash);
        }
        self.slots[slot] = Slot { hash, id };
        self.terms.push(term);
        id
    }

    /// The first empty slot on `hash`'s probe path.
    fn empty_slot(&self, hash: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while !self.slots[at].is_empty() {
            at = (at + 1) & mask;
        }
        at
    }

    /// Re-places every id in a table of `len` slots, by its stored hash.
    fn resize(&mut self, len: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::EMPTY; len]);
        for slot in old.into_iter().filter(|slot| !slot.is_empty()) {
            let at = self.empty_slot(slot.hash);
            self.slots[at] = slot;
        }
    }
}

/// The id the `len`-th distinct term gets.
///
/// # Panics
/// Panics once every id below `TermId::MAX` is taken: that one marks an
/// empty slot here and an unbound cell in the SPARQL evaluator, and an id
/// past it would wrap onto id 0.
fn next_id(len: usize) -> TermId {
    match TermId::try_from(len) {
        Ok(id) if id != TermId::MAX => id,
        _ => panic!("an interner issues at most {} term ids", TermId::MAX),
    }
}

/// The table length for `terms` ids: a power of two, at least twice as
/// many slots as ids, so a probe run stays short.
fn slots_for(terms: usize) -> usize {
    (terms * 2).next_power_of_two().max(16)
}

/// Hashes a term's kind and its strings, each prefixed by its length so no
/// two splits of the same bytes meet. The table keeps the high half of the
/// 64-bit hash, the half a multiplicative hash mixes best.
fn hash_parts<S: BuildHasher>(hasher: &S, kind: u8, parts: &[&str]) -> u32 {
    let mut state = hasher.build_hasher();
    state.write_u8(kind);
    for part in parts {
        state.write_usize(part.len());
        state.write(part.as_bytes());
    }
    (state.finish() >> 32) as u32
}

/// A triple of interned term ids in (subject, predicate, object) order.
pub type EncodedTriple = (TermId, TermId, TermId);

/// A triple's ids in one index's component order.
type Key = (TermId, TermId, TermId);

/// The component orders of the three indexes, the const parameter of a
/// [`Walk`]: each key maps back to `(s, p, o)` by a permutation fixed at
/// compile time.
const SPO: u8 = 0;
const POS: u8 = 1;
const OSP: u8 = 2;

/// An `ORDER` key in `(s, p, o)` order.
#[inline(always)]
fn to_spo<const ORDER: u8>((a, b, c): Key) -> EncodedTriple {
    match ORDER {
        SPO => (a, b, c),
        POS => (c, a, b),
        _ => (b, c, a),
    }
}

/// A triple in `ORDER`'s key order.
#[inline(always)]
fn from_spo<const ORDER: u8>((s, p, o): EncodedTriple) -> Key {
    match ORDER {
        SPO => (s, p, o),
        POS => (p, o, s),
        _ => (o, s, p),
    }
}

/// The overlay may hold one key per this many run keys before the next
/// mutation merges it into a new run: lookups stay a slice plus a small
/// tree, and each merge is paid for by that many inserts.
const OVERLAY_SHARE: usize = 16;

/// Overlay size below which no merge happens, so a small graph is not
/// rewritten on every insert.
const OVERLAY_MINIMUM: usize = 64;

/// One ordering of the graph's triples: a sorted run, its first-term
/// offsets and an overlay of the changes since the run was built.
#[derive(Debug, Default, Clone)]
struct Index {
    /// Sorted, duplicate-free keys; clones of the graph share it. A `Vec`
    /// behind the `Arc` so a freshly sorted batch becomes the run as it is,
    /// without a second copy of its megabytes.
    run: Arc<Vec<Key>>,
    /// `run[start[a]..start[a + 1]]` holds the run keys whose first
    /// component is `a`; an id past the table heads none.
    start: Arc<Vec<u32>>,
    /// Keys added since the run was built; none of them is in the run.
    inserted: BTreeSet<Key>,
    /// Run keys removed since the run was built.
    removed: BTreeSet<Key>,
    /// Bit `a` is set once the overlay has held a key whose first component
    /// is `a` (a merge clears them all): a lookup for any other `a` is a
    /// run slice alone, with no tree descent.
    touched: Vec<u64>,
}

impl Index {
    fn len(&self) -> usize {
        self.run.len() - self.removed.len() + self.inserted.len()
    }

    fn overlay_len(&self) -> usize {
        self.inserted.len() + self.removed.len()
    }

    /// How many overlay keys the run tolerates before a merge.
    fn overlay_limit(&self) -> usize {
        OVERLAY_MINIMUM.max(self.run.len() / OVERLAY_SHARE)
    }

    /// The run keys whose first component is `first`.
    fn run_of(&self, first: TermId) -> &[Key] {
        let first = first as usize;
        match (self.start.get(first), self.start.get(first + 1)) {
            (Some(&low), Some(&high)) => &self.run[low as usize..high as usize],
            _ => &[],
        }
    }

    fn contains(&self, key: Key) -> bool {
        self.inserted.contains(&key)
            || (!self.removed.contains(&key) && self.run_of(key.0).binary_search(&key).is_ok())
    }

    fn touched(&self, first: TermId) -> bool {
        let bit = first as usize;
        self.touched
            .get(bit / 64)
            .is_some_and(|word| word & (1 << (bit % 64)) != 0)
    }

    fn touch(&mut self, first: TermId) {
        let bit = first as usize;
        if self.touched.len() <= bit / 64 {
            self.touched.resize(bit / 64 + 1, 0);
        }
        self.touched[bit / 64] |= 1 << (bit % 64);
    }

    /// Adds a key the index does not hold.
    fn insert(&mut self, key: Key) {
        self.touch(key.0);
        if !self.removed.remove(&key) {
            self.inserted.insert(key);
        }
    }

    /// Drops a key the index holds.
    fn remove(&mut self, key: Key) {
        self.touch(key.0);
        if !self.inserted.remove(&key) {
            self.removed.insert(key);
        }
    }

    /// The run keys whose leading components equal the bound ones (`None`
    /// = wildcard; a bound component follows only bound ones). Inlined,
    /// like the other pieces of a lookup (see [`Graph::range`]).
    #[inline(always)]
    fn run_matching(&self, a: Option<TermId>, b: Option<TermId>, c: Option<TermId>) -> &[Key] {
        let mut run = match a {
            Some(a) => self.run_of(a),
            None => &self.run[..],
        };
        // Within one first component the run is sorted on the second, and
        // within one second on the third.
        if let Some(b) = b {
            run = narrow(run, |key| key.1.cmp(&b));
        }
        if let Some(c) = c {
            run = narrow(run, |key| key.2.cmp(&c));
        }
        run
    }

    /// Writes a new run holding the index's keys plus `additions` (sorted,
    /// duplicate-free, none of them held), and empties the overlay. The one
    /// way a run is built: a bulk load merges into the empty run, a large
    /// batch into the current one, and a compaction merges nothing.
    fn merge(&mut self, additions: Vec<Key>) {
        let run = if self.run.is_empty() && self.inserted.is_empty() {
            // Nothing to merge with (`removed` is within the run).
            additions
        } else {
            let mut removed = self.removed.iter().peekable();
            let kept = self
                .run
                .iter()
                .copied()
                .filter(|key| removed.next_if_eq(&key).is_none());
            let added = merge_sorted(self.inserted.iter().copied(), additions.iter().copied());
            let mut run = Vec::with_capacity(self.len() + additions.len());
            run.extend(merge_sorted(kept, added));
            run
        };
        assert!(u32::try_from(run.len()).is_ok(), "a run's offsets are u32");
        self.start = first_offsets(&run);
        self.run = Arc::new(run);
        self.inserted.clear();
        self.removed.clear();
        self.touched.clear();
    }
}

/// The sub-slice of `keys` where `order` is `Equal`, given `keys` sorted
/// by it.
fn narrow(keys: &[Key], order: impl Fn(&Key) -> std::cmp::Ordering) -> &[Key] {
    let low = keys.partition_point(|key| order(key).is_lt());
    let high = low + keys[low..].partition_point(|key| order(key).is_le());
    &keys[low..high]
}

/// The suffix of sorted `keys` from the first key at or above `bound`:
/// a galloping search from the front, so a short skip costs a few
/// comparisons however long the slice.
fn gallop(keys: &[Key], bound: Key) -> &[Key] {
    let (mut low, mut step) = (0, 1);
    // Every key before `low` is below the bound.
    while low + step < keys.len() && keys[low + step] < bound {
        low += step;
        step *= 2;
    }
    let high = keys.len().min(low + step);
    &keys[low + keys[low..high].partition_point(|key| *key < bound)..]
}

/// Merges two sorted sequences of distinct keys into one.
fn merge_sorted(
    a: impl Iterator<Item = Key>,
    b: impl Iterator<Item = Key>,
) -> impl Iterator<Item = Key> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if y < x => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// Reorders keys sorted on `(x, y, z)` into `(z, x, y)` order — SPO into
/// OSP, OSP into POS — with one stable counting sort on `z`, every
/// component being below `ids`.
fn rotate_sorted(keys: &[Key], ids: usize) -> Vec<Key> {
    let mut next = vec![0u32; ids + 1];
    for key in keys {
        next[key.2 as usize + 1] += 1;
    }
    for id in 1..next.len() {
        next[id] += next[id - 1];
    }
    let mut rotated = vec![(0, 0, 0); keys.len()];
    for &(x, y, z) in keys {
        let slot = &mut next[z as usize];
        rotated[*slot as usize] = (z, x, y);
        *slot += 1;
    }
    rotated
}

/// The offset table of a sorted run: entry `a` is the index of the first
/// key whose first component is at least `a`, up to one past the largest.
fn first_offsets(run: &[Key]) -> Arc<Vec<u32>> {
    let mut start = Vec::with_capacity(run.last().map_or(1, |key| key.0 as usize + 2));
    for (index, key) in run.iter().enumerate() {
        while start.len() <= key.0 as usize {
            start.push(index as u32);
        }
    }
    start.push(run.len() as u32);
    Arc::new(start)
}

/// The triples matching an id-level pattern, in the key order of the index
/// [`Graph::range`] chose for it: SPO, POS or OSP (see [`Range::order`]).
///
/// Where the overlay has never held a key of the range's first component
/// (or, with that component unbound, holds nothing), the range walks the
/// run slice as it is; otherwise it merges the overlay's keys in range,
/// skipping removed ones. Either way [`Range::seek`] moves it forward to a
/// bound in a few comparisons, and `count` counts what is left without
/// walking the slice.
pub struct Range<'g>(Ranges<'g>);

/// A [`Range`] over one of the three indexes, its key order a const
/// parameter: `next` matches on the variant, and `fold` (hence `for_each`)
/// matches once and then loops over one monomorphic walk.
enum Ranges<'g> {
    Spo(Walk<'g, SPO>),
    Pos(Walk<'g, POS>),
    Osp(Walk<'g, OSP>),
}

/// Runs `$body` with `$walk` bound to the walk inside a [`Ranges`].
macro_rules! each_walk {
    ($ranges:expr, $walk:ident => $body:expr) => {
        match $ranges {
            Ranges::Spo($walk) => $body,
            Ranges::Pos($walk) => $body,
            Ranges::Osp($walk) => $body,
        }
    };
}

/// One index's keys in range, in its `ORDER`: the run keys not yet
/// yielded, and the overlay's in-range keys when the range is touched.
struct Walk<'g, const ORDER: u8> {
    run: &'g [Key],
    overlay: Option<Overlay<'g>>,
}

/// The overlay keys of a touched range not yet passed: the next inserted
/// and the next removed key, `None` once that tree has none left in range.
/// Every removed key is a run key, so the next removed key is never behind
/// the run's next key. Only the next keys are kept (each advance descends
/// its tree once): the overlay is small, and a range stays a few words.
struct Overlay<'g> {
    index: &'g Index,
    high: Key,
    next_inserted: Option<Key>,
    next_removed: Option<Key>,
}

impl<'g, const ORDER: u8> Walk<'g, ORDER> {
    /// The keys of `index` whose leading components equal the bound ones
    /// (`None` = wildcard; a bound component follows only bound ones).
    #[inline(always)]
    fn new(index: &'g Index, a: Option<TermId>, b: Option<TermId>, c: Option<TermId>) -> Self {
        debug_assert!(a.is_some() || b.is_none(), "bound components form a prefix");
        debug_assert!(b.is_some() || c.is_none(), "bound components form a prefix");
        let run = index.run_matching(a, b, c);
        let touched = match a {
            Some(a) => index.touched(a),
            None => index.overlay_len() > 0,
        };
        let overlay = match touched {
            true => Overlay::new(index, a, b, c),
            false => None,
        };
        Walk { run, overlay }
    }

    #[inline(always)]
    fn next_key(&mut self) -> Option<Key> {
        match &mut self.overlay {
            None => {
                let (&key, rest) = self.run.split_first()?;
                self.run = rest;
                Some(key)
            }
            Some(overlay) => {
                let (key, rest) = overlay.next(self.run);
                self.run = rest;
                key
            }
        }
    }

    /// A triple in this walk's key order.
    fn key(&self, triple: EncodedTriple) -> Key {
        from_spo::<ORDER>(triple)
    }

    fn seek(&mut self, bound: Key) {
        self.run = gallop(self.run, bound);
        if let Some(overlay) = &mut self.overlay {
            overlay.seek(bound);
        }
    }

    fn remaining(&self) -> usize {
        match &self.overlay {
            None => self.run.len(),
            Some(overlay) => {
                self.run.len() + overlay.left(overlay.next_inserted, &overlay.index.inserted)
                    - overlay.left(overlay.next_removed, &overlay.index.removed)
            }
        }
    }
}

impl<const ORDER: u8> Iterator for Walk<'_, ORDER> {
    type Item = EncodedTriple;

    #[inline(always)]
    fn next(&mut self) -> Option<EncodedTriple> {
        self.next_key().map(to_spo::<ORDER>)
    }

    fn fold<B, F: FnMut(B, EncodedTriple) -> B>(self, init: B, mut f: F) -> B {
        match self.overlay {
            None => self
                .run
                .iter()
                .fold(init, |acc, &key| f(acc, to_spo::<ORDER>(key))),
            Some(_) => {
                let mut acc = init;
                for triple in self {
                    acc = f(acc, triple);
                }
                acc
            }
        }
    }
}

impl<'g> Overlay<'g> {
    /// The overlay keys of `index` in the bound components' range; `None`
    /// when there are none.
    fn new(
        index: &'g Index,
        a: Option<TermId>,
        b: Option<TermId>,
        c: Option<TermId>,
    ) -> Option<Self> {
        let low = Included((a.unwrap_or(0), b.unwrap_or(0), c.unwrap_or(0)));
        let high = (
            a.unwrap_or(TermId::MAX),
            b.unwrap_or(TermId::MAX),
            c.unwrap_or(TermId::MAX),
        );
        let next_inserted = first_in(&index.inserted, low, high);
        let next_removed = first_in(&index.removed, low, high);
        (next_inserted.is_some() || next_removed.is_some()).then_some(Overlay {
            index,
            high,
            next_inserted,
            next_removed,
        })
    }

    /// The next key of `run` merged with this overlay, and the run keys
    /// left after it. The slice goes in and out by value: a walk whose
    /// slice escaped by reference kept it in memory, not in registers, and
    /// its slice path ran at 4–5 ns per key instead of under 3.
    fn next(&mut self, mut run: &'g [Key]) -> (Option<Key>, &'g [Key]) {
        loop {
            let key = match (run.first(), self.next_inserted) {
                (Some(&key), inserted) if inserted.is_none_or(|inserted| key < inserted) => key,
                (_, None) => return (None, run),
                (_, Some(inserted)) => {
                    self.next_inserted =
                        first_in(&self.index.inserted, Excluded(inserted), self.high);
                    return (Some(inserted), run);
                }
            };
            run = &run[1..];
            if self.next_removed != Some(key) {
                return (Some(key), run);
            }
            self.next_removed = first_in(&self.index.removed, Excluded(key), self.high);
        }
    }

    /// Moves each tree's next key to its first key at or above `bound`; one
    /// already there stays where it is.
    fn seek(&mut self, bound: Key) {
        let (index, high) = (self.index, self.high);
        let seek = |next: Option<Key>, set: &BTreeSet<Key>| match next {
            Some(key) if key < bound => match bound <= high {
                true => first_in(set, Included(bound), high),
                false => None,
            },
            next => next,
        };
        self.next_inserted = seek(self.next_inserted, &index.inserted);
        self.next_removed = seek(self.next_removed, &index.removed);
    }

    /// How many keys from `next` on `set` holds in range.
    fn left(&self, next: Option<Key>, set: &BTreeSet<Key>) -> usize {
        next.map_or(0, |next| set.range(next..=self.high).count())
    }
}

/// The first key of `set` from `low` up to `high`.
fn first_in(set: &BTreeSet<Key>, low: Bound<Key>, high: Key) -> Option<Key> {
    set.range((low, Included(high))).next().copied()
}

impl Range<'_> {
    /// The `(s, p, o)` position of each key component, in the key order
    /// the range yields and seeks in: `[0, 1, 2]` for SPO, `[1, 2, 0]` for
    /// POS, `[2, 0, 1]` for OSP. Its bound components come first.
    pub fn order(&self) -> [usize; 3] {
        match self.0 {
            Ranges::Spo(_) => [0, 1, 2],
            Ranges::Pos(_) => [1, 2, 0],
            Ranges::Osp(_) => [2, 0, 1],
        }
    }

    /// Moves to the first remaining match at or above `bound`, given in
    /// `(s, p, o)` order and compared in the range's key order
    /// ([`Self::order`]). A bound at or below the next match moves
    /// nothing: a range never goes back.
    pub fn seek(&mut self, bound: EncodedTriple) {
        each_walk!(&mut self.0, walk => walk.seek(walk.key(bound)))
    }

    /// Moves past every remaining match that agrees with `triple` on the
    /// first `prefix` components of the key order (1 or 2; the matches
    /// sharing a prefix are contiguous): one [`Self::seek`] to the next
    /// value of the last of them.
    pub fn seek_past(&mut self, triple: EncodedTriple, prefix: usize) {
        debug_assert!(matches!(prefix, 1 | 2), "a prefix of one or two components");
        each_walk!(&mut self.0, walk => {
            let (a, b, _) = walk.key(triple);
            // Ids stay below `TermId::MAX`, so the successor is an id.
            walk.seek(match prefix {
                1 => (a + 1, 0, 0),
                _ => (a, b + 1, 0),
            })
        })
    }
}

impl Iterator for Range<'_> {
    type Item = EncodedTriple;

    #[inline(always)]
    fn next(&mut self) -> Option<EncodedTriple> {
        each_walk!(&mut self.0, walk => walk.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = each_walk!(&self.0, walk => walk.overlay.is_none().then_some(walk.run.len()));
        (len.unwrap_or(0), len)
    }

    /// What is left: the run slice's length, corrected by the overlay keys
    /// left in range.
    fn count(self) -> usize {
        each_walk!(&self.0, walk => walk.remaining())
    }

    fn fold<B, F: FnMut(B, EncodedTriple) -> B>(self, init: B, f: F) -> B {
        each_walk!(self.0, walk => walk.fold(init, f))
    }
}

/// An in-memory RDF graph with SPO/POS/OSP indexes.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    interner: Interner,
    spo: Index,
    pos: Index,
    osp: Index,
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
        self.len() == 0
    }

    /// Number of distinct terms appearing in the graph.
    pub fn term_count(&self) -> usize {
        self.interner.len()
    }

    /// Interns a triple's components without inserting it.
    fn encode(&mut self, triple: &Triple) -> EncodedTriple {
        let s = self.interner.intern(&triple.subject);
        let (p, o) = self.encode_predicate_object(triple);
        (s, p, o)
    }

    /// Interns a triple's predicate and object, in that order.
    fn encode_predicate_object(&mut self, triple: &Triple) -> (TermId, TermId) {
        let p = self.interner.intern_iri(&triple.predicate);
        (p, self.interner.intern(&triple.object))
    }

    /// The ids of a triple's terms, if the graph has seen all three.
    fn ids_of(&self, triple: &Triple) -> Option<EncodedTriple> {
        Some((
            self.interner.get(&triple.subject)?,
            self.interner.get_iri(&triple.predicate)?,
            self.interner.get(&triple.object)?,
        ))
    }

    /// Adds a triple the graph does not hold to the three overlays.
    fn add(&mut self, (s, p, o): EncodedTriple) {
        self.spo.insert((s, p, o));
        self.pos.insert((p, o, s));
        self.osp.insert((o, s, p));
    }

    /// Merges the overlays into new runs once they pass their share.
    fn compact_if_due(&mut self) {
        if self.spo.overlay_len() > self.spo.overlay_limit() {
            for index in [&mut self.spo, &mut self.pos, &mut self.osp] {
                index.merge(Vec::new());
            }
        }
    }

    /// Inserts a triple. Returns `true` if it was not already present.
    pub fn insert(&mut self, triple: &Triple) -> bool {
        let encoded = self.encode(triple);
        self.insert_encoded(encoded)
    }

    /// Inserts a triple given by ids this graph's interner issued for it.
    fn insert_encoded(&mut self, encoded: EncodedTriple) -> bool {
        if self.spo.contains(encoded) {
            return false;
        }
        self.add(encoded);
        self.compact_if_due();
        true
    }

    /// Inserts a batch of triples, returning how many were new.
    ///
    /// The batch is encoded, sorted and deduplicated once and checked
    /// against what the graph holds (a load into an empty graph skips that
    /// pass). The sort is run-aware: each subject's
    /// run of keys is sorted as it is encoded, and one stable sort merges
    /// the ascending runs that leaves (data grouped by subject, with ids
    /// issued in first-seen order, is a few long runs). When the new
    /// triples would push the overlay past its share of the run — every
    /// bulk load into an empty graph beyond a handful of triples — each
    /// index merges them into a new run in one pass; a small batch joins
    /// the overlay. Triples may be passed by reference: nothing of a triple
    /// is cloned but the terms the graph has not seen yet.
    pub fn bulk_insert<I>(&mut self, triples: I) -> usize
    where
        I: IntoIterator,
        I::Item: Borrow<Triple>,
    {
        // The interner grows with the distinct terms it meets: a batch has
        // several triples per term, and a table sized for the triples would
        // be touched sparsely, a fresh page per probe. Data arrives grouped
        // by subject (an observation's star, a Turtle `;` list), so the
        // previous subject's term is compared before the interner is probed.
        let triples = triples.into_iter();
        let mut encoded: Vec<EncodedTriple> = Vec::with_capacity(triples.size_hint().0);
        let mut previous: Option<TermId> = None;
        let mut run_start = 0;
        for triple in triples {
            let triple = triple.borrow();
            let s = match previous {
                Some(id) if *self.interner.resolve(id) == triple.subject => id,
                _ => {
                    encoded[run_start..].sort_unstable();
                    run_start = encoded.len();
                    let id = self.interner.intern(&triple.subject);
                    previous = Some(id);
                    id
                }
            };
            let (p, o) = self.encode_predicate_object(triple);
            encoded.push((s, p, o));
        }
        encoded[run_start..].sort_unstable();
        encoded.sort();
        encoded.dedup();
        if !self.is_empty() {
            encoded.retain(|&key| !self.spo.contains(key));
        }
        let added = encoded.len();
        if self.spo.overlay_len() + added <= self.spo.overlay_limit() {
            for &key in &encoded {
                self.add(key);
            }
            return added;
        }
        let osp = rotate_sorted(&encoded, self.interner.len());
        let pos = rotate_sorted(&osp, self.interner.len());
        self.spo.merge(encoded);
        self.osp.merge(osp);
        self.pos.merge(pos);
        added
    }

    /// Removes a triple. Returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        let Some((s, p, o)) = self.ids_of(triple).filter(|&key| self.spo.contains(key)) else {
            return false;
        };
        self.spo.remove((s, p, o));
        self.pos.remove((p, o, s));
        self.osp.remove((o, s, p));
        self.compact_if_due();
        true
    }

    /// True if the graph contains the given triple.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.ids_of(triple)
            .is_some_and(|key| self.spo.contains(key))
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

    /// Iterates over all triples (decoded), in SPO id order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.range(None, None, None)
            .map(move |encoded| self.decode(encoded))
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
        let p = predicate.map(|iri| self.interner.get_iri(iri));
        let o = object.map(|t| self.interner.get(t));
        let known = ![s, p, o].contains(&Some(None));
        known
            .then(|| self.range(s.flatten(), p.flatten(), o.flatten()))
            .into_iter()
            .flatten()
    }

    /// The triples matching an id-level pattern (`None` = wildcard),
    /// straight off the index whose sort order has the bound components as
    /// a prefix, in that index's key order — one slice of its run, merged
    /// with its overlay only where the overlay has held a key of the first
    /// bound component, nothing collected. This is the single place an
    /// index is chosen; every other matcher sits on it. Forced inline: a
    /// lookup runs once per row of every pattern step.
    #[inline(always)]
    pub fn range(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Range<'_> {
        Range(match (s, p, o) {
            (Some(_), None, Some(_)) | (None, None, Some(_)) => {
                Ranges::Osp(Walk::new(&self.osp, o, s, p))
            }
            (None, Some(_), _) => Ranges::Pos(Walk::new(&self.pos, p, o, s)),
            _ => Ranges::Spo(Walk::new(&self.spo, s, p, o)),
        })
    }

    /// How many triples match an id-level pattern (`None` = wildcard) —
    /// the `count` of its [`Self::range`]: two binary searches per bound
    /// component after the first, plus a walk of the overlay keys in range
    /// (the overlay holds at most a small share of the run), and the
    /// graph's length when nothing is bound. The SPARQL evaluator's join
    /// planner counts with it.
    pub fn count_matching(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        match (s, p, o) {
            (None, None, None) => self.len(),
            _ => self.range(s, p, o).count(),
        }
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

    /// Builds a graph from an iterator of triples.
    pub fn from_triples<I: IntoIterator<Item = Triple>>(triples: I) -> Self {
        let mut g = Graph::new();
        g.bulk_insert(triples);
        g
    }
}

impl Extend<Triple> for Graph {
    fn extend<T: IntoIterator<Item = Triple>>(&mut self, iter: T) {
        self.bulk_insert(iter);
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
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeMap;

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
        assert_eq!(
            g.triples_matching(None, Some(&Iri::new("http://q")), None)
                .len(),
            1
        );
        assert_eq!(
            g.subjects(&Iri::new("http://p"), &Term::iri("http://q"))
                .len(),
            1
        );
        assert!(g.remove(&t("http://a", "http://q", "http://p")));
        assert!(!g.remove(&t("http://a", "http://q", "http://p")));
        assert_eq!(g.len(), 1);
    }

    /// The reference: three `BTreeSet`s and one range scan per pattern. The
    /// graph must answer every pattern with exactly its triples, in exactly
    /// its order.
    #[derive(Clone, Default)]
    struct Model {
        spo: BTreeSet<Key>,
        pos: BTreeSet<Key>,
        osp: BTreeSet<Key>,
    }

    impl Model {
        fn insert(&mut self, (s, p, o): EncodedTriple) -> bool {
            let added = self.spo.insert((s, p, o));
            self.pos.insert((p, o, s));
            self.osp.insert((o, s, p));
            added
        }

        fn remove(&mut self, (s, p, o): EncodedTriple) -> bool {
            let removed = self.spo.remove(&(s, p, o));
            self.pos.remove(&(p, o, s));
            self.osp.remove(&(o, s, p));
            removed
        }

        /// The keys of the index a pattern's shape selects, in its key
        /// order, and the `(s, p, o)` position of each key component.
        fn range(
            &self,
            s: Option<TermId>,
            p: Option<TermId>,
            o: Option<TermId>,
        ) -> (Vec<Key>, [usize; 3]) {
            let (index, [a, b, c], order) = match (s, p, o) {
                (Some(_), None, Some(_)) | (None, None, Some(_)) => {
                    (&self.osp, [o, s, p], [2, 0, 1])
                }
                (None, Some(_), _) => (&self.pos, [p, o, s], [1, 2, 0]),
                _ => (&self.spo, [s, p, o], [0, 1, 2]),
            };
            let low = (a.unwrap_or(0), b.unwrap_or(0), c.unwrap_or(0));
            let high = (
                a.unwrap_or(TermId::MAX),
                b.unwrap_or(TermId::MAX),
                c.unwrap_or(TermId::MAX),
            );
            (index.range(low..=high).copied().collect(), order)
        }
    }

    /// A key in `order` (the `(s, p, o)` position of each component) back
    /// in `(s, p, o)` order.
    fn spo_of(key: Key, order: [usize; 3]) -> EncodedTriple {
        let mut spo = [0; 3];
        for (component, position) in [key.0, key.1, key.2].into_iter().zip(order) {
            spo[position] = component;
        }
        (spo[0], spo[1], spo[2])
    }

    /// A triple in `order`'s key order.
    fn key_of((s, p, o): EncodedTriple, order: [usize; 3]) -> Key {
        let spo = [s, p, o];
        (spo[order[0]], spo[order[1]], spo[order[2]])
    }

    /// One step of a walk through a range: take keys, seek to a bound (in
    /// key order), or seek past a key's first components.
    #[derive(Debug, Clone, Copy)]
    enum Move {
        Take(usize),
        Seek(Key),
        SeekPast(Key, usize),
    }

    /// Walks `range` through `moves`, checking every key taken against
    /// `keys`, the model's keys of the range in its key order; returns how
    /// many of them the range has passed.
    fn walk(range: &mut Range<'_>, keys: &[Key], moves: &[Move], what: &str) -> usize {
        let order = range.order();
        let prefix = |key: Key, len: usize| [key.0, key.1, key.2][..len].to_vec();
        let mut at = 0;
        for &step in moves {
            match step {
                Move::Take(count) => {
                    for _ in 0..count {
                        let expected = keys.get(at).map(|&key| spo_of(key, order));
                        assert_eq!(range.next(), expected, "{what}: {moves:?}");
                        at = keys.len().min(at + 1);
                    }
                }
                Move::Seek(bound) => {
                    range.seek(spo_of(bound, order));
                    at = at.max(keys.partition_point(|key| *key < bound));
                }
                Move::SeekPast(key, len) => {
                    range.seek_past(spo_of(key, order), len);
                    let past = keys.partition_point(|k| prefix(*k, len) <= prefix(key, len));
                    at = at.max(past);
                }
            }
        }
        at
    }
    /// A triple over a small vocabulary: eight IRIs usable in any position
    /// plus four literals as objects, so patterns match several triples.
    fn random_triple(rng: &mut StdRng) -> Triple {
        let iri = |rng: &mut StdRng| format!("http://t{}", rng.gen_range(0..8u8));
        let object = match rng.gen_range(0..3u8) {
            0 => Term::Literal(Literal::string(format!("l{}", rng.gen_range(0..4u8)))),
            _ => Term::iri(iri(rng)),
        };
        Triple::new(Term::iri(iri(rng)), Iri::new(iri(rng)), object)
    }

    fn ids(g: &Graph, triple: &Triple) -> EncodedTriple {
        g.ids_of(triple).expect("the graph interned the triple")
    }

    /// The range walks of [`check`]: their own seeded draws, so the
    /// mutation sequence does not depend on them, and how often they met
    /// each kind of range — a touched one that merges the overlay, an
    /// untouched slice beside a non-empty overlay, and a slice of a freshly
    /// merged index (an empty overlay).
    struct Walks {
        rng: StdRng,
        merged: usize,
        untouched: usize,
        fresh: usize,
    }

    impl Walks {
        fn new(seed: u64) -> Self {
            Walks {
                rng: StdRng::seed_from_u64(seed),
                merged: 0,
                untouched: 0,
                fresh: 0,
            }
        }
    }

    /// `len`, `contains` and `range` of `g` equal the model's, the last for
    /// all 27 shapes of bound / unbound / never-issued components;
    /// `count_matching` counts what `range` yields; and walks through each
    /// range that take keys and seek — to bounds below, inside and past it,
    /// on held keys, between them and on `removed` keys, and past a key's
    /// first components — yield exactly the model's keys from there on, and
    /// count what is left.
    fn check(
        g: &Graph,
        model: &Model,
        removed: &[Triple],
        rng: &mut StdRng,
        walks: &mut Walks,
        step: &str,
    ) {
        assert_eq!(g.len(), model.spo.len(), "{step}: len");
        for _ in 0..8 {
            let triple = random_triple(rng);
            let expected = g
                .ids_of(&triple)
                .is_some_and(|key| model.spo.contains(&key));
            assert_eq!(g.contains(&triple), expected, "{step}: contains {triple}");
        }
        let all: Vec<Key> = model.spo.iter().copied().collect();
        let (s0, p0, o0) = match all.len() {
            0 => (0, 0, 0),
            len => all[rng.gen_range(0..len)],
        };
        let unknown = g.term_count() as TermId + 7;
        for s in [None, Some(s0), Some(unknown)] {
            for p in [None, Some(p0), Some(unknown)] {
                for o in [None, Some(o0), Some(unknown)] {
                    let what = format!("{step}: ({s:?}, {p:?}, {o:?})");
                    let (keys, order) = model.range(s, p, o);
                    let range = g.range(s, p, o);
                    assert_eq!(range.order(), order, "{what}: order");
                    let merges = each_walk!(&range.0, walk => walk.overlay.is_some());
                    match (merges, g.spo.overlay_len()) {
                        (true, _) => walks.merged += 1,
                        (false, 0) => walks.fresh += 1,
                        (false, _) => walks.untouched += 1,
                    }
                    let matched: Vec<EncodedTriple> = range.collect();
                    let expected: Vec<EncodedTriple> =
                        keys.iter().map(|&key| spo_of(key, order)).collect();
                    assert_eq!(matched, expected, "{what}");
                    assert_eq!(g.count_matching(s, p, o), matched.len(), "{what}: count");

                    // Bounds in key order: below and past every range, on a
                    // held key and just after it, on a removed key, and on
                    // any held key of the graph (mostly another range's).
                    let mut bounds = vec![(0, 0, 0), (TermId::MAX, TermId::MAX, TermId::MAX)];
                    let mut keys_at = Vec::new();
                    if !keys.is_empty() {
                        let key = keys[walks.rng.gen_range(0..keys.len())];
                        bounds.extend([key, (key.0, key.1, key.2 + 1)]);
                        keys_at.push(key);
                    }
                    if !removed.is_empty() {
                        let gone = ids(g, &removed[walks.rng.gen_range(0..removed.len())]);
                        bounds.push(key_of(gone, order));
                        keys_at.push(key_of(gone, order));
                    }
                    if !all.is_empty() {
                        let held = key_of(all[walks.rng.gen_range(0..all.len())], order);
                        bounds.push(held);
                        keys_at.push(held);
                    }
                    for _ in 0..3 {
                        let mut moves = Vec::new();
                        for _ in 0..walks.rng.gen_range(1..4) {
                            moves.push(Move::Take(walks.rng.gen_range(0..3)));
                            moves.push(match keys_at.is_empty() || walks.rng.gen_bool(0.6) {
                                true => Move::Seek(bounds[walks.rng.gen_range(0..bounds.len())]),
                                false => Move::SeekPast(
                                    keys_at[walks.rng.gen_range(0..keys_at.len())],
                                    walks.rng.gen_range(1..3),
                                ),
                            });
                        }
                        moves.push(Move::Take(1));
                        let mut range = g.range(s, p, o);
                        let at = walk(&mut range, &keys, &moves, &what);
                        let rest: Vec<EncodedTriple> = range.collect();
                        assert_eq!(rest, expected[at..], "{what}: {moves:?}");
                        let mut range = g.range(s, p, o);
                        walk(&mut range, &keys, &moves, &what);
                        assert_eq!(range.count(), keys.len() - at, "{what}: {moves:?} count");
                    }
                }
            }
        }
    }

    /// One mutation of `g` and its model, drawn at random.
    fn mutate(
        g: &mut Graph,
        model: &mut Model,
        removed: &mut Vec<Triple>,
        rng: &mut StdRng,
    ) -> String {
        let existing = |g: &Graph, model: &Model, rng: &mut StdRng| {
            let all: Vec<Key> = model.spo.iter().copied().collect();
            (!all.is_empty()).then(|| g.decode(all[rng.gen_range(0..all.len())]))
        };
        match rng.gen_range(0..8u8) {
            0 | 1 => {
                let triple = random_triple(rng);
                let added = g.insert(&triple);
                assert_eq!(added, model.insert(ids(g, &triple)));
                format!("insert {triple}")
            }
            2 => match existing(g, model, rng) {
                Some(triple) => {
                    assert!(!g.insert(&triple), "duplicate insert");
                    format!("duplicate insert {triple}")
                }
                None => "nothing to duplicate".to_string(),
            },
            3 => match existing(g, model, rng) {
                Some(triple) => {
                    assert!(g.remove(&triple));
                    assert!(model.remove(ids(g, &triple)));
                    removed.push(triple.clone());
                    format!("remove {triple}")
                }
                None => "nothing to remove".to_string(),
            },
            4 => {
                let triple = random_triple(rng);
                let gone = g.remove(&triple);
                assert_eq!(gone, g.ids_of(&triple).is_some_and(|key| model.remove(key)));
                format!("remove maybe-absent {triple}")
            }
            5 => match removed.pop() {
                Some(triple) => {
                    assert_eq!(g.insert(&triple), model.insert(ids(g, &triple)));
                    format!("re-insert removed {triple}")
                }
                None => "nothing to re-insert".to_string(),
            },
            6 => {
                // A fresh key lands in the overlay; removing it at once
                // removes an overlay-only key.
                let triple = random_triple(rng);
                let added = g.insert(&triple);
                assert_eq!(added, model.insert(ids(g, &triple)));
                if added {
                    assert!(g.remove(&triple));
                    model.remove(ids(g, &triple));
                }
                format!("insert and remove {triple}")
            }
            _ => {
                // Small batches join the overlay, large ones merge.
                let len = if rng.gen_bool(0.5) {
                    rng.gen_range(1..20)
                } else {
                    rng.gen_range(100..300)
                };
                let batch: Vec<Triple> = (0..len).map(|_| random_triple(rng)).collect();
                let added = g.bulk_insert(&batch);
                let expected = batch
                    .iter()
                    .filter(|triple| model.insert(ids(g, triple)))
                    .count();
                assert_eq!(added, expected);
                format!("bulk insert of {len}")
            }
        }
    }

    #[test]
    fn matching_ids_agrees_with_a_full_scan_for_every_shape() {
        let (mut compactions, mut walks) = (0, Walks::new(99));
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = Graph::new();
            let mut model = Model::default();
            // A bulk load into the empty graph: half the seeds large enough
            // to build runs, half small enough to stay in the overlay.
            let len = if seed % 2 == 0 { 400 } else { 40 };
            let batch: Vec<Triple> = (0..len).map(|_| random_triple(&mut rng)).collect();
            let added = g.bulk_insert(&batch);
            assert_eq!(
                added,
                batch
                    .iter()
                    .filter(|triple| model.insert(ids(&g, triple)))
                    .count()
            );
            check(&g, &model, &[], &mut rng, &mut walks, "bulk load");

            let mut removed = Vec::new();
            for i in 0..240 {
                let run = Arc::clone(&g.spo.run);
                let step = mutate(&mut g, &mut model, &mut removed, &mut rng);
                if !Arc::ptr_eq(&g.spo.run, &run) && !step.starts_with("bulk") {
                    compactions += 1;
                }
                let step = format!("seed {seed} step {i}: {step}");
                check(&g, &model, &removed, &mut rng, &mut walks, &step);

                if i % 10 == 0 {
                    // A clone shares the runs; mutating either side leaves
                    // the other as it was.
                    let (mut fork, mut fork_model) = (g.clone(), model.clone());
                    for index in [
                        (&g.spo, &fork.spo),
                        (&g.pos, &fork.pos),
                        (&g.osp, &fork.osp),
                    ] {
                        assert!(Arc::ptr_eq(&index.0.run, &index.1.run));
                        assert!(Arc::ptr_eq(&index.0.start, &index.1.start));
                    }
                    let mut fork_removed = removed.clone();
                    for _ in 0..4 {
                        let fork_step =
                            mutate(&mut fork, &mut fork_model, &mut fork_removed, &mut rng);
                        check(
                            &fork,
                            &fork_model,
                            &fork_removed,
                            &mut rng,
                            &mut walks,
                            &format!("{step}, fork: {fork_step}"),
                        );
                        let own_step = mutate(&mut g, &mut model, &mut removed, &mut rng);
                        check(
                            &g,
                            &model,
                            &removed,
                            &mut rng,
                            &mut walks,
                            &format!("{step}, beside a fork: {own_step}"),
                        );
                    }
                }
            }
        }
        assert!(
            compactions > 0,
            "enough single inserts and removes to compact"
        );
        let Walks {
            merged,
            untouched,
            fresh,
            ..
        } = walks;
        assert!(
            merged > 0 && untouched > 0 && fresh > 0,
            "ranges that merge ({merged}), untouched slices ({untouched}) and fresh runs ({fresh})"
        );
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
            g.objects(&syria, &rdf::type_()),
            vec![Term::iri("http://ex/Country")]
        );
        assert_eq!(
            g.subjects_of_type(&Iri::new("http://ex/Country")),
            vec![syria.clone()]
        );
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

    /// Bulk-loads `input` into a fresh graph and inserts it triple by
    /// triple into another: both must issue the same ids to the same terms
    /// and answer every pattern shape over every held triple alike.
    fn assert_bulk_matches_loop_insert(input: &[Triple], what: &str) {
        let mut bulk = Graph::new();
        let added = bulk.bulk_insert(input);
        let mut reference = Graph::new();
        let reference_added = input.iter().filter(|t| reference.insert(t)).count();

        assert_eq!(added, reference_added, "{what}: added");
        assert_eq!(bulk.len(), reference.len(), "{what}: len");
        assert!(
            bulk.interner.iter().eq(reference.interner.iter()),
            "{what}: term ids"
        );
        for triple in input {
            assert!(bulk.contains(triple), "{what}: contains {triple}");
            let (s, p, o) = ids(&bulk, triple);
            for s in [None, Some(s)] {
                for p in [None, Some(p)] {
                    for o in [None, Some(o)] {
                        assert!(
                            bulk.range(s, p, o).eq(reference.range(s, p, o)),
                            "{what}: ({s:?}, {p:?}, {o:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bulk_insert_into_fresh_graph_matches_loop_insert() {
        // Subjects cycle, so each one's triples are spread over the input;
        // the first fifty come again as duplicates.
        let cycling: Vec<Triple> = (0..200)
            .map(|i| {
                t(
                    &format!("http://s{}", i % 40),
                    &format!("http://p{}", i % 7),
                    &format!("http://o{}", i % 23),
                )
            })
            .collect();
        let mut with_duplicates = cycling.clone();
        with_duplicates.extend(cycling.iter().take(50).cloned());
        assert_bulk_matches_loop_insert(&with_duplicates, "cycling subjects");

        // Grouped by subject, then shuffled: no two neighbours need share
        // a subject.
        let grouped: Vec<Triple> = (0..240)
            .map(|i| {
                t(
                    &format!("http://s{}", i / 6),
                    &format!("http://p{}", (i * 5) % 7),
                    &format!("http://o{}", (i * 11) % 29),
                )
            })
            .collect();
        let mut shuffled = grouped.clone();
        let mut rng = StdRng::seed_from_u64(37);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        assert_bulk_matches_loop_insert(&shuffled, "shuffled");

        // Runs of one subject, where a subject comes back after others.
        let returning: Vec<Triple> = [0, 0, 0, 1, 1, 0, 0, 2, 1, 1, 1, 3, 0, 2, 2]
            .iter()
            .enumerate()
            .map(|(i, s)| {
                t(
                    &format!("http://s{s}"),
                    &format!("http://p{}", 6 - i % 4),
                    &format!("http://o{}", 9 - i % 7),
                )
            })
            .collect();
        assert_bulk_matches_loop_insert(&returning, "returning subjects");

        // A chain: each triple's object is the next one's subject, so every
        // subject after the first already has an id, issued as an object,
        // and a leaf object is a subject further on.
        let mut chain: Vec<Triple> = (0..30)
            .map(|i| {
                t(
                    &format!("http://n{i}"),
                    &format!("http://p{}", i % 3),
                    &format!("http://n{}", i + 1),
                )
            })
            .collect();
        chain.push(t("http://leaf", "http://p0", "http://n0"));
        chain.insert(3, t("http://n2", "http://p1", "http://leaf"));
        assert_bulk_matches_loop_insert(&chain, "subjects first seen as objects");
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
        assert!(g
            .triples_matching(None, None, Some(&Term::iri("http://y")))
            .is_empty());
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
        g2.extend(g.iter());
        g2.extend(triples);
        assert_eq!(g2.len(), 2);
        assert!(g.iter().eq(g2.iter()));
    }

    #[test]
    fn interner_iter_is_in_id_order() {
        let mut interner = Interner::new();
        interner.reserve(2);
        let a = interner.intern(&Term::iri("http://a"));
        let b = interner.intern(&Term::iri("http://b"));
        let pairs: Vec<(TermId, Term)> = interner.iter().map(|(id, t)| (id, t.clone())).collect();
        assert_eq!(
            pairs,
            vec![(a, Term::iri("http://a")), (b, Term::iri("http://b"))]
        );
    }

    /// A term of any kind from a vocabulary of near neighbours: IRIs one
    /// byte apart, one lexical form under several datatypes and language
    /// tags, and a blank node sharing its label with an IRI.
    fn random_term(rng: &mut StdRng) -> Term {
        let n = rng.gen_range(0..6_000u32);
        match rng.gen_range(0..8u8) {
            0 => Term::iri(format!("http://example.org/obs/{n}")),
            1 => Term::iri(format!("http://example.org/obs/{n}/")),
            2 => Term::iri(format!("b{n}")),
            3 => Term::blank(format!("b{n}")),
            4 => Term::Literal(Literal::string(n.to_string())),
            5 => Term::Literal(Literal::typed(n.to_string(), crate::vocab::xsd::integer())),
            6 => Term::Literal(Literal::typed(n.to_string(), Iri::new("b"))),
            _ => Term::Literal(Literal::lang_string(
                n.to_string(),
                ["en", "en-gb", "fr"][rng.gen_range(0..3usize)],
            )),
        }
    }

    /// The reference interner: ids in first-seen order, kept twice over,
    /// in a map ordered by `Term`'s own (total) order.
    #[derive(Clone, Default)]
    struct InternerModel {
        ids: BTreeMap<Term, TermId>,
        terms: Vec<Term>,
    }

    impl InternerModel {
        fn intern(&mut self, term: &Term) -> TermId {
            let next = self.terms.len() as TermId;
            let id = *self.ids.entry(term.clone()).or_insert(next);
            if id == next {
                self.terms.push(term.clone());
            }
            id
        }

        fn get(&self, term: &Term) -> Option<TermId> {
            self.ids.get(term).copied()
        }
    }

    /// One random `intern`, `intern_iri`, `get` or `get_iri` on both sides.
    fn intern_step<S: BuildHasher>(
        interner: &mut Interner<S>,
        model: &mut InternerModel,
        rng: &mut StdRng,
    ) {
        let term = random_term(rng);
        match (rng.gen_range(0..4u8), term.as_iri()) {
            (0, _) | (1, None) => {
                assert_eq!(interner.intern(&term), model.intern(&term), "intern {term}")
            }
            (1, Some(iri)) => {
                assert_eq!(
                    interner.intern_iri(iri),
                    model.intern(&term),
                    "intern_iri {term}"
                )
            }
            (2, Some(iri)) => assert_eq!(interner.get_iri(iri), model.get(&term), "get_iri {term}"),
            _ => assert_eq!(interner.get(&term), model.get(&term), "get {term}"),
        }
    }

    fn assert_interner_is(interner: &Interner<impl BuildHasher>, model: &InternerModel) {
        assert_eq!(interner.len(), model.terms.len());
        assert!(interner.iter().eq(model
            .terms
            .iter()
            .enumerate()
            .map(|(i, t)| (i as TermId, t))));
        for (id, term) in model.terms.iter().enumerate() {
            let id = id as TermId;
            assert_eq!(model.get(term), Some(id));
            assert_eq!(interner.resolve(id), term);
            assert_eq!(interner.get(term), Some(id), "get {term}");
            if let Some(iri) = term.as_iri() {
                assert_eq!(interner.get_iri(iri), Some(id), "get_iri {term}");
            }
        }
    }

    fn interner_matches_a_btreemap<S: BuildHasher + Default + Clone>() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut interner = Interner::<S>::default();
        let mut model = InternerModel::default();
        for step in 0..40_000 {
            let slots = interner.slots.len();
            intern_step(&mut interner, &mut model, &mut rng);
            if interner.slots.len() != slots {
                assert_interner_is(&interner, &model);
            }
            if step % 8_000 == 0 {
                // A clone mutated on both sides: each keeps its own terms.
                let (mut fork, mut fork_model) = (interner.clone(), model.clone());
                for _ in 0..500 {
                    intern_step(&mut fork, &mut fork_model, &mut rng);
                    intern_step(&mut interner, &mut model, &mut rng);
                }
                assert_interner_is(&fork, &fork_model);
                assert_interner_is(&interner, &model);
            }
        }
        assert_interner_is(&interner, &model);
        // Growths are checked as they happen (those beside a fork, after
        // it); the table doubles from 16 slots, at least ten times.
        assert!(
            interner.slots.len() >= 16 << 10,
            "{} slots for {} terms",
            interner.slots.len(),
            interner.len()
        );

        // An IRI interned either way is one id, and a same-labelled blank
        // node or literal is another.
        let iri = Iri::new("http://example.org/obs/7");
        let id = interner.intern_iri(&iri);
        assert_eq!(interner.intern(&Term::Iri(iri.clone())), id);
        assert_ne!(
            interner.intern(&Term::blank("http://example.org/obs/7")),
            id
        );
        assert_ne!(
            interner.intern(&Term::string("http://example.org/obs/7")),
            id
        );
    }

    #[test]
    fn interner_matches_a_btreemap_model() {
        interner_matches_a_btreemap::<FxBuildHasher>();
        interner_matches_a_btreemap::<std::collections::hash_map::RandomState>();
    }

    #[test]
    fn the_last_term_id_is_never_issued() {
        assert_eq!(next_id(0), 0);
        assert_eq!(next_id(TermId::MAX as usize - 1), TermId::MAX - 1);
        // `TermId::MAX` is the empty slot and the evaluator's unbound cell;
        // past it an id would wrap onto 0.
        for len in [TermId::MAX as usize, TermId::MAX as usize + 1] {
            assert!(std::panic::catch_unwind(|| next_id(len)).is_err());
        }
    }

    #[test]
    fn decode_roundtrip() {
        let mut g = Graph::new();
        let triple = Triple::new(Term::blank("b1"), Iri::new("http://p"), Literal::integer(7));
        g.insert(&triple);
        let decoded: Vec<Triple> = g.iter().collect();
        assert_eq!(decoded, vec![triple]);
    }
}

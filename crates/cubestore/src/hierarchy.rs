//! The hierarchy side of a materialized cube: per-level member indexes with
//! attribute values, and precomputed bottom-level → ancestor roll-up maps.
//!
//! Both structures are copy-on-write: the attribute store of a
//! [`LevelIndex`] and the target array of a [`RollupMap`] live behind
//! `Arc`s, so a replay that touches no hierarchy triple shares the level
//! indexes outright with the previous cube and copies only the roll-up
//! maps that grow with new bottom members. A replay that does touch one
//! reads the levels again and refills every map.
//!
//! A level index also holds its members' order: each member's rank in
//! `Term` order, computed once when the index is made. The executor packs
//! group keys from those ranks, so the integer order of its keys is the
//! canonical cell order and no query sorts a level's terms.

use std::collections::BTreeMap;
use std::sync::Arc;

use rdf::{Iri, Term};

use crate::dictionary::{Dictionary, MemberId, AMBIGUOUS_MEMBER, NO_MEMBER};

/// The members declared `qb4o:memberOf` one level, with the attribute values
/// the dices need, dictionary-encoded.
#[derive(Debug, Clone)]
pub struct LevelIndex {
    /// The level IRI.
    pub level: Iri,
    /// The declared members of the level. Private: `order` is computed
    /// from it once, so it must not change after the index is made.
    dictionary: Dictionary,
    /// Attribute IRI → per-member value (indexed by member id; `None` where
    /// the member has no value for the attribute). Only the first value of a
    /// multi-valued attribute is kept, matching the single-valued data the
    /// SPARQL backend is exercised on. `Arc`-shared between a cube and its
    /// delta-refreshed clones until a replay re-reads the hierarchy.
    attributes: Arc<BTreeMap<Iri, Vec<Option<Term>>>>,
    /// The members' `Term` order, `Arc`-shared like the attributes.
    order: Arc<MemberOrder>,
}

/// A level's members in `Term` order, both ways round.
#[derive(Debug)]
struct MemberOrder {
    /// `rank[member]`: the member's position in `Term` order.
    rank: Vec<u32>,
    /// `sorted[rank]`: the member at that position.
    sorted: Vec<MemberId>,
}

impl MemberOrder {
    fn of(dictionary: &Dictionary) -> Self {
        let mut sorted: Vec<MemberId> = (0..dictionary.len() as MemberId).collect();
        sorted.sort_unstable_by(|&a, &b| dictionary.term(a).cmp(dictionary.term(b)));
        let mut rank = vec![0; sorted.len()];
        for (position, &member) in sorted.iter().enumerate() {
            rank[member as usize] = position as u32;
        }
        MemberOrder { rank, sorted }
    }
}

impl LevelIndex {
    /// Creates an index over the declared members of a level.
    pub fn new(level: Iri, dictionary: Dictionary) -> Self {
        LevelIndex {
            level,
            order: Arc::new(MemberOrder::of(&dictionary)),
            dictionary,
            attributes: Arc::new(BTreeMap::new()),
        }
    }

    /// Records the values of one attribute, given as `(member, value)`
    /// pairs. Pairs whose member is not declared on the level are ignored;
    /// for multi-valued members the first pair wins.
    pub fn set_attribute(&mut self, attribute: Iri, pairs: &[(Term, Term)]) {
        let mut values: Vec<Option<Term>> = vec![None; self.dictionary.len()];
        for (member, value) in pairs {
            if let Some(id) = self.dictionary.id(member) {
                let slot = &mut values[id as usize];
                if slot.is_none() {
                    *slot = Some(value.clone());
                }
            }
        }
        Arc::make_mut(&mut self.attributes).insert(attribute, values);
    }

    /// The value of `attribute` on the member with id `member`, if any.
    pub fn attribute_value(&self, attribute: &Iri, member: MemberId) -> Option<&Term> {
        self.attributes
            .get(attribute)?
            .get(member as usize)?
            .as_ref()
    }

    /// The attributes tracked on this level.
    pub fn attribute_iris(&self) -> impl Iterator<Item = &Iri> {
        self.attributes.keys()
    }

    /// True if the index holds values for `attribute`.
    pub fn has_attribute(&self, attribute: &Iri) -> bool {
        self.attributes.contains_key(attribute)
    }

    /// The declared members of the level.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// Number of declared members.
    pub fn member_count(&self) -> usize {
        self.dictionary.len()
    }

    /// Every member's rank in `Term` order, indexed by member id.
    pub(crate) fn ranks(&self) -> &[u32] {
        debug_assert_eq!(self.order.rank.len(), self.dictionary.len());
        &self.order.rank
    }

    /// The member at `rank` in `Term` order.
    pub(crate) fn member_at_rank(&self, rank: u32) -> MemberId {
        self.order.sorted[rank as usize]
    }
}

/// A precomputed roll-up map for one `(dimension, target level)` pair:
/// bottom-member code → code of the ancestor member at the target level (in
/// the target level's [`LevelIndex`] dictionary).
///
/// Entries are [`NO_MEMBER`] where the bottom member has no ancestor at the
/// target level (ragged hierarchies — the SPARQL backend drops those
/// observations, and so does the columnar executor) and
/// [`AMBIGUOUS_MEMBER`] where it has several (non-functional roll-ups — the
/// columnar executor refuses those).
#[derive(Debug, Clone)]
pub struct RollupMap {
    /// The dimension the map belongs to.
    pub dimension: Iri,
    /// The level the map rolls up to.
    pub target_level: Iri,
    /// `Arc`-shared with delta-refreshed clones; copied only when a delta
    /// introduces new bottom members (the map grows with the bottom
    /// dictionary, not with the fact rows).
    map: Arc<Vec<MemberId>>,
}

impl RollupMap {
    /// Creates a map from the raw per-bottom-code targets.
    pub fn new(dimension: Iri, target_level: Iri, map: Vec<MemberId>) -> Self {
        RollupMap {
            dimension,
            target_level,
            map: Arc::new(map),
        }
    }

    /// The target code for a bottom-member code.
    #[inline]
    pub fn target(&self, bottom: MemberId) -> MemberId {
        self.map[bottom as usize]
    }

    /// Every target, indexed by bottom-member code — the slice the segment
    /// scan lifts a whole column segment through.
    #[inline]
    pub fn targets(&self) -> &[MemberId] {
        &self.map
    }

    /// Appends the target for the next bottom-member code (incremental
    /// maintenance: the bottom dictionary grew by one member). Copies the
    /// shared map on the first push of a refresh.
    pub fn push(&mut self, target: MemberId) {
        Arc::make_mut(&mut self.map).push(target);
    }

    /// Number of bottom members covered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the map covers no members.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of bottom members with no ancestor at the target level.
    pub fn unmapped_members(&self) -> usize {
        self.map.iter().filter(|&&t| t == NO_MEMBER).count()
    }

    /// Number of bottom members with several ancestors at the target level.
    pub fn ambiguous_members(&self) -> usize {
        self.map.iter().filter(|&&t| t == AMBIGUOUS_MEMBER).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(names: &[&str]) -> Dictionary {
        let mut dict = Dictionary::new();
        for n in names {
            dict.encode(&Term::iri(format!("http://m/{n}")));
        }
        dict
    }

    #[test]
    fn attribute_lookup_first_value_wins() {
        let mut index = LevelIndex::new(Iri::new("http://level"), members(&["a", "b"]));
        let attr = Iri::new("http://attr/name");
        index.set_attribute(
            attr.clone(),
            &[
                (Term::iri("http://m/a"), Term::string("first")),
                (Term::iri("http://m/a"), Term::string("second")),
                (Term::iri("http://m/unknown"), Term::string("ignored")),
            ],
        );
        assert!(index.has_attribute(&attr));
        assert_eq!(index.member_count(), 2);
        assert_eq!(
            index.attribute_value(&attr, 0),
            Some(&Term::string("first"))
        );
        assert_eq!(index.attribute_value(&attr, 1), None);
        assert!(!index.has_attribute(&Iri::new("http://attr/other")));
        assert_eq!(
            index.attribute_value(&Iri::new("http://attr/other"), 0),
            None
        );
    }

    #[test]
    fn members_rank_in_term_order() {
        let index = LevelIndex::new(Iri::new("http://level"), members(&["c", "a", "d", "b"]));
        assert_eq!(index.ranks(), &[2, 0, 3, 1]);
        let sorted: Vec<&Term> = (0..4)
            .map(|rank| index.dictionary.term(index.member_at_rank(rank)))
            .collect();
        assert!(
            sorted.windows(2).all(|pair| pair[0] < pair[1]),
            "{sorted:?}"
        );
    }

    #[test]
    fn rollup_map_counters() {
        let map = RollupMap::new(
            Iri::new("http://dim"),
            Iri::new("http://level/top"),
            vec![0, NO_MEMBER, 1, AMBIGUOUS_MEMBER],
        );
        assert_eq!(map.len(), 4);
        assert!(!map.is_empty());
        assert_eq!(map.target(0), 0);
        assert_eq!(map.target(1), NO_MEMBER);
        assert_eq!(map.unmapped_members(), 1);
        assert_eq!(map.ambiguous_members(), 1);
    }
}

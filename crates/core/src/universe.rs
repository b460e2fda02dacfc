//! The classifier universe `C_Q` in dense, indexed form.
//!
//! For every query `q`, every non-empty subset of `q` is a relevant
//! classifier (§2.1). The universe deduplicates classifiers shared between
//! queries, assigns dense [`ClassifierId`]s, materializes their weights once,
//! computes incidences `I(S) = |Q_S|`, and keeps a per-query table mapping
//! each *local bitmask* (bit `i` ⇔ the `i`-th smallest property of the
//! query) to the global classifier id. All solver hot paths work on these
//! masks and ids rather than on property sets.
//!
//! The optional `max_classifier_len` bound implements the paper's "bounded
//! classifiers" variant (§5.3): only classifiers of length ≤ `k'` are
//! considered.

use crate::cast::u32_of;
use crate::error::{Mc3Error, Result};
use crate::fxhash::FxHasher;
use crate::instance::Instance;
use crate::prop::PropId;
use crate::propset::{Classifier, PropSet};
use crate::weight::Weight;
use std::fmt;
use std::hash::Hasher;

/// Dense id of a classifier within a [`ClassifierUniverse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassifierId(pub u32);

impl ClassifierId {
    /// Sentinel meaning "no classifier" (used in mask tables at slot 0 and
    /// for masks excluded by a length bound).
    pub const NONE: ClassifierId = ClassifierId(u32::MAX);

    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the [`ClassifierId::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }
}

impl fmt::Display for ClassifierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "c∅")
        } else {
            write!(f, "c{}", self.0)
        }
    }
}

/// Per-query view: the query's length and its mask → classifier-id table.
#[derive(Debug, Clone)]
pub struct QueryLocal {
    /// Query length `ℓ`.
    pub len: usize,
    /// `table[m]` is the classifier id of the subset with local mask `m`
    /// (`1 ≤ m < 2^ℓ`); `table[0]` and masks excluded by a length bound hold
    /// [`ClassifierId::NONE`].
    pub table: Vec<ClassifierId>,
}

impl QueryLocal {
    /// The classifier id for local mask `m`, if in the universe.
    #[inline]
    pub fn id(&self, mask: u32) -> ClassifierId {
        self.table[mask as usize]
    }

    /// The full-query mask `2^ℓ − 1`.
    #[inline]
    pub fn full_mask(&self) -> u32 {
        u32_of((1u64 << self.len) - 1)
    }
}

/// A classifier of a [`ClassifierUniverse`], borrowed from its arena.
///
/// The members are the sorted, duplicate-free [`PropId`]s of the
/// classifier; [`ClassifierRef::to_propset`] copies them into an owned
/// [`Classifier`] when one is needed (solutions, cache entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassifierRef<'a>(&'a [PropId]);

impl<'a> ClassifierRef<'a> {
    /// Iterates members in ascending order.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = PropId> + 'a {
        self.0.iter().copied()
    }

    /// Number of properties (the classifier length).
    #[inline]
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// Whether the classifier has no members (never true inside a universe).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// An owned copy.
    pub fn to_propset(self) -> Classifier {
        PropSet::from_sorted(self.0.to_vec())
    }
}

/// The deduplicated classifier universe of an instance.
///
/// Classifiers live in one flat [`PropId`] arena (`props[offsets[c] ..
/// offsets[c + 1]]` is classifier `c`) and are interned through an
/// open-addressing table of ids keyed by the hash of that slice, so each
/// classifier is stored once and a lookup that hits allocates nothing.
#[derive(Debug, Clone)]
pub struct ClassifierUniverse {
    props: Vec<PropId>,
    offsets: Vec<u32>,
    weights: Vec<Weight>,
    incidence: Vec<u32>,
    slots: Vec<u32>,
    per_query: Vec<QueryLocal>,
    max_classifier_len: usize,
}

/// Marks an unused slot of the id table.
const EMPTY_SLOT: u32 = u32::MAX;

fn slice_hash(key: &[PropId]) -> usize {
    let mut h = FxHasher::default();
    for p in key {
        h.write_u32(p.0);
    }
    // fold the well-mixed high half into the low bits the table masks
    let x = h.finish();
    (x ^ (x >> 32)) as usize
}

impl ClassifierUniverse {
    /// Enumerates `C_Q` for `instance`, considering all subset lengths.
    pub fn build(instance: &Instance) -> ClassifierUniverse {
        Self::build_bounded(instance, instance.max_query_len().max(1))
    }

    /// Enumerates the bounded universe: only classifiers of length ≤
    /// `max_classifier_len` (`k'` of §5.3). A bound of 0 is clamped to 1
    /// because singleton classifiers are always needed for coverability.
    ///
    /// Ids are assigned in first-occurrence order: queries in instance
    /// order, masks ascending within a query.
    pub fn build_bounded(instance: &Instance, max_classifier_len: usize) -> ClassifierUniverse {
        let kp = max_classifier_len.max(1);
        let mut u = ClassifierUniverse {
            props: Vec::new(),
            offsets: vec![0],
            weights: Vec::new(),
            incidence: Vec::new(),
            slots: vec![EMPTY_SLOT; (4 * instance.num_queries()).next_power_of_two().max(16)],
            per_query: Vec::with_capacity(instance.num_queries()),
            max_classifier_len: kp,
        };
        let mut buf = [PropId(0); crate::MAX_QUERY_LEN];

        for q in instance.queries() {
            let members = q.ids();
            let len = members.len();
            let full = (1u64 << len) as usize;
            let mut table = vec![ClassifierId::NONE; full];
            for mask in 1..u32_of(full) {
                if (mask.count_ones() as usize) > kp {
                    continue;
                }
                let mut n = 0;
                let mut bits = mask;
                while bits != 0 {
                    buf[n] = members[bits.trailing_zeros() as usize];
                    n += 1;
                    bits &= bits - 1;
                }
                let key = &buf[..n];
                let id = match u.find(key) {
                    Ok(id) => id,
                    Err(slot) => u.intern(slot, key, instance.weights().weight_of_ids(key)),
                };
                // Incidence counts queries that *include* S; each (q, S ⊆ q)
                // pair is visited exactly once here. Infinite-weight
                // classifiers have I(S) = 0 by definition (§5).
                if u.weights[id.index()].is_finite() {
                    u.incidence[id.index()] += 1;
                }
                table[mask as usize] = id;
            }
            u.per_query.push(QueryLocal { len, table });
        }
        u
    }

    fn members(&self, c: usize) -> &[PropId] {
        &self.props[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// The id of `key`, or the empty slot where it would be interned.
    fn find(&self, key: &[PropId]) -> std::result::Result<ClassifierId, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = slice_hash(key) & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY_SLOT {
                return Err(slot);
            }
            if self.members(id as usize) == key {
                return Ok(ClassifierId(id));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Appends `key` as a new classifier at the empty `slot` found by
    /// [`Self::find`], growing the id table to keep it at most half full.
    fn intern(&mut self, slot: usize, key: &[PropId], weight: Weight) -> ClassifierId {
        let id = ClassifierId(u32_of(self.weights.len()));
        self.props.extend_from_slice(key);
        self.offsets.push(u32_of(self.props.len()));
        self.weights.push(weight);
        self.incidence.push(0);
        self.slots[slot] = id.0;
        if 2 * self.weights.len() > self.slots.len() {
            self.rehash(2 * self.slots.len());
        }
        id
    }

    fn rehash(&mut self, capacity: usize) {
        let mut slots = vec![EMPTY_SLOT; capacity];
        let mask = capacity - 1;
        for c in 0..self.weights.len() {
            let mut slot = slice_hash(self.members(c)) & mask;
            while slots[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            slots[slot] = u32_of(c);
        }
        self.slots = slots;
    }

    /// Number of distinct classifiers (`m̂` of §5.2).
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the universe is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The classifier with dense id `id`.
    #[inline]
    pub fn classifier(&self, id: ClassifierId) -> ClassifierRef<'_> {
        ClassifierRef(self.members(id.index()))
    }

    /// The materialized weight of `id`.
    #[inline]
    pub fn weight(&self, id: ClassifierId) -> Weight {
        self.weights[id.index()]
    }

    /// All materialized weights, indexed by classifier id.
    #[inline]
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Overrides the materialized weight of one classifier.
    ///
    /// Used by incremental planning: classifiers that are already built
    /// cost nothing to "construct" again, so their weight is zeroed before
    /// solving. The override is local to this universe — the instance's
    /// weight function is untouched.
    pub fn override_weight(&mut self, id: ClassifierId, weight: Weight) {
        let was_finite = self.weights[id.index()].is_finite();
        self.weights[id.index()] = weight;
        // keep the incidence convention (I(S) = 0 for infinite weights)
        if was_finite && weight.is_infinite() {
            self.incidence[id.index()] = 0;
        }
    }

    /// Incidence `I(S)`: the number of queries whose property set includes
    /// `S` (0 for infinite-weight classifiers).
    #[inline]
    pub fn incidence(&self, id: ClassifierId) -> u32 {
        self.incidence[id.index()]
    }

    /// The instance incidence `I = max_S I(S)` (§5).
    pub fn max_incidence(&self) -> u32 {
        self.incidence.iter().copied().max().unwrap_or(0)
    }

    /// Looks up a classifier's dense id.
    pub fn id_of(&self, classifier: &PropSet) -> Option<ClassifierId> {
        self.find(classifier.ids()).ok()
    }

    /// Looks up a classifier's dense id, erroring if outside `C_Q`.
    pub fn require_id(&self, classifier: &PropSet) -> Result<ClassifierId> {
        self.id_of(classifier)
            .ok_or_else(|| Mc3Error::ClassifierOutsideUniverse {
                classifier: classifier.to_string(),
            })
    }

    /// Per-query local view (parallel to `instance.queries()`).
    #[inline]
    pub fn query_local(&self, query_idx: usize) -> &QueryLocal {
        &self.per_query[query_idx]
    }

    /// Number of queries the universe was built from.
    #[inline]
    pub fn num_queries(&self) -> usize {
        self.per_query.len()
    }

    /// The classifier-length bound `k'` in effect.
    #[inline]
    pub fn max_classifier_len(&self) -> usize {
        self.max_classifier_len
    }

    /// Iterates `(id, classifier)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ClassifierId, ClassifierRef<'_>)> {
        (0..self.len()).map(|c| (ClassifierId(u32_of(c)), ClassifierRef(self.members(c))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::Weights;

    fn inst(queries: Vec<Vec<u32>>) -> Instance {
        Instance::new(queries, Weights::uniform(1u64)).unwrap()
    }

    #[test]
    fn paper_example_universe() {
        // P = {x,y,z,u}, Q = {xy, zu} → C_Q = {X, Y, Z, U, XY, ZU} (§2.1)
        let instance = inst(vec![vec![0, 1], vec![2, 3]]);
        let u = ClassifierUniverse::build(&instance);
        assert_eq!(u.len(), 6);
        assert!(
            u.id_of(&PropSet::from_ids([0u32, 2])).is_none(),
            "XZ must not exist"
        );
        assert!(u.id_of(&PropSet::from_ids([0u32, 1])).is_some());
    }

    #[test]
    fn shared_classifiers_deduplicate_and_count_incidence() {
        // Q = {xy, yz}: I(y) = 2, everything else 1 (example of §5)
        let instance = inst(vec![vec![0, 1], vec![1, 2]]);
        let u = ClassifierUniverse::build(&instance);
        let y = u.id_of(&PropSet::from_ids([1u32])).unwrap();
        assert_eq!(u.incidence(y), 2);
        let x = u.id_of(&PropSet::from_ids([0u32])).unwrap();
        assert_eq!(u.incidence(x), 1);
        let xy = u.id_of(&PropSet::from_ids([0u32, 1])).unwrap();
        assert_eq!(u.incidence(xy), 1);
        assert_eq!(u.max_incidence(), 2);
        // X, Y, Z, XY, YZ
        assert_eq!(u.len(), 5);
    }

    #[test]
    fn infinite_weight_classifiers_have_zero_incidence() {
        let w = crate::weights::WeightsBuilder::new()
            .classifier([0u32], 1u64)
            .classifier([1u32], 1u64)
            .build(); // XY absent → infinite
        let instance = Instance::new(vec![vec![0u32, 1]], w).unwrap();
        let u = ClassifierUniverse::build(&instance);
        let xy = u.id_of(&PropSet::from_ids([0u32, 1])).unwrap();
        assert!(u.weight(xy).is_infinite());
        assert_eq!(u.incidence(xy), 0);
        assert_eq!(u.max_incidence(), 1);
    }

    #[test]
    fn mask_table_maps_local_masks_to_ids() {
        let instance = inst(vec![vec![10, 20, 30]]);
        let u = ClassifierUniverse::build(&instance);
        let local = u.query_local(0);
        assert_eq!(local.len, 3);
        assert_eq!(local.full_mask(), 0b111);
        assert!(local.id(0).is_none());
        // mask 0b101 → {10, 30}
        let id = local.id(0b101);
        assert_eq!(
            u.classifier(id).to_propset(),
            PropSet::from_ids([10u32, 30])
        );
        // 2^3 - 1 = 7 classifiers
        assert_eq!(u.len(), 7);
    }

    #[test]
    fn bounded_universe_excludes_long_classifiers() {
        let instance = inst(vec![vec![0, 1, 2]]);
        let u = ClassifierUniverse::build_bounded(&instance, 2);
        // singletons + pairs only: 3 + 3
        assert_eq!(u.len(), 6);
        let local = u.query_local(0);
        assert!(local.id(0b111).is_none());
        assert!(!local.id(0b011).is_none());
        assert_eq!(u.max_classifier_len(), 2);
    }

    #[test]
    fn require_id_errors_outside_universe() {
        let instance = inst(vec![vec![0, 1]]);
        let u = ClassifierUniverse::build(&instance);
        let err = u.require_id(&PropSet::from_ids([5u32])).unwrap_err();
        assert!(matches!(err, Mc3Error::ClassifierOutsideUniverse { .. }));
    }

    #[test]
    fn universe_size_bound_matches_paper() {
        // n disjoint queries of length k: |C_Q| = n(2^k - 1)
        let instance = inst(vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]]);
        let u = ClassifierUniverse::build(&instance);
        assert_eq!(u.len(), 3 * 7);
    }
}

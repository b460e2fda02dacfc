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

/// Per-query view: the query's length and its mask → classifier-id table,
/// borrowed from the universe's table arena.
#[derive(Debug, Clone, Copy)]
pub struct QueryLocal<'a> {
    /// Query length `ℓ`.
    pub len: usize,
    /// `table[m]` is the classifier id of the subset with local mask `m`
    /// (`1 ≤ m < 2^ℓ`); `table[0]` and masks excluded by a length bound hold
    /// [`ClassifierId::NONE`].
    pub table: &'a [ClassifierId],
}

impl QueryLocal<'_> {
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
/// The per-query mask tables sit back to back in one arena
/// (`tables[table_off[q] .. table_off[q + 1]]`, `2^ℓ` slots for a query of
/// length `ℓ`), sized exactly before interning. The classifier arrays and
/// the id table are presized from the number of `(query, subset)` pairs,
/// or from the subsets of the instance's properties if fewer, up to
/// 131,072 pairs; past that they grow.
#[derive(Debug, Clone)]
pub struct ClassifierUniverse {
    props: Vec<PropId>,
    offsets: Vec<u32>,
    weights: Vec<Weight>,
    incidence: Vec<u32>,
    slots: Vec<u32>,
    tables: Vec<ClassifierId>,
    table_off: Vec<usize>,
    max_classifier_len: usize,
}

/// Marks an unused slot of the id table.
const EMPTY_SLOT: u32 = u32::MAX;

/// Most `(query, subset)` pairs the classifier arrays and the id table are
/// presized for (at most about 7 MB of them). Pairs overcount the distinct
/// classifiers by the subsets queries share: about 1.25× on the
/// synthetic, BestBuy-like and private-like workloads, but by hundreds
/// when many long queries are drawn from few properties. Presizing every
/// pair would then reserve gigabytes for classifiers that never exist.
/// An instance past the cap grows its arrays by doubling, which copies
/// them and can overshoot, so the cap is set above the pair counts of
/// ordinary instances (6000 synthetic queries have about 90,000).
const PRESIZE_PAIRS: usize = 1 << 17;

fn slice_hash(key: &[PropId]) -> usize {
    let mut h = FxHasher::default();
    for p in key {
        h.write_u32(p.0);
    }
    // fold the well-mixed high half into the low bits the table masks
    let x = h.finish();
    (x ^ (x >> 32)) as usize
}

/// Upper bounds on the classifiers and on their total length for every
/// query length `ℓ`: `Σ_{i ≤ k'} C(ℓ, i)` subsets and `Σ_{i ≤ k'} i·C(ℓ, i)`
/// members.
fn subset_bounds(kp: usize) -> [(usize, usize); crate::MAX_QUERY_LEN + 1] {
    let mut bounds = [(0, 0); crate::MAX_QUERY_LEN + 1];
    for (len, b) in bounds.iter_mut().enumerate() {
        let mut binom = 1usize; // C(len, i)
        for i in 1..=len.min(kp) {
            binom = binom * (len + 1 - i) / i;
            b.0 += binom;
            b.1 += i * binom;
        }
    }
    bounds
}

/// The subsets of at most `k'` of `n` properties and their total length,
/// `Σ_{1 ≤ i ≤ k'} C(n, i)` and `Σ_{1 ≤ i ≤ k'} i·C(n, i)`, or `None` once
/// the subsets reach `limit`.
fn subsets_below(n: usize, kp: usize, limit: usize) -> Option<(usize, usize)> {
    let (mut binom, mut sum, mut members) = (1usize, 0usize, 0usize);
    for i in 1..=n.min(kp) {
        // binom ≤ sum < limit here, so the products cannot overflow
        binom = binom * (n + 1 - i) / i;
        sum += binom;
        members += i * binom;
        if sum >= limit {
            return None;
        }
    }
    Some((sum, members))
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
        let bounds = subset_bounds(kp);
        let mut table_off = Vec::with_capacity(instance.num_queries() + 1);
        table_off.push(0);
        let (mut pairs, mut members) = (0, 0);
        for q in instance.queries() {
            let (p, m) = bounds[q.len()];
            pairs += p;
            members += m;
            table_off.push(table_off[table_off.len() - 1] + (1 << q.len()));
        }
        // No more classifiers than subsets of the instance's properties:
        // tight when long queries share a small vocabulary.
        let cap = pairs.min(PRESIZE_PAIRS);
        let (presize, presize_members) = subsets_below(instance.num_properties(), kp, cap)
            .unwrap_or((cap, members * cap / pairs.max(1)));
        let mut offsets = Vec::with_capacity(presize + 1);
        offsets.push(0);
        let mut u = ClassifierUniverse {
            props: Vec::with_capacity(presize_members),
            offsets,
            weights: Vec::with_capacity(presize),
            incidence: Vec::with_capacity(presize),
            // at most half full with `presize` classifiers
            slots: vec![EMPTY_SLOT; (2 * presize).next_power_of_two().max(16)],
            tables: vec![ClassifierId::NONE; table_off[table_off.len() - 1]],
            table_off,
            max_classifier_len: kp,
        };
        let mut buf = [PropId(0); crate::MAX_QUERY_LEN];

        for (qi, q) in instance.queries().iter().enumerate() {
            let members = q.ids();
            let base = u.table_off[qi];
            for mask in 1..u32_of(1usize << members.len()) {
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
                u.tables[base + mask as usize] = id;
            }
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
    pub fn query_local(&self, query_idx: usize) -> QueryLocal<'_> {
        let table = &self.tables[self.table_off[query_idx]..self.table_off[query_idx + 1]];
        QueryLocal {
            len: table.len().trailing_zeros() as usize,
            table,
        }
    }

    /// Every query's mask table, back to back in query order: `2^ℓ` slots
    /// per query of length `ℓ`, [`ClassifierId::NONE`] where no classifier
    /// is.
    #[inline]
    pub fn mask_tables(&self) -> &[ClassifierId] {
        &self.tables
    }

    /// Number of queries the universe was built from.
    #[inline]
    pub fn num_queries(&self) -> usize {
        self.table_off.len() - 1
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
    fn counted_bounds_presize_every_array() {
        // heavy sharing (long queries over 8 properties) and none at all
        let shared: Vec<Vec<u32>> = (0..60u32)
            .map(|i| {
                (0..8u32)
                    .filter(|p| (i >> (p % 6)) & 1 == 1 || *p == i % 8)
                    .collect()
            })
            .collect();
        let disjoint: Vec<Vec<u32>> = (0..30u32)
            .map(|i| vec![3 * i, 3 * i + 1, 3 * i + 2])
            .collect();
        for queries in [shared, disjoint] {
            let instance = inst(queries);
            for kp in 1..=instance.max_query_len() {
                let u = ClassifierUniverse::build_bounded(&instance, kp);
                let bounds = subset_bounds(kp);
                let pairs: usize = instance.queries().iter().map(|q| bounds[q.len()].0).sum();
                let members: usize = instance.queries().iter().map(|q| bounds[q.len()].1).sum();
                let occupied = u.mask_tables().iter().filter(|id| !id.is_none()).count();
                assert_eq!(occupied, pairs, "kp {kp}: the bound counts every pair");
                assert!(u.len() <= pairs && u.props.len() <= members);
                // presized for the pairs, or for the subsets of the
                // properties if fewer: the classifiers never outgrow it
                assert!(pairs < PRESIZE_PAIRS);
                let (presize, presize_members) =
                    subsets_below(instance.num_properties(), kp, pairs).unwrap_or((pairs, members));
                assert!(u.len() <= presize && u.props.len() <= presize_members);
                assert_eq!(u.weights.capacity(), presize);
                assert_eq!(u.props.capacity(), presize_members);
                assert_eq!(u.slots.len(), (2 * presize).next_power_of_two().max(16));
            }
        }
    }

    /// Every `len`-property subset of the properties `first..first + pool`.
    fn all_subsets(first: u32, pool: u32, len: u32) -> Vec<Vec<u32>> {
        (0u32..1 << pool)
            .filter(|s| s.count_ones() == len)
            .map(|s| {
                (0..pool)
                    .filter(|p| (s >> p) & 1 == 1)
                    .map(|p| first + p)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn subsets_below_sums_binomials_up_to_the_limit() {
        assert_eq!(
            subsets_below(14, 14, usize::MAX),
            Some(((1 << 14) - 1, 14 << 13))
        );
        assert_eq!(
            subsets_below(14, 2, usize::MAX),
            Some((14 + 91, 14 + 2 * 91))
        );
        assert_eq!(subsets_below(0, 3, 10), Some((0, 0)));
        assert_eq!(subsets_below(14, 2, 105), None);
        assert_eq!(subsets_below(1_000_000, 16, PRESIZE_PAIRS), None);
        assert_eq!(subsets_below(usize::MAX / 2, 16, 1 << 20), None);
    }

    #[test]
    fn heavy_sharing_over_few_properties_presizes_their_subsets() {
        // every 12-property subset of 14 properties: 91 queries, 372,645
        // (query, subset) pairs, but only the 16,368 subsets of at most
        // 12 properties are distinct classifiers
        let instance = inst(all_subsets(0, 14, 12));
        let u = ClassifierUniverse::build(&instance);
        assert_eq!(u.len(), (1 << 14) - 1 - 14 - 1);
        assert_eq!(u.weights.capacity(), u.len());
        assert_eq!(u.props.capacity(), u.props.len());
        assert!(2 * u.len() <= u.slots.len() && u.slots.len() <= 4 * u.len());
    }

    #[test]
    fn heavy_sharing_over_many_properties_reserves_at_most_the_cap() {
        // three disjoint copies of every 10-property subset of 14
        // properties: 3,072,069 pairs and 42 properties, but only 47,739
        // distinct classifiers
        let queries: Vec<Vec<u32>> = (0..3).flat_map(|c| all_subsets(14 * c, 14, 10)).collect();
        let instance = inst(queries);
        let u = ClassifierUniverse::build(&instance);
        assert_eq!(u.len(), 3 * ((1 << 14) - 1 - 364 - 91 - 14 - 1));
        assert_eq!(u.weights.capacity(), PRESIZE_PAIRS);
        assert_eq!(u.slots.len(), 2 * PRESIZE_PAIRS);
        assert!(u.props.capacity() <= 10 * PRESIZE_PAIRS);
    }

    #[test]
    fn growing_past_the_presize_cap_keeps_every_classifier() {
        // 2,000 disjoint queries of length 8: 510,000 distinct classifiers,
        // so the arrays and the id table grow past the cap
        let queries: Vec<Vec<u32>> = (0..2000u32).map(|i| (8 * i..8 * i + 8).collect()).collect();
        let instance = inst(queries);
        let u = ClassifierUniverse::build(&instance);
        assert_eq!(u.len(), 2000 * 255);
        assert!(2 * u.len() <= u.slots.len(), "id table at most half full");
        for (qi, q) in instance.queries().iter().enumerate() {
            let local = u.query_local(qi);
            for mask in 1..=local.full_mask() {
                let id = local.id(mask);
                assert_eq!(u.id_of(&q.subset_by_mask(mask)), Some(id));
            }
        }
    }

    #[test]
    fn universe_size_bound_matches_paper() {
        // n disjoint queries of length k: |C_Q| = n(2^k - 1)
        let instance = inst(vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]]);
        let u = ClassifierUniverse::build(&instance);
        assert_eq!(u.len(), 3 * 7);
    }
}

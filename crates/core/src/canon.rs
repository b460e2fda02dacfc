//! Canonical forms and stable fingerprints for MC³ instances.
//!
//! Two structurally identical instances that differ only in how their
//! properties are numbered (or in the order their queries are listed)
//! describe the *same* optimization problem — any solution of one maps to
//! a solution of the other through the property relabeling. This module
//! computes a **canonical relabeling** so such instances collapse to one
//! representation, plus a **stable 128-bit fingerprint** of that
//! representation suitable as a cache key (see `mc3-solver`'s
//! `SolveCache`).
//!
//! The canonical form covers everything the per-component solvers look
//! at:
//!
//! * the multiset of queries (duplicates preserved — greedy set cover
//!   counts elements per query);
//! * per-query *covered* masks (properties already covered by earlier
//!   selections; the WSC reduction only generates elements for the
//!   residual);
//! * the finite entries of the weight oracle over every classifier
//!   `S ⊆ q` with `|S| ≤ k'` — infinite (unusable) classifiers are
//!   omitted since no solver can pick them.
//!
//! # Algorithm
//!
//! A color-refinement (1-WL) pass over the property/query incidence
//! structure, seeded with invariant per-property keys (singleton
//! classifier weight, degree, containing-query shapes), followed by
//! individualization-refinement search: while the coloring is not
//! discrete, the first non-singleton color class is split by
//! individualizing each of its members in turn, and the
//! lexicographically minimal leaf encoding wins. Both the refinement and
//! the target-cell rule are isomorphism-invariant, so relabeled
//! instances produce the same encoding (Theorem: the leaf set of the
//! search tree is invariant; we take its minimum).
//!
//! The search carries a **work budget**; pathologically symmetric
//! instances exhaust it and [`canonicalize`] returns `None` (callers
//! simply skip caching). The budget accounting itself is
//! isomorphism-invariant, so either *all* relabelings of an instance
//! canonicalize or none do.
//!
//! # Fingerprints
//!
//! [`StableHasher`] is a seedless, word-oriented SipHash-2-4 with a
//! 128-bit output. Unlike `DefaultHasher` (randomly seeded per process)
//! or the in-tree FxHash (weak diffusion; fine for hash maps, not for
//! keys), its output is a pure function of the input words and is
//! reproducible across runs, processes and builds.

use crate::cast::u32_of;
use crate::prop::PropId;
use crate::propset::Query;
use crate::weight::Weight;

/// A seedless, word-oriented SipHash-2-4 with 128-bit output.
///
/// Input is a stream of `u64` words (not bytes); the word count is mixed
/// into the finalization, so `[1]` and `[1, 0]` hash differently.
/// Deterministic across runs and builds by construction — use this (and
/// never `DefaultHasher`/FxHash) wherever a hash value escapes the
/// process or keys a cross-request cache.
///
/// # Example
///
/// ```
/// use mc3_core::canon::StableHasher;
///
/// let mut h = StableHasher::new();
/// h.write_u64(42);
/// let a = h.finish128();
/// let mut h = StableHasher::new();
/// h.write_u64(42);
/// assert_eq!(a, h.finish128()); // reproducible
/// ```
#[derive(Debug, Clone)]
pub struct StableHasher {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    words: u64,
}

impl StableHasher {
    /// Fixed keys — `b"mc3canon"` / `b"stablefp"` as little-endian words.
    const K0: u64 = u64::from_le_bytes(*b"mc3canon");
    const K1: u64 = u64::from_le_bytes(*b"stablefp");

    /// A fresh hasher (fixed internal keys; no seed).
    pub fn new() -> Self {
        StableHasher {
            v0: Self::K0 ^ 0x736f_6d65_7073_6575,
            v1: Self::K1 ^ 0x646f_7261_6e64_6f6d ^ 0xee, // 128-bit variant
            v2: Self::K0 ^ 0x6c79_6765_6e65_7261,
            v3: Self::K1 ^ 0x7465_6462_7974_6573,
            words: 0,
        }
    }

    #[inline]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13) ^ self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16) ^ self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21) ^ self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17) ^ self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    /// Mixes one word into the state (two SipRounds).
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        self.v3 ^= w;
        self.round();
        self.round();
        self.v0 ^= w;
        self.words = self.words.wrapping_add(1);
    }

    /// Mixes a slice of words, in order.
    pub fn write_words(&mut self, words: &[u64]) {
        for &w in words {
            self.write_u64(w);
        }
    }

    /// Mixes a byte string: its length, then its bytes as little-endian
    /// words, the last one zero-padded. The length prefix keeps
    /// consecutive strings from aliasing (`"ab", "c"` vs `"a", "bc"`).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// Finalizes into a 128-bit digest, consuming the hasher.
    pub fn finish128(mut self) -> u128 {
        let count = self.words;
        self.write_u64(count);
        self.v2 ^= 0xee;
        for _ in 0..4 {
            self.round();
        }
        let hi = self.v0 ^ self.v1 ^ self.v2 ^ self.v3;
        self.v1 ^= 0xdd;
        for _ in 0..4 {
            self.round();
        }
        let lo = self.v0 ^ self.v1 ^ self.v2 ^ self.v3;
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Hashes a word slice in one call.
pub fn stable_hash128(words: &[u64]) -> u128 {
    let mut h = StableHasher::new();
    h.write_words(words);
    h.finish128()
}

/// Default work budget for [`canonicalize`] — generous for real
/// components (which are small and asymmetric), exhausted quickly by
/// pathologically symmetric ones.
pub const DEFAULT_BUDGET: usize = 1 << 20;

/// The result of canonicalizing a (sub-)instance: a stable fingerprint
/// plus the relabeling that produced it, so cached solutions expressed
/// in canonical ids can be mapped back to original [`PropId`]s.
#[derive(Debug, Clone)]
pub struct Canonical {
    fingerprint: u128,
    /// `from_canonical[c]` = the original property assigned canonical id `c`.
    from_canonical: Vec<PropId>,
    /// `(original, canonical)` pairs sorted by original id, for reverse lookup.
    to_canonical: Vec<(PropId, u32)>,
    /// Length of the canonical encoding, in words (size signal for caches).
    encoding_words: usize,
}

impl Canonical {
    /// The stable 128-bit fingerprint of the canonical encoding.
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// Number of distinct properties in the canonicalized instance.
    pub fn num_props(&self) -> usize {
        self.from_canonical.len()
    }

    /// Length of the canonical encoding in `u64` words.
    pub fn encoding_words(&self) -> usize {
        self.encoding_words
    }

    /// The original property carrying canonical id `c`.
    pub fn original_of(&self, c: u32) -> Option<PropId> {
        self.from_canonical.get(c as usize).copied()
    }

    /// The canonical id assigned to original property `p`.
    pub fn canonical_of(&self, p: PropId) -> Option<u32> {
        self.to_canonical
            .binary_search_by_key(&p, |&(orig, _)| orig)
            .ok()
            .map(|i| self.to_canonical[i].1)
    }

    /// The full canonical-id → original-property table.
    pub fn from_canonical(&self) -> &[PropId] {
        &self.from_canonical
    }
}

/// One finite weight-oracle entry: a classifier as a query-local mask.
struct WeightEntry {
    query: u32,
    mask: u32,
    weight_raw: u64,
}

/// Everything precomputed once per [`canonicalize`] call.
struct CanonCtx<'a> {
    /// Sorted distinct original properties; index = local prop id.
    props: Vec<PropId>,
    /// Per query: members as local prop ids (sorted ascending).
    q_members: Vec<Vec<u32>>,
    /// Per query: covered mask in query-local bit positions.
    q_covered: &'a [u32],
    /// CSR incidence: for local prop `i`, `occ[occ_off[i]..occ_off[i+1]]`
    /// is its `(query index, bit position within query)` occurrences.
    occ_off: Vec<usize>,
    occ: Vec<(u32, u32)>,
    /// Finite weight-oracle entries, grouped by query, ascending mask.
    weights: Vec<WeightEntry>,
    /// Classifier length bound `k'`.
    kp: usize,
    /// Remaining work units; `None` from any step once exhausted.
    budget: usize,
}

impl CanonCtx<'_> {
    fn n(&self) -> usize {
        self.props.len()
    }

    fn m(&self) -> usize {
        self.q_members.len()
    }

    /// Deducts `units` of work; `None` when the budget runs dry.
    fn charge(&mut self, units: usize) -> Option<()> {
        if self.budget < units {
            self.budget = 0;
            return None;
        }
        self.budget -= units;
        Some(())
    }

    /// Re-ranks arbitrary per-prop keys into dense colors `0..distinct`,
    /// ordered by key value. Returns `(colors, distinct)`.
    fn rerank(&self, keys: &[u128]) -> (Vec<u32>, usize) {
        let mut order: Vec<u32> = (0..u32_of(keys.len())).collect();
        order.sort_unstable_by_key(|&i| keys[i as usize]);
        let mut colors = vec![0u32; keys.len()];
        let mut distinct = 0usize;
        let mut prev: Option<u128> = None;
        for &i in &order {
            let k = keys[i as usize];
            if prev != Some(k) {
                distinct += 1;
                prev = Some(k);
            }
            colors[i as usize] = u32_of(distinct - 1);
        }
        (colors, distinct)
    }

    /// Color refinement to a fixpoint. Input colors may be non-dense;
    /// the output is a dense coloring ordered by invariant signatures.
    fn refine(&mut self, colors: &[u32]) -> Option<(Vec<u32>, usize)> {
        let n = self.n();
        let m = self.m();
        let keys: Vec<u128> = colors.iter().map(|&c| u128::from(c)).collect();
        let (mut colors, mut distinct) = self.rerank(&keys);
        if n == 0 {
            return Some((colors, distinct));
        }
        loop {
            self.charge(n + m + self.occ.len())?;
            // Per-query signature over member colors + covered flags.
            let mut qsig = Vec::with_capacity(m);
            let mut member_keys: Vec<u64> = Vec::new();
            for (qi, members) in self.q_members.iter().enumerate() {
                member_keys.clear();
                for (bit, &p) in members.iter().enumerate() {
                    let covered = u64::from((self.q_covered[qi] >> bit) & 1);
                    member_keys.push((u64::from(colors[p as usize]) << 1) | covered);
                }
                member_keys.sort_unstable();
                let mut h = StableHasher::new();
                h.write_u64(members.len() as u64);
                h.write_words(&member_keys);
                qsig.push(h.finish128());
            }
            // Per-prop signature: old color + sorted occurrence multiset.
            let mut psig = Vec::with_capacity(n);
            let mut occ_keys: Vec<(u64, u128)> = Vec::new();
            for p in 0..n {
                occ_keys.clear();
                for &(qi, bit) in &self.occ[self.occ_off[p]..self.occ_off[p + 1]] {
                    let covered = u64::from((self.q_covered[qi as usize] >> bit) & 1);
                    occ_keys.push((covered, qsig[qi as usize]));
                }
                occ_keys.sort_unstable();
                let mut h = StableHasher::new();
                h.write_u64(u64::from(colors[p]));
                for &(covered, sig) in &occ_keys {
                    h.write_u64(covered);
                    h.write_u64((sig >> 64) as u64);
                    h.write_u64(sig as u64);
                }
                psig.push(h.finish128());
            }
            let (next, next_distinct) = self.rerank(&psig);
            // The old color is part of the signature, so colors only ever
            // split; an unchanged class count means a fixpoint.
            if next_distinct == distinct {
                return Some((colors, distinct));
            }
            colors = next;
            distinct = next_distinct;
        }
    }

    /// Full canonical encoding of the instance under a discrete coloring
    /// (`colors` is a bijection local prop id → canonical id).
    fn encode(&mut self, colors: &[u32]) -> Option<Vec<u64>> {
        let mut words = Vec::new();
        words.push(self.n() as u64);
        words.push(self.m() as u64);
        words.push(self.kp as u64);
        // Queries: each rep = [len, canonical ids…, covered count,
        // covered canonical ids…]; the rep list is sorted so query order
        // never matters.
        let mut reps: Vec<Vec<u64>> = Vec::with_capacity(self.m());
        for (qi, members) in self.q_members.iter().enumerate() {
            let mut ids: Vec<u64> = members
                .iter()
                .map(|&p| u64::from(colors[p as usize]))
                .collect();
            let mut covered: Vec<u64> = members
                .iter()
                .enumerate()
                .filter(|&(bit, _)| (self.q_covered[qi] >> bit) & 1 == 1)
                .map(|(_, &p)| u64::from(colors[p as usize]))
                .collect();
            ids.sort_unstable();
            covered.sort_unstable();
            let mut rep = Vec::with_capacity(ids.len() + covered.len() + 2);
            rep.push(ids.len() as u64);
            rep.extend_from_slice(&ids);
            rep.push(covered.len() as u64);
            rep.extend_from_slice(&covered);
            reps.push(rep);
        }
        reps.sort_unstable();
        for rep in &reps {
            words.extend_from_slice(rep);
        }
        // Weight oracle: finite entries as sorted, deduplicated
        // [len, canonical ids…, weight] tuples. Shared classifiers
        // (reachable from several queries) collapse to one entry.
        let mut entries: Vec<Vec<u64>> = Vec::with_capacity(self.weights.len());
        for e in &self.weights {
            let members = &self.q_members[e.query as usize];
            let mut ids: Vec<u64> = members
                .iter()
                .enumerate()
                .filter(|&(bit, _)| (e.mask >> bit) & 1 == 1)
                .map(|(_, &p)| u64::from(colors[p as usize]))
                .collect();
            ids.sort_unstable();
            let mut entry = Vec::with_capacity(ids.len() + 2);
            entry.push(ids.len() as u64);
            entry.extend_from_slice(&ids);
            entry.push(e.weight_raw);
            entries.push(entry);
        }
        entries.sort_unstable();
        entries.dedup();
        words.push(entries.len() as u64);
        for entry in &entries {
            words.extend_from_slice(entry);
        }
        self.charge(words.len())?;
        Some(words)
    }

    /// Individualization-refinement search for the minimal leaf encoding.
    fn search(&mut self, colors: Vec<u32>, best: &mut Option<(Vec<u64>, Vec<u32>)>) -> Option<()> {
        let (colors, distinct) = self.refine(&colors)?;
        if distinct == self.n() {
            let enc = self.encode(&colors)?;
            let better = match best {
                Some((b, _)) => enc < *b,
                None => true,
            };
            if better {
                *best = Some((enc, colors));
            }
            return Some(());
        }
        // Target cell: the smallest color value with ≥ 2 members — an
        // isomorphism-invariant choice, since colors are ranked by
        // invariant signatures.
        let mut count = vec![0u32; distinct];
        for &c in &colors {
            count[c as usize] += 1;
        }
        let target = match count.iter().position(|&c| c >= 2) {
            Some(t) => u32_of(t),
            None => return Some(()), // unreachable: distinct < n implies a class ≥ 2
        };
        for p in 0..self.n() {
            if colors[p] != target {
                continue;
            }
            let branched: Vec<u32> = colors
                .iter()
                .enumerate()
                .map(|(i, &c)| c * 2 + u32::from(i != p))
                .collect();
            self.search(branched, best)?;
        }
        Some(())
    }
}

/// Canonicalizes a (sub-)instance given as `(query, covered_mask)` pairs
/// plus a weight oracle.
///
/// * `queries[qi].1` is a query-local bitmask (bit `i` = the `i`-th
///   smallest property of the query) of properties already covered —
///   pass `0` for a fresh instance.
/// * `kp` is the classifier length bound `k'` (`max_classifier_len`
///   clamped to the instance, or the max query length).
/// * `weight_of(qi, mask)` returns the construction cost of the
///   classifier `mask ⊆ queries[qi].0`; return [`Weight::INFINITE`] for
///   unavailable classifiers. The oracle must be consistent: a classifier
///   reachable from two queries must get one weight.
/// * `budget` bounds the total work (see [`DEFAULT_BUDGET`]); `None` is
///   returned when it is exhausted, which callers should treat as
///   "don't cache this one".
pub fn canonicalize(
    queries: &[(&Query, u32)],
    kp: usize,
    budget: usize,
    mut weight_of: impl FnMut(usize, u32) -> Weight,
) -> Option<Canonical> {
    let kp = kp.max(1);
    // Local prop table: sorted distinct PropIds.
    let mut props: Vec<PropId> = queries
        .iter()
        .flat_map(|(q, _)| q.ids().iter().copied())
        .collect();
    props.sort_unstable();
    props.dedup();
    let n = props.len();
    let m = queries.len();

    let local_of = |p: PropId| -> u32 {
        match props.binary_search(&p) {
            Ok(i) => u32_of(i),
            // audit:allow(no-unwrap-in-lib) props was built from these exact queries
            Err(_) => unreachable!("query property missing from the prop table"),
        }
    };

    let mut q_members: Vec<Vec<u32>> = Vec::with_capacity(m);
    let mut q_covered: Vec<u32> = Vec::with_capacity(m);
    for &(q, covered) in queries {
        let members: Vec<u32> = q.ids().iter().map(|&p| local_of(p)).collect();
        q_members.push(members);
        q_covered.push(covered);
    }

    // CSR incidence.
    let mut deg = vec![0usize; n];
    for members in &q_members {
        for &p in members {
            deg[p as usize] += 1;
        }
    }
    let mut occ_off = vec![0usize; n + 1];
    for i in 0..n {
        occ_off[i + 1] = occ_off[i] + deg[i];
    }
    let mut occ = vec![(0u32, 0u32); occ_off[n]];
    let mut cursor = occ_off.clone();
    for (qi, members) in q_members.iter().enumerate() {
        for (bit, &p) in members.iter().enumerate() {
            occ[cursor[p as usize]] = (u32_of(qi), u32_of(bit));
            cursor[p as usize] += 1;
        }
    }

    // Finite weight-oracle entries, plus per-prop singleton weights for
    // the initial coloring.
    let mut budget_left = budget;
    let mut weights = Vec::new();
    let mut singleton = vec![u64::MAX; n];
    for (qi, members) in q_members.iter().enumerate() {
        let len = members.len();
        if len >= 32 {
            // Query-local masks are u32; longer queries (beyond
            // MAX_QUERY_LEN anyway) are simply not canonicalized.
            return None;
        }
        let masks: u32 = 1u32 << len;
        if budget_left < masks as usize {
            return None;
        }
        budget_left -= masks as usize;
        for mask in 1..masks {
            if (mask.count_ones() as usize) > kp {
                continue;
            }
            let w = weight_of(qi, mask);
            if !w.is_finite() {
                continue;
            }
            if mask.count_ones() == 1 {
                let bit = mask.trailing_zeros() as usize;
                let p = members[bit] as usize;
                singleton[p] = singleton[p].min(w.raw());
            }
            weights.push(WeightEntry {
                query: u32_of(qi),
                mask,
                weight_raw: w.raw(),
            });
        }
    }

    let mut ctx = CanonCtx {
        props,
        q_members,
        q_covered: &q_covered,
        occ_off,
        occ,
        weights,
        kp,
        budget: budget_left,
    };

    // Initial invariant coloring: singleton weight, degree, shapes of the
    // containing queries.
    let mut init_keys = Vec::with_capacity(n);
    let mut shape: Vec<u64> = Vec::new();
    for p in 0..n {
        shape.clear();
        for &(qi, bit) in &ctx.occ[ctx.occ_off[p]..ctx.occ_off[p + 1]] {
            let covered = u64::from((q_covered[qi as usize] >> bit) & 1);
            let len = ctx.q_members[qi as usize].len() as u64;
            shape.push((len << 1) | covered);
        }
        shape.sort_unstable();
        let mut h = StableHasher::new();
        h.write_u64(singleton[p]);
        h.write_u64(deg[p] as u64);
        h.write_words(&shape);
        init_keys.push(h.finish128());
    }
    let (init_colors, _) = ctx.rerank(&init_keys);

    let mut best: Option<(Vec<u64>, Vec<u32>)> = None;
    ctx.search(init_colors, &mut best)?;
    let (encoding, colors) = best?;

    let mut from_canonical = vec![PropId(0); n];
    let mut to_canonical = Vec::with_capacity(n);
    for (p, &c) in colors.iter().enumerate() {
        from_canonical[c as usize] = ctx.props[p];
        to_canonical.push((ctx.props[p], c));
    }
    // ctx.props is sorted, so to_canonical is sorted by original id.
    Some(Canonical {
        fingerprint: stable_hash128(&encoding),
        from_canonical,
        to_canonical,
        encoding_words: encoding.len(),
    })
}

/// Canonicalizes a whole [`Instance`](crate::Instance): nothing covered,
/// `kp` = max query length, weights straight from the instance's weight
/// function.
pub fn canonicalize_instance(instance: &crate::Instance, budget: usize) -> Option<Canonical> {
    let queries: Vec<(&Query, u32)> = instance.queries().iter().map(|q| (q, 0u32)).collect();
    let kp = instance.max_query_len().max(1);
    canonicalize(&queries, kp, budget, |qi, mask| {
        let subset = instance.queries()[qi].subset_by_mask(mask);
        instance.weight(&subset)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{SliceRandom, StdRng};
    use crate::{Instance, PropSet, WeightsBuilder};

    #[test]
    fn write_bytes_matches_the_word_loop() {
        // The loop both cache keys used before `write_bytes` existed.
        fn reference(h: &mut StableHasher, bytes: &[u8]) {
            h.write_u64(bytes.len() as u64);
            let mut i = 0;
            while i < bytes.len() {
                let mut w = 0u64;
                for (shift, &b) in bytes[i..(i + 8).min(bytes.len())].iter().enumerate() {
                    w |= u64::from(b) << (8 * shift);
                }
                h.write_u64(w);
                i += 8;
            }
        }
        let data: Vec<u8> = (0u8..65).map(|b| b.wrapping_mul(37) ^ 0xa5).collect();
        for len in [0, 1, 7, 8, 9, 65] {
            let (mut a, mut b) = (StableHasher::new(), StableHasher::new());
            a.write_bytes(&data[..len]);
            reference(&mut b, &data[..len]);
            assert_eq!(a.finish128(), b.finish128(), "len {len}");
        }
        let (mut a, mut b) = (StableHasher::new(), StableHasher::new());
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish128(), b.finish128());
    }

    #[test]
    fn stable_hasher_is_deterministic_and_sensitive() {
        let a = stable_hash128(&[1, 2, 3]);
        assert_eq!(a, stable_hash128(&[1, 2, 3]));
        assert_ne!(a, stable_hash128(&[1, 2, 4]));
        assert_ne!(a, stable_hash128(&[1, 2, 3, 0])); // length-extension safe
        assert_ne!(stable_hash128(&[]), stable_hash128(&[0]));
    }

    #[test]
    fn stable_hasher_output_is_pinned() {
        // Guards the wire format: a change to the constants or the round
        // structure silently invalidates persisted fingerprints.
        assert_eq!(
            stable_hash128(&[0x6d63_33]),
            0x4209_99ac_130a_c85f_28f7_67b9_5700_a016
        );
    }

    /// The paper's Example 1.1 instance with props relabeled by `perm`.
    fn example_instance(perm: &[u32]) -> Instance {
        let p = |i: usize| PropId(perm[i]);
        let (j, w, a, c) = (p(0), p(1), p(2), p(3));
        let weights = WeightsBuilder::new()
            .classifier([c], 5u64)
            .classifier([a], 5u64)
            .classifier([j], 5u64)
            .classifier([w], 1u64)
            .classifier([a, c], 3u64)
            .classifier([a, w], 5u64)
            .classifier([a, j], 3u64)
            .classifier([j, w], 4u64)
            .classifier([j, a, w], 5u64)
            .build();
        // audit:allow(no-unwrap-in-lib) test-only construction
        Instance::new(vec![vec![j, w, a], vec![c, a]], weights).unwrap()
    }

    #[test]
    fn relabeling_preserves_the_fingerprint() {
        let base = canonicalize_instance(&example_instance(&[0, 1, 2, 3]), DEFAULT_BUDGET)
            .expect("canonicalizes");
        for perm in [[3, 1, 0, 2], [7, 5, 9, 2], [1, 0, 3, 2]] {
            let other = canonicalize_instance(&example_instance(&perm), DEFAULT_BUDGET)
                .expect("canonicalizes");
            assert_eq!(base.fingerprint(), other.fingerprint(), "perm {perm:?}");
        }
    }

    #[test]
    fn relabeling_is_invariant_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(0xCA_F0);
        for case in 0..25u64 {
            let mut rng2 = StdRng::seed_from_u64(case);
            let n_props = 6 + (case % 5) as u32;
            let queries: Vec<Vec<PropId>> = (0..4 + case % 4)
                .map(|_| {
                    let len = rng2.gen_range(1..=4usize);
                    let mut ids: Vec<u32> = (0..n_props).collect();
                    ids.shuffle(&mut rng2);
                    let mut q: Vec<PropId> = ids[..len.min(ids.len())]
                        .iter()
                        .map(|&i| PropId(i))
                        .collect();
                    q.sort_unstable();
                    q
                })
                .collect();
            let seed_weights = crate::Weights::seeded(case.wrapping_mul(7), 1, 40);
            let instance = Instance::from_propsets(
                queries
                    .iter()
                    .map(|q| PropSet::from_ids(q.iter().copied()))
                    .collect(),
                seed_weights.clone(),
            )
            .expect("valid instance");
            // Random relabeling π and π-transported weights.
            let mut perm: Vec<u32> = (0..n_props).collect();
            perm.shuffle(&mut rng);
            let inv: Vec<u32> = {
                let mut inv = vec![0u32; n_props as usize];
                for (i, &p) in perm.iter().enumerate() {
                    inv[p as usize] = u32_of(i);
                }
                inv
            };
            let permuted_queries: Vec<PropSet> = queries
                .iter()
                .map(|q| PropSet::from_ids(q.iter().map(|p| PropId(perm[p.index()]))))
                .collect();
            let back =
                move |s: &PropSet| PropSet::from_ids(s.iter().map(|p| PropId(inv[p.index()])));
            let transported = crate::Weights::custom(move |s| seed_weights.weight(&back(s)));
            let permuted =
                Instance::from_propsets(permuted_queries, transported).expect("valid instance");

            let a = canonicalize_instance(&instance, DEFAULT_BUDGET);
            let b = canonicalize_instance(&permuted, DEFAULT_BUDGET);
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.fingerprint(), b.fingerprint(), "case {case}");
                    // Both relabelings are bijections over the same id count.
                    assert_eq!(a.num_props(), b.num_props());
                }
                (None, None) => {} // budget abort must be symmetric
                _ => panic!("case {case}: budget abort was not isomorphism-invariant"),
            }
        }
    }

    #[test]
    fn covered_masks_and_weights_change_the_fingerprint() {
        let instance = example_instance(&[0, 1, 2, 3]);
        let queries: Vec<(&Query, u32)> = instance.queries().iter().map(|q| (q, 0u32)).collect();
        let kp = instance.max_query_len();
        let w =
            |qi: usize, mask: u32| instance.weight(&instance.queries()[qi].subset_by_mask(mask));
        let base = canonicalize(&queries, kp, DEFAULT_BUDGET, w).expect("canonicalizes");

        // Mark one property of query 0 as covered.
        let covered: Vec<(&Query, u32)> = instance
            .queries()
            .iter()
            .enumerate()
            .map(|(i, q)| (q, u32::from(i == 0)))
            .collect();
        let c = canonicalize(&covered, kp, DEFAULT_BUDGET, w).expect("canonicalizes");
        assert_ne!(base.fingerprint(), c.fingerprint());

        // Bump one classifier weight.
        let w2 = |qi: usize, mask: u32| {
            let w = w(qi, mask);
            if qi == 0 && mask == 0b1 {
                w.saturating_add(crate::Weight::new(1))
            } else {
                w
            }
        };
        let bumped = canonicalize(&queries, kp, DEFAULT_BUDGET, w2).expect("canonicalizes");
        assert_ne!(base.fingerprint(), bumped.fingerprint());

        // Duplicate queries are part of the form.
        let doubled: Vec<(&Query, u32)> = instance
            .queries()
            .iter()
            .chain(instance.queries().iter())
            .map(|q| (q, 0u32))
            .collect();
        let d = canonicalize(&doubled, kp, DEFAULT_BUDGET, |qi, mask| {
            w(qi % instance.num_queries(), mask)
        })
        .expect("canonicalizes");
        assert_ne!(base.fingerprint(), d.fingerprint());
    }

    #[test]
    fn remap_tables_are_inverse_bijections() {
        let instance = example_instance(&[4, 9, 2, 7]);
        let canon = canonicalize_instance(&instance, DEFAULT_BUDGET).expect("canonicalizes");
        assert_eq!(canon.num_props(), 4);
        for c in 0..4u32 {
            let p = canon.original_of(c).expect("in range");
            assert_eq!(canon.canonical_of(p), Some(c));
        }
        assert_eq!(canon.original_of(4), None);
        assert_eq!(canon.canonical_of(PropId(1000)), None);
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let instance = example_instance(&[0, 1, 2, 3]);
        assert!(canonicalize_instance(&instance, 3).is_none());
    }
}

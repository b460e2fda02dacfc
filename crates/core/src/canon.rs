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
//! structure, seeded with invariant per-property keys (the sorted
//! multiset of `(size, weight)` over the finite weight entries holding
//! the property, degree, containing-query shapes), followed by
//! individualization-refinement search: while the coloring is not
//! discrete, the first non-singleton color class is split by
//! individualizing each of its members in turn, and the
//! lexicographically minimal leaf encoding wins. Both the refinement and
//! the target-cell rule are isomorphism-invariant, so relabeled
//! instances produce the same encoding (Theorem: the leaf set of the
//! search tree is invariant; we take its minimum). Of several leaves
//! with the minimal encoding, the first in search order gives the
//! relabeling.
//!
//! The seed carries the weights of multi-property classifiers, not just
//! singleton weights: with distinct costs, properties that the
//! incidence alone cannot tell apart start in different colors, and the
//! search does not branch over them. The refinement itself stays on the
//! incidence; the seed's colors persist into every search node.
//!
//! Everything lives in flat buffers that a [`Canonicalizer`] keeps from
//! call to call: query members in CSR form, the weight entries'
//! properties in one array, one coloring per search depth, and the
//! refinement signatures, the leaf encoding and its records in scratch
//! that every round and every leaf reuses. The seed's `(size, weight)`
//! pairs are bucketed per property by a counting pass. A singleton classifier that a later query reports
//! again at the same weight counts in the seed but adds no record to the
//! encoding, which keeps one per distinct entry. A leaf's records (query
//! reps and weight entries) are written to one arena and sorted by a
//! packed prefix key, falling back to their words only on equal keys.
//! Refinement returns at once on a discrete coloring, which no round can
//! split.
//!
//! The search prunes subtrees that are automorphic images of subtrees
//! explored earlier (McKay & Piperno, "Practical graph isomorphism,
//! II", 2014). A later leaf whose encoding equals the first leaf's
//! yields γ = (its labeling)⁻¹ ∘ (the first leaf's), an automorphism
//! once it is also checked to preserve the seed coloring, which the
//! encoding does not carry. With `d` the length of the path prefix
//! shared with the first leaf, the search abandons the current subtree
//! back to depth `d` only after checking that γ fixes that prefix
//! pointwise and maps the first path's next property to this path's.
//! Every pruned leaf has a leaf of equal encoding earlier in search
//! order, so the first minimal leaf, and with it the relabeling, is the
//! one the unpruned search returns. On a fully symmetric query of
//! length `n` this leaves one leaf per first-path node and child,
//! `1 + n(n - 1)/2` in all, instead of `n!`.
//!
//! The search carries a **work budget**; pathologically symmetric
//! instances exhaust it and [`canonicalize`] returns `None` (callers
//! simply skip caching). Pruning only removes work, so whatever the
//! unpruned search canonicalizes within a budget still canonicalizes,
//! with the same output. How much pruning saves depends on the order in
//! which automorphisms turn up, and that follows the order of the local
//! property ids, so near the budget one relabeling of an instance may
//! canonicalize while another aborts. An abort costs only a cache miss:
//! that component is solved uncached.
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

/// One finite weight-oracle entry: its properties (local ids, ascending)
/// are `entry_props[start..start + len]`.
struct WeightEntry {
    start: u32,
    len: u32,
    weight_raw: u64,
    /// A singleton already reported, at the same weight, from an earlier
    /// query: the seed counts it, the encoding keeps one record.
    repeat: bool,
}

/// What a finished search node tells its parent.
enum Step {
    /// Go on with the next child.
    Next,
    /// Abandon every node deeper than this depth: the rest of the
    /// current subtree there is an automorphic image of one explored
    /// earlier.
    Backjump(usize),
}

/// A leaf kept for comparison: its encoding and its discrete coloring.
#[derive(Default)]
struct Leaf {
    words: Vec<u64>,
    colors: Vec<u32>,
}

/// One encoding record, `arena[start..start + len]`, with a key whose
/// order agrees with the lexicographic order of the words.
///
/// The key packs the leading words most significant first, each in a
/// fixed-width field — lengths and counts 8 bits, canonical ids
/// [`CanonCtx::id_bits`], weights 64 — for as long as they fit in 128
/// bits. A field's position depends only on the words before it (a
/// length or count fixes how many ids follow), so two records compare
/// field by field. When the whole record fits (`complete`), equal keys
/// mean equal words; otherwise equal keys fall back to the words.
#[derive(Clone, Copy)]
struct Rec {
    key: u128,
    start: u32,
    len: u32,
    complete: bool,
}

/// Builds a [`Rec`] key field by field.
struct KeyPacker {
    key: u128,
    free: u32,
    complete: bool,
}

impl KeyPacker {
    fn new() -> Self {
        KeyPacker {
            key: 0,
            free: 128,
            complete: true,
        }
    }

    /// Appends `word` in a `bits`-wide field (`word < 2^bits`).
    fn push(&mut self, word: u64, bits: u32) {
        if self.complete && bits <= self.free {
            self.free -= bits;
            self.key |= u128::from(word) << self.free;
        } else {
            self.complete = false;
        }
    }

    fn push_ids(&mut self, ids: &[u64], bits: u32) {
        for &id in ids {
            self.push(id, bits);
        }
    }

    /// The record `arena[start..]`.
    fn finish(self, arena: &[u64], start: usize) -> Rec {
        Rec {
            key: self.key,
            start: u32_of(start),
            len: u32_of(arena.len() - start),
            complete: self.complete,
        }
    }
}

/// Sorts records into the lexicographic order of their words: by key,
/// then runs of equal keys that do not hold their whole record by words.
fn sort_recs(recs: &mut [Rec], arena: &[u64]) {
    recs.sort_unstable_by_key(|r| r.key);
    for run in recs.chunk_by_mut(|a, b| a.key == b.key) {
        if run.len() > 1 && !run[0].complete {
            run.sort_unstable_by_key(|r| &arena[r.start as usize..(r.start + r.len) as usize]);
        }
    }
}

/// Iterates the set bits of `mask`, ascending.
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// Buffers reused by every refinement round and every leaf of one call.
#[derive(Default)]
struct Scratch {
    qsig: Vec<u128>,
    psig: Vec<u128>,
    words: Vec<u64>,
    occ_keys: Vec<(u64, u128)>,
    order: Vec<(u128, u32)>,
    next: Vec<u32>,
    count: Vec<u32>,
    arena: Vec<u64>,
    recs: Vec<Rec>,
    leaf: Vec<u64>,
    inverse: Vec<u32>,
}

/// Everything precomputed once per [`canonicalize`] call, plus the search
/// state. Every buffer is cleared and refilled by [`CanonCtx::run`], so one
/// context serves call after call (see [`Canonicalizer`]).
#[derive(Default)]
struct CanonCtx {
    /// Number of distinct properties; local prop ids are `0..n`.
    n: usize,
    /// Classifier length bound `k'`.
    kp: usize,
    /// Width of a canonical id in a [`Rec`] key.
    id_bits: u32,
    /// The sorted, distinct original ids; local prop `i` is `props[i]`.
    props: Vec<PropId>,
    /// CSR query members: query `qi` holds the local prop ids
    /// `members[q_off[qi]..q_off[qi + 1]]`, ascending.
    q_off: Vec<usize>,
    members: Vec<u32>,
    /// Per query: covered mask in query-local bit positions.
    q_covered: Vec<u32>,
    /// CSR incidence: for local prop `i`, `occ[occ_off[i]..occ_off[i+1]]`
    /// is its `(query index, bit position within query)` occurrences.
    occ_off: Vec<usize>,
    occ: Vec<(u32, u32)>,
    /// Finite weight-oracle entries, grouped by query, ascending mask,
    /// and their properties.
    weights: Vec<WeightEntry>,
    entry_props: Vec<u32>,
    /// Per local prop: the raw weight of its singleton entry so far.
    singleton: Vec<u64>,
    /// CSR of each prop's `(entry size, weight)` pairs, for the seed.
    entry_off: Vec<usize>,
    prop_entries: Vec<(u64, u64)>,
    /// The seed coloring; a derived automorphism must preserve it.
    seed: Vec<u32>,
    /// Remaining work units; `None` from any step once exhausted.
    budget: usize,
    /// The coloring of the search node at depth `d` is
    /// `levels[d * n..(d + 1) * n]`.
    levels: Vec<u32>,
    /// `path[d]`: the property individualized below depth `d` on the
    /// current path.
    path: Vec<u32>,
    /// The first leaf found, and the properties individualized on the
    /// way to it; later leaves with its encoding yield automorphisms.
    first: Leaf,
    first_path: Vec<u32>,
    /// The first leaf with the minimal encoding so far, once one beats
    /// `first` (`has_best`).
    best: Leaf,
    has_best: bool,
    s: Scratch,
}

/// Re-ranks per-prop keys into dense colors `0..distinct`, ordered by key
/// value, written to `out`. Returns `distinct`.
fn rerank(keys: &[u128], order: &mut Vec<(u128, u32)>, out: &mut Vec<u32>) -> usize {
    order.clear();
    order.extend(keys.iter().enumerate().map(|(i, &k)| (k, u32_of(i))));
    order.sort_unstable();
    out.clear();
    out.resize(keys.len(), 0);
    let mut distinct = 0usize;
    let mut prev: Option<u128> = None;
    for &(k, i) in order.iter() {
        if prev != Some(k) {
            distinct += 1;
            prev = Some(k);
        }
        out[i as usize] = u32_of(distinct - 1);
    }
    distinct
}

/// Fills a CSR table from `(key, item)` pairs: every iterator `emit`
/// returns yields the same sequence, and afterwards key `k`'s items, in
/// that order, are `items[off[k]..off[k + 1]]`. `off` holds one zeroed
/// slot per key plus one, `items` one slot per item.
fn csr_fill<T: Copy, I: Iterator<Item = (u32, T)>>(
    off: &mut [usize],
    items: &mut [T],
    emit: impl Fn() -> I,
) {
    for (k, _) in emit() {
        off[k as usize + 1] += 1;
    }
    for k in 1..off.len() {
        off[k] += off[k - 1];
    }
    // Shifted one slot right, off[k + 1] is key k's start: fill with it
    // as the cursor, and it ends at key k's end.
    off.copy_within(..off.len() - 1, 1);
    for (k, item) in emit() {
        let at = &mut off[k as usize + 1];
        items[*at] = item;
        *at += 1;
    }
}

impl CanonCtx {
    fn m(&self) -> usize {
        self.q_covered.len()
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

    /// Color refinement to a fixpoint, in place on the dense coloring of
    /// the node at `depth` with `distinct` classes; returns the class
    /// count. A discrete coloring cannot split, so it returns at once.
    fn refine(&mut self, depth: usize, mut distinct: usize) -> Option<usize> {
        let (n, m) = (self.n, self.m());
        let base = depth * n;
        while distinct < n {
            self.charge(n + m + self.occ.len())?;
            let colors = &self.levels[base..base + n];
            let s = &mut self.s;
            // Per-query signature over member colors + covered flags.
            s.qsig.clear();
            for qi in 0..m {
                let members = &self.members[self.q_off[qi]..self.q_off[qi + 1]];
                let covered = self.q_covered[qi];
                s.words.clear();
                for (bit, &p) in members.iter().enumerate() {
                    let flag = u64::from((covered >> bit) & 1);
                    s.words.push((u64::from(colors[p as usize]) << 1) | flag);
                }
                s.words.sort_unstable();
                let mut h = StableHasher::new();
                h.write_u64(members.len() as u64);
                h.write_words(&s.words);
                s.qsig.push(h.finish128());
            }
            // Per-prop signature: old color + sorted occurrence multiset.
            s.psig.clear();
            for (p, &color) in colors.iter().enumerate() {
                s.occ_keys.clear();
                for &(qi, bit) in &self.occ[self.occ_off[p]..self.occ_off[p + 1]] {
                    let flag = u64::from((self.q_covered[qi as usize] >> bit) & 1);
                    s.occ_keys.push((flag, s.qsig[qi as usize]));
                }
                s.occ_keys.sort_unstable();
                let mut h = StableHasher::new();
                h.write_u64(u64::from(color));
                for &(flag, sig) in &s.occ_keys {
                    h.write_u64(flag);
                    h.write_u64((sig >> 64) as u64);
                    h.write_u64(sig as u64);
                }
                s.psig.push(h.finish128());
            }
            let next_distinct = rerank(&s.psig, &mut s.order, &mut s.next);
            // The old color is part of the signature, so colors only ever
            // split; an unchanged class count means a fixpoint, and the
            // coloring in place stands.
            if next_distinct == distinct {
                break;
            }
            self.levels[base..base + n].copy_from_slice(&self.s.next);
            distinct = next_distinct;
        }
        Some(distinct)
    }

    /// Writes the full canonical encoding of the instance under the
    /// discrete coloring at `depth` (a bijection local prop id →
    /// canonical id) to `self.s.leaf`.
    fn encode(&mut self, depth: usize) -> Option<()> {
        let (n, id_bits) = (self.n, self.id_bits);
        let colors = &self.levels[depth * n..(depth + 1) * n];
        let s = &mut self.s;
        s.leaf.clear();
        s.leaf.push(n as u64);
        s.leaf.push(self.q_covered.len() as u64);
        s.leaf.push(self.kp as u64);
        // Queries: each rep = [len, canonical ids…, covered count,
        // covered canonical ids…]; the rep list is sorted so query order
        // never matters.
        s.arena.clear();
        s.recs.clear();
        for (qi, &covered) in self.q_covered.iter().enumerate() {
            let members = &self.members[self.q_off[qi]..self.q_off[qi + 1]];
            let start = s.arena.len();
            s.arena.push(members.len() as u64);
            s.arena
                .extend(members.iter().map(|&p| u64::from(colors[p as usize])));
            s.arena[start + 1..].sort_unstable();
            let count_at = s.arena.len();
            s.arena.push(u64::from(covered.count_ones()));
            s.arena
                .extend(bits(covered).map(|bit| u64::from(colors[members[bit] as usize])));
            s.arena[count_at + 1..].sort_unstable();
            let mut key = KeyPacker::new();
            key.push(s.arena[start], 8);
            key.push_ids(&s.arena[start + 1..count_at], id_bits);
            key.push(s.arena[count_at], 8);
            key.push_ids(&s.arena[count_at + 1..], id_bits);
            s.recs.push(key.finish(&s.arena, start));
        }
        sort_recs(&mut s.recs, &s.arena);
        for r in &s.recs {
            s.leaf
                .extend_from_slice(&s.arena[r.start as usize..(r.start + r.len) as usize]);
        }
        // Weight oracle: finite entries as sorted, deduplicated
        // [len, canonical ids…, weight] records. Shared classifiers
        // (reachable from several queries) collapse to one entry.
        s.arena.clear();
        s.recs.clear();
        for e in &self.weights {
            let props = &self.entry_props[e.start as usize..(e.start + e.len) as usize];
            let start = s.arena.len();
            s.arena.push(props.len() as u64);
            s.arena
                .extend(props.iter().map(|&p| u64::from(colors[p as usize])));
            s.arena[start + 1..].sort_unstable();
            s.arena.push(e.weight_raw);
            let mut key = KeyPacker::new();
            key.push(s.arena[start], 8);
            key.push_ids(&s.arena[start + 1..start + 1 + props.len()], id_bits);
            key.push(e.weight_raw, 64);
            s.recs.push(key.finish(&s.arena, start));
        }
        sort_recs(&mut s.recs, &s.arena);
        let arena = &s.arena;
        let words = |r: &Rec| &arena[r.start as usize..(r.start + r.len) as usize];
        s.recs
            .dedup_by(|a, b| a.key == b.key && (a.complete || words(a) == words(b)));
        s.leaf.push(s.recs.len() as u64);
        for r in &s.recs {
            s.leaf.extend_from_slice(words(r));
        }
        let len = s.leaf.len();
        self.charge(len)
    }

    /// A leaf at `depth`: encode it, keep it if it beats the best, and
    /// when it repeats the first leaf's encoding derive the automorphism
    /// γ (first labeling → this one) and prune with it.
    fn leaf(&mut self, depth: usize) -> Option<Step> {
        self.encode(depth)?;
        let n = self.n;
        let colors = &self.levels[depth * n..(depth + 1) * n];
        if self.first.words.is_empty() {
            self.first.words.extend_from_slice(&self.s.leaf);
            self.first.colors.extend_from_slice(colors);
            self.first_path.extend_from_slice(&self.path);
            return Some(Step::Next);
        }
        if self.s.leaf < self.best_leaf().words {
            self.has_best = true;
            self.best.words.clone_from(&self.s.leaf);
            self.best.colors.clear();
            self.best.colors.extend_from_slice(colors);
            return Some(Step::Next);
        }
        if self.s.leaf != self.first.words {
            return Some(Step::Next);
        }
        // Equal encodings: γ = λ⁻¹ ∘ λ_first maps the instance onto
        // itself. The search also depends on the seed, which the
        // encoding does not carry, so γ must preserve it too.
        let inverse = &mut self.s.inverse;
        inverse.clear();
        inverse.resize(n, 0);
        for (q, &c) in colors.iter().enumerate() {
            inverse[c as usize] = u32_of(q);
        }
        let inverse = &self.s.inverse;
        let first_colors = &self.first.colors;
        let g = |p: u32| inverse[first_colors[p as usize] as usize];
        if (0..u32_of(n)).any(|p| self.seed[g(p) as usize] != self.seed[p as usize]) {
            return Some(Step::Next);
        }
        // γ maps the first path's node at depth d + 1 onto this path's
        // only if it fixes the shared prefix pointwise and maps the first
        // path's next property to this path's; then everything left
        // below this path's node at d + 1 is an image of the first
        // path's subtree there, explored already.
        let first = &self.first_path;
        let d = first
            .iter()
            .zip(&self.path)
            .take_while(|(a, b)| a == b)
            .count();
        let fixes_prefix = first[..d].iter().all(|&v| g(v) == v);
        match (first.get(d), self.path.get(d)) {
            (Some(&v), Some(&w)) if fixes_prefix && g(v) == w => Some(Step::Backjump(d)),
            _ => Some(Step::Next),
        }
    }

    /// Individualization-refinement search below the node at `depth`,
    /// whose dense coloring with `distinct` classes sits in `levels`.
    fn search(&mut self, depth: usize, distinct: usize) -> Option<Step> {
        let n = self.n;
        let distinct = self.refine(depth, distinct)?;
        if distinct == n {
            return self.leaf(depth);
        }
        let base = depth * n;
        // Target cell: the smallest color value with ≥ 2 members — an
        // isomorphism-invariant choice, since colors are ranked by
        // invariant signatures.
        self.s.count.clear();
        self.s.count.resize(distinct, 0);
        for &c in &self.levels[base..base + n] {
            self.s.count[c as usize] += 1;
        }
        let target = match self.s.count.iter().position(|&c| c >= 2) {
            Some(t) => u32_of(t),
            None => return Some(Step::Next), // unreachable: distinct < n implies a class ≥ 2
        };
        if self.levels.len() < base + 2 * n {
            self.levels.resize(base + 2 * n, 0);
        }
        for p in 0..n {
            if self.levels[base + p] != target {
                continue;
            }
            // Individualize p: it keeps the target's rank, the rest of
            // its cell moves one up, and so does every later class.
            let (parent, child) = self.levels[base..base + 2 * n].split_at_mut(n);
            for (i, (&c, out)) in parent.iter().zip(child.iter_mut()).enumerate() {
                *out = match c.cmp(&target) {
                    std::cmp::Ordering::Less => c,
                    std::cmp::Ordering::Equal if i == p => c,
                    _ => c + 1,
                };
            }
            self.path.truncate(depth);
            self.path.push(u32_of(p));
            let step = self.search(depth + 1, distinct + 1)?;
            if let Step::Backjump(d) = step {
                if d < depth {
                    return Some(step);
                }
            }
        }
        Some(Step::Next)
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
    weight_of: impl FnMut(usize, u32) -> Weight,
) -> Option<Canonical> {
    Canonicalizer::default().canonicalize(queries, kp, budget, weight_of)
}

/// Buffers that [`Canonicalizer::canonicalize`] reuses from one call to
/// the next, so a caller canonicalizing many components (one solve's
/// cache lookups) allocates them once. A fresh one per call is what
/// [`canonicalize`] does; the output is the same either way.
#[derive(Default)]
pub struct Canonicalizer {
    ctx: CanonCtx,
}

impl std::fmt::Debug for Canonicalizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Canonicalizer").finish_non_exhaustive()
    }
}

impl Canonicalizer {
    /// [`canonicalize`] on this canonicalizer's buffers.
    pub fn canonicalize(
        &mut self,
        queries: &[(&Query, u32)],
        kp: usize,
        budget: usize,
        weight_of: impl FnMut(usize, u32) -> Weight,
    ) -> Option<Canonical> {
        self.ctx.run(queries, kp, budget, weight_of)
    }
}

impl CanonCtx {
    /// One [`canonicalize`] call on this context's buffers.
    fn run(
        &mut self,
        queries: &[(&Query, u32)],
        kp: usize,
        budget: usize,
        mut weight_of: impl FnMut(usize, u32) -> Weight,
    ) -> Option<Canonical> {
        let kp = kp.max(1);
        let m = queries.len();
        // Query-local masks are u32; longer queries (beyond MAX_QUERY_LEN
        // anyway) are simply not canonicalized. Each query's masks are
        // charged up front.
        let mut budget_left = budget;
        for (q, _) in queries {
            let len = q.len();
            if len >= 32 || budget_left < 1usize << len {
                return None;
            }
            budget_left -= 1usize << len;
        }

        // Local prop table: sorted distinct PropIds.
        let total_len: usize = queries.iter().map(|(q, _)| q.len()).sum();
        let props = &mut self.props;
        props.clear();
        for (q, _) in queries {
            props.extend_from_slice(q.ids());
        }
        props.sort_unstable();
        props.dedup();
        let n = props.len();

        let local_of = |p: PropId| -> u32 {
            match props.binary_search(&p) {
                Ok(i) => u32_of(i),
                // audit:allow(no-unwrap-in-lib) props was built from these exact queries
                Err(_) => unreachable!("query property missing from the prop table"),
            }
        };

        let (q_off, members, q_covered) = (&mut self.q_off, &mut self.members, &mut self.q_covered);
        q_off.clear();
        members.clear();
        q_covered.clear();
        q_off.push(0);
        for &(q, covered) in queries {
            members.extend(q.ids().iter().map(|&p| local_of(p)));
            q_off.push(members.len());
            // Bits at or past the query's length name no member.
            let covered = covered & ((1u32 << q.len()) - 1);
            q_covered.push(covered);
        }
        let (q_off, members, q_covered) = (&self.q_off, &self.members, &self.q_covered);

        // CSR incidence.
        refill(&mut self.occ_off, n + 1, 0);
        refill(&mut self.occ, total_len, (0, 0));
        csr_fill(&mut self.occ_off, &mut self.occ, || {
            (0..m).flat_map(|qi| {
                let query = &members[q_off[qi]..q_off[qi + 1]];
                (0..query.len()).map(move |bit| (query[bit], (u32_of(qi), u32_of(bit))))
            })
        });

        // Finite weight-oracle entries.
        let (weights, entry_props) = (&mut self.weights, &mut self.entry_props);
        weights.clear();
        entry_props.clear();
        refill(&mut self.singleton, n, Weight::INFINITE.raw());
        for qi in 0..m {
            let query = &members[q_off[qi]..q_off[qi + 1]];
            for mask in 1..1u32 << query.len() {
                if (mask.count_ones() as usize) > kp {
                    continue;
                }
                let w = weight_of(qi, mask);
                if !w.is_finite() {
                    continue;
                }
                let start = entry_props.len();
                entry_props.extend(bits(mask).map(|bit| query[bit]));
                let mut repeat = false;
                if let [p] = entry_props[start..] {
                    repeat = self.singleton[p as usize] == w.raw();
                    self.singleton[p as usize] = w.raw();
                }
                weights.push(WeightEntry {
                    start: u32_of(start),
                    len: mask.count_ones(),
                    weight_raw: w.raw(),
                    repeat,
                });
            }
        }
        let (weights, entry_props) = (&self.weights, &self.entry_props);

        // Each prop's `(entry size, weight)` pairs over the finite entries
        // holding it, bucketed by prop with a counting pass.
        refill(&mut self.entry_off, n + 1, 0);
        refill(&mut self.prop_entries, entry_props.len(), (0, 0));
        csr_fill(&mut self.entry_off, &mut self.prop_entries, || {
            weights.iter().flat_map(|e| {
                let pair = (u64::from(e.len), e.weight_raw);
                entry_props[e.start as usize..(e.start + e.len) as usize]
                    .iter()
                    .map(move |&p| (p, pair))
            })
        });

        // Initial invariant coloring: sizes and weights of the finite
        // entries holding the prop, degree, shapes of the containing
        // queries.
        let s = &mut self.s;
        s.psig.clear();
        for p in 0..n {
            let bucket = &mut self.prop_entries[self.entry_off[p]..self.entry_off[p + 1]];
            bucket.sort_unstable();
            let occurrences = &self.occ[self.occ_off[p]..self.occ_off[p + 1]];
            s.words.clear();
            for &(qi, bit) in occurrences {
                let qi = qi as usize;
                let covered = u64::from((q_covered[qi] >> bit) & 1);
                let len = (q_off[qi + 1] - q_off[qi]) as u64;
                s.words.push((len << 1) | covered);
            }
            s.words.sort_unstable();
            let mut h = StableHasher::new();
            h.write_u64(bucket.len() as u64);
            for &(size, weight_raw) in bucket.iter() {
                h.write_u64(size);
                h.write_u64(weight_raw);
            }
            h.write_u64(occurrences.len() as u64);
            h.write_words(&s.words);
            s.psig.push(h.finish128());
        }
        let distinct = rerank(&s.psig, &mut s.order, &mut self.seed);

        self.weights.retain(|e| !e.repeat);
        // Before deduplication every leaf's encoding has the same length,
        // so its buffers are sized once for the whole search.
        let covered: usize = q_covered.iter().map(|c| c.count_ones() as usize).sum();
        let rep_words = 2 * m + total_len + covered;
        let entry_words: usize = self.weights.iter().map(|e| e.len as usize + 2).sum();
        s.leaf.reserve(4 + rep_words + entry_words);
        s.arena.reserve(rep_words.max(entry_words));
        s.recs.reserve(m.max(self.weights.len()));

        self.n = n;
        self.kp = kp;
        self.id_bits = if n <= 1 << 16 { 16 } else { 32 };
        self.budget = budget_left;
        self.levels.clear();
        self.levels.extend_from_slice(&self.seed);
        self.path.clear();
        self.first.words.clear();
        self.first.colors.clear();
        self.first_path.clear();
        self.has_best = false;
        self.search(0, distinct)?;
        let best = self.best_leaf();

        let mut from_canonical = vec![PropId(0); n];
        let mut to_canonical = Vec::with_capacity(n);
        for (p, &c) in best.colors.iter().enumerate() {
            from_canonical[c as usize] = self.props[p];
            to_canonical.push((self.props[p], c));
        }
        // props is sorted, so to_canonical is sorted by original id.
        Some(Canonical {
            fingerprint: stable_hash128(&best.words),
            from_canonical,
            to_canonical,
        })
    }

    /// The first leaf with the minimal encoding found so far.
    fn best_leaf(&self) -> &Leaf {
        if self.has_best {
            &self.best
        } else {
            &self.first
        }
    }
}

/// Clears `v` and fills it with `len` copies of `value`.
fn refill<T: Copy>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
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
            let (a, b) = match (a, b) {
                (Some(a), Some(b)) => (a, b),
                (None, None) => continue,
                // Automorphism pruning walks a different tree per labelling,
                // so one side may abort alone; at 4x the budget both finish.
                _ => {
                    let retry = |i: &Instance| {
                        canonicalize_instance(i, 4 * DEFAULT_BUDGET)
                            .unwrap_or_else(|| panic!("case {case}: aborts at 4x the budget"))
                    };
                    (retry(&instance), retry(&permuted))
                }
            };
            assert_eq!(a.fingerprint(), b.fingerprint(), "case {case}");
            // Both relabelings are bijections over the same id count.
            assert_eq!(a.num_props(), b.num_props());
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

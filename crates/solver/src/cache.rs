//! Cross-request memoization of per-component solves.
//!
//! Observation 3.2 makes the connected component the unit of solver
//! work, and serving traffic replays structurally identical components
//! constantly (same workload generators, same seeds, shared catalog
//! shapes). [`SolveCache`] memoizes component solutions keyed by the
//! [`mc3_core::canon`] canonical fingerprint, so a repeated component
//! costs one canonicalization + hash lookup instead of a reduction and
//! a WSC solve.
//!
//! # Safety model
//!
//! A cache hit is never trusted blindly: the cached solution (stored in
//! *canonical* property ids) is remapped through the current
//! component's relabeling and then re-verified against the live
//! [`WorkState`] — every classifier must still exist, be usable, sum to
//! the cached cost, and the remapped masks must cover every residual
//! query (the mask-level equivalent of the `mc3-core::cover` check,
//! extended to partially covered queries). Any mismatch — a fingerprint
//! collision, an entry corrupted by a bug, a weight drift — degrades to
//! a miss and evicts the entry; the solver then solves the component
//! from scratch. A corrupted cache can cost time, never correctness.
//!
//! # Concurrency and accounting
//!
//! The cache is lock-striped into 16 shards selected by key bits, so
//! concurrent solves (the server's requests) rarely contend. Each
//! shard is a mutex around a [`ByteLru`] with a sixteenth of the
//! capacity as its byte budget; entry sizes are estimated from their set
//! payloads. The only other shared state is the doorkeeper's tags (see
//! "Admission"). [`SolveCache::stats`] sums the shards' occupancy
//! (entries and resident bytes). Hits, negative hits, misses, first
//! sightings and evictions are kept nowhere in the cache: each is one
//! `mc3-telemetry` counter increment (`cache_hits`/`cache_negative_hits`/
//! `cache_misses`/`cache_first_sightings`/`cache_evictions`) in the span
//! that observed it, which takes no lock and surfaces as the
//! `mc3_cache_*` Prometheus families in `mc3 serve`. The `cache.consult`
//! span counts and times every lookup. Components that never reach a
//! lookup because canonicalization ran out of budget are counted as
//! `canon_budget_exhausted`.
//!
//! # Admission
//!
//! On cold traffic almost no component repeats, yet canonicalizing one
//! costs about as much as a WSC solve of it. So a component is only
//! fingerprinted from its second sighting on, as in TinyLFU's doorkeeper
//! (Einziger, Friedman & Manes, 2017). Each component first gets a cheap
//! [`prekey`]: a hash, invariant under relabelling, of the configuration
//! digest, the query count, the property degrees and, per query, its
//! length, covered count and the `(|mask|, |mask ∩ covered|, weight)`
//! multiset of its finite classifiers. `SolveCache::admit` swaps the
//! pre-key's tag into a fixed 4096-slot direct-mapped table shared by
//! every solver of the cache. A tag that was not in its slot is a *first
//! sighting*: the component is solved uncached (no canonicalization,
//! lookup or insert) and counted as a miss and in `cache_first_sightings`,
//! so hits + misses still equal the components that reached the cache.
//! A tag that was there runs the canonicalize → consult → solve → insert
//! protocol. A pre-key collision costs one canonicalization and an
//! evicted slot one extra uncached solve; neither changes an answer.

use crate::work::WorkState;
use mc3_core::canon::{self, Canonical, Canonicalizer, StableHasher};
use mc3_core::{u32_of, ClassifierId, FxHashMap, PropSet, Query, Weight};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of lock stripes. A power of two so shard selection is a mask.
const SHARDS: usize = 16;

/// log2 of the admission doorkeeper's slot count (see "Admission" above).
const DOORKEEPER_BITS: u32 = 12;

/// Fixed per-entry overhead estimate (map node, LRU node, `Entry`).
const ENTRY_OVERHEAD: usize = 112;

/// One memoized component solution, in canonical property ids.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    /// The chosen classifiers, each a sorted set of canonical ids.
    pub sets: Vec<Vec<u32>>,
    /// Total weight of the solution when it was inserted (raw `Weight`).
    pub cost_raw: u64,
}

impl CachedSolve {
    fn bytes(&self) -> usize {
        ENTRY_OVERHEAD
            + self
                .sets
                .iter()
                .map(|s| std::mem::size_of::<Vec<u32>>() + 4 * s.len())
                .sum::<usize>()
    }
}

/// What the cache remembers about a component fingerprint: either a
/// verified solution, or the verdict that the component is uncoverable
/// (negative-result memoization — the ROADMAP's "infeasible verdicts
/// are work too" item). Negative entries ride the same LRU/byte
/// accounting as positive ones, at the fixed per-entry overhead.
#[derive(Debug, Clone)]
pub enum CachedOutcome {
    /// A memoized solution (in canonical property ids).
    Solved(CachedSolve),
    /// The component had no finite-cost cover when it was inserted.
    Uncoverable,
}

impl CachedOutcome {
    fn bytes(&self) -> usize {
        match self {
            CachedOutcome::Solved(s) => s.bytes(),
            CachedOutcome::Uncoverable => ENTRY_OVERHEAD,
        }
    }
}

/// A byte-bounded least-recently-used map keyed by `u128` fingerprints.
///
/// Every entry carries a caller-supplied byte estimate; an insert evicts
/// least-recently-used entries until the new one fits the budget, and an
/// entry larger than the whole budget is refused. The new entry is never
/// its own victim. [`get`](Self::get) refreshes an entry's position.
/// Both memo layers of `mc3 serve` run on this type: each
/// [`SolveCache`] shard and the server's exact-body request cache.
#[derive(Debug)]
pub struct ByteLru<V> {
    map: FxHashMap<u128, Slot<V>>,
    /// Recency order: tick → key. Ticks are unique.
    order: BTreeMap<u64, u128>,
    bytes: usize,
    budget: usize,
    tick: u64,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    bytes: usize,
    tick: u64,
}

impl<V> ByteLru<V> {
    /// An empty map holding at most `budget` estimated bytes.
    pub fn new(budget: usize) -> ByteLru<V> {
        ByteLru {
            map: FxHashMap::default(),
            order: BTreeMap::new(),
            bytes: 0,
            budget,
            tick: 0,
        }
    }

    /// The entry for `key`, made the most recently used.
    pub fn get(&mut self, key: u128) -> Option<&V> {
        let slot = self.map.get_mut(&key)?;
        self.order.remove(&slot.tick);
        self.tick += 1;
        slot.tick = self.tick;
        self.order.insert(self.tick, key);
        Some(&slot.value)
    }

    /// Inserts (or replaces) `key` as the most recently used entry,
    /// charged `bytes`. Returns how many other entries were evicted to
    /// make room, or `None` when `bytes` exceeds the whole budget — the
    /// entry is then refused and the map left as it was.
    pub fn insert(&mut self, key: u128, value: V, bytes: usize) -> Option<u64> {
        if bytes > self.budget {
            return None;
        }
        self.remove(key);
        let mut evicted = 0;
        while self.bytes + bytes > self.budget {
            let Some((_, victim)) = self.order.pop_first() else {
                break;
            };
            if let Some(slot) = self.map.remove(&victim) {
                self.bytes -= slot.bytes;
            }
            evicted += 1;
        }
        self.tick += 1;
        self.order.insert(self.tick, key);
        self.map.insert(
            key,
            Slot {
                value,
                bytes,
                tick: self.tick,
            },
        );
        self.bytes += bytes;
        Some(evicted)
    }

    /// Drops the entry for `key`, returning its value.
    pub fn remove(&mut self, key: u128) -> Option<V> {
        let slot = self.map.remove(&key)?;
        self.order.remove(&slot.tick);
        self.bytes -= slot.bytes;
        Some(slot.value)
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Estimated resident bytes: the sum of the live entries' charges.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// Occupancy of a [`SolveCache`]. Its hits, misses, first sightings and
/// evictions are telemetry counters (`cache_*`), not fields here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Live entries right now.
    pub entries: u64,
    /// Estimated resident bytes right now.
    pub resident_bytes: u64,
    /// Configured capacity in bytes.
    pub capacity_bytes: u64,
}

/// A lock-striped, byte-bounded, LRU-evicting memoization cache for
/// per-component solves, keyed by canonical fingerprint (mixed with a
/// solver-configuration digest, so e.g. `general` and `k2` results never
/// alias).
pub struct SolveCache {
    shards: Vec<Mutex<ByteLru<CachedOutcome>>>,
    /// The admission doorkeeper: per slot, the last pre-key tag seen.
    doorkeeper: Box<[AtomicU64]>,
    capacity: usize,
}

impl std::fmt::Debug for SolveCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveCache")
            .field("capacity_bytes", &self.capacity)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl SolveCache {
    /// A cache bounded to (an estimate of) `bytes` resident bytes.
    pub fn with_capacity_bytes(bytes: usize) -> SolveCache {
        let shard_budget = (bytes / SHARDS).max(ENTRY_OVERHEAD);
        SolveCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(ByteLru::new(shard_budget)))
                .collect(),
            doorkeeper: (0..1usize << DOORKEEPER_BITS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            capacity: bytes,
        }
    }

    /// A cache bounded to `mb` megabytes.
    pub fn with_capacity_mb(mb: usize) -> SolveCache {
        Self::with_capacity_bytes(mb.saturating_mul(1024 * 1024))
    }

    fn shard(&self, key: u128) -> &Mutex<ByteLru<CachedOutcome>> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Looks up a candidate entry of either polarity, refreshing its
    /// LRU position. Counts nothing: the caller re-verifies the
    /// candidate first and then calls [`confirm_hit`](Self::confirm_hit)
    /// (or [`confirm_negative_hit`](Self::confirm_negative_hit)) or
    /// [`reject`](Self::reject).
    pub fn lookup_outcome(&self, key: u128) -> Option<CachedOutcome> {
        self.shard(key).lock().ok()?.get(key).cloned()
    }

    /// Records a verified hit in the `cache_hits` counter.
    pub fn confirm_hit(&self, _key: u128) {
        mc3_telemetry::span_add(mc3_telemetry::Counter::CacheHits, 1);
    }

    /// Records a verified negative hit (a replayed uncoverable verdict)
    /// in the `cache_negative_hits` counter.
    pub fn confirm_negative_hit(&self, _key: u128) {
        mc3_telemetry::span_add(mc3_telemetry::Counter::CacheNegativeHits, 1);
    }

    /// Records a miss (no entry, or a candidate that failed verification)
    /// in the `cache_misses` counter.
    pub fn note_miss(&self, _key: u128) {
        mc3_telemetry::span_add(mc3_telemetry::Counter::CacheMisses, 1);
    }

    /// The doorkeeper: records a sighting of a component whose
    /// [`prekey`] is `prekey`. `true` when the same pre-key held its slot,
    /// so the component is worth fingerprinting; `false` on a first
    /// sighting, which is counted as a miss and a first sighting.
    pub(crate) fn admit(&self, prekey: u64) -> bool {
        // The top bits pick the slot; the low bit set keeps every tag off
        // the empty slot's 0.
        let tag = prekey | 1;
        let slot = &self.doorkeeper[(prekey >> (64 - DOORKEEPER_BITS)) as usize];
        // audit:allow(no-relaxed-atomics) reviewed: a tag publishes no other data, and a lost race costs at most one canonicalization or one uncached solve
        if slot.swap(tag, Ordering::Relaxed) == tag {
            return true;
        }
        mc3_telemetry::span_add(mc3_telemetry::Counter::CacheMisses, 1);
        mc3_telemetry::span_add(mc3_telemetry::Counter::CacheFirstSightings, 1);
        false
    }

    /// Drops an entry that failed re-verification (collision/corruption).
    pub fn reject(&self, key: u128) {
        if let Ok(mut shard) = self.shard(key).lock() {
            shard.remove(key);
        }
    }

    /// Inserts (or replaces) a solution entry, evicting LRU entries as
    /// needed to stay under the shard's byte budget. Entries larger than
    /// the budget are not admitted at all.
    pub fn insert(&self, key: u128, solve: CachedSolve) {
        self.insert_outcome(key, CachedOutcome::Solved(solve));
    }

    /// Memoizes an uncoverable verdict for `key`.
    pub fn insert_negative(&self, key: u128) {
        self.insert_outcome(key, CachedOutcome::Uncoverable);
    }

    fn insert_outcome(&self, key: u128, outcome: CachedOutcome) {
        let bytes = outcome.bytes();
        let Ok(mut shard) = self.shard(key).lock() else {
            return;
        };
        let evicted = shard.insert(key, outcome, bytes).unwrap_or(0);
        drop(shard);
        if evicted > 0 {
            mc3_telemetry::span_add(mc3_telemetry::Counter::CacheEvictions, evicted);
        }
    }

    /// Sums the shards' occupancy.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats {
            capacity_bytes: self.capacity as u64,
            ..CacheStats::default()
        };
        for shard in &self.shards {
            if let Ok(shard) = shard.lock() {
                s.entries += shard.len() as u64;
                s.resident_bytes += shard.bytes() as u64;
            }
        }
        s
    }
}

/// Mixes a component fingerprint with the solver-configuration digest
/// into the final cache key.
fn component_key(canonical: &Canonical, config_digest: u64) -> u128 {
    let mut h = StableHasher::new();
    h.write_u64(config_digest);
    h.write_u64((canonical.fingerprint() >> 64) as u64);
    h.write_u64(canonical.fingerprint() as u64);
    h.finish128()
}

/// A stable digest of every configuration knob that changes what a
/// component solve produces. Two configurations with different digests
/// never share cache entries.
pub(crate) fn config_digest(
    effective: crate::Algorithm,
    config: &crate::SolverConfig,
    kp: usize,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(effective.name().as_bytes());
    h.write_bytes(format!("{:?}", config.wsc_strategy).as_bytes());
    h.write_bytes(format!("{:?}", config.lp_limits).as_bytes());
    h.write_u64(u64::from(config.refine_wsc));
    h.write_u64(kp as u64);
    h.finish128() as u64
}

/// The splitmix64 finalizer: a cheap 64-bit mixer whose outputs the
/// pre-key sums, so the sums stay order-independent without sorting.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The doorkeeper's pre-key of a component given as [`canon::canonicalize`]
/// takes it: `(query, covered mask)` pairs, the length bound `kp` and the
/// weight oracle, plus `degree_of(qi, bit)`, the number of the
/// component's queries holding the `bit`-th smallest property of query
/// `qi`. One pass, no sorting: per query, its length, covered count,
/// member degrees and the `(|mask|, |mask ∩ covered|, weight)` multiset
/// of its finite classifiers within `kp` are summed through a 64-bit mixer;
/// the query hashes are summed likewise and mixed with the query count
/// and `config_digest`. Relabelling properties or reordering queries
/// leaves it unchanged, so isomorphic components share a pre-key.
pub fn prekey(
    config_digest: u64,
    queries: &[(&Query, u32)],
    kp: usize,
    mut degree_of: impl FnMut(usize, usize) -> u32,
    mut weight_of: impl FnMut(usize, u32) -> Weight,
) -> u64 {
    const DEGREE: u64 = 0x6A09_E667_F3BC_C908;
    const ENTRY: u64 = 0xBB67_AE85_84CA_A73B;
    let mut sum = 0u64;
    for (qi, &(q, covered)) in queries.iter().enumerate() {
        let len = q.len();
        let covered = covered & ((1u32 << len) - 1);
        let mut h = mix64(((len as u64) << 32) | u64::from(covered.count_ones()));
        for bit in 0..len {
            h = h.wrapping_add(mix64(DEGREE ^ u64::from(degree_of(qi, bit))));
        }
        for mask in 1..1u32 << len {
            if mask.count_ones() as usize > kp {
                continue;
            }
            let w = weight_of(qi, mask);
            if w.is_finite() {
                let shape = (mask.count_ones() << 8) | (mask & covered).count_ones();
                h = h.wrapping_add(mix64(ENTRY ^ mix64(w.raw()) ^ u64::from(shape)));
            }
        }
        sum = sum.wrapping_add(mix64(h));
    }
    mix64(config_digest ^ mix64(sum ^ queries.len() as u64))
}

/// Canonicalizes one residual component (see [`CacheContext::solve_component`]
/// for its inputs). A component that runs out of canonicalization budget
/// is counted and solved uncached.
fn component_canonical(
    canonicalizer: &mut Canonicalizer,
    queries: &[(&Query, u32)],
    kp: usize,
    weight_of: impl FnMut(usize, u32) -> Weight,
) -> Option<Canonical> {
    let canonical = canonicalizer.canonicalize(queries, kp, canon::DEFAULT_BUDGET, weight_of);
    if canonical.is_none() {
        mc3_telemetry::span_add(mc3_telemetry::Counter::CanonBudgetExhausted, 1);
    }
    canonical
}

/// Remaps a cached canonical solution back into the current component's
/// classifier ids and re-verifies it end to end. `None` = unusable
/// (treat as a miss).
pub(crate) fn remap_verified(
    ws: &WorkState<'_>,
    comp: &[usize],
    canonical: &Canonical,
    cached: &CachedSolve,
) -> Option<Vec<ClassifierId>> {
    let mut ids = Vec::with_capacity(cached.sets.len());
    let mut total = Weight::ZERO;
    for set in &cached.sets {
        let props: Option<Vec<mc3_core::PropId>> =
            set.iter().map(|&c| canonical.original_of(c)).collect();
        let ps = PropSet::from_ids(props?);
        let id = ws.universe.id_of(&ps)?;
        if !ws.is_usable(id) {
            return None;
        }
        total = total.saturating_add(ws.weight[id.index()]);
        ids.push(id);
    }
    if total.is_infinite() || total.raw() != cached.cost_raw {
        return None;
    }
    // Residual cover check: the union of the remapped classifiers' masks
    // must include every still-needed bit of every component query.
    let mut pos_of: FxHashMap<u32, usize> = FxHashMap::default();
    for (i, &q) in comp.iter().enumerate() {
        pos_of.insert(u32_of(q), i);
    }
    let mut union = vec![0u32; comp.len()];
    for &id in &ids {
        for (q, mask) in ws.occurrences(id) {
            if let Some(&i) = pos_of.get(&q) {
                union[i] |= mask;
            }
        }
    }
    for (i, &q) in comp.iter().enumerate() {
        let need = ws.need(q);
        if union[i] & need != need {
            return None;
        }
    }
    Some(ids)
}

/// Expresses a fresh component solution in canonical ids for insertion.
/// `None` when a classifier strays outside the canonicalized props
/// (cannot happen for component-local solves; checked defensively).
pub(crate) fn canonical_sets(
    ws: &WorkState<'_>,
    canonical: &Canonical,
    ids: &[ClassifierId],
) -> Option<CachedSolve> {
    let mut sets = Vec::with_capacity(ids.len());
    let mut total = Weight::ZERO;
    for &id in ids {
        let set: Option<Vec<u32>> = ws
            .universe
            .classifier(id)
            .iter()
            .map(|p| canonical.canonical_of(p))
            .collect();
        let mut set = set?;
        set.sort_unstable();
        sets.push(set);
        total = total.saturating_add(ws.weight[id.index()]);
    }
    if total.is_infinite() {
        return None;
    }
    sets.sort_unstable();
    Some(CachedSolve {
        sets,
        cost_raw: total.raw(),
    })
}

/// Re-verifies a cached *uncoverable* verdict against the live working
/// state: returns the first component query whose residual need cannot
/// be covered by the union of its usable subset classifiers, or `None`
/// when every query is (still) coverable. This check is exact, not
/// heuristic — per-query coverage only ever uses subsets of that query,
/// and preprocessing removals are optimality-preserving, so "some needed
/// bit of some query is reachable by no usable classifier" is precisely
/// the condition under which every solver path reports
/// [`Mc3Error::Uncoverable`](mc3_core::Mc3Error::Uncoverable). Like the
/// positive-path [`remap_verified`], this means a corrupted or colliding
/// negative entry can cost time, never correctness.
pub(crate) fn first_uncoverable_query(ws: &WorkState<'_>, comp: &[usize]) -> Option<usize> {
    for &q in comp {
        let need = ws.need(q);
        if need == 0 {
            continue;
        }
        let local = ws.universe.query_local(q);
        let mut union = 0u32;
        for (mask, &id) in local.table.iter().enumerate() {
            if !id.is_none() && ws.is_usable(id) {
                union |= u32_of(mask);
            }
        }
        if union & need != need {
            return Some(q);
        }
    }
    None
}

/// Everything the per-component loop needs to consult the cache.
pub(crate) struct CacheContext {
    pub cache: Arc<SolveCache>,
    pub digest: u64,
    pub kp: usize,
    /// Buffers every component's canonicalization reuses; they live as
    /// long as this context, one solve.
    pub canonicalizer: Canonicalizer,
}

impl CacheContext {
    /// The whole cache protocol for one component: the doorkeeper, then
    /// canonicalize, then lookup → remap + re-verify; on a miss, run
    /// `solve` and memoize its result (an uncoverable verdict included).
    /// A first sighting, or a component whose canonicalization runs out
    /// of budget, is solved uncached.
    ///
    /// The component is seen as the canonical form sees it: the original
    /// queries with their covered masks, and the live weight oracle
    /// (removed / absent → ∞, selected → 0).
    pub fn solve_component(
        &mut self,
        ws: &WorkState<'_>,
        comp: &[usize],
        solve: impl FnOnce() -> mc3_core::Result<Vec<ClassifierId>>,
    ) -> mc3_core::Result<Vec<ClassifierId>> {
        let queries: Vec<(&Query, u32)> = comp
            .iter()
            .map(|&q| (&ws.instance.queries()[q], ws.covered[q]))
            .collect();
        let weight_of = |qi: usize, mask: u32| {
            let id = ws.universe.query_local(comp[qi]).table[mask as usize];
            if id.is_none() || !ws.is_available(id) {
                Weight::INFINITE
            } else {
                ws.weight[id.index()]
            }
        };
        // Every alive query holding a property is in its component, so the
        // singleton's alive-query count is the property's degree here.
        let degree_of = |qi: usize, bit: usize| {
            let id = ws.universe.query_local(comp[qi]).table[1 << bit];
            if id.is_none() {
                0
            } else {
                ws.relevant_count[id.index()]
            }
        };
        let prekey = prekey(self.digest, &queries, self.kp, degree_of, weight_of);
        if !self.cache.admit(prekey) {
            return solve();
        }
        let canonical = {
            let _span = mc3_telemetry::span("cache.canon");
            component_canonical(&mut self.canonicalizer, &queries, self.kp, weight_of)
        };
        let Some(canonical) = canonical else {
            return solve();
        };
        let key = component_key(&canonical, self.digest);
        if let Some(consulted) = self.consult(ws, comp, &canonical, key) {
            return consulted;
        }
        match solve() {
            Ok(ids) => {
                let _span = mc3_telemetry::span("cache.insert");
                if let Some(solve) = canonical_sets(ws, &canonical, &ids) {
                    self.cache.insert(key, solve);
                }
                Ok(ids)
            }
            Err(e @ mc3_core::Mc3Error::Uncoverable { .. }) => {
                // Infeasibility is a solve result too: memoize the
                // verdict so the next structurally identical component
                // fails in one verified scan instead of a full solve.
                let _span = mc3_telemetry::span("cache.insert");
                self.cache.insert_negative(key);
                Err(e)
            }
            Err(e) => Err(e),
        }
    }

    /// The cache side of [`Self::solve_component`] under its own
    /// `cache.consult` span: lookup, remap and re-verify. `Some` is a
    /// verified answer (a solution, or a replayed uncoverable verdict);
    /// `None` is a recorded miss.
    fn consult(
        &self,
        ws: &WorkState<'_>,
        comp: &[usize],
        canonical: &Canonical,
        key: u128,
    ) -> Option<mc3_core::Result<Vec<ClassifierId>>> {
        let _span = mc3_telemetry::span("cache.consult");
        let answer = match self.cache.lookup_outcome(key) {
            Some(CachedOutcome::Solved(cached)) => {
                let ids = remap_verified(ws, comp, canonical, &cached);
                match ids {
                    Some(_) => self.cache.confirm_hit(key),
                    // Collision or corruption: never trust it, never keep it.
                    None => self.cache.reject(key),
                }
                ids.map(Ok)
            }
            Some(CachedOutcome::Uncoverable) => {
                let query_index = first_uncoverable_query(ws, comp);
                match query_index {
                    Some(_) => self.cache.confirm_negative_hit(key),
                    // The verdict no longer holds here (collision, or a
                    // different weight landscape): drop it and solve fresh.
                    None => self.cache.reject(key),
                }
                query_index.map(|query_index| Err(mc3_core::Mc3Error::Uncoverable { query_index }))
            }
            None => None,
        };
        if answer.is_none() {
            self.cache.note_miss(key);
        }
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solved(cache: &SolveCache, key: u128) -> Option<CachedSolve> {
        match cache.lookup_outcome(key) {
            Some(CachedOutcome::Solved(s)) => Some(s),
            _ => None,
        }
    }

    fn entry(n: usize, fill: u32) -> CachedSolve {
        CachedSolve {
            sets: vec![vec![fill; n]],
            cost_raw: u64::from(fill),
        }
    }

    #[test]
    fn lookup_insert_roundtrip_and_stats() {
        let cache = SolveCache::with_capacity_mb(1);
        assert!(cache.lookup_outcome(7).is_none());
        cache.insert(7, entry(3, 9));
        let got = solved(&cache, 7).expect("present");
        assert_eq!(got.sets, vec![vec![9, 9, 9]]);
        assert_eq!(got.cost_raw, 9);
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.capacity_bytes, 1024 * 1024);
        assert_eq!(s.resident_bytes, entry(3, 9).bytes() as u64);
    }

    #[test]
    fn doorkeeper_admits_second_sightings() {
        let cache = SolveCache::with_capacity_mb(1);
        let (a, b) = (0xABCD_0000_0000_0010u64, 0xABCD_0000_0000_0020u64);
        assert!(!cache.admit(a), "first sighting");
        assert!(cache.admit(a), "second sighting");
        assert!(cache.admit(a), "third sighting");
        // `b` shares `a`'s slot (same top bits): it takes the slot over,
        // so `a` is seen for the first time again.
        assert!(!cache.admit(b));
        assert!(!cache.admit(a));
        // Admission only tags slots: nothing is inserted.
        let s = cache.stats();
        assert_eq!((s.entries, s.resident_bytes), (0, 0));
    }

    #[test]
    fn reject_drops_the_entry() {
        let cache = SolveCache::with_capacity_mb(1);
        cache.insert(5, entry(2, 1));
        assert!(cache.lookup_outcome(5).is_some());
        cache.reject(5);
        assert!(cache.lookup_outcome(5).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn shard_evicts_lru_entries_and_refuses_oversized_ones() {
        // Budget fits ~2 entries per shard; keys 0, 16, 32 share shard 0.
        let cache = SolveCache::with_capacity_bytes(SHARDS * (2 * ENTRY_OVERHEAD + 64));
        cache.insert(0, entry(1, 1));
        cache.insert(16, entry(1, 2));
        cache.insert(32, entry(1, 3));
        // An entry larger than a shard's budget is not admitted.
        cache.insert(48, entry(100_000, 4));
        assert!(cache.lookup_outcome(0).is_none(), "LRU entry evicted");
        assert!(
            cache.lookup_outcome(48).is_none(),
            "oversized entry refused"
        );
        assert!(cache.lookup_outcome(16).is_some());
        assert!(cache.lookup_outcome(32).is_some());
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.resident_bytes, 2 * entry(1, 0).bytes() as u64);
    }

    #[test]
    fn negative_entries_roundtrip() {
        let cache = SolveCache::with_capacity_mb(1);
        cache.insert_negative(11);
        assert!(matches!(
            cache.lookup_outcome(11),
            Some(CachedOutcome::Uncoverable)
        ));
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.resident_bytes, ENTRY_OVERHEAD as u64);
        cache.reject(11);
        assert!(cache.lookup_outcome(11).is_none());
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    /// A map whose budget fits exactly two unit-charged entries.
    fn two_slot_lru() -> ByteLru<u32> {
        ByteLru::new(2)
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut lru = two_slot_lru();
        assert_eq!(lru.insert(0, 1, 1), Some(0));
        assert_eq!(lru.insert(16, 2, 1), Some(0));
        // Touch key 0 so key 16 is the LRU victim.
        assert_eq!(lru.get(0), Some(&1));
        assert_eq!(lru.insert(32, 3, 1), Some(1));
        assert_eq!(lru.get(16), None, "LRU entry evicted");
        assert_eq!(lru.get(0), Some(&1));
        assert_eq!(lru.get(32), Some(&3));
        assert_eq!((lru.len(), lru.bytes()), (2, 2));
    }

    #[test]
    fn lru_refuses_oversized_entries() {
        let mut lru = two_slot_lru();
        lru.insert(1, 1, 1);
        assert_eq!(lru.insert(3, 9, 3), None);
        assert_eq!(lru.insert(1, 9, 3), None, "refusal keeps the old entry");
        assert_eq!(lru.get(3), None);
        assert_eq!(lru.get(1), Some(&1));
        assert_eq!((lru.len(), lru.bytes()), (1, 1));
    }

    #[test]
    fn lru_replacing_an_entry_does_not_leak_bytes() {
        let mut lru = ByteLru::new(100);
        lru.insert(9, 1, 40);
        assert_eq!(lru.insert(9, 2, 40), Some(0));
        assert_eq!((lru.len(), lru.bytes()), (1, 40));
        assert_eq!(lru.get(9), Some(&2));
        // A bigger replacement evicts others, never the entry itself.
        lru.insert(5, 3, 30);
        assert_eq!(lru.insert(9, 4, 90), Some(1));
        assert_eq!((lru.len(), lru.bytes()), (1, 90));
        assert_eq!(lru.remove(9), Some(4));
        assert!(lru.is_empty());
        assert_eq!(lru.bytes(), 0);
    }

    #[test]
    fn lru_as_a_response_cache() {
        // Shaped like `mc3 serve`'s exact-body cache: rendered bodies
        // charged their length + 160, a budget that holds three.
        let body = |key: u128| vec![key as u8; 1000];
        let charge = |len: usize| len + 160;
        let mut lru: ByteLru<Vec<u8>> = ByteLru::new(3 * charge(1000));
        let mut evicted = 0;
        for key in 0..5u128 {
            evicted += lru.insert(key, body(key), charge(1000)).unwrap();
            // Replays of the first body keep it hot.
            assert!(lru.get(0).is_some(), "key {key}");
        }
        assert_eq!(evicted, 2);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.bytes(), 3 * charge(1000));
        assert_eq!(lru.get(0), Some(&body(0)));
        assert_eq!(lru.get(1), None);
        assert_eq!(lru.get(2), None);
        assert_eq!(lru.get(4), Some(&body(4)));
        // A response larger than the whole budget is never admitted.
        assert_eq!(lru.insert(9, body(9), charge(4000)), None);
        assert_eq!(lru.len(), 3);
    }
}

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
//! the parallel work-stealing component workers rarely contend. Each
//! shard is a [`ByteLru`] with a sixteenth of the capacity as its byte
//! budget; entry sizes are estimated from their set payloads. All
//! statistics live under the shard locks — no atomics — and are summed
//! on demand by [`SolveCache::stats`]. Hits, misses,
//! evictions and lookup latency are also reported through the
//! `mc3-telemetry` registry (`cache_hits`/`cache_misses`/
//! `cache_evictions`/`cache_lookup_ns`), which is what surfaces them as
//! `mc3_cache_*` Prometheus families in `mc3 serve`.

use crate::work::WorkState;
use mc3_core::canon::{self, Canonical, StableHasher};
use mc3_core::{u32_of, ClassifierId, FxHashMap, PropSet, Weight};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Number of lock stripes. A power of two so shard selection is a mask.
const SHARDS: usize = 16;

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
/// its own victim. [`get`](Self::get) refreshes an entry's position;
/// [`contains`](Self::contains) does not. Both memo layers of `mc3 serve`
/// run on this type: each [`SolveCache`] shard and the server's
/// exact-body request cache.
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

    /// Whether `key` has an entry, leaving the recency order untouched.
    pub fn contains(&self, key: u128) -> bool {
        self.map.contains_key(&key)
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

/// One lock stripe: its LRU plus the counters [`SolveCache::stats`] sums.
struct Shard {
    lru: ByteLru<CachedOutcome>,
    hits: u64,
    negative_hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

/// Aggregated statistics of a [`SolveCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (after successful re-verification).
    pub hits: u64,
    /// Uncoverable verdicts replayed from the cache (after re-verifying
    /// that the component is still uncoverable).
    pub negative_hits: u64,
    /// Lookups that found nothing usable (including failed re-verifies).
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Entries inserted over the cache's lifetime.
    pub insertions: u64,
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
    shards: Vec<Mutex<Shard>>,
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
                .map(|_| {
                    Mutex::new(Shard {
                        lru: ByteLru::new(shard_budget),
                        hits: 0,
                        negative_hits: 0,
                        misses: 0,
                        evictions: 0,
                        insertions: 0,
                    })
                })
                .collect(),
            capacity: bytes,
        }
    }

    /// A cache bounded to `mb` megabytes.
    pub fn with_capacity_mb(mb: usize) -> SolveCache {
        Self::with_capacity_bytes(mb.saturating_mul(1024 * 1024))
    }

    fn shard(&self, key: u128) -> &Mutex<Shard> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Looks up a candidate entry of either polarity, refreshing its
    /// LRU position. Counts nothing: the caller re-verifies the
    /// candidate first and then calls [`confirm_hit`](Self::confirm_hit)
    /// (or [`confirm_negative_hit`](Self::confirm_negative_hit)) or
    /// [`reject`](Self::reject).
    pub fn lookup_outcome(&self, key: u128) -> Option<CachedOutcome> {
        self.shard(key).lock().ok()?.lru.get(key).cloned()
    }

    /// Whether an entry (of either polarity) exists for `key`, without
    /// touching its LRU position or any statistic. This is the
    /// scheduler's likely-hit probe: it must not perturb eviction order
    /// or hit accounting, because the actual consult follows moments
    /// later on a worker.
    pub fn contains(&self, key: u128) -> bool {
        self.shard(key)
            .lock()
            .is_ok_and(|shard| shard.lru.contains(key))
    }

    /// Records a verified hit.
    pub fn confirm_hit(&self, key: u128) {
        if let Ok(mut shard) = self.shard(key).lock() {
            shard.hits += 1;
        }
        mc3_telemetry::count(mc3_telemetry::Counter::CacheHits, 1);
    }

    /// Records a verified negative hit (a replayed uncoverable verdict).
    pub fn confirm_negative_hit(&self, key: u128) {
        if let Ok(mut shard) = self.shard(key).lock() {
            shard.negative_hits += 1;
        }
        mc3_telemetry::count(mc3_telemetry::Counter::CacheNegativeHits, 1);
    }

    /// Records a miss (no entry, or a candidate that failed verification).
    pub fn note_miss(&self, key: u128) {
        if let Ok(mut shard) = self.shard(key).lock() {
            shard.misses += 1;
        }
        mc3_telemetry::count(mc3_telemetry::Counter::CacheMisses, 1);
    }

    /// Drops an entry that failed re-verification (collision/corruption).
    pub fn reject(&self, key: u128) {
        if let Ok(mut shard) = self.shard(key).lock() {
            shard.lru.remove(key);
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
        let Some(evicted) = shard.lru.insert(key, outcome, bytes) else {
            return;
        };
        shard.insertions += 1;
        shard.evictions += evicted;
        drop(shard);
        if evicted > 0 {
            mc3_telemetry::count(mc3_telemetry::Counter::CacheEvictions, evicted);
        }
    }

    /// Sums per-shard statistics.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats {
            capacity_bytes: self.capacity as u64,
            ..CacheStats::default()
        };
        for shard in &self.shards {
            if let Ok(shard) = shard.lock() {
                s.hits += shard.hits;
                s.negative_hits += shard.negative_hits;
                s.misses += shard.misses;
                s.evictions += shard.evictions;
                s.insertions += shard.insertions;
                s.entries += shard.lru.len() as u64;
                s.resident_bytes += shard.lru.bytes() as u64;
            }
        }
        s
    }
}

/// Mixes a component fingerprint with the solver-configuration digest
/// into the final cache key.
pub(crate) fn component_key(canonical: &Canonical, config_digest: u64) -> u128 {
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

/// Canonicalizes one residual component of the working state: the
/// original queries with their covered masks, and the live weight
/// oracle (removed / absent → ∞, selected → 0).
pub(crate) fn component_canonical(
    ws: &WorkState<'_>,
    comp: &[usize],
    kp: usize,
) -> Option<Canonical> {
    let queries: Vec<(&mc3_core::Query, u32)> = comp
        .iter()
        .map(|&q| (&ws.instance.queries()[q], ws.covered[q]))
        .collect();
    canon::canonicalize(&queries, kp, canon::DEFAULT_BUDGET, |qi, mask| {
        let local = ws.universe.query_local(comp[qi]);
        let id = local.table[mask as usize];
        if id.is_none() || !ws.is_available(id) {
            Weight::INFINITE
        } else {
            ws.weight[id.index()]
        }
    })
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
}

impl CacheContext {
    /// The consult for one component, canonicalized by the caller's
    /// dispatch plan: lookup → remap + re-verify; on a miss, run `solve`
    /// and memoize its result (an uncoverable verdict included).
    pub fn solve_component(
        &self,
        ws: &WorkState<'_>,
        comp: &[usize],
        canonical: &Canonical,
        solve: impl FnOnce() -> mc3_core::Result<Vec<ClassifierId>>,
    ) -> mc3_core::Result<Vec<ClassifierId>> {
        let t0 = mc3_telemetry::monotonic_ns();
        let key = component_key(canonical, self.digest);
        match self.cache.lookup_outcome(key) {
            Some(CachedOutcome::Solved(cached)) => {
                if let Some(ids) = remap_verified(ws, comp, canonical, &cached) {
                    self.cache.confirm_hit(key);
                    mc3_telemetry::record(
                        mc3_telemetry::Hist::CacheLookupNs,
                        mc3_telemetry::monotonic_ns().saturating_sub(t0),
                    );
                    return Ok(ids);
                }
                // Collision or corruption: never trust it, never keep it.
                self.cache.reject(key);
            }
            Some(CachedOutcome::Uncoverable) => {
                if let Some(query_index) = first_uncoverable_query(ws, comp) {
                    self.cache.confirm_negative_hit(key);
                    mc3_telemetry::record(
                        mc3_telemetry::Hist::CacheLookupNs,
                        mc3_telemetry::monotonic_ns().saturating_sub(t0),
                    );
                    return Err(mc3_core::Mc3Error::Uncoverable { query_index });
                }
                // The verdict no longer holds here (collision, or a
                // different weight landscape): drop it and solve fresh.
                self.cache.reject(key);
            }
            None => {}
        }
        self.cache.note_miss(key);
        mc3_telemetry::record(
            mc3_telemetry::Hist::CacheLookupNs,
            mc3_telemetry::monotonic_ns().saturating_sub(t0),
        );
        match solve() {
            Ok(ids) => {
                if let Some(solve) = canonical_sets(ws, canonical, &ids) {
                    self.cache.insert(key, solve);
                }
                Ok(ids)
            }
            Err(e @ mc3_core::Mc3Error::Uncoverable { .. }) => {
                // Infeasibility is a solve result too: memoize the
                // verdict so the next structurally identical component
                // fails in one verified scan instead of a full solve.
                self.cache.insert_negative(key);
                Err(e)
            }
            Err(e) => Err(e),
        }
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
        cache.note_miss(7);
        cache.insert(7, entry(3, 9));
        let got = solved(&cache, 7).expect("present");
        assert_eq!(got.sets, vec![vec![9, 9, 9]]);
        assert_eq!(got.cost_raw, 9);
        cache.confirm_hit(7);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.capacity_bytes, 1024 * 1024);
        assert!(s.resident_bytes > 0);
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
    fn shard_counts_admissions_and_evictions() {
        // Budget fits ~2 entries per shard; keys 0, 16, 32 share shard 0.
        let cache = SolveCache::with_capacity_bytes(SHARDS * (2 * ENTRY_OVERHEAD + 64));
        cache.insert(0, entry(1, 1));
        cache.insert(16, entry(1, 2));
        cache.insert(32, entry(1, 3));
        // An entry larger than a shard's budget is not admitted.
        cache.insert(48, entry(100_000, 4));
        assert!(!cache.contains(0), "LRU entry evicted");
        assert!(!cache.contains(48), "oversized entry refused");
        let s = cache.stats();
        assert_eq!((s.insertions, s.evictions, s.entries), (3, 1, 2));
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
        assert!(cache.contains(11));
        cache.confirm_negative_hit(11);
        let s = cache.stats();
        assert_eq!((s.negative_hits, s.entries, s.insertions), (1, 1, 1));
        cache.reject(11);
        assert!(!cache.contains(11));
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
        assert!(!lru.contains(3));
        assert_eq!(lru.get(1), Some(&1));
        assert_eq!((lru.len(), lru.bytes()), (1, 1));
    }

    #[test]
    fn lru_contains_probe_does_not_perturb_order() {
        let mut lru = two_slot_lru();
        lru.insert(0, 1, 1);
        lru.insert(16, 2, 1);
        // A get would promote key 0; the probe must not.
        assert!(lru.contains(0));
        lru.insert(32, 3, 1);
        assert!(!lru.contains(0), "key 0 stayed the LRU victim");
        assert!(lru.contains(16));
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
        assert!(!lru.contains(1) && !lru.contains(2));
        assert_eq!(lru.get(4), Some(&body(4)));
        // A response larger than the whole budget is never admitted.
        assert_eq!(lru.insert(9, body(9), charge(4000)), None);
        assert_eq!(lru.len(), 3);
    }
}

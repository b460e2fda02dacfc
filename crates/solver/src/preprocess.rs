//! The preprocessing pipeline — Algorithm 1 of the paper (§3).
//!
//! Four steps, each justified by an observation that preserves at least one
//! optimal solution:
//!
//! * **Step 1** (Obs. 3.1): select the singleton classifier of every
//!   singleton query, select every zero-weight classifier, drop covered
//!   queries and now-irrelevant classifiers.
//! * **Step 2** (Obs. 3.2): decompose into property-connected components —
//!   provided by [`crate::components`] and applied by the solver pipeline
//!   (it is a partitioning of the residual problem, not a mutation).
//! * **Step 3** (Obs. 3.3): remove any classifier whose cheapest
//!   *decomposition* — two classifiers whose union equals it, with removed
//!   members priced at their own recorded decomposition cost — does not cost
//!   more than the classifier itself. Afterwards, select classifiers that
//!   have become *forced*: if some needed property of a query is testable by
//!   exactly one remaining classifier, every cover must use it (this
//!   per-property forcing subsumes the paper's "only one cover possibility"
//!   check on line 10 and is likewise optimality-preserving). Repeat until
//!   fixpoint (line 11), with a bounded pass count.
//! * **Step 4** (Obs. 3.4, `k = 2` only): remove a singleton classifier `X`
//!   whenever the available pair classifiers intersecting it cost no more in
//!   total than `X`, selecting them instead; re-examine affected singletons
//!   (chain reaction).

use crate::work::WorkState;
use mc3_core::u32_of;
use mc3_core::{ClassifierId, Mc3Error, Result, Weight};

/// Which preprocessing steps to run (the paper's ablation knobs).
#[derive(Debug, Clone, Copy)]
pub struct PreprocessOptions {
    /// Step 1: singleton queries and zero-weight classifiers.
    pub singletons_and_zero: bool,
    /// Step 3: decomposition-based removal plus forced selections.
    pub decomposition: bool,
    /// Step 4: singleton-vs-pairs pruning (applies only when `k ≤ 2`).
    pub k2_singleton_pruning: bool,
    /// Upper bound on Step-3 fixpoint passes.
    pub max_passes: usize,
}

impl Default for PreprocessOptions {
    fn default() -> Self {
        PreprocessOptions {
            singletons_and_zero: true,
            decomposition: true,
            k2_singleton_pruning: true,
            max_passes: 6,
        }
    }
}

impl PreprocessOptions {
    /// All steps disabled (the "without preprocessing" ablation).
    pub fn disabled() -> Self {
        PreprocessOptions {
            singletons_and_zero: false,
            decomposition: false,
            k2_singleton_pruning: false,
            max_passes: 0,
        }
    }
}

/// Outcome counters of a preprocessing run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Classifiers selected during preprocessing.
    pub selected: usize,
    /// Classifiers removed by Step 3.
    pub removed_by_decomposition: usize,
    /// Classifiers removed by Step 4.
    pub removed_by_singleton_pruning: usize,
    /// Queries fully covered (killed) during preprocessing.
    pub covered_queries: usize,
    /// Step-3 passes executed.
    pub passes: usize,
}

/// Runs Algorithm 1 over `ws` (Steps 1, 3 and 4; Step 2 is the component
/// split applied by the pipeline).
pub fn preprocess(ws: &mut WorkState<'_>, opts: &PreprocessOptions) -> Result<PreprocessStats> {
    let mut stats = PreprocessStats::default();
    let queries_before = ws.alive_queries();

    if opts.singletons_and_zero {
        let _span = mc3_telemetry::span("preprocess.step1");
        step1(ws, &mut stats)?;
    }
    if opts.decomposition {
        let _span = mc3_telemetry::span("preprocess.step3");
        step3_fixpoint(ws, opts, &mut stats)?;
    }
    if opts.k2_singleton_pruning && ws.instance.max_query_len() <= 2 {
        let _span = mc3_telemetry::span("preprocess.step4");
        step4(ws, &mut stats);
    }

    stats.covered_queries = queries_before - ws.alive_queries();
    Ok(stats)
}

/// Step 1: singleton queries force their classifier; zero-weight classifiers
/// are free and always selected.
fn step1(ws: &mut WorkState<'_>, stats: &mut PreprocessStats) -> Result<()> {
    for q in 0..ws.instance.num_queries() {
        if !ws.alive[q] || ws.universe.query_local(q).len != 1 {
            continue;
        }
        let id = ws.universe.query_local(q).table[1];
        if ws.weight[id.index()].is_infinite() {
            return Err(Mc3Error::Uncoverable { query_index: q });
        }
        ws.select(id);
        stats.selected += 1;
        mc3_telemetry::span_add(mc3_telemetry::Counter::PreObs31Selected, 1);
    }
    for c in 0..ws.universe.len() {
        let id = ClassifierId(u32_of(c));
        if !ws.selected[c] && !ws.removed[c] && ws.weight[c].is_zero() && ws.relevant_count[c] > 0 {
            ws.select(id);
            stats.selected += 1;
            mc3_telemetry::span_add(mc3_telemetry::Counter::PreObs31Selected, 1);
        }
    }
    Ok(())
}

/// Step 3 with the line-11 repetition, bounded by `opts.max_passes`.
///
/// The cheapest decomposition of a classifier depends only on the effective
/// weights of its proper subsets, so after the first pass (which prices
/// every classifier of length ≥ 2) a classifier is re-priced only when one
/// of those may have dropped. Between two sweeps that happens only through
/// a forced selection, which sets the selected classifier's weight to 0 and
/// queues all its supersets. A removal or refresh during a sweep needs no
/// queueing of its own: the classifier was queued because a subset of it
/// was selected, and that selection queued every longer superset, which
/// the sweep reaches later because it runs by increasing length. Every
/// classifier left out would be priced as it was last time, which changes
/// nothing, so passes, removals and refreshes match the full sweep one for
/// one.
fn step3_fixpoint(
    ws: &mut WorkState<'_>,
    opts: &PreprocessOptions,
    stats: &mut PreprocessStats,
) -> Result<()> {
    let mut work = Worklist::new(ws);
    for (id, c) in ws.universe.iter() {
        if c.len() >= 2 {
            if let Some((q, m)) = ws.occurrences(id).next() {
                work.push(id, q, m);
            }
        }
    }

    for _pass in 0..opts.max_passes {
        stats.passes += 1;
        mc3_telemetry::span_add(mc3_telemetry::Counter::PrePasses, 1);
        let mut changed = false;
        let mut evals = 0u64;

        // --- decomposition sweep over the queued classifiers, by increasing length ---
        for len in 2..work.buckets.len() {
            let mut bucket = std::mem::take(&mut work.buckets[len]);
            for &Queued { q, m } in &bucket {
                let id = ws.universe.query_local(q as usize).id(m);
                let c = id.index();
                work.unqueue(id);
                if ws.selected[c] || ws.relevant_count[c] == 0 {
                    continue;
                }
                evals += 1;
                if ws.removed[c] {
                    // keep the recorded replacement fresh (it may have
                    // become cheaper after later selections)
                    let best = cheapest_decomposition(ws, q as usize, m, ws.eff[c]);
                    if best < ws.eff[c] {
                        ws.eff[c] = best;
                        changed = true;
                    }
                    continue;
                }
                // Only a decomposition costing at most W(c) matters; a
                // weight of `MAX_FINITE` or more has no `W(c) + 1`, and
                // a saturated sum can tie it.
                let w = ws.weight[c];
                let bound = if w >= Weight::MAX_FINITE {
                    Weight::INFINITE
                } else {
                    Weight::new(w.raw() + 1)
                };
                let best = cheapest_decomposition(ws, q as usize, m, bound);
                if best <= w {
                    ws.remove(id, best);
                    work.touch_occurrences(ws, id);
                    stats.removed_by_decomposition += 1;
                    mc3_telemetry::span_add(mc3_telemetry::Counter::PreObs33Removed, 1);
                    changed = true;
                } else {
                    ws.eff[c] = ws.weight[c];
                }
            }
            bucket.clear();
            work.buckets[len] = bucket;
        }
        mc3_telemetry::span_add(mc3_telemetry::Counter::PreStep3Evals, evals);

        // --- line 10: forced classifiers ---
        changed |= select_forced(ws, stats, &mut work)?;

        if !changed {
            break;
        }
    }
    Ok(())
}

/// A classifier queued for re-pricing, as the `(query, local mask)`
/// occurrence it was queued from. It is priced there: its subsets, and so
/// its decompositions, are the same in every query holding it.
#[derive(Clone, Copy)]
struct Queued {
    q: u32,
    m: u32,
}

/// The Step-3 worklist: classifiers to re-price, bucketed by length and
/// deduplicated by a queued bitset, plus the queries the next forced scan
/// must visit.
struct Worklist {
    buckets: Vec<Vec<Queued>>,
    queued: Vec<u64>,
    /// Queries whose covered mask or usable classifiers may have changed
    /// since their last forced scan. A scan that forces nothing leaves
    /// the query untouched, and scanning it again would force nothing.
    touched: Vec<bool>,
}

impl Worklist {
    fn new(ws: &WorkState<'_>) -> Worklist {
        Worklist {
            buckets: vec![Vec::new(); ws.universe.max_classifier_len() + 1],
            queued: vec![0; ws.universe.len().div_ceil(64)],
            touched: vec![true; ws.instance.num_queries()],
        }
    }

    /// Marks every query `id` occurs in for the next forced scan: a
    /// removal or selection of `id` changes only those queries.
    fn touch_occurrences(&mut self, ws: &WorkState<'_>, id: ClassifierId) {
        for (q, _) in ws.occurrences(id) {
            self.touched[q as usize] = true;
        }
    }

    /// Queues `id`, which occurs at local mask `m` of query `q`.
    fn push(&mut self, id: ClassifierId, q: u32, m: u32) {
        let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        if self.queued[word] & bit == 0 {
            self.queued[word] |= bit;
            self.buckets[m.count_ones() as usize].push(Queued { q, m });
        }
    }

    fn unqueue(&mut self, id: ClassifierId) {
        self.queued[id.index() / 64] &= !(1u64 << (id.index() % 64));
    }

    /// Queues every proper superset of `id` that is still relevant: its
    /// supersets within each alive query it occurs in (a relevant superset
    /// occurs in some alive query, and `id` occurs there too). Selected
    /// ones are skipped when popped.
    fn mark_supersets(&mut self, ws: &WorkState<'_>, id: ClassifierId) {
        for (q, m) in ws.occurrences(id) {
            if !ws.alive[q as usize] {
                continue;
            }
            let local = ws.universe.query_local(q as usize);
            let rest = local.full_mask() & !m;
            let mut extra = rest;
            while extra != 0 {
                let sup = local.table[(m | extra) as usize];
                if !sup.is_none() {
                    self.push(sup, q, m | extra);
                }
                extra = (extra - 1) & rest;
            }
        }
    }
}

/// The cheapest pair `(A, B)` of proper sub-classifiers of the classifier at
/// local mask `m` of query `q` with `A ∪ B` equal to it, priced by effective
/// weights, or `incumbent` if none is cheaper. One member of every such
/// pair holds the lowest bit of `m`, so only those `A` are enumerated, and
/// an `A` priced at or above the best so far is skipped without probing
/// its partners (sums saturate, so they never fall below a member).
fn cheapest_decomposition(ws: &WorkState<'_>, q: usize, m: u32, incumbent: Weight) -> Weight {
    let mut best = incumbent;
    if best.is_zero() {
        return best;
    }
    let local = ws.universe.query_local(q);
    let low = m & m.wrapping_neg();
    let rest = m & !low;
    // a = low ∪ s iterates over proper submasks of m holding the lowest bit
    let mut s = rest.wrapping_sub(1) & rest;
    loop {
        let a = low | s;
        let wa = ws.eff[local.table[a as usize].index()];
        if wa < best {
            // b = (m \ a) ∪ extra for every extra ⊊ a
            let r = m & !a;
            let mut extra = (a - 1) & a;
            loop {
                let b = r | extra;
                let wb = ws.eff[local.table[b as usize].index()];
                let total = wa.saturating_add(wb);
                if total < best {
                    best = total;
                }
                if extra == 0 {
                    break;
                }
                extra = (extra - 1) & a;
            }
        }
        if s == 0 || best.is_zero() {
            break;
        }
        s = (s - 1) & rest;
    }
    best
}

/// Per-property forcing: if a needed property of an alive query is contained
/// in exactly one usable classifier fitting the query, select it. A
/// selection drops its effective weight to 0, so its supersets are queued on
/// `work` for the next pass.
///
/// Only queries touched since their last scan are visited. A query's scan
/// reads its covered mask and which of its classifiers are usable; only a
/// selection or a Step-3 removal of one of its classifiers changes those
/// (a classifier that turns irrelevant occurs in no alive query), and
/// both touch every query the classifier occurs in.
fn select_forced(
    ws: &mut WorkState<'_>,
    stats: &mut PreprocessStats,
    work: &mut Worklist,
) -> Result<bool> {
    let mut changed = false;
    let nq = ws.instance.num_queries();
    let mut count = [0u32; mc3_core::MAX_QUERY_LEN];
    let mut last = [0u32; mc3_core::MAX_QUERY_LEN];
    for q in 0..nq {
        if !ws.alive[q] || !work.touched[q] {
            continue;
        }
        work.touched[q] = false;
        let need = ws.need(q);
        if need == 0 {
            ws.kill_query(q);
            continue;
        }
        let local = ws.universe.query_local(q);
        let len = local.len;
        count[..len].iter_mut().for_each(|c| *c = 0);
        // Only whether a needed bit has 0, 1 or more usable classifiers
        // matters, so the scan stops once every one has two.
        let (needed, mut settled) = (need.count_ones(), 0);
        for mask in 1..u32_of(local.table.len()) {
            let id = local.table[mask as usize];
            if id.is_none() || !ws.is_usable(id) {
                continue;
            }
            let mut bits = mask & need;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                count[b] += 1;
                last[b] = mask;
                settled += u32::from(count[b] == 2);
            }
            if settled == needed {
                break;
            }
        }
        let mut to_select: Option<u32> = None;
        let mut bits = need;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            match count[b] {
                0 => return Err(Mc3Error::Uncoverable { query_index: q }),
                1 => {
                    to_select = Some(last[b]);
                    break; // select one; coverage may change the rest
                }
                _ => {}
            }
        }
        if let Some(mask) = to_select {
            let id = ws.universe.query_local(q).table[mask as usize];
            let dropped = !ws.eff[id.index()].is_zero();
            ws.select(id);
            work.touch_occurrences(ws, id);
            if dropped {
                work.mark_supersets(ws, id);
            }
            stats.selected += 1;
            mc3_telemetry::span_add(mc3_telemetry::Counter::PreObs33Forced, 1);
            changed = true;
        }
    }
    Ok(changed)
}

/// Step 4 (`k ≤ 2`): replace a singleton by the pair classifiers
/// intersecting it when those cost no more in total. Guard: every alive
/// query containing the property must have a usable pair classifier,
/// otherwise removing the singleton could destroy coverability.
fn step4(ws: &mut WorkState<'_>, stats: &mut PreprocessStats) {
    use mc3_core::fxhash::FxHashMap;

    #[derive(Default)]
    struct PropInfo {
        singleton: Option<ClassifierId>,
        pairs: Vec<ClassifierId>,
        /// some alive query with this property lacks a usable pair classifier
        blocked: bool,
        /// the partner property of each pair (for the chain reaction)
        partners: Vec<u32>,
    }

    let mut info: FxHashMap<u32, PropInfo> = FxHashMap::default();
    for q in 0..ws.instance.num_queries() {
        if !ws.alive[q] {
            continue;
        }
        let local = ws.universe.query_local(q);
        if local.len != 2 {
            continue;
        }
        let props = ws.instance.queries()[q].ids();
        let (p0, p1) = (props[0].0, props[1].0);
        let s0 = local.table[0b01];
        let s1 = local.table[0b10];
        let pair = local.table[0b11];
        let pair_usable = !pair.is_none() && ws.is_usable(pair);
        {
            let e0 = info.entry(p0).or_default();
            if ws.is_usable(s0) {
                e0.singleton = Some(s0);
            }
            if pair_usable {
                e0.pairs.push(pair);
                e0.partners.push(p1);
            } else {
                e0.blocked = true;
            }
        }
        {
            let e1 = info.entry(p1).or_default();
            if ws.is_usable(s1) {
                e1.singleton = Some(s1);
            }
            if pair_usable {
                e1.pairs.push(pair);
                e1.partners.push(p0);
            } else {
                e1.blocked = true;
            }
        }
    }

    let mut worklist: Vec<u32> = info.keys().copied().collect();
    worklist.sort_unstable(); // determinism
    let mut queued: mc3_core::FxHashSet<u32> = worklist.iter().copied().collect();

    while let Some(p) = worklist.pop() {
        queued.remove(&p);
        let Some(pi) = info.get(&p) else { continue };
        if pi.blocked {
            continue;
        }
        let Some(singleton) = pi.singleton else {
            continue;
        };
        if !ws.is_usable(singleton) || ws.selected[singleton.index()] {
            continue;
        }
        let pair_total: Weight = pi.pairs.iter().map(|&c| ws.weight[c.index()]).sum();
        if pair_total <= ws.weight[singleton.index()] {
            let pairs = pi.pairs.clone();
            let partners = pi.partners.clone();
            for &pair in &pairs {
                if !ws.selected[pair.index()] && ws.is_usable(pair) {
                    ws.select(pair);
                    stats.selected += 1;
                }
            }
            ws.remove(singleton, Weight::INFINITE);
            stats.removed_by_singleton_pruning += 1;
            mc3_telemetry::span_add(mc3_telemetry::Counter::PreObs34Pruned, 1);
            // chain reaction: partners' sums just dropped to 0 for these pairs
            for partner in partners {
                if queued.insert(partner) {
                    worklist.push(partner);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc3_core::{ClassifierUniverse, Instance, PropSet, Weights, WeightsBuilder};

    fn ws_for(instance: &Instance) -> WorkState<'_> {
        let u = ClassifierUniverse::build(instance);
        WorkState::new(instance, u)
    }

    fn ps(ids: &[u32]) -> PropSet {
        PropSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn step1_selects_singleton_queries_and_covers() {
        let instance =
            Instance::new(vec![vec![0u32], vec![0u32, 1]], Weights::uniform(3u64)).unwrap();
        let mut ws = ws_for(&instance);
        let stats = preprocess(&mut ws, &PreprocessOptions::default()).unwrap();
        // X selected (singleton query) covers {0}; with X now free, Step 3
        // prices the decomposition {X, Y} of XY at 3 ≤ W(XY) and removes
        // XY, which forces Y for the remaining property.
        assert!(stats.selected >= 2);
        let x = ws.universe.id_of(&ps(&[0])).unwrap();
        let y = ws.universe.id_of(&ps(&[1])).unwrap();
        let xy = ws.universe.id_of(&ps(&[0, 1])).unwrap();
        assert!(ws.selected[x.index()]);
        assert!(ws.selected[y.index()]);
        assert!(ws.removed[xy.index()]);
        assert_eq!(ws.base_cost, Weight::new(6));
        assert_eq!(ws.alive_queries(), 0);
    }

    #[test]
    fn step1_selects_zero_weight_classifiers() {
        let w = WeightsBuilder::new()
            .classifier([0u32], 0u64)
            .classifier([1u32], 5u64)
            .classifier([0u32, 1], 4u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1]], w).unwrap();
        let mut ws = ws_for(&instance);
        preprocess(&mut ws, &PreprocessOptions::default()).unwrap();
        let x = ws.universe.id_of(&ps(&[0])).unwrap();
        assert!(ws.selected[x.index()]);
        // after X is free the query still needs y, coverable by Y (5) or XY
        // (4); Step 4 (k=2) then replaces Y with the cheaper pair set {XY}.
        assert_eq!(ws.base_cost, Weight::new(4));
        assert_eq!(ws.alive_queries(), 0);
        let y = ws.universe.id_of(&ps(&[1])).unwrap();
        assert!(ws.removed[y.index()]);
    }

    #[test]
    fn step3_removes_dominated_classifier() {
        // W(X)=W(Y)=1, W(XY)=3 → XY removed (illustration of Obs. 3.3)
        let w = WeightsBuilder::new()
            .classifier([0u32], 1u64)
            .classifier([1u32], 1u64)
            .classifier([0u32, 1], 3u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1]], w).unwrap();
        let mut ws = ws_for(&instance);
        let stats = preprocess(&mut ws, &PreprocessOptions::default()).unwrap();
        let xy = ws.universe.id_of(&ps(&[0, 1])).unwrap();
        assert!(ws.removed[xy.index()]);
        // the recorded replacement starts at W(X)+W(Y) = 2 and may be
        // refreshed downward once the forced selections zero those weights
        assert!(ws.eff[xy.index()] <= Weight::new(2));
        assert_eq!(stats.removed_by_decomposition, 1);
        // with XY gone, X and Y are forced
        let x = ws.universe.id_of(&ps(&[0])).unwrap();
        let y = ws.universe.id_of(&ps(&[1])).unwrap();
        assert!(ws.selected[x.index()] && ws.selected[y.index()]);
        assert_eq!(ws.base_cost, Weight::new(2));
        assert_eq!(ws.alive_queries(), 0);
    }

    #[test]
    fn step3_keeps_cheap_combined_classifier() {
        // W(X)=W(Y)=5, W(XY)=3 → XY kept; singletons not removable (no decomposition)
        let w = WeightsBuilder::new()
            .classifier([0u32], 5u64)
            .classifier([1u32], 5u64)
            .classifier([0u32, 1], 3u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1]], w).unwrap();
        let mut ws = ws_for(&instance);
        preprocess(&mut ws, &PreprocessOptions::default()).unwrap();
        let xy = ws.universe.id_of(&ps(&[0, 1])).unwrap();
        assert!(!ws.removed[xy.index()]);
    }

    #[test]
    fn step3_recursive_decomposition() {
        // Cheap singletons dominate every longer classifier: all pairs and
        // the triple are removed (each decomposes into singletons at equal
        // or lower cost, recursively through removed pairs), after which
        // the three singletons are forced and cover the query.
        let w = WeightsBuilder::new()
            .classifier([0u32], 1u64)
            .classifier([1u32], 1u64)
            .classifier([2u32], 1u64)
            .classifier([0u32, 1], 2u64) // X+Y = 2 ≤ 2 → removed
            .classifier([0u32, 2], 9u64) // X+Z = 2 ≤ 9 → removed
            .classifier([1u32, 2], 9u64)
            .classifier([0u32, 1, 2], 3u64) // e.g. XY(eff 2) + Z(1) = 3 ≤ 3 → removed
            .build();
        let instance = Instance::new(vec![vec![0u32, 1, 2]], w).unwrap();
        let mut ws = ws_for(&instance);
        let stats = preprocess(&mut ws, &PreprocessOptions::default()).unwrap();
        let xyz = ws.universe.id_of(&ps(&[0, 1, 2])).unwrap();
        assert!(ws.removed[xyz.index()]);
        assert_eq!(stats.removed_by_decomposition, 4);
        assert_eq!(ws.base_cost, Weight::new(3)); // forced X, Y, Z
        assert_eq!(ws.alive_queries(), 0);
    }

    #[test]
    fn step3_uses_recursive_replacement_costs() {
        // Z is expensive, so the only cheap route to XYZ is via the removed
        // XY (eff 2) plus Z — the recursive replacement must price XY at 2,
        // not at its original weight 6.
        let w = WeightsBuilder::new()
            .classifier([0u32], 1u64)
            .classifier([1u32], 1u64)
            .classifier([2u32], 4u64)
            .classifier([0u32, 1], 6u64) // removed: X+Y = 2 ≤ 6, eff 2
            .classifier([0u32, 2], 20u64)
            .classifier([1u32, 2], 20u64)
            .classifier([0u32, 1, 2], 6u64) // XY(eff 2) + Z(4) = 6 ≤ 6 → removed
            .build();
        let instance = Instance::new(vec![vec![0u32, 1, 2]], w).unwrap();
        let mut ws = ws_for(&instance);
        preprocess(&mut ws, &PreprocessOptions::default()).unwrap();
        let xy = ws.universe.id_of(&ps(&[0, 1])).unwrap();
        let xyz = ws.universe.id_of(&ps(&[0, 1, 2])).unwrap();
        assert!(ws.removed[xy.index()]);
        assert!(
            ws.removed[xyz.index()],
            "XYZ must fall to the recursive decomposition via removed XY"
        );
    }

    #[test]
    fn forced_selection_detects_unique_cover() {
        // query {0,1}: only X and XY have finite weight; Y absent (infinite).
        // Property 1 (y) is only covered by XY → XY forced, covers query.
        let w = WeightsBuilder::new()
            .classifier([0u32], 1u64)
            .classifier([0u32, 1], 7u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1]], w).unwrap();
        let mut ws = ws_for(&instance);
        preprocess(&mut ws, &PreprocessOptions::default()).unwrap();
        let xy = ws.universe.id_of(&ps(&[0, 1])).unwrap();
        assert!(ws.selected[xy.index()]);
        assert_eq!(ws.alive_queries(), 0);
        assert_eq!(ws.base_cost, Weight::new(7));
    }

    #[test]
    fn uncoverable_property_reported() {
        // property 1 appears in no finite-weight classifier
        let w = WeightsBuilder::new().classifier([0u32], 1u64).build();
        let instance = Instance::new(vec![vec![0u32, 1]], w).unwrap();
        let mut ws = ws_for(&instance);
        let err = preprocess(&mut ws, &PreprocessOptions::default()).unwrap_err();
        assert!(matches!(err, Mc3Error::Uncoverable { query_index: 0 }));
    }

    #[test]
    fn step4_replaces_expensive_singleton_with_pairs() {
        // x in queries {x,y} and {x,z}; W(X)=10, pairs cost 3+3=6 ≤ 10 →
        // select XY, XZ, remove X; queries die.
        let w = WeightsBuilder::new()
            .classifier([0u32], 10u64)
            .classifier([1u32], 10u64)
            .classifier([2u32], 10u64)
            .classifier([0u32, 1], 3u64)
            .classifier([0u32, 2], 3u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1], vec![0u32, 2]], w).unwrap();
        let mut ws = ws_for(&instance);
        let stats = preprocess(&mut ws, &PreprocessOptions::default()).unwrap();
        assert_eq!(ws.alive_queries(), 0);
        assert_eq!(ws.base_cost, Weight::new(6));
        assert!(stats.removed_by_singleton_pruning >= 1);
    }

    #[test]
    fn disabled_options_do_nothing() {
        let instance =
            Instance::new(vec![vec![0u32], vec![1u32, 2]], Weights::uniform(1u64)).unwrap();
        let mut ws = ws_for(&instance);
        let stats = preprocess(&mut ws, &PreprocessOptions::disabled()).unwrap();
        assert_eq!(stats.selected, 0);
        assert_eq!(ws.alive_queries(), 2);
        assert_eq!(ws.base_cost, Weight::ZERO);
    }

    #[test]
    fn preprocessing_preserves_optimal_cost_on_paper_example() {
        // Example 1.1: optimum {AC, AJ, W} = 7
        // props: j=0, w=1, a=2, c=3
        let w = WeightsBuilder::new()
            .classifier([3u32], 5u64)
            .classifier([2u32], 5u64)
            .classifier([0u32], 5u64)
            .classifier([1u32], 1u64)
            .classifier([2u32, 3], 3u64)
            .classifier([1u32, 2], 5u64)
            .classifier([0u32, 2], 3u64)
            .classifier([0u32, 1], 4u64)
            .classifier([0u32, 1, 2], 5u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1, 2], vec![2u32, 3]], w).unwrap();
        let mut ws = ws_for(&instance);
        preprocess(&mut ws, &PreprocessOptions::default()).unwrap();
        // preprocessing must not push the reachable optimum above 7:
        // verify no selected classifier set costs more than 7 and the
        // residual remains coverable within 7 - base.
        assert!(ws.base_cost <= Weight::new(7));
    }
}

//! The traced replay of one solve: the public functions `Mc3Solver::solve_report`
//! calls, in its order, each inside a layer span.
//!
//! The component cache consult mirrors the solver's own (canonicalize →
//! lookup → remap and re-verify → confirm or miss → solve → insert), built
//! from the public `canon` and `SolveCache` APIs. The replay keys its own
//! local cache, so it does not need the solver's private key derivation.

use crate::report::{Layers, Outcome};
use crate::trace::Tracer;
use mc3_core::canon::{self, Canonical};
use mc3_core::{
    ClassifierId, ClassifierUniverse, FxHashMap, Instance, InstanceStats, PropSet, Solution,
    StableHasher, Weight,
};
use mc3_solver::cache::{CachedOutcome, CachedSolve};
use mc3_solver::components::connected_components;
use mc3_solver::general::solve_general_scratch;
use mc3_solver::preprocess::preprocess;
use mc3_solver::work::WorkState;
use mc3_solver::{
    reduce_to_wsc_with, PreprocessOptions, ReductionScratch, SolveCache, SolverConfig,
};

/// Counts read from the public return values of one replayed solve.
#[derive(Debug, Default, Clone, Copy)]
pub struct SolveCounts {
    /// `ClassifierUniverse::len()`.
    pub classifiers: u64,
    /// `PreprocessStats::passes`.
    pub passes: u64,
    /// Classifiers removed by preprocessing.
    pub removed: u64,
    /// Residual components.
    pub components: u64,
    /// Components whose canonicalization ran out of budget.
    pub canon_exhausted: u64,
    /// Component cache lookups and verified hits.
    pub lookups: u64,
    /// Verified component cache hits.
    pub hits: u64,
}

impl SolveCounts {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &SolveCounts) {
        self.classifiers += o.classifiers;
        self.passes += o.passes;
        self.removed += o.removed;
        self.components += o.components;
        self.canon_exhausted += o.canon_exhausted;
        self.lookups += o.lookups;
        self.hits += o.hits;
    }
}

/// Puts the per-layer metrics of the replayed solve stages: mean self
/// time and mean count per traced operation.
pub fn put_solve_layers(out: &mut Outcome, layers: &Layers, counts: &SolveCounts) {
    for (metric, span) in [
        ("core.universe.build_ms", "core.universe"),
        ("solver.preprocess.step1_ms", "solver.preprocess.step1"),
        ("solver.preprocess.step3_ms", "solver.preprocess.step3"),
        ("solver.components.ms", "solver.components"),
        ("core.canon.ms", "core.canon"),
        ("solver.cache.ms", "solver.cache"),
        ("solver.reduction.ms", "solver.reduction"),
        ("solver.general.ms", "solver.general"),
        ("solver.assemble_ms", "solver.assemble"),
    ] {
        out.put(metric, layers.ms(span));
    }
    for (metric, count) in [
        ("core.universe.classifiers", counts.classifiers),
        ("solver.preprocess.passes", counts.passes),
        ("solver.preprocess.removed", counts.removed),
        ("solver.components.count", counts.components),
        ("core.canon.budget_exhausted", counts.canon_exhausted),
    ] {
        out.put(metric, count as f64 / layers.ops.max(1) as f64);
    }
}

/// Replays one solve of `instance` (algorithm `general`, the solver's
/// default preprocessing and WSC settings), consulting `cache` per
/// component when given. Returns the solution and its counts.
pub fn solve_traced(
    tr: &mut Tracer,
    instance: &Instance,
    cache: Option<&SolveCache>,
    scratch: &mut ReductionScratch,
) -> mc3_core::Result<(Solution, SolveCounts)> {
    let cfg = SolverConfig::default();
    let mut counts = SolveCounts::default();
    let kp = instance.max_query_len().max(1);

    let mut ws = tr.time("core.universe", || {
        let universe = ClassifierUniverse::build_bounded(instance, kp);
        std::hint::black_box(InstanceStats::gather_with_universe(instance, &universe));
        WorkState::new(instance, universe)
    });
    counts.classifiers = ws.universe.len() as u64;

    let step1 = PreprocessOptions {
        decomposition: false,
        k2_singleton_pruning: false,
        ..cfg.preprocess
    };
    let step3 = PreprocessOptions {
        singletons_and_zero: false,
        ..cfg.preprocess
    };
    let s1 = tr.time("solver.preprocess.step1", || preprocess(&mut ws, &step1))?;
    let s3 = tr.time("solver.preprocess.step3", || preprocess(&mut ws, &step3))?;
    counts.passes = (s1.passes + s3.passes) as u64;
    counts.removed = (s1.removed_by_decomposition
        + s1.removed_by_singleton_pruning
        + s3.removed_by_decomposition
        + s3.removed_by_singleton_pruning) as u64;

    let comps = tr.time("solver.components", || {
        connected_components(instance.queries(), &ws.alive_query_indices())
    });
    counts.components = comps.len() as u64;

    let canonicals: Vec<Option<Canonical>> = match cache {
        Some(_) => comps
            .iter()
            .map(|comp| {
                let c = tr.time("core.canon", || component_canonical(&ws, comp, kp));
                counts.canon_exhausted += u64::from(c.is_none());
                c
            })
            .collect(),
        None => comps.iter().map(|_| None).collect(),
    };

    let mut picked: Vec<ClassifierId> = Vec::new();
    for (comp, canonical) in comps.iter().zip(&canonicals) {
        let consult = cache.zip(canonical.as_ref());
        if let Some((cache, canonical)) = consult {
            counts.lookups += 1;
            let hit = tr.time("solver.cache", || lookup(cache, &ws, comp, canonical));
            if let Some(ids) = hit? {
                counts.hits += 1;
                picked.extend(ids);
                continue;
            }
        }
        tr.time("solver.reduction", || {
            let red = reduce_to_wsc_with(&ws, comp, scratch);
            scratch.recycle(red);
        });
        let ids = tr.time("solver.general", || {
            solve_general_scratch(
                &ws,
                comp,
                cfg.wsc_strategy,
                cfg.lp_limits,
                cfg.refine_wsc,
                scratch,
            )
        })?;
        if let Some((cache, canonical)) = consult {
            tr.time("solver.cache", || {
                if let Some(entry) = canonical_sets(&ws, canonical, &ids) {
                    cache.insert(key_of(canonical), entry);
                }
            });
        }
        picked.extend(ids);
    }

    let solution = tr.time("solver.assemble", || {
        picked.extend(ws.selected_ids().iter().copied());
        Solution::from_ids(&ws.universe, picked)
    });
    // Releasing the universe is part of its cost.
    tr.time("core.universe", || drop(ws));
    Ok((solution, counts))
}

fn key_of(canonical: &Canonical) -> u128 {
    let mut h = StableHasher::new();
    h.write_u64((canonical.fingerprint() >> 64) as u64);
    h.write_u64(canonical.fingerprint() as u64);
    h.finish128()
}

/// The residual component with the live weight oracle: removed or absent
/// classifiers cost ∞, selected ones 0 (`WorkState::weight`).
fn component_canonical(ws: &WorkState<'_>, comp: &[usize], kp: usize) -> Option<Canonical> {
    let queries: Vec<(&mc3_core::Query, u32)> = comp
        .iter()
        .map(|&q| (&ws.instance.queries()[q], ws.covered[q]))
        .collect();
    canon::canonicalize(&queries, kp, canon::DEFAULT_BUDGET, |qi, mask| {
        let id = ws.universe.query_local(comp[qi]).table[mask as usize];
        if id.is_none() || !ws.is_available(id) {
            Weight::INFINITE
        } else {
            ws.weight[id.index()]
        }
    })
}

/// Lookup plus re-verification. `Ok(Some)` is a confirmed hit, `Ok(None)`
/// a recorded miss. A cached "uncoverable" verdict is an error: the
/// benchmark's inputs are all coverable.
fn lookup(
    cache: &SolveCache,
    ws: &WorkState<'_>,
    comp: &[usize],
    canonical: &Canonical,
) -> mc3_core::Result<Option<Vec<ClassifierId>>> {
    let key = key_of(canonical);
    match cache.lookup_outcome(key) {
        Some(CachedOutcome::Solved(cached)) => {
            if let Some(ids) = remap_verified(ws, comp, canonical, &cached) {
                cache.confirm_hit(key);
                return Ok(Some(ids));
            }
            cache.reject(key);
        }
        Some(CachedOutcome::Uncoverable) => {
            return Err(mc3_core::Mc3Error::Internal(
                "replay cache holds an uncoverable verdict".into(),
            ))
        }
        None => {}
    }
    cache.note_miss(key);
    Ok(None)
}

/// Maps a cached canonical solution onto this component and checks that
/// every classifier is usable, the cost matches and the residual need of
/// every query is covered.
fn remap_verified(
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
        let id = ws.universe.id_of(&PropSet::from_ids(props?))?;
        if !ws.is_usable(id) {
            return None;
        }
        total = total.saturating_add(ws.weight[id.index()]);
        ids.push(id);
    }
    if total.is_infinite() || total.raw() != cached.cost_raw {
        return None;
    }
    let pos_of: FxHashMap<u32, usize> = comp
        .iter()
        .enumerate()
        .map(|(i, &q)| (q as u32, i))
        .collect();
    let mut union = vec![0u32; comp.len()];
    for &id in &ids {
        for (q, mask) in ws.occurrences(id) {
            if let Some(&i) = pos_of.get(&q) {
                union[i] |= mask;
            }
        }
    }
    comp.iter()
        .enumerate()
        .all(|(i, &q)| union[i] & ws.need(q) == ws.need(q))
        .then_some(ids)
}

/// A fresh component solution in canonical ids, for insertion.
fn canonical_sets(
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

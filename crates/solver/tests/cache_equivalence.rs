//! Cache correctness properties over a 200-instance seeded corpus:
//!
//! * **cache-on ≡ cache-off** — solving with a fresh `SolveCache` is
//!   byte-identical to solving without one (first touch always misses
//!   and returns the uncached result), and re-solving the same instance
//!   against the warm cache reproduces the same cost with a valid cover
//!   served from the hit path;
//! * **relabel-invariance** — for a random property/query permutation
//!   `π`, solving `π(I)` against a cache warmed by `I` answers every
//!   component from the cache (the canonical fingerprints agree) and
//!   yields the cost of `solve(I)` with a remap-consistent, verifying
//!   solution;
//! * **symmetric components** — 20 disjoint uniform-cost queries of
//!   length 7 each canonicalize within the budget: one miss, 19 hits.

use mc3_core::rng::prelude::*;
use mc3_core::{Instance, PropId, PropSet, Weights};
use mc3_solver::{Algorithm, Mc3Solver, SolveCache};
use std::sync::Arc;

const CASES: u64 = 200;

/// A small random instance: up to 12 properties, up to 8 queries of
/// length 1..=4, seeded weights.
fn random_instance(seed: u64) -> (Vec<Vec<u32>>, Instance) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    let n_props = rng.gen_range(4..=12u32);
    let n_queries = rng.gen_range(2..=8usize);
    let mut queries = Vec::with_capacity(n_queries);
    for _ in 0..n_queries {
        let len = rng.gen_range(1..=4usize);
        let mut ids: Vec<u32> = (0..n_props).collect();
        ids.shuffle(&mut rng);
        let mut q = ids[..len.min(ids.len())].to_vec();
        q.sort_unstable();
        queries.push(q);
    }
    let instance =
        Instance::new(queries.clone(), Weights::seeded(seed, 1, 30)).expect("valid instance");
    (queries, instance)
}

fn solver(cache: Option<&Arc<SolveCache>>) -> Mc3Solver {
    let s = Mc3Solver::new()
        .algorithm(Algorithm::General)
        .without_preprocessing();
    match cache {
        Some(c) => s.cache(Arc::clone(c)),
        None => s,
    }
}

#[test]
fn cache_on_equals_cache_off() {
    for seed in 0..CASES {
        let (_, instance) = random_instance(seed);
        let cold = solver(None).solve(&instance).expect("uncached solve");
        cold.verify(&instance).expect("uncached cover");

        let cache = Arc::new(SolveCache::with_capacity_mb(8));
        let first = solver(Some(&cache)).solve(&instance).expect("cached solve");
        assert_eq!(
            cold.classifiers(),
            first.classifiers(),
            "seed {seed}: a fresh cache must not change the solution"
        );
        assert_eq!(cold.cost(), first.cost(), "seed {seed}");

        let stats = cache.stats();
        assert_eq!(stats.hits, 0, "seed {seed}: fresh cache cannot hit");
        assert!(stats.misses > 0, "seed {seed}: components must consult");

        let warm = solver(Some(&cache)).solve(&instance).expect("warm solve");
        warm.verify(&instance).expect("seed {seed}: warm cover");
        assert_eq!(cold.cost(), warm.cost(), "seed {seed}: warm cost drifted");
        assert!(
            cache.stats().hits > 0,
            "seed {seed}: identical re-solve must hit"
        );
    }
}

#[test]
fn relabeled_instances_are_served_from_the_cache() {
    let mut perm_rng = StdRng::seed_from_u64(0xF1_CA);
    for seed in 0..CASES {
        let (queries, instance) = random_instance(seed);
        let n_props = 1 + queries
            .iter()
            .flat_map(|q| q.iter().copied())
            .max()
            .unwrap_or(0);

        // π: a random property relabeling plus a query-order shuffle,
        // with weights transported so π(I) is isomorphic to I.
        let mut perm: Vec<u32> = (0..n_props).collect();
        perm.shuffle(&mut perm_rng);
        let inv = {
            let mut inv = vec![0u32; n_props as usize];
            for (i, &p) in perm.iter().enumerate() {
                inv[p as usize] = i as u32;
            }
            inv
        };
        let mut permuted: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| {
                let mut q: Vec<u32> = q.iter().map(|&p| perm[p as usize]).collect();
                q.sort_unstable();
                q
            })
            .collect();
        permuted.shuffle(&mut perm_rng);
        let base_weights = Weights::seeded(seed, 1, 30);
        let transported = Weights::custom(move |s: &PropSet| {
            base_weights.weight(&PropSet::from_ids(s.iter().map(|p| PropId(inv[p.index()]))))
        });
        let pi_instance = Instance::new(permuted, transported).expect("valid instance");

        let cache = Arc::new(SolveCache::with_capacity_mb(8));
        let base = solver(Some(&cache))
            .solve_report(&instance)
            .expect("warming solve");
        let hits_before = cache.stats().hits;

        let pi = solver(Some(&cache))
            .solve_report(&pi_instance)
            .expect("relabeled solve");
        pi.solution
            .verify(&pi_instance)
            .expect("remapped cover must verify");
        let hits = cache.stats().hits - hits_before;
        assert_eq!(
            hits as usize, pi.components,
            "seed {seed}: every component of π(I) must be answered from the cache"
        );
        assert_eq!(
            base.solution.cost(),
            pi.solution.cost(),
            "seed {seed}: relabeling changed the served cost"
        );
    }
}

#[test]
fn parallel_workers_share_the_cache() {
    // Disjoint copies of the same component shape: the duplicate-heavy
    // serving pattern, all in one instance.
    let mut queries = Vec::new();
    for c in 0..8u32 {
        let base = c * 4;
        queries.push(vec![base, base + 1, base + 2]);
        queries.push(vec![base + 1, base + 2, base + 3]);
    }
    let instance = Instance::new(queries, Weights::uniform(3u64)).expect("valid instance");
    let cold = solver(None).solve(&instance).expect("uncached");
    let cache = Arc::new(SolveCache::with_capacity_mb(8));
    let par = solver(Some(&cache))
        .parallel(true)
        .solve(&instance)
        .expect("parallel cached");
    par.verify(&instance).expect("parallel cover");
    assert_eq!(cold.cost(), par.cost());
    let warm = solver(Some(&cache))
        .parallel(true)
        .solve(&instance)
        .expect("warm parallel");
    warm.verify(&instance).expect("warm cover");
    assert_eq!(cold.cost(), warm.cost());
    let stats = cache.stats();
    assert!(stats.hits >= 8, "second pass must be served from the cache");
}

#[test]
fn negative_verdicts_memoize_and_replay() {
    use mc3_core::{Mc3Error, Weight, WeightsBuilder};
    for seed in 0..50u64 {
        // Three two-property components; the seed picks which one stays
        // all-infinite (uncoverable), so the verdict's query index
        // varies — the replayed error must name the right query.
        let queries = vec![vec![0u32, 1], vec![2u32, 3], vec![4u32, 5]];
        let bad = (seed % 3) as u32;
        let cost = 1 + seed % 7;
        let mut b = WeightsBuilder::new().default_weight(Weight::INFINITE);
        for c in 0..3u32 {
            if c != bad {
                b = b
                    .classifier([2 * c], cost)
                    .classifier([2 * c + 1], cost + 1);
            }
        }
        let instance = Instance::new(queries, b.build()).expect("valid instance");
        // Instance::new canonicalizes query order, so locate the
        // uncoverable query in the instance, not the input.
        let bad_index = instance
            .queries()
            .iter()
            .position(|q| q.iter().map(|p| p.0).eq([2 * bad, 2 * bad + 1]))
            .expect("uncoverable query present");
        let expected = Mc3Error::Uncoverable {
            query_index: bad_index,
        };

        let uncached = solver(None).solve(&instance).expect_err("uncoverable");
        assert_eq!(uncached, expected, "seed {seed}: uncached verdict");

        let cache = Arc::new(SolveCache::with_capacity_mb(4));
        let cold = solver(Some(&cache))
            .solve(&instance)
            .expect_err("uncoverable");
        assert_eq!(cold, expected, "seed {seed}: cold cached verdict");
        assert_eq!(
            cache.stats().negative_hits,
            0,
            "seed {seed}: a fresh cache cannot hit"
        );

        let warm = solver(Some(&cache))
            .solve(&instance)
            .expect_err("uncoverable");
        assert_eq!(warm, expected, "seed {seed}: replayed verdict drifted");
        assert!(
            cache.stats().negative_hits > 0,
            "seed {seed}: the second solve must replay the memoized verdict"
        );

        // The parallel path replays the same verdict too.
        let par = solver(Some(&cache))
            .parallel(true)
            .solve(&instance)
            .expect_err("uncoverable");
        assert_eq!(par, expected, "seed {seed}: parallel cached verdict");
    }
}

#[test]
fn k2_pipeline_uses_the_cache_too() {
    let mut queries = Vec::new();
    for c in 0..6u32 {
        let base = c * 3;
        queries.push(vec![base, base + 1]);
        queries.push(vec![base + 1, base + 2]);
    }
    let instance = Instance::new(queries, Weights::seeded(11, 1, 9)).expect("valid instance");
    let cache = Arc::new(SolveCache::with_capacity_mb(4));
    let run = || {
        Mc3Solver::new()
            .algorithm(Algorithm::K2Exact)
            .cache(Arc::clone(&cache))
            .solve(&instance)
            .expect("k2 solve")
    };
    let a = run();
    let b = run();
    a.verify(&instance).expect("cover");
    b.verify(&instance).expect("cover");
    assert_eq!(a.cost(), b.cost());
    assert!(cache.stats().hits > 0, "k2 components must hit on re-solve");
}

#[test]
fn prebuilt_inventory_bypasses_the_cache() {
    let (_, instance) = random_instance(7);
    let cache = Arc::new(SolveCache::with_capacity_mb(4));
    let prebuilt = vec![PropSet::from_ids([instance.queries()[0]
        .ids()
        .first()
        .copied()
        .expect("non-empty query")])];
    let report = Mc3Solver::new()
        .algorithm(Algorithm::General)
        .cache(Arc::clone(&cache))
        .prebuilt(prebuilt)
        .solve_report(&instance)
        .expect("prebuilt solve");
    assert!(mc3_core::is_cover(&instance, &report.full_cover()));
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 0, 0),
        "prebuilt solves must not touch the shared cache"
    );
}

#[test]
fn symmetric_components_are_fingerprinted_and_shared() {
    // 20 disjoint uniform-cost queries of length 7: every property of a
    // query is interchangeable, so the canonical search tree has 7!
    // leaves unless automorphisms prune it. Each component must
    // canonicalize within the default budget: the first one misses, the
    // other 19 are answered from its entry.
    let queries: Vec<Vec<u32>> = (0..20u32).map(|c| (7 * c..7 * c + 7).collect()).collect();
    let instance = Instance::new(queries, Weights::uniform(1u64)).expect("valid instance");
    let served = |cache: Option<&Arc<SolveCache>>| {
        let s = Mc3Solver::new().algorithm(Algorithm::General);
        match cache {
            Some(c) => s.cache(Arc::clone(c)),
            None => s,
        }
    };
    let cold = served(None).solve(&instance).expect("uncached solve");
    let cache = Arc::new(SolveCache::with_capacity_mb(8));
    let cached = served(Some(&cache)).solve(&instance).expect("cached solve");
    cached.verify(&instance).expect("cached cover");
    assert_eq!(cold.cost(), cached.cost());
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits), (1, 19), "{stats:?}");
}

//! Cache correctness properties over a 200-instance seeded corpus:
//!
//! * **cache-on ≡ cache-off** — solving with a fresh `SolveCache` is
//!   byte-identical to solving without one (first touch always misses
//!   and returns the uncached result), and re-solving the same instance
//!   against the warm cache reproduces the same cost with a valid cover
//!   served from the hit path;
//! * **admission** — a shape is solved uncached on its first sighting and
//!   fingerprinted, solved fresh and inserted on its second, so the
//!   second solve of a one-component instance still returns the
//!   cache-off classifiers and only the third hits;
//! * **relabel-invariance** — for a random property/query permutation
//!   `π`, solving `π(I)` against a cache warmed by two solves of `I`
//!   answers every component from the cache (the canonical fingerprints
//!   agree) and yields the cost of `solve(I)` with a remap-consistent,
//!   verifying solution;
//! * **symmetric components** — 20 disjoint uniform-cost queries of
//!   length 7 each canonicalize within the budget: one first sighting,
//!   one miss that inserts, 18 hits;
//! * **a cache solves each repeated shape once** — on replicated shapes,
//!   a cached solve consults once per component, inserts once per miss
//!   that is not a first sighting, and sees each shape for the first
//!   time at most once;
//! * **concurrent solvers share one cache** — the server's pattern: two
//!   threads, each with its own solver, solve against one `SolveCache`
//!   at the uncached cost and consult once per component between them.
//!   Both may miss on one shape, so hits and the concrete classifiers
//!   are not pinned there; a warm re-solve is answered from the cache.
//!
//! Hits, misses, first sightings and negative hits are telemetry
//! counters, so each case solves under a telemetry [`Session`] and reads
//! them from [`mc3_telemetry::live_report`]. The session gate is
//! process-wide: a solve on another test's thread would file into it, so
//! every test in this binary solves only while it holds a session.

mod common;

use common::replicated_instance;
use mc3_core::rng::prelude::*;
use mc3_core::{Instance, PropId, PropSet, Weights};
use mc3_solver::{Algorithm, Mc3Solver, SolveCache};
use mc3_telemetry::Session;
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

/// The total of counter `name` (`"cache_hits"`, …) recorded so far in
/// the session the caller holds.
fn counter(name: &str) -> u64 {
    mc3_telemetry::live_report().counters[name]
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
        let _session = Session::begin();
        let cold = solver(None).solve(&instance).expect("uncached solve");
        cold.verify(&instance).expect("uncached cover");

        let cache = Arc::new(SolveCache::with_capacity_mb(8));
        let first = solver(Some(&cache))
            .solve_report(&instance)
            .expect("cached solve");
        assert_eq!(
            cold.classifiers(),
            first.solution.classifiers(),
            "seed {seed}: a fresh cache must not change the solution"
        );
        assert_eq!(cold.cost(), first.solution.cost(), "seed {seed}");

        let (misses, first_sightings) = (counter("cache_misses"), counter("cache_first_sightings"));
        assert_eq!(
            counter("cache_hits"),
            0,
            "seed {seed}: fresh cache cannot hit"
        );
        assert_eq!(
            misses, first.components as u64,
            "seed {seed}: every component consults once"
        );
        assert!(first_sightings > 0, "seed {seed}");
        // No entry is evicted from 8 MiB, so entries count insertions.
        assert_eq!(
            cache.stats().entries,
            misses - first_sightings,
            "seed {seed}: every miss but a first sighting inserts"
        );

        // The second solve inserts every shape; the third hits them all.
        let warm = |round: u32| {
            let warm = solver(Some(&cache)).solve(&instance).expect("warm solve");
            warm.verify(&instance).expect("seed {seed}: warm cover");
            assert_eq!(
                cold.cost(),
                warm.cost(),
                "seed {seed}: solve {round} drifted the cost"
            );
        };
        warm(2);
        let hits_before = counter("cache_hits");
        warm(3);
        assert_eq!(
            counter("cache_hits") - hits_before,
            first.components as u64,
            "seed {seed}: the third identical solve must hit every component"
        );
    }
}

#[test]
fn second_sightings_solve_fresh_then_hit() {
    // Every query also holds the shared property 100, so each instance is
    // one component: solve 1 is its first sighting, solve 2 fingerprints,
    // misses and inserts, solve 3 hits.
    for seed in 0..CASES {
        let (mut queries, _) = random_instance(seed);
        for q in &mut queries {
            q.push(100);
        }
        let instance =
            Instance::new(queries, Weights::seeded(seed, 1, 30)).expect("valid instance");
        let _session = Session::begin();
        let cold = solver(None).solve(&instance).expect("uncached solve");
        let cache = Arc::new(SolveCache::with_capacity_mb(8));
        let solve = || solver(Some(&cache)).solve(&instance).expect("cached solve");
        let first = solve();
        let second = solve();
        assert_eq!(
            cold.classifiers(),
            first.classifiers(),
            "seed {seed}: first sighting"
        );
        assert_eq!(
            cold.classifiers(),
            second.classifiers(),
            "seed {seed}: a non-cached second solve must return the cache-off classifiers"
        );
        let third = solve();
        third.verify(&instance).expect("seed {seed}: served cover");
        assert_eq!(cold.cost(), third.cost(), "seed {seed}: served cost");
        assert_eq!(
            (
                counter("cache_first_sightings"),
                counter("cache_misses"),
                cache.stats().entries,
                counter("cache_hits")
            ),
            (1, 2, 1, 1),
            "seed {seed}"
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

        // Two solves of I: the first sights every shape, the second
        // inserts it.
        let _session = Session::begin();
        let cache = Arc::new(SolveCache::with_capacity_mb(8));
        let base = solver(Some(&cache))
            .solve_report(&instance)
            .expect("warming solve");
        let again = solver(Some(&cache))
            .solve_report(&instance)
            .expect("warming solve");
        assert_eq!(base.solution.cost(), again.solution.cost(), "seed {seed}");
        let hits_before = counter("cache_hits");

        let pi = solver(Some(&cache))
            .solve_report(&pi_instance)
            .expect("relabeled solve");
        pi.solution
            .verify(&pi_instance)
            .expect("remapped cover must verify");
        let hits = counter("cache_hits") - hits_before;
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

/// Copies of one shape in each replicated instance.
const COPIES: u32 = 4;

#[test]
fn cached_solves_solve_each_repeated_shape_once() {
    // The first copy of a shape is a first sighting, the second misses
    // and inserts, and every later copy consults the entry it left.
    for seed in 0..40 {
        let instance = replicated_instance(seed, COPIES);
        let _session = Session::begin();
        let uncached = Mc3Solver::new()
            .without_preprocessing()
            .solve(&instance)
            .expect("uncached solve");
        let cache = Arc::new(SolveCache::with_capacity_mb(8));
        let report = Mc3Solver::new()
            .without_preprocessing()
            .cache(Arc::clone(&cache))
            .solve_report(&instance)
            .expect("cached solve");
        report.solution.verify(&instance).expect("cached cover");
        assert_eq!(uncached.cost(), report.solution.cost(), "seed {seed}");
        let (hits, misses) = (counter("cache_hits"), counter("cache_misses"));
        let first_sightings = counter("cache_first_sightings");
        let components = report.components as u64;
        assert_eq!(
            hits + misses,
            components,
            "seed {seed}: every component consults once"
        );
        // No entry is evicted from 8 MiB, so entries count insertions.
        assert_eq!(
            cache.stats().entries,
            misses - first_sightings,
            "seed {seed}: every miss but a first sighting inserts"
        );
        assert!(
            first_sightings <= components / u64::from(COPIES)
                && misses <= 2 * components / u64::from(COPIES),
            "seed {seed}: {first_sightings} first sightings and {misses} misses \
             for {components} components in {COPIES} copies"
        );
    }
}

#[test]
fn concurrent_solvers_share_the_cache() {
    for seed in 0..40 {
        let instance = replicated_instance(seed, COPIES);
        let _session = Session::begin();
        let uncached = Mc3Solver::new()
            .without_preprocessing()
            .solve(&instance)
            .expect("uncached solve");
        let cache = Arc::new(SolveCache::with_capacity_mb(8));
        let solve = || {
            let report = Mc3Solver::new()
                .without_preprocessing()
                .cache(Arc::clone(&cache))
                .solve_report(&instance)
                .expect("cached solve");
            report.solution.verify(&instance).expect("cached cover");
            assert_eq!(
                uncached.cost(),
                report.solution.cost(),
                "seed {seed}: the cache drifted the cost"
            );
            report
        };
        let components: u64 = std::thread::scope(|s| {
            let threads = [s.spawn(solve), s.spawn(solve)];
            threads
                .map(|t| t.join().expect("solver thread").components as u64)
                .iter()
                .sum()
        });
        let hits = counter("cache_hits");
        assert_eq!(
            hits + counter("cache_misses"),
            components,
            "seed {seed}: every component consults once"
        );

        let warm = solve();
        assert_eq!(
            counter("cache_hits") - hits,
            warm.components as u64,
            "seed {seed}: the warm re-solve must hit every component"
        );
    }
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

        let _session = Session::begin();
        let uncached = solver(None).solve(&instance).expect_err("uncoverable");
        assert_eq!(uncached, expected, "seed {seed}: uncached verdict");

        let cache = Arc::new(SolveCache::with_capacity_mb(4));
        // The first solve sights the uncoverable shape, the second
        // memoizes its verdict, the third replays it.
        for round in [1, 2] {
            let cold = solver(Some(&cache))
                .solve(&instance)
                .expect_err("uncoverable");
            assert_eq!(cold, expected, "seed {seed}: cached verdict {round}");
            assert_eq!(
                counter("cache_negative_hits"),
                0,
                "seed {seed}: solve {round} cannot hit"
            );
        }

        let warm = solver(Some(&cache))
            .solve(&instance)
            .expect_err("uncoverable");
        assert_eq!(warm, expected, "seed {seed}: replayed verdict drifted");
        assert!(
            counter("cache_negative_hits") > 0,
            "seed {seed}: the third solve must replay the memoized verdict"
        );
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
    let _session = Session::begin();
    let cache = Arc::new(SolveCache::with_capacity_mb(4));
    let run = || {
        Mc3Solver::new()
            .algorithm(Algorithm::K2Exact)
            .cache(Arc::clone(&cache))
            .solve(&instance)
            .expect("k2 solve")
    };
    // Solve 1 sights each shape and solve 2 inserts it, so solve 3 hits.
    let a = run();
    let b = run();
    let c = run();
    a.verify(&instance).expect("cover");
    b.verify(&instance).expect("cover");
    c.verify(&instance).expect("cover");
    assert_eq!(a.cost(), b.cost());
    assert_eq!(a.cost(), c.cost());
    assert!(
        counter("cache_hits") > 0,
        "k2 components must hit on re-solve"
    );
}

#[test]
fn prebuilt_inventory_bypasses_the_cache() {
    let (_, instance) = random_instance(7);
    let _session = Session::begin();
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
    assert_eq!(
        (
            counter("cache_hits"),
            counter("cache_misses"),
            cache.stats().entries
        ),
        (0, 0, 0),
        "prebuilt solves must not touch the shared cache"
    );
}

#[test]
fn symmetric_components_are_fingerprinted_and_shared() {
    // 20 disjoint uniform-cost queries of length 7: every property of a
    // query is interchangeable, so the canonical search tree has 7!
    // leaves unless automorphisms prune it. Each component must
    // canonicalize within the default budget: the first one is a first
    // sighting, the second misses and inserts, the other 18 are answered
    // from its entry.
    let queries: Vec<Vec<u32>> = (0..20u32).map(|c| (7 * c..7 * c + 7).collect()).collect();
    let instance = Instance::new(queries, Weights::uniform(1u64)).expect("valid instance");
    let served = |cache: Option<&Arc<SolveCache>>| {
        let s = Mc3Solver::new().algorithm(Algorithm::General);
        match cache {
            Some(c) => s.cache(Arc::clone(c)),
            None => s,
        }
    };
    let _session = Session::begin();
    let cold = served(None).solve(&instance).expect("uncached solve");
    let cache = Arc::new(SolveCache::with_capacity_mb(8));
    let cached = served(Some(&cache)).solve(&instance).expect("cached solve");
    cached.verify(&instance).expect("cached cover");
    assert_eq!(cold.cost(), cached.cost());
    assert_eq!(
        (
            counter("cache_first_sightings"),
            counter("cache_misses"),
            cache.stats().entries,
            counter("cache_hits")
        ),
        (1, 2, 1, 18)
    );
}

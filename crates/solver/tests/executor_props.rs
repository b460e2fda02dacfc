//! Properties of the shared work-stealing executor
//! (`mc3_solver::executor`) as exercised through the full solve
//! pipeline:
//!
//! * **parallel ≡ sequential** — over a 200-instance seeded corpus of
//!   multi-component instances, `parallel(true)` on the shared executor
//!   selects exactly the classifiers of the sequential solve (the
//!   determinism contract: results never depend on scheduling order);
//! * **cache-aware scheduling is cost-transparent** — with a shared
//!   `SolveCache` (hot-first dispatch + intra-request dedup active),
//!   parallel re-solves reproduce the sequential cost with a verifying
//!   cover, and on replicated shapes (intra-request followers) the
//!   inline and executor runs of the one dispatch plan select the same
//!   classifiers with the same cache hits, misses and insertions;
//! * **steal-heavy stress** — an instance with hundreds of tiny
//!   components drives the injector's batch-grab path; steals and tasks
//!   must be observable and, once warm, solving must not spawn threads.

mod common;

use common::replicated_instance;
use mc3_core::rng::prelude::*;
use mc3_core::{Instance, Weights};
use mc3_solver::{executor, Algorithm, Mc3Solver, SolveCache};
use std::sync::Arc;

const CASES: u64 = 200;

/// A seeded instance with several disjoint components: `comps`
/// components on disjoint 5-property ranges, a few queries each.
fn multi_component_instance(seed: u64, comps: u32, queries_per: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x517C_C1B7).wrapping_add(3));
    let mut queries = Vec::new();
    for c in 0..comps {
        let base = c * 5;
        for _ in 0..queries_per {
            let len = rng.gen_range(1..=3usize);
            let mut q: Vec<u32> = (0..5u32).map(|p| base + p).collect();
            q.shuffle(&mut rng);
            q.truncate(len);
            q.sort_unstable();
            queries.push(q);
        }
    }
    Instance::new(queries, Weights::seeded(seed, 1, 25)).expect("valid instance")
}

#[test]
fn parallel_selects_the_sequential_classifiers_over_corpus() {
    for seed in 0..CASES {
        let comps = 2 + (seed % 5) as u32;
        let instance = multi_component_instance(seed, comps, 3);
        let seq = Mc3Solver::new().solve(&instance).expect("sequential");
        let par = Mc3Solver::new()
            .parallel(true)
            .solve(&instance)
            .expect("parallel");
        par.verify(&instance).expect("parallel cover");
        assert_eq!(
            seq.classifiers(),
            par.classifiers(),
            "seed {seed}: scheduling order changed the selected classifiers"
        );
        assert_eq!(seq.cost(), par.cost(), "seed {seed}");
    }
}

#[test]
fn cache_aware_scheduling_preserves_sequential_cost() {
    for seed in 0..40 {
        let instance = multi_component_instance(seed, 4, 3);
        let seq = Mc3Solver::new().solve(&instance).expect("sequential");

        let cache = Arc::new(SolveCache::with_capacity_mb(8));
        for round in 0..2 {
            // Round 0 is all-cold (largest-first ordering); round 1
            // dispatches every component down the hot path.
            let par = Mc3Solver::new()
                .parallel(true)
                .cache(Arc::clone(&cache))
                .solve(&instance)
                .expect("parallel cached");
            par.verify(&instance).expect("parallel cached cover");
            assert_eq!(
                seq.cost(),
                par.cost(),
                "seed {seed} round {round}: cache-aware scheduling drifted the cost"
            );
        }
        assert!(
            cache.stats().hits > 0,
            "seed {seed}: warm re-solve must take the hot path"
        );
    }

    // Intra-request followers: replicated shapes collapse onto one
    // leader per shape. The inline and executor runs of the one plan
    // must select the same classifiers and consult the cache alike.
    for seed in 0..40 {
        let instance = replicated_instance(seed, 4);
        let run = |parallel: bool| {
            let cache = Arc::new(SolveCache::with_capacity_mb(8));
            let sol = Mc3Solver::new()
                .without_preprocessing()
                .parallel(parallel)
                .cache(Arc::clone(&cache))
                .solve(&instance)
                .expect("cached solve");
            sol.verify(&instance).expect("cached cover");
            let s = cache.stats();
            (sol.classifiers().to_vec(), (s.hits, s.misses, s.insertions))
        };
        let (seq, seq_stats) = run(false);
        let (par, par_stats) = run(true);
        assert_eq!(seq, par, "seed {seed}: inline and executor plans diverged");
        assert_eq!(
            seq_stats, par_stats,
            "seed {seed}: (hits, misses, insertions) diverged"
        );
        assert!(seq_stats.0 > 0, "seed {seed}: followers must hit");
    }
}

#[test]
fn steal_heavy_load_is_observable_and_spawns_no_threads_once_warm() {
    // Hundreds of tiny components → hundreds of cheap tasks per solve;
    // the injector hands them out in batches, so sibling workers must
    // steal from whichever worker grabbed a batch.
    let instance = multi_component_instance(99, 300, 2);
    // Preprocessing can cover queries before decomposition; disable it so
    // every component reliably reaches the executor as a task.
    let solve = || {
        let sol = Mc3Solver::new()
            .algorithm(Algorithm::General)
            .without_preprocessing()
            .parallel(true)
            .solve(&instance)
            .expect("parallel");
        sol.verify(&instance).expect("cover");
        sol
    };

    let tasks_before = executor::tasks_total();
    let warm = solve();
    assert!(
        executor::tasks_total() >= tasks_before + 300,
        "each component must run as an executor task"
    );
    assert!(executor::pool_threads() >= 1);

    // Steady state: repeated solves reuse the same workers. Steals are
    // scheduling-dependent, so stress many rounds before asserting.
    let spawns_warm = executor::thread_spawns_total();
    let steals_before = executor::steals_total();
    for _ in 0..10 {
        let again = solve();
        assert_eq!(warm.cost(), again.cost(), "steady-state cost drifted");
    }
    assert_eq!(
        executor::thread_spawns_total(),
        spawns_warm,
        "a warm executor must not spawn threads per solve"
    );
    if executor::effective_threads() > 1 {
        assert!(
            executor::steals_total() > steals_before,
            "multi-worker steal-heavy load must record steals"
        );
    }
}

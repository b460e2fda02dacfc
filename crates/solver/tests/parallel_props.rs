//! Properties of `parallel(true)`, which runs the solve's dispatch plan
//! on scoped threads, as exercised through the full solve pipeline:
//!
//! * **parallel ≡ sequential** — over a 200-instance seeded corpus of
//!   multi-component instances, `parallel(true)` selects exactly the
//!   classifiers of the sequential solve (the determinism contract:
//!   results never depend on scheduling order), and so does one
//!   300-component instance, many more groups than threads;
//! * **cache-aware scheduling is cost-transparent** — with a shared
//!   `SolveCache` (hot-first dispatch + intra-request dedup active),
//!   parallel re-solves reproduce the sequential cost with a verifying
//!   cover, and on replicated shapes (intra-request followers) the
//!   inline and threaded runs of the one dispatch plan select the same
//!   classifiers with the same cache hits, misses and insertions.

mod common;

use common::replicated_instance;
use mc3_core::rng::prelude::*;
use mc3_core::{Instance, Weights};
use mc3_solver::{Algorithm, Mc3Solver, SolveCache};
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
    // leader per shape. The inline and threaded runs of the one plan
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
        assert_eq!(seq, par, "seed {seed}: inline and threaded plans diverged");
        assert_eq!(
            seq_stats, par_stats,
            "seed {seed}: (hits, misses, insertions) diverged"
        );
        assert!(seq_stats.0 > 0, "seed {seed}: followers must hit");
    }
}

#[test]
fn many_components_select_the_sequential_classifiers() {
    // Hundreds of tiny components, so every thread takes many leaders
    // from the shared cursor. Preprocessing can cover queries before
    // decomposition; disable it so every component is dispatched.
    let instance = multi_component_instance(99, 300, 2);
    let solve = |parallel: bool| {
        let report = Mc3Solver::new()
            .algorithm(Algorithm::General)
            .without_preprocessing()
            .parallel(parallel)
            .solve_report(&instance)
            .expect("solvable");
        report.solution.verify(&instance).expect("cover");
        report
    };
    let seq = solve(false);
    let par = solve(true);
    assert!(seq.components >= 300, "every component must be dispatched");
    assert_eq!(seq.components, par.components);
    assert_eq!(seq.solution.classifiers(), par.solution.classifiers());
    assert_eq!(seq.solution.cost(), par.solution.cost());
}

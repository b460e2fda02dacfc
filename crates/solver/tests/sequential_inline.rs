//! Sequential solves (`parallel(false)`) run the dispatch plan inline on
//! the calling thread and never touch the shared executor: after
//! multi-component solves without a cache, with a `SolveCache` (so
//! intra-request followers exist) and under Short-First, the pool has
//! not been started and no worker thread was ever spawned.
//!
//! The executor is process-global, so this file is its own test binary
//! and no test in it solves in parallel.

mod common;

use common::replicated_instance;
use mc3_solver::{executor, Algorithm, Mc3Solver, SolveCache};
use std::sync::Arc;

fn assert_pool_untouched() {
    assert_eq!(
        executor::pool_threads(),
        0,
        "a sequential solve started the pool"
    );
    assert_eq!(
        executor::thread_spawns_total(),
        0,
        "a sequential solve spawned executor workers"
    );
}

/// Solves the replicated corpus sequentially; requires that at least
/// one solve split into several components, so the plan had more than
/// one task to order.
fn solve_sequentially(solver: Mc3Solver, seeds: std::ops::Range<u64>) {
    let mut multi_component = 0;
    for seed in seeds {
        let instance = replicated_instance(seed, 4);
        let report = solver
            .clone()
            .parallel(false)
            .solve_report(&instance)
            .expect("solvable");
        report.solution.verify(&instance).expect("cover");
        if report.components > 1 {
            multi_component += 1;
        }
    }
    assert!(multi_component > 0, "the corpus must split into components");
}

#[test]
fn uncached_sequential_solves_stay_inline() {
    solve_sequentially(Mc3Solver::new().without_preprocessing(), 0..20);
    assert_pool_untouched();
}

#[test]
fn cached_sequential_solves_stay_inline() {
    let cache = Arc::new(SolveCache::with_capacity_mb(8));
    solve_sequentially(
        Mc3Solver::new()
            .without_preprocessing()
            .cache(Arc::clone(&cache)),
        0..20,
    );
    assert!(cache.stats().hits > 0, "followers must hit the cache");
    assert_pool_untouched();
}

#[test]
fn short_first_sequential_solves_stay_inline() {
    solve_sequentially(
        Mc3Solver::new()
            .algorithm(Algorithm::ShortFirst)
            .without_preprocessing(),
        0..20,
    );
    assert_pool_untouched();
}

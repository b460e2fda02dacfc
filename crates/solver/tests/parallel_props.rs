//! Properties of `parallel(true)`, which runs the solve's one component
//! loop on scoped threads, as exercised through the full solve pipeline:
//!
//! * **parallel ≡ sequential** — over a 200-instance seeded corpus of
//!   multi-component instances, `parallel(true)` selects exactly the
//!   classifiers of the sequential solve (the determinism contract:
//!   without a cache, results never depend on scheduling order), and so
//!   does one 300-component instance, many more components than threads;
//! * **a cache solves each repeated shape once inline** — on replicated
//!   shapes, an inline cached solve consults once per component, inserts
//!   once per miss and misses at most once per shape;
//! * **a cache under threads keeps the cost** — `parallel(true)` with a
//!   shared `SolveCache` returns a verifying cover at the uncached cost
//!   and consults once per component. Two threads may both miss on one
//!   shape, so hits and the concrete classifiers are not pinned there.

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

/// Copies of one shape in each replicated instance.
const COPIES: u32 = 4;

#[test]
fn inline_cached_solves_solve_each_repeated_shape_once() {
    // Copies of a shape share a size, so the largest-first order takes
    // the first copy before the later ones: it misses and inserts, and
    // every later copy consults the entry it left.
    for seed in 0..40 {
        let instance = replicated_instance(seed, COPIES);
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
        let s = cache.stats();
        let components = report.components as u64;
        assert_eq!(
            s.hits + s.misses,
            components,
            "seed {seed}: every component consults once"
        );
        assert_eq!(s.insertions, s.misses, "seed {seed}: every miss inserts");
        assert!(
            s.misses <= components / u64::from(COPIES),
            "seed {seed}: {} misses for {components} components in {COPIES} copies",
            s.misses
        );
    }
}

#[test]
fn parallel_cached_solves_keep_the_uncached_cost() {
    // Two threads may take copies of one shape at the same moment and
    // both miss, so hits and classifiers are not pinned: only the cost,
    // the cover and one consult per component.
    for seed in 0..40 {
        let instance = replicated_instance(seed, COPIES);
        let uncached = Mc3Solver::new()
            .without_preprocessing()
            .solve(&instance)
            .expect("uncached solve");
        let cache = Arc::new(SolveCache::with_capacity_mb(8));
        let report = Mc3Solver::new()
            .without_preprocessing()
            .parallel(true)
            .cache(Arc::clone(&cache))
            .solve_report(&instance)
            .expect("parallel cached solve");
        report
            .solution
            .verify(&instance)
            .expect("parallel cached cover");
        assert_eq!(
            uncached.cost(),
            report.solution.cost(),
            "seed {seed}: the cache drifted the cost"
        );
        let s = cache.stats();
        assert_eq!(
            s.hits + s.misses,
            report.components as u64,
            "seed {seed}: every component consults once"
        );
    }

    // A warm re-solve is answered from the cache at the sequential cost.
    for seed in 0..40 {
        let instance = multi_component_instance(seed, 4, 3);
        let seq = Mc3Solver::new().solve(&instance).expect("sequential");
        let cache = Arc::new(SolveCache::with_capacity_mb(8));
        for round in 0..2 {
            let par = Mc3Solver::new()
                .parallel(true)
                .cache(Arc::clone(&cache))
                .solve(&instance)
                .expect("parallel cached");
            par.verify(&instance).expect("parallel cached cover");
            assert_eq!(seq.cost(), par.cost(), "seed {seed} round {round}");
        }
        assert!(
            cache.stats().hits > 0,
            "seed {seed}: the warm re-solve must hit"
        );
    }
}

#[test]
fn many_components_select_the_sequential_classifiers() {
    // Hundreds of tiny components, so every thread takes many of them
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

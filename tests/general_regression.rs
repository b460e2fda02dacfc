//! Regression tests for `Algorithm::General` on a degenerate covering LP.
//!
//! The synthetic q=80 seed=3 workload used to hang the general pipeline:
//! its reduced WSC component produced a degenerate covering LP on which the
//! pure-Dantzig simplex cycled forever. The anti-cycling rule in
//! `mc3-lp` (Bland's rule after a degenerate-pivot streak, plus a hard
//! pivot bound) terminates it; one test pins the fix with a wall-clock
//! bound generous enough for debug builds and loaded CI machines. The
//! other pins the pivot count of the dual simplex on the same LP, so a
//! return of Phase-1-style degenerate pivoting fails a test, not only a
//! timing.

use mc3::solver::{Algorithm, Mc3Solver};
use mc3::workload::SyntheticConfig;
use std::time::{Duration, Instant};

#[test]
fn synthetic_q80_seed3_terminates_under_general() {
    let ds = SyntheticConfig::with_queries(80).seed(3).generate();
    let start = Instant::now();
    let solution = Mc3Solver::new()
        .algorithm(Algorithm::General)
        .solve(&ds.instance)
        .expect("general must solve the q=80 seed=3 workload");
    let elapsed = start.elapsed();
    solution.verify(&ds.instance).expect("must cover");
    // Release-mode target is < 10 s (it actually runs in milliseconds);
    // 120 s absorbs debug builds and CI noise while still catching a
    // reintroduced simplex cycle (which never terminates).
    assert!(
        elapsed < Duration::from_secs(120),
        "general took {elapsed:?} on synthetic q=80 seed=3 — simplex cycling regression?"
    );
}

/// The covering LPs LP rounding solves on the same workload, rebuilt from
/// the public pipeline pieces (default preprocessing, one reduction per
/// component that fits `LpLimits`).
fn q80_seed3_covering_lps() -> Vec<(Vec<f64>, Vec<Vec<u32>>)> {
    use mc3::core::ClassifierUniverse;
    use mc3::solver::components::connected_components;
    use mc3::solver::preprocess::preprocess;
    use mc3::solver::reduction::reduce_to_wsc;
    use mc3::solver::work::WorkState;
    use mc3::solver::{LpLimits, PreprocessOptions};

    let ds = SyntheticConfig::with_queries(80).seed(3).generate();
    let instance = &ds.instance;
    let kp = instance.max_query_len().max(1);
    let mut ws = WorkState::new(instance, ClassifierUniverse::build_bounded(instance, kp));
    preprocess(&mut ws, &PreprocessOptions::default()).expect("coverable");
    let limits = LpLimits::default();
    connected_components(instance.queries(), &ws.alive_query_indices())
        .iter()
        .map(|comp| reduce_to_wsc(&ws, comp).instance)
        .filter(|wsc| {
            wsc.num_elements() > 0
                && wsc.num_sets() <= limits.max_sets
                && wsc.num_elements() <= limits.max_elements
        })
        .map(|wsc| {
            let costs = (0..wsc.num_sets())
                .map(|s| wsc.cost(s).raw() as f64)
                .collect();
            let rows = (0..mc3::core::u32_of(wsc.num_elements()))
                .map(|e| wsc.containing(e).to_vec())
                .collect();
            (costs, rows)
        })
        .collect()
}

#[test]
fn synthetic_q80_seed3_covering_lp_needs_few_pivots() {
    // The two-phase simplex took 929 pivots here, 892 of them degenerate;
    // the dual simplex from the slack basis needs no Phase 1 and takes
    // well under 300. A return of Phase-1-style degenerate pivoting fails
    // this count long before it shows as wall time.
    let lps = q80_seed3_covering_lps();
    assert!(!lps.is_empty(), "the workload must reach LP rounding");
    for (costs, rows) in &lps {
        let sol = mc3::lp::solve_covering(costs, rows.iter().map(Vec::as_slice));
        assert_eq!(sol.status, mc3::lp::LpStatus::Optimal);
        assert!(
            sol.pivots < 300,
            "{} pivots on the q=80 seed=3 covering LP",
            sol.pivots
        );
    }
}

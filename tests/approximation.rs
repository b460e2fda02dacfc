//! Property-based tests of the paper's theoretical claims:
//!
//! * Algorithm 2 is exact for `k ≤ 2` (Theorem 4.1);
//! * Algorithm 1 preserves at least one optimal solution (§3);
//! * Algorithm 3 stays within the Theorem 5.3 guarantee;
//! * determinism: repeated solves select the same classifiers.
//!
//! Seeded-loop style (the workspace builds offline, without `proptest`):
//! each test replays deterministic random cases from
//! [`mc3::core::rng::StdRng`], printing the seed on failure.

use mc3::core::rng::prelude::*;
use mc3::prelude::*;
use mc3::solver::{Algorithm, PreprocessOptions};

const CASES: u64 = 64;

/// A random small instance (queries + seeded weights).
fn rand_instance(rng: &mut StdRng, max_props: u32, max_len: usize, max_queries: usize) -> Instance {
    let nq = rng.gen_range(1..=max_queries);
    let queries: Vec<Vec<u32>> = (0..nq)
        .map(|_| {
            let len = rng.gen_range(1..=max_len);
            (0..len).map(|_| rng.gen_range(0..max_props)).collect()
        })
        .collect();
    let wseed = rng.gen::<u64>();
    Instance::new(queries, Weights::seeded(wseed, 1, 30)).expect("valid random instance")
}

#[test]
fn k2_solver_matches_exact_optimum() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = rand_instance(&mut rng, 8, 2, 8);
        let k2 = Mc3Solver::new()
            .algorithm(Algorithm::K2Exact)
            .solve(&instance)
            .expect("solvable");
        k2.verify(&instance).expect("valid cover");
        let exact = Mc3Solver::new()
            .algorithm(Algorithm::Exact)
            .solve(&instance)
            .expect("solvable");
        assert_eq!(k2.cost(), exact.cost(), "seed {seed}");
    }
}

#[test]
fn preprocessing_preserves_the_optimum() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = rand_instance(&mut rng, 7, 3, 6);
        let with = mc3::solver::exact::solve_exact_with(&instance, &PreprocessOptions::default())
            .expect("solvable");
        let without =
            mc3::solver::exact::solve_exact_with(&instance, &PreprocessOptions::disabled())
                .expect("solvable");
        with.verify(&instance).expect("valid cover");
        without.verify(&instance).expect("valid cover");
        assert_eq!(with.cost(), without.cost(), "seed {seed}");
    }
}

#[test]
fn general_respects_theorem_5_3() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = rand_instance(&mut rng, 9, 4, 6);
        let report = Mc3Solver::new()
            .algorithm(Algorithm::General)
            .solve_report(&instance)
            .expect("solvable");
        report.solution.verify(&instance).expect("valid cover");
        let exact = Mc3Solver::new()
            .algorithm(Algorithm::Exact)
            .solve(&instance)
            .expect("solvable");
        let guarantee = report.instance_stats.approximation_guarantee();
        assert!(
            report.solution.cost().raw() as f64 <= guarantee * exact.cost().raw() as f64 + 1e-9,
            "cost {} exceeds {:.2} × OPT ({}), seed {seed}",
            report.solution.cost(),
            guarantee,
            exact.cost()
        );
        // and it can never beat the optimum
        assert!(
            report.solution.cost() >= exact.cost(),
            "below OPT, seed {seed}"
        );
    }
}

#[test]
fn short_first_covers_and_never_beats_exact() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = rand_instance(&mut rng, 9, 4, 6);
        let sf = Mc3Solver::new()
            .algorithm(Algorithm::ShortFirst)
            .solve(&instance)
            .expect("solvable");
        sf.verify(&instance).expect("valid cover");
        let exact = Mc3Solver::new()
            .algorithm(Algorithm::Exact)
            .solve(&instance)
            .expect("solvable");
        assert!(sf.cost() >= exact.cost(), "below OPT, seed {seed}");
    }
}

#[test]
fn all_baselines_cover() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = rand_instance(&mut rng, 10, 4, 8);
        for alg in [
            Algorithm::LocalGreedy,
            Algorithm::QueryOriented,
            Algorithm::PropertyOriented,
        ] {
            let sol = Mc3Solver::new()
                .algorithm(alg)
                .solve(&instance)
                .expect("solvable");
            sol.verify(&instance).expect("valid cover");
        }
    }
}

#[test]
fn solving_is_deterministic() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = rand_instance(&mut rng, 9, 4, 8);
        let a = Mc3Solver::new().solve(&instance).expect("solvable");
        let b = Mc3Solver::new().solve(&instance).expect("solvable");
        assert_eq!(a.classifiers(), b.classifiers(), "seed {seed}");
        assert_eq!(a.cost(), b.cost(), "seed {seed}");
    }
}

#[test]
fn bounded_universe_never_beats_the_full_one() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = rand_instance(&mut rng, 8, 4, 6);
        let full = Mc3Solver::new()
            .algorithm(Algorithm::General)
            .solve(&instance)
            .expect("solvable");
        // the bounded universe always contains all singletons, so the
        // instance stays coverable under seeded (finite) weights
        let bounded = Mc3Solver::new()
            .algorithm(Algorithm::General)
            .max_classifier_len(2)
            .solve(&instance)
            .expect("solvable");
        bounded.verify(&instance).expect("valid cover");
        assert!(
            bounded.classifiers().iter().all(|c| c.len() <= 2),
            "seed {seed}"
        );
        // sanity only: both cover; costs may go either way because both are
        // heuristics over different universes, but the bounded optimum is a
        // subset space — compare against exact to keep the claim sound
        let exact_full = Mc3Solver::new()
            .algorithm(Algorithm::Exact)
            .solve(&instance)
            .expect("solvable");
        assert!(full.cost() >= exact_full.cost(), "below OPT, seed {seed}");
    }
}

#[test]
fn uniform_k2_mixed_equals_k2() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let nq = rng.gen_range(1..=8usize);
        let queries: Vec<Vec<u32>> = (0..nq)
            .map(|_| {
                let len = rng.gen_range(1..=2usize);
                (0..len).map(|_| rng.gen_range(0..8u32)).collect()
            })
            .collect();
        let instance = Instance::new(queries, Weights::uniform(1u64)).expect("valid");
        let mixed = Mc3Solver::new()
            .algorithm(Algorithm::Mixed)
            .solve(&instance)
            .expect("solvable");
        let k2 = Mc3Solver::new()
            .algorithm(Algorithm::K2Exact)
            .solve(&instance)
            .expect("solvable");
        assert_eq!(mixed.cost(), k2.cost(), "seed {seed}");
    }
}

//! Equivalence of the covering dual simplex with the two-phase primal
//! simplex it replaced (kept test-side in `support/two_phase.rs`): on
//! seeded random covering LPs, and on every covering LP that Algorithm 3
//! hands to LP rounding on seeded private-like and BestBuy-like
//! instances, both reach the same optimum within 1e-7. A degenerate LP
//! may end at a different optimal vertex, so only the optimum value is
//! compared; the new solution is checked for feasibility and against its
//! own dual certificate.

#[path = "support/two_phase.rs"]
mod two_phase;

use mc3_core::rng::prelude::*;
use mc3_core::{ClassifierUniverse, Instance};
use mc3_lp::{solve_covering, LpSolution, LpStatus};
use mc3_solver::components::connected_components;
use mc3_solver::preprocess::preprocess;
use mc3_solver::reduction::reduce_to_wsc;
use mc3_solver::work::WorkState;
use mc3_solver::{LpLimits, PreprocessOptions};
use mc3_workload::{generate_dataset, GeneratorKind};

/// `min costs·x, Σ_{j ∈ row} x_j ≥ 1 per row, x ≥ 0`.
struct Covering {
    costs: Vec<f64>,
    rows: Vec<Vec<u32>>,
}

/// Solves `lp` both ways and checks they agree; returns the pivots of
/// (new, old).
fn assert_equivalent(lp: &Covering, what: &str) -> (u64, u64) {
    let new = solve_covering(&lp.costs, lp.rows.iter().map(Vec::as_slice));
    let old = two_phase::solve(&lp.costs, &lp.rows);
    if old.status == two_phase::Status::Infeasible {
        assert_eq!(new.status, LpStatus::Infeasible, "{what}");
        return (new.pivots, old.pivots);
    }
    assert_eq!(old.status, two_phase::Status::Optimal, "{what}: oracle");
    assert_eq!(new.status, LpStatus::Optimal, "{what}");
    let tol = 1e-7 * old.objective_value.abs().max(1.0);
    assert!(
        (new.objective_value - old.objective_value).abs() <= tol,
        "{what}: dual simplex optimum {} vs two-phase {}",
        new.objective_value,
        old.objective_value
    );
    assert_certified(lp, &new, what);
    (new.pivots, old.pivots)
}

/// Primal feasibility, dual feasibility and a zero duality gap.
fn assert_certified(lp: &Covering, sol: &LpSolution, what: &str) {
    assert!(sol.values.iter().all(|&x| x >= 0.0), "{what}: x < 0");
    assert!(sol.duals.iter().all(|&y| y >= 0.0), "{what}: y < 0");
    let mut packed = vec![0.0; lp.costs.len()];
    for (row, &y) in lp.rows.iter().zip(&sol.duals) {
        let covered: f64 = row.iter().map(|&j| sol.values[j as usize]).sum();
        assert!(covered >= 1.0 - 1e-7, "{what}: row covered {covered}");
        let mut seen = row.clone();
        seen.sort_unstable();
        seen.dedup();
        for j in seen {
            packed[j as usize] += y;
        }
    }
    for (j, (&p, &c)) in packed.iter().zip(&lp.costs).enumerate() {
        assert!(
            p <= c + 1e-7 * c.max(1.0),
            "{what}: column {j} packs {p} > {c}"
        );
    }
    let dual: f64 = sol.duals.iter().sum();
    let tol = 1e-7 * sol.objective_value.max(1.0);
    assert!((dual - sol.objective_value).abs() <= tol, "{what}: gap");
}

/// Random covering LP: integer costs with about one zero-cost set in
/// seven, random 0/1 rows, and some rows duplicated.
fn random_lp(rng: &mut StdRng) -> Covering {
    let n = rng.gen_range(1..=24u32);
    let m = rng.gen_range(1..=20usize);
    let density = rng.gen_range(0.1..0.6);
    let costs = (0..n)
        .map(|_| {
            if rng.gen_bool(0.15) {
                0.0
            } else {
                rng.gen_range(1..=40u32) as f64
            }
        })
        .collect();
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for _ in 0..m {
        let mut row: Vec<u32> = (0..n).filter(|_| rng.gen_bool(density)).collect();
        if row.is_empty() {
            row.push(rng.gen_range(0..n));
        }
        rows.push(row);
        if rng.gen_bool(0.2) {
            let dup = rows[rng.gen_range(0..rows.len())].clone();
            rows.push(dup);
        }
    }
    Covering { costs, rows }
}

/// Unit-cost vertex cover LP of a random graph: one row per edge. Its
/// polytope is half-integral and highly degenerate.
fn vertex_cover_lp(rng: &mut StdRng) -> Covering {
    let n = rng.gen_range(3..=16u32);
    let p = rng.gen_range(0.2..0.8);
    let mut rows = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            if rng.gen_bool(p) {
                rows.push(vec![a, b]);
            }
        }
    }
    if rows.is_empty() {
        rows.push(vec![0, 1]);
    }
    Covering {
        costs: vec![1.0; n as usize],
        rows,
    }
}

#[test]
fn random_covering_lps_match_the_two_phase_optimum() {
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_equivalent(&random_lp(&mut rng), &format!("random seed {seed}"));
    }
}

#[test]
fn degenerate_vertex_cover_lps_match_the_two_phase_optimum() {
    let (mut new_pivots, mut old_pivots) = (0, 0);
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let (new, old) = assert_equivalent(
            &vertex_cover_lp(&mut rng),
            &format!("vertex cover seed {seed}"),
        );
        new_pivots += new;
        old_pivots += old;
    }
    // Starting dual feasible skips Phase 1 and its degenerate pivots.
    assert!(new_pivots < old_pivots, "{new_pivots} vs {old_pivots}");
}

#[test]
fn infeasible_lps_are_infeasible_both_ways() {
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(2_000 + seed);
        let mut lp = random_lp(&mut rng);
        let at = rng.gen_range(0..=lp.rows.len());
        lp.rows.insert(at, Vec::new());
        assert_equivalent(&lp, &format!("infeasible seed {seed}"));
    }
}

/// Every covering LP Algorithm 3 solves on `instance` with the default
/// preprocessing and `LpLimits`, one per component small enough.
fn pipeline_lps(instance: &Instance) -> Vec<Covering> {
    let kp = instance.max_query_len().max(1);
    let mut ws = WorkState::new(instance, ClassifierUniverse::build_bounded(instance, kp));
    preprocess(&mut ws, &PreprocessOptions::default()).expect("coverable");
    let limits = LpLimits::default();
    let mut lps = Vec::new();
    for comp in connected_components(instance.queries(), &ws.alive_query_indices()) {
        let wsc = reduce_to_wsc(&ws, &comp).instance;
        let fits = wsc.num_sets() <= limits.max_sets && wsc.num_elements() <= limits.max_elements;
        if wsc.num_elements() == 0 || !fits || wsc.ensure_coverable().is_err() {
            continue;
        }
        lps.push(Covering {
            costs: (0..wsc.num_sets())
                .map(|s| wsc.cost(s).raw() as f64)
                .collect(),
            rows: (0..mc3_core::u32_of(wsc.num_elements()))
                .map(|e| wsc.containing(e).to_vec())
                .collect(),
        });
    }
    lps
}

fn corpus_matches(kind: GeneratorKind, queries: usize, seeds: std::ops::RangeInclusive<u64>) {
    let mut lps = 0;
    for seed in seeds {
        let ds = generate_dataset(kind, queries, seed);
        for (i, lp) in pipeline_lps(&ds.instance).iter().enumerate() {
            assert_equivalent(lp, &format!("{kind:?} seed {seed} LP {i}"));
            lps += 1;
        }
    }
    assert!(lps > 0, "the corpus must exercise LP rounding");
}

#[test]
fn private_like_solve_lps_match_the_two_phase_optimum() {
    corpus_matches(GeneratorKind::Private, 1000, 1..=20);
}

#[test]
fn bestbuy_like_solve_lps_match_the_two_phase_optimum() {
    corpus_matches(GeneratorKind::BestBuy, 2000, 1..=10);
}

#[test]
fn degenerate_synthetic_q80_seed3_lp_matches_in_fewer_pivots() {
    // The workload whose covering LP once made the two-phase simplex
    // cycle; it still takes that simplex hundreds of degenerate pivots.
    let lps = pipeline_lps(&generate_dataset(GeneratorKind::Synthetic, 80, 3).instance);
    assert!(!lps.is_empty());
    for (i, lp) in lps.iter().enumerate() {
        let (new, old) = assert_equivalent(lp, &format!("synthetic q=80 seed=3 LP {i}"));
        assert!(new < old, "{new} pivots vs the two-phase {old}");
    }
}

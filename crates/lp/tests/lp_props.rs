//! Property-based tests of the covering-LP solver: feasibility of returned
//! points, agreement with a dense grid search on small covering LPs, the
//! dual certificate, and monotonicity sanity bounds.
//!
//! Seeded-loop style (the workspace builds offline, without `proptest`):
//! each test replays deterministic random cases from
//! [`mc3_core::rng::StdRng`], printing the seed on failure.

use mc3_core::rng::prelude::*;
use mc3_lp::{solve_covering, LpSolution, LpStatus};

const CASES: u64 = 250;

/// A covering LP: `min costs·x, Σ_{j ∈ row} x_j ≥ 1 per row, x ≥ 0`.
#[derive(Clone)]
struct Covering {
    costs: Vec<f64>,
    rows: Vec<Vec<u32>>,
}

impl Covering {
    fn solve(&self) -> LpSolution {
        solve_covering(&self.costs, self.rows.iter().map(Vec::as_slice))
    }

    fn feasible(&self, x: &[f64], tol: f64) -> bool {
        x.iter().all(|&v| v >= -tol)
            && self
                .rows
                .iter()
                .all(|row| row.iter().map(|&j| x[j as usize]).sum::<f64>() >= 1.0 - tol)
    }

    fn cost(&self, x: &[f64]) -> f64 {
        x.iter().zip(&self.costs).map(|(a, b)| a * b).sum()
    }
}

/// Random covering LP with 0/1 rows over 1–5 variables.
fn rand_covering_lp(rng: &mut StdRng) -> Covering {
    let nv = rng.gen_range(1..6u32);
    let costs: Vec<f64> = (0..nv).map(|_| rng.gen_range(1.0..10.0)).collect();
    let nrows = rng.gen_range(1..6usize);
    let rows = (0..nrows)
        .map(|_| (0..nv).filter(|_| rng.gen_bool(0.5)).collect::<Vec<u32>>())
        .filter(|row| !row.is_empty())
        .collect();
    Covering { costs, rows }
}

#[test]
fn covering_lp_solutions_are_feasible_and_optimal() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rand_covering_lp(&mut rng);
        let sol = p.solve();
        assert_eq!(sol.status, LpStatus::Optimal, "seed {seed}");
        assert!(
            p.feasible(&sol.values, 1e-6),
            "infeasible point {:?}, seed {seed}",
            sol.values
        );

        // covering LPs with 0/1 rows have an optimal solution in [0, 1]^n;
        // compare against a coarse grid search over {0, 0.25, ..., 1}^n
        let nv = p.costs.len();
        if nv <= 4 {
            let steps = 5u32;
            let mut best = f64::INFINITY;
            let total = steps.pow(nv as u32);
            for code in 0..total {
                let mut x = vec![0.0; nv];
                let mut c = code;
                for v in x.iter_mut() {
                    *v = (c % steps) as f64 / (steps - 1) as f64;
                    c /= steps;
                }
                if p.feasible(&x, 1e-9) {
                    best = best.min(p.cost(&x));
                }
            }
            // the LP optimum is at most the best grid point
            assert!(
                sol.objective_value <= best + 1e-6,
                "simplex {} worse than grid {best}, seed {seed}",
                sol.objective_value
            );
        }
    }
}

#[test]
fn objective_value_matches_values_and_duals() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rand_covering_lp(&mut rng);
        let sol = p.solve();
        assert_eq!(sol.status, LpStatus::Optimal, "seed {seed}");
        assert!(
            (p.cost(&sol.values) - sol.objective_value).abs() < 1e-7,
            "objective mismatch, seed {seed}"
        );
        // Strong duality: the packing dual is feasible and meets c·x.
        assert_eq!(sol.duals.len(), p.rows.len(), "seed {seed}");
        for (j, &c) in p.costs.iter().enumerate() {
            let packed: f64 = p
                .rows
                .iter()
                .zip(&sol.duals)
                .filter(|(row, _)| row.contains(&(j as u32)))
                .map(|(_, y)| y)
                .sum();
            assert!(packed <= c + 1e-7, "dual infeasible at {j}, seed {seed}");
        }
        let dual: f64 = sol.duals.iter().sum();
        assert!(
            (dual - sol.objective_value).abs() < 1e-7,
            "duality gap, seed {seed}"
        );
    }
}

#[test]
fn scaling_costs_scales_the_optimum() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rand_covering_lp(&mut rng);
        let factor = rng.gen_range(1..5u32);
        let base = p.solve();
        let mut scaled = p.clone();
        for c in scaled.costs.iter_mut() {
            *c *= factor as f64;
        }
        let s = scaled.solve();
        assert_eq!(base.status, LpStatus::Optimal, "seed {seed}");
        assert_eq!(s.status, LpStatus::Optimal, "seed {seed}");
        assert!(
            (s.objective_value - factor as f64 * base.objective_value).abs() < 1e-5,
            "scaling mismatch, seed {seed}"
        );
    }
}

#[test]
fn adding_rows_never_improves() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rand_covering_lp(&mut rng);
        let base = p.solve();
        let mut tighter = p.clone();
        // add a random non-empty row
        let nv = p.costs.len() as u32;
        let pick = rng.gen_range(0..nv);
        let mut row: Vec<u32> = (0..nv).filter(|_| rng.gen_bool(0.3)).collect();
        row.push(pick);
        tighter.rows.push(row);
        let t = tighter.solve();
        assert_eq!(t.status, LpStatus::Optimal, "seed {seed}");
        assert!(
            t.objective_value >= base.objective_value - 1e-7,
            "tightening improved objective, seed {seed}"
        );
    }
}

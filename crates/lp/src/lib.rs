#![warn(missing_docs)]

//! A dense dual simplex for covering LPs.
//!
//! The paper's Algorithm 3 runs "the LP-based algorithm for WSC \[50\]"
//! (Vazirani): solve the LP relaxation of Weighted Set Cover
//! `min c·x, Ax ≥ 1, x ≥ 0` and round every variable with `x_s ≥ 1/f`.
//! This crate provides the LP solver that step needs, as a self-contained
//! substrate with no external dependencies.
//!
//! Because `c ≥ 0`, the slack basis is dual feasible, so
//! [`solve_covering`] runs a dual simplex from it: no Phase 1 and no
//! artificial columns (see [`simplex`]). Covering LPs arising from MC³
//! reductions are small-to-medium, and a dense tableau is simple, exact
//! enough (`f64` with an explicit tolerance) and easily verified: every
//! optimal solution carries its dual `y` as a strong-duality certificate.
//! For large instances `mc3-setcover` switches to the combinatorial
//! primal–dual algorithm with the same `f`-approximation guarantee, so the
//! simplex never needs to scale past a few thousand rows/columns.
//!
//! # Example
//!
//! ```
//! use mc3_lp::{solve_covering, LpStatus};
//!
//! // Vertex cover LP of a triangle: min x0 + x1 + x2 with one row per
//! // edge, x0 + x1 ≥ 1, x1 + x2 ≥ 1, x0 + x2 ≥ 1 → ½ each.
//! let rows: [&[u32]; 3] = [&[0, 1], &[1, 2], &[0, 2]];
//! let sol = solve_covering(&[1.0, 1.0, 1.0], rows);
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.objective_value - 1.5).abs() < 1e-7);
//! assert!(sol.values.iter().all(|x| (x - 0.5).abs() < 1e-7));
//! assert!((sol.duals.iter().sum::<f64>() - 1.5).abs() < 1e-7);
//! ```

pub mod simplex;
pub mod types;

pub use simplex::{
    default_pivot_limit, solve_covering, solve_covering_with_limit, DEGENERATE_STREAK_LIMIT,
};
pub use types::{LpSolution, LpStatus};

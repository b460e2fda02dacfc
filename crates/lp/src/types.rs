//! Solution types of the covering-LP solver.

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The feasible region is empty (some row lists no column).
    Infeasible,
    /// The objective is unbounded below (a negative cost).
    Unbounded,
    /// The hard pivot bound was exhausted before reaching optimality
    /// (anti-cycling backstop; see [`crate::simplex::solve_covering_with_limit`]).
    IterationLimit,
}

/// An LP solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Whether the solve succeeded.
    pub status: LpStatus,
    /// `c·x` at the solution (meaningful only when `Optimal`).
    pub objective_value: f64,
    /// The primal assignment `x`, one value per column (empty unless
    /// `Optimal`).
    pub values: Vec<f64>,
    /// The packing dual `y`, one value per row, read off the slacks'
    /// final reduced costs: `Aᵀy ≤ c`, `y ≥ 0` and `Σy = c·x` prove `x`
    /// optimal (empty unless `Optimal`).
    pub duals: Vec<f64>,
    /// Simplex pivots performed, including partial progress on
    /// non-`Optimal` outcomes.
    pub pivots: u64,
}

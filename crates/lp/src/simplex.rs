//! Dual simplex for the covering LP, started from the slack basis.
//!
//! The LP is `min c·x, Ax ≥ 1, x ≥ 0` with a 0/1 matrix `A` whose rows
//! list the sets that contain one element. With one slack per row it
//! reads `−Ax + s = −1`, and the slack basis `s = −1` is primal
//! infeasible but **dual feasible**: every reduced cost starts at
//! `c_j ≥ 0`. The dual simplex therefore starts at once, with no Phase 1
//! and no artificial columns. Each iteration takes a row whose basic
//! value is negative out of the basis and brings in the column the ratio
//! test `d_j / −a_rj` picks, which keeps every reduced cost `d_j`
//! non-negative. The basis is optimal as soon as every basic value is
//! non-negative; then the slacks' reduced costs are an optimal solution
//! `y` of the packing dual `max Σy, Aᵀy ≤ c, y ≥ 0`.
//!
//! The tableau is `(m + 1) × (n + m + 1)` in one flat row-major buffer:
//! the m constraint rows, then the reduced-cost row, with the basic values
//! in the last column. The buffer is thread-local and reused by every
//! solve on the thread, so a warm solve allocates only its result.
//!
//! # Pivot selection and anti-cycling
//!
//! The leaving row is the one with the **most negative basic value**
//! (Dantzig's rule for the dual), the entering column the smallest ratio,
//! smallest column index on ties. A pivot whose ratio is ≈ 0 leaves the
//! objective where it was (it is degenerate), and such pivots can cycle.
//! After [`DEGENERATE_STREAK_LIMIT`] *consecutive* degenerate pivots the
//! solver switches to **Bland's rule** for the dual: among the negative
//! rows the one whose basic variable has the smallest index leaves, which
//! provably cannot cycle. The first non-degenerate pivot switches back. A
//! hard pivot bound backstops both rules: when it is exhausted the solve
//! returns [`LpStatus::IterationLimit`] instead of spinning, with the
//! pivot count attached.
//!
//! Pivot effort is exported through `mc3-telemetry` (`lp_pivots`,
//! `lp_degenerate_pivots` counters and the `lp_iterations` histogram).

use crate::types::{LpSolution, LpStatus};
use std::cell::RefCell;

/// Feasibility and ratio tolerance.
const EPS: f64 = 1e-9;
/// Tableau entries this close to zero after an update are stored as zero,
/// which keeps the pivot rows sparse.
const DROP: f64 = 1e-12;
/// Tableau cells kept allocated between solves; a larger tableau is
/// released once its solve ends.
const RETAIN_CELLS: usize = 1 << 20;

/// Consecutive degenerate pivots tolerated under Dantzig's rule before the
/// leaving-row choice falls back to Bland's anti-cycling rule.
pub const DEGENERATE_STREAK_LIMIT: u64 = 16;

/// The default hard pivot bound for a tableau with `rows` rows and `cols`
/// columns: generous for any LP the workspace produces, yet finite, so a
/// pathological instance surfaces as [`LpStatus::IterationLimit`] instead
/// of an unbounded spin.
pub fn default_pivot_limit(rows: usize, cols: usize) -> u64 {
    32 * (rows as u64 + cols as u64) + 1024
}

/// Solves the covering LP `min costs·x, Σ_{j ∈ row} x_j ≥ 1 for every
/// row, x ≥ 0` under the default pivot bound. Each row lists the columns
/// (sets) that contain one element; a column listed twice in one row
/// counts once.
///
/// An empty row makes the LP [`LpStatus::Infeasible`]. A negative (or
/// NaN) cost makes it no covering LP: with every row non-empty its
/// objective is unbounded below, reported as [`LpStatus::Unbounded`].
///
/// # Panics
///
/// If a row names a column `≥ costs.len()`.
pub fn solve_covering<'a, R>(costs: &[f64], rows: R) -> LpSolution
where
    R: IntoIterator<Item = &'a [u32]>,
    R::IntoIter: ExactSizeIterator,
{
    let rows = rows.into_iter();
    let limit = default_pivot_limit(rows.len(), costs.len() + rows.len());
    solve_covering_with_limit(costs, rows, limit)
}

/// [`solve_covering`] with an explicit hard pivot bound. Returns
/// [`LpStatus::IterationLimit`] (with the pivot count in
/// [`LpSolution::pivots`]) when the bound is exhausted.
pub fn solve_covering_with_limit<'a, R>(costs: &[f64], rows: R, max_pivots: u64) -> LpSolution
where
    R: IntoIterator<Item = &'a [u32]>,
    R::IntoIter: ExactSizeIterator,
{
    let _span = mc3_telemetry::span("lp.simplex");
    let mut stats = PivotStats::default();
    let solution = TABLEAU.with(|cell| {
        let mut t = cell.borrow_mut();
        let solution = t.solve(costs, rows.into_iter(), max_pivots, &mut stats);
        if t.cells.capacity() > RETAIN_CELLS {
            *t = Tableau::default();
        }
        solution
    });
    mc3_telemetry::span_add(mc3_telemetry::Counter::LpPivots, stats.pivots);
    mc3_telemetry::span_add(mc3_telemetry::Counter::LpDegeneratePivots, stats.degenerate);
    mc3_telemetry::record(mc3_telemetry::Hist::LpIterations, stats.pivots);
    solution
}

thread_local! {
    static TABLEAU: RefCell<Tableau> = RefCell::new(Tableau::default());
}

/// Running pivot statistics for one solve.
#[derive(Debug, Clone, Copy, Default)]
struct PivotStats {
    pivots: u64,
    degenerate: u64,
}

/// The reusable dual-simplex tableau.
#[derive(Debug, Default)]
struct Tableau {
    /// `(m + 1) × width`, row-major: m constraint rows, then the reduced
    /// costs; the last column holds the basic values (rhs).
    cells: Vec<f64>,
    /// Basic column of each constraint row.
    basis: Vec<usize>,
    /// `(column, value)` of the current pivot row's non-zeros.
    nonzero: Vec<(usize, f64)>,
    /// `n + m + 1`.
    width: usize,
    /// Number of constraint rows.
    m: usize,
}

impl Tableau {
    fn solve<'a>(
        &mut self,
        costs: &[f64],
        rows: impl ExactSizeIterator<Item = &'a [u32]>,
        max_pivots: u64,
        stats: &mut PivotStats,
    ) -> LpSolution {
        let n = costs.len();
        let feasible = self.load(costs, rows);
        let status = if !feasible {
            LpStatus::Infeasible
        } else if costs.iter().any(|c| c.is_nan() || *c < 0.0) {
            LpStatus::Unbounded
        } else {
            self.run(max_pivots, stats)
        };
        if status != LpStatus::Optimal {
            return LpSolution {
                status,
                objective_value: f64::NAN,
                values: Vec::new(),
                duals: Vec::new(),
                pivots: stats.pivots,
            };
        }
        let w = self.width;
        let mut values = vec![0.0; n];
        for (row, &b) in self.cells.chunks_exact(w).zip(&self.basis) {
            if let (Some(x), Some(&rhs)) = (values.get_mut(b), row.last()) {
                *x = rhs.max(0.0);
            }
        }
        // The slacks' reduced costs are the packing dual's `y`.
        let reduced = self.cells.get(self.m * w..).unwrap_or_default();
        let duals = reduced
            .iter()
            .skip(n)
            .take(self.m)
            .map(|d| d.max(0.0))
            .collect();
        let objective_value = values.iter().zip(costs).map(|(x, c)| x * c).sum();
        LpSolution {
            status,
            objective_value,
            values,
            duals,
            pivots: stats.pivots,
        }
    }

    /// Fills the tableau with the slack basis `−Ax + s = −1`, reduced
    /// costs `c`. Returns `false` if some row is empty.
    fn load<'a>(&mut self, costs: &[f64], rows: impl ExactSizeIterator<Item = &'a [u32]>) -> bool {
        let n = costs.len();
        let m = rows.len();
        let w = n + m + 1;
        self.m = m;
        self.width = w;
        self.cells.clear();
        self.cells.resize((m + 1) * w, 0.0);
        self.basis.clear();
        self.basis.extend(n..n + m);
        let mut feasible = true;
        for ((r, row), cols) in self.cells.chunks_exact_mut(w).enumerate().zip(rows) {
            feasible &= !cols.is_empty();
            let (sets, slacks) = row.split_at_mut(n);
            for &j in cols {
                let a = sets.get_mut(j as usize);
                assert!(a.is_some(), "covering row names set {j} of {n}");
                if let Some(a) = a {
                    *a = -1.0;
                }
            }
            if let Some(s) = slacks.get_mut(r) {
                *s = 1.0;
            }
            if let Some(rhs) = slacks.last_mut() {
                *rhs = -1.0;
            }
        }
        if let Some(reduced) = self.cells.get_mut(m * w..m * w + n) {
            reduced.copy_from_slice(costs);
        }
        feasible
    }

    /// Dual simplex iterations until optimal, infeasible or out of pivot
    /// budget.
    fn run(&mut self, max_pivots: u64, stats: &mut PivotStats) -> LpStatus {
        let mut bland = false;
        let mut degenerate_streak = 0u64;
        loop {
            let Some(row) = self.leaving(bland) else {
                return LpStatus::Optimal;
            };
            let Some((col, ratio)) = self.entering(row) else {
                // `Σ a_rj x_j = b_r < 0` with every `a_rj ≥ 0`.
                return LpStatus::Infeasible;
            };
            // Budget-check only once a pivot is actually required, so an
            // exactly-sufficient budget still reports `Optimal`.
            if stats.pivots >= max_pivots {
                return LpStatus::IterationLimit;
            }
            stats.pivots += 1;
            if ratio <= EPS {
                stats.degenerate += 1;
                degenerate_streak += 1;
                if degenerate_streak >= DEGENERATE_STREAK_LIMIT {
                    bland = true;
                }
            } else {
                degenerate_streak = 0;
                bland = false;
            }
            self.pivot(row, col);
        }
    }

    /// The leaving row: the most negative basic value (Dantzig), or the
    /// negative row with the smallest basic index (Bland). `None` means
    /// the basis is primal feasible, hence optimal.
    fn leaving(&self, bland: bool) -> Option<usize> {
        let rhs = self
            .cells
            .chunks_exact(self.width)
            .map(|row| row.last().copied());
        let mut best: Option<(usize, f64)> = None;
        for (r, (rhs, &b)) in rhs.zip(&self.basis).enumerate() {
            let rhs = rhs.unwrap_or(0.0);
            if rhs >= -EPS {
                continue;
            }
            let key = if bland { b as f64 } else { rhs };
            if best.is_none_or(|(_, best_key)| key < best_key) {
                best = Some((r, key));
            }
        }
        best.map(|(r, _)| r)
    }

    /// The entering column for leaving row `r`: the smallest ratio
    /// `d_j / −a_rj` over `a_rj < 0`, smallest index on ties, with that
    /// ratio. `None` means row `r` cannot be made feasible.
    fn entering(&self, r: usize) -> Option<(usize, f64)> {
        let w = self.width;
        let row = self.cells.get(r * w..(r + 1) * w - 1)?;
        let reduced = self.cells.get(self.m * w..(self.m + 1) * w - 1)?;
        let mut best: Option<(usize, f64)> = None;
        for (j, (&a, &d)) in row.iter().zip(reduced).enumerate() {
            if a >= -EPS {
                continue;
            }
            let ratio = d.max(0.0) / -a;
            if best.is_none_or(|(_, b)| ratio < b - EPS) {
                best = Some((j, ratio));
            }
        }
        best
    }

    /// Pivots on `(pr, col)`: scales row `pr` to a unit pivot and
    /// eliminates `col` from every other row, reduced costs included,
    /// touching only the pivot row's non-zero columns.
    fn pivot(&mut self, pr: usize, col: usize) {
        let w = self.width;
        let Tableau {
            cells,
            basis,
            nonzero,
            ..
        } = self;
        let (head, rest) = cells.split_at_mut(pr * w);
        let (prow, tail) = rest.split_at_mut(w);
        let inv = prow.get(col).map_or(1.0, |p| 1.0 / p);
        nonzero.clear();
        for (k, v) in prow.iter_mut().enumerate() {
            if k == col {
                *v = 1.0;
            } else if v.abs() > DROP {
                *v *= inv;
            } else {
                *v = 0.0;
                continue;
            }
            nonzero.push((k, *v));
        }
        // `col` is among the non-zeros with value 1, so every other row's
        // entry there becomes `factor − factor·1 = 0` exactly.
        for row in head.chunks_exact_mut(w).chain(tail.chunks_exact_mut(w)) {
            let factor = row.get(col).copied().unwrap_or(0.0);
            if factor.abs() <= DROP {
                continue;
            }
            for &(k, p) in nonzero.iter() {
                if let Some(v) = row.get_mut(k) {
                    let updated = *v - factor * p;
                    *v = if updated.abs() > DROP { updated } else { 0.0 };
                }
            }
        }
        if let Some(b) = basis.get_mut(pr) {
            *b = col;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(costs: &[f64], rows: &[&[u32]]) -> LpSolution {
        solve_covering(costs, rows.iter().copied())
    }

    #[test]
    fn trivial_single_variable() {
        let s = solve(&[3.0], &[&[0]]);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.values[0] - 1.0).abs() < 1e-9);
        assert!((s.objective_value - 3.0).abs() < 1e-9);
        assert!((s.duals[0] - 3.0).abs() < 1e-9);
        assert_eq!(s.pivots, 1);
    }

    #[test]
    fn no_rows_is_optimal_at_zero() {
        let s = solve(&[1.0, 5.0], &[]);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(s.objective_value.abs() < 1e-12);
        assert_eq!(s.values, vec![0.0, 0.0]);
        assert!(s.duals.is_empty());
        assert_eq!(s.pivots, 0);
    }

    #[test]
    fn triangle_vertex_cover_is_half_integral() {
        // min x0+x1+x2, xi+xj ≥ 1 → ½ each, and y = ½ on every edge.
        let s = solve(&[1.0, 1.0, 1.0], &[&[0, 1], &[1, 2], &[0, 2]]);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective_value - 1.5).abs() < 1e-9);
        assert!((s.duals.iter().sum::<f64>() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn cheaper_combined_set_wins() {
        // Two elements, one set each at cost 1, one set covering both at
        // 1.5: the LP takes the combined set.
        let s = solve(&[1.0, 1.0, 1.5], &[&[0, 2], &[1, 2]]);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective_value - 1.5).abs() < 1e-9);
        assert!((s.values[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cost_sets_cost_nothing() {
        let s = solve(&[0.0, 4.0], &[&[0, 1], &[0]]);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(s.objective_value.abs() < 1e-12);
        assert!(s.values[0] >= 1.0 - 1e-9);
    }

    #[test]
    fn empty_row_is_infeasible() {
        let s = solve(&[1.0], &[&[0], &[]]);
        assert_eq!(s.status, LpStatus::Infeasible);
        assert!(s.values.is_empty());
        assert_eq!(s.pivots, 0);
    }

    #[test]
    fn negative_cost_is_unbounded() {
        let s = solve(&[-1.0, 1.0], &[&[0, 1]]);
        assert_eq!(s.status, LpStatus::Unbounded);
    }

    #[test]
    #[should_panic(expected = "covering row names set 3 of 2")]
    fn out_of_range_column_panics() {
        solve(&[1.0, 1.0], &[&[3]]);
    }

    #[test]
    fn duplicate_entries_count_once() {
        let s = solve(&[2.0], &[&[0, 0]]);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.values[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pivot_limit_surfaces_as_iteration_limit() {
        // Every budget short of the full pivot count reports
        // IterationLimit (never a wrong answer); the full count solves.
        let costs = [2.0, 1.0, 3.0, 1.0];
        let rows: [&[u32]; 4] = [&[0, 1], &[1, 2], &[2, 3], &[0, 3]];
        let full = solve_covering(&costs, rows);
        assert_eq!(full.status, LpStatus::Optimal);
        assert!(full.pivots > 1);
        for budget in 0..full.pivots {
            let s = solve_covering_with_limit(&costs, rows, budget);
            assert_eq!(s.status, LpStatus::IterationLimit, "budget {budget}");
            assert_eq!(s.pivots, budget);
            assert!(s.values.is_empty());
        }
        let s = solve_covering_with_limit(&costs, rows, full.pivots);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective_value - full.objective_value).abs() < 1e-12);
    }

    #[test]
    fn degenerate_vertex_cover_terminates_optimally() {
        // Unit-cost vertex cover of K5: every vertex of the LP polytope
        // around the optimum is heavily degenerate. The optimum is 2.5.
        let mut edges: Vec<[u32; 2]> = Vec::new();
        for a in 0..5 {
            for b in a + 1..5 {
                edges.push([a, b]);
            }
        }
        let s = solve_covering(&[1.0; 5], edges.iter().map(|e| &e[..]));
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective_value - 2.5).abs() < 1e-9);
    }

    #[test]
    fn oversized_tableau_is_released() {
        let n = 1100;
        let rows: Vec<Vec<u32>> = (0..n).map(|j| vec![j]).collect();
        let s = solve_covering(&vec![1.0; n as usize], rows.iter().map(Vec::as_slice));
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective_value - n as f64).abs() < 1e-9);
        TABLEAU.with(|t| assert!(t.borrow().cells.capacity() <= RETAIN_CELLS));
    }
}

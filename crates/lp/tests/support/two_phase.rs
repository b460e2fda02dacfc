//! Test-side oracle: the dense two-phase primal simplex `mc3-lp` shipped
//! before its covering-LP dual simplex, restricted to covering LPs
//! (`min c·x, Ax ≥ 1, x ≥ 0`).
//!
//! Every `≥` row gets a surplus and an artificial column, so the tableau
//! is `m × (n + 2m)`; Phase 1 drives the artificials out, Phase 2
//! optimizes `c·x`. Entering columns follow Dantzig's rule until
//! `DEGENERATE_STREAK_LIMIT` consecutive degenerate pivots, then Bland's.
//! It is kept verbatim in its pivoting so the equivalence tests compare
//! the new kernel's optimum against exactly the values the old one
//! produced.

const EPS: f64 = 1e-9;
const DEGENERATE_STREAK_LIMIT: u64 = 16;

/// Outcome of an oracle solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Optimal,
    Infeasible,
    IterationLimit,
}

/// An oracle solution.
#[derive(Debug, Clone)]
pub struct Solved {
    pub status: Status,
    pub objective_value: f64,
    pub pivots: u64,
}

#[derive(Default)]
struct PivotStats {
    pivots: u64,
}

struct Tableau {
    a: Vec<Vec<f64>>,
    obj: Vec<f64>,
    basis: Vec<usize>,
    cols: usize,
}

impl Tableau {
    fn pivot(&mut self, row: usize, col: usize) {
        let inv = 1.0 / self.a[row][col];
        for v in self.a[row].iter_mut() {
            *v *= inv;
        }
        let pivot_row = self.a[row].clone();
        for (r, arow) in self.a.iter_mut().enumerate() {
            if r == row {
                continue;
            }
            let factor = arow[col];
            if factor.abs() > EPS {
                for (v, &p) in arow.iter_mut().zip(pivot_row.iter()) {
                    *v -= factor * p;
                }
            }
        }
        let factor = self.obj[col];
        if factor.abs() > EPS {
            for (v, &p) in self.obj.iter_mut().zip(pivot_row.iter()) {
                *v -= factor * p;
            }
        }
        self.basis[row] = col;
    }

    fn optimize(&mut self, allowed_cols: usize, max_pivots: u64, stats: &mut PivotStats) -> Status {
        let mut bland = false;
        let mut degenerate_streak = 0u64;
        loop {
            let entering = if bland {
                (0..allowed_cols).find(|&c| self.obj[c] < -EPS)
            } else {
                let mut best: Option<(usize, f64)> = None;
                for c in 0..allowed_cols {
                    let rc = self.obj[c];
                    if rc < -EPS && best.is_none_or(|(_, b)| rc < b) {
                        best = Some((c, rc));
                    }
                }
                best.map(|(c, _)| c)
            };
            let Some(col) = entering else {
                return Status::Optimal;
            };
            if stats.pivots >= max_pivots {
                return Status::IterationLimit;
            }
            let mut leaving: Option<(usize, f64)> = None;
            for r in 0..self.a.len() {
                let coeff = self.a[r][col];
                if coeff > EPS {
                    let ratio = self.a[r][self.cols] / coeff;
                    match leaving {
                        None => leaving = Some((r, ratio)),
                        Some((br, bratio)) => {
                            if ratio < bratio - EPS
                                || (ratio < bratio + EPS && self.basis[r] < self.basis[br])
                            {
                                leaving = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let (row, ratio) = leaving.expect("covering LPs are bounded below");
            stats.pivots += 1;
            if ratio <= EPS {
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
}

/// Solves `min costs·x, Σ_{j ∈ row} x_j ≥ 1 for every row, x ≥ 0` with
/// the old pivot bound `32·(m + n + 2m) + 1024`.
pub fn solve(costs: &[f64], rows: &[Vec<u32>]) -> Solved {
    let n = costs.len();
    let m = rows.len();
    let slack0 = n;
    let art0 = n + m;
    let cols = n + 2 * m;
    let max_pivots = 32 * (m as u64 + cols as u64) + 1024;
    let mut stats = PivotStats::default();
    let failed = |status, stats: &PivotStats| Solved {
        status,
        objective_value: f64::NAN,
        pivots: stats.pivots,
    };

    let mut a = vec![vec![0.0; cols + 1]; m];
    let mut basis = vec![usize::MAX; m];
    for (r, row) in rows.iter().enumerate() {
        for &j in row {
            a[r][j as usize] += 1.0;
        }
        a[r][cols] = 1.0;
        a[r][slack0 + r] = -1.0;
        a[r][art0 + r] = 1.0;
        basis[r] = art0 + r;
    }
    let mut t = Tableau {
        a,
        obj: vec![0.0; cols + 1],
        basis,
        cols,
    };

    if m > 0 {
        // Phase 1: minimize the sum of the artificials.
        for c in art0..art0 + m {
            t.obj[c] = 1.0;
        }
        for r in 0..m {
            let row = t.a[r].clone();
            for (v, &p) in t.obj.iter_mut().zip(row.iter()) {
                *v -= p;
            }
        }
        let status = t.optimize(cols, max_pivots, &mut stats);
        if status == Status::IterationLimit {
            return failed(status, &stats);
        }
        if -t.obj[cols] > 1e-7 {
            return failed(Status::Infeasible, &stats);
        }
        for r in 0..m {
            if t.basis[r] >= art0 {
                if let Some(c) = (0..art0).find(|&c| t.a[r][c].abs() > EPS) {
                    t.pivot(r, c);
                }
            }
        }
    }

    // Phase 2: price out the real objective over the feasible basis.
    t.obj.iter_mut().for_each(|v| *v = 0.0);
    t.obj[..n].copy_from_slice(costs);
    for r in 0..m {
        let b = t.basis[r];
        let cost = if b < n { costs[b] } else { 0.0 };
        if cost.abs() > EPS {
            let row = t.a[r].clone();
            for (v, &p) in t.obj.iter_mut().zip(row.iter()) {
                *v -= cost * p;
            }
        }
    }
    let status = t.optimize(art0, max_pivots, &mut stats);
    if status == Status::IterationLimit {
        return failed(status, &stats);
    }

    let mut values = vec![0.0; n];
    for r in 0..m {
        let b = t.basis[r];
        if b < n {
            values[b] = t.a[r][cols].max(0.0);
        }
    }
    let objective_value = values.iter().zip(costs).map(|(x, c)| x * c).sum();
    Solved {
        status: Status::Optimal,
        objective_value,
        pivots: stats.pivots,
    }
}

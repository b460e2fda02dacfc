//! LP-relaxation rounding for WSC — the literal "LP-based algorithm \[50\]"
//! of the paper's Algorithm 3.
//!
//! Solve `min Σ c_s x_s` subject to `Σ_{s ∋ e} x_s ≥ 1` for every element
//! `e`, `x ≥ 0`, then select every set with `x_s ≥ 1/f` where `f` is the
//! instance frequency. Each constraint has at most `f` variables, so the
//! rounded solution is feasible and costs at most `f · OPT_LP ≤ f · OPT`.
//!
//! The LP goes to `mc3-lp`'s covering dual simplex. Its dense tableau
//! makes this path suitable for small/medium instances;
//! Algorithm 3 switches to [`crate::primal_dual`] (same guarantee) above a
//! configurable size threshold.

use crate::instance::{SetCoverInstance, SetCoverSolution};
use mc3_core::u32_of;
use mc3_core::{Mc3Error, Result};
use mc3_lp::LpStatus;

/// Solves WSC by LP rounding. Errors if the instance is uncoverable or the
/// LP solver fails unexpectedly.
pub fn solve_lp_rounding(instance: &SetCoverInstance) -> Result<SetCoverSolution> {
    let _span = mc3_telemetry::span("setcover.lp_round");
    instance.ensure_coverable()?;
    if instance.num_elements() == 0 {
        return Ok(SetCoverSolution::new(instance, vec![]));
    }
    let f = instance.frequency().max(1);

    let costs: Vec<f64> = (0..instance.num_sets())
        .map(|s| instance.cost(s).raw() as f64)
        .collect();
    let rows = (0..u32_of(instance.num_elements())).map(|e| instance.containing(e));
    let sol = mc3_lp::solve_covering(&costs, rows);
    match sol.status {
        LpStatus::Optimal => {}
        LpStatus::Infeasible => {
            return Err(Mc3Error::Internal(
                "covering LP reported infeasible despite coverable instance".to_owned(),
            ))
        }
        LpStatus::Unbounded => {
            return Err(Mc3Error::Internal(
                "covering LP reported unbounded (non-negative costs forbid this)".to_owned(),
            ))
        }
        LpStatus::IterationLimit => return Err(Mc3Error::LpIterationLimit { pivots: sol.pivots }),
    }
    #[cfg(feature = "verify")]
    crate::verify::assert_lp_strong_duality(instance, &costs, &sol.values, &sol.duals);

    let threshold = 1.0 / f as f64 - 1e-7;
    let selected: Vec<usize> = sol
        .values
        .iter()
        .enumerate()
        .filter(|&(_, &x)| x >= threshold)
        .map(|(s, _)| s)
        .collect();
    let rounded = SetCoverSolution::new(instance, selected);
    debug_assert!(rounded.is_cover(instance), "LP rounding must stay feasible");
    Ok(rounded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc3_core::Weight;

    fn w(v: u64) -> Weight {
        Weight::new(v)
    }

    #[test]
    fn integral_lp_recovers_optimum() {
        // Disjoint sets: LP is integral.
        let inst = SetCoverInstance::new(
            4,
            vec![
                (vec![0, 1], w(2)),
                (vec![2, 3], w(3)),
                (vec![0, 1, 2, 3], w(6)),
            ],
        );
        let sol = solve_lp_rounding(&inst).unwrap();
        assert!(sol.is_cover(&inst));
        assert_eq!(sol.cost, w(5));
    }

    #[test]
    fn triangle_vertex_cover_rounds_within_factor_two() {
        // VC of a triangle as WSC with f = 2: LP = 1.5, rounding ≤ 3, OPT = 2.
        let inst = SetCoverInstance::new(
            3,
            vec![(vec![0, 2], w(1)), (vec![0, 1], w(1)), (vec![1, 2], w(1))],
        );
        let sol = solve_lp_rounding(&inst).unwrap();
        assert!(sol.is_cover(&inst));
        assert!(sol.cost <= w(3));
    }

    #[test]
    fn rounding_respects_f_times_opt_on_random_instances() {
        use mc3_core::rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(31337);
        for _ in 0..30 {
            let n = rng.gen_range(1..=6usize);
            let mut sets = Vec::new();
            for e in 0..n as u32 {
                sets.push((vec![e], w(rng.gen_range(1..10))));
            }
            for _ in 0..rng.gen_range(0..=5usize) {
                let els: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.5)).collect();
                if !els.is_empty() {
                    sets.push((els, w(rng.gen_range(1..10))));
                }
            }
            let inst = SetCoverInstance::new(n, sets);
            let lp = solve_lp_rounding(&inst).unwrap();
            assert!(lp.is_cover(&inst));
            let opt = crate::exact::solve_exact(&inst).unwrap();
            let f = inst.frequency() as u64;
            assert!(
                lp.cost.raw() <= f * opt.cost.raw(),
                "LP rounding {} exceeds f·OPT = {}·{}",
                lp.cost,
                f,
                opt.cost
            );
        }
    }

    #[test]
    fn zero_cost_sets_always_selected() {
        let inst = SetCoverInstance::new(1, vec![(vec![0], Weight::ZERO), (vec![0], w(4))]);
        let sol = solve_lp_rounding(&inst).unwrap();
        assert_eq!(sol.cost, Weight::ZERO);
    }

    #[test]
    fn uncoverable_errors() {
        let inst = SetCoverInstance::new(2, vec![(vec![0], w(1))]);
        assert!(solve_lp_rounding(&inst).is_err());
    }

    #[test]
    fn empty_instance() {
        let inst = SetCoverInstance::new(0, vec![(vec![], w(3))]);
        let sol = solve_lp_rounding(&inst).unwrap();
        assert!(sol.selected.is_empty());
    }
}

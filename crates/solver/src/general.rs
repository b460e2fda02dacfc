//! The general MC³ approximation solver — Algorithm 3 of the paper (§5.2).
//!
//! Reduce the residual problem to Weighted Set Cover, run the greedy
//! algorithm *and* an `f`-approximation (LP rounding on small instances, the
//! primal–dual algorithm — identical guarantee — beyond a size threshold),
//! and keep the cheaper output. Theorem 5.3: the combination is a
//! `min{ln I + ln(k−1) + 1, 2^(k−1)}`-approximation.

use crate::reduction::{reduce_to_wsc_with, ReductionScratch};
use crate::work::WorkState;
use mc3_core::{ClassifierId, Result};
use mc3_setcover::{
    local_search, prune_redundant, solve_greedy, solve_lp_rounding, solve_primal_dual,
    SetCoverSolution,
};

/// Which WSC algorithms Algorithm 3 runs on the reduced instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WscStrategy {
    /// Greedy + `f`-approximation, keep the cheaper (the paper's choice).
    Combined,
    /// Greedy only (`ln Δ + 1` guarantee).
    GreedyOnly,
    /// Primal–dual only (`f` guarantee).
    PrimalDualOnly,
    /// LP rounding only (`f` guarantee; dense simplex — small instances).
    LpRoundingOnly,
}

/// Size thresholds above which [`WscStrategy::Combined`] uses primal–dual
/// instead of the simplex-based LP rounding.
#[derive(Debug, Clone, Copy)]
pub struct LpLimits {
    /// Maximum number of WSC sets for the simplex path.
    pub max_sets: usize,
    /// Maximum number of WSC elements for the simplex path.
    pub max_elements: usize,
}

impl Default for LpLimits {
    fn default() -> Self {
        LpLimits {
            max_sets: 600,
            max_elements: 400,
        }
    }
}

/// Solves the residual problem over `queries` with Algorithm 3's core;
/// returns the classifier ids to add to the solution. `refine = false`
/// skips the reverse-delete refinement and runs the paper's Algorithm 3
/// exactly as published (the preprocessing-effect experiments, Fig. 3e).
/// The reduction draws its buffers from `scratch` and recycles them on
/// the way out, so callers solving many components (or many rounds)
/// reuse one scratch and the reduction allocates nothing after the first
/// call.
pub fn solve_general_scratch(
    ws: &WorkState<'_>,
    queries: &[usize],
    strategy: WscStrategy,
    lp_limits: LpLimits,
    refine: bool,
    scratch: &mut ReductionScratch,
) -> Result<Vec<ClassifierId>> {
    let _span = mc3_telemetry::span("general.solve");
    mc3_telemetry::span_add(mc3_telemetry::Counter::DispatchGeneral, 1);
    let red = reduce_to_wsc_with(ws, queries, scratch);
    if red.instance.num_elements() == 0 {
        scratch.recycle(red);
        return Ok(Vec::new());
    }
    red.instance.ensure_coverable().map_err(|e| {
        // translate element index back to its query
        if let mc3_core::Mc3Error::Uncoverable { query_index } = e {
            mc3_core::Mc3Error::Uncoverable {
                query_index: red.element_origin[query_index].0 as usize,
            }
        } else {
            e
        }
    })?;

    let lp_fits = red.instance.num_sets() <= lp_limits.max_sets
        && red.instance.num_elements() <= lp_limits.max_elements;

    // Every raw output goes through reverse-delete pruning and swap local
    // search; the two interact (a swap can pin a previously redundant set),
    // so both chains are evaluated and the cheaper kept. Cost can only
    // decrease — all guarantees are preserved (see mc3_setcover::{prune,
    // local_search}).
    let refine = |sol: SetCoverSolution| {
        if refine {
            let pruned = prune_redundant(&red.instance, &sol);
            let swapped = local_search(&red.instance, &sol);
            if swapped.cost < pruned.cost {
                swapped
            } else {
                pruned
            }
        } else {
            sol
        }
    };
    let best: SetCoverSolution = match strategy {
        WscStrategy::GreedyOnly => refine(solve_greedy(&red.instance)?),
        WscStrategy::PrimalDualOnly => refine(solve_primal_dual(&red.instance)?),
        WscStrategy::LpRoundingOnly => refine(solve_lp_rounding(&red.instance)?),
        WscStrategy::Combined => {
            let greedy = refine(solve_greedy(&red.instance)?);
            // The simplex can hit its anti-cycling pivot bound on adversarial
            // covering LPs; primal–dual carries the same f-approximation
            // guarantee, so Combined degrades gracefully instead of failing.
            let dual_raw = if lp_fits {
                match solve_lp_rounding(&red.instance) {
                    Err(mc3_core::Mc3Error::LpIterationLimit { pivots }) => {
                        mc3_obs::warn(
                            "solver",
                            "LP rounding hit the simplex pivot bound; falling back to primal-dual",
                            &[("pivots", pivots.into())],
                        );
                        solve_primal_dual(&red.instance)?
                    }
                    other => other?,
                }
            } else {
                solve_primal_dual(&red.instance)?
            };
            let dual = refine(dual_raw);
            if dual.cost < greedy.cost {
                dual
            } else {
                greedy
            }
        }
    };

    let mut ids: Vec<ClassifierId> = best
        .selected
        .iter()
        .map(|&s| red.set_to_classifier[s])
        .collect();
    ids.sort_unstable();
    ids.dedup();
    // Certificate (verify feature): coverage plus the Theorem 5.3 ratio.
    // The greedy side is bounded by H(Δ) — at most the paper's
    // ln I + ln(k−1) + 1 once preprocessing has removed singletons — and
    // the dual side by the instance's exact frequency f ≤ 2^(k−1); the
    // Combined strategy keeps the cheaper output, hence the min.
    #[cfg(feature = "verify")]
    {
        let _vspan = mc3_telemetry::span("verify.ratio");
        let bounds = crate::verify::residual_bounds(ws, queries);
        let theorem = if bounds.queries > 0 && bounds.max_len >= 2 {
            (bounds.queries as f64).ln() + ((bounds.max_len - 1) as f64).ln() + 1.0
        } else {
            1.0
        };
        let greedy_ratio = mc3_setcover::verify::harmonic(red.instance.degree())
            .max(theorem)
            .max(1.0);
        let f_ratio = (red.instance.frequency() as f64).max(1.0);
        let ratio = match strategy {
            WscStrategy::GreedyOnly => greedy_ratio,
            WscStrategy::PrimalDualOnly | WscStrategy::LpRoundingOnly => f_ratio,
            WscStrategy::Combined => greedy_ratio.min(f_ratio),
        };
        crate::verify::assert_ratio_certificate(ws, queries, &ids, ratio);
        mc3_telemetry::span_add(mc3_telemetry::Counter::VerifyRatioChecks, 1);
    }
    scratch.recycle(red);
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc3_core::{ClassifierUniverse, Instance, Mc3Error, PropSet, Weights, WeightsBuilder};

    /// Algorithm 3 with refinement, default LP limits and a fresh scratch.
    fn solve(
        ws: &WorkState<'_>,
        queries: &[usize],
        strategy: WscStrategy,
    ) -> Result<Vec<ClassifierId>> {
        let mut scratch = ReductionScratch::new();
        solve_general_scratch(
            ws,
            queries,
            strategy,
            LpLimits::default(),
            true,
            &mut scratch,
        )
    }

    fn ws_for(instance: &Instance) -> WorkState<'_> {
        let u = ClassifierUniverse::build(instance);
        WorkState::new(instance, u)
    }

    fn cost_of(ws: &WorkState<'_>, ids: &[ClassifierId]) -> u64 {
        ids.iter().map(|&c| ws.universe.weight(c).raw()).sum()
    }

    fn all_queries(instance: &Instance) -> Vec<usize> {
        (0..instance.num_queries()).collect()
    }

    #[test]
    fn paper_example_1_1_is_solved_optimally() {
        // props: j=0, w=1, a=2, c=3; optimum {AC, AJ, W} = 7N
        let w = WeightsBuilder::new()
            .classifier([3u32], 5u64)
            .classifier([2u32], 5u64)
            .classifier([0u32], 5u64)
            .classifier([1u32], 1u64)
            .classifier([2u32, 3], 3u64)
            .classifier([1u32, 2], 5u64)
            .classifier([0u32, 2], 3u64)
            .classifier([0u32, 1], 4u64)
            .classifier([0u32, 1, 2], 5u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1, 2], vec![2u32, 3]], w).unwrap();
        let ws = ws_for(&instance);
        for strategy in [
            WscStrategy::Combined,
            WscStrategy::GreedyOnly,
            WscStrategy::PrimalDualOnly,
            WscStrategy::LpRoundingOnly,
        ] {
            let ids = solve(&ws, &all_queries(&instance), strategy).unwrap();
            let sol = mc3_core::Solution::from_ids(&ws.universe, ids.iter().copied());
            sol.verify(&instance).unwrap();
            // all strategies cover; Combined must reach the optimum here
            if strategy == WscStrategy::Combined {
                assert_eq!(cost_of(&ws, &ids), 7, "strategy {strategy:?}");
                let aj = ws.universe.id_of(&PropSet::from_ids([0u32, 2])).unwrap();
                let ac = ws.universe.id_of(&PropSet::from_ids([2u32, 3])).unwrap();
                let wsing = ws.universe.id_of(&PropSet::from_ids([1u32])).unwrap();
                assert_eq!(
                    ids,
                    vec![aj, wsing, ac]
                        .into_iter()
                        .collect::<std::collections::BTreeSet<_>>()
                        .into_iter()
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn three_property_query_uses_combination() {
        let w = WeightsBuilder::new()
            .classifier([0u32], 2u64)
            .classifier([1u32], 2u64)
            .classifier([2u32], 2u64)
            .classifier([0u32, 1], 3u64)
            .classifier([0u32, 2], 9u64)
            .classifier([1u32, 2], 9u64)
            .classifier([0u32, 1, 2], 9u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1, 2]], w).unwrap();
        let ws = ws_for(&instance);
        let ids = solve(&ws, &all_queries(&instance), WscStrategy::Combined).unwrap();
        assert_eq!(cost_of(&ws, &ids), 5); // XY(3) + Z(2)
    }

    #[test]
    fn residual_respects_selected_coverage() {
        let instance = Instance::new(vec![vec![0u32, 1, 2]], Weights::uniform(2u64)).unwrap();
        let mut ws = ws_for(&instance);
        let xy = ws.universe.id_of(&PropSet::from_ids([0u32, 1])).unwrap();
        ws.select(xy);
        let alive = ws.alive_query_indices();
        let ids = solve(&ws, &alive, WscStrategy::Combined).unwrap();
        // only z needed: Z (2) is among the cheapest completions
        assert_eq!(cost_of(&ws, &ids), 2);
    }

    #[test]
    fn uncoverable_translates_back_to_query_index() {
        let w = WeightsBuilder::new().classifier([0u32], 1u64).build();
        let instance = Instance::new(vec![vec![0u32], vec![1u32, 2]], w).unwrap();
        let ws = ws_for(&instance);
        let err = solve(&ws, &all_queries(&instance), WscStrategy::Combined).unwrap_err();
        assert_eq!(err, Mc3Error::Uncoverable { query_index: 1 });
    }

    #[test]
    fn empty_residual_returns_nothing() {
        let instance = Instance::new(vec![vec![0u32, 1]], Weights::uniform(1u64)).unwrap();
        let mut ws = ws_for(&instance);
        let xy = ws.universe.id_of(&PropSet::from_ids([0u32, 1])).unwrap();
        ws.select(xy);
        let ids = solve(&ws, &[], WscStrategy::Combined).unwrap();
        assert!(ids.is_empty());
    }

    #[test]
    fn greedy_and_dual_strategies_both_cover_random_instances() {
        use mc3_core::rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..25 {
            let n = rng.gen_range(1..=6usize);
            let mut queries = Vec::new();
            for _ in 0..n {
                let len = rng.gen_range(1..=4usize);
                let props: Vec<u32> = (0..len).map(|_| rng.gen_range(0..8u32)).collect();
                queries.push(props);
            }
            let instance = Instance::new(queries, Weights::seeded(rng.gen(), 1, 20)).unwrap();
            let ws = ws_for(&instance);
            for strategy in [
                WscStrategy::GreedyOnly,
                WscStrategy::PrimalDualOnly,
                WscStrategy::LpRoundingOnly,
                WscStrategy::Combined,
            ] {
                let ids = solve(&ws, &all_queries(&instance), strategy).unwrap();
                let sol = mc3_core::Solution::from_ids(&ws.universe, ids.iter().copied());
                sol.verify(&instance).unwrap();
            }
        }
    }
}

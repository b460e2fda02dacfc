//! The exact PTIME solver for `k ≤ 2` — Algorithm 2 of the paper (§4).
//!
//! The residual problem is reduced to Weighted Vertex Cover over a bipartite
//! graph: the left side holds singleton classifiers, the right side holds
//! length-2 classifiers, and each query `xy` contributes one edge per still
//! needed property — `(X, XY)` for `x` and `(Y, XY)` for `y`. A vertex cover
//! must, per query, either take `XY` or take every needed singleton, which
//! is exactly the covering condition; minimality transfers both ways
//! (Theorem 4.1). The WVC instance is solved exactly via Dinic max-flow
//! (Theorem 2.3, `mc3-flow`).

use crate::work::WorkState;
use mc3_core::u32_of;
use mc3_core::{ClassifierId, FxHashMap, Mc3Error, Result, Weight};
use mc3_flow::{solve_bipartite_wvc, BipartiteWvc};

/// Solves the residual problem restricted to `queries` (each of length ≤ 2)
/// exactly; returns the classifier ids to add to the solution.
///
/// Singleton queries that survived preprocessing (e.g. when preprocessing is
/// disabled) are handled by directly selecting their singleton classifier.
pub fn solve_k2(ws: &WorkState<'_>, queries: &[usize]) -> Result<Vec<ClassifierId>> {
    let _span = mc3_telemetry::span("k2.solve");
    mc3_telemetry::span_add(mc3_telemetry::Counter::DispatchK2, 1);
    let mut picked: Vec<ClassifierId> = Vec::new();

    // Singleton queries force their classifier (Observation 3.1). When
    // preprocessing is disabled these survive into the solver, and the VC
    // graph must see the forced classifiers as free (and the properties
    // they test as covered) or optimality is lost — a pair query sharing
    // the property would otherwise pay for it twice.
    let mut forced: mc3_core::FxHashSet<u32> = mc3_core::FxHashSet::default();
    for &q in queries {
        if ws.need(q) == 0 {
            continue;
        }
        let local = ws.universe.query_local(q);
        if local.len == 1 {
            let id = local.table[1];
            if !ws.is_usable(id) {
                return Err(Mc3Error::Uncoverable { query_index: q });
            }
            forced.insert(id.0);
            picked.push(id);
        }
    }
    let weight_of = |id: ClassifierId| -> Weight {
        if forced.contains(&id.0) {
            Weight::ZERO
        } else if ws.is_available(id) {
            ws.weight[id.index()]
        } else {
            Weight::INFINITE
        }
    };
    // node registries keyed by classifier id
    let mut left_slot: FxHashMap<u32, u32> = FxHashMap::default();
    let mut left_ids: Vec<ClassifierId> = Vec::new();
    let mut left_weights: Vec<Weight> = Vec::new();
    let mut right_slot: FxHashMap<u32, u32> = FxHashMap::default();
    let mut right_ids: Vec<ClassifierId> = Vec::new();
    let mut right_weights: Vec<Weight> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut edge_query: Vec<usize> = Vec::new();

    for &q in queries {
        let need = ws.need(q);
        if need == 0 {
            continue;
        }
        let local = ws.universe.query_local(q);
        match local.len {
            1 => {} // already handled in the forced pass
            2 => {
                let pair = local.table[0b11];
                let r = *right_slot.entry(pair.0).or_insert_with(|| {
                    let slot = u32_of(right_ids.len());
                    right_ids.push(pair);
                    right_weights.push(weight_of(pair));
                    slot
                });
                let mut bits = need;
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    let single = local.table[1 << b];
                    if forced.contains(&single.0) {
                        continue; // property already covered by a forced pick
                    }
                    let l = *left_slot.entry(single.0).or_insert_with(|| {
                        let slot = u32_of(left_ids.len());
                        left_ids.push(single);
                        left_weights.push(weight_of(single));
                        slot
                    });
                    edges.push((l, r));
                    edge_query.push(q);
                }
            }
            len => {
                return Err(Mc3Error::Internal(format!(
                    "k2 solver received a query of length {len}"
                )))
            }
        }
    }

    if !edges.is_empty() {
        let inst = BipartiteWvc {
            left_weights,
            right_weights,
            edges,
        };
        let sol = solve_bipartite_wvc(&inst).map_err(|e| match e {
            // translate edge index back to the query it came from
            Mc3Error::Uncoverable { query_index } => Mc3Error::Uncoverable {
                query_index: edge_query[query_index],
            },
            other => other,
        })?;
        for (i, &in_cover) in sol.in_cover_left.iter().enumerate() {
            if in_cover {
                picked.push(left_ids[i]);
            }
        }
        for (j, &in_cover) in sol.in_cover_right.iter().enumerate() {
            if in_cover {
                picked.push(right_ids[j]);
            }
        }
    }

    picked.sort_unstable();
    picked.dedup();
    // Certificate (verify feature): the pick must cover every residual
    // need, and — since Algorithm 2 is exact (Theorem 4.1) — its cost must
    // land inside the per-query [max min-cover, Σ min-cover] bracket.
    #[cfg(feature = "verify")]
    {
        let _vspan = mc3_telemetry::span("verify.exact_bracket");
        crate::verify::assert_exact_certificate(ws, queries, &picked);
        mc3_telemetry::span_add(mc3_telemetry::Counter::VerifyExactBracketChecks, 1);
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc3_core::{ClassifierUniverse, Instance, PropSet, Weights, WeightsBuilder};

    fn ws_for(instance: &Instance) -> WorkState<'_> {
        let u = ClassifierUniverse::build(instance);
        WorkState::new(instance, u)
    }

    fn cost_of(ws: &WorkState<'_>, ids: &[ClassifierId]) -> u64 {
        ids.iter().map(|&c| ws.universe.weight(c).raw()).sum()
    }

    #[test]
    fn single_query_picks_cheapest_of_pair_or_singletons() {
        // W(X)=2, W(Y)=2, W(XY)=3 → XY wins
        let w = WeightsBuilder::new()
            .classifier([0u32], 2u64)
            .classifier([1u32], 2u64)
            .classifier([0u32, 1], 3u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1]], w).unwrap();
        let ws = ws_for(&instance);
        let ids = solve_k2(&ws, &[0]).unwrap();
        assert_eq!(cost_of(&ws, &ids), 3);
        let xy = ws.universe.id_of(&PropSet::from_ids([0u32, 1])).unwrap();
        assert_eq!(ids, vec![xy]);
    }

    #[test]
    fn shared_singleton_amortizes() {
        // Queries {x,y}, {x,z}: W(X)=1 and everything else 5 → X + Y + Z = 11
        // vs XY + XZ = 10 vs X,Y / XZ mixes; optimal = X(1)+Y(5)+Z(5) = 11?
        // XY(5)+XZ(5) = 10 is cheaper → WVC should find 10.
        let w = WeightsBuilder::new()
            .classifier([0u32], 1u64)
            .classifier([1u32], 5u64)
            .classifier([2u32], 5u64)
            .classifier([0u32, 1], 5u64)
            .classifier([0u32, 2], 5u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1], vec![0u32, 2]], w).unwrap();
        let ws = ws_for(&instance);
        let ids = solve_k2(&ws, &[0, 1]).unwrap();
        assert_eq!(cost_of(&ws, &ids), 10);
    }

    #[test]
    fn cheap_shared_singleton_wins() {
        // Same topology, but pairs expensive: X(1) + Y(2) + Z(2) = 5 < pairs
        let w = WeightsBuilder::new()
            .classifier([0u32], 1u64)
            .classifier([1u32], 2u64)
            .classifier([2u32], 2u64)
            .classifier([0u32, 1], 4u64)
            .classifier([0u32, 2], 4u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1], vec![0u32, 2]], w).unwrap();
        let ws = ws_for(&instance);
        let ids = solve_k2(&ws, &[0, 1]).unwrap();
        assert_eq!(cost_of(&ws, &ids), 5);
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn singleton_queries_handled_without_preprocessing() {
        let instance = Instance::new(vec![vec![7u32]], Weights::uniform(4u64)).unwrap();
        let ws = ws_for(&instance);
        let ids = solve_k2(&ws, &[0]).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(cost_of(&ws, &ids), 4);
    }

    #[test]
    fn partially_covered_query_needs_one_edge() {
        let w = WeightsBuilder::new()
            .classifier([0u32], 1u64)
            .classifier([1u32], 9u64)
            .classifier([0u32, 1], 3u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1]], w).unwrap();
        let mut ws = ws_for(&instance);
        let x = ws.universe.id_of(&PropSet::from_ids([0u32])).unwrap();
        ws.select(x); // covers x; query still needs y
        let alive = ws.alive_query_indices();
        let ids = solve_k2(&ws, &alive).unwrap();
        // y coverable by Y (9) or XY (3) → XY
        assert_eq!(cost_of(&ws, &ids), 3);
    }

    #[test]
    fn infinite_options_force_the_other_side() {
        // Y missing (infinite) → must take XY even though X+Y would be "cheap"
        let w = WeightsBuilder::new()
            .classifier([0u32], 1u64)
            .classifier([0u32, 1], 50u64)
            .build();
        let instance = Instance::new(vec![vec![0u32, 1]], w).unwrap();
        let ws = ws_for(&instance);
        let ids = solve_k2(&ws, &[0]).unwrap();
        assert_eq!(cost_of(&ws, &ids), 50);
    }

    #[test]
    fn uncoverable_query_reports_index() {
        let w = WeightsBuilder::new().classifier([0u32], 1u64).build();
        let instance = Instance::new(vec![vec![0u32], vec![1u32, 2]], w).unwrap();
        let ws = ws_for(&instance);
        let err = solve_k2(&ws, &[0, 1]).unwrap_err();
        assert_eq!(err, Mc3Error::Uncoverable { query_index: 1 });
    }

    #[test]
    fn rejects_long_queries() {
        let instance = Instance::new(vec![vec![0u32, 1, 2]], Weights::uniform(1u64)).unwrap();
        let ws = ws_for(&instance);
        assert!(matches!(solve_k2(&ws, &[0]), Err(Mc3Error::Internal(_))));
    }

    #[test]
    fn covered_queries_are_skipped() {
        let instance = Instance::new(vec![vec![0u32, 1]], Weights::uniform(2u64)).unwrap();
        let mut ws = ws_for(&instance);
        let xy = ws.universe.id_of(&PropSet::from_ids([0u32, 1])).unwrap();
        ws.select(xy);
        let ids = solve_k2(&ws, &[0]).unwrap();
        assert!(ids.is_empty());
    }
}

//! Reverse-delete pruning of WSC solutions.
//!
//! Greedy (and rounding) outputs often contain sets that later selections
//! made redundant — every element they cover is covered again by another
//! selected set. Dropping such sets, most expensive first, can only lower
//! the cost, so all approximation guarantees are preserved. This is one of
//! the practice-oriented heuristics the paper applies on top of its
//! guarantee-carrying algorithms (§1: "augment both algorithms with
//! heuristics which preserve the approximation guarantees, yet improve in
//! practice ... the quality of the solution").

use crate::bitcover::BitCover;
use crate::instance::{SetCoverInstance, SetCoverSolution};
use mc3_core::u32_of;

/// Removes redundant sets from `solution` (most expensive first; ties by
/// larger id for determinism). The result covers exactly the same elements.
pub fn prune_redundant(
    instance: &SetCoverInstance,
    solution: &SetCoverSolution,
) -> SetCoverSolution {
    // multiplicity[e] = how many selected sets cover e; the `unique` bitmap
    // tracks the elements with multiplicity exactly 1 — a set is removable
    // iff it touches none of them (every element of a selected set has
    // multiplicity ≥ 1, so "all ≥ 2" ⇔ "none == 1"), turning the per-set
    // test into an early-exit bitmap probe.
    let mut multiplicity = vec![0u32; instance.num_elements()];
    let mut unique = BitCover::new(instance.num_elements());
    for &s in &solution.selected {
        for &e in instance.set(s) {
            // audit:allow(no-unchecked-index-in-hot-loops) element ids are dense 0..num_elements
            multiplicity[e as usize] += 1;
        }
    }
    for (e, &m) in multiplicity.iter().enumerate() {
        if m == 1 {
            unique.set(u32_of(e));
        }
    }
    let mut order = solution.selected.clone();
    order.sort_by_key(|&s| (std::cmp::Reverse(instance.cost(s)), std::cmp::Reverse(s)));

    let mut keep: Vec<usize> = Vec::with_capacity(order.len());
    // Steady-state reverse-delete loop: all buffers preallocated above, so
    // this span records zero allocations (pinned by `mc3-audit consistency`).
    let prune_span = mc3_telemetry::span("setcover.prune");
    for s in order {
        let removable = !unique.intersects(instance.set(s));
        if removable && !instance.cost(s).is_zero() {
            for &e in instance.set(s) {
                // audit:allow(no-unchecked-index-in-hot-loops) element ids are dense 0..num_elements
                let m = &mut multiplicity[e as usize];
                *m -= 1;
                if *m == 1 {
                    unique.set(e);
                }
            }
        } else {
            // audit:allow(no-alloc-in-hot-loops) reviewed: output accumulation with capacity reserved up front
            keep.push(s);
        }
    }
    // Tallied while the span is open: a caller that opens no span of its
    // own (`solve_with_multivalued`) would otherwise record it nowhere.
    mc3_telemetry::span_add(
        mc3_telemetry::Counter::BitCoverWordOps,
        unique.take_word_ops(),
    );
    drop(prune_span);
    SetCoverSolution::new(instance, keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::solve_greedy;
    use mc3_core::Weight;

    fn w(v: u64) -> Weight {
        Weight::new(v)
    }

    #[test]
    fn drops_fully_shadowed_set() {
        let inst = SetCoverInstance::new(
            3,
            vec![(vec![0, 1, 2], w(5)), (vec![0, 1], w(1)), (vec![2], w(1))],
        );
        let sol = SetCoverSolution::new(&inst, vec![0, 1, 2]);
        let pruned = prune_redundant(&inst, &sol);
        assert!(pruned.is_cover(&inst));
        assert_eq!(pruned.selected, vec![1, 2]);
        assert_eq!(pruned.cost, w(2));
    }

    #[test]
    fn word_ops_are_recorded_under_the_prune_span() {
        let inst = SetCoverInstance::new(2, vec![(vec![0, 1], w(10)), (vec![0, 1], w(2))]);
        let sol = SetCoverSolution::new(&inst, vec![0, 1]);
        let session = mc3_telemetry::Session::begin();
        prune_redundant(&inst, &sol);
        let report = session.finish();
        let prune = report
            .spans
            .iter()
            .find(|s| s.name == "setcover.prune")
            .expect("a bare call records a setcover.prune root");
        let ops = prune.counters.get("bitcover_word_ops").copied();
        assert!(ops.unwrap_or(0) > 0, "{prune:?}");
    }

    #[test]
    fn keeps_necessary_sets() {
        let inst = SetCoverInstance::new(2, vec![(vec![0], w(3)), (vec![1], w(4))]);
        let sol = SetCoverSolution::new(&inst, vec![0, 1]);
        let pruned = prune_redundant(&inst, &sol);
        assert_eq!(pruned.selected, vec![0, 1]);
    }

    #[test]
    fn removes_most_expensive_redundancy_first() {
        // Elements 0,1 each covered by three sets; only one needed.
        let inst = SetCoverInstance::new(
            2,
            vec![(vec![0, 1], w(10)), (vec![0, 1], w(2)), (vec![0, 1], w(7))],
        );
        let sol = SetCoverSolution::new(&inst, vec![0, 1, 2]);
        let pruned = prune_redundant(&inst, &sol);
        assert_eq!(pruned.selected, vec![1]);
        assert_eq!(pruned.cost, w(2));
    }

    #[test]
    fn zero_cost_sets_are_never_dropped() {
        let inst = SetCoverInstance::new(1, vec![(vec![0], Weight::ZERO), (vec![0], w(5))]);
        let sol = SetCoverSolution::new(&inst, vec![0, 1]);
        let pruned = prune_redundant(&inst, &sol);
        assert!(pruned.selected.contains(&0));
        assert_eq!(pruned.cost, Weight::ZERO);
    }

    #[test]
    fn never_increases_cost_on_random_greedy_outputs() {
        use mc3_core::rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(606);
        for _ in 0..50 {
            let n = rng.gen_range(1..=10usize);
            let mut sets = Vec::new();
            for e in 0..n as u32 {
                sets.push((vec![e], w(rng.gen_range(1..9))));
            }
            for _ in 0..rng.gen_range(0..=10usize) {
                let els: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.5)).collect();
                if !els.is_empty() {
                    sets.push((els, w(rng.gen_range(1..9))));
                }
            }
            let inst = SetCoverInstance::new(n, sets);
            let sol = solve_greedy(&inst).unwrap();
            let pruned = prune_redundant(&inst, &sol);
            assert!(pruned.is_cover(&inst));
            assert!(pruned.cost <= sol.cost);
        }
    }
}

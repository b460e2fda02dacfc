//! Chvátal's greedy WSC algorithm on a sorted cursor with an overflow heap.
//!
//! At every step, select the set maximizing `newly covered / cost`
//! (zero-cost sets compare as infinitely good). Approximation factor
//! `H(Δ) ≤ ln Δ + 1` \[6\]. The naive implementation is `O(nm)`; following
//! \[9\] entries may be stale: the inspected entry's coverage count is
//! recomputed and the entry reinserted if it decreased — each set is
//! reinserted at most `|s|` times.
//!
//! Ratio comparisons use `u128` cross-multiplication: `cov_a / cost_a >
//! cov_b / cost_b ⇔ cov_a · cost_b > cov_b · cost_a` — no floats, no ties
//! broken by rounding. Final ties fall back to the smaller set id, keeping
//! the algorithm fully deterministic.
//!
//! ## Priority structure
//!
//! A single binary heap over all `m` entries spends most of the solve
//! sifting through `O(m)` pops of fully-stale entries (every set whose
//! initial optimistic ratio exceeds the final selection threshold surfaces
//! exactly once). Instead, the optimistic priorities are **sorted once** and
//! consumed by a cursor — a pop from the sorted prefix costs two loads —
//! while the rare reinserted (stale-but-alive) entries go to a small
//! overflow heap. The next inspection is the larger of the cursor head and
//! the overflow top, so the inspection sequence is *identical* to the lazy
//! heap's pop sequence (both drain the same total order over optimistic
//! entries), and with it every counter and the selection itself.
//!
//! Sorting uses a two-phase scheme: a pure-integer sort on the fixed-point
//! proxy `key = ⌊cov · 2³² / cost⌋` (descending, ids ascending within equal
//! keys), then a linear verification pass that re-sorts any equal-key run
//! whose exact order disagrees. The proxy is *exactly* monotone in the true
//! ratio — it is the floor of the exact rational scaled by 2³², with no
//! intermediate rounding — so differing keys always agree with the exact
//! comparator and only equal-key runs can need fixing (equal true ratios
//! already sit in exact order, because their tie-break is ascending id).
//!
//! Coverage state lives in a [`BitCover`] bitmap: an inspected entry's
//! current coverage is recomputed on demand with `newly_covered` over the
//! set's element list, instead of maintaining per-set live counters through
//! the element→sets `containing(e)` fan-out on every selection. The recount
//! yields the same value the old counters held, so the selection sequence
//! (and every counter) is bit-identical — only the access pattern changes,
//! from scattered index walks to one cache-resident bitmap.

use crate::bitcover::BitCover;
use crate::instance::{SetCoverInstance, SetCoverSolution};
use mc3_core::u32_of;
use mc3_core::{Mc3Error, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Fixed-point proxy for the ratio `cov / cost`, exactly monotone in it:
/// `ratio_a < ratio_b ⟹ key_a ≤ key_b` and equal ratios give equal keys.
/// Zero-cost sets rank as infinitely good.
#[inline]
fn ratio_key(cov: u32, cost: u64) -> u64 {
    if cost == 0 {
        u64::MAX
    } else {
        ((cov as u64) << 32) / cost
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// Fixed-point ratio proxy — compared first, exact chain on ties.
    key: u64,
    /// Number of still-uncovered elements this set covered when inspected.
    cov: u32,
    /// The set's cost.
    cost: u64,
    /// The set id (ties → smaller id wins).
    id: u32,
}

impl Entry {
    #[inline]
    fn new(cov: u32, cost: u64, id: u32) -> Entry {
        Entry {
            key: ratio_key(cov, cost),
            cov,
            cost,
            id,
        }
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // The key proxy agrees with the exact ratio order whenever it
        // differs (monotonicity), so it can safely short-circuit the u128
        // cross-multiplication. cost 0 ⇒ infinite ratio; among zero-cost
        // sets, higher coverage first.
        self.key.cmp(&other.key).then_with(|| {
            let lhs = self.cov as u128 * other.cost as u128;
            let rhs = other.cov as u128 * self.cost as u128;
            lhs.cmp(&rhs)
                .then_with(|| {
                    // zero-cost × zero-cost → both products 0: compare coverage
                    if self.cost == 0 && other.cost == 0 {
                        self.cov.cmp(&other.cov)
                    } else {
                        Ordering::Equal
                    }
                })
                .then_with(|| other.id.cmp(&self.id)) // smaller id = greater
        })
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs greedy over the sorted optimistic order; errors with
/// [`Mc3Error::Uncoverable`] (carrying the element index) if some element
/// is in no set.
pub fn solve_greedy(instance: &SetCoverInstance) -> Result<SetCoverSolution> {
    let _span = mc3_telemetry::span("setcover.greedy");
    instance.ensure_coverable()?;
    let m = instance.num_sets();
    let entry_at = |s: usize| {
        Entry::new(
            u32_of(instance.set(s).len()),
            instance.cost(s).raw(),
            u32_of(s),
        )
    };

    // Phase 1: pure-integer sort — descending key, ascending id on ties
    // (`!key` flips the order so a plain ascending sort works).
    let mut order: Vec<(u64, u32)> = (0..m)
        .filter(|&s| !instance.set(s).is_empty())
        .map(|s| {
            (
                !ratio_key(u32_of(instance.set(s).len()), instance.cost(s).raw()),
                u32_of(s),
            )
        })
        .collect();
    order.sort_unstable();
    // Phase 2: within each equal-key run, verify the exact descending order
    // and re-sort the run if the key proxy collapsed distinct ratios out of
    // order. Equal true ratios are already exact (their tie-break is the
    // ascending id phase 1 produced), so runs almost never need fixing.
    let mut i = 1;
    while i < order.len() {
        // audit:allow(no-unchecked-index-in-hot-loops) 1 <= i < order.len() by the loop bounds
        if order[i].0 != order[i - 1].0 {
            i += 1;
            continue;
        }
        let start = i - 1;
        // audit:allow(no-unchecked-index-in-hot-loops) start = i - 1 < order.len()
        let key = order[start].0;
        let mut end = i + 1;
        // audit:allow(no-unchecked-index-in-hot-loops) end < order.len() is checked first
        while end < order.len() && order[end].0 == key {
            end += 1;
        }
        // audit:allow(no-unchecked-index-in-hot-loops) start < end <= order.len()
        let run = &mut order[start..end];
        if run
            .windows(2)
            // audit:allow(no-unchecked-index-in-hot-loops) windows(2) yields exactly-2 slices
            .any(|w| entry_at(w[0].1 as usize) < entry_at(w[1].1 as usize))
        {
            run.sort_unstable_by(|a, b| entry_at(b.1 as usize).cmp(&entry_at(a.1 as usize)));
        }
        i = end;
    }

    let mut covered = BitCover::new(instance.num_elements());
    let mut uncovered_left = instance.num_elements();
    let mut cursor = 0usize;
    // Reinserted stale-but-alive entries; at most one live entry per set,
    // so capacity m keeps the selection loop allocation-free.
    let mut overflow: BinaryHeap<Entry> = BinaryHeap::with_capacity(m);

    let mut selected = Vec::with_capacity(m);
    // Certificate (verify feature): record each element's selection-time
    // price cost/newly_covered; dual fitting turns those into a proof of
    // the H(Δ) guarantee (see crate::verify).
    #[cfg(feature = "verify")]
    let mut price: Vec<f64> = vec![0.0; instance.num_elements()];
    let mut iterations = 0u64;
    let mut pq_rebuilds = 0u64;
    // Steady-state selection loop: every buffer is preallocated above, so
    // this span records zero allocations (pinned by `mc3-audit consistency`).
    let select_span = mc3_telemetry::span("setcover.greedy.select");
    while uncovered_left > 0 {
        // Next inspection: the larger of the cursor head and overflow top.
        let from_overflow = match (order.get(cursor), overflow.peek()) {
            (Some(&(flipped, id)), Some(h)) => match h.key.cmp(&!flipped) {
                Ordering::Greater => true,
                Ordering::Less => false,
                Ordering::Equal => *h > entry_at(id as usize),
            },
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => {
                return Err(Mc3Error::Internal(
                    // audit:allow(no-alloc-in-hot-loops) reviewed: cold error path, runs at most once
                    "greedy order exhausted with uncovered elements".to_owned(),
                ));
            }
        };
        let top = if from_overflow {
            // audit:allow(no-unwrap-in-lib) from_overflow requires overflow.peek() was Some
            overflow.pop().expect("peeked above")
        } else {
            // audit:allow(no-unchecked-index-in-hot-loops) !from_overflow requires order.get(cursor) was Some
            let (_, id) = order[cursor];
            cursor += 1;
            entry_at(id as usize)
        };
        iterations += 1;
        let s = top.id as usize;
        // Lazy recount against the coverage bitmap — the exact value the
        // per-set live counters used to hold.
        let current = covered.newly_covered(instance.set(s));
        if current == 0 {
            continue; // fully stale
        }
        if current < top.cov {
            // stale: reinsert with the fresh count
            pq_rebuilds += 1;
            // audit:allow(no-alloc-in-hot-loops) reviewed: lazy-rebuild heap push, amortized and counted by pq_rebuilds
            overflow.push(Entry::new(current, top.cost, top.id));
            continue;
        }
        // fresh maximum: select it
        // audit:allow(no-alloc-in-hot-loops) reviewed: solution accumulation — at most one push per selected set
        selected.push(s);
        mc3_telemetry::record(mc3_telemetry::Hist::GreedyPickCoverage, current as u64);
        #[cfg(feature = "verify")]
        let unit_price = top.cost as f64 / current as f64;
        #[cfg(feature = "verify")]
        for &e in instance.set(s) {
            if !covered.test(e) {
                // audit:allow(no-unchecked-index-in-hot-loops) element ids are dense 0..num_elements
                price[e as usize] = unit_price;
            }
        }
        uncovered_left -= covered.mark(instance.set(s)) as usize;
    }
    drop(select_span);
    mc3_telemetry::span_add(
        mc3_telemetry::Counter::BitCoverWordOps,
        covered.take_word_ops(),
    );
    mc3_telemetry::span_add(mc3_telemetry::Counter::GreedyIterations, iterations);
    mc3_telemetry::span_add(mc3_telemetry::Counter::GreedyPqRebuilds, pq_rebuilds);
    mc3_telemetry::span_add(
        mc3_telemetry::Counter::GreedySelected,
        selected.len() as u64,
    );
    #[cfg(feature = "verify")]
    {
        let _vspan = mc3_telemetry::span("verify.greedy_dual");
        crate::verify::assert_greedy_dual_feasible(instance, &price, &selected);
        mc3_telemetry::span_add(mc3_telemetry::Counter::VerifyGreedyDualChecks, 1);
    }
    Ok(SetCoverSolution::new(instance, selected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc3_core::Weight;

    fn w(v: u64) -> Weight {
        Weight::new(v)
    }

    #[test]
    fn picks_best_ratio_first() {
        // Set 0 covers 3 elements at cost 3 (ratio 1), set 1 covers 1 at
        // cost 1 (ratio 1), set 2 covers 2 at cost 1 (ratio 2 → first).
        let inst = SetCoverInstance::new(
            3,
            vec![(vec![0, 1, 2], w(3)), (vec![2], w(1)), (vec![0, 1], w(1))],
        );
        let sol = solve_greedy(&inst).unwrap();
        assert!(sol.is_cover(&inst));
        assert_eq!(sol.selected, vec![1, 2]);
        assert_eq!(sol.cost, w(2));
    }

    #[test]
    fn zero_cost_sets_selected_eagerly() {
        let inst = SetCoverInstance::new(
            2,
            vec![
                (vec![0], Weight::ZERO),
                (vec![0, 1], w(10)),
                (vec![1], w(1)),
            ],
        );
        let sol = solve_greedy(&inst).unwrap();
        assert!(sol.is_cover(&inst));
        assert_eq!(sol.cost, w(1)); // free set + {1}
        assert!(sol.selected.contains(&0));
    }

    #[test]
    fn classic_log_n_worst_case_still_covers() {
        // Elements 0..6; "column" sets of growing size vs two "half" sets.
        let inst = SetCoverInstance::new(
            6,
            vec![
                (vec![0, 1, 2], w(1)),
                (vec![3, 4, 5], w(1)),
                (vec![0, 3], w(1)),
                (vec![1, 4], w(1)),
                (vec![2, 5], w(1)),
            ],
        );
        let sol = solve_greedy(&inst).unwrap();
        assert!(sol.is_cover(&inst));
        // greedy picks the two triples (ratio 3) = optimal here
        assert_eq!(sol.cost, w(2));
    }

    #[test]
    fn stale_entries_are_refreshed() {
        // After selecting the big set, the overlapping set's count drops.
        let inst = SetCoverInstance::new(
            4,
            vec![
                (vec![0, 1, 2], w(1)),
                (vec![2, 3], w(1)), // becomes 1-coverage after set 0
                (vec![3], w(10)),
            ],
        );
        let sol = solve_greedy(&inst).unwrap();
        assert!(sol.is_cover(&inst));
        assert_eq!(sol.selected, vec![0, 1]);
    }

    #[test]
    fn uncoverable_reports_element() {
        let inst = SetCoverInstance::new(2, vec![(vec![0], w(1))]);
        let err = solve_greedy(&inst).unwrap_err();
        assert_eq!(err, Mc3Error::Uncoverable { query_index: 1 });
    }

    #[test]
    fn empty_instance_yields_empty_solution() {
        let inst = SetCoverInstance::new(0, vec![]);
        let sol = solve_greedy(&inst).unwrap();
        assert!(sol.selected.is_empty());
        assert_eq!(sol.cost, Weight::ZERO);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let inst = SetCoverInstance::new(2, vec![(vec![0, 1], w(2)), (vec![0, 1], w(2))]);
        let sol = solve_greedy(&inst).unwrap();
        assert_eq!(sol.selected, vec![0]);
    }

    #[test]
    fn key_proxy_is_monotone_in_exact_ratio() {
        // Cross-check the fixed-point proxy against the exact comparator on
        // adversarial near-tie pairs: huge costs (key collapses to 0/1),
        // cross-multiplication off-by-one ratios, and zero costs.
        let pairs: Vec<(u32, u64)> = vec![
            (1, 1),
            (1, 2),
            (2, 3),
            (3, 2),
            (1, u64::MAX),
            (2, u64::MAX),
            (u32::MAX, 1),
            (u32::MAX, u64::MAX),
            (1, (1u64 << 33) + 1),
            (1, (1u64 << 33) - 1),
            (7, 3),
            (0x1000_0001, 0x1000_0000),
            (0x1000_0000, 0x1000_0001),
            (5, 0),
            (9, 0),
        ];
        for &(ca, wa) in &pairs {
            for &(cb, wb) in &pairs {
                let exact = {
                    let lhs = ca as u128 * wb as u128;
                    let rhs = cb as u128 * wa as u128;
                    lhs.cmp(&rhs)
                };
                let ka = ratio_key(ca, wa);
                let kb = ratio_key(cb, wb);
                match exact {
                    Ordering::Less => assert!(ka <= kb, "{ca}/{wa} vs {cb}/{wb}"),
                    Ordering::Greater => assert!(ka >= kb, "{ca}/{wa} vs {cb}/{wb}"),
                    Ordering::Equal => {
                        // equal ratios only collide further on zero-cost
                        if wa != 0 || wb != 0 {
                            assert_eq!(ka, kb, "{ca}/{wa} vs {cb}/{wb}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn respects_harmonic_bound_on_random_instances() {
        use mc3_core::rng::prelude::*;
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..50 {
            let n = rng.gen_range(1..=8usize);
            let m = rng.gen_range(1..=8usize);
            let mut sets = Vec::new();
            // guarantee coverability with singletons
            for e in 0..n as u32 {
                sets.push((vec![e], w(rng.gen_range(1..10))));
            }
            for _ in 0..m {
                let els: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.5)).collect();
                if !els.is_empty() {
                    sets.push((els, w(rng.gen_range(1..10))));
                }
            }
            let inst = SetCoverInstance::new(n, sets);
            let greedy = solve_greedy(&inst).unwrap();
            assert!(greedy.is_cover(&inst));
            let opt = crate::exact::solve_exact(&inst).unwrap();
            let h: f64 = (1..=inst.degree()).map(|i| 1.0 / i as f64).sum();
            let bound = (opt.cost.raw() as f64) * h + 1e-9;
            assert!(
                greedy.cost.raw() as f64 <= bound,
                "greedy {} exceeds H(Δ)·OPT = {bound}",
                greedy.cost
            );
        }
    }
}

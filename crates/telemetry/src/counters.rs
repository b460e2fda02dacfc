//! The fixed counter and histogram registries.
//!
//! Counters are a *closed* enum: every countable solver internal is
//! declared here, once, with its wire name. There are no counter cells
//! here: an increment lives in the innermost open span's call-tree node
//! ([`span_add`](crate::span_add)), and a counter's total is the sum
//! over the aggregated span tree.
//! [`TelemetryReport`](crate::TelemetryReport) always emits *every*
//! registered name — zeros included — which is what lets
//! `TelemetryReport::from_json` double as a schema-drift guard.
//!
//! Histograms use log2 buckets: bucket 0 holds the value `0`, bucket
//! `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]`, for [`HIST_BUCKETS`]
//! buckets total (enough for the full `u64` range). Their cells are a
//! fixed [`HistBlock`] per thread call tree, drained into the
//! aggregate's block when a root closes.

use mc3_core::u32_of;

macro_rules! declare_counters {
    ($($(#[$meta:meta])* $variant:ident => $name:literal,)+) => {
        /// A registered monotonic counter.
        ///
        /// The registry is deliberately closed: adding a counter means
        /// adding a variant here, which automatically extends the JSON
        /// schema, the report renderer and the CI drift guard.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[$meta])* $variant,)+
        }

        /// Wire names of every registered counter, in declaration order.
        pub const COUNTER_NAMES: &[&str] = &[$($name,)+];

        impl Counter {
            /// Every registered counter, in declaration order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)+];

            /// The counter's wire name, as emitted in `TelemetryReport`.
            pub fn name(self) -> &'static str {
                match self { $(Counter::$variant => $name,)+ }
            }
        }
    };
}

declare_counters! {
    /// Dinic: BFS phases (level-graph rebuilds).
    DinicPhases => "dinic_phases",
    /// Dinic: augmenting paths found across all blocking flows.
    DinicAugmentingPaths => "dinic_augmenting_paths",
    /// Dinic: nodes enqueued across all level-graph BFS runs.
    DinicBfsVisits => "dinic_bfs_visits",
    /// Push-relabel: push operations.
    PrPushes => "pr_pushes",
    /// Push-relabel: relabel operations.
    PrRelabels => "pr_relabels",
    /// Push-relabel: gap-heuristic firings.
    PrGapFirings => "pr_gap_firings",
    /// Greedy WSC: heap pops (iterations of the selection loop).
    GreedyIterations => "greedy_iterations",
    /// Greedy WSC: stale heap entries reinserted with a fresh coverage.
    GreedyPqRebuilds => "greedy_pq_rebuilds",
    /// Greedy WSC: sets selected into the cover.
    GreedySelected => "greedy_selected",
    /// Preprocessing: Observation 3.1 firings (Step-1 selections).
    PreObs31Selected => "pre_obs31_selected",
    /// Preprocessing: Observation 3.3 removals (Step-3 decompositions).
    PreObs33Removed => "pre_obs33_removed",
    /// Preprocessing: Step-3 forced selections (last remaining cover).
    PreObs33Forced => "pre_obs33_forced",
    /// Preprocessing: Observation 3.4 singleton prunes (Step 4).
    PreObs34Pruned => "pre_obs34_pruned",
    /// Preprocessing: Step-3 fixpoint passes.
    PrePasses => "pre_passes",
    /// Preprocessing: Step-3 decompositions priced (classifiers re-examined).
    PreStep3Evals => "pre_step3_evals",
    /// Solver: property-connected components found after preprocessing.
    ComponentsSplit => "components_split",
    /// Solver: dispatches into the exact k ≤ 2 path (Algorithm 2).
    DispatchK2 => "dispatch_k2",
    /// Solver: dispatches into the general WSC path (Algorithm 3).
    DispatchGeneral => "dispatch_general",
    /// Bipartite weighted-vertex-cover reductions solved via max-flow.
    WvcSolves => "wvc_solves",
    /// Covering-LP dual simplex: pivots performed.
    LpPivots => "lp_pivots",
    /// Covering-LP dual simplex: degenerate pivots (ratio ≈ 0; anti-cycling
    /// trigger).
    LpDegeneratePivots => "lp_degenerate_pivots",
    /// Bitset coverage kernel: 64-bit word operations executed.
    BitCoverWordOps => "bitcover_word_ops",
    /// Verify feature: max-flow certificates re-checked.
    VerifyFlowChecks => "verify_flow_checks",
    /// Verify feature: WVC optimality certificates re-checked.
    VerifyWvcChecks => "verify_wvc_checks",
    /// Verify feature: greedy dual-fitting certificates re-checked.
    VerifyGreedyDualChecks => "verify_greedy_dual_checks",
    /// Verify feature: k ≤ 2 exactness certificates re-checked.
    VerifyExactBracketChecks => "verify_exact_bracket_checks",
    /// Verify feature: Theorem 5.3 ratio certificates re-checked.
    VerifyRatioChecks => "verify_ratio_checks",
    /// Verify feature: end-to-end solution certificates re-checked.
    VerifyCertificateChecks => "verify_certificate_checks",
    /// Solve cache: component lookups answered from the cache.
    CacheHits => "cache_hits",
    /// Solve cache: component lookups that missed (or failed re-verify),
    /// and first sightings.
    CacheMisses => "cache_misses",
    /// Solve cache: components solved uncached on their first sighting
    /// (counted in `cache_misses` too).
    CacheFirstSightings => "cache_first_sightings",
    /// Solve cache: entries evicted to stay under the byte budget.
    CacheEvictions => "cache_evictions",
    /// Solve cache: infeasibility verdicts replayed from the cache.
    CacheNegativeHits => "cache_negative_hits",
    /// Solve cache: components whose canonicalization ran out of budget
    /// (solved uncached).
    CanonBudgetExhausted => "canon_budget_exhausted",
}

macro_rules! declare_hists {
    ($($(#[$meta:meta])* $variant:ident => $name:literal,)+) => {
        /// A registered log2-bucketed histogram.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Hist {
            $($(#[$meta])* $variant,)+
        }

        /// Wire names of every registered histogram, in declaration order.
        pub const HIST_NAMES: &[&str] = &[$($name,)+];

        impl Hist {
            /// Every registered histogram, in declaration order.
            pub const ALL: &'static [Hist] = &[$(Hist::$variant,)+];

            /// The histogram's wire name, as emitted in `TelemetryReport`.
            pub fn name(self) -> &'static str {
                match self { $(Hist::$variant => $name,)+ }
            }
        }
    };
}

declare_hists! {
    /// Sizes (query counts) of property-connected components.
    ComponentSize => "component_size",
    /// Newly covered elements per greedy WSC selection.
    GreedyPickCoverage => "greedy_pick_coverage",
    /// Covering-LP dual simplex pivots per solve.
    LpIterations => "lp_iterations",
}

/// Number of log2 buckets per histogram: bucket 0 for the value `0`,
/// buckets `1..=64` for `[2^(i-1), 2^i - 1]`.
pub const HIST_BUCKETS: usize = 65;

pub(crate) const N_COUNTERS: usize = COUNTER_NAMES.len();
const N_HISTS: usize = HIST_NAMES.len();

/// Histogram cells: per registered histogram, indexed by `Hist as usize`,
/// its [`HIST_BUCKETS`] bucket counts, then the observation count, then
/// the value sum.
pub(crate) type HistBlock = [[u64; HIST_BUCKETS + 2]; N_HISTS];

/// A histogram block with nothing recorded.
pub(crate) const EMPTY_HISTS: HistBlock = [[0; HIST_BUCKETS + 2]; N_HISTS];

/// Adds one observation `v` of `h` into `block`.
pub(crate) fn observe(block: &mut HistBlock, h: Hist, v: u64) {
    let row = block
        .get_mut(h as usize)
        .and_then(|r| r.split_last_chunk_mut::<2>());
    if let Some((buckets, [count, sum])) = row {
        if let Some(cell) = buckets.get_mut(bucket_of(v)) {
            *cell += 1;
        }
        *count += 1;
        *sum = sum.saturating_add(v);
    }
}

/// Adds every observation in `from` into `into`, leaving `from` empty.
pub(crate) fn drain_into(into: &mut HistBlock, from: &mut HistBlock) {
    for (into, from) in into.iter_mut().zip(from.iter_mut()) {
        if from.get(HIST_BUCKETS) == Some(&0) {
            continue;
        }
        for (a, b) in into.iter_mut().zip(from.iter_mut()) {
            *a = a.saturating_add(std::mem::take(b));
        }
    }
}

/// The log2 bucket index a value lands in: `0 → 0`, otherwise
/// `64 - v.leading_zeros()` (so `1 → 1`, `2..=3 → 2`, `4..=7 → 3`, …).
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` value range of a bucket index.
///
/// # Panics
/// Panics if `bucket >= HIST_BUCKETS`.
pub fn bucket_bounds(bucket: usize) -> (u64, u64) {
    assert!(bucket < HIST_BUCKETS, "bucket index out of range");
    if bucket == 0 {
        (0, 0)
    } else if bucket == 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (bucket - 1), (1u64 << bucket) - 1)
    }
}

/// One histogram's `(count, sum, non-empty buckets)` in `block`.
pub(crate) fn hist_row(block: &HistBlock, h: Hist) -> (u64, u64, Vec<(u32, u64)>) {
    let Some((buckets, [count, sum])) = block
        .get(h as usize)
        .and_then(|row| row.split_last_chunk::<2>())
    else {
        return (0, 0, Vec::new());
    };
    let buckets = buckets
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (u32_of(i), c))
        .collect();
    (*count, *sum, buckets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        for window in [COUNTER_NAMES, HIST_NAMES] {
            for (i, a) in window.iter().enumerate() {
                assert!(
                    a.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                    "wire name {a} is not snake_case"
                );
                for b in window.iter().skip(i + 1) {
                    assert_ne!(a, b, "duplicate wire name");
                }
            }
        }
    }

    #[test]
    fn counter_enum_and_name_table_agree() {
        assert_eq!(Counter::ALL.len(), COUNTER_NAMES.len());
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i);
            assert_eq!(c.name(), COUNTER_NAMES[i]);
        }
        assert_eq!(Hist::ALL.len(), HIST_NAMES.len());
        for (i, &h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h as usize, i);
            assert_eq!(h.name(), HIST_NAMES[i]);
        }
    }

    #[test]
    fn bucket_of_matches_bounds() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            assert!(b < HIST_BUCKETS);
            let (lo, hi) = bucket_bounds(b);
            assert!(lo <= v && v <= hi, "{v} outside bucket {b} = [{lo}, {hi}]");
        }
        // Buckets tile the u64 range with no gaps or overlaps.
        let mut next = 0u64;
        for b in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(lo, next);
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "last bucket must end at u64::MAX");
    }
}

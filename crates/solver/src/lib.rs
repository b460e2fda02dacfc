#![warn(missing_docs)]

//! MC³ solvers — the algorithmic heart of the reproduction.
//!
//! * [`preprocess`] — Algorithm 1, the four-step optimality-preserving
//!   pruning pipeline (§3);
//! * [`components`] — Step 2's decomposition into property-connected
//!   sub-problems (Observation 3.2);
//! * [`k2`] — Algorithm 2, the exact PTIME solver for `k ≤ 2` via bipartite
//!   Weighted Vertex Cover and max-flow (§4);
//! * [`general`] — Algorithm 3, the `min{ln I + ln(k−1) + 1, 2^(k−1)}`
//!   approximation via the WSC reduction (§5.2);
//! * [`solver`] — the [`Mc3Solver`] facade tying everything together,
//!   including **Short-First** (§4, "Almost k = 2");
//! * [`baselines`] — Property-Oriented, Query-Oriented, Mixed \[13\] and
//!   Local-Greedy (§6.1);
//! * [`cache`] — cross-request memoization of per-component solves,
//!   keyed by `mc3-core::canon` canonical fingerprints;
//! * [`exact`] — an exponential-time exact reference solver;
//! * [`partial`] — the budgeted partial-cover future-work variant (§5.3);
//! * [`multivalued_ext`] — mixed binary + multi-valued classifiers (§5.3).

pub mod baselines;
pub mod cache;
pub mod components;
pub mod cover_dp;
pub mod exact;
pub mod general;
pub mod hardness;
pub mod k2;
pub mod multivalued_ext;
pub mod partial;
pub mod preprocess;
pub mod reduction;
pub mod solver;
#[cfg(feature = "verify")]
pub mod verify;
pub mod work;

pub use cache::{ByteLru, CacheStats, CachedOutcome, CachedSolve, SolveCache};
pub use exact::solve_exact;
pub use general::{LpLimits, WscStrategy};
pub use multivalued_ext::{solve_with_multivalued, MixedPick, MixedSolution};
pub use partial::{
    solve_partial_cover, solve_partial_cover_with, solve_partial_exact, PartialCoverOutcome,
    PartialStrategy,
};
pub use preprocess::{PreprocessOptions, PreprocessStats};
pub use reduction::{reduce_to_wsc, reduce_to_wsc_with, ReductionScratch, WscReduction};
pub use solver::{Algorithm, Mc3Solver, SolveTimings, SolverConfig, SolverReport};

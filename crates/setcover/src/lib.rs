#![warn(missing_docs)]

//! Weighted Set Cover (WSC) substrate for the general MC³ solver.
//!
//! The paper's Algorithm 3 reduces MC³ to WSC (§5.2) and runs *both* the
//! greedy algorithm (Chvátal \[6\], `(ln Δ + 1)`-approximation, implemented
//! with the lazy-heap trick of \[9\] in `O(log m · Σ|s|)`) and the LP-based
//! `f`-approximation (\[50\]), returning the cheaper output. This crate
//! provides:
//!
//! * [`SetCoverInstance`] — the dense WSC representation (CSR incidence
//!   in both directions) with its `frequency` (`f`) and `degree` (`Δ`)
//!   parameters;
//! * [`bitcover`] — the shared [`BitCover`] bitset coverage kernel the hot
//!   loops of [`greedy`], [`prune`] and [`local_search`](mod@local_search) run on (see
//!   `docs/performance.md`);
//! * [`greedy`] — lazy-heap Chvátal greedy;
//! * [`primal_dual`] — the Bar-Yehuda–Even combinatorial `f`-approximation
//!   (LP-duality based; same guarantee as LP rounding, near-linear time);
//! * [`lp_round`] — the literal LP-relaxation rounding using `mc3-lp`'s
//!   simplex (for small/medium instances);
//! * [`exact`] — a branch-and-bound exact solver used as the reference
//!   optimum in tests and for small sub-instances.

pub mod bitcover;
pub mod components;
pub mod exact;
pub mod greedy;
pub mod instance;
pub mod local_search;
pub mod lp_round;
pub mod primal_dual;
pub mod prune;
#[cfg(feature = "verify")]
pub mod verify;

pub use bitcover::BitCover;
pub use components::{solve_exact_by_components, split_components, WscComponent};
pub use exact::solve_exact;
pub use greedy::solve_greedy;
pub use instance::{SetCoverInstance, SetCoverSolution, SetId};
pub use local_search::local_search;
pub use lp_round::solve_lp_rounding;
pub use primal_dual::solve_primal_dual;
pub use prune::prune_redundant;

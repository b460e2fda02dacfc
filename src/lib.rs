#![warn(missing_docs)]

//! # `mc3` — Minimization of Classifier Construction Cost for Search Queries
//!
//! A complete Rust implementation of the MC³ problem from
//! *"Minimization of Classifier Construction Cost for Search Queries"*
//! (Gershtein, Milo, Morami, Novgorodov — SIGMOD 2020): the core data model,
//! the exact PTIME solver for queries of length ≤ 2, the approximation
//! solver for the general case, the preprocessing pipeline, all baselines
//! from the paper's experimental study, workload generators, and the
//! substrates they rely on (max-flow, bipartite matching, weighted set
//! cover, a simplex LP solver).
//!
//! This facade crate re-exports the public API of every workspace member:
//!
//! * [`core`] — properties, queries, classifiers, weights,
//!   instances, solutions, cover semantics;
//! * [`solver`] — Algorithms 1–3 of the paper, baselines,
//!   the exact reference solver, extensions;
//! * [`workload`] — the paper's synthetic generator and
//!   dataset-alike generators (BestBuy, Private);
//! * [`flow`], [`setcover`], [`lp`] —
//!   reusable substrates;
//! * [`telemetry`] — spans, counters and histograms for
//!   profiling solver internals (see `docs/observability.md`).
//!
//! ## Quickstart
//!
//! ```
//! use mc3::prelude::*;
//!
//! // Two queries: {0,1,2} and {3,2}; every classifier costs 5 except a few.
//! let weights = WeightsBuilder::new()
//!     .default_weight(Weight::new(5))
//!     .classifier([1u32], 1u64)
//!     .classifier([2u32, 3], 3u64)
//!     .classifier([0u32, 2], 3u64)
//!     .build();
//! let instance = Instance::new(vec![vec![0u32, 1, 2], vec![3u32, 2]], weights).unwrap();
//!
//! let solution = Mc3Solver::new().solve(&instance).unwrap();
//! solution.verify(&instance).unwrap();
//! assert_eq!(solution.cost(), Weight::new(7)); // {0,2} + {2,3} + {1}
//! ```

pub use mc3_core as core;
pub use mc3_flow as flow;
pub use mc3_lp as lp;
pub use mc3_setcover as setcover;
pub use mc3_solver as solver;
pub use mc3_telemetry as telemetry;
pub use mc3_workload as workload;

/// One-stop imports for typical use.
pub mod prelude {
    pub use mc3_core::{
        is_cover, AttributeSchema, Classifier, ClassifierUniverse, Instance, InstanceStats,
        Mc3Error, PropId, PropSet, PropertyInterner, Query, Solution, Weight, Weights,
        WeightsBuilder,
    };
    pub use mc3_solver::{Algorithm, Mc3Solver, SolverConfig, SolverReport};
    pub use mc3_workload::{BestBuyConfig, Dataset, PrivateConfig, SyntheticConfig};
}

#![warn(missing_docs)]

//! Core data model for the **MC³** problem — *Minimization of Classifier
//! Construction Cost for Search Queries* (Gershtein, Milo, Morami,
//! Novgorodov; SIGMOD 2020).
//!
//! The model follows Section 2 of the paper:
//!
//! * a universe of **properties** `P` ([`PropId`], interned via
//!   [`PropertyInterner`]);
//! * **queries** `q ⊆ P` ([`Query`]) — conjunctive search queries, each a set
//!   of properties;
//! * **classifiers** ([`Classifier`]) — non-empty subsets of some query; a
//!   classifier tests whether an item satisfies *all* of its properties;
//! * the **classifier universe** `C_Q = ⋃_{q∈Q} (2^q \ ∅)`
//!   ([`ClassifierUniverse`]);
//! * a **weight function** `W : C_Q → [0, ∞]` ([`Weights`], [`Weight`]);
//! * an **instance** `⟨Q, W⟩` ([`Instance`]) and a **solution** — a set of
//!   classifiers covering every query ([`Solution`]).
//!
//! A query `q` is *covered* by a classifier set `S` iff there is `T ⊆ S` with
//! `⋃T = q`; equivalently, the union of all members of `S` that are subsets
//! of `q` equals `q` (see [`cover`]).
//!
//! # Example
//!
//! Example 1.1 of the paper (soccer shirts): two queries
//! `{juventus, white, adidas}` and `{chelsea, adidas}`, with the optimal
//! solution `{AC, AJ, W}` of cost `7N`:
//!
//! ```
//! use mc3_core::{Instance, PropertyInterner, Weight, WeightsBuilder};
//!
//! let mut props = PropertyInterner::new();
//! let (j, w, a, c) = (
//!     props.intern("team=Juventus"),
//!     props.intern("color=White"),
//!     props.intern("brand=Adidas"),
//!     props.intern("team=Chelsea"),
//! );
//! let queries = vec![vec![j, w, a], vec![c, a]];
//! let weights = WeightsBuilder::new()
//!     .classifier([c], 5u64)
//!     .classifier([a], 5u64)
//!     .classifier([j], 5u64)
//!     .classifier([w], 1u64)
//!     .classifier([a, c], 3u64)
//!     .classifier([a, w], 5u64)
//!     .classifier([a, j], 3u64)
//!     .classifier([j, w], 4u64)
//!     .classifier([j, a, w], 5u64)
//!     .build();
//! let instance = Instance::new(queries, weights).unwrap();
//! assert_eq!(instance.num_queries(), 2);
//! assert_eq!(instance.max_query_len(), 3);
//! ```

pub mod canon;
pub mod cast;
pub mod certificate;
pub mod cover;
pub mod error;
pub mod fxhash;
pub mod instance;
pub mod json;
pub mod multivalued;
pub mod parse;
pub mod prop;
pub mod propset;
pub mod rng;
pub mod solution;
pub mod stats;
pub mod universe;
pub mod weight;
pub mod weights;

pub use canon::{
    canonicalize, canonicalize_instance, stable_hash128, Canonical, Canonicalizer, StableHasher,
};
pub use cast::{i64_of, u16_of, u32_of, u8_of};
pub use certificate::{Certificate, CoverWitness};
pub use cover::is_cover;
pub use error::{Mc3Error, Result};
pub use fxhash::{FxHashMap, FxHashSet};
pub use instance::Instance;
pub use multivalued::{merge_to_attributes, AttributeId, AttributeSchema, MultiValuedClassifier};
pub use parse::{parse_queries, render_query};
pub use prop::{PropId, PropertyInterner};
pub use propset::{Classifier, PropSet, Query};
pub use solution::Solution;
pub use stats::InstanceStats;
pub use universe::{ClassifierId, ClassifierRef, ClassifierUniverse};
pub use weight::Weight;
pub use weights::{Weights, WeightsBuilder};

/// Maximum supported query length.
///
/// Per-query algorithmic work (subset enumeration, decomposition pruning,
/// per-query covering DP) uses `u32` bitmasks over the query's own
/// properties, so queries are limited to 16 properties. The paper notes that
/// in practice `k` "rarely even exceeds 5" and its synthetic workload caps
/// query length at 10.
pub const MAX_QUERY_LEN: usize = 16;

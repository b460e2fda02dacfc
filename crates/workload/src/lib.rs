#![warn(missing_docs)]

//! Workload generators and dataset IO for MC³ experiments.
//!
//! The paper evaluates on three datasets (Table 1): **BestBuy** (public,
//! ~1000 electronics queries, uniform costs, 95 % of queries of length ≤ 2),
//! **Private** (10 000 e-commerce queries across Electronics / Fashion /
//! Home & Garden, costs 1–63, lengths 1–6; the Fashion slice has ~1000
//! queries, 96 % short) and **Synthetic** (100 000 queries; length `l` with
//! probability `1/2^(l−1)` capped at 10; costs uniform in `[1, 50]`;
//! properties drawn from a pool of `n/t` with `t ~ U[2, √n]`).
//!
//! The real BestBuy and Private data are not redistributable, so this crate
//! generates *dataset-alikes* matching their published marginals — query
//! counts, cost ranges/uniformity, length histograms and property-reuse
//! profiles — which are the only statistics the paper's relative comparisons
//! depend on (see DESIGN.md, "Substitutions"). The synthetic generator
//! follows the paper's §6.1 recipe exactly. Everything is seeded and
//! reproducible.

pub mod bestbuy;
pub mod io;
pub mod mix;
pub mod private_like;
pub mod subset;
pub mod synthetic;

pub use bestbuy::BestBuyConfig;
pub use io::{parse_dataset_json, read_dataset_json, write_dataset_json, DatasetFile, WeightSpec};
pub use mix::{generate_dataset, GeneratorKind, MixEntry, RequestMix};
pub use private_like::{PrivateCategory, PrivateConfig};
pub use subset::random_subset;
pub use synthetic::{PropertyPopularity, SyntheticConfig};

use mc3_core::Instance;

/// A named instance, as produced by the generators.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Display name (e.g. `"BB"`, `"P"`, `"S"`).
    pub name: String,
    /// The generated instance.
    pub instance: Instance,
}

impl Dataset {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, instance: Instance) -> Dataset {
        Dataset {
            name: name.into(),
            instance,
        }
    }
}

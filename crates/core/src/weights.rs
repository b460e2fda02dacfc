//! The weight function `W : C_Q → [0, ∞]`.
//!
//! Classifiers absent from an explicit map are treated as having infinite
//! weight — exactly the paper's convention that infeasible classifiers "are
//! simply omitted from the input" (§2.1) and do not count towards input size.
//!
//! Three representations are supported:
//!
//! * [`Weights::Uniform`] — every classifier costs the same (the model of the
//!   predecessor paper \[13\] and the BestBuy dataset);
//! * an explicit map built with [`WeightsBuilder`];
//! * [`Weights::Seeded`] — a deterministic pseudo-random cost per classifier
//!   drawn uniformly from a range, as in the paper's synthetic workload
//!   (costs uniform in `[1, 50]`). This avoids materializing millions of
//!   map entries for large generated instances; the cost of a classifier is a
//!   pure function of `(seed, classifier)`.

use crate::fxhash::{FxHashMap, FxHasher};
use crate::prop::PropId;
use crate::propset::{Classifier, PropSet};
use crate::weight::Weight;
use std::hash::Hasher;
use std::sync::Arc;

/// A user-supplied cost estimator (e.g. wrapping a labeled-sample-count
/// model, as in the paper's production setting where "the monetary cost of
/// training a given classifier can be estimated in advance \[44\]").
pub type CostFn = dyn Fn(&PropSet) -> Weight + Send + Sync;

/// A total weight function over property sets.
#[derive(Clone)]
pub enum Weights {
    /// Every classifier in `C_Q` has the same finite cost.
    Uniform(Weight),
    /// Explicit per-classifier costs; absent classifiers get `default`
    /// (usually [`Weight::INFINITE`]).
    Map {
        /// Explicit costs.
        map: FxHashMap<Classifier, Weight>,
        /// Cost of classifiers not present in `map`.
        default: Weight,
    },
    /// Deterministic pseudo-random integer cost in `[lo, hi]` per classifier.
    Seeded {
        /// Seed mixed into the per-classifier hash.
        seed: u64,
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
    /// An arbitrary cost estimator. Must be deterministic (the same
    /// classifier is priced repeatedly) and total (return
    /// [`Weight::INFINITE`] for infeasible classifiers).
    Custom(Arc<CostFn>),
}

impl std::fmt::Debug for Weights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Weights::Uniform(w) => f.debug_tuple("Uniform").field(w).finish(),
            Weights::Map { map, default } => f
                .debug_struct("Map")
                .field("entries", &map.len())
                .field("default", default)
                .finish(),
            Weights::Seeded { seed, lo, hi } => f
                .debug_struct("Seeded")
                .field("seed", seed)
                .field("lo", lo)
                .field("hi", hi)
                .finish(),
            Weights::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

impl Weights {
    /// Uniform weight `w` for all classifiers.
    pub fn uniform(w: impl Into<Weight>) -> Weights {
        Weights::Uniform(w.into())
    }

    /// Seeded pseudo-random weights uniform in `[lo, hi]`.
    pub fn seeded(seed: u64, lo: u64, hi: u64) -> Weights {
        assert!(lo <= hi, "empty weight range");
        assert!(hi < u64::MAX, "hi must be finite");
        Weights::Seeded { seed, lo, hi }
    }

    /// Weights computed by an arbitrary (deterministic, total) estimator.
    pub fn custom(f: impl Fn(&PropSet) -> Weight + Send + Sync + 'static) -> Weights {
        Weights::Custom(Arc::new(f))
    }

    /// The cost of `classifier`.
    pub fn weight(&self, classifier: &PropSet) -> Weight {
        match self {
            Weights::Custom(f) => f(classifier),
            _ => self.weight_of_ids(classifier.ids()),
        }
    }

    /// The cost of the classifier whose members are `ids`, which must be
    /// sorted and duplicate-free (a [`PropSet::ids`] slice). Only
    /// [`Weights::Custom`] builds a [`PropSet`] to answer.
    pub fn weight_of_ids(&self, ids: &[PropId]) -> Weight {
        match self {
            Weights::Uniform(w) => *w,
            Weights::Map { map, default } => map.get(ids).copied().unwrap_or(*default),
            Weights::Seeded { seed, lo, hi } => {
                let mut h = FxHasher::default();
                h.write_u64(*seed);
                for p in ids {
                    h.write_u32(p.0);
                }
                // splitmix-style finalization for better low-bit diffusion
                let mut x = h.finish();
                x ^= x >> 30;
                x = x.wrapping_mul(0xbf58476d1ce4e5b9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94d049bb133111eb);
                x ^= x >> 31;
                Weight::new(lo + x % (hi - lo + 1))
            }
            Weights::Custom(f) => f(&PropSet::from_sorted(ids.to_vec())),
        }
    }

    /// Number of explicit entries (0 for uniform/seeded weights).
    pub fn explicit_len(&self) -> usize {
        match self {
            Weights::Map { map, .. } => map.len(),
            _ => 0,
        }
    }
}

/// Builder for explicit ([`Weights::Map`]) weight functions.
///
/// # Example
///
/// ```
/// use mc3_core::{Weight, WeightsBuilder};
///
/// let w = WeightsBuilder::new()
///     .classifier([0u32, 1], 3u64)
///     .classifier([2u32], 5u64)
///     .infinite([0u32, 2]) // explicitly infeasible
///     .build();
/// assert_eq!(w.weight(&[0u32, 1].into_iter().collect()), Weight::new(3));
/// assert!(w.weight(&[0u32, 2].into_iter().collect()).is_infinite());
/// assert!(w.weight(&[9u32].into_iter().collect()).is_infinite()); // absent
/// ```
#[derive(Debug, Clone, Default)]
pub struct WeightsBuilder {
    map: FxHashMap<Classifier, Weight>,
    default: Option<Weight>,
}

impl WeightsBuilder {
    /// An empty builder whose absent-classifier default is infinity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the cost of one classifier.
    pub fn classifier<I, T>(mut self, ids: I, cost: impl Into<Weight>) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<crate::prop::PropId>,
    {
        self.map.insert(PropSet::from_ids(ids), cost.into());
        self
    }

    /// Marks one classifier as infeasible (infinite weight).
    pub fn infinite<I, T>(mut self, ids: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<crate::prop::PropId>,
    {
        self.map.insert(PropSet::from_ids(ids), Weight::INFINITE);
        self
    }

    /// Inserts a pre-built `(classifier, cost)` pair.
    pub fn insert(&mut self, classifier: Classifier, cost: Weight) -> &mut Self {
        self.map.insert(classifier, cost);
        self
    }

    /// Overrides the default cost of classifiers absent from the map
    /// (infinity unless set).
    pub fn default_weight(mut self, w: Weight) -> Self {
        self.default = Some(w);
        self
    }

    /// Finalizes the weight function.
    pub fn build(self) -> Weights {
        Weights::Map {
            map: self.map,
            default: self.default.unwrap_or(Weight::INFINITE),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(ids: &[u32]) -> PropSet {
        PropSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn uniform_weights() {
        let w = Weights::uniform(7u64);
        assert_eq!(w.weight(&ps(&[1])), Weight::new(7));
        assert_eq!(w.weight(&ps(&[1, 2, 3])), Weight::new(7));
        assert_eq!(w.explicit_len(), 0);
    }

    #[test]
    fn map_weights_default_to_infinity() {
        let w = WeightsBuilder::new().classifier([1u32], 4u64).build();
        assert_eq!(w.weight(&ps(&[1])), Weight::new(4));
        assert!(w.weight(&ps(&[2])).is_infinite());
        assert_eq!(w.explicit_len(), 1);
    }

    #[test]
    fn map_weights_custom_default() {
        let w = WeightsBuilder::new().default_weight(Weight::new(1)).build();
        assert_eq!(w.weight(&ps(&[5, 6])), Weight::new(1));
    }

    #[test]
    fn seeded_weights_are_deterministic_and_in_range() {
        let w = Weights::seeded(42, 1, 50);
        for i in 0..500u32 {
            let c = ps(&[i, i + 1]);
            let a = w.weight(&c);
            let b = w.weight(&c);
            assert_eq!(a, b);
            let v = a.finite().unwrap();
            assert!((1..=50).contains(&v), "weight {v} out of range");
        }
    }

    #[test]
    fn seeded_weights_vary_with_seed_and_classifier() {
        let w1 = Weights::seeded(1, 1, 1_000_000);
        let w2 = Weights::seeded(2, 1, 1_000_000);
        let c = ps(&[10, 20]);
        // overwhelmingly likely to differ for a million-wide range
        assert_ne!(w1.weight(&c), w2.weight(&c));
        assert_ne!(w1.weight(&c), w1.weight(&ps(&[10, 21])));
    }

    #[test]
    fn seeded_weights_cover_the_range_roughly_uniformly() {
        let w = Weights::seeded(7, 0, 9);
        let mut buckets = [0usize; 10];
        for i in 0..10_000u32 {
            let v = w.weight(&ps(&[i])).finite().unwrap() as usize;
            buckets[v] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!(b > 700, "bucket {i} too small: {b}");
        }
    }

    #[test]
    fn slice_lookup_agrees_with_propset_lookup() {
        let map = WeightsBuilder::new()
            .classifier([1u32, 2], 4u64)
            .infinite([3u32])
            .build();
        let custom = Weights::custom(|c: &PropSet| Weight::new(c.len() as u64 + 1));
        for w in [
            map,
            custom,
            Weights::seeded(3, 1, 50),
            Weights::uniform(2u64),
        ] {
            for c in [ps(&[1, 2]), ps(&[3]), ps(&[1]), ps(&[2, 3, 4])] {
                assert_eq!(w.weight_of_ids(c.ids()), w.weight(&c), "{w:?} {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty weight range")]
    fn seeded_rejects_empty_range() {
        let _ = Weights::seeded(0, 5, 4);
    }

    #[test]
    fn custom_cost_function() {
        // "cost = 3 per property, but pairs within one attribute are cheap"
        let w = Weights::custom(|c: &PropSet| {
            if c.len() == 2 {
                Weight::new(2)
            } else {
                Weight::new(3 * c.len() as u64)
            }
        });
        assert_eq!(w.weight(&ps(&[5])), Weight::new(3));
        assert_eq!(w.weight(&ps(&[5, 6])), Weight::new(2));
        assert_eq!(w.weight(&ps(&[5, 6, 7])), Weight::new(9));
        assert_eq!(w.explicit_len(), 0);
        // Debug does not try to render the closure
        assert_eq!(format!("{w:?}"), "Custom(..)");
        // and it is cloneable (shared Arc)
        let w2 = w.clone();
        assert_eq!(w2.weight(&ps(&[1, 2])), Weight::new(2));
    }

    #[test]
    fn custom_weights_drive_the_full_model() {
        let w = Weights::custom(|c: &PropSet| {
            if c.contains(crate::prop::PropId(9)) {
                Weight::INFINITE // property 9 is untrainable in conjunctions
            } else {
                Weight::new(c.len() as u64)
            }
        });
        let instance = crate::instance::Instance::new(vec![vec![0u32, 1]], w).unwrap();
        assert_eq!(instance.weight(&ps(&[0, 1])), Weight::new(2));
        assert!(instance.weight(&ps(&[9])).is_infinite());
    }
}
